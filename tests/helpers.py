"""Shared random-model factories for the test suite."""

import numpy as np

from jumpfeedback import (
    extended_hamiltonian,
    extended_jumps,
    extended_silent_jumps,
    feedback_model,
    liouvillian,
    sandwich,
    validate,
)


def random_hermitian(rng, d, scale=1.0):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * 0.5 * (a + a.conj().T)


def random_operator(rng, d, scale=1.0):
    return scale * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_model(rng, dim=3, n_channels=3, scale=0.6, silent=0):
    """A generic validated feedback model with dense random operators."""
    channels = tuple(f"ch{i}" for i in range(n_channels))
    hams = {c: random_hermitian(rng, dim) for c in channels}
    jumps = {
        c: {q: random_operator(rng, dim, scale) for q in channels} for c in channels
    }
    silent_ops = None
    if silent:
        silent_ops = {
            f"sil{i}": {q: random_operator(rng, dim, 0.4 * scale) for q in channels}
            for i in range(silent)
        }
    return validate(
        feedback_model(
            dim=dim,
            channels=channels,
            hamiltonians=hams,
            jump_ops=jumps,
            silent_ops=silent_ops,
        )
    )


def random_no_feedback_ops(rng, dim=3, n_channels=2, scale=0.6):
    h = random_hermitian(rng, dim)
    ops = [random_operator(rng, dim, scale) for _ in range(n_channels)]
    return h, ops


def dense_oracle(model):
    """The paper-form Lindbladian on the full (m*d)-dimensional hybrid space."""
    return liouvillian(
        extended_hamiltonian(model),
        [*extended_jumps(model), *extended_silent_jumps(model)],
    )


def dense_gain(model, nu):
    """sum of nu[k, q] * sandwich(kron(|k><q|, L_k(q))) on the full hybrid space."""
    m = model.n_channels
    ops = extended_jumps(model)
    size = (m * model.dim) ** 2
    mat = np.zeros((size, size), dtype=complex)
    for k in range(m):
        for q in range(m):
            mat += nu[k, q] * sandwich(ops[k * m + q]).matrix
    return mat
