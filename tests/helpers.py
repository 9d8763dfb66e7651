"""Shared random-model factories for the test suite."""

import os

import numpy as np
import scipy.linalg

import jumpfeedback
from jumpfeedback import (
    extended_hamiltonian,
    extended_jumps,
    extended_silent_jumps,
    feedback_model,
    liouvillian,
    sandwich,
    unvec,
    vec,
)


def child_env(env=None):
    """``env`` (default: this process's) with the package source first on PYTHONPATH.

    Subprocesses then import the package under test however pytest found it.
    """
    env = dict(os.environ if env is None else env)
    src = os.path.dirname(os.path.dirname(jumpfeedback.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


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
    return feedback_model(
        dim=dim,
        channels=channels,
        hamiltonians=hams,
        jump_ops=jumps,
        silent_ops=silent_ops,
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


def fixed_step_reference(model, weights, rho0, k0, stream, horizon, dt, burn_in=0.0):
    """The fixed-step unraveling stepped one dt at a time, one uniform per step.

    Channel q fires in a step with probability dt * Tr[L_q rho L_q^dag]; a
    step without a jump applies the normalized no-jump map 1 + dt L_0(k).
    Returns (jump_times, jump_channels, memory_before, final_state, charge).
    """
    m, d = model.n_channels, model.dim
    ops = [
        np.concatenate([model.jump_ops[:, k], model.silent_ops[:, k]])
        if model.silent_labels
        else model.jump_ops[:, k]
        for k in range(m)
    ]
    probes = [
        np.stack([vec((op.conj().T @ op).conj()) for op in ops_k], axis=1) for ops_k in ops
    ]
    # the no-jump generator: the full Lindbladian minus every jump gain
    no_jump = [
        liouvillian(model.hamiltonians[k], list(ops[k])).matrix
        - sum(sandwich(op).matrix for op in ops[k])
        for k in range(m)
    ]
    steps = [(np.eye(d * d) + dt * gen).T for gen in no_jump]
    tr_idx = np.arange(d) * (d + 1)
    v = vec(np.asarray(rho0, dtype=complex))
    k = k0
    times, channels, before, charge = [], [], [], 0.0
    for step in range(int(round(horizon / dt))):
        u = stream.random()
        cum = np.cumsum(np.clip(dt * (v @ probes[k]).real, 0.0, None))
        if u < cum[-1]:
            q = min(int((cum <= u).sum()), len(ops[k]) - 1)
            v = v @ sandwich(ops[k][q]).matrix.T
            t = (step + 1) * dt
            if q < m and t >= burn_in:
                charge += weights.per_transition[q, k]
            times.append(t)
            channels.append(q)
            before.append(k)
            if q < m:
                k = q
        else:
            v = v @ steps[k]
        v = v / v[tr_idx].sum().real
    return np.array(times), np.array(channels), np.array(before), unvec(v, d), charge


def waiting_time_reference(model, weights, rho0, k0, stream, horizon, burn_in=0.0):
    """The waiting-time unraveling evolved in the physical basis, one jump at a time.

    Between jumps the unnormalized state is U rho U^dag with
    U = expm(-i H_eff(k) t); its trace is the survival S(t), and a jump time
    solves S(t) = u by bisection.  Each wait draws one uniform for the
    survival, then a jump draws one for the channel, picked in proportion to
    Tr[L_q rho L_q^dag].  Returns (jump_times, jump_channels, memory_before,
    final_state, charge).
    """
    m = model.n_channels
    ops = np.concatenate([model.jump_ops, model.silent_ops])  # ops[q, k] = L_q(k)
    rho, k, t = np.asarray(rho0, dtype=complex), k0, 0.0
    times, channels, before, charge = [], [], [], 0.0

    def evolved(s):
        u_s = scipy.linalg.expm(-1j * s * (model.hamiltonians[k] - 0.5j * model.loss_operator(k)))
        return u_s @ rho @ u_s.conj().T

    while True:
        u = stream.random()
        end = evolved(horizon - t)
        if np.trace(end).real > u:
            final = end / np.trace(end).real
            return np.array(times), np.array(channels), np.array(before), final, charge
        lo, hi = 0.0, horizon - t
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            if np.trace(evolved(mid)).real > u:
                lo = mid
            else:
                hi = mid
        t += 0.5 * (lo + hi)
        rho = evolved(0.5 * (lo + hi))
        rates = [np.trace(op @ rho @ op.conj().T).real for op in ops[:, k]]
        cum = np.cumsum(np.maximum(rates, 0.0))
        q = min(int((cum <= stream.random() * cum[-1]).sum()), len(ops) - 1)
        rho = ops[q, k] @ rho @ ops[q, k].conj().T
        rho /= np.trace(rho).real
        if q < m and t >= burn_in:
            charge += weights.per_transition[q, k]
        times.append(t)
        channels.append(q)
        before.append(k)
        if q < m:
            k = q
