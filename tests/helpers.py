"""Shared factories and the dense reference for the test suite.

Besides random-model factories, step-by-step trajectory references and an
ODE integration of the memory-block generator, this module holds the dense
oracle: the paper form of jump-based feedback as one Lindbladian on the full
hybrid space of system and memory, an ``(m*d)^2 x (m*d)^2`` matrix.  The
package computes only on the memory-block sector of size m*d^2
(:mod:`jumpfeedback.hybrid`); the tests check it against this form.

The memory index is major: the full matrix is ``(m*d, m*d)``, block (k, q)
is the contiguous submatrix ``[k*d:(k+1)*d, q*d:(q+1)*d]``, and an extended
operator built from a system operator A acting in memory sector (k, q) is
``kron(|k><q|, A)``.  Restricted to block-diagonal states,
:func:`dense_oracle` acts block by block as the package's generator, the
``GeneratorStack`` of one that ``extended_liouvillian`` returns, does.
"""

import os

import numpy as np
import scipy.linalg

import jumpfeedback
from jumpfeedback import (
    DimensionError,
    EvolutionResult,
    HybridState,
    Superoperator,
    ValidationError,
    extended_liouvillian,
    feedback_model,
    unvec,
    vec,
)
from jumpfeedback.model import loss_matrices
from jumpfeedback.superops import _as_operator


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


# keyword arguments of feedback_model and an explicit config section: two
# memories, channel "a" jumps through a rank-2 operator and "b" through a
# rank-1 one, so the fixed-step scheme takes the lookahead search
RANK_TWO_MODEL = {
    "dim": 2,
    "channels": ["a", "b"],
    "hamiltonians": {"a": [[0.5, 0.3], [0.3, -0.5]], "b": [[-0.5, 0.0], [0.0, 0.5]]},
    "jump_ops": {"a": [[0.2, 0.5], [0.0, 0.3]], "b": [[0.0, 0.0], [0.6, 0.0]]},
}


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


def _require_hermitian(a, name, tol=1e-12):
    scale = max(1.0, np.abs(a).max())
    if np.abs(a - a.conj().T).max() > tol * scale:
        raise ValidationError(f"{name} is not hermitian within {tol} (relative)")


def sandwich(a, b=None):
    """Superoperator for X -> A X B^dag (B defaults to A)."""
    a = _as_operator(a)
    b = a if b is None else _as_operator(b, "second operator")
    if b.shape != a.shape:
        raise DimensionError("sandwich operands must share a dimension")
    return Superoperator(a.shape[0], np.kron(b.conj(), a))


def _anticommutator_matrix(w):
    d = w.shape[0]
    eye = np.eye(d)
    return np.kron(eye, w) + np.kron(w.T, eye)


def dissipator(l):
    """Lindblad dissipator D[L]X = L X L^dag - (1/2){L^dag L, X}."""
    l = _as_operator(l, "jump operator")
    d = l.shape[0]
    w = l.conj().T @ l
    mat = np.kron(l.conj(), l) - 0.5 * _anticommutator_matrix(w)
    return Superoperator(d, mat)


def liouvillian(h, jump_ops=()):
    """Full generator L X = -i[H, X] + sum_k D[L_k]X; ``h`` must be hermitian."""
    h = _as_operator(h, "hamiltonian")
    _require_hermitian(h, "hamiltonian")
    d = h.shape[0]
    eye = np.eye(d)
    mat = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for k, l in enumerate(jump_ops):
        l = _as_operator(l, f"jump operator {k}")
        if l.shape[0] != d:
            raise DimensionError(f"jump operator {k} has dimension {l.shape[0]}, expected {d}")
        mat += dissipator(l).matrix
    return Superoperator(d, mat)


def to_matrix(state):
    """Full ``(m*d, m*d)`` matrix of a HybridState, its blocks on the diagonal."""
    m, d = state.blocks.shape[0], state.dim
    full = np.zeros((m * d, m * d), dtype=complex)
    for k in range(m):
        full[k * d : (k + 1) * d, k * d : (k + 1) * d] = state.blocks[k]
    return full


def from_matrix(labels, full, offblock_tol=1e-10):
    """HybridState of the diagonal blocks of a full hybrid matrix.

    Off-diagonal memory blocks larger than ``offblock_tol`` (relative to the
    matrix scale) raise :class:`ValidationError`; None skips the check.
    """
    labels = tuple(labels)
    full = np.asarray(full, dtype=complex)
    m = len(labels)
    if full.shape[0] % m:
        raise DimensionError(f"matrix of shape {full.shape} does not split into {m} blocks")
    d = full.shape[0] // m
    blocks = np.empty((m, d, d), dtype=complex)
    for k in range(m):
        blocks[k] = full[k * d : (k + 1) * d, k * d : (k + 1) * d]
    if offblock_tol is not None:
        resid = full.copy()
        for k in range(m):
            resid[k * d : (k + 1) * d, k * d : (k + 1) * d] = 0.0
        leak = np.abs(resid).max()
        if leak > offblock_tol * max(1.0, np.abs(full).max()):
            raise ValidationError(f"matrix has off-diagonal memory blocks (max {leak:.3e})")
    return HybridState(labels=labels, blocks=blocks)


def _memory_unit(m, k, q):
    e = np.zeros((m, m))
    e[k, q] = 1.0
    return e


def extended_hamiltonian(model):
    """Block-diagonal Hamiltonian sum_k |k><k| (x) H(k) on the hybrid space."""
    m, d = model.n_channels, model.dim
    full = np.zeros((m * d, m * d), dtype=complex)
    for k in range(m):
        full[k * d : (k + 1) * d, k * d : (k + 1) * d] = model.hamiltonians[k]
    return full


def extended_jumps(model):
    """All m^2 extended jump operators, k-major.

    Entry ``k * m + q`` is ``kron(|k><q|, L_k(q))``: channel k fires while
    the memory reads q and resets it to k.  Zero operators are retained so
    the indexing stays aligned with the transition table.
    """
    m, d = model.n_channels, model.dim
    ops = np.zeros((m * m, m * d, m * d), dtype=complex)
    for k in range(m):
        for q in range(m):
            ops[k * m + q] = np.kron(_memory_unit(m, k, q), model.jump_ops[k, q])
    return ops


def extended_silent_jumps(model):
    """Extended operators of the unmonitored channels, kron(|q><q|, L_s(q))."""
    m, d = model.n_channels, model.dim
    s = len(model.silent_labels)
    ops = np.zeros((s * m, m * d, m * d), dtype=complex)
    for j in range(s):
        for q in range(m):
            ops[j * m + q] = np.kron(_memory_unit(m, q, q), model.silent_ops[j, q])
    return ops


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


def evolve_memory_resolved(model, state0, times, rtol=1e-10, atol=1e-12):
    """ODE oracle for :func:`evolve_extended`: DOP853 on the memory-block generator.

    Integrates dv/dt = L v, L = ``extended_liouvillian(model).matrices[0]``, from
    ``state0`` at ``times[0]`` and returns an EvolutionResult with the states
    at the non-decreasing ``times``.  ``rtol`` and ``atol`` go to the
    integrator.
    """
    import scipy.integrate

    times = np.asarray(times, dtype=float)
    ext = extended_liouvillian(model)
    sol = scipy.integrate.solve_ivp(
        lambda _, y: ext.matrices[0] @ y,
        (times[0], times[-1]),
        ext.vectors(state0.blocks[None])[0].astype(complex),
        t_eval=times,
        method="DOP853",
        rtol=rtol,
        atol=atol,
    )
    if not sol.success:
        raise RuntimeError(f"memory-resolved integration failed: {sol.message}")
    states = tuple(HybridState(model.channels, b) for b in ext.blocks(sol.y.T))
    return EvolutionResult(times=times, states=states)


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
    loss = loss_matrices(model.jump_ops, model.silent_ops)
    rho, k, t = np.asarray(rho0, dtype=complex), k0, 0.0
    times, channels, before, charge = [], [], [], 0.0

    def evolved(s):
        u_s = scipy.linalg.expm(-1j * s * (model.hamiltonians[k] - 0.5j * loss[k]))
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
