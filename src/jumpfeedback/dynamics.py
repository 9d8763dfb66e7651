"""Deterministic propagation of the joint system-memory state.

The memory-block generator of :func:`extended_liouvillian` is linear and
time-independent, so a state at time t is exp(t L) applied to the initial
one; :func:`propagate` computes it with one real matrix exponential per
distinct step, preserving hermiticity and total trace.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import PositivityError, ValidationError
from .hybrid import HybridState, extended_liouvillian
from .model import check_density

__all__ = [
    "EvolutionResult",
    "evolve_extended",
    "feedback_steady_state",
    "memory_distribution_rate",
    "stationary_blocks",
    "propagate",
]

POSITIVITY_ABORT = 1e-6


@dataclass(frozen=True)
class EvolutionResult:
    """Time-ordered snapshots of a hybrid evolution.

    ``states[i]`` is the HybridState at ``times[i]``.
    """

    times: np.ndarray
    states: tuple


def _check_times(times):
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0 or not np.isfinite(times).all():
        raise ValidationError("times must be a non-empty 1-d array of finite values")
    if np.any(np.diff(times) < 0):
        raise ValidationError("times must be non-decreasing")
    return times


def _checked_states(ext, vectors, times):
    """HybridStates of ``vectors`` at ``times``, all checked by one :func:`check_density` call."""
    blocks = ext.stack.blocks(np.asarray(vectors))
    check_density(
        blocks, lambda i: f"state at t={times[i]:.6g}", ext.model.channels,
        POSITIVITY_ABORT, PositivityError, computed=True,
    )
    return [HybridState(ext.model.channels, b) for b in blocks]


def propagate(ext, vector, times, start=0.0):
    """Memory-block vectors at each non-decreasing time, starting at ``start``.

    Returns an array whose row i is exp((times[i] - start) L) ``vector``,
    reached step by step.  One exponential is computed per distinct step:
    steps that differ only by the rounding of the grid points (a float
    ``linspace`` has several) share the propagator of their mean, so the
    accumulated time does not drift.

    The steps run in the stack's real coordinates
    (:attr:`GeneratorStack.real_matrices`): each real propagator acts on the
    real and the imaginary part of the coordinates of ``vector``, so an
    input whose blocks are not hermitian stays exact.  A run of steps with
    one propagator P advances in blocks: once b states of the run are known,
    P^b maps all of them to the next b states in one product (b = 1, 2, 4,
    ...).  The states go back to the vector layout in one product.  Times
    and ``start`` must be finite, else :class:`ValidationError`.
    """
    times = np.asarray(times, dtype=float)
    # written so that NaN fails too
    if not (np.isfinite(times).all() and np.isfinite(start)):
        raise ValidationError("times must be finite")
    steps = np.diff(times, prepend=start)
    tol = 4.0 * np.finfo(float).eps * np.abs(times).max(initial=abs(start))
    order = np.argsort(steps, kind="stable")
    ordered = steps[order]
    first = np.diff(ordered, prepend=-np.inf) > tol
    group = np.empty(len(steps), dtype=int)
    group[order] = np.cumsum(first) - 1
    bounds = np.flatnonzero(first)
    means = np.add.reduceat(ordered, bounds) / np.diff(np.append(bounds, len(ordered)))
    stack = ext.stack
    propagators = [scipy.linalg.expm(dt * stack.real_matrices[0]) for dt in means]
    coords = stack.coordinates(np.asarray(vector))
    # columns 2i and 2i + 1: real and imaginary coordinates after step i
    out = np.empty((len(coords), 2 * len(steps)))
    state = np.stack([coords.real, coords.imag], axis=1)
    runs = np.flatnonzero(np.diff(group, prepend=-1)).tolist()
    for lo, hi in zip(runs, runs[1:] + [len(steps)]):
        power = propagators[group[lo]]
        run = out[:, 2 * lo : 2 * hi]
        run[:, :2] = power @ state
        # the first `done` states of the run are known and power = P^done
        done = 1
        while done < hi - lo:
            b = min(done, hi - lo - done)
            run[:, 2 * done : 2 * (done + b)] = power @ run[:, : 2 * b]
            done += b
            if done < hi - lo:
                power = power @ power
        state = run[:, -2:]
    return stack.from_coordinates(out.view(complex).T)


def evolve_extended(model, state0, times, ext=None):
    """Propagate with matrix exponentials of the memory-block generator.

    One exponential is computed per distinct step of the grid (see
    :func:`propagate`): a float ``linspace`` grid costs a few, an arbitrary
    grid one per step.  ``ext`` allows passing a prebuilt ExtendedGenerator
    to skip reassembly.
    """
    times = _check_times(times)
    if state0.labels != model.channels:
        raise ValidationError("state labels do not match model channels")
    if ext is None:
        ext = extended_liouvillian(model)
    vectors = propagate(ext, ext.vector(state0), times[1:], start=times[0])
    states = [state0] + _checked_states(ext, vectors, times[1:])
    return EvolutionResult(times=times, states=tuple(states))


def stationary_blocks(stack):
    """Hermitized stationary blocks ``(P, m, d, d)`` of every member of a stack.

    Solved with the stack's cached bordered factorization (see
    :class:`StationaryStack`).  Raises :class:`PositivityError` when an
    entry is not finite or a hermitized block has an eigenvalue below
    -1e-10, for the first such member (:func:`check_density`).
    """
    blocks = stack.blocks(stack.stationary.vectors)
    labels = range(blocks.shape[1])
    return check_density(blocks, "stationary state", labels, error=PositivityError, computed=True)


def feedback_steady_state(model, ext=None):
    """Unique stationary HybridState of the feedback dynamics.

    :func:`stationary_blocks` of ``ext`` as a stack of one.  Raises
    :class:`DegenerateSteadyStateError` when the kernel is not
    one-dimensional (e.g. disconnected memory sectors) and
    :class:`PositivityError` when a hermitized block has an eigenvalue
    below -1e-10.
    """
    if ext is None:
        ext = extended_liouvillian(model)
    return HybridState(model.channels, stationary_blocks(ext.stack)[0])


def memory_distribution_rate(model, state):
    """Instantaneous net rate dP(k)/dt of the memory distribution.

    Gain collects jumps of channel k fired from every other memory sector;
    loss collects jumps of any other channel fired inside sector k.  Silent
    channels and self-transitions (q = k) cancel exactly and do not
    contribute.
    """
    if state.labels != model.channels:
        raise ValidationError("state labels do not match model channels")
    m = model.n_channels
    blocks = state.blocks
    # rates[k, q] = Tr[L_k(q) rho(q) L_k(q)^dag]
    rates = np.einsum("kqab,qbc,kqac->kq", model.jump_ops, blocks, model.jump_ops.conj()).real
    np.fill_diagonal(rates, 0.0)
    return rates.sum(axis=1) - rates.sum(axis=0)
