"""Deterministic propagation of the joint system-memory state.

The memory-block generator of :func:`extended_liouvillian` is linear and
time-independent, so a state at time t is exp(t L) applied to the initial
one; :func:`propagate` computes it with one real matrix exponential per
distinct step, preserving hermiticity and total trace.  The generator is a
:class:`GeneratorStack`; the functions of one model take a stack of one and
fail on a larger one.
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
    blocks = ext.blocks(np.asarray(vectors))
    check_density(
        blocks, lambda i: f"state at t={times[i]:.6g}", ext.channels,
        POSITIVITY_ABORT, PositivityError, computed=True,
    )
    return [HybridState(ext.channels, b) for b in blocks]


def _check_generator(model, ext):
    """``ext``, or the model's generator when None; labels other than the model's raise."""
    if ext is None:
        return extended_liouvillian(model)
    if ext.channels != model.channels:
        raise ValidationError("generator channels do not match model channels")
    return ext


def propagate(ext, vector, times, start=0.0):
    """Memory-block vectors at each non-decreasing time, starting at ``start``.

    Returns an array whose row i is exp((times[i] - start) L) ``vector``,
    reached step by step.  One exponential is computed per distinct step:
    steps that differ only by the rounding of the grid points (a float
    ``linspace`` has several) share the propagator of their mean, so the
    accumulated time does not drift.

    ``ext`` is a stack of one.  The steps run in its real coordinates
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
    (real,) = ext.real_matrices
    propagators = [scipy.linalg.expm(dt * real) for dt in means]
    coords = ext.coordinates(np.asarray(vector))
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
    return ext.from_coordinates(out.view(complex).T)


def evolve_extended(model, state0, times, ext=None):
    """Propagate with matrix exponentials of the memory-block generator.

    One exponential is computed per distinct step of the grid (see
    :func:`propagate`): a float ``linspace`` grid costs a few, an arbitrary
    grid one per step.  ``ext``, the prebuilt :func:`extended_liouvillian`
    of ``model``, skips reassembly.  One with other channel labels raises
    :class:`ValidationError`; one of another model with the same labels is
    the caller's responsibility.
    """
    times = _check_times(times)
    if state0.labels != model.channels:
        raise ValidationError("state labels do not match model channels")
    ext = _check_generator(model, ext)
    vectors = propagate(ext, ext.vectors(state0.blocks[None])[0], times[1:], start=times[0])
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

    :func:`stationary_blocks` of ``ext``, by default
    :func:`extended_liouvillian` of ``model``.  An ``ext`` with other
    channel labels raises :class:`ValidationError`; one of another model
    with the same labels is the caller's responsibility.  Raises
    :class:`DegenerateSteadyStateError` when the kernel is not
    one-dimensional (e.g. disconnected memory sectors) and
    :class:`PositivityError` when a hermitized block has an eigenvalue
    below -1e-10.
    """
    (blocks,) = stationary_blocks(_check_generator(model, ext))
    return HybridState(model.channels, blocks)


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
