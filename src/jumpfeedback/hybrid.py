"""Hybrid system-memory construction.

The joint state of system and jump memory is block diagonal,
rho_sm = sum_k rho(k) (x) |k><k|, and the feedback dynamics never creates
coherences between memory values.  Every deterministic quantity therefore
lives in the memory-block sector: the stack of column-stacked conditional
blocks vec(rho(0)), ..., vec(rho(m-1)), of length m*d^2.
:class:`GeneratorStack` holds the generators of several models on that
sector, assembled and factorized as one stack, and is the only place that
knows its layout; :class:`ExtendedGenerator` is one generator, a stack of
one.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateSteadyStateError, DimensionError, PositivityError, ValidationError
from .model import FeedbackModel

__all__ = [
    "HybridState",
    "ExtendedGenerator",
    "GeneratorStack",
    "StationaryStack",
    "validate_hybrid_state",
    "embed",
    "marginals",
    "extended_liouvillian",
    "generator_stack",
]

# conditional states with weight at or below this are dropped by marginals()
NEGLIGIBLE_WEIGHT = 1e-14


@dataclass(frozen=True)
class HybridState:
    """Block-diagonal joint state of system and jump memory.

    Attributes
    ----------
    labels : tuple of str
        Memory alphabet, aligned with the model's channel order.
    blocks : ndarray
        Shape ``(m, d, d)``; ``blocks[k]`` is the unnormalized conditional
        state rho(k) whose trace is the memory probability P(k).
    """

    labels: tuple
    blocks: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(c) for c in self.labels))
        b = np.ascontiguousarray(np.asarray(self.blocks, dtype=complex))
        if b.ndim != 3 or b.shape[1] != b.shape[2] or b.shape[0] != len(self.labels):
            raise DimensionError(f"blocks shape {b.shape} does not match labels")
        object.__setattr__(self, "blocks", b)

    @property
    def dim(self):
        return self.blocks.shape[1]

    @property
    def memory_dist(self):
        return np.einsum("kii->k", self.blocks).real


def validate_hybrid_state(state, trace_tol=1e-10, eig_tol=1e-8):
    """Assert hermitian blocks, unit total trace, and block positivity."""
    b = state.blocks
    herm = np.abs(b - b.conj().transpose(0, 2, 1)).max()
    if herm > trace_tol * max(1.0, np.abs(b).max()):
        raise ValidationError(f"blocks are not hermitian (defect {herm:.3e})")
    total = state.memory_dist.sum()
    if abs(total - 1.0) > trace_tol:
        raise ValidationError(f"total trace {total} differs from 1 beyond {trace_tol}")
    for k, label in enumerate(state.labels):
        evals = np.linalg.eigvalsh(0.5 * (b[k] + b[k].conj().T))
        if evals.min() < -eig_tol:
            raise PositivityError(
                f"block {label!r} has eigenvalue {evals.min():.3e} below -{eig_tol}"
            )
    return state


def embed(labels, memory_dist, conditionals, trace_tol=1e-10):
    """Assemble a HybridState from P(k) and conditional states.

    Parameters
    ----------
    labels : sequence of str
        Memory alphabet.
    memory_dist : mapping or sequence
        Probabilities P(k), summing to 1 within ``trace_tol``.
    conditionals : mapping or ndarray
        Conditional density matrix per label (entries with P(k) = 0 may be
        omitted), or a single density matrix shared by all memory values.
    """
    labels = tuple(str(c) for c in labels)
    m = len(labels)
    if isinstance(memory_dist, dict):
        unknown = set(map(str, memory_dist)) - set(labels)
        if unknown:
            raise ValidationError(f"memory_dist has unknown labels {sorted(unknown)}")
        probs = np.array([float(dict(memory_dist).get(c, 0.0)) for c in labels])
    else:
        probs = np.asarray(memory_dist, dtype=float)
        if probs.shape != (m,):
            raise DimensionError(f"memory_dist shape {probs.shape}, expected ({m},)")
    if probs.min() < -trace_tol:
        raise ValidationError(f"negative memory probability {probs.min()}")
    if abs(probs.sum() - 1.0) > trace_tol:
        raise ValidationError(f"memory probabilities sum to {probs.sum()}, not 1")

    cond = {}
    if isinstance(conditionals, dict):
        cond = {str(k): np.asarray(v, dtype=complex) for k, v in conditionals.items()}
        unknown = set(cond) - set(labels)
        if unknown:
            raise ValidationError(f"conditionals keyed by unknown labels {sorted(unknown)}")
    else:
        shared = np.asarray(conditionals, dtype=complex)
        cond = {c: shared for c in labels}

    d = None
    for v in cond.values():
        d = v.shape[0]
        break
    if d is None:
        raise ValidationError("no conditional states supplied")

    blocks = np.zeros((m, d, d), dtype=complex)
    for k, label in enumerate(labels):
        if probs[k] <= 0.0:
            continue
        if label not in cond:
            raise ValidationError(f"missing conditional state for label {label!r}")
        rho = cond[label]
        if rho.shape != (d, d):
            raise DimensionError(f"conditional for {label!r} has shape {rho.shape}")
        if abs(np.trace(rho) - 1.0) > trace_tol:
            raise ValidationError(f"conditional for {label!r} is not unit trace")
        blocks[k] = probs[k] * rho
    return validate_hybrid_state(HybridState(labels=labels, blocks=blocks))


def marginals(state):
    """System marginal, memory distribution, and conditional states.

    Returns
    -------
    system : ndarray
        sum_k rho(k).
    memory_dist : ndarray
        P(k) = Tr[rho(k)].
    conditionals : dict
        label -> rho(k)/P(k); labels with P(k) <= 1e-14 are omitted.
    """
    system = state.blocks.sum(axis=0)
    probs = state.memory_dist
    conditionals = {}
    for k, label in enumerate(state.labels):
        if probs[k] > NEGLIGIBLE_WEIGHT:
            conditionals[label] = state.blocks[k] / probs[k]
    return system, probs, conditionals


def _inverse_or_inf(b):
    try:
        return np.linalg.inv(b)
    except np.linalg.LinAlgError:
        return np.full_like(b, np.inf)


class StationaryStack:
    """Inverses of the bordered generators [[L, c], [t, 0]] of a stack.

    ``t`` is the trace row, ``t @ L = 0``, and ``c = t^dag / |t|^2`` so that
    ``t @ c = 1``.  Multiplying the first block row of B [x; mu] = [b; beta]
    by t gives mu = t @ b, so for trace-free right-hand sides the border
    unknown vanishes and the solve stays on the generator:

    - [0; 1] gives the unit-trace stationary vector, the last column of
      B^-1 (:attr:`vectors`);
    - [b; 0] with t @ b = 0 gives x = L+ b, L+ the Drazin inverse
      (:meth:`drazin`), since L x = b and t @ x = 0.

    ``matrices`` is ``(P, n, n)`` and shares ``t``.  One call of numpy's
    batched ``linalg.inv`` (an LU with partial pivoting per member) inverts
    all P bordered matrices and gives each one's exact 1-norm reciprocal
    condition 1 / (|B|_1 |B^-1|_1), :attr:`rcond`.

    B is invertible exactly when the kernel of L is one-dimensional and its
    vector has non-zero trace.  A reciprocal condition below machine
    epsilon raises :class:`DegenerateSteadyStateError` for the first such
    member: its kernel is then more than one-dimensional (for example
    disconnected memory sectors) to working precision.  Slow but connected
    modes stay far above that limit (rcond ~ 5e-9 for the maser at rates
    1e-7).
    """

    def __init__(self, matrices, trace_row):
        n = len(trace_row)
        b = np.zeros((len(matrices), n + 1, n + 1), dtype=complex)
        b[:, :n, :n] = matrices
        b[:, :n, n] = trace_row.conj() / np.vdot(trace_row, trace_row).real
        b[:, n, :n] = trace_row
        anorm = np.abs(b).sum(axis=1).max(axis=1)
        if not np.isfinite(anorm).all():
            raise np.linalg.LinAlgError("generator has non-finite entries")
        try:
            inverse = np.linalg.inv(b)
        except np.linalg.LinAlgError:
            # an exactly singular member: invert one by one, so that the
            # others keep their condition and the first failure is reported
            inverse = np.stack([_inverse_or_inf(x) for x in b])
        rcond = 1.0 / (anorm * np.abs(inverse).sum(axis=1).max(axis=1))
        # written so that a NaN condition fails too
        failed = ~(rcond >= np.finfo(float).eps)
        if failed.any():
            raise DegenerateSteadyStateError(
                f"bordered generator is singular (rcond {rcond[np.argmax(failed)]:.1e}): the "
                "kernel is not one-dimensional and the stationary state is not unique"
            )
        self.rcond = rcond
        self.vectors = inverse[:, :n, n]
        self._drazin = inverse[:, :n, :n]

    def drazin(self, b):
        """L+ b for trace-free vectors b, ``(P, n)``: one per member."""
        return np.matmul(self._drazin, b[..., None])[..., 0]


@dataclass(frozen=True)
class GeneratorStack:
    """Feedback generators of models that share channels and dimension.

    ``matrices[i]`` is the ``(m*d^2, m*d^2)`` generator of the i-th model on
    the memory-block sector, and ``jump_ops[i]`` its jump operators.  A
    member acts on the stacked vec(rho(k)) of a HybridState, the memory
    index major (:meth:`vectors`): block (k, q) of size d^2 maps vec(rho(q))
    to its contribution to d vec(rho(k))/dt.  Every deterministic kernel
    takes a stack, so a single generator is a stack of one
    (:attr:`ExtendedGenerator.stack`).  The bordered factorization of all
    members is computed once, on first use.
    """

    jump_ops: np.ndarray
    matrices: np.ndarray

    def vectors(self, blocks):
        """Stacked column-stacked blocks: ``(P, m, d, d)`` to ``(P, m*d^2)``."""
        return blocks.transpose(0, 1, 3, 2).reshape(len(blocks), -1)

    def blocks(self, vectors):
        """Blocks ``(P, m, d, d)`` stacked in ``vectors``; inverts :meth:`vectors`."""
        m, d = self.jump_ops.shape[1], self.jump_ops.shape[-1]
        return vectors.reshape(-1, m, d, d).transpose(0, 1, 3, 2)

    @cached_property
    def trace_row(self):
        """Row t with t @ vector = sum_k Tr[rho(k)]; cached, read-only."""
        m, d = self.jump_ops.shape[1], self.jump_ops.shape[-1]
        row = np.tile(np.eye(d, dtype=complex).ravel(), m)
        row.flags.writeable = False
        return row

    @cached_property
    def stationary(self):
        """The cached :class:`StationaryStack` of the members."""
        return StationaryStack(self.matrices, self.trace_row)

    def gain_matrices(self, nu):
        """Weighted jump gains of every member; ``nu`` is ``(P, m, m)`` or shared."""
        return _gain_matrices(self.jump_ops, nu)


@dataclass(frozen=True)
class ExtendedGenerator:
    """Feedback generator of one model on the memory-block sector.

    ``matrix`` is ``(m*d^2, m*d^2)`` and acts on :meth:`vector` of a
    HybridState.  The layout, the bordered factorization and every kernel
    are those of :attr:`stack`, this generator as a stack of one.
    """

    model: FeedbackModel
    matrix: np.ndarray

    @cached_property
    def stack(self):
        """This generator as a :class:`GeneratorStack` of one; cached."""
        return GeneratorStack(self.model.jump_ops[None], self.matrix[None])

    def vector(self, state):
        """Stacked column-stacked blocks vec(rho(0)), ..., vec(rho(m-1))."""
        return self.stack.vectors(state.blocks[None])[0]

    def state(self, vector):
        """HybridState whose blocks are stacked in ``vector``."""
        return HybridState(self.model.channels, self.stack.blocks(np.asarray(vector))[0])

    @property
    def trace_row(self):
        """Row t with t @ vector(state) = sum_k Tr[rho(k)]; cached, read-only."""
        return self.stack.trace_row

    @property
    def stationary(self):
        """The cached :class:`StationaryStack` of this generator, a stack of one."""
        return self.stack.stationary

    def gain_matrix(self, nu):
        """Weighted jump gains: nu[k, q] * conj(L_k(q)) (x) L_k(q) on block (k, q)."""
        return self.stack.gain_matrices(nu)[0]


def _gain_matrices(ops, nu):
    # vec(L X L^dag) = (conj(L) kron L) vec(X); row (k, i, j), column (q, l, p)
    size = ops.shape[1] * ops.shape[-1] ** 2
    return np.einsum(
        "zkqil,zkqjp->zkijqlp", nu[..., None, None] * ops.conj(), ops
    ).reshape(len(ops), size, size)


def generator_stack(hamiltonians, jump_ops, silent_ops):
    """Assemble the generators of models that share channels and dimension.

    The arguments are the models' tensors (see :class:`FeedbackModel`), each
    with a leading stack axis.  Block (k, q) is the gain conj(L_k(q)) (x)
    L_k(q), which moves the memory from q to k.  Block (k, k) adds the drift
    of memory value k, -i (1 (x) H_eff - conj(H_eff) (x) 1) with H_eff =
    H(k) - i W(k) / 2 and W the loss operator of every monitored and silent
    channel at k, and the gains of the silent operators, which leave the
    memory at k.  Each term is one array operation over all members.
    """
    p, m, d = hamiltonians.shape[:3]
    n = d * d
    loss = np.einsum("zkqij,zkqil->zqjl", jump_ops.conj(), jump_ops)
    loss += np.einsum("zsqij,zsqil->zqjl", silent_ops.conj(), silent_ops)
    h_eff = hamiltonians - 0.5j * loss
    eye = np.eye(d)
    # 1 (x) H_eff and conj(H_eff) (x) 1 for every k, indexed like the gains
    drift = -1j * (
        np.einsum("il,zkjp->zkijlp", eye, h_eff) - np.einsum("zkil,jp->zkijlp", h_eff.conj(), eye)
    )
    silent_gain = np.einsum("zskil,zskjp->zkijlp", silent_ops.conj(), silent_ops)
    diagonal = (drift + silent_gain).reshape(p, m, n, n)
    mats = _gain_matrices(jump_ops, np.ones((m, m)))
    blocks = mats.reshape(p, m, n, m, n)
    for k in range(m):
        blocks[:, k, :, k] += diagonal[:, k]
    return GeneratorStack(jump_ops=jump_ops, matrices=mats)


def extended_liouvillian(model):
    """Assemble the generator of one feedback model (:func:`generator_stack`)."""
    stack = generator_stack(model.hamiltonians[None], model.jump_ops[None], model.silent_ops[None])
    return ExtendedGenerator(model=model, matrix=stack.matrices[0])
