"""Hybrid system-memory construction.

The joint state of system and jump memory is block diagonal,
rho_sm = sum_k rho(k) (x) |k><k|, and the feedback dynamics never creates
coherences between memory values.  Every deterministic quantity therefore
lives in the memory-block sector: the stack of column-stacked conditional
blocks vec(rho(0)), ..., vec(rho(m-1)), of length m*d^2.
:class:`ExtendedGenerator` is the generator on that sector and the only
place that knows its layout.

The paper form of the same dynamics is an ordinary Lindbladian on the full
hybrid space, kept here as a reference.  The memory index is major: the
full matrix is ``(m*d, m*d)``, block (k, q) is the contiguous submatrix
``[k*d:(k+1)*d, q*d:(q+1)*d]``, and an extended operator built from a
system operator A acting in memory sector (k, q) is ``kron(|k><q|, A)``.
Restricted to block-diagonal states,
``liouvillian(extended_hamiltonian(model), [*extended_jumps(model),
*extended_silent_jumps(model)])`` acts block by block as
:class:`ExtendedGenerator` does.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg.lapack

from .errors import DegenerateSteadyStateError, DimensionError, PositivityError, ValidationError
from .model import FeedbackModel

__all__ = [
    "HybridState",
    "ExtendedGenerator",
    "StationaryLU",
    "validate_hybrid_state",
    "embed",
    "marginals",
    "extended_hamiltonian",
    "extended_jumps",
    "extended_silent_jumps",
    "extended_liouvillian",
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

    def to_matrix(self):
        """Full ``(m*d, m*d)`` matrix with the blocks on the diagonal."""
        m, d = self.blocks.shape[0], self.dim
        full = np.zeros((m * d, m * d), dtype=complex)
        for k in range(m):
            full[k * d : (k + 1) * d, k * d : (k + 1) * d] = self.blocks[k]
        return full

    @classmethod
    def from_matrix(cls, labels, full, offblock_tol=1e-10):
        """Extract diagonal blocks from a full hybrid matrix.

        Off-diagonal memory blocks larger than ``offblock_tol`` (relative to
        the matrix scale) raise :class:`ValidationError`; pass None to skip
        the check.
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
                raise ValidationError(
                    f"matrix has off-diagonal memory blocks (max {leak:.3e})"
                )
        return cls(labels=labels, blocks=blocks)


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


class StationaryLU:
    """One LU factorization of the bordered generator [[L, c], [t, 0]].

    ``t`` is the trace row, ``t @ L = 0``, and ``c = t^dag / |t|^2`` so that
    ``t @ c = 1``.  Multiplying the first block row of B [x; mu] = [b; beta]
    by t gives mu = t @ b, so for trace-free right-hand sides the border
    unknown vanishes and the solve stays on the generator:

    - [0; 1] gives the unit-trace stationary vector, :attr:`vector`;
    - [b; 0] with t @ b = 0 gives x = L+ b, L+ the Drazin inverse
      (:meth:`drazin`), since L x = b and t @ x = 0.

    B is invertible exactly when the kernel of L is one-dimensional and its
    vector has non-zero trace.  A reciprocal condition estimate of the LU
    below machine epsilon raises :class:`DegenerateSteadyStateError`: the
    kernel is then more than one-dimensional (for example disconnected
    memory sectors) to working precision.  Slow but connected modes stay
    far above that limit (rcond ~ 5e-9 for the maser at rates 1e-7).
    """

    def __init__(self, matrix, trace_row):
        n = len(trace_row)
        b = np.zeros((n + 1, n + 1), dtype=complex, order="F")
        b[:n, :n] = matrix
        b[:n, n] = trace_row.conj() / np.vdot(trace_row, trace_row).real
        b[n, :n] = trace_row
        anorm = np.abs(b).sum(axis=0).max()
        if not np.isfinite(anorm):
            raise np.linalg.LinAlgError("generator has non-finite entries")
        # the LAPACK routines directly: lu_factor warns on an exact zero pivot
        self._lu, self._piv, info = scipy.linalg.lapack.zgetrf(b, overwrite_a=True)
        rcond, _ = scipy.linalg.lapack.zgecon(self._lu, anorm)
        if info > 0 or not rcond >= np.finfo(float).eps:
            raise DegenerateSteadyStateError(
                f"bordered generator is singular (rcond {rcond:.1e}): the kernel is "
                "not one-dimensional and the stationary state is not unique"
            )
        rhs = np.zeros(n + 1, dtype=complex)
        rhs[n] = 1.0
        self.vector = self._solve(rhs)

    def _solve(self, rhs):
        x, _ = scipy.linalg.lapack.zgetrs(self._lu, self._piv, rhs)
        return x[:-1]

    def drazin(self, b):
        """L+ b for a trace-free vector b."""
        return self._solve(np.append(b, 0.0))


@dataclass(frozen=True)
class ExtendedGenerator:
    """Feedback generator restricted to block-diagonal hybrid states.

    ``matrix`` is ``(m*d^2, m*d^2)`` and acts on :meth:`vector` of a
    HybridState, the stacked vec(rho(k)) with the memory index major.  Its
    block (k, q) of size d^2 maps vec(rho(q)) to its contribution to
    d vec(rho(k))/dt.  The bordered factorization that gives the stationary
    vector and every Drazin solve is computed once, on first use.
    """

    model: FeedbackModel
    matrix: np.ndarray

    def vector(self, state):
        """Stacked column-stacked blocks vec(rho(0)), ..., vec(rho(m-1))."""
        return state.blocks.transpose(0, 2, 1).reshape(-1)

    def state(self, vector):
        """HybridState whose blocks are stacked in ``vector``."""
        m, d = self.model.n_channels, self.model.dim
        blocks = np.asarray(vector).reshape(m, d, d).transpose(0, 2, 1)
        return HybridState(self.model.channels, blocks)

    @cached_property
    def trace_row(self):
        """Row t with t @ vector(state) = sum_k Tr[rho(k)]; cached, read-only."""
        row = np.tile(np.eye(self.model.dim, dtype=complex).ravel(), self.model.n_channels)
        row.flags.writeable = False
        return row

    @cached_property
    def stationary(self):
        """The cached :class:`StationaryLU` of this generator."""
        return StationaryLU(self.matrix, self.trace_row)

    def gain_matrix(self, nu):
        """Weighted jump gains: nu[k, q] * conj(L_k(q)) (x) L_k(q) on block (k, q)."""
        return _gain_matrix(self.model.jump_ops, nu)


def _gain_matrix(ops, nu):
    # vec(L X L^dag) = (conj(L) kron L) vec(X); row (k, i, j), column (q, l, p)
    m, d = ops.shape[1], ops.shape[-1]
    return np.einsum(
        "kqil,kqjp->kijqlp", nu[:, :, None, None] * ops.conj(), ops
    ).reshape(m * d * d, m * d * d)


def extended_liouvillian(model):
    """Assemble the generator of a feedback model on the memory-block sector.

    Block (k, q) is the gain conj(L_k(q)) (x) L_k(q), which moves the memory
    from q to k.  Block (k, k) adds the drift of memory value k,
    -i (1 (x) H_eff - conj(H_eff) (x) 1) with H_eff = H(k) - i W(k) / 2 and W
    the loss operator of every monitored and silent channel at k, and the
    gains of the silent operators, which leave the memory at k.
    """
    m, d = model.n_channels, model.dim
    n = d * d
    mat = _gain_matrix(model.jump_ops, np.ones((m, m)))
    eye = np.eye(d)
    h_eff = model.hamiltonians - 0.5j * np.stack([model.loss_operator(k) for k in range(m)])
    # 1 (x) H_eff and conj(H_eff) (x) 1 for every k, indexed like the gains
    drift = -1j * (
        np.einsum("il,kjp->kijlp", eye, h_eff) - np.einsum("kil,jp->kijlp", h_eff.conj(), eye)
    )
    silent = model.silent_ops
    silent_gain = np.einsum("skil,skjp->kijlp", silent.conj(), silent)
    diagonal = (drift + silent_gain).reshape(m, n, n)
    for k in range(m):
        mat[k * n : (k + 1) * n, k * n : (k + 1) * n] += diagonal[k]
    return ExtendedGenerator(model=model, matrix=mat)
