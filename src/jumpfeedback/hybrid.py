"""Hybrid system-memory construction.

The joint state of system and jump memory is block diagonal,
rho_sm = sum_k rho(k) (x) |k><k|, and the feedback dynamics never creates
coherences between memory values.  Every deterministic quantity therefore
lives in the memory-block sector: the stack of column-stacked conditional
blocks vec(rho(0)), ..., vec(rho(m-1)), of length m*d^2.
:class:`GeneratorStack` holds the generators of several models on that
sector, assembled and factorized as one stack, and is the only place that
knows its layout and its real coordinates in an orthonormal hermitian
operator basis.  It is the only generator type: one model's generator
(:func:`extended_liouvillian`) is a stack of one.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import lapack

from .errors import DegenerateSteadyStateError, DimensionError, PositivityError, ValidationError
from .model import check_density, check_distribution, label_table, loss_matrices

__all__ = [
    "HybridState",
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
# validate_hybrid_state: hermitized blocks may have eigenvalues down to minus this
HYBRID_EIG_TOL = 1e-8


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


def validate_hybrid_state(state):
    """Return ``state`` once its blocks pass :func:`check_density` as one hybrid state.

    An eigenvalue below -``HYBRID_EIG_TOL`` raises :class:`PositivityError`.
    """
    check_density(
        state.blocks[None], "hybrid state", state.labels, HYBRID_EIG_TOL, PositivityError
    )
    return state


def embed(labels, memory_dist, conditionals):
    """Assemble a HybridState from P(k) and conditional states.

    Parameters
    ----------
    labels : sequence of str
        Memory alphabet.
    memory_dist : mapping or sequence
        P(k) as a :func:`label_table`; must pass :func:`check_distribution`.
    conditionals : mapping or ndarray
        Conditional density matrix per label as a :func:`label_table`
        (entries with P(k) = 0 may be omitted), or one shared by all memory
        values.  Those with P(k) > 0 must pass :func:`check_density`.
    """
    labels = tuple(str(c) for c in labels)
    probs = check_distribution(label_table(memory_dist, labels, "memory_dist"), "memory_dist")
    if not isinstance(conditionals, dict):
        conditionals = dict.fromkeys(labels, conditionals)
    if not conditionals:
        raise ValidationError("no conditional states supplied")
    d = np.shape(next(iter(conditionals.values())))[0]
    cond = label_table(conditionals, labels, "conditionals", (d, d), complex)
    used = probs > 0.0
    names = [c for c, u in zip(labels, used) if u]
    check_density(cond[used, None], lambda i: f"conditional for {names[i]!r}")
    blocks = np.where(used[:, None, None], probs[:, None, None] * cond, 0.0)
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

    ``matrices`` is ``(P, n, n)`` and shares ``t``.  Each bordered matrix
    is inverted in place by LAPACK ``zgetrf`` (an LU with partial pivoting)
    and ``zgetri``, which gives each one's exact 1-norm reciprocal
    condition 1 / (|B|_1 |B^-1|_1), :attr:`rcond`.  A member whose LU
    meets an exactly zero pivot gets an all-inf inverse and rcond 0.

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
        # each B is stored transposed, so that it is the Fortran-ordered
        # matrix LAPACK takes: the inverse overwrites it in place
        work = np.zeros((len(matrices), n + 1, n + 1), dtype=complex)
        inverse = work.swapaxes(1, 2)
        inverse[:, :n, :n] = matrices
        inverse[:, :n, n] = trace_row.conj() / np.vdot(trace_row, trace_row).real
        inverse[:, n, :n] = trace_row
        anorm = np.abs(inverse).sum(axis=1).max(axis=1)
        if not np.isfinite(anorm).all():
            raise np.linalg.LinAlgError("generator has non-finite entries")
        lwork = int(lapack.zgetri_lwork(n + 1)[0].real)
        for b in inverse:
            lu, piv, info = lapack.zgetrf(b, overwrite_a=True)
            if info == 0:
                _, info = lapack.zgetri(lu, piv, lwork=lwork, overwrite_lu=True)
            if info != 0:
                b[:] = np.inf
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

    ``channels`` are the members' shared memory labels, ``matrices[i]`` is
    the ``(m*d^2, m*d^2)`` generator of the i-th model on the memory-block
    sector, and ``jump_ops[i]`` its jump operators.  A member acts on the
    stacked vec(rho(k)) of a HybridState, the memory index major
    (:meth:`vectors`): block (k, q) of size d^2 maps vec(rho(q)) to its
    contribution to d vec(rho(k))/dt.  Every deterministic kernel takes a
    stack, so a single generator is a stack of one
    (:func:`extended_liouvillian`); the single-model functions unpack their
    one member and fail on a larger stack.  The bordered factorization of
    all members is computed once, on first use.
    """

    channels: tuple
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
    def hermitian_basis(self):
        """Unitary ``(d^2, d^2)`` whose columns are vec(B_a) of an orthonormal hermitian basis.

        The basis of d x d matrices is E_ii, then (E_ij + E_ji) / sqrt(2) and
        i (E_ij - E_ji) / sqrt(2) for i < j.  The coordinates Tr[B_a X] of a
        hermitian X are real; cached, read-only.
        """
        d = self.jump_ops.shape[-1]
        # vec(X) stacks columns, so X[i, j] is entry j * d + i
        upper = [j * d + i for i in range(d) for j in range(i + 1, d)]
        lower = [i * d + j for i in range(d) for j in range(i + 1, d)]
        eye = np.eye(d * d)
        a, b = eye[:, upper], eye[:, lower]
        u = np.hstack([eye[:, :: d + 1], np.sqrt(0.5) * (a + b), 1j * np.sqrt(0.5) * (a - b)])
        u.flags.writeable = False
        return u

    def coordinates(self, vectors):
        """Coordinates ``(..., m*d^2)`` of vectors in the :attr:`hermitian_basis` of each block.

        Real for hermitian blocks; :meth:`from_coordinates` inverts it.
        """
        u = self.hermitian_basis
        return (vectors.reshape(-1, len(u)) @ u.conj()).reshape(vectors.shape)

    def from_coordinates(self, coordinates):
        """Vectors ``(..., m*d^2)`` with the given :meth:`coordinates`: one product."""
        u = self.hermitian_basis
        return (coordinates.reshape(-1, len(u)) @ u.T).reshape(coordinates.shape)

    @cached_property
    def real_matrices(self):
        """The members acting on :meth:`coordinates`: real ``(P, m*d^2, m*d^2)``; cached, read-only.

        Each (k, q) block is transformed on its own, u^dag L_kq u.  A
        generator preserves hermiticity, so the imaginary part is round-off
        plus the anti-hermitian defect that the model's H(q) may carry
        (within 1e-12 relative), and it is dropped.  An imaginary part above
        1e-10 of the member's largest entry raises :class:`ValidationError`,
        for the first such member: that matrix does not preserve hermiticity.
        """
        u = self.hermitian_basis
        p, size = self.matrices.shape[:2]
        n = len(u)
        m = size // n
        rows = np.matmul(u.conj().T.copy(), self.matrices.reshape(p, m, n, size))
        form = (rows.reshape(-1, n) @ u).reshape(p, size, size)
        # non-finite entries pass, so that the states they give report them
        failed = np.abs(form.imag).max(axis=(1, 2)) > 1e-10 * np.abs(form).max(axis=(1, 2))
        if failed.any():
            raise ValidationError(
                f"generator {np.argmax(failed)} does not preserve hermiticity: "
                "it has no real form in the hermitian basis"
            )
        real = form.real.copy()
        real.flags.writeable = False
        return real

    @cached_property
    def stationary(self):
        """The cached :class:`StationaryStack` of the members."""
        return StationaryStack(self.matrices, self.trace_row)

    def gain_matrices(self, nu):
        """Weighted jump gains of every member; ``nu`` is ``(P, m, m)`` or shared."""
        return _gain_matrices(self.jump_ops, nu)


def _gain_matrices(ops, nu):
    # vec(L X L^dag) = (conj(L) kron L) vec(X); row (k, i, j), column (q, l, p).
    # An einsum, not a broadcast conj(L) * L: numpy's broadcast complex
    # product can leave round-off in the imaginary part of |L_ij|^2, which
    # real_matrices' hermiticity check then sees on a zero generator
    size = ops.shape[1] * ops.shape[-1] ** 2
    return np.einsum(
        "zkqil,zkqjp->zkijqlp", nu[..., None, None] * ops.conj(), ops
    ).reshape(len(ops), size, size)


def generator_stack(channels, hamiltonians, jump_ops, silent_ops):
    """Assemble the generators of models that share channels and dimension.

    ``channels`` are the shared memory labels and the other arguments the
    models' tensors (see :class:`FeedbackModel`), each with a leading stack
    axis.  Block (k, q) is the gain conj(L_k(q)) (x) L_k(q), which moves the
    memory from q to k.  Block (k, k) adds the drift of memory value k,
    -i (1 (x) H_eff - conj(H_eff) (x) 1) with H_eff = H(k) - i W(k) / 2 and
    W the loss of every monitored and silent channel at k
    (:func:`loss_matrices`), and the gains of the silent operators, which
    leave the memory at k.  Each term is one array operation over all
    members.
    """
    p, m, d = hamiltonians.shape[:3]
    n = d * d
    h_eff = hamiltonians - 0.5j * loss_matrices(jump_ops, silent_ops)
    eye = np.eye(d)
    # 1 (x) H_eff and conj(H_eff) (x) 1 for every k, indexed like the gains
    drift = -1j * (
        np.einsum("il,zkjp->zkijlp", eye, h_eff) - np.einsum("zkil,jp->zkijlp", h_eff.conj(), eye)
    )
    silent_gain = np.einsum("zskil,zskjp->zkijlp", silent_ops.conj(), silent_ops)
    diagonal = (drift + silent_gain).reshape(p, m, n, n)
    blocks = _gain_matrices(jump_ops, np.float64(1.0)).reshape(p, m, n, m, n)
    k = np.arange(m)
    blocks[:, k, :, k] += diagonal.swapaxes(0, 1)
    return GeneratorStack(channels, jump_ops, blocks.reshape(p, m * n, m * n))


def extended_liouvillian(model):
    """The generator of one feedback model: a :class:`GeneratorStack` of one."""
    return generator_stack(
        model.channels, model.hamiltonians[None], model.jump_ops[None], model.silent_ops[None]
    )
