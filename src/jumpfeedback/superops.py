"""Superoperator algebra for Markovian open-system generators.

Operators are plain complex ndarrays of shape ``(d, d)``.  Superoperators act
on vectorized operators in the column-stacking convention,

    vec(A X B) = (B^T kron A) vec(X),

so a map ``X -> A X B`` is represented by the matrix ``kron(B.T, A)`` of shape
``(d*d, d*d)``.  All constructors below return :class:`Superoperator` wrappers
around such matrices; the raw matrix is always available as ``.matrix``.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DegenerateSteadyStateError,
    DimensionError,
    PositivityError,
    ValidationError,
)

__all__ = [
    "Superoperator",
    "vec",
    "unvec",
    "trace_vector",
    "spre",
    "spost",
    "sandwich",
    "dissipator",
    "liouvillian",
    "jump_superop",
    "no_jump_generator",
    "bordered",
    "stationary_vector",
    "steady_state",
    "drazin",
    "is_trace_annihilating",
    "spectral_gap",
]


def _as_operator(a, name="operator"):
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def _require_hermitian(a, name, tol=1e-12):
    scale = max(1.0, np.abs(a).max())
    if np.abs(a - a.conj().T).max() > tol * scale:
        raise ValidationError(f"{name} is not hermitian within {tol} (relative)")


def vec(x):
    """Column-stack a matrix into a vector."""
    return np.asarray(x).ravel(order="F")


def unvec(v, dim):
    """Inverse of :func:`vec` for a ``dim x dim`` matrix."""
    return np.asarray(v).reshape((dim, dim), order="F")


def trace_vector(dim):
    """Row vector t with t @ vec(X) = Tr[X]."""
    return vec(np.eye(dim, dtype=complex))


@dataclass(frozen=True)
class Superoperator:
    """A linear map on ``dim x dim`` operators in vectorized form.

    Attributes
    ----------
    dim : int
        Hilbert-space dimension the map acts on.
    matrix : ndarray
        Dense ``(dim**2, dim**2)`` complex matrix in the column-stacking
        convention.
    """

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(np.asarray(self.matrix, dtype=complex))
        if m.shape != (self.dim**2, self.dim**2):
            raise DimensionError(
                f"superoperator matrix shape {m.shape} does not match dim {self.dim}"
            )
        object.__setattr__(self, "matrix", m)

    def __call__(self, x):
        x = _as_operator(x)
        if x.shape[0] != self.dim:
            raise DimensionError(
                f"operand dimension {x.shape[0]} does not match superoperator dim {self.dim}"
            )
        return unvec(self.matrix @ vec(x), self.dim)

    def __add__(self, other):
        self._check_compatible(other)
        return Superoperator(self.dim, self.matrix + other.matrix)

    def __sub__(self, other):
        self._check_compatible(other)
        return Superoperator(self.dim, self.matrix - other.matrix)

    def __mul__(self, scalar):
        return Superoperator(self.dim, self.matrix * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other):
        self._check_compatible(other)
        return Superoperator(self.dim, self.matrix @ other.matrix)

    def _check_compatible(self, other):
        if not isinstance(other, Superoperator):
            raise TypeError("expected a Superoperator")
        if other.dim != self.dim:
            raise DimensionError(f"dims differ: {self.dim} vs {other.dim}")

    def expm(self, t=1.0):
        """Propagator exp(t * self) as a Superoperator."""
        return Superoperator(self.dim, scipy.linalg.expm(t * self.matrix))


def spre(a):
    """Superoperator for left multiplication, X -> A X."""
    a = _as_operator(a)
    d = a.shape[0]
    return Superoperator(d, np.kron(np.eye(d), a))


def spost(b):
    """Superoperator for right multiplication, X -> X B."""
    b = _as_operator(b)
    d = b.shape[0]
    return Superoperator(d, np.kron(b.T, np.eye(d)))


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
    """Lindblad dissipator D[L]X = L X L^dag - (1/2){L^dag L, X}.

    Parameters
    ----------
    l : ndarray
        Jump operator, shape ``(d, d)``.
    """
    l = _as_operator(l, "jump operator")
    d = l.shape[0]
    w = l.conj().T @ l
    mat = np.kron(l.conj(), l) - 0.5 * _anticommutator_matrix(w)
    return Superoperator(d, mat)


def liouvillian(h, jump_ops=()):
    """Full generator L X = -i[H, X] + sum_k D[L_k]X.

    Parameters
    ----------
    h : ndarray
        Hamiltonian, required hermitian.
    jump_ops : sequence of ndarray
        Jump operators, all of the same dimension as ``h``.

    Returns
    -------
    Superoperator
        Trace-annihilating generator of the semigroup exp(t L).
    """
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


def jump_superop(l):
    """Rate-level jump channel J X = L X L^dag (no normalization)."""
    return sandwich(l)


def no_jump_generator(h, jump_ops=()):
    """Generator with all jump gain terms removed.

    Returns ``liouvillian(h, jump_ops) - sum_k jump_superop(L_k)``, the
    deterministic part of the unraveled evolution.  It is norm-leaking:
    Tr[L_0 X] = -sum_k Tr[L_k X L_k^dag].
    """
    gen = liouvillian(h, jump_ops)
    mat = gen.matrix.copy()
    for l in jump_ops:
        mat -= jump_superop(l).matrix
    return Superoperator(gen.dim, mat)


def bordered(matrix, column, row):
    """The square matrix [[matrix, column], [row, 0]].

    With ``row`` the trace row and ``column`` a unit-trace kernel vector of
    a trace-annihilating generator L, it is invertible exactly when the
    kernel of L is one-dimensional; solving it with right-hand side
    [b; 0] for trace-free b gives [L+ b; 0], L+ the Drazin inverse.
    """
    n = len(row)
    out = np.zeros((n + 1, n + 1), dtype=complex)
    out[:n, :n] = matrix
    out[:n, n] = column
    out[n, :n] = row
    return out


def stationary_vector(matrix, trace_row, kernel_rtol=1e-9):
    """Unit-trace kernel vector of a generator with a one-dimensional kernel.

    The kernel is extracted from a full SVD of ``matrix``.  A second
    singular value below ``kernel_rtol`` times the largest raises
    :class:`DegenerateSteadyStateError`, and so does a kernel vector whose
    trace ``trace_row @ x`` vanishes.  Shared by :func:`steady_state` and
    the memory-block stationary state.
    """
    _, s, vh = np.linalg.svd(matrix)
    if len(s) > 1:
        if s[0] == 0.0 or s[-2] < kernel_rtol * s[0]:
            # count the near-zero singular values for the diagnostic
            thresh = kernel_rtol * (s[0] if s[0] > 0 else 1.0)
            kdim = int(np.sum(s < thresh)) if s[0] > 0 else len(s)
            raise DegenerateSteadyStateError(
                f"generator kernel is {kdim}-dimensional (need exactly 1); "
                "the stationary state is not unique",
                kernel_dim=kdim,
            )
    x = vh[-1].conj()
    tr = trace_row @ x
    if abs(tr) < 1e-8 * np.linalg.norm(x):
        raise DegenerateSteadyStateError(
            "kernel element is traceless; no normalizable stationary state", kernel_dim=1
        )
    # The SVD's kernel vector can carry round-off of order eps ||L|| / s[-2]
    # along the slow modes, enough to turn tiny populations negative; one
    # bordered solve with it as the border column removes that.
    rhs = np.zeros(len(x) + 1, dtype=complex)
    rhs[-1] = 1.0
    return np.linalg.solve(bordered(matrix, x / tr, trace_row), rhs)[:-1]


def steady_state(gen, pos_tol=1e-10, kernel_rtol=1e-9):
    """Stationary density matrix of a trace-annihilating generator.

    The kernel is extracted by :func:`stationary_vector`; the result is
    trace-normalized and hermitized.

    Parameters
    ----------
    gen : Superoperator
        The generator.
    pos_tol : float
        Eigenvalues of the hermitized state below ``-pos_tol`` raise
        :class:`PositivityError`.
    kernel_rtol : float
        A second singular value below ``kernel_rtol * ||gen||`` means the
        kernel is (numerically) more than one-dimensional and raises
        :class:`DegenerateSteadyStateError`.

    Returns
    -------
    ndarray
        Density matrix with ``gen(rho) = 0``.
    """
    x = unvec(stationary_vector(gen.matrix, trace_vector(gen.dim), kernel_rtol), gen.dim)
    x = 0.5 * (x + x.conj().T)
    evals = np.linalg.eigvalsh(x)
    if evals.min() < -pos_tol:
        raise PositivityError(
            f"stationary state has negative eigenvalue {evals.min():.3e}"
        )
    return x


def drazin(gen, rho_ss, check_tol=1e-9):
    """Drazin (group) inverse of a generator with a unique stationary state.

    With P X = Tr[X] rho_ss and Q = 1 - P, the inverse is
    ``Q (L Q + P)^{-1} Q``.  The defining identities
    L L+ = L+ L = 1 - P and L+ P = P L+ = 0 are verified in the spectral
    norm to ``check_tol`` relative to ||L|| ||L+||, the scale of their
    round-off, so slow but well-separated modes are not mistaken for a
    degenerate kernel; that one is caught by the singular-value test of
    :func:`stationary_vector`.

    Parameters
    ----------
    gen : Superoperator
    rho_ss : ndarray
        Stationary state of ``gen`` (see :func:`steady_state`).
    check_tol : float
        Relative tolerance for the identity checks; set to None to skip.
    """
    d = gen.dim
    n = d * d
    t = trace_vector(d)
    p = np.outer(vec(np.asarray(rho_ss, dtype=complex)), t)
    q = np.eye(n) - p
    a = gen.matrix @ q + p
    try:
        inv_q = np.linalg.solve(a, q)
    except np.linalg.LinAlgError as exc:
        raise DegenerateSteadyStateError(
            "L Q + P is singular; the stationary state is not unique or not stationary"
        ) from exc
    dz = q @ inv_q
    if check_tol is not None:
        norm_l = np.linalg.norm(gen.matrix, 2)
        # L+ P and P L+ carry the units of L+; times ||L|| they compare like the rest
        resid = max(
            np.linalg.norm(gen.matrix @ dz - q, 2),
            np.linalg.norm(dz @ gen.matrix - q, 2),
            norm_l * np.linalg.norm(dz @ p, 2),
            norm_l * np.linalg.norm(p @ dz, 2),
        )
        scale = norm_l * np.linalg.norm(dz, 2)
        if resid > check_tol * scale:
            raise DegenerateSteadyStateError(
                f"Drazin identities violated (residual {resid:.3e}, "
                f"scale ||L|| ||L+|| = {scale:.3e})"
            )
    return Superoperator(d, dz)


def is_trace_annihilating(gen, tol=1e-12):
    """True if Tr[gen(X)] = 0 for every X, i.e. t @ matrix vanishes."""
    t = trace_vector(gen.dim)
    return bool(np.abs(t @ gen.matrix).max() <= tol * max(1.0, np.abs(gen.matrix).max()))


def spectral_gap(gen, zero_rtol=1e-9):
    """Smallest decay rate: min(-Re(lambda)) over nonzero eigenvalues of gen."""
    evals = np.linalg.eigvals(gen.matrix)
    scale = max(np.abs(evals).max(), 1e-300)
    nonzero = evals[np.abs(evals) > zero_rtol * scale]
    if len(nonzero) == 0:
        return 0.0
    return float(-nonzero.real.max())
