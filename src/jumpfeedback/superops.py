"""Dense solver for superoperators in vectorized form.

A superoperator acts on column-stacked operators, vec(A X B) = (B^T kron A)
vec(X), so X -> A X B is the ``(d*d, d*d)`` matrix ``kron(B.T, A)`` of a
:class:`Superoperator`.  No computation of the package uses this module:
every number comes from the memory-block generator of :mod:`.hybrid`, and
the dense paper form lives with the tests.  It stays because the benchmark
tracer (``perfbench/tracing.py``) hooks :func:`steady_state`, :func:`drazin`
and :meth:`Superoperator.expm` by name; pointing those hooks at the stack
kernels is a change to the benchmark.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DegenerateSteadyStateError, DimensionError, PositivityError
from .hybrid import StationaryStack
from .model import check_density

__all__ = [
    "Superoperator",
    "vec",
    "unvec",
    "trace_vector",
    "steady_state",
    "drazin",
]

# drazin: identity residuals above this share of ||L|| ||L+|| raise
DRAZIN_CHECK_TOL = 1e-9


def _as_operator(a, name="operator"):
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


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

    def expm(self, t=1.0):
        """Propagator exp(t * self) as a Superoperator."""
        return Superoperator(self.dim, scipy.linalg.expm(t * self.matrix))


def steady_state(gen):
    """Stationary density matrix of a trace-annihilating generator.

    Solved by the bordered factorization of :class:`StationaryStack`, which
    raises :class:`DegenerateSteadyStateError` unless the kernel is
    one-dimensional; the result is unit-trace and hermitized, and a
    non-finite entry or an eigenvalue below -1e-10 raises
    :class:`PositivityError` (:func:`check_density`).
    """
    x = unvec(StationaryStack(gen.matrix[None], trace_vector(gen.dim)).vectors[0], gen.dim)
    x = check_density(x[None, None], "stationary state", error=PositivityError, computed=True)
    return x[0, 0]


def drazin(gen, rho_ss):
    """Drazin (group) inverse of a generator with a unique stationary state.

    With P X = Tr[X] rho_ss and Q = 1 - P, the inverse is
    ``Q (L Q + P)^{-1} Q``.  The defining identities
    L L+ = L+ L = 1 - P and L+ P = P L+ = 0 are verified in the spectral
    norm to ``DRAZIN_CHECK_TOL`` relative to ||L|| ||L+||, the scale of
    their round-off, so slow but well-separated modes are not mistaken for a
    degenerate kernel; that one is caught by the condition test of
    :class:`StationaryStack`.

    Parameters
    ----------
    gen : Superoperator
    rho_ss : ndarray
        Stationary state of ``gen`` (see :func:`steady_state`).
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
    norm_l = np.linalg.norm(gen.matrix, 2)
    # L+ P and P L+ carry the units of L+; times ||L|| they compare like the rest
    resid = max(
        np.linalg.norm(gen.matrix @ dz - q, 2),
        np.linalg.norm(dz @ gen.matrix - q, 2),
        norm_l * np.linalg.norm(dz @ p, 2),
        norm_l * np.linalg.norm(p @ dz, 2),
    )
    scale = norm_l * np.linalg.norm(dz, 2)
    if resid > DRAZIN_CHECK_TOL * scale:
        raise DegenerateSteadyStateError(
            f"Drazin identities violated (residual {resid:.3e}, "
            f"scale ||L|| ||L+|| = {scale:.3e})"
        )
    return Superoperator(d, dz)
