"""Full counting statistics of weighted jump transitions.

Charge is accumulated per memory transition: a jump of channel k while the
memory reads q adds the weight ``nu[k, q]``.  Channel-resolved counting
(weights independent of q) is the special case of constant rows.  All
quantities below act on the memory-block generator of a feedback model, a
:class:`GeneratorStack`: the stack kernels serve every member at once, and
the single-model functions take the stack of one of
:func:`extended_liouvillian` and fail on a larger one.  With a trivial
(no-feedback) model they reduce to standard Lindblad counting statistics.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .dynamics import propagate, stationary_blocks
from .errors import DimensionError, ResolventError, StencilError, ValidationError
from .hybrid import HybridState
from .model import check_grid, check_positive, jump_rate_table, label_table

__all__ = [
    "CountingWeights",
    "CorrelationSamples",
    "SpectrumSamples",
    "current_superop",
    "average_current",
    "noise_background",
    "two_point_correlation",
    "power_spectrum",
    "steady_noise",
    "stationary_noises",
    "stationarity_residuals",
    "weighted_jump_rates",
    "spectral_gap",
    "noise_by_quadrature",
    "tilted_generator",
    "tilted_cumulants",
]


@dataclass(frozen=True)
class CountingWeights:
    """Weights nu[k, q] attached to the transition (memory q -> channel k).

    Attributes
    ----------
    channels : tuple of str
        Monitored channel labels, aligned with the model.
    per_transition : ndarray
        Real finite ``(m, m)`` matrix; row k is the fired channel, column q
        the memory value before the jump.
    """

    channels: tuple
    per_transition: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(str(c) for c in self.channels))
        m = len(self.channels)
        w = np.ascontiguousarray(np.asarray(self.per_transition, dtype=float))
        if w.shape != (m, m):
            raise DimensionError(f"per_transition shape {w.shape}, expected ({m}, {m})")
        if not np.isfinite(w).all():
            raise ValidationError("per_transition has non-finite entries")
        object.__setattr__(self, "per_transition", w)

    @property
    def channel_resolved(self):
        """True when every row is constant (weights ignore the memory)."""
        return bool(np.all(self.per_transition == self.per_transition[:, :1]))

    @property
    def per_channel(self):
        """Row weights when channel-resolved; raises otherwise."""
        if not self.channel_resolved:
            raise ValidationError("weights are transition-resolved, no per-channel form")
        return self.per_transition[:, 0].copy()

    @classmethod
    def from_channel_weights(cls, channels, weights):
        """Constant-row weights from a :func:`label_table` of ``nu`` per channel."""
        channels = tuple(str(c) for c in channels)
        row = label_table(weights, channels, "weights")
        return cls(channels=channels, per_transition=np.tile(row[:, None], (1, len(channels))))

    @classmethod
    def activity(cls, channels):
        """Unit weight on every channel: counts raw jump numbers."""
        return cls.from_channel_weights(channels, np.ones(len(channels)))


def _check_weights(ext, weights):
    if weights.channels != ext.channels:
        raise ValidationError("weights channels do not match the model")


def current_superop(ext, weights):
    """Weighted jump superoperator J X = sum nu[k,q] L_k(q) X L_k(q)^dag.

    A matrix on the memory-block vectors of ``ext``.
    """
    _check_weights(ext, weights)
    (gain,) = ext.gain_matrices(weights.per_transition)
    return gain


# a computed trace counts as real when |imag| <= IMAG_RESIDUE_TOL * max(1, |real|)
IMAG_RESIDUE_TOL = 1e-8


def _real_part(z, what, tol=IMAG_RESIDUE_TOL):
    """Real part of computed traces; the first not finite or not real raises.

    ``what`` names them, a string or a function of the failing index.
    """
    z = np.asarray(z, dtype=complex)
    failed = ~np.isfinite(z) | (np.abs(z.imag) > tol * np.maximum(1.0, np.abs(z.real)))
    if failed.any():
        i = np.argmax(failed)
        name = what(i) if callable(what) else what
        raise ValidationError(f"{name} is {z.flat[i]:.3e}, not a finite real number")
    return z.real


def weighted_jump_rates(stack, nu, blocks, what, rates=None):
    """sum_kq nu[k, q] Tr[L_k(q) rho(q) L_k(q)^dag] of every member of a stack.

    ``blocks`` is ``(P, m, d, d)`` and ``nu`` is ``(P, m, m)`` or shared;
    ``what`` names the quantity in the error a non-real trace raises.
    ``rates``, when given, is :func:`jump_rate_table` of the stack's jump
    operators and the same blocks, so that several weights share one table.
    """
    if rates is None:
        rates = jump_rate_table(stack.jump_ops, blocks)
    return _real_part(np.sum(nu * rates, axis=(1, 2)), what)


def average_current(ext, weights, state):
    """Mean charge rate Tr[J rho] in the given hybrid state."""
    _check_weights(ext, weights)
    (current,) = weighted_jump_rates(
        ext, weights.per_transition, state.blocks[None], "average current"
    )
    return float(current)


def noise_background(ext, weights, state):
    """Self-correlation background K = Tr[H2 rho], the delta weight at tau=0."""
    _check_weights(ext, weights)
    (background,) = weighted_jump_rates(
        ext, weights.per_transition**2, state.blocks[None], "noise background"
    )
    return float(background)


def stationarity_residuals(stack, blocks):
    """Relative residuals ||L v|| / max(1, max|L|) of the members' states.

    ``blocks`` is ``(P, m, d, d)``.  The two-time formulas assume
    stationarity: a residual above 1e-8 raises :class:`ValidationError`,
    for the first such member.
    """
    v = stack.vectors(blocks)
    resid = np.linalg.norm(np.matmul(stack.matrices, v[..., None])[..., 0], axis=1)
    scale = np.maximum(1.0, np.abs(stack.matrices).max(axis=(1, 2)))
    failed = resid > 1e-8 * scale
    if failed.any():
        raise ValidationError(
            f"state is not stationary (||L rho|| = {resid[np.argmax(failed)]:.3e}); "
            "the two-time formulas below assume stationarity"
        )
    return resid / scale


def _resolve_stationary(ext, state):
    """Return (state, memory-block vector), computing and checking stationarity."""
    if state is None:
        (blocks,) = stationary_blocks(ext)
        state = HybridState(ext.channels, blocks)
    stationarity_residuals(ext, state.blocks[None])
    return state, ext.vectors(state.blocks[None])[0]


def _two_time_terms(ext, weights, state):
    """Terms of the stationary two-time formulas of ``ext``, a stack of one.

    Returns the state (see :func:`_resolve_stationary`), its vector v, J v,
    the row t J, the current t J v, checked to be finite and real, and the
    background K.  J is :func:`current_superop`.
    """
    state, v = _resolve_stationary(ext, state)
    jmat = current_superop(ext, weights)
    jv = jmat @ v
    current = float(_real_part(ext.trace_row @ jv, "average current"))
    return state, v, jv, ext.trace_row @ jmat, current, noise_background(ext, weights, state)


def stationary_noises(stack, nu, blocks, rates=None):
    """Zero-frequency noise D = K - 2 Tr[J L+ J rho_ss] of every member.

    ``blocks`` ``(P, m, d, d)`` are the members' stationary states (see
    :func:`stationarity_residuals`) and ``nu`` is ``(P, m, m)`` or shared.
    L+ is applied by one solve with the stack's cached bordered
    factorization and never formed (Landi et al., PRX Quantum 5, 020201,
    2024).  ``rates`` is as in :func:`weighted_jump_rates`.  A noise below
    -1e-10 raises :class:`ValidationError`, for the first such member.
    """
    background = weighted_jump_rates(stack, nu**2, blocks, "noise background", rates)
    jmats, v = stack.gain_matrices(nu), stack.vectors(blocks)
    t = stack.trace_row
    jv = np.matmul(jmats, v[..., None])[..., 0]
    x = stack.stationary.drazin(jv - v * (jv @ t)[:, None])
    jx = np.matmul(jmats, x[..., None])[..., 0]
    noise = background - 2.0 * _real_part(jx @ t, "zero-frequency term", tol=1e-6)
    failed = noise < -1e-10
    if failed.any():
        raise ValidationError(
            f"zero-frequency noise came out negative ({noise[np.argmax(failed)]:.3e})"
        )
    return noise


@dataclass(frozen=True)
class CorrelationSamples:
    """Smooth part of the stationary charge-current autocorrelation.

    ``values[i]`` is F(tau_i) without the singular term; ``background`` is
    the delta weight K, reported separately; ``current`` is the stationary
    mean J.
    """

    taus: np.ndarray
    values: np.ndarray
    background: float
    current: float


def two_point_correlation(ext, weights, taus, state=None):
    """Stationary autocorrelation F(tau) = K delta(tau) + smooth part.

    The smooth part is Tr[J exp(tau L) J rho_ss] - J^2, evaluated on the
    given finite non-negative lags.  Requires a stationary state; a
    non-stationary input raises :class:`ValidationError`, and so does a
    value that is not finite or not real, naming its lag.
    """
    taus = check_grid(taus, "lags", non_negative="F is even in tau")
    order = np.argsort(taus, kind="stable")
    _, _, jv, tj, current, background = _two_time_terms(ext, weights, state)
    lags = taus[order]
    raw = propagate(ext, jv, lags) @ tj
    values = np.empty(len(taus))
    raw = _real_part(raw, lambda i: f"correlation value at tau={lags[i]:.6g}")
    values[order] = raw - current**2
    return CorrelationSamples(
        taus=taus, values=values, background=background, current=current
    )


@dataclass(frozen=True)
class SpectrumSamples:
    """Power spectrum samples S(omega) including the flat background K.

    ``max_resolvent_residual`` is the largest relative residual
    ||(i omega - L) x - b|| / max(1, ||b||) over the nonzero frequencies, or
    None when the grid holds only omega = 0.
    """

    omegas: np.ndarray
    values: np.ndarray
    background: float
    max_resolvent_residual: Optional[float]


def _resolvent_columns(lmat, b, shifts):
    """Columns x_i = (shifts[i] - L)^{-1} b, one per shift.

    One complex Schur form L = Z T Z^dag turns every shift into a triangular
    system (shift - T) y = Z^dag b, solved for all shifts together by
    back-substitution over the rows; x = Z y.  Costs O(n^3 + n^2 n_shifts)
    against O(n^3 n_shifts) for one dense solve per shift (Laub, IEEE TAC 26,
    407, 1981).  An exactly singular shift leaves a non-finite column.
    """
    tmat, z = scipy.linalg.schur(lmat, output="complex")
    c = z.conj().T @ b
    n = len(c)
    y = np.empty((n, len(shifts)), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(n - 1, -1, -1):
            y[j] = (c[j] + tmat[j, j + 1 :] @ y[j + 1 :]) / (shifts - tmat[j, j])
    return z @ y


def power_spectrum(ext, weights, omegas, state=None):
    """Stationary noise power spectrum of the weighted counting process.

    S(omega) = K + 2 Re Tr[J (i omega - L)^{-1} Q J rho_ss] with Q the
    projector off the stationary state.  All nonzero frequencies share one
    complex Schur form L = Z T Z^dag: each resolvent is a back-substitution
    with the shifted triangle, vectorized over the grid, so a call costs one
    O(n^3) reduction plus O(n^2) per frequency.  Every column is checked in
    the physical basis: a residual ||(i omega - L) x - b|| above 1e-8
    max(1, ||b||), or a non-finite one, raises :class:`ResolventError`
    naming the first such omega.  At omega = 0 the resolvent is replaced by
    the Drazin inverse: S(0) is :func:`stationary_noises` of the state,
    computed once however often 0 appears and after the resolvents, so it
    equals the zero-frequency noise and a value below -1e-10 raises
    :class:`ValidationError`.  Values follow the order of ``omegas``, which
    must be finite.
    """
    omegas = check_grid(omegas, "frequencies")
    state, v, jv, tj, _, background = _two_time_terms(ext, weights, state)
    values = np.empty(len(omegas))
    zero = omegas == 0.0
    worst = None
    if not zero.all():
        finite = omegas[~zero]
        shifts = 1j * finite
        # project off the stationary direction before the resolvent
        b = jv - v * (ext.trace_row @ jv)
        (lmat,) = ext.matrices
        x = _resolvent_columns(lmat, b, shifts)
        resid = np.linalg.norm(x * shifts - lmat @ x - b[:, None], axis=0)
        resid /= max(1.0, np.linalg.norm(b))
        # written so that a NaN residual, from a non-finite column, fails too
        failed = ~(resid <= 1e-8)
        if failed.any():
            i = np.argmax(failed)
            if not np.isfinite(resid[i]):
                raise ResolventError(f"resolvent is singular at omega={finite[i]:.6g}")
            raise ResolventError(
                f"resolvent solve ill-conditioned at omega={finite[i]:.6g} "
                f"(relative residual {resid[i]:.3e})"
            )
        worst = float(resid.max())
        values[~zero] = background + 2.0 * (tj @ x).real
    if zero.any():
        values[zero] = stationary_noises(ext, weights.per_transition, state.blocks[None])[0]
    return SpectrumSamples(
        omegas=omegas, values=values, background=background, max_resolvent_residual=worst
    )


def steady_noise(ext, weights, state=None):
    """Zero-frequency noise D = K - 2 Tr[J L+ J rho_ss], L+ the Drazin inverse.

    :func:`stationary_noises` of ``ext``, a stack of one, after checking
    that ``state`` is stationary.
    """
    _check_weights(ext, weights)
    state, _ = _resolve_stationary(ext, state)
    (noise,) = stationary_noises(ext, weights.per_transition, state.blocks[None])
    return float(noise)


def spectral_gap(gen, zero_rtol=1e-9):
    """Smallest decay rate: min(-Re(lambda)) over nonzero eigenvalues of gen, a stack of one.

    An eigenvalue counts as zero when its modulus is at most ``zero_rtol``
    times the largest modulus; ``zero_rtol`` must be finite and positive.
    """
    check_positive(zero_rtol, "zero_rtol")
    (matrix,) = gen.matrices
    evals = np.linalg.eigvals(matrix)
    scale = max(np.abs(evals).max(), 1e-300)
    nonzero = evals[np.abs(evals) > zero_rtol * scale]
    if len(nonzero) == 0:
        return 0.0
    return float(-nonzero.real.max())


def noise_by_quadrature(ext, weights, state=None, t_max=None, gap_factor=40.0):
    """Verification route for the zero-frequency noise.

    Integrates the smooth correlation 2 * (Tr[J exp(tau L) J rho] - J^2)
    over [0, t_max] with adaptive quadrature and adds the background K.
    ``t_max`` defaults to ``gap_factor / spectral_gap``, far past the
    slowest decay; both must be finite and positive.  Shares only the
    generator with :func:`steady_noise`.
    """
    import scipy.integrate

    if t_max is not None:
        check_positive(t_max, "t_max")
    check_positive(gap_factor, "gap_factor")
    _, _, jv, tj, current, background = _two_time_terms(ext, weights, state)
    if t_max is None:
        gap = spectral_gap(ext)
        if gap <= 0:
            raise ValidationError("generator has no spectral gap; pass t_max explicitly")
        t_max = gap_factor / gap
    # eigen-propagation keeps each integrand sample cheap
    (matrix,) = ext.matrices
    evals, vecs = np.linalg.eig(matrix)
    coeff_r = np.linalg.solve(vecs, jv)
    coeff_l = tj @ vecs

    def integrand(tau):
        return ((coeff_l * np.exp(evals * tau)) @ coeff_r).real - current**2

    val, _ = scipy.integrate.quad(integrand, 0.0, t_max, limit=400)
    return background + 2.0 * val


def tilted_generator(ext, weights, chi):
    """Counting-field generator: jump gains reweighted by exp(chi * nu[k,q]).

    A matrix on the memory-block vectors of ``ext``.
    """
    _check_weights(ext, weights)
    factors = np.exp(chi * weights.per_transition) - 1.0
    (matrix,) = ext.matrices
    (gain,) = ext.gain_matrices(factors)
    return matrix + gain


def _dominant_eigenvalue(mat, min_gap, chi):
    evals = np.linalg.eigvals(mat)
    order = np.argsort(evals.real)[::-1]
    lead = evals[order[0]]
    if len(evals) > 1:
        second = evals[order[1]]
        if (lead.real - second.real) < min_gap:
            raise StencilError(
                f"dominant eigenvalue not isolated at chi={chi:.3e} "
                f"(gap {lead.real - second.real:.3e}); use a smaller chi_step"
            )
    if abs(lead.imag) > 1e-8 * max(1.0, abs(lead.real)):
        raise StencilError(
            f"dominant eigenvalue has imaginary part {lead.imag:.3e} at chi={chi:.3e}; "
            "likely an eigenvalue crossing, use a smaller chi_step"
        )
    return lead.real


def tilted_cumulants(ext, weights, chi_step=1e-4):
    """First two charge cumulant rates from the tilted generator.

    Differentiates the dominant eigenvalue of exp-tilted generators at
    chi = 0 with five-point central stencils of step ``chi_step``.  This is
    a cross-check route for :func:`average_current` and
    :func:`steady_noise`; it shares no linear-solve machinery with them.

    Returns
    -------
    (J, D) : tuple of float
        First and second scaled cumulants of the counted charge.

    Raises
    ------
    StencilError
        If the dominant eigenvalue is not isolated along the stencil, or if
        the stencil's round-off estimate (64/12) eps ||L||_2 / chi_step^2
        exceeds 1e-2 |D|; the message names a larger ``chi_step``.
    """
    check_positive(chi_step, "chi_step")
    (matrix,) = ext.matrices
    base_evals = np.linalg.eigvals(matrix)
    if len(base_evals) > 1:
        order = np.argsort(base_evals.real)[::-1]
        gap0 = base_evals[order[0]].real - base_evals[order[1]].real
        min_gap = 0.5 * abs(gap0)
    else:
        min_gap = 0.0
    lam = {}
    for n in (-2, -1, 0, 1, 2):
        chi = n * chi_step
        lam[n] = _dominant_eigenvalue(tilted_generator(ext, weights, chi), min_gap, chi)
    h = chi_step
    current = (8.0 * (lam[1] - lam[-1]) - (lam[2] - lam[-2])) / (12.0 * h)
    noise = (-lam[2] + 16.0 * lam[1] - 30.0 * lam[0] + 16.0 * lam[-1] - lam[-2]) / (
        12.0 * h * h
    )
    # eigenvalue round-off eps * ||L|| enters the second difference with the
    # stencil's weights (64 / 12) and is divided by h^2
    roundoff = 64.0 / 12.0 * np.finfo(float).eps * np.linalg.norm(matrix, 2) / h**2
    if roundoff > 1e-2 * abs(noise):
        # 10% above the step that meets the bound, so the printed value does too
        wider = 1.1 * h * np.sqrt(roundoff / (1e-2 * abs(noise))) if noise else 10.0 * h
        raise StencilError(
            f"stencil round-off {roundoff:.2e} is not small against the noise "
            f"{noise:.3e} at chi_step={h:.1e}; use a chi_step of at least {wider:.1e}"
        )
    return current, noise
