"""Built-in feedback models: jump-cooled qubit and three-level maser.

Both come with the closed-form stationary results used throughout the test
suite.  Analytic expressions are written in the detuning-free form with
p = gamma / lambda; the model builders accept arbitrary parameters.
"""

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError
from .fcs import CountingWeights
from .model import FeedbackModel

__all__ = [
    "QubitParams",
    "MaserParams",
    "QUBIT_CHANNELS",
    "MASER_CHANNELS",
    "qubit_tensors",
    "qubit_cooling_model",
    "qubit_baseline_model",
    "qubit_analytic",
    "maser_tensors",
    "maser_model",
    "maser_analytic",
    "work_table",
    "work_weights",
]

QUBIT_CHANNELS = ("-1", "+1")
MASER_CHANNELS = ("E_l", "I_l", "E_r", "I_r")
# per qubit mode and per maser feedback flag, whether the drive runs at each memory value
_QUBIT_DRIVE = {"feedback": [False, True], "always_on": [True, True], "drive_off": [False, False]}
_MASER_DRIVE = {True: [False, False, True, False], False: [True] * 4}


@functools.cache
def _units(d, *pairs):
    """Stacked |i><j| on d levels, one per (i, j) of ``pairs``; real, cached and read-only."""
    units = np.eye(d * d).reshape(-1, d, d)[[i * d + j for i, j in pairs]]
    units.flags.writeable = False
    return units


def _driven(d, z, lam, drive):
    """Complex H(q) = z (|0><0| - |1><1|), plus lam (|0><1| + |1><0|) where ``drive[q]``."""
    p0, p1, down, up = _units(d, (0, 0), (1, 1), (0, 1), (1, 0))
    h_off = z[..., None, None] * (p0 - p1)
    h_on = h_off + lam[..., None, None] * (down + up)
    gate = np.array(drive)[:, None, None]
    return np.where(gate, h_on[..., None, :, :], h_off[..., None, :, :]).astype(complex)


def _operators(rates, memory, units):
    """Complex ``(..., k, m, d, d)`` sqrt(rates[k]) memory[q] units[k]; ``rates`` is ``(k, ...)``."""
    # C order, as a stack of models has: the kernels' sums run in stride order
    ops = np.einsum("k...,q,kij->...kqij", np.sqrt(rates), memory, units, order="C")
    return ops.astype(complex)


@dataclass(frozen=True)
class QubitParams:
    """Thermal qubit with an emission-gated drive.

    ``nbar`` is the bath occupation, ``gamma`` the bare decay rate,
    ``lam`` the drive amplitude and ``delta`` the detuning.  The analytic
    results use p = gamma / lam.  Numeric fields may be equal-length 1-d
    arrays, one entry per grid point (see :func:`qubit_tensors`).
    """

    nbar: float
    gamma: float
    lam: float = 1.0
    delta: float = 0.0

    def __post_init__(self):
        if (np.minimum(self.nbar, self.gamma) < 0).any():
            raise ValidationError("nbar and gamma must be non-negative")


def qubit_tensors(params, mode):
    """Hamiltonians ``(..., 2, 2, 2)``, jump and (no) silent operators of a qubit model.

    ``mode`` is "feedback" (:func:`qubit_cooling_model`), "always_on" or
    "drive_off" (:func:`qubit_baseline_model`); ``...`` is the parameters' grid shape.
    """
    nbar, gamma, lam, delta = np.broadcast_arrays(params.nbar, params.gamma, params.lam, params.delta)
    rates = np.array([gamma * (nbar + 1.0), gamma * nbar])
    return (
        _driven(2, -0.5 * delta, lam, _QUBIT_DRIVE[mode]),
        _operators(rates, np.ones(2), _units(2, (0, 1), (1, 0))),
        np.zeros(nbar.shape + (0, 2, 2, 2), dtype=complex),
    )


def qubit_cooling_model(params):
    """Feedback qubit: the drive runs only after an absorption.

    Channels are "-1" (emission, operator sqrt(gamma(nbar+1)) |g><e|) and
    "+1" (absorption, sqrt(gamma nbar) |e><g|).  The memory gates the
    Hamiltonian: H(-1) = -(delta/2) sigma_z, H(+1) adds lam sigma_x.  Jump
    operators are memory-independent, so the model is hamiltonian-only.
    """
    h, jumps, _ = qubit_tensors(params, "feedback")
    return FeedbackModel(2, QUBIT_CHANNELS, h, jumps)


def qubit_baseline_model(params, drive_on=True):
    """Feedback-free qubit baselines for comparison with the gated drive.

    ``drive_on=True`` keeps the resonant drive running permanently;
    ``drive_on=False`` removes it, leaving pure thermal relaxation with
    ground population (nbar+1)/(2 nbar+1).  Channel labels match
    :func:`qubit_cooling_model`.
    """
    h, jumps, _ = qubit_tensors(params, "always_on" if drive_on else "drive_off")
    return FeedbackModel(2, QUBIT_CHANNELS, h, jumps)


def qubit_analytic(nbar, p):
    """Stationary feedback-qubit results at delta = 0.

    Returns
    -------
    ground_population : float
        P_g of the system marginal.
    coherence : complex
        <g| rho |e> of the system marginal (purely imaginary).
    memory_minus : float
        Stationary probability of memory value "-1".
    """
    den = 4.0 + nbar * (12.0 + (1.0 + 2.0 * nbar) ** 2 * p**2)
    ground = (1.0 + 2.0 * nbar) * (4.0 + nbar * (1.0 + nbar) * p**2) / den
    coherence = -2.0j * nbar**2 * p / den
    memory_minus = (1.0 + nbar) * (4.0 + nbar * (1.0 + 2.0 * nbar) * p**2) / den
    return ground, coherence, memory_minus


@dataclass(frozen=True)
class MaserParams:
    """Three-level maser between two thermal baths.

    The left bath (occupation ``nl``, rate ``gl``) drives 0<->2, the right
    bath (``nr``, ``gr``) drives 1<->2; the 0<->1 working transition is
    driven with amplitude ``lam`` at detuning ``delta``.  ``wl`` and ``wr``
    are the transition energies entering the work weights; leave them None
    when only populations are needed.  Numeric fields may be equal-length
    1-d arrays, one entry per grid point (see :func:`maser_tensors`).
    """

    nl: float
    nr: float
    gl: float
    gr: float
    lam: float = 1.0
    delta: float = 0.0
    wl: Optional[float] = None
    wr: Optional[float] = None

    def __post_init__(self):
        if (np.minimum(np.minimum(self.nl, self.nr), np.minimum(self.gl, self.gr)) < 0).any():
            raise ValidationError("occupations and rates must be non-negative")


def maser_tensors(params, feedback, classical):
    """Hamiltonians ``(..., 4, 3, 3)``, jump and silent operators of a maser model.

    See :func:`maser_model`; ``...`` is the parameters' grid shape, and the
    two hops are the silent operators when ``classical``.
    """
    nl, nr, gl, gr, lam, delta = np.broadcast_arrays(
        params.nl, params.nr, params.gl, params.gr, params.lam, params.delta
    )
    rates = np.array([gl * (nl + 1.0), gl * nl, gr * (nr + 1.0), gr * nr])
    jumps = _operators(rates, np.ones(4), _units(3, (0, 2), (2, 0), (1, 2), (2, 1)))
    drive = _MASER_DRIVE[bool(feedback)]
    if not classical:
        return _driven(3, 0.5 * delta, lam, drive), jumps, np.zeros(nl.shape + (0, 4, 3, 3), complex)
    gam_big = 0.5 * (gl * nl + gr * nr)
    if np.any(gam_big <= 0):
        raise ValidationError("classical drive rate undefined: gl*nl + gr*nr = 0")
    gamma_c = 2.0 * lam**2 * gam_big / (delta**2 + gam_big**2)
    silent = _operators(np.array([gamma_c, gamma_c]), np.array(drive, float), _units(3, (0, 1), (1, 0)))
    return np.zeros(nl.shape + (4, 3, 3), dtype=complex), jumps, silent


def maser_model(params, feedback=True, classical=False):
    """Three-level maser as a feedback model.

    With ``feedback`` the working transition is driven only while the
    memory reads "E_r" (the last jump emitted into the right bath);
    otherwise the drive is always on but the same hybrid bookkeeping is
    kept, so all memory-resolved quantities remain available.

    ``classical`` replaces the coherent drive by incoherent hopping at
    rate gamma_c = 2 lam^2 Gamma / (delta^2 + Gamma^2), with
    Gamma = (gl nl + gr nr)/2.  The hop operators are unmonitored: they
    act conditioned on the memory (only in the "E_r" sector when
    ``feedback``) but never update it and carry no counting weight.
    """
    h, jumps, silent = maser_tensors(params, feedback, classical)
    return FeedbackModel(3, MASER_CHANNELS, h, jumps, ("D_01", "D_10") if classical else (), silent)


def work_table(params):
    """Work weights nu[..., k, q] of :func:`work_weights` at every point."""
    if params.wl is None or params.wr is None:
        raise ValidationError("work weights need wl and wr set on MaserParams")
    wl, wr = np.broadcast_arrays(params.wl, params.wr)
    row = np.stack([-wl, wl, -wr, wr], axis=-1)
    return np.broadcast_to(row[..., None], row.shape + (4,))


def work_weights(params):
    """Counting weights of the net extracted work.

    Quanta absorbed from the left bath count +wl, emitted -wl; emission
    into the right bath counts -wr, absorption +wr.  One full forward
    cycle (absorb left, emit right) then yields wl - wr > 0.
    """
    return CountingWeights(MASER_CHANNELS, work_table(params))


def maser_analytic(nl, nr, p):
    """Closed-form stationary maser results at delta = 0 and gl = gr.

    Returns
    -------
    populations : ndarray
        Feedback-maser populations (rho_00, rho_11, rho_22).
    power_nofb : float
        Dimensionless stationary power of the always-on maser.
    power_fb : float
        Same for the feedback maser.  Both are normalized so the numeric
        work current equals gamma * (wl - wr) times these values.
    """
    if nl <= 0 and nr <= 0:
        raise ValidationError("at least one bath must be occupied")
    nbar = nl + nr
    phi = (nr + nl) * (nr + nl + 3.0 * nr * nl)
    xi = 4.0 * (nr + 4.0 * nr * nl + nl * (3.0 + 2.0 * nl)) + nl * phi * p**2
    eta = 4.0 * (nr + 2.0 * nr * nl + nl * (2.0 + nl))
    pop0 = (eta + nr * nl * (1.0 + nl) * nbar * p**2) / xi
    pop1 = (1.0 + nr) * nl * (4.0 + nl * nbar * p**2) / xi
    pop2 = nl * nbar * (4.0 + nr * nl * p**2) / xi
    power_nofb = 4.0 * (nl - nr) / (4.0 * (4.0 + 3.0 * nr + 3.0 * nl) + phi * p**2)
    power_fb = 4.0 * (1.0 + nr) * nl**2 / xi
    return np.array([pop0, pop1, pop2]), power_nofb, power_fb
