"""Built-in feedback models: jump-cooled qubit and three-level maser.

Both come with the closed-form stationary results used throughout the test
suite.  Analytic expressions are written in the detuning-free form with
p = gamma / lambda; the model builders accept arbitrary parameters.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError
from .fcs import CountingWeights
from .model import feedback_model, no_feedback

__all__ = [
    "QubitParams",
    "MaserParams",
    "QUBIT_CHANNELS",
    "MASER_CHANNELS",
    "qubit_cooling_model",
    "qubit_baseline_model",
    "qubit_analytic",
    "maser_model",
    "maser_analytic",
    "work_weights",
]

QUBIT_CHANNELS = ("-1", "+1")
MASER_CHANNELS = ("E_l", "I_l", "E_r", "I_r")


@dataclass(frozen=True)
class QubitParams:
    """Thermal qubit with an emission-gated drive.

    ``nbar`` is the bath occupation, ``gamma`` the bare decay rate,
    ``lam`` the drive amplitude and ``delta`` the detuning.  The analytic
    results use p = gamma / lam.
    """

    nbar: float
    gamma: float
    lam: float = 1.0
    delta: float = 0.0

    def __post_init__(self):
        if self.nbar < 0 or self.gamma < 0:
            raise ValidationError("nbar and gamma must be non-negative")


def _qubit_operators(params):
    """H(off), H(on), and the emission and absorption operators of the qubit."""
    g, e = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    sz = np.diag([1.0, -1.0]).astype(complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    h_off = -0.5 * params.delta * sz
    h_on = h_off + params.lam * sx
    l_down = np.sqrt(params.gamma * (params.nbar + 1.0)) * np.outer(g, e)
    l_up = np.sqrt(params.gamma * params.nbar) * np.outer(e, g)
    return h_off, h_on, l_down, l_up


def qubit_cooling_model(params):
    """Feedback qubit: the drive runs only after an absorption.

    Channels are "-1" (emission, operator sqrt(gamma(nbar+1)) |g><e|) and
    "+1" (absorption, sqrt(gamma nbar) |e><g|).  The memory gates the
    Hamiltonian: H(-1) = -(delta/2) sigma_z, H(+1) adds lam sigma_x.  Jump
    operators are memory-independent, so the model is hamiltonian-only.
    """
    h_off, h_on, l_down, l_up = _qubit_operators(params)
    return feedback_model(
        dim=2,
        channels=QUBIT_CHANNELS,
        hamiltonians={"-1": h_off, "+1": h_on},
        jump_ops={"-1": l_down, "+1": l_up},
    )


def qubit_baseline_model(params, drive_on=True):
    """Feedback-free qubit baselines for comparison with the gated drive.

    ``drive_on=True`` keeps the resonant drive running permanently;
    ``drive_on=False`` removes it, leaving pure thermal relaxation with
    ground population (nbar+1)/(2 nbar+1).  Channel labels match
    :func:`qubit_cooling_model`.
    """
    h_off, h_on, l_down, l_up = _qubit_operators(params)
    h = h_on if drive_on else h_off
    return no_feedback(h, [l_down, l_up], labels=QUBIT_CHANNELS)


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
    when only populations are needed.
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
        if min(self.nl, self.nr) < 0 or min(self.gl, self.gr) < 0:
            raise ValidationError("occupations and rates must be non-negative")


def _maser_operators(params):
    dim = 3
    ket = np.eye(dim)
    ops = {
        "E_l": np.sqrt(params.gl * (params.nl + 1.0)) * np.outer(ket[0], ket[2]),
        "I_l": np.sqrt(params.gl * params.nl) * np.outer(ket[2], ket[0]),
        "E_r": np.sqrt(params.gr * (params.nr + 1.0)) * np.outer(ket[1], ket[2]),
        "I_r": np.sqrt(params.gr * params.nr) * np.outer(ket[2], ket[1]),
    }
    h_off = 0.5 * params.delta * (np.outer(ket[0], ket[0]) - np.outer(ket[1], ket[1]))
    h_on = h_off + params.lam * (np.outer(ket[0], ket[1]) + np.outer(ket[1], ket[0]))
    return ops, h_off.astype(complex), h_on.astype(complex)


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
    ops, h_off, h_on = _maser_operators(params)
    dim = 3
    if classical:
        zero = np.zeros((dim, dim), dtype=complex)
        gam_big = 0.5 * (params.gl * params.nl + params.gr * params.nr)
        if gam_big <= 0:
            raise ValidationError("classical drive rate undefined: gl*nl + gr*nr = 0")
        gamma_c = 2.0 * params.lam**2 * gam_big / (params.delta**2 + gam_big**2)
        ket = np.eye(dim)
        hop_down = np.sqrt(gamma_c) * np.outer(ket[0], ket[1])
        hop_up = np.sqrt(gamma_c) * np.outer(ket[1], ket[0])
        if feedback:
            silent = {"D_01": {"E_r": hop_down}, "D_10": {"E_r": hop_up}}
        else:
            silent = {"D_01": hop_down, "D_10": hop_up}
        return feedback_model(
            dim=dim,
            channels=MASER_CHANNELS,
            hamiltonians=zero,
            jump_ops=ops,
            silent_ops=silent,
        )
    if feedback:
        hams = {k: (h_on if k == "E_r" else h_off) for k in MASER_CHANNELS}
    else:
        hams = {k: h_on for k in MASER_CHANNELS}
    return feedback_model(
        dim=dim,
        channels=MASER_CHANNELS,
        hamiltonians=hams,
        jump_ops=ops,
    )


def work_weights(params):
    """Counting weights of the net extracted work.

    Quanta absorbed from the left bath count +wl, emitted -wl; emission
    into the right bath counts -wr, absorption +wr.  One full forward
    cycle (absorb left, emit right) then yields wl - wr > 0.
    """
    if params.wl is None or params.wr is None:
        raise ValidationError("work weights need wl and wr set on MaserParams")
    return CountingWeights.from_channel_weights(
        MASER_CHANNELS,
        {"E_l": -params.wl, "I_l": params.wl, "E_r": -params.wr, "I_r": params.wr},
    )


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
