"""Named physical models and their closed-form stationary results."""

import numpy as np
import numpy.testing as npt
import pytest

from jumpfeedback import (
    MASER_CHANNELS,
    MaserParams,
    QUBIT_CHANNELS,
    QubitParams,
    ValidationError,
    average_current,
    extended_liouvillian,
    feedback_steady_state,
    marginals,
    maser_analytic,
    maser_model,
    no_feedback,
    qubit_analytic,
    qubit_baseline_model,
    qubit_cooling_model,
    work_weights,
)
from jumpfeedback.models import maser_tensors, qubit_tensors


class TestQubitAnalytic:
    def test_frozen_point(self):
        # exact rationals at nbar = 1/2, p = 1/4
        ground, coherence, mem = qubit_analytic(0.5, 0.25)
        assert abs(ground - 259.0 / 324.0) < 1e-15
        assert abs(coherence - (-1j / 81.0)) < 1e-16
        assert abs(mem - 65.0 / 108.0) < 1e-15

    def test_zero_occupation_limit(self):
        ground, coherence, mem = qubit_analytic(0.0, 0.7)
        assert ground == 1.0
        assert coherence == 0.0
        assert mem == 1.0

    def test_numeric_steady_state_matches(self):
        for nbar, p in [(0.5, 0.25), (2.0, 1.0), (0.1, 4.0)]:
            model = qubit_cooling_model(QubitParams(nbar=nbar, gamma=p, lam=1.0))
            ss = feedback_steady_state(model)
            system, dist, _ = marginals(ss)
            ground, coherence, mem = qubit_analytic(nbar, p)
            assert abs(system[0, 0].real - ground) < 1e-12
            assert abs(system[0, 1] - coherence) < 1e-12
            assert abs(dist[0] - mem) < 1e-12

    def test_gamma_scale_invariance(self):
        # only the ratio gamma/lam enters the stationary state
        a = qubit_cooling_model(QubitParams(nbar=0.5, gamma=0.5, lam=2.0))
        b = qubit_cooling_model(QubitParams(nbar=0.5, gamma=0.25, lam=1.0))
        sa, da, _ = marginals(feedback_steady_state(a))
        sb, db, _ = marginals(feedback_steady_state(b))
        npt.assert_allclose(sa, sb, atol=1e-12)
        npt.assert_allclose(da, db, atol=1e-12)


class TestQubitModels:
    def test_channel_conventions(self):
        model = qubit_cooling_model(QubitParams(nbar=0.5, gamma=0.25))
        assert model.channels == QUBIT_CHANNELS
        # drive acts only in the absorption sector
        npt.assert_array_equal(model.hamiltonians[0], np.zeros((2, 2)))
        assert model.hamiltonians[1][0, 1] == 1.0

    def test_baseline_thermal_population(self):
        for nbar in (0.2, 1.0, 5.0):
            model = qubit_baseline_model(QubitParams(nbar=nbar, gamma=0.3), drive_on=False)
            system, _, _ = marginals(feedback_steady_state(model))
            assert abs(system[0, 0].real - (nbar + 1.0) / (2.0 * nbar + 1.0)) < 1e-12

    def test_feedback_beats_both_baselines(self):
        nbar, p = 0.5, 0.25
        params = QubitParams(nbar=nbar, gamma=p)
        fb, _, _ = qubit_analytic(nbar, p)
        on, _, _ = marginals(feedback_steady_state(qubit_baseline_model(params)))
        off, _, _ = marginals(
            feedback_steady_state(qubit_baseline_model(params, drive_on=False))
        )
        assert fb > on[0, 0].real
        assert fb > off[0, 0].real

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValidationError):
            QubitParams(nbar=-0.1, gamma=1.0)

    @pytest.mark.parametrize("drive_on", [True, False])
    def test_baseline_equals_hand_built_no_feedback(self, drive_on):
        params = QubitParams(nbar=0.7, gamma=0.3, lam=1.3, delta=0.4)
        sz = np.diag([1.0, -1.0])
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        h = -0.5 * params.delta * sz + (params.lam * sx if drive_on else 0.0)
        down = np.sqrt(params.gamma * (params.nbar + 1.0)) * np.array([[0.0, 1.0], [0.0, 0.0]])
        up = np.sqrt(params.gamma * params.nbar) * np.array([[0.0, 0.0], [1.0, 0.0]])
        want = no_feedback(h, [down, up], labels=QUBIT_CHANNELS)
        got = qubit_baseline_model(params, drive_on=drive_on)
        assert got.channels == want.channels == QUBIT_CHANNELS
        npt.assert_array_equal(got.hamiltonians, want.hamiltonians)
        npt.assert_array_equal(got.jump_ops, want.jump_ops)
        npt.assert_array_equal(got.silent_ops, want.silent_ops)


class TestMaserModels:
    def test_channel_and_drive_gating(self):
        params = MaserParams(nl=0.3, nr=8.0, gl=0.025, gr=0.025)
        model = maser_model(params, feedback=True)
        assert model.channels == MASER_CHANNELS
        k_er = model.channel_index("E_r")
        for q in range(4):
            drive = model.hamiltonians[q][0, 1]
            assert drive == (1.0 if q == k_er else 0.0)
        always = maser_model(params, feedback=False)
        for q in range(4):
            assert always.hamiltonians[q][0, 1] == 1.0

    def test_analytic_populations_and_power(self):
        nl, nr, g = 0.3, 8.0, 0.025
        params = MaserParams(nl=nl, nr=nr, gl=g, gr=g, wl=8.0, wr=2.0)
        pops, power_nofb, power_fb = maser_analytic(nl, nr, g)
        norm = g * (params.wl - params.wr)
        for feedback, target in [(True, power_fb), (False, power_nofb)]:
            model = maser_model(params, feedback=feedback)
            ext = extended_liouvillian(model)
            ss = feedback_steady_state(model, ext=ext)
            j = average_current(ext, work_weights(params), ss)
            assert abs(j / norm - target) < 1e-10
            if feedback:
                system, _, _ = marginals(ss)
                npt.assert_allclose(np.diag(system).real, pops, atol=1e-12)

    def test_classical_embedding_structure(self):
        params = MaserParams(nl=0.3, nr=8.0, gl=0.025, gr=0.025)
        model = maser_model(params, feedback=True, classical=True)
        assert model.silent_labels == ("D_01", "D_10")
        npt.assert_array_equal(model.hamiltonians, np.zeros((4, 3, 3)))
        # the frozen incoherent rate 2 lam^2 Gamma / Gamma^2 at these parameters
        gamma_c = 19.27710843373494
        k_er = model.channel_index("E_r")
        for q in range(4):
            hop = model.silent_ops[0, q]
            if q == k_er:
                assert abs(hop[0, 1] - np.sqrt(gamma_c)) < 1e-12
            else:
                npt.assert_array_equal(hop, np.zeros((3, 3)))
        # without feedback the hops run in every memory sector
        plain = maser_model(params, feedback=False, classical=True)
        for q in range(4):
            assert abs(plain.silent_ops[0, q][0, 1] - np.sqrt(gamma_c)) < 1e-12

    def test_classical_current_matches_quantum(self):
        params = MaserParams(nl=0.3, nr=8.0, gl=0.025, gr=0.025, wl=8.0, wr=2.0)
        w = work_weights(params)
        currents = {}
        for classical in (False, True):
            model = maser_model(params, feedback=True, classical=classical)
            ext = extended_liouvillian(model)
            ss = feedback_steady_state(model, ext=ext)
            currents[classical] = average_current(ext, w, ss)
        assert abs(currents[True] - currents[False]) < 1e-8 * abs(currents[False])

    def test_work_weights_need_energies(self):
        with pytest.raises(ValidationError, match="wl and wr"):
            work_weights(MaserParams(nl=0.3, nr=8.0, gl=0.025, gr=0.025))

    def test_work_weight_signs(self):
        params = MaserParams(nl=0.3, nr=8.0, gl=1.0, gr=1.0, wl=8.0, wr=2.0)
        w = work_weights(params)
        per = dict(zip(w.channels, w.per_channel))
        assert per == {"E_l": -8.0, "I_l": 8.0, "E_r": -2.0, "I_r": 2.0}


class TestGridTensors:
    """Builders over parameter arrays give the one-point models, stacked."""

    MASER_GRID = dict(
        nl=[0.3, 1.0, 2.0], nr=[8.0, 2.0, 0.5], gl=[0.025, 0.1, 1.0], gr=[0.07, 0.1, 0.3],
        lam=[1.0, 0.5, 2.0], delta=[0.0, -0.3, 0.4],
    )

    @staticmethod
    def assert_stacked(tensors, models):
        for got, name in zip(tensors, ("hamiltonians", "jump_ops", "silent_ops")):
            # C order like a stack of models, so that the stacked kernels sum alike
            assert got.flags.c_contiguous
            npt.assert_array_equal(got, np.stack([getattr(m, name) for m in models]))

    @pytest.mark.parametrize("feedback", [True, False])
    @pytest.mark.parametrize("classical", [False, True])
    def test_maser(self, feedback, classical):
        grid = {k: np.array(v) for k, v in self.MASER_GRID.items()}
        points = [{k: v[i] for k, v in self.MASER_GRID.items()} for i in range(3)]
        self.assert_stacked(
            maser_tensors(MaserParams(**grid), feedback, classical),
            [maser_model(MaserParams(**p), feedback, classical) for p in points],
        )

    @pytest.mark.parametrize("mode", ["feedback", "always_on", "drive_off"])
    def test_qubit_with_scalar_fields(self, mode):
        # only lam varies: the jump operators are broadcast to the grid
        lams = [0.5, 1.0, 2.0]
        params = [QubitParams(nbar=0.7, gamma=0.3, lam=lam, delta=0.4) for lam in lams]
        build = {
            "feedback": qubit_cooling_model,
            "always_on": qubit_baseline_model,
            "drive_off": lambda p: qubit_baseline_model(p, drive_on=False),
        }[mode]
        tensors = qubit_tensors(QubitParams(nbar=0.7, gamma=0.3, lam=np.array(lams), delta=0.4), mode)
        self.assert_stacked(tensors, [build(p) for p in params])

    def test_negative_rate_at_any_point_rejected(self):
        with pytest.raises(ValidationError, match="non-negative"):
            MaserParams(nl=0.3, nr=8.0, gl=np.array([0.1, 0.2]), gr=np.array([0.1, -0.2]))
        with pytest.raises(ValidationError, match="non-negative"):
            QubitParams(nbar=np.array([0.5, -0.1]), gamma=1.0)

    def test_classical_rate_undefined_at_any_point_rejected(self):
        params = MaserParams(nl=0.0, nr=np.array([1.0, 2.0]), gl=0.1, gr=np.array([0.1, 0.0]))
        with pytest.raises(ValidationError, match="classical drive rate undefined"):
            maser_tensors(params, True, True)
