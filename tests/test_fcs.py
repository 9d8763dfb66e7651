"""Counting statistics: currents, noise, correlations, spectra, tilting."""

import json
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from jumpfeedback import (
    CountingWeights,
    GeneratorStack,
    ResolventError,
    StencilError,
    ValidationError,
    average_current,
    embed,
    extended_liouvillian,
    feedback_steady_state,
    no_feedback,
    noise_background,
    noise_by_quadrature,
    power_spectrum,
    spectral_gap,
    steady_noise,
    tilted_cumulants,
    two_point_correlation,
)

from jumpfeedback import cli

from helpers import random_density, random_model


def poisson_setup(gamma, nu):
    """One-dimensional system emitting marks at rate gamma, weight nu each."""
    model = no_feedback(np.zeros((1, 1)), [np.sqrt(gamma) * np.eye(1)], labels=["a"])
    ext = extended_liouvillian(model)
    weights = CountingWeights.from_channel_weights(("a",), {"a": nu})
    return model, ext, weights


def random_setup(seed, **kwargs):
    rng = np.random.default_rng(seed)
    model = random_model(rng, **kwargs)
    ext = extended_liouvillian(model)
    weights = CountingWeights.from_channel_weights(
        model.channels, rng.normal(size=model.n_channels)
    )
    return model, ext, weights


def resonant_generator(omega0=1.0, gamma=0.5):
    """Hand-set two-level generator whose coherences rotate undamped at -/+ i omega0.

    Vector order (rho00, rho10, rho01, rho11): level 1 decays into level 0,
    the stationary state is |0><0|, and L is upper triangular, so its Schur
    form holds -i omega0 and +i omega0 exactly.  The jump operator only sets
    J, which feeds those coherences from the stationary state.
    """
    lop = np.array([[1.0, 0.0], [1.0, 0.0]]) / np.sqrt(2.0)
    model = no_feedback(np.zeros((2, 2)), [lop], labels=["a"])
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 3], mat[3, 3] = gamma, -gamma
    mat[1, 1], mat[2, 2] = -1j * omega0, 1j * omega0
    return GeneratorStack(model.channels, model.jump_ops[None], mat[None])


class TestCountingWeights:
    def test_channel_resolved_roundtrip(self):
        w = CountingWeights.from_channel_weights(("a", "b"), {"a": 2.0})
        assert w.channel_resolved
        npt.assert_array_equal(w.per_channel, [2.0, 0.0])
        npt.assert_array_equal(w.per_transition, [[2.0, 2.0], [0.0, 0.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(ValidationError, match="per_transition has non-finite entries"):
            CountingWeights(("a", "b"), np.full((2, 2), bad))
        with pytest.raises(ValidationError, match="per_transition has non-finite entries"):
            CountingWeights(("a", "b"), [[1.0, 0.0], [bad, 1.0]])
        with pytest.raises(ValidationError, match="per_transition has non-finite entries"):
            CountingWeights.from_channel_weights(("a", "b"), [bad, 1.0])
        with pytest.raises(ValidationError, match="per_transition has non-finite entries"):
            CountingWeights.from_channel_weights(("a", "b"), {"b": bad})

    def test_transition_resolved_has_no_channel_form(self):
        w = CountingWeights(("a", "b"), [[1.0, 0.0], [0.0, 1.0]])
        assert not w.channel_resolved
        with pytest.raises(ValidationError):
            w.per_channel

    def test_activity_counts_everything(self):
        w = CountingWeights.activity(("a", "b", "c"))
        npt.assert_array_equal(w.per_transition, np.ones((3, 3)))

    def test_unknown_label_rejected(self):
        with pytest.raises(ValidationError, match="unknown"):
            CountingWeights.from_channel_weights(("a",), {"b": 1.0})

    def test_mismatched_channels_rejected_downstream(self):
        model, ext, _ = poisson_setup(1.0, 1.0)
        wrong = CountingWeights.from_channel_weights(("zz",), {"zz": 1.0})
        with pytest.raises(ValidationError, match="channels"):
            average_current(ext, wrong, feedback_steady_state(model, ext=ext))


class TestPoissonProcess:
    """Unit-system emitter: every cumulant is known in closed form."""

    def test_current_and_noise(self):
        gamma, nu = 0.7, 1.5
        model, ext, weights = poisson_setup(gamma, nu)
        ss = feedback_steady_state(model, ext=ext)
        assert abs(average_current(ext, weights, ss) - nu * gamma) < 1e-12
        assert abs(steady_noise(ext, weights, ss) - nu**2 * gamma) < 1e-12
        assert abs(noise_background(ext, weights, ss) - nu**2 * gamma) < 1e-12

    def test_flat_spectrum_and_memoryless_correlation(self):
        gamma, nu = 0.7, 1.5
        model, ext, weights = poisson_setup(gamma, nu)
        ss = feedback_steady_state(model, ext=ext)
        spec = power_spectrum(ext, weights, np.array([-2.0, 0.0, 1.3]), state=ss)
        npt.assert_allclose(spec.values, nu**2 * gamma, atol=1e-12)
        corr = two_point_correlation(ext, weights, np.array([0.0, 0.5, 2.0]), state=ss)
        npt.assert_allclose(corr.values, 0.0, atol=1e-12)
        assert abs(corr.background - nu**2 * gamma) < 1e-12
        assert abs(corr.current - nu * gamma) < 1e-12

    def test_tilted_cumulants_exact(self):
        gamma, nu = 0.7, 1.5
        _, ext, weights = poisson_setup(gamma, nu)
        j, d = tilted_cumulants(ext, weights)
        assert abs(j - nu * gamma) < 1e-10
        assert abs(d - nu**2 * gamma) < 1e-8


class TestCrossRoutes:
    """Independent computations of the same cumulants must agree."""

    def test_spectrum_at_zero_equals_drazin_noise(self):
        model, ext, weights = random_setup(70, dim=2, n_channels=2)
        ss = feedback_steady_state(model, ext=ext)
        d = steady_noise(ext, weights, ss)
        spec = power_spectrum(ext, weights, np.array([0.0]), state=ss)
        assert abs(spec.values[0] - d) < 1e-12 * max(1.0, abs(d))

    def test_quadrature_route_agrees(self):
        model, ext, weights = random_setup(71, dim=2, n_channels=2)
        ss = feedback_steady_state(model, ext=ext)
        d = steady_noise(ext, weights, ss)
        d_quad = noise_by_quadrature(ext, weights, state=ss)
        assert abs(d_quad - d) < 1e-5 * max(1.0, abs(d))

    def test_tilted_route_agrees(self):
        model, ext, weights = random_setup(72, dim=2, n_channels=2, silent=1)
        ss = feedback_steady_state(model, ext=ext)
        j = average_current(ext, weights, ss)
        d = steady_noise(ext, weights, ss)
        jt, dt = tilted_cumulants(ext, weights)
        assert abs(jt - j) < 1e-6 * max(1.0, abs(j))
        assert abs(dt - d) < 1e-4 * max(1.0, abs(d))

    def test_slow_maser_noise_matches_tilted_route(self):
        # at gl = gr = 1e-7 the noise is 1.8e-7, five orders below the
        # current scale; the bordered solve still resolves it
        from jumpfeedback import MaserParams, maser_model, work_weights

        params = MaserParams(nl=0.3, nr=8.0, gl=1e-7, gr=1e-7, wl=8.0, wr=2.0)
        model = maser_model(params)
        ext = extended_liouvillian(model)
        weights = work_weights(params)
        d = steady_noise(ext, weights)
        _, d_tilt = tilted_cumulants(ext, weights, chi_step=1e-2)
        assert abs(d - 1.7985e-7) < 1e-11
        assert abs(d_tilt - d) < 1e-4 * d

    def test_stencil_round_off_raises_and_names_a_wider_step(self):
        # the default chi_step = 1e-4 returned D = 1.43e-7 here; its
        # eigenvalue round-off alone is 2.4e-7
        from jumpfeedback import MaserParams, maser_model, work_weights

        params = MaserParams(nl=0.3, nr=8.0, gl=1e-7, gr=1e-7, wl=8.0, wr=2.0)
        model = maser_model(params)
        ext = extended_liouvillian(model)
        weights = work_weights(params)
        with pytest.raises(StencilError, match="chi_step of at least") as info:
            tilted_cumulants(ext, weights)
        # the named step passes the check, which bounds the round-off by 1e-2 |D|
        wider = float(str(info.value).rsplit(" ", 1)[-1])
        assert wider > 1e-4
        _, d_tilt = tilted_cumulants(ext, weights, chi_step=wider)
        assert abs(d_tilt - 1.7985e-7) < 1e-2 * 1.7985e-7

    def test_spectrum_is_real_and_even(self):
        _, ext, weights = random_setup(73, dim=2, n_channels=3)
        omegas = np.array([-3.0, -1.0, -0.2, 0.2, 1.0, 3.0])
        spec = power_spectrum(ext, weights, omegas)
        npt.assert_allclose(spec.values[:3], spec.values[:2:-1], atol=1e-10)

    def test_spectrum_tail_approaches_background(self):
        _, ext, weights = random_setup(74, dim=2, n_channels=2)
        spec = power_spectrum(ext, weights, np.array([0.0, 1e5]))
        assert abs(spec.values[1] - spec.background) < 1e-3 * max(
            1.0, abs(spec.background)
        )

    def test_correlation_decays(self):
        _, ext, weights = random_setup(75, dim=2, n_channels=2)
        corr = two_point_correlation(ext, weights, np.array([0.0, 80.0]))
        assert abs(corr.values[1]) < 1e-6 * max(1.0, abs(corr.values[0]))


class TestVerificationRouteInputs:
    """Spans and steps of the quadrature and stencil routes must be finite and positive.

    On the qubit (nbar 0.5, gamma 1, activity weights; D = 0.846354) a NaN
    span once returned the background 0.708333 alone, t_max = -1 returned
    -0.0837 and gap_factor = -40 returned -3.2e21, all without an error.
    """

    @staticmethod
    def qubit():
        from jumpfeedback import QubitParams, qubit_cooling_model

        ext = extended_liouvillian(qubit_cooling_model(QubitParams(nbar=0.5, gamma=1.0)))
        return ext, CountingWeights.from_channel_weights(ext.channels, [1.0, 1.0])

    @pytest.mark.parametrize("name", ["t_max", "gap_factor"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -1.0, -40.0])
    def test_quadrature_span_rejected(self, name, value):
        ext, weights = self.qubit()
        with pytest.raises(ValidationError, match=f"{name} must be finite and positive"):
            noise_by_quadrature(ext, weights, **{name: value})

    def test_quadrature_span_accepted(self):
        ext, weights = self.qubit()
        d = steady_noise(ext, weights)
        assert abs(d - 0.8463541666666667) < 1e-12
        for kwargs in ({}, {"t_max": 60.0}, {"gap_factor": 30.0}):
            assert abs(noise_by_quadrature(ext, weights, **kwargs) - d) < 1e-9

    @pytest.mark.parametrize("chi_step", [np.nan, np.inf, -np.inf, 0.0, -1e-4])
    def test_stencil_step_rejected(self, chi_step):
        ext, weights = self.qubit()
        with pytest.raises(ValidationError, match="chi_step must be finite and positive"):
            tilted_cumulants(ext, weights, chi_step=chi_step)


class TestNonFiniteGrids:
    """Lags, frequencies and the zero threshold of the gap must be finite.

    On the qubit (nbar 0.5, gamma 1, activity weights) a NaN or infinite lag
    once returned -0.5017 read from memory never written, a NaN or infinite
    frequency warned and then reported a singular resolvent, and
    ``zero_rtol=nan`` gave a gap of 0.
    """

    GRIDS = [[np.nan], [np.inf], [0.0, 0.5, np.nan, 2.0], [1.0, -np.inf]]

    @pytest.mark.parametrize("grid", GRIDS)
    def test_correlation_lags_rejected(self, grid):
        ext, weights = TestVerificationRouteInputs.qubit()
        with pytest.raises(ValidationError, match="lags must be finite"):
            two_point_correlation(ext, weights, grid)

    @pytest.mark.parametrize("grid", GRIDS)
    def test_spectrum_frequencies_rejected_without_a_warning(self, grid):
        ext, weights = TestVerificationRouteInputs.qubit()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="frequencies must be finite"):
                power_spectrum(ext, weights, grid)

    @pytest.mark.parametrize("zero_rtol", [np.nan, np.inf, 0.0, -1e-9])
    def test_gap_threshold_rejected(self, zero_rtol):
        ext, _ = TestVerificationRouteInputs.qubit()
        with pytest.raises(ValidationError, match="zero_rtol must be finite and positive"):
            spectral_gap(ext, zero_rtol=zero_rtol)

    def test_finite_inputs_still_accepted(self):
        ext, weights = TestVerificationRouteInputs.qubit()
        assert spectral_gap(ext) > 0
        assert np.isfinite(two_point_correlation(ext, weights, [0.0, 0.5, 2.0]).values).all()
        assert np.isfinite(power_spectrum(ext, weights, [0.0, 0.5, 2.0]).values).all()


class TestSpectrumAgainstDenseSolves:
    """The Schur back-substitution against one dense solve per frequency."""

    @staticmethod
    def reference(model, ext, weights, omegas):
        ss = feedback_steady_state(model, ext=ext)
        v = ext.vectors(ss.blocks[None])[0]
        t = ext.trace_row
        lmat = ext.matrices[0]
        jmat = ext.gain_matrices(weights.per_transition)[0]
        background = (t @ ext.gain_matrices(weights.per_transition**2)[0] @ v).real
        jv = jmat @ v
        b = jv - v * (t @ jv)
        n = len(v)
        out = []
        for w in omegas:
            if w == 0.0:
                # the group inverse on trace-free vectors: (L + v t)^{-1} b
                x = -np.linalg.solve(lmat + np.outer(v, t), b)
            else:
                x = np.linalg.solve(1j * w * np.eye(n) - lmat, b)
            out.append(background + 2.0 * (t @ jmat @ x).real)
        return np.array(out)

    @pytest.mark.parametrize(
        "seed, kwargs",
        [
            (80, dict(dim=2, n_channels=2)),
            (81, dict(dim=3, n_channels=3)),
            (82, dict(dim=2, n_channels=3, silent=1)),
        ],
    )
    def test_unsorted_grid_with_repeated_zero(self, seed, kwargs):
        model, ext, weights = random_setup(seed, **kwargs)
        omegas = np.array([1.3, 0.0, -0.4, 1e5, -2.5, 0.0, 0.05, -1e5, 0.4])
        spec = power_spectrum(ext, weights, omegas)
        ref = self.reference(model, ext, weights, omegas)
        npt.assert_allclose(spec.values, ref, rtol=1e-10, atol=0.0)
        assert spec.values[1] == spec.values[5]
        assert 0.0 <= spec.max_resolvent_residual < 1e-12

    def test_zero_only_grid_reports_no_resolvent_residual(self):
        _, ext, weights = random_setup(83, dim=2, n_channels=2)
        spec = power_spectrum(ext, weights, np.array([0.0, 0.0]))
        assert spec.max_resolvent_residual is None
        assert spec.values[0] == spec.values[1] == steady_noise(ext, weights)


class TestResonantShift:
    """A shift on an undamped eigenvalue is refused, by name."""

    def test_exact_eigenvalue_raises_naming_omega(self):
        ext = resonant_generator(omega0=1.0)
        weights = CountingWeights.activity(ext.channels)
        assert np.isfinite(power_spectrum(ext, weights, np.array([0.5, 2.0])).values).all()
        with pytest.raises(ResolventError, match=r"singular at omega=-1$"):
            power_spectrum(ext, weights, np.array([0.5, 0.0, -1.0, 1.0, 2.0]))

    def test_cli_exits_one_without_traceback(self, tmp_path, capsys, monkeypatch):
        ext = resonant_generator(omega0=1.0)
        monkeypatch.setattr(cli, "extended_liouvillian", lambda model: ext)
        lop = [[[2**-0.5, 0.0], [0.0, 0.0]], [[2**-0.5, 0.0], [0.0, 0.0]]]
        cfg = {
            "model": {"dim": 2, "channels": ["a"], "jump_ops": {"a": lop}},
            "weights": "activity",
            "task": {"kind": "spectrum", "omegas": [0.5, 1.0]},
            "output": {"directory": str(tmp_path), "prefix": "t"},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = cli.main(["run", str(path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: ResolventError: resolvent is singular at omega=1\n"


class TestDirectTraces:
    """Currents and backgrounds read off the jump operators equal t J v."""

    @pytest.mark.parametrize("seed", [84, 85, 86])
    def test_direct_traces_match_gain_matrix(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, dim=3, n_channels=3, silent=seed % 2)
        ext = extended_liouvillian(model)
        nu = rng.normal(size=(3, 3))
        weights = CountingWeights(model.channels, nu)
        for state in (
            feedback_steady_state(model, ext=ext),
            embed(model.channels, rng.dirichlet(np.ones(3)), random_density(rng, 3)),
        ):
            v = ext.vectors(state.blocks[None])[0]
            for got, gains in (
                (average_current(ext, weights, state), ext.gain_matrices(nu)[0]),
                (noise_background(ext, weights, state), ext.gain_matrices(nu**2)[0]),
            ):
                want = (ext.trace_row @ (gains @ v)).real
                assert abs(got - want) <= 1e-12 * abs(want)


class TestTransitionResolvedWeights:
    def test_tiled_rows_match_channel_form(self):
        rng = np.random.default_rng(76)
        model = random_model(rng, dim=2, n_channels=2)
        ext = extended_liouvillian(model)
        row = np.array([0.8, -1.1])
        by_channel = CountingWeights.from_channel_weights(model.channels, row)
        by_transition = CountingWeights(
            model.channels, np.tile(row[:, None], (1, 2))
        )
        ss = feedback_steady_state(model, ext=ext)
        assert average_current(ext, by_channel, ss) == average_current(
            ext, by_transition, ss
        )
        assert steady_noise(ext, by_channel, ss) == steady_noise(
            ext, by_transition, ss
        )

    def test_memory_conditioned_weight_selects_transitions(self):
        # count only jumps of channel 0 that happen while the memory reads 1
        rng = np.random.default_rng(77)
        model = random_model(rng, dim=2, n_channels=2)
        ext = extended_liouvillian(model)
        nu = np.zeros((2, 2))
        nu[0, 1] = 1.0
        weights = CountingWeights(model.channels, nu)
        ss = feedback_steady_state(model, ext=ext)
        j = average_current(ext, weights, ss)
        l01 = model.jump_ops[0, 1]
        direct = np.trace(l01 @ ss.blocks[1] @ l01.conj().T).real
        assert abs(j - direct) < 1e-12 * max(1.0, abs(j))


class TestInputValidation:
    def test_negative_lag_rejected(self):
        _, ext, weights = poisson_setup(1.0, 1.0)
        with pytest.raises(ValidationError, match="non-negative"):
            two_point_correlation(ext, weights, np.array([-1.0, 0.0]))

    def test_non_finite_correlation_names_its_lag(self):
        _, ext, weights = random_setup(80, dim=2, n_channels=2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValidationError, match=r"correlation value at tau=1e\+308"):
                two_point_correlation(ext, weights, np.array([0.0, 1e308]))

    def test_unsorted_lags_allowed(self):
        model, ext, weights = random_setup(78, dim=2, n_channels=2)
        ss = feedback_steady_state(model, ext=ext)
        taus = np.array([2.0, 0.5, 1.0, 0.0])
        shuffled = two_point_correlation(ext, weights, taus, state=ss)
        ordered = two_point_correlation(ext, weights, np.sort(taus), state=ss)
        npt.assert_allclose(
            shuffled.values, ordered.values[np.argsort(np.argsort(taus))], atol=1e-10
        )

    def test_nonstationary_state_rejected(self):
        rng = np.random.default_rng(79)
        model = random_model(rng, dim=2, n_channels=2)
        ext = extended_liouvillian(model)
        weights = CountingWeights.activity(model.channels)
        bad = embed(model.channels, [0.5, 0.5], random_density(rng, 2))
        with pytest.raises(ValidationError, match="stationary"):
            two_point_correlation(ext, weights, np.array([0.0, 1.0]), state=bad)
