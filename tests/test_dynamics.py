"""Deterministic propagation and stationary states of feedback models."""

import numpy as np
import numpy.testing as npt
import pytest

from jumpfeedback import (
    MaserParams,
    PositivityError,
    ValidationError,
    embed,
    evolve_extended,
    extended_liouvillian,
    feedback_steady_state,
    marginals,
    maser_model,
    memory_distribution_rate,
    no_feedback,
    steady_state,
)
from jumpfeedback import dynamics
from jumpfeedback.model import jump_rate_table

from helpers import (
    child_env,
    dense_oracle,
    evolve_memory_resolved,
    liouvillian,
    random_density,
    random_hermitian,
    random_model,
    random_operator,
    to_matrix,
)


def initial_state(rng, model):
    rho = random_density(rng, model.dim)
    dist = rng.random(model.n_channels)
    dist /= dist.sum()
    return embed(model.channels, dist, rho)


class TestCrossMethod:
    def test_ode_matches_exponential(self):
        rng = np.random.default_rng(50)
        for silent in (0, 1):
            model = random_model(rng, dim=2, n_channels=2, silent=silent)
            state0 = initial_state(rng, model)
            times = np.linspace(0.0, 2.0, 5)
            res_ode = evolve_memory_resolved(model, state0, times)
            res_exp = evolve_extended(model, state0, times)
            for a, b in zip(res_ode.states, res_exp.states):
                npt.assert_allclose(a.blocks, b.blocks, atol=1e-8)

    def test_trivial_model_reduces_to_lindblad(self):
        rng = np.random.default_rng(51)
        h = random_hermitian(rng, 3)
        ops = [random_operator(rng, 3, 0.7) for _ in range(2)]
        model = no_feedback(h, ops)
        rho0 = random_density(rng, 3)
        state0 = embed(model.channels, [0.5, 0.5], rho0)
        t = 1.3
        res = evolve_extended(model, state0, [0.0, t])
        system, _, _ = marginals(res.states[-1])
        direct = liouvillian(h, ops).expm(t)(rho0)
        npt.assert_allclose(system, direct, atol=1e-10)

    def test_trace_preserved_along_evolution(self):
        rng = np.random.default_rng(52)
        model = random_model(rng, dim=2, n_channels=3)
        state0 = initial_state(rng, model)
        res = evolve_extended(model, state0, np.linspace(0.0, 3.0, 7))
        for s in res.states:
            assert abs(s.memory_dist.sum() - 1.0) < 1e-9


class TestPropagation:
    def test_one_exponential_per_distinct_step(self, monkeypatch):
        rng = np.random.default_rng(62)
        model = random_model(rng, dim=2, n_channels=2)
        ext = extended_liouvillian(model)
        state0 = initial_state(rng, model)
        times = np.linspace(0.0, 6.0, 601)
        # the float grid has several steps that differ only by rounding
        assert len(set(np.diff(times))) > 1
        calls = []
        expm = dynamics.scipy.linalg.expm

        def counting_expm(a):
            calls.append(a)
            return expm(a)

        monkeypatch.setattr(dynamics.scipy.linalg, "expm", counting_expm)
        res = evolve_extended(model, state0, times, ext=ext)
        monkeypatch.undo()
        assert len(calls) == 1
        for i in (1, 300, 600):
            direct = expm(times[i] * ext.matrices[0]) @ ext.vectors(state0.blocks[None])[0]
            npt.assert_allclose(ext.vectors(res.states[i].blocks[None])[0], direct, atol=1e-12)

    def test_distinct_steps_stay_exact(self):
        rng = np.random.default_rng(63)
        model = random_model(rng, dim=2, n_channels=2)
        ext = extended_liouvillian(model)
        v0 = ext.vectors(initial_state(rng, model).blocks[None])[0]
        times = np.array([0.5, 0.5, 1.25, 3.0])
        out = dynamics.propagate(ext, v0, times)
        for t, v in zip(times, out):
            npt.assert_allclose(v, dynamics.scipy.linalg.expm(t * ext.matrices[0]) @ v0, atol=1e-13)


GRIDS = {
    "uniform": np.arange(1, 41) * 0.25,
    "repeated": np.array([0.5, 0.5, 0.5, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]),
    "uneven": np.array([0.1, 0.4, 0.45, 1.3, 2.0, 2.0, 3.7]),
    "linspace": np.linspace(0.0, 6.0, 601),
    # run lengths 1, 2, 3, 5 and 8 around the block sizes 1, 2, 4, 8
    "runs": np.cumsum([0.3] + [0.1] * 2 + [0.7] * 3 + [0.2] * 5 + [0.05] * 8 + [1.1]),
}


class TestPropagate:
    """propagate against one dense complex exponential per time, within 1e-12 relative."""

    @staticmethod
    def check(ext, v0, times, start):
        out = dynamics.propagate(ext, v0, times, start=start)
        assert out.shape == (len(times), len(v0))
        for t, v in zip(times, out):
            want = dynamics.scipy.linalg.expm((t - start) * ext.matrices[0]) @ v0
            assert np.abs(v - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("grid", list(GRIDS))
    @pytest.mark.parametrize("silent", [0, 2])
    def test_matches_the_complex_exponential(self, grid, silent):
        rng = np.random.default_rng(191 + silent)
        model = random_model(rng, dim=3, n_channels=2, silent=silent)
        ext = extended_liouvillian(model)
        self.check(ext, ext.vectors(initial_state(rng, model).blocks[None])[0], GRIDS[grid], 0.0)

    @pytest.mark.parametrize("grid", ["uniform", "runs"])
    def test_nonzero_start(self, grid):
        rng = np.random.default_rng(193)
        model = random_model(rng, dim=2, n_channels=3, silent=1)
        ext = extended_liouvillian(model)
        start = -0.35
        times = start + GRIDS[grid]
        self.check(ext, ext.vectors(initial_state(rng, model).blocks[None])[0], times, start)

    def test_complex_non_hermitian_start_vector(self):
        # coordinates of a non-hermitian input are complex and must stay exact
        rng = np.random.default_rng(194)
        model = random_model(rng, dim=3, n_channels=2)
        ext = extended_liouvillian(model)
        n = len(ext.matrices[0])
        v0 = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.abs(ext.coordinates(v0).imag).max() > 0.1
        for grid in GRIDS.values():
            self.check(ext, v0, grid, 0.0)

    def test_empty_and_single_grids(self):
        rng = np.random.default_rng(195)
        model = random_model(rng, dim=2, n_channels=2)
        ext = extended_liouvillian(model)
        v0 = ext.vectors(initial_state(rng, model).blocks[None])[0]
        assert dynamics.propagate(ext, v0, np.array([])).shape == (0, len(v0))
        self.check(ext, v0, np.array([1.5]), 0.0)
        self.check(ext, v0, np.array([0.0, 0.0]), 0.0)


class TestPropagateInputs:
    @pytest.mark.parametrize(
        "times, start",
        [([np.nan], 0.0), ([np.inf], 0.0), ([0.0, 0.5, np.nan, 2.0], 0.0), ([1.0], np.nan)],
    )
    def test_non_finite_times_rejected(self, times, start):
        # a NaN step once matched no propagator and returned the output buffer unwritten
        rng = np.random.default_rng(196)
        model = random_model(rng, dim=2, n_channels=2)
        ext = extended_liouvillian(model)
        with pytest.raises(ValidationError, match="times must be finite"):
            dynamics.propagate(ext, ext.vectors(initial_state(rng, model).blocks[None])[0], times, start=start)


class TestInputChecks:
    def test_decreasing_times_rejected(self):
        rng = np.random.default_rng(53)
        model = random_model(rng, dim=2, n_channels=2)
        state0 = initial_state(rng, model)
        with pytest.raises(ValidationError, match="non-decreasing"):
            evolve_extended(model, state0, [0.0, 2.0, 1.0])

    def test_label_mismatch_rejected(self):
        rng = np.random.default_rng(54)
        model = random_model(rng, dim=2, n_channels=2)
        rho = random_density(rng, 2)
        wrong = embed(("p", "q"), [0.5, 0.5], rho)
        with pytest.raises(ValidationError, match="labels"):
            evolve_extended(model, wrong, [0.0, 1.0])

    def test_nan_time_rejected(self):
        rng = np.random.default_rng(60)
        model = random_model(rng, dim=2, n_channels=2)
        state0 = initial_state(rng, model)
        for times in ([0.0, np.nan], [np.nan, 1.0]):
            with pytest.raises(ValidationError, match="times must be finite"):
                evolve_extended(model, state0, times)

    def test_non_finite_state_names_its_time(self):
        rng = np.random.default_rng(59)
        model = random_model(rng, dim=2, n_channels=2)
        state0 = initial_state(rng, model)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(PositivityError, match=r"state at t=1e\+308 has non-finite"):
                evolve_extended(model, state0, [0.0, 1e308])

    def test_generator_of_another_model_rejected(self):
        # the channel labels say whose generator it is; the state's labels once won silently
        rng = np.random.default_rng(61)
        model = random_model(rng, dim=2, n_channels=2)
        other = no_feedback(np.zeros((2, 2)), [random_operator(rng, 2)] * 2, labels=["x", "y"])
        with pytest.raises(ValidationError, match="generator channels"):
            evolve_extended(
                model, initial_state(rng, model), [0.0, 1.0], ext=extended_liouvillian(other)
            )

    def test_single_time_returns_initial(self):
        rng = np.random.default_rng(55)
        model = random_model(rng, dim=2, n_channels=2)
        state0 = initial_state(rng, model)
        res = evolve_extended(model, state0, [0.0])
        npt.assert_allclose(res.states[0].blocks, state0.blocks, atol=1e-14)


class TestSteadyState:
    def test_fixed_point_of_blockwise_rhs(self):
        rng = np.random.default_rng(56)
        model = random_model(rng, dim=3, n_channels=2, silent=1)
        ext = extended_liouvillian(model)
        ss = feedback_steady_state(model, ext=ext)
        assert np.abs(ext.matrices[0] @ ext.vectors(ss.blocks[None])[0]).max() < 1e-10
        assert abs(ss.memory_dist.sum() - 1.0) < 1e-12

    def test_generator_of_another_model_rejected(self):
        # it once returned the other model's blocks under this model's labels
        rng = np.random.default_rng(57)
        model = random_model(rng, dim=2, n_channels=2)
        other = no_feedback(np.zeros((2, 2)), [random_operator(rng, 2)] * 2, labels=["x", "y"])
        with pytest.raises(ValidationError, match="generator channels"):
            feedback_steady_state(model, ext=extended_liouvillian(other))

    def test_matches_dense_steady_state_of_extension(self):
        rng = np.random.default_rng(57)
        model = random_model(rng, dim=2, n_channels=3)
        ext = extended_liouvillian(model)
        ss = feedback_steady_state(model, ext=ext)
        dense = steady_state(dense_oracle(model))
        npt.assert_allclose(to_matrix(ss), dense, atol=1e-9)

    def test_long_time_evolution_converges_to_it(self):
        rng = np.random.default_rng(58)
        model = random_model(rng, dim=2, n_channels=2)
        ss = feedback_steady_state(model)
        state0 = initial_state(rng, model)
        res = evolve_extended(model, state0, [0.0, 60.0])
        npt.assert_allclose(res.states[-1].blocks, ss.blocks, atol=1e-7)


class TestMemoryRate:
    def test_equals_the_shared_rate_table_bit_for_bit(self):
        # the rate table that currents and noise read, computed for a stack
        # of three models; each member's rates give the memory rate exactly
        rng = np.random.default_rng(62)
        maser = [maser_model(MaserParams(nl=nl, nr=2.0, gl=0.5, gr=0.3)) for nl in (0.1, 0.7, 1.9)]
        cases = [[random_model(rng, dim=d, n_channels=m, silent=1) for _ in range(3)]
                 for m, d in [(1, 1), (2, 2), (3, 2), (2, 4)]]
        for models in cases + [maser]:
            states = [initial_state(rng, model) for model in models[:2]]
            states.append(feedback_steady_state(models[2]))
            table = jump_rate_table(
                np.stack([model.jump_ops for model in models]),
                np.stack([state.blocks for state in states]),
            )
            for model, state, rates in zip(models, states, table.real.copy()):
                np.fill_diagonal(rates, 0.0)
                net = rates.sum(axis=1) - rates.sum(axis=0)
                assert np.array_equal(memory_distribution_rate(model, state), net)

    def test_rates_sum_to_zero(self):
        rng = np.random.default_rng(59)
        model = random_model(rng, dim=3, n_channels=3, silent=1)
        state = initial_state(rng, model)
        rate = memory_distribution_rate(model, state)
        assert abs(rate.sum()) < 1e-12

    def test_vanishes_at_stationarity(self):
        rng = np.random.default_rng(60)
        model = random_model(rng, dim=2, n_channels=2)
        ss = feedback_steady_state(model)
        npt.assert_allclose(
            memory_distribution_rate(model, ss), np.zeros(2), atol=1e-10
        )

    def test_matches_finite_difference_of_evolution(self):
        rng = np.random.default_rng(61)
        model = random_model(rng, dim=2, n_channels=2, silent=1)
        state0 = initial_state(rng, model)
        h = 1e-5
        res = evolve_memory_resolved(model, state0, [0.0, h], rtol=1e-12, atol=1e-14)
        numeric = (res.states[1].memory_dist - state0.memory_dist) / h
        analytic = memory_distribution_rate(model, state0)
        npt.assert_allclose(numeric, analytic, atol=1e-4)


def test_package_import_leaves_scipy_integrate_unloaded():
    import subprocess
    import sys

    code = "import sys, jumpfeedback; print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
