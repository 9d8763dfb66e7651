"""Deterministic propagation and stationary states of feedback models."""

import numpy as np
import numpy.testing as npt
import pytest

from jumpfeedback import (
    ValidationError,
    embed,
    evolve_extended,
    evolve_memory_resolved,
    extended_liouvillian,
    feedback_steady_state,
    marginals,
    memory_distribution_rate,
    no_feedback,
    steady_state,
)
from jumpfeedback import dynamics

from helpers import (
    child_env,
    dense_oracle,
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
        res = evolve_memory_resolved(model, state0, np.linspace(0.0, 3.0, 7))
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
            direct = expm(times[i] * ext.matrix) @ ext.vector(state0)
            npt.assert_allclose(ext.vector(res.states[i]), direct, atol=1e-12)

    def test_distinct_steps_stay_exact(self):
        rng = np.random.default_rng(63)
        model = random_model(rng, dim=2, n_channels=2)
        ext = extended_liouvillian(model)
        v0 = ext.vector(initial_state(rng, model))
        times = np.array([0.5, 0.5, 1.25, 3.0])
        out = dynamics.propagate(ext, v0, times)
        for t, v in zip(times, out):
            npt.assert_allclose(v, dynamics.scipy.linalg.expm(t * ext.matrix) @ v0, atol=1e-13)


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
            evolve_memory_resolved(model, wrong, [0.0, 1.0])

    def test_single_time_returns_initial(self):
        rng = np.random.default_rng(55)
        model = random_model(rng, dim=2, n_channels=2)
        state0 = initial_state(rng, model)
        res = evolve_memory_resolved(model, state0, [0.0])
        npt.assert_allclose(res.states[0].blocks, state0.blocks, atol=1e-14)


class TestSteadyState:
    def test_fixed_point_of_blockwise_rhs(self):
        rng = np.random.default_rng(56)
        model = random_model(rng, dim=3, n_channels=2, silent=1)
        ext = extended_liouvillian(model)
        ss = feedback_steady_state(model, ext=ext)
        assert np.abs(ext.matrix @ ext.vector(ss)).max() < 1e-10
        assert abs(ss.memory_dist.sum() - 1.0) < 1e-12

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
