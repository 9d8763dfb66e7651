"""Stochastic trajectory sampling: distributions, determinism, bookkeeping."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
import scipy.stats

from jumpfeedback import (
    CountingWeights,
    DimensionError,
    HybridState,
    MaserParams,
    QubitParams,
    ValidationError,
    average_current,
    charge_from_record,
    drazin,
    extended_liouvillian,
    feedback_model,
    feedback_steady_state,
    marginals,
    maser_model,
    mc_estimate,
    no_feedback,
    qubit_cooling_model,
    sample_trajectory,
    trace_vector,
    trajectory_stream,
    vec,
    work_weights,
)

import jumpfeedback.trajectories as trajectories
from jumpfeedback.model import loss_matrices
from jumpfeedback.trajectories import (
    LOOKAHEAD,
    MAX_ROOT_ITERATIONS,
    _jump_time,
    _lookahead_tables,
    _moments,
    check_run,
    rank_one_jumps,
    whole_steps,
)
from jumpfeedback.trajectories import UNIFORM_BLOCK, WAITING_BLOCK, _KeyedStreams, _philox_keys
from helpers import (
    RANK_TWO_MODEL,
    child_env,
    dense_gain,
    dense_oracle,
    fixed_step_reference,
    random_density,
    random_hermitian,
    random_model,
    random_operator,
    to_matrix,
    waiting_time_reference,
)


def poisson_model(gamma):
    return no_feedback(np.zeros((1, 1)), [np.sqrt(gamma) * np.eye(1)], labels=["a"])


def qubit_setup(nbar=0.5, gamma=0.25):
    model = qubit_cooling_model(QubitParams(nbar=nbar, gamma=gamma))
    weights = CountingWeights.activity(model.channels)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    return model, weights, rho0


def expected_charge(model, weights, rho0, mem_dist, horizon, burn_in=0.0):
    """Exact E[charge over [burn_in, horizon]] for the sampled ensemble.

    Integrates the mean jump rate Tr[J exp(s L) rho_0] over the counting
    window using the Drazin inverse, so the transient from the factorized
    initial condition is handled exactly.
    """
    gen = dense_oracle(model)
    blocks = np.stack([p * np.asarray(rho0, complex) for p in mem_dist])
    v0 = vec(to_matrix(HybridState(model.channels, blocks)))
    ss = feedback_steady_state(model)
    dz = drazin(gen, to_matrix(ss)).matrix
    t = trace_vector(gen.dim)
    jmat = dense_gain(model, weights.per_transition)
    p_ss = np.outer(vec(to_matrix(ss)), t)
    window = gen.expm(horizon).matrix - gen.expm(burn_in).matrix
    integral = (horizon - burn_in) * (p_ss @ v0) + dz @ (window @ v0)
    return float(np.real(t @ (jmat @ integral)))


class TestStreams:
    def test_reproducible_and_distinct(self):
        a = trajectory_stream(7, 3).random(5)
        b = trajectory_stream(7, 3).random(5)
        c = trajectory_stream(7, 4).random(5)
        npt.assert_array_equal(a, b)
        assert np.abs(a - c).max() > 0

    def test_negative_seed_or_index_rejected(self):
        with pytest.raises(ValidationError, match="non-negative"):
            trajectory_stream(-1, 0)
        with pytest.raises(ValidationError, match="non-negative"):
            trajectory_stream(0, -1)
        # a fraction is not truncated onto another seed's stream
        with pytest.raises(ValidationError, match="non-negative integer, got 1.5"):
            trajectory_stream(1.5, 0)
        with pytest.raises(ValidationError, match="non-negative integer, got 1.5"):
            trajectory_stream(0, 1.5)
        model = poisson_model(1.0)
        weights = CountingWeights.activity(model.channels)
        with pytest.raises(ValidationError, match="non-negative integer, got 1.5"):
            mc_estimate(model, weights, np.eye(1), [1.0], 1.0, 2, master_seed=1.5)
        with pytest.raises(ValidationError, match="non-negative integer, got 1.5"):
            sample_trajectory(model, weights, np.eye(1), model.channels[0], 1.0, rng=1.5)

    @pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64 + 5, 2**100])
    def test_uniforms_equal_seed_sequence_philox(self, seed):
        # the keys come from a vectorized copy of numpy's SeedSequence hash;
        # indices past 2**32 - 1 take two spawn-key words
        indices = [*range(47), 2**32 - 1, 2**32, 2**70]
        batch = _KeyedStreams(_philox_keys(seed, np.arange(47, dtype=np.uint32)[:, None]))
        for pos, i in enumerate(indices):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(i,))
            want = np.random.Generator(np.random.Philox(ss)).random(300)
            npt.assert_array_equal(trajectory_stream(seed, i).random(300), want)
            if pos < len(batch.keys):
                got = np.empty(300)
                batch.fill(pos, got)
                npt.assert_array_equal(got, want)

    @pytest.mark.parametrize("seed", [0, 5, 2**40])
    @pytest.mark.parametrize(
        "dist", [[0.25, 0.0, 0.75], [0.1, 0.2, 0.7], [1 / 3, 1 / 3, 1 / 3], [0.0, 1.0, 0.0]]
    )
    def test_initial_memories_equal_the_per_stream_draws(self, seed, dist):
        # the first uniform of stream i picks trajectory i's initial memory
        rng = np.random.default_rng(62)
        model = random_model(rng, dim=2, n_channels=3)
        weights = CountingWeights.activity(model.channels)
        n = 150
        est = mc_estimate(
            model, weights, random_density(rng, 2), dist, 0.01, n,
            master_seed=seed, collect_records=True,
        )
        cum = np.cumsum(dist)
        want = [
            min(int(np.searchsorted(cum, trajectory_stream(seed, i).random(), side="right")), 2)
            for i in range(n)
        ]
        assert [rec.initial_memory for rec in est.records] == want


class TestKeyedStreams:
    """A batch reads every stream through one Philox generator, resumed by key and counter."""

    @pytest.mark.parametrize("pos", [0, 1, 2, 3, 4, 5, 129, 257])
    def test_resumed_stream_continues_exactly(self, pos):
        n = 300
        streams = _KeyedStreams(_philox_keys(31, np.arange(3, dtype=np.uint32)[:, None]))
        head, tail = np.empty(pos), np.empty(n - pos)
        streams.fill(2, head)
        streams.fill(0, np.empty(7))  # another stream moves the generator in between
        streams.fill(2, tail)
        want = trajectory_stream(31, 2).random(n)
        npt.assert_array_equal(head, want[:pos])
        npt.assert_array_equal(tail, want[pos:])

    @pytest.mark.parametrize(
        "scheme, dt, horizon, seed",
        [("waiting-time", None, 150.0, 140), ("fixed-step", 0.01, 10.5, 141)],
    )
    def test_batch_members_equal_their_replays_across_refills(self, scheme, dt, horizon, seed):
        if scheme == "waiting-time":
            model, weights, rho0 = qubit_setup(nbar=1.0, gamma=0.8)
        else:
            params = MaserParams(nl=1.0, nr=2.0, gl=0.5, gr=0.5, lam=1.0, delta=0.0, wl=8.0, wr=2.0)
            model, weights = maser_model(params), work_weights(params)
            rho0 = np.eye(3, dtype=complex) / 3
        mem0 = np.full(model.n_channels, 1.0 / model.n_channels)
        est = mc_estimate(
            model, weights, rho0, mem0, horizon, 6,
            scheme=scheme, master_seed=seed, dt=dt, collect_records=True,
        )
        if dt is None:
            # two uniforms per round: some stream refills its block twice
            assert max(len(r.jump_times) for r in est.records) >= WAITING_BLOCK
        else:
            assert round(horizon / dt) > UNIFORM_BLOCK
        for i, rec in enumerate(est.records):
            stream = trajectory_stream(seed, i)
            stream.random()  # the batch spends this on the initial memory
            solo = sample_trajectory(
                model, weights, rho0, model.channels[rec.initial_memory], horizon,
                scheme=scheme, rng=stream, dt=dt,
            )
            npt.assert_array_equal(solo.jump_times, rec.jump_times)
            npt.assert_array_equal(solo.jump_channels, rec.jump_channels)
            npt.assert_array_equal(solo.memory_before, rec.memory_before)
            npt.assert_array_equal(solo.final_state, rec.final_state)
            assert solo.charge == rec.charge

    @pytest.mark.parametrize("scheme, dt", [("waiting-time", None), ("fixed-step", 0.1)])
    def test_any_generator_drives_a_single_trajectory(self, scheme, dt):
        model, weights, rho0 = qubit_setup()
        a, b = (
            sample_trajectory(
                model, weights, rho0, "-1", 30.0, scheme=scheme,
                rng=np.random.Generator(np.random.PCG64(5)), dt=dt,
            )
            for _ in range(2)
        )
        assert len(a.jump_times) > 0
        npt.assert_array_equal(a.jump_times, b.jump_times)
        npt.assert_array_equal(a.jump_channels, b.jump_channels)
        npt.assert_array_equal(a.final_state, b.final_state)
        assert a.charge == b.charge


class TestWaitingTimeDistribution:
    def test_first_wait_is_exponential(self):
        # emitter with a flat rate: the first jump time is exactly
        # exponential, and the long horizon makes truncation negligible
        gamma = 0.8
        model = poisson_model(gamma)
        weights = CountingWeights.activity(model.channels)
        est = mc_estimate(
            model,
            weights,
            np.eye(1, dtype=complex),
            {"a": 1.0},
            horizon=30.0,
            n_traj=2000,
            master_seed=101,
            collect_records=True,
        )
        first = np.array([r.jump_times[0] for r in est.records])
        stat = scipy.stats.kstest(first, "expon", args=(0.0, 1.0 / gamma))
        assert stat.pvalue > 0.01

    def test_channel_split_follows_relative_rates(self):
        g1, g2 = 0.5, 1.5
        model = no_feedback(
            np.zeros((1, 1)),
            [np.sqrt(g1) * np.eye(1), np.sqrt(g2) * np.eye(1)],
            labels=["a", "b"],
        )
        weights = CountingWeights.from_channel_weights(model.channels, {"b": 1.0})
        est = mc_estimate(
            model,
            weights,
            np.eye(1, dtype=complex),
            [1.0, 0.0],
            horizon=20.0,
            n_traj=400,
            master_seed=102,
            collect_records=True,
        )
        picks = np.concatenate([r.jump_channels for r in est.records])
        frac = (picks == 1).mean()
        p = g2 / (g1 + g2)
        se = np.sqrt(p * (1.0 - p) / len(picks))
        assert abs(frac - p) < 5.0 * se

    def test_poisson_mean_and_variance(self):
        gamma = 1.1
        model = poisson_model(gamma)
        weights = CountingWeights.activity(model.channels)
        horizon = 12.0
        est = mc_estimate(
            model,
            weights,
            np.eye(1, dtype=complex),
            [1.0],
            horizon=horizon,
            n_traj=4000,
            master_seed=103,
        )
        target = gamma * horizon
        assert abs(est.mean_charge - target) < 5.0 * est.mean_charge_se
        assert abs(est.var_charge - target) < 5.0 * est.var_charge_se


def survival_samples(model, rng, n_states=40, t_max=40.0):
    """Exponential-sum survivals S(t) = Re sum_ab c_ab exp(r_ab t) of random states.

    For every memory value, random states give the coefficients c of the
    no-jump trace in the eigenbasis of H_eff, with r_ab = kappa_a + kappa_b^*
    and kappa = -i eig(H_eff); uniforms u are drawn in
    [S(t_max), 1), where the root of S(t) = u lies in (0, t_max].
    """
    coeffs, decays = [], []
    loss = loss_matrices(model.jump_ops, model.silent_ops)
    for k in range(model.n_channels):
        h_eff = model.hamiltonians[k] - 0.5j * loss[k]
        evals, v = np.linalg.eig(h_eff)
        vinv = np.linalg.inv(v)
        gram_t = (v.conj().T @ v).T
        for _ in range(n_states):
            rho = random_density(rng, model.dim)
            coeffs.append((vinv @ rho @ vinv.conj().T) * gram_t)
            decays.append(-1j * evals)
    coeff, decay = np.array(coeffs), np.array(decays)
    rates = decay[:, :, None] + decay[:, None, :].conj()

    def survival(t):
        return np.einsum("nab,nab->n", coeff, np.exp(rates * t[:, None, None])).real

    t_max = np.full(len(coeff), t_max)
    s_end = survival(t_max)
    u = s_end + (1.0 - s_end) * rng.random(len(coeff))
    # the engine holds states as flat rows, with the decays kappa of their factors
    return coeff.reshape(len(coeff), -1), decay, u, t_max, survival


def bisection_root(survival, u, t_max):
    lo, hi = np.zeros(len(u)), t_max.copy()
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        above = survival(mid) > u
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return 0.5 * (lo + hi)


class TestJumpTimeRoot:
    @pytest.mark.parametrize("which", ["maser", "qubit"])
    def test_newton_root_matches_bisection(self, which):
        rng = np.random.default_rng(120)
        if which == "maser":
            model = maser_model(
                MaserParams(nl=1.0, nr=2.0, gl=0.5, gr=0.5, lam=1.0, delta=0.0, wl=8.0, wr=2.0)
            )
        else:
            model = qubit_setup(nbar=1.0, gamma=0.8)[0]
        coeff, kappa, u, t_max, survival = survival_samples(model, rng)
        root = _jump_time(_moments(coeff, kappa), kappa, u, t_max)
        assert np.abs(root - bisection_root(survival, u, t_max)).max() < 1e-12
        assert np.abs(survival(root) - u).max() < 4 * np.finfo(float).eps

    def test_stiff_sums_with_roots_near_both_bracket_ends(self):
        # decay rates from 1e-3 to 1e2, mixed by a coherent coupling; a third
        # of the roots lie near t = 0 and a third near t_max
        rng = np.random.default_rng(128)
        rates = [1e-3, 1e-1, 1e1, 1e2]
        jumps = [np.sqrt(g) * np.diag(np.eye(4)[i]) for i, g in enumerate(rates)]
        model = no_feedback(random_hermitian(rng, 4), jumps, labels=["a", "b", "c", "d"])
        coeff, kappa, _, t_max, survival = survival_samples(model, rng, n_states=30)
        near = 10.0 ** -rng.uniform(2, 12, size=40)
        fraction = np.concatenate([rng.random(40), 1.0 - near, near])
        s_end = survival(t_max)
        u = s_end + (1.0 - s_end) * fraction
        root = _jump_time(_moments(coeff, kappa), kappa, u, t_max)
        assert root.min() < 1e-10 and root.max() > 0.999 * t_max[0]
        ref = bisection_root(survival, u, t_max)
        assert (np.abs(root - ref) / np.maximum(ref, 1.0)).max() < 1e-12
        assert np.abs(survival(root) - u).max() < 4 * np.finfo(float).eps

    def test_flat_start_is_no_root(self):
        # S(t) = 2 exp(-t) - exp(-2t), two decay stages in a row: S'(0) = 0,
        # so the first Halley step is zero although S(0) = 1 > u
        u = np.linspace(0.05, 0.95, 19)
        coeff = np.tile([2.0, 0.0, 0.0, -1.0], (len(u), 1)).astype(complex)
        kappa = np.tile([-0.5, -1.0], (len(u), 1)).astype(complex)
        t_max = np.full(len(u), 40.0)
        root = _jump_time(_moments(coeff, kappa), kappa, u, t_max)

        def survival(t):
            return 2.0 * np.exp(-t) - np.exp(-2.0 * t)

        assert np.abs(root - bisection_root(survival, u, t_max)).max() < 1e-12
        assert np.abs(survival(root) - u).max() < 4 * np.finfo(float).eps

    def test_each_root_independent_of_the_batch(self):
        rng = np.random.default_rng(121)
        model = qubit_setup(nbar=1.0, gamma=0.8)[0]
        coeff, kappa, u, t_max, _ = survival_samples(model, rng)
        batch = _jump_time(_moments(coeff, kappa), kappa, u, t_max)
        for i in (0, 7, len(u) - 1):
            sl = slice(i, i + 1)
            alone = _jump_time(_moments(coeff[sl], kappa[sl]), kappa[sl], u[sl], t_max[sl])
            assert alone[0] == batch[i]

def expected_charge_discrete(model, weights, rho0, mem_dist, horizon, dt, burn_in=0.0):
    """Exact mean charge of the fixed-step chain.

    The ensemble average of the discrete unraveling follows the Euler
    propagator 1 + dt * L exactly, so the scheme's mean charge is the
    step sum of dt * Tr[J rho_step] over the counting window.  Comparing
    against this isolates sampler defects from the O(dt) scheme bias.
    """
    gen = dense_oracle(model)
    blocks = np.stack([p * np.asarray(rho0, complex) for p in mem_dist])
    v = vec(to_matrix(HybridState(model.channels, blocks)))
    t = trace_vector(gen.dim)
    jrow = t @ dense_gain(model, weights.per_transition)
    euler = np.eye(len(v)) + dt * gen.matrix
    n_steps = int(round(horizon / dt))
    total = 0.0
    for step in range(n_steps):
        if (step + 1) * dt >= burn_in:
            total += dt * float(np.real(jrow @ v))
        v = euler @ v
    return total


class TestCrossScheme:
    def test_waiting_time_matches_the_exact_mean(self):
        model, weights, rho0 = qubit_setup()
        mem0 = [0.5, 0.5]
        horizon, burn_in = 24.0, 4.0
        target = expected_charge(model, weights, rho0, mem0, horizon, burn_in)
        est = mc_estimate(
            model, weights, rho0, mem0, horizon=horizon, n_traj=3000,
            master_seed=104, burn_in=burn_in,
        )
        assert abs(est.mean_charge - target) < 5.0 * est.mean_charge_se

    def test_fixed_step_matches_its_exact_discrete_mean(self):
        # fast relaxation keeps the first-order states close to the
        # physical simplex, so the analytic chain mean is sharp here
        model, weights, rho0 = qubit_setup(nbar=1.0, gamma=2.0)
        mem0 = [0.5, 0.5]
        horizon, burn_in, dt = 5.0, 1.0, 0.005
        target = expected_charge_discrete(
            model, weights, rho0, mem0, horizon, dt, burn_in
        )
        est = mc_estimate(
            model, weights, rho0, mem0, horizon=horizon, n_traj=4000,
            scheme="fixed-step", master_seed=104, dt=dt, burn_in=burn_in,
        )
        assert abs(est.mean_charge - target) < 5.0 * est.mean_charge_se
        # the gap between the chain mean and the continuum answer is the
        # scheme's own first-order bias and shrinks with dt
        continuum = expected_charge(model, weights, rho0, mem0, horizon, burn_in)
        coarse = expected_charge_discrete(
            model, weights, rho0, mem0, horizon, 4.0 * dt, burn_in
        )
        finer = expected_charge_discrete(
            model, weights, rho0, mem0, horizon, dt, burn_in
        )
        assert abs(finer - continuum) < 0.3 * abs(coarse - continuum)

    def test_memory_frequencies_match_deterministic_marginal(self):
        from jumpfeedback import HybridState, evolve_extended

        model, weights, rho0 = qubit_setup()
        horizon = 10.0
        blocks = np.stack([0.5 * rho0, 0.5 * rho0])
        state0 = HybridState(model.channels, blocks)
        res = evolve_extended(model, state0, [0.0, horizon])
        dist = res.states[-1].memory_dist
        est = mc_estimate(
            model,
            weights,
            rho0,
            [0.5, 0.5],
            horizon=horizon,
            n_traj=4000,
            master_seed=105,
        )
        for k in range(2):
            se = max(est.memory_freq_se[k], 1e-3)
            assert abs(est.memory_freq[k] - dist[k]) < 5.0 * se

    def test_maser_mean_rate_matches_steady_current(self):
        # slow-mixing operating point: the relaxation rate is gl*nl = 0.0075,
        # so the burn-in must cover many multiples of 1/0.0075 before the
        # windowed mean becomes an unbiased estimate of the steady current
        params = MaserParams(
            nl=0.3, nr=8.0, gl=0.025, gr=0.025, lam=1.0, delta=0.0, wl=8.0, wr=2.0
        )
        model = maser_model(params, feedback=True)
        weights = work_weights(params)
        ext = extended_liouvillian(model)
        steady = feedback_steady_state(model, ext=ext)
        current = average_current(ext, weights, steady)
        horizon, burn_in = 1500.0, 700.0
        est = mc_estimate(
            model,
            weights,
            np.eye(3, dtype=complex) / 3,
            {ch: 0.25 for ch in model.channels},
            horizon=horizon,
            n_traj=2000,
            master_seed=21,
            burn_in=burn_in,
        )
        window = horizon - burn_in
        err = abs(est.mean_charge / window - current)
        assert err < 5.0 * est.mean_charge_se / window


class TestFixedStepLookahead:
    """The lookahead search reproduces stepping one dt at a time."""

    def cases(self):
        model, weights, rho0 = qubit_setup(nbar=1.0, gamma=0.8)
        # 1250 steps: crosses the first uniform block, not a whole number of
        # lookahead windows
        yield model, weights, rho0, 12.5, 0.01
        rng = np.random.default_rng(122)
        silent = random_model(rng, dim=2, n_channels=2, scale=0.5, silent=1)
        nu = CountingWeights(silent.channels, rng.normal(size=(2, 2)))
        yield silent, nu, random_density(rng, 2), 12.1, 0.01

    def test_engine_matches_plain_stepper(self):
        for model, weights, rho0, horizon, dt in self.cases():
            fired = []
            for i in range(3):
                k0 = i % model.n_channels
                rec = sample_trajectory(
                    model, weights, rho0, model.channels[k0], horizon,
                    scheme="fixed-step", rng=trajectory_stream(123, i), dt=dt, burn_in=1.0,
                )
                times, channels, before, final, charge = fixed_step_reference(
                    model, weights, rho0, k0, trajectory_stream(123, i), horizon, dt, 1.0
                )
                assert len(times) > 5
                npt.assert_array_equal(rec.jump_times, times)
                npt.assert_array_equal(rec.jump_channels, channels)
                npt.assert_array_equal(rec.memory_before, before)
                assert rec.charge == charge
                npt.assert_allclose(rec.final_state, final, rtol=0, atol=1e-12)
                fired.extend(channels)
            if model.silent_labels:
                assert max(fired) >= model.n_channels

    def test_tables_equal_the_per_memory_loop(self):
        rng = np.random.default_rng(131)
        m, d, n_ops, dt = 3, 3, 4, 0.01
        h_eff = np.stack([random_operator(rng, d) for _ in range(m)])
        rate_rows = rng.normal(size=(m, n_ops, d * d)) + 1j * rng.normal(size=(m, n_ops, d * d))
        powers, look = _lookahead_tables(h_eff, rate_rows, dt)
        eye = np.eye(d)
        for k in range(m):
            h = h_eff[k]
            step_t = (np.eye(d * d) - 1j * dt * (np.kron(h, eye) - np.kron(eye, h.conj()))).T
            pw = [np.eye(d * d, dtype=complex)]
            for _ in range(LOOKAHEAD):
                pw.append(pw[-1] @ step_t)
            cols = np.concatenate([dt * rate_rows[k].T, eye.reshape(d * d, 1)], axis=1)
            table = np.stack([p @ cols for p in pw[:LOOKAHEAD]], axis=2)
            npt.assert_array_equal(powers[k], np.stack(pw))
            npt.assert_array_equal(
                look[k], np.concatenate([table.real, -table.imag]).reshape(2 * d * d, -1)
            )


BENCH_MASER = MaserParams(nl=1.0, nr=2.0, gl=0.5, gr=0.5, lam=1.0, delta=0.0, wl=8.0, wr=2.0)


def rank_two_model():
    return feedback_model(**RANK_TWO_MODEL)


def class_case(name):
    """(model, weights, rho0) of a fixed-step class-table case."""
    if name == "classical maser":
        return maser_model(BENCH_MASER, classical=True), work_weights(BENCH_MASER), np.eye(3) / 3
    if name == "maser nl = 0":
        params = dataclasses.replace(BENCH_MASER, nl=0.0)
        return maser_model(params), work_weights(params), np.eye(3) / 3
    model = rank_two_model()
    return model, CountingWeights.activity(model.channels), np.diag([0.3, 0.7]).astype(complex)


class TestClassTables:
    """Rank-one jump operators: fixed-step rounds read per-class tables."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The class tables every batch builds, in order."""
        tables = []

        class Recorded(trajectories._ClassTables):
            def __init__(self, *args):
                super().__init__(*args)
                tables.append(self)

        monkeypatch.setattr(trajectories, "_ClassTables", Recorded)
        return tables

    def replay_against_reference(self, model, weights, rho0, horizon, dt, seed, n=4):
        """Records of n single trajectories, each checked against the plain stepper."""
        records = []
        for i in range(n):
            k0 = i % model.n_channels
            rec = sample_trajectory(
                model, weights, rho0, model.channels[k0], horizon,
                scheme="fixed-step", rng=trajectory_stream(seed, i), dt=dt, burn_in=1.0,
            )
            times, channels, before, final, charge = fixed_step_reference(
                model, weights, rho0, k0, trajectory_stream(seed, i), horizon, dt, 1.0
            )
            npt.assert_array_equal(rec.jump_times, times)
            npt.assert_array_equal(rec.jump_channels, channels)
            npt.assert_array_equal(rec.memory_before, before)
            assert rec.charge == charge
            npt.assert_allclose(rec.final_state, final, rtol=0, atol=1e-12)
            records.append(rec)
        return records

    def test_rank_one_predicate(self):
        qubit, _, _ = qubit_setup()
        for name in ("classical maser", "maser nl = 0"):
            assert rank_one_jumps(class_case(name)[0])
        assert rank_one_jumps(maser_model(BENCH_MASER))
        assert rank_one_jumps(qubit)
        assert rank_one_jumps(poisson_model(1.0))
        assert not rank_one_jumps(rank_two_model())
        assert not rank_one_jumps(random_model(np.random.default_rng(5), dim=2, n_channels=2))

    @pytest.mark.parametrize("name", ["classical maser", "maser nl = 0"])
    def test_engine_matches_plain_stepper(self, built, name):
        model, weights, rho0 = class_case(name)
        # 1250 steps: crosses the first uniform block
        records = self.replay_against_reference(model, weights, rho0, 12.5, 0.01, 201)
        assert len(built) == len(records)
        fired = np.concatenate([r.jump_channels for r in records])
        assert len(fired) > 10
        if name == "classical maser":
            # silent hops fire, and only at memory E_r, where the feedback gates them on
            hops = np.concatenate([r.jump_channels >= model.n_channels for r in records])
            assert hops.any()
            before = np.concatenate([r.memory_before for r in records])
            assert set(before[hops].tolist()) == {model.channel_index("E_r")}
        else:
            # the zero I_l operator leads to no class and never fires
            i_l = model.channel_index("I_l")
            assert i_l not in fired
            assert (built[0].after[:, i_l] == -1).all()

    @pytest.mark.parametrize("name", ["classical maser", "maser nl = 0"])
    def test_batch_members_equal_their_replays(self, built, name):
        model, weights, rho0 = class_case(name)
        mem0 = np.full(model.n_channels, 1.0 / model.n_channels)
        est = mc_estimate(
            model, weights, rho0, mem0, 10.5, 6,
            scheme="fixed-step", master_seed=204, dt=0.01, collect_records=True,
        )
        for i, rec in enumerate(est.records):
            stream = trajectory_stream(204, i)
            stream.random()  # the batch spends this on the initial memory
            solo = sample_trajectory(
                model, weights, rho0, model.channels[rec.initial_memory], 10.5,
                scheme="fixed-step", rng=stream, dt=0.01,
            )
            npt.assert_array_equal(solo.jump_times, rec.jump_times)
            npt.assert_array_equal(solo.jump_channels, rec.jump_channels)
            npt.assert_array_equal(solo.memory_before, rec.memory_before)
            npt.assert_array_equal(solo.final_state, rec.final_state)
            assert solo.charge == rec.charge
        assert len(built) == 1 + len(est.records)

    def test_a_rank_two_operator_takes_the_lookahead_search(self, built):
        model, weights, rho0 = class_case("rank two")
        records = self.replay_against_reference(model, weights, rho0, 12.5, 0.01, 205)
        assert built == []
        fired = np.concatenate([r.jump_channels for r in records])
        assert set(fired.tolist()) == {0, 1}

    def test_tables_reproduce_the_lookahead_search(self, monkeypatch):
        model, weights = maser_model(BENCH_MASER), work_weights(BENCH_MASER)
        kwargs = dict(
            scheme="fixed-step", master_seed=206, dt=0.01, burn_in=2.0, collect_records=True
        )
        mem0 = {c: 0.25 for c in model.channels}
        tabled = mc_estimate(model, weights, np.eye(3) / 3, mem0, 10.0, 200, **kwargs)
        monkeypatch.setattr(trajectories, "rank_one_jumps", lambda model: False)
        searched = mc_estimate(model, weights, np.eye(3) / 3, mem0, 10.0, 200, **kwargs)
        assert (tabled.rounds, tabled.jump_events) == (searched.rounds, searched.jump_events)
        assert tabled.mean_charge == searched.mean_charge
        assert tabled.var_charge == searched.var_charge
        npt.assert_array_equal(tabled.memory_freq, searched.memory_freq)
        for a, b in zip(tabled.records, searched.records):
            npt.assert_array_equal(a.jump_times, b.jump_times)
            npt.assert_array_equal(a.jump_channels, b.jump_channels)
            npt.assert_array_equal(a.memory_before, b.memory_before)
            npt.assert_allclose(a.final_state, b.final_state, rtol=0, atol=1e-12)

    def test_runs_past_the_table_end_match_the_plain_stepper(self, built, monkeypatch):
        # tables of one block: every wait longer than 64 steps leaves them
        monkeypatch.setattr(trajectories, "TABLE_FLOATS", 1 << 10)
        model, weights, rho0 = qubit_setup(nbar=0.2, gamma=0.3)
        records = self.replay_against_reference(model, weights, rho0, 12.5, 0.01, 207)
        assert {t.end for t in built} == {LOOKAHEAD}
        waits = np.concatenate([np.diff(r.jump_times, prepend=0.0) for r in records])
        assert len(waits) > 4
        assert (waits > LOOKAHEAD * 0.01).any()

    def test_dark_state_keeps_the_tables_bounded(self, built, monkeypatch):
        monkeypatch.setattr(trajectories, "TABLE_FLOATS", 1 << 12)
        # no absorption: the ground state at memory -1 never jumps
        model, weights, rho0 = qubit_setup(nbar=0.0, gamma=0.8)
        for horizon, dt in ((40.0, 0.01), (80.0, 0.005)):
            rec = sample_trajectory(
                model, weights, rho0, "-1", horizon,
                scheme="fixed-step", rng=trajectory_stream(208, 0), dt=dt,
            )
            _, channels, _, final, _ = fixed_step_reference(
                model, weights, rho0, 0, trajectory_stream(208, 0), horizon, dt
            )
            assert len(rec.jump_times) == len(channels) == 0
            npt.assert_allclose(rec.final_state, final, rtol=0, atol=1e-12)
        first, second = built
        assert first.end == second.end <= 4000 // 5
        for t in built:
            n_cls, rows, n_ops = t.cum.shape
            assert n_cls * rows * (n_ops + 1) <= 1 << 12
            assert t.anchors.shape == first.anchors.shape


def waiting_case(name):
    """(model, weights, rho0, memory0) of a waiting-time class case."""
    if name == "maser":
        model, weights = maser_model(BENCH_MASER), work_weights(BENCH_MASER)
        return model, weights, np.eye(3) / 3, {c: 0.25 for c in model.channels}
    if name == "classical maser":
        model, weights, rho0 = class_case(name)
        return model, weights, rho0, {c: 0.25 for c in model.channels}
    if name == "qubit nbar = 0":
        # no absorption: the ground state is dark and S levels off at 1/2
        model, weights, _ = qubit_setup(nbar=0.0, gamma=0.8)
        return model, weights, np.eye(2) / 2, [0.5, 0.5]
    model = poisson_model(1.0)
    return model, CountingWeights.activity(model.channels), np.eye(1), [1.0]


class TestSurvivalTables:
    """Rank-one jump operators: waiting-time rounds run on classes."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The survival tables every batch builds, in order."""
        tables = []

        class Recorded(trajectories._SurvivalTables):
            def __init__(self, *args):
                super().__init__(*args)
                tables.append(self)

        monkeypatch.setattr(trajectories, "_SurvivalTables", Recorded)
        return tables

    @staticmethod
    def estimate(name, seed):
        model, weights, rho0, mem0 = waiting_case(name)
        return mc_estimate(
            model, weights, rho0, mem0, 10.0, 200, master_seed=seed, burn_in=2.0,
            collect_records=True,
        )

    @staticmethod
    def assert_same_run(a, b, survival=None):
        """Equal runs up to the round-off of the roots: jump times within
        1e-14 * max(t, 1) or, given ``survival(record, t)``, jump times at
        which the survivals agree within 2 eps."""
        assert (a.rounds, a.jump_events) == (b.rounds, b.jump_events)
        assert a.mean_charge == b.mean_charge
        assert a.var_charge == b.var_charge
        npt.assert_array_equal(a.memory_freq, b.memory_freq)
        for ra, rb in zip(a.records, b.records):
            npt.assert_array_equal(ra.jump_channels, rb.jump_channels)
            npt.assert_array_equal(ra.memory_before, rb.memory_before)
            assert ra.final_memory == rb.final_memory
            for ta, tb in zip(ra.jump_times, rb.jump_times):
                if abs(ta - tb) > 1e-14 * max(tb, 1.0):
                    assert survival is not None
                    assert abs(survival(ra, ta) - survival(rb, tb)) <= 2 * np.finfo(float).eps
            npt.assert_allclose(ra.final_state, rb.final_state, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", ["maser", "classical maser", "qubit nbar = 0", "poisson"])
    def test_classes_reproduce_the_per_state_rounds(self, built, monkeypatch, name):
        classes = self.estimate(name, 209)
        assert len(built) == 1
        monkeypatch.setattr(trajectories, "rank_one_jumps", lambda model: False)
        per_state = self.estimate(name, 209)
        assert len(built) == 1
        assert classes.jump_events > 50
        survival = None
        if name == "qubit nbar = 0":
            # where S levels off the root is ill-conditioned in t: S' is
            # ~1e-3 at t = 8, so S's round-off moves it by ~1e-13.  Every
            # jump is a first one, after which the ground state is dark
            model, _, rho0, _ = waiting_case(name)
            h_eff = model.hamiltonians - 0.5j * loss_matrices(model.jump_ops, model.silent_ops)

            def survival(record, t):
                assert len(record.jump_times) == 1
                prop = scipy.linalg.expm(-1j * t * h_eff[record.initial_memory])
                return np.trace(prop @ rho0 @ prop.conj().T).real

        self.assert_same_run(classes, per_state, survival)
        assert classes.survival_evaluations <= per_state.survival_evaluations

    def test_a_rank_two_operator_keeps_the_per_state_rounds(self, built):
        model, weights, rho0 = class_case("rank two")
        est = mc_estimate(model, weights, rho0, [0.5, 0.5], 10.0, 20, master_seed=210)
        assert est.jump_events > 0
        assert built == []

    def test_starts_only_change_the_cost(self, built, monkeypatch):
        tabled = self.estimate("maser", 211)
        points = trajectories.SURVIVAL_POINTS
        monkeypatch.setattr(trajectories, "SURVIVAL_POINTS", 2)
        coarse = self.estimate("maser", 211)
        assert [len(t.grid) for t in built] == [points, 2]
        self.assert_same_run(tabled, coarse)
        assert tabled.survival_evaluations < coarse.survival_evaluations


class TestWaitingTimeReference:
    """The eigen-coordinate engine reproduces a physical-basis stepper."""

    def cases(self):
        model, weights, rho0 = qubit_setup(nbar=1.0, gamma=0.8)
        yield model, weights, rho0, 12.0
        # a silent channel and dense random operators: H_eff is far from
        # normal, so its eigenvectors are far from orthonormal
        rng = np.random.default_rng(125)
        silent = random_model(rng, dim=3, n_channels=2, scale=0.5, silent=1)
        nu = CountingWeights(silent.channels, rng.normal(size=(2, 2)))
        yield silent, nu, random_density(rng, 3), 6.0
        params = MaserParams(nl=1.0, nr=2.0, gl=0.5, gr=0.5, lam=1.0, delta=0.0, wl=8.0, wr=2.0)
        yield maser_model(params), work_weights(params), np.eye(3, dtype=complex) / 3, 12.0

    def test_engine_matches_plain_waiting_time_reference(self):
        for model, weights, rho0, horizon in self.cases():
            fired = []
            for i in range(3):
                k0 = i % model.n_channels
                rec = sample_trajectory(
                    model, weights, rho0, model.channels[k0], horizon,
                    rng=trajectory_stream(126, i), burn_in=1.0,
                )
                times, channels, before, final, charge = waiting_time_reference(
                    model, weights, rho0, k0, trajectory_stream(126, i), horizon, 1.0
                )
                assert len(times) > 5
                npt.assert_array_equal(rec.jump_channels, channels)
                npt.assert_array_equal(rec.memory_before, before)
                npt.assert_allclose(rec.jump_times, times, rtol=0, atol=1e-10)
                npt.assert_allclose(rec.final_state, final, rtol=0, atol=1e-10)
                assert rec.charge == charge
                fired.extend(channels)
            if model.silent_labels:
                assert max(fired) >= model.n_channels
                loss = loss_matrices(model.jump_ops, model.silent_ops)
                v = np.linalg.eig(model.hamiltonians[0] - 0.5j * loss[0])[1]
                assert np.abs(v.conj().T @ v - np.eye(model.dim)).max() > 0.1


class TestSurvivalEvaluations:
    # the maser takes the class tables, the rank-two model one row per trajectory
    @pytest.mark.parametrize("name", ["maser", "rank two"])
    def test_counted_per_jump_and_reproducible(self, name):
        if name == "maser":
            model, weights = maser_model(BENCH_MASER), work_weights(BENCH_MASER)
            rho0 = np.eye(3, dtype=complex) / 3
        else:
            model, weights, rho0 = class_case(name)
        assert rank_one_jumps(model) == (name == "maser")
        mem0 = {c: 1.0 / model.n_channels for c in model.channels}
        a, b = (
            mc_estimate(model, weights, rho0, mem0, 10.0, 50, master_seed=127) for _ in range(2)
        )
        assert a.survival_evaluations == b.survival_evaluations
        assert a.rounds == b.rounds > 0
        assert a.jump_events > 0
        assert 1 <= a.survival_evaluations / a.jump_events <= MAX_ROOT_ITERATIONS
        fixed = mc_estimate(
            model, weights, rho0, mem0, 1.0, 10, scheme="fixed-step", dt=0.01, master_seed=127
        )
        assert fixed.survival_evaluations == 0
        assert fixed.rounds >= 100 / LOOKAHEAD

    @pytest.mark.parametrize("seed", [129, 130])
    def test_halley_search_stays_cheap_on_the_benchmark_batch(self, monkeypatch, seed):
        # the maser batch of the Monte Carlo benchmark workload
        params = MaserParams(nl=1.0, nr=2.0, gl=0.5, gr=0.5, lam=1.0, delta=0.0, wl=8.0, wr=2.0)
        model, weights = maser_model(params), work_weights(params)
        per_root = []

        def counted(*args, **kwargs):
            t = _jump_time(*args, **kwargs)
            per_root.append(kwargs.get("evaluations", args[-1]).copy())
            return t

        monkeypatch.setattr(trajectories, "_jump_time", counted)
        est = mc_estimate(
            model, weights, np.eye(3, dtype=complex) / 3, {c: 0.25 for c in model.channels},
            20.0, 400, master_seed=seed, burn_in=5.0,
        )
        assert est.survival_evaluations <= 3.0 * est.jump_events
        per_root = np.concatenate(per_root)
        assert len(per_root) == est.jump_events
        assert per_root.max() <= 2


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        model, weights, rho0 = qubit_setup()
        kwargs = dict(horizon=8.0, n_traj=64, master_seed=106)
        a = mc_estimate(model, weights, rho0, [1.0, 0.0], **kwargs)
        b = mc_estimate(model, weights, rho0, [1.0, 0.0], **kwargs)
        assert a.mean_charge == b.mean_charge
        assert a.var_charge == b.var_charge
        npt.assert_array_equal(a.memory_freq, b.memory_freq)

    def test_different_seed_differs(self):
        model, weights, rho0 = qubit_setup()
        a = mc_estimate(model, weights, rho0, [1.0, 0.0], 8.0, 64, master_seed=1)
        b = mc_estimate(model, weights, rho0, [1.0, 0.0], 8.0, 64, master_seed=2)
        assert a.mean_charge != b.mean_charge

    def test_batch_size_never_changes_a_trajectory(self):
        model, weights, rho0 = qubit_setup()
        for scheme, dt in [("waiting-time", None), ("fixed-step", 0.1)]:
            small = mc_estimate(
                model, weights, rho0, [0.5, 0.5], 6.0, 5,
                scheme=scheme, master_seed=107, dt=dt, collect_records=True,
            )
            large = mc_estimate(
                model, weights, rho0, [0.5, 0.5], 6.0, 17,
                scheme=scheme, master_seed=107, dt=dt, collect_records=True,
            )
            for ra, rb in zip(small.records, large.records):
                npt.assert_array_equal(ra.jump_times, rb.jump_times)
                npt.assert_array_equal(ra.jump_channels, rb.jump_channels)
                npt.assert_array_equal(ra.final_state, rb.final_state)
                assert ra.charge == rb.charge
                assert ra.final_memory == rb.final_memory

    def test_single_replay_of_batch_member(self):
        model, weights, rho0 = qubit_setup()
        for scheme, dt in [("waiting-time", None), ("fixed-step", 0.1)]:
            est = mc_estimate(
                model, weights, rho0, [0.5, 0.5], 6.0, 4,
                scheme=scheme, master_seed=108, dt=dt, collect_records=True,
            )
            for i, rec in enumerate(est.records):
                stream = trajectory_stream(108, i)
                stream.random()  # the batch spends this on the initial memory
                solo = sample_trajectory(
                    model,
                    weights,
                    rho0,
                    model.channels[rec.initial_memory],
                    6.0,
                    scheme=scheme,
                    rng=stream,
                    dt=dt,
                )
                npt.assert_array_equal(solo.jump_times, rec.jump_times)
                npt.assert_array_equal(solo.jump_channels, rec.jump_channels)
                npt.assert_array_equal(solo.memory_before, rec.memory_before)
                npt.assert_array_equal(solo.final_state, rec.final_state)
                assert solo.charge == rec.charge


    def test_batch_size_and_replay_past_a_uniform_block(self):
        # both horizons use more than UNIFORM_BLOCK uniforms per trajectory
        model, weights, rho0 = qubit_setup(nbar=1.0, gamma=0.8)
        for scheme, dt, horizon in [("waiting-time", None, 600.0), ("fixed-step", 0.02, 22.0)]:
            small, large = (
                mc_estimate(
                    model, weights, rho0, [0.5, 0.5], horizon, n,
                    scheme=scheme, master_seed=109, dt=dt, collect_records=True,
                )
                for n in (3, 9)
            )
            # two uniforms per waiting-time jump, one per fixed step
            used = 2 * max(len(r.jump_times) for r in small.records) if dt is None else round(horizon / dt)
            assert used > 1024
            for i, (ra, rb) in enumerate(zip(small.records, large.records)):
                stream = trajectory_stream(109, i)
                stream.random()  # the batch spends this on the initial memory
                solo = sample_trajectory(
                    model, weights, rho0, model.channels[ra.initial_memory], horizon,
                    scheme=scheme, rng=stream, dt=dt,
                )
                for rec in (rb, solo):
                    npt.assert_array_equal(ra.jump_times, rec.jump_times)
                    npt.assert_array_equal(ra.jump_channels, rec.jump_channels)
                    npt.assert_array_equal(ra.final_state, rec.final_state)
                    assert ra.charge == rec.charge
                    assert ra.final_memory == rec.final_memory

    def test_thread_count_never_changes_a_batch(self):
        code = (
            "import hashlib, numpy as np, jumpfeedback as jf\n"
            "p = jf.MaserParams(nl=1.0, nr=2.0, gl=0.5, gr=0.5, lam=1.0, delta=0.0, wl=8.0, wr=2.0)\n"
            "model, w = jf.maser_model(p), jf.work_weights(p)\n"
            "mem0 = {c: 0.25 for c in model.channels}\n"
            "h = hashlib.sha256()\n"
            "for scheme, horizon, dt in (('waiting-time', 8.0, None), ('fixed-step', 4.0, 0.01)):\n"
            "    est = jf.mc_estimate(model, w, np.eye(3) / 3, mem0, horizon, 800, scheme=scheme,\n"
            "                         master_seed=124, dt=dt, collect_records=True)\n"
            "    for r in est.records:\n"
            "        for a in (r.jump_times, r.jump_channels, r.final_state, r.charge):\n"
            "            h.update(np.ascontiguousarray(a).tobytes())\n"
            "print(h.hexdigest())\n"
        )
        digests = set()
        for threads in ("1", "2"):
            env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
            env["JUMPFEEDBACK_THREADS"] = threads
            out = subprocess.run(
                [sys.executable, "-c", code], env=child_env(env), capture_output=True, text=True, check=True
            )
            digests.add(out.stdout.strip())
        assert len(digests) == 1


class TestRecordBookkeeping:
    def test_charge_recomputation_matches_engine(self):
        rng = np.random.default_rng(110)
        model, _, rho0 = qubit_setup()
        nu = rng.normal(size=(2, 2))
        weights = CountingWeights(model.channels, nu)
        rec = sample_trajectory(model, weights, rho0, "-1", 20.0, rng=111, burn_in=3.0)
        assert charge_from_record(rec, weights) == rec.charge
        row = CountingWeights.from_channel_weights(model.channels, [1.0, -2.0])
        rec2 = sample_trajectory(model, row, rho0, "-1", 20.0, rng=111, burn_in=3.0)
        assert charge_from_record(rec2, row, mode="channel") == rec2.charge

    def test_burn_in_discards_early_charge_only(self):
        model, weights, rho0 = qubit_setup()
        full = sample_trajectory(model, weights, rho0, "-1", 15.0, rng=112)
        trimmed = sample_trajectory(model, weights, rho0, "-1", 15.0, rng=112, burn_in=5.0)
        npt.assert_array_equal(full.jump_times, trimmed.jump_times)
        npt.assert_array_equal(full.jump_channels, trimmed.jump_channels)
        late = full.jump_times >= 5.0
        assert trimmed.charge == float(late.sum())
        assert full.charge == float(len(full.jump_times))

    def test_memory_path_tracks_monitored_jumps(self):
        model, weights, rho0 = qubit_setup(nbar=1.0, gamma=0.8)
        rec = sample_trajectory(model, weights, rho0, "-1", 10.0, rng=113)
        assert len(rec.jump_times) > 3
        eps = 1e-9
        assert rec.memory_path(0.0)[0] == rec.initial_memory
        for j, tj in enumerate(rec.jump_times):
            assert rec.memory_path(tj - eps)[0] == rec.memory_before[j]
            assert rec.memory_path(tj + eps)[0] == rec.jump_channels[j]
        assert rec.memory_path(10.0)[0] == rec.final_memory


class TestSilentChannels:
    def setup_model(self):
        # one monitored emitter plus one silent channel of twice the rate
        from jumpfeedback import feedback_model

        ga, gs = 0.6, 1.2
        model = feedback_model(
            dim=1,
            channels=["a"],
            hamiltonians=np.zeros((1, 1)),
            jump_ops={"a": np.sqrt(ga) * np.eye(1)},
            silent_ops={"s": np.sqrt(gs) * np.eye(1)},
        )
        return model, ga, gs

    def test_silent_jumps_recorded_but_uncounted(self):
        model, ga, gs = self.setup_model()
        weights = CountingWeights.activity(model.channels)
        est = mc_estimate(
            model, weights, np.eye(1, dtype=complex), [1.0],
            horizon=25.0, n_traj=600, master_seed=115, collect_records=True,
        )
        n_mon = sum((r.jump_channels == 0).sum() for r in est.records)
        n_sil = sum((r.jump_channels == 1).sum() for r in est.records)
        assert n_sil > 0
        # charge counts only the monitored channel
        assert est.mean_charge == n_mon / 600.0
        # silent events fire at twice the monitored rate
        ratio = n_sil / n_mon
        assert abs(ratio - gs / ga) < 0.15
        # memory never leaves the single monitored value
        for r in est.records:
            assert r.final_memory == 0
            assert np.all(r.memory_path(np.linspace(0, 25.0, 7)) == 0)

    def test_labels_list_silent_channels_after_monitored(self):
        model, _, _ = self.setup_model()
        weights = CountingWeights.activity(model.channels)
        rec = sample_trajectory(model, weights, np.eye(1, dtype=complex), "a", 5.0, rng=116)
        assert rec.labels == ("a", "s")
        assert rec.n_monitored == 1


class TestValidation:
    @pytest.mark.parametrize(
        "weight, message", [(1e300, "mean_charge_se is inf"), (1e80, "var_charge_se is nan")]
    )
    def test_summary_that_overflows_raises(self, weight, message):
        # at 1e80 the variance is finite (3.3e159) but its fourth moment overflows
        model = maser_model(MaserParams(nl=1.0, nr=2.0, gl=0.5, gr=0.5, wl=8.0, wr=2.0))
        weights = CountingWeights.from_channel_weights(model.channels, {"E_l": weight})
        rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValidationError, match=f"^{message}: "):
            mc_estimate(model, weights, rho0, {"E_l": 1.0}, 2.0, 4, master_seed=0)
        # the same run at weight 1 has finite summaries and passes
        weights = CountingWeights.from_channel_weights(model.channels, {"E_l": 1.0})
        est = mc_estimate(model, weights, rho0, {"E_l": 1.0}, 2.0, 4, master_seed=0)
        assert (est.mean_charge, est.var_charge) == (0.5, 1.0 / 3.0)

    def test_rejects_bad_horizon_and_burn_in(self):
        model, weights, rho0 = qubit_setup()
        with pytest.raises(ValidationError, match="horizon"):
            mc_estimate(model, weights, rho0, [1.0, 0.0], 0.0, 4)
        with pytest.raises(ValidationError, match="burn_in"):
            mc_estimate(model, weights, rho0, [1.0, 0.0], 5.0, 4, burn_in=5.0)

    @pytest.mark.parametrize(
        "horizon, message",
        [(np.inf, "horizon must be finite"), (np.nan, "horizon must be finite"),
         (-np.inf, "horizon must be positive")],
    )
    @pytest.mark.parametrize("scheme, dt", [("waiting-time", None), ("fixed-step", 0.01)])
    def test_rejects_a_horizon_that_is_not_finite(self, horizon, message, scheme, dt):
        model, weights, rho0 = qubit_setup()
        with pytest.raises(ValidationError, match=f"^{message}$"):
            mc_estimate(model, weights, rho0, [1.0, 0.0], horizon, 2, scheme=scheme, dt=dt)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            sample_trajectory(model, weights, rho0, "-1", horizon, scheme=scheme, rng=3, dt=dt)

    @pytest.mark.parametrize(
        "dt, message",
        [(np.nan, "dt must be finite"), (np.inf, "dt must be finite"),
         (0.0, "dt must be positive"), (-0.01, "dt must be positive")],
    )
    def test_rejects_a_step_that_is_not_finite(self, dt, message):
        model, weights, rho0 = qubit_setup()
        with pytest.raises(ValidationError, match=f"^{message}$"):
            check_run(model, 2, 5.0, "fixed-step", dt)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            mc_estimate(model, weights, rho0, [1.0, 0.0], 5.0, 2, scheme="fixed-step", dt=dt)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            sample_trajectory(model, weights, rho0, "-1", 5.0, scheme="fixed-step", rng=3, dt=dt)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"n_traj": 2**32 + 1}, "n_traj must be at most 2\\*\\*32"),
            ({"horizon": -1.0}, "horizon must be positive"),
            ({"burn_in": 5.0}, "burn_in must lie in"),
            ({"scheme": "euler"}, "unknown scheme"),
            ({"scheme": "fixed-step", "dt": np.nan}, "dt must be finite"),
            ({"scheme": "fixed-step", "dt": 1.0}, "exceeds"),
            ({"scheme": "fixed-step", "dt": 0.13}, "integer number of steps"),
            ({"rho0": 2.0 * np.eye(2)}, "initial state is not unit trace"),
            ({"weights": CountingWeights.activity(("x", "y"))}, "weights channels"),
        ],
        ids=["n_traj", "horizon", "burn_in", "scheme", "dt", "rate", "whole_steps", "rho0", "weights"],
    )
    def test_more_trajectories_than_stream_indices_rejected_before_any_work(
        self, monkeypatch, change, message
    ):
        # not only n_traj: every setting, rho0 and the weights fail before a
        # stream key is derived or a buffer allocated (the fixed-step uniform
        # buffer of 20000 trajectories alone is 170 MB)
        def no_keys(*args):
            raise AssertionError("keys derived")

        monkeypatch.setattr(trajectories, "_philox_keys", no_keys)
        model, weights, rho0 = qubit_setup()
        run = dict(weights=weights, rho0=rho0, horizon=5.0, n_traj=20000, scheme="waiting-time")
        run.update(change)
        with pytest.raises(ValidationError, match=message):
            mc_estimate(model, memory0=[1.0, 0.0], **run)

    def test_rejects_bad_memory0(self):
        model, weights, rho0 = qubit_setup()
        with pytest.raises(ValidationError, match="unknown"):
            mc_estimate(model, weights, rho0, {"zz": 1.0}, 5.0, 4)
        with pytest.raises(ValidationError, match="probability"):
            mc_estimate(model, weights, rho0, [0.4, 0.4], 5.0, 4)

    @pytest.mark.parametrize(
        "rho0, memory0, message",
        [
            (np.array([[1.0, np.nan], [np.nan, 0.0]]), [1.0, 0.0],
             "initial state has non-finite entries"),
            (np.diag([1.0, 0.0]), [np.nan, 1.0], "memory0 is not a probability distribution"),
        ],
        ids=["nan_state", "nan_memory"],
    )
    def test_rejects_nan_inputs(self, rho0, memory0, message):
        model, weights, _ = qubit_setup()
        with pytest.raises(ValidationError, match=message):
            mc_estimate(model, weights, rho0, memory0, 5.0, 8)

    def test_memory0_of_a_wrong_shape_is_a_dimension_error(self):
        # the one error of every label table, embed's memory_dist included
        model, weights, rho0 = qubit_setup()
        with pytest.raises(DimensionError, match="memory0 has shape"):
            mc_estimate(model, weights, rho0, [1.0], 5.0, 4)

    def test_a_step_count_that_overflows_is_not_whole(self):
        assert whole_steps(1e300, 1e-300) is None
        assert whole_steps(5.0, 0.01) == 500

    def test_whole_steps_is_relative_to_a_tiny_horizon(self):
        # an absolute tolerance of 1e-9 once made 1.5 steps of 1e-9 two
        # steps, recording jumps at t = 2e-9 past the horizon, and half a
        # step zero steps
        assert whole_steps(1.5e-9, 1e-9) is None
        assert whole_steps(5e-10, 1e-9) is None
        assert whole_steps(3e-9, 1e-9) == 3
        model = qubit_cooling_model(QubitParams(nbar=0.0, gamma=4e7))
        weights = CountingWeights.activity(model.channels)
        excited = np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(ValidationError, match="integer number of steps"):
            mc_estimate(
                model, weights, excited, [1.0, 0.0], 1.5e-9, 2000, scheme="fixed-step", dt=1e-9
            )
        rec = mc_estimate(
            model, weights, excited, [1.0, 0.0], 2e-9, 200, scheme="fixed-step", dt=1e-9,
            collect_records=True,
        ).records
        times = np.concatenate([r.jump_times for r in rec])
        assert times.size and times.max() <= 2e-9

    def test_rejects_bad_initial_state(self):
        model, weights, _ = qubit_setup()
        with pytest.raises(ValidationError, match="trace"):
            mc_estimate(model, weights, 2.0 * np.eye(2), [1.0, 0.0], 5.0, 4)

    def test_fixed_step_needs_a_small_commensurate_dt(self):
        model, weights, rho0 = qubit_setup()
        with pytest.raises(ValidationError, match="dt"):
            mc_estimate(model, weights, rho0, [1.0, 0.0], 5.0, 4, scheme="fixed-step")
        with pytest.raises(ValidationError, match="exceeds"):
            mc_estimate(
                model, weights, rho0, [1.0, 0.0], 5.0, 4,
                scheme="fixed-step", dt=1.0,
            )
        with pytest.raises(ValidationError, match="integer"):
            mc_estimate(
                model, weights, rho0, [1.0, 0.0], 5.0, 4,
                scheme="fixed-step", dt=0.13,
            )

    def test_rejects_unknown_scheme(self):
        model, weights, rho0 = qubit_setup()
        with pytest.raises(ValidationError, match="scheme"):
            mc_estimate(model, weights, rho0, [1.0, 0.0], 5.0, 4, scheme="euler")

    def test_near_defective_propagator_advises_fixed_step(self):
        # a cascaded five-level chain tuned so H_eff is one Jordan block;
        # its eigenvector basis is numerically unusable
        d = 5
        shift = np.diag(np.ones(d - 1), 1)
        h = 0.5 * (shift + shift.conj().T)
        anti = 1j * (shift - shift.conj().T)
        w = anti + (np.abs(np.linalg.eigvalsh(anti)).max() + 0.5) * np.eye(d)
        l = scipy.linalg.sqrtm(w)
        model = no_feedback(h, [l], labels=["a"])
        weights = CountingWeights.activity(model.channels)
        rho0 = np.eye(d, dtype=complex) / d
        with pytest.raises(ValidationError, match="fixed-step"):
            sample_trajectory(model, weights, rho0, "a", 1.0, rng=117)
        # the same model still runs under the fixed-step scheme
        rec = sample_trajectory(
            model, weights, rho0, "a", 1.0, scheme="fixed-step", dt=0.01, rng=117
        )
        assert rec.horizon == 1.0
