"""Hybrid system-memory states and the extended-space construction."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest

from jumpfeedback import hybrid
from jumpfeedback import (
    CountingWeights,
    average_current,
    DegenerateSteadyStateError,
    HybridState,
    MaserParams,
    ValidationError,
    embed,
    extended_liouvillian,
    feedback_model,
    feedback_steady_state,
    maser_model,
    marginals,
    power_spectrum,
    steady_noise,
    unvec,
    validate_hybrid_state,
    vec,
)
from jumpfeedback.dynamics import stationary_blocks
from jumpfeedback.fcs import stationarity_residuals, stationary_noises, weighted_jump_rates
from jumpfeedback.hybrid import generator_stack

from helpers import (
    dense_gain,
    dense_oracle,
    extended_jumps,
    extended_silent_jumps,
    from_matrix,
    random_density,
    random_model,
    to_matrix,
)


class TestHybridState:
    def test_matrix_roundtrip_and_block_placement(self):
        rng = np.random.default_rng(30)
        blocks = np.stack([0.3 * random_density(rng, 2), 0.7 * random_density(rng, 2)])
        state = HybridState(labels=("a", "b"), blocks=blocks)
        full = to_matrix(state)
        assert full.shape == (4, 4)
        npt.assert_array_equal(full[:2, :2], blocks[0])
        npt.assert_array_equal(full[2:, 2:], blocks[1])
        npt.assert_array_equal(full[:2, 2:], np.zeros((2, 2)))
        back = from_matrix(("a", "b"), full)
        npt.assert_array_equal(back.blocks, blocks)

    def test_from_matrix_flags_offblock_leak(self):
        full = np.zeros((4, 4), dtype=complex)
        full[0, 0] = full[2, 2] = 0.5
        full[0, 3] = 1e-3
        with pytest.raises(ValidationError, match="off-diagonal"):
            from_matrix(("a", "b"), full)
        # the check is optional
        from_matrix(("a", "b"), full, offblock_tol=None)

    def test_memory_dist_is_block_trace(self):
        rng = np.random.default_rng(31)
        blocks = np.stack([0.2 * random_density(rng, 3), 0.8 * random_density(rng, 3)])
        state = HybridState(labels=("x", "y"), blocks=blocks)
        npt.assert_allclose(state.memory_dist, [0.2, 0.8], atol=1e-12)


class TestEmbedMarginals:
    def test_roundtrip(self):
        rng = np.random.default_rng(32)
        conds = {"a": random_density(rng, 2), "b": random_density(rng, 2)}
        state = embed(("a", "b"), {"a": 0.4, "b": 0.6}, conds)
        system, dist, back = marginals(state)
        npt.assert_allclose(dist, [0.4, 0.6], atol=1e-12)
        npt.assert_allclose(back["a"], conds["a"], atol=1e-12)
        npt.assert_allclose(back["b"], conds["b"], atol=1e-12)
        npt.assert_allclose(system, 0.4 * conds["a"] + 0.6 * conds["b"], atol=1e-12)

    def test_zero_weight_label_may_omit_conditional(self):
        rng = np.random.default_rng(33)
        state = embed(("a", "b"), {"a": 1.0}, {"a": random_density(rng, 2)})
        npt.assert_allclose(state.memory_dist, [1.0, 0.0], atol=1e-12)
        _, _, conds = marginals(state)
        assert set(conds) == {"a"}

    def test_shared_conditional_broadcasts(self):
        rng = np.random.default_rng(34)
        rho = random_density(rng, 2)
        state = embed(("a", "b"), [0.5, 0.5], rho)
        npt.assert_allclose(state.blocks[0], 0.5 * rho, atol=1e-12)
        npt.assert_allclose(state.blocks[1], 0.5 * rho, atol=1e-12)

    def test_rejects_bad_distribution(self):
        rng = np.random.default_rng(35)
        rho = random_density(rng, 2)
        with pytest.raises(ValidationError, match="sum"):
            embed(("a", "b"), {"a": 0.4, "b": 0.3}, rho)
        with pytest.raises(ValidationError, match="unknown"):
            embed(("a",), {"zz": 1.0}, rho)

    def test_rejects_nonnormalized_conditional(self):
        with pytest.raises(ValidationError, match="unit trace"):
            embed(("a",), {"a": 1.0}, {"a": np.eye(2, dtype=complex)})

    def test_validate_flags_negative_block(self):
        from jumpfeedback import PositivityError

        blocks = np.stack([np.diag([1.5, -0.5]).astype(complex)])
        with pytest.raises(PositivityError):
            validate_hybrid_state(HybridState(labels=("a",), blocks=blocks))


class TestExtendedConstruction:
    def test_jump_operator_layout(self):
        rng = np.random.default_rng(36)
        model = random_model(rng, dim=2, n_channels=3)
        ops = extended_jumps(model)
        m, d = 3, 2
        assert ops.shape == (m * m, m * d, m * d)
        # entry k*m + q moves block q to block k with L_k(q)
        for k in range(m):
            for q in range(m):
                op = ops[k * m + q]
                npt.assert_array_equal(
                    op[k * d : (k + 1) * d, q * d : (q + 1) * d], model.jump_ops[k, q]
                )
                mask = op.copy()
                mask[k * d : (k + 1) * d, q * d : (q + 1) * d] = 0.0
                assert np.abs(mask).max() == 0.0

    def test_silent_ops_keep_memory(self):
        rng = np.random.default_rng(37)
        model = random_model(rng, dim=2, n_channels=2, silent=1)
        ops = extended_silent_jumps(model)
        assert ops.shape == (2, 4, 4)
        for q in range(2):
            op = ops[q]
            npt.assert_array_equal(
                op[q * 2 : (q + 1) * 2, q * 2 : (q + 1) * 2], model.silent_ops[0, q]
            )

    def test_generator_preserves_block_diagonality(self):
        rng = np.random.default_rng(38)
        model = random_model(rng, dim=2, n_channels=2, silent=1)
        blocks = np.stack([0.5 * random_density(rng, 2), 0.5 * random_density(rng, 2)])
        state = HybridState(labels=model.channels, blocks=blocks)
        moved = dense_oracle(model)(to_matrix(state))
        # off-diagonal memory blocks stay exactly zero
        from_matrix(model.channels, moved, offblock_tol=1e-14)

    def test_blockwise_rhs_matches_extended_action(self):
        rng = np.random.default_rng(39)
        for silent in (0, 2):
            model = random_model(rng, dim=3, n_channels=2, silent=silent)
            ext = extended_liouvillian(model)
            blocks = np.stack(
                [0.25 * random_density(rng, 3), 0.75 * random_density(rng, 3)]
            )
            state = HybridState(labels=model.channels, blocks=blocks)
            via_dense = from_matrix(
                model.channels, dense_oracle(model)(to_matrix(state)), offblock_tol=None
            )
            npt.assert_allclose(
                ext.state(ext.matrix @ ext.vector(state)).blocks, via_dense.blocks, atol=1e-12
            )

    def test_layout_roundtrip_and_trace_row(self):
        rng = np.random.default_rng(41)
        model = random_model(rng, dim=3, n_channels=2)
        ext = extended_liouvillian(model)
        state = embed(model.channels, [0.3, 0.7], random_density(rng, 3))
        v = ext.vector(state)
        assert v.shape == (2 * 9,)
        npt.assert_array_equal(ext.state(v).blocks, state.blocks)
        assert abs(ext.trace_row @ v - 1.0) < 1e-14
        # the generator preserves the total trace
        assert np.abs(ext.trace_row @ ext.matrix).max() < 1e-12

    def test_gain_matrix_matches_dense_weighted_jumps(self):
        rng = np.random.default_rng(42)
        model = random_model(rng, dim=2, n_channels=3, silent=1)
        ext = extended_liouvillian(model)
        nu = rng.normal(size=(3, 3))
        blocks = np.stack([random_density(rng, 2) / 3 for _ in range(3)])
        state = HybridState(labels=model.channels, blocks=blocks)
        via_dense = from_matrix(
            model.channels,
            unvec(dense_gain(model, nu) @ vec(to_matrix(state)), 6),
        )
        npt.assert_allclose(
            ext.state(ext.gain_matrix(nu) @ ext.vector(state)).blocks,
            via_dense.blocks,
            atol=1e-12,
        )


class TestStationaryLU:
    def test_one_factorization_serves_state_noise_and_zero_frequency(self, monkeypatch):
        rng = np.random.default_rng(43)
        model = random_model(rng, dim=2, n_channels=2, silent=1)
        ext = extended_liouvillian(model)
        weights = CountingWeights.from_channel_weights(model.channels, [1.0, -0.5])
        calls = []
        inv = np.linalg.inv

        def counting(a):
            calls.append(a.shape)
            return inv(a)

        # the stacked factorization inverts every bordered generator at once
        monkeypatch.setattr(hybrid.np.linalg, "inv", counting)
        state = feedback_steady_state(model, ext=ext)
        noise = steady_noise(ext, weights)
        spec = power_spectrum(ext, weights, [0.0], state=state)
        assert calls == [(1, 4 * 2 + 1, 4 * 2 + 1)]
        assert abs(spec.values[0] - noise) < 1e-10 * max(1.0, abs(noise))

    def test_disconnected_memory_sectors_raise_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateSteadyStateError, match="not one-dimensional"):
                feedback_steady_state(disconnected_model())

    def test_slow_maser_is_accepted(self):
        # bath rates of 1e-7 against a unit drive: slow, but one stationary state
        params = MaserParams(nl=0.3, nr=8.0, gl=1e-7, gr=1e-7, wl=8.0, wr=2.0)
        for feedback in (True, False):
            model = maser_model(params, feedback=feedback)
            ext = extended_liouvillian(model)
            state = feedback_steady_state(model, ext=ext)
            v = ext.vector(state)
            assert abs(ext.trace_row @ v - 1.0) < 1e-12
            assert np.linalg.norm(ext.matrix @ v) < 1e-12 * np.abs(ext.matrix).max()
            assert np.linalg.eigvalsh(state.blocks).min() > -1e-10


def disconnected_model():
    """Each memory value only resets itself: two independent stationary states."""
    sm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    return feedback_model(
        dim=2,
        channels=["a", "b"],
        hamiltonians=np.zeros((2, 2)),
        jump_ops={"a": {"a": sm}, "b": {"b": sm}},
    )


def stack_tensors(models):
    """The tensors of ``models`` stacked on a leading axis, as generator_stack takes them."""
    return [np.stack([getattr(m, a) for m in models]) for a in ("hamiltonians", "jump_ops", "silent_ops")]


class TestGeneratorStack:
    """The stacked kernels equal a loop of single-model calls."""

    @staticmethod
    def assert_close(got, want):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("silent", [0, 2])
    def test_stack_equals_single_model_calls(self, silent):
        rng = np.random.default_rng(44 + silent)
        models = [random_model(rng, dim=2, n_channels=3, silent=silent) for _ in range(4)]
        nu = rng.normal(size=(4, 3, 3))
        stack = generator_stack(*stack_tensors(models))
        blocks = stationary_blocks(stack)
        current = weighted_jump_rates(stack, nu, blocks, "average current")
        noise = stationary_noises(stack, nu, blocks)
        assert stationarity_residuals(stack, blocks).max() < 1e-12
        for i, model in enumerate(models):
            ext = extended_liouvillian(model)
            weights = CountingWeights(model.channels, nu[i])
            state = feedback_steady_state(model, ext=ext)
            self.assert_close(stack.matrices[i], ext.matrix)
            self.assert_close(stack.stationary.rcond[i], ext.stationary.rcond[0])
            self.assert_close(blocks[i], state.blocks)
            self.assert_close(current[i], average_current(ext, weights, state))
            self.assert_close(noise[i], steady_noise(ext, weights, state=state))

    def test_degenerate_member_raises_the_single_model_error(self):
        sm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        connected = feedback_model(
            dim=2,
            channels=["a", "b"],
            hamiltonians=np.array([[0.0, 1.0], [1.0, 0.0]]),
            jump_ops={"a": sm, "b": sm.T},
        )
        with pytest.raises(DegenerateSteadyStateError) as single:
            feedback_steady_state(disconnected_model())
        stack = generator_stack(*stack_tensors([connected, disconnected_model(), connected]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateSteadyStateError) as stacked:
                stationary_blocks(stack)
        assert str(stacked.value) == str(single.value)
        # the members around it solve on their own
        assert np.isfinite(stationary_blocks(generator_stack(*stack_tensors([connected, connected])))).all()
