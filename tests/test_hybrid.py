"""Hybrid system-memory states and the extended-space construction."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest

import jumpfeedback
from jumpfeedback import dynamics, hybrid
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
    no_feedback,
    power_spectrum,
    spectral_gap,
    steady_noise,
    two_point_correlation,
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

    @pytest.mark.parametrize(
        "conditionals", [1.0, {"a": 1.0}, np.float64(2)], ids=["float", "mapping", "numpy_scalar"]
    )
    def test_scalar_conditional_is_a_dimension_error(self, conditionals):
        from jumpfeedback import DimensionError

        with pytest.raises(DimensionError, match=r"conditionals entry 'a' has shape \(\)"):
            embed(("a", "b"), [0.5, 0.5], conditionals)

    def test_rejects_nonnormalized_conditional(self):
        with pytest.raises(ValidationError, match="unit trace"):
            embed(("a",), {"a": 1.0}, {"a": np.eye(2, dtype=complex)})

    def test_validate_flags_negative_block(self):
        from jumpfeedback import PositivityError

        blocks = np.stack([np.diag([1.5, -0.5]).astype(complex)])
        with pytest.raises(PositivityError):
            validate_hybrid_state(HybridState(labels=("a",), blocks=blocks))

    def test_validate_flags_non_finite_block(self):
        from jumpfeedback import PositivityError

        blocks = np.stack([np.diag([1.0, np.nan]).astype(complex)])
        with pytest.raises(PositivityError, match="hybrid state has non-finite entries"):
            validate_hybrid_state(HybridState(labels=("a",), blocks=blocks))

    @pytest.mark.parametrize(
        "memory_dist, conditionals, message",
        [
            ([1.0, 0.0], np.array([[1.0, np.nan], [np.nan, 0.0]]),
             "conditional for 'a' has non-finite entries"),
            ([np.nan, 1.0], np.diag([1.0, 0.0]), "not a probability distribution"),
            # a negative probability fails however small
            ([-1e-11, 1.0 + 1e-11], np.diag([1.0, 0.0]), "not a probability distribution"),
        ],
        ids=["nan_conditional", "nan_probability", "negative_probability"],
    )
    def test_rejects_nan_and_negative_inputs(self, memory_dist, conditionals, message):
        with pytest.raises(ValidationError, match=message):
            embed(("a", "b"), memory_dist, conditionals)


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
            moved = ext.matrices[0] @ ext.vectors(state.blocks[None])[0]
            npt.assert_allclose(
                HybridState(ext.channels, ext.blocks(moved)[0]).blocks, via_dense.blocks, atol=1e-12
            )

    def test_layout_roundtrip_and_trace_row(self):
        rng = np.random.default_rng(41)
        model = random_model(rng, dim=3, n_channels=2)
        ext = extended_liouvillian(model)
        state = embed(model.channels, [0.3, 0.7], random_density(rng, 3))
        v = ext.vectors(state.blocks[None])[0]
        assert v.shape == (2 * 9,)
        npt.assert_array_equal(HybridState(ext.channels, ext.blocks(v)[0]).blocks, state.blocks)
        assert abs(ext.trace_row @ v - 1.0) < 1e-14
        # the generator preserves the total trace
        assert np.abs(ext.trace_row @ ext.matrices[0]).max() < 1e-12

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
        gained = ext.gain_matrices(nu)[0] @ ext.vectors(state.blocks[None])[0]
        npt.assert_allclose(
            HybridState(ext.channels, ext.blocks(gained)[0]).blocks,
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
        getrf = hybrid.lapack.zgetrf

        def counting(a, **kwargs):
            calls.append(a.shape)
            return getrf(a, **kwargs)

        # the stacked factorization inverts each bordered generator once
        monkeypatch.setattr(hybrid.lapack, "zgetrf", counting)
        state = feedback_steady_state(model, ext=ext)
        noise = steady_noise(ext, weights)
        spec = power_spectrum(ext, weights, [0.0], state=state)
        assert calls == [(4 * 2 + 1, 4 * 2 + 1)]
        assert abs(spec.values[0] - noise) < 1e-10 * max(1.0, abs(noise))

    @pytest.mark.parametrize("silent", [0, 2])
    def test_rcond_is_the_exact_one_norm_condition(self, silent):
        rng = np.random.default_rng(47 + silent)
        models = [random_model(rng, dim=3, n_channels=2, silent=silent) for _ in range(3)]
        stack = generator_stack(*stack_tensors(models))
        t = stack.trace_row
        n = len(t)
        for i, mat in enumerate(stack.matrices):
            b = np.zeros((n + 1, n + 1), dtype=complex)
            b[:n, :n] = mat
            b[:n, n] = t.conj() / np.vdot(t, t).real
            b[n, :n] = t
            inverse = np.linalg.inv(b)
            want = 1.0 / (np.linalg.norm(b, 1) * np.linalg.norm(inverse, 1))
            assert abs(stack.stationary.rcond[i] - want) <= 1e-10 * want
            scale = np.abs(inverse).max()
            assert np.abs(stack.stationary.vectors[i] - inverse[:n, n]).max() <= 1e-12 * scale
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            x -= (t @ x) * b[:n, n]
            got = stack.stationary.drazin(np.stack([x] * len(models)))[i]
            assert np.abs(got - inverse[:n, :n] @ x).max() <= 1e-12 * scale * np.abs(x).sum()

    def test_first_singular_member_is_reported_without_warning(self):
        # member rcond: a weakly coupled pair of sectors is singular to
        # working precision (~3e-20), a disconnected pair meets an exactly
        # zero pivot (0); the first of them in stack order is reported
        sm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        weak = feedback_model(
            dim=2,
            channels=["a", "b"],
            hamiltonians=sx,
            jump_ops={"a": {"a": sm, "b": 1e-9 * sm}, "b": {"b": sm, "a": 1e-9 * sm}},
        )
        connected = feedback_model(
            dim=2, channels=["a", "b"], hamiltonians=sx, jump_ops={"a": sm, "b": sm.T}
        )
        for members, zero in (([weak, disconnected_model()], False), ([disconnected_model(), weak], True)):
            stack = generator_stack(*stack_tensors([connected, *members, connected]))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DegenerateSteadyStateError) as err:
                    stack.stationary
            assert ("rcond 0.0e+00" in str(err.value)) == zero

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
            v = ext.vectors(state.blocks[None])[0]
            assert abs(ext.trace_row @ v - 1.0) < 1e-12
            assert np.linalg.norm(ext.matrices[0] @ v) < 1e-12 * np.abs(ext.matrices[0]).max()
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
    """generator_stack's arguments: the channels of ``models``, then their tensors stacked on a leading axis."""
    tensors = [np.stack([getattr(m, a) for m in models]) for a in ("hamiltonians", "jump_ops", "silent_ops")]
    return [models[0].channels, *tensors]


def per_block_assembly(hamiltonians, jump_ops, silent_ops):
    """generator_stack's matrices, with the gains weighted by ones and each diagonal block added in turn."""
    p, m, d = hamiltonians.shape[:3]
    n = d * d
    loss = np.einsum("zkqij,zkqil->zqjl", jump_ops.conj(), jump_ops)
    loss += np.einsum("zsqij,zsqil->zqjl", silent_ops.conj(), silent_ops)
    h_eff = hamiltonians - 0.5j * loss
    eye = np.eye(d)
    drift = -1j * (
        np.einsum("il,zkjp->zkijlp", eye, h_eff) - np.einsum("zkil,jp->zkijlp", h_eff.conj(), eye)
    )
    silent_gain = np.einsum("zskil,zskjp->zkijlp", silent_ops.conj(), silent_ops)
    diagonal = (drift + silent_gain).reshape(p, m, n, n)
    gains = np.einsum("zkqil,zkqjp->zkijqlp", np.ones((m, m, 1, 1)) * jump_ops.conj(), jump_ops)
    blocks = gains.reshape(p, m, n, m, n)
    for k in range(m):
        blocks[:, k, :, k] += diagonal[:, k]
    return blocks.reshape(p, m * n, m * n)


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
            self.assert_close(stack.matrices[i], ext.matrices[0])
            self.assert_close(stack.stationary.rcond[i], ext.stationary.rcond[0])
            self.assert_close(blocks[i], state.blocks)
            self.assert_close(current[i], average_current(ext, weights, state))
            self.assert_close(noise[i], steady_noise(ext, weights, state=state))

    def test_assembly_equals_the_per_block_form_bit_for_bit(self):
        rng = np.random.default_rng(52)
        for _ in range(200):
            m, d = (int(x) for x in rng.integers(1, 4, size=2))
            silent = int(rng.integers(0, 2))
            models = [random_model(rng, dim=d, n_channels=m, silent=silent) for _ in range(2)]
            tensors = stack_tensors(models)
            got = generator_stack(*tensors).matrices
            assert got.tobytes() == per_block_assembly(*tensors[1:]).tobytes()

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


class TestOneGeneratorType:
    """One model's generator is a GeneratorStack of one; single-model calls take only that."""

    def test_single_model_generator_is_a_stack_of_one(self):
        rng = np.random.default_rng(53)
        model = random_model(rng, dim=2, n_channels=3, silent=1)
        ext = extended_liouvillian(model)
        assert isinstance(ext, jumpfeedback.GeneratorStack)
        assert ext.channels == model.channels
        assert ext.matrices.shape == (1, 3 * 4, 3 * 4)

    def test_single_model_calls_refuse_a_larger_stack(self):
        # two copies of one model: every check passes, so only unpacking the
        # one member stops member 0's numbers from coming back
        rng = np.random.default_rng(54)
        model = random_model(rng, dim=2, n_channels=2)
        pair = generator_stack(*stack_tensors([model, model]))
        state = feedback_steady_state(model)
        weights = CountingWeights.activity(model.channels)
        v = pair.vectors(state.blocks[None])[0]
        calls = [
            lambda: dynamics.propagate(pair, v, [0.5, 1.0]),
            lambda: feedback_steady_state(model, ext=pair),
            lambda: power_spectrum(pair, weights, [0.0, 1.0]),
            lambda: power_spectrum(pair, weights, [0.0, 1.0], state=state),
            lambda: two_point_correlation(pair, weights, [0.0, 1.0]),
            lambda: two_point_correlation(pair, weights, [0.0, 1.0], state=state),
            lambda: spectral_gap(pair),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="too many values to unpack"):
                call()


class TestHermitianBasis:
    """The real coordinates of the memory-block sector that propagation runs in."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_basis_is_orthonormal_and_hermitian(self, dim):
        rng = np.random.default_rng(196 + dim)
        stack = extended_liouvillian(random_model(rng, dim=dim, n_channels=2))
        u = stack.hermitian_basis
        npt.assert_allclose(u.conj().T @ u, np.eye(dim * dim), atol=1e-15)
        for column in u.T:
            b = column.reshape(dim, dim).T
            npt.assert_array_equal(b, b.conj().T)

    @pytest.mark.parametrize("silent", [0, 2])
    def test_coordinates_and_real_form(self, silent):
        rng = np.random.default_rng(201 + silent)
        model = random_model(rng, dim=3, n_channels=3, silent=silent)
        stack = extended_liouvillian(model)
        v = stack.vectors(embed(model.channels, [0.2, 0.3, 0.5], random_density(rng, 3)).blocks[None])[0]
        coords = stack.coordinates(v)
        # hermitian blocks have real coordinates, and the map inverts
        assert np.abs(coords.imag).max() < 1e-16
        npt.assert_allclose(stack.from_coordinates(coords), v, atol=1e-15)
        w = rng.normal(size=(2, 5, len(v))) + 1j * rng.normal(size=(2, 5, len(v)))
        npt.assert_allclose(stack.from_coordinates(stack.coordinates(w)), w, atol=1e-14)
        # the real form is the block-diagonal change of basis of the generator
        full = np.kron(np.eye(model.n_channels), stack.hermitian_basis)
        dense = full.conj().T @ stack.matrices[0] @ full
        scale = np.abs(stack.matrices[0]).max()
        assert np.abs(dense.imag).max() <= 1e-14 * scale
        assert np.abs(stack.real_matrices[0] - dense.real).max() <= 1e-14 * scale
        assert stack.real_matrices.dtype == float
        assert not stack.real_matrices.flags.writeable
        # and it acts on coordinates as the generator acts on vectors
        npt.assert_allclose(
            stack.real_matrices[0] @ coords.real, stack.coordinates(stack.matrices[0] @ v).real,
            atol=1e-13 * scale,
        )

    def test_a_matrix_that_breaks_hermiticity_has_no_real_form(self):
        model = no_feedback(np.zeros((2, 2)), [np.array([[0.0, 1.0], [0.0, 0.0]])], labels=["a"])
        # vector order (rho00, rho10, rho01, rho11): hermiticity is kept only
        # when the coherences rho10 and rho01 = conj(rho10) rotate oppositely
        kept = hybrid.GeneratorStack(
            model.channels, model.jump_ops[None], np.diag([0.0, -1j, 1j, 0.0])[None]
        )
        npt.assert_allclose(np.abs(kept.real_matrices[0]).max(), 1.0, rtol=1e-15)
        broken = hybrid.GeneratorStack(
            model.channels, model.jump_ops[None], np.diag([0.0, -1j, -1j, 0.0])[None]
        )
        with pytest.raises(ValidationError, match="generator 0 does not preserve hermiticity"):
            broken.real_matrices
