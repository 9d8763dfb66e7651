"""Model containers: feedback models and the trivial wrapper."""

import numpy as np
import numpy.testing as npt
import pytest

import scipy.linalg

from jumpfeedback import (
    CountingWeights,
    DimensionError,
    FeedbackModel,
    QubitParams,
    ValidationError,
    embed,
    evolve_extended,
    extended_liouvillian,
    feedback_model,
    mc_estimate,
    no_feedback,
    noise_by_quadrature,
    power_spectrum,
    qubit_cooling_model,
    spectral_gap,
    tilted_cumulants,
    two_point_correlation,
    validate,
)
from jumpfeedback.dynamics import propagate
from jumpfeedback.model import check_grid, check_positive, label_table, loss_matrices

from helpers import (
    extended_jumps,
    extended_silent_jumps,
    random_density,
    random_hermitian,
    random_model,
    random_operator,
)


SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SM = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


class TestFeedbackModel:
    def test_builds_from_mappings(self):
        model = feedback_model(
            dim=2,
            channels=["a", "b"],
            hamiltonians={"a": SX, "b": 2 * SX},
            jump_ops={"a": SM, "b": {"a": SM.T, "b": 0.5 * SM.T}},
        )
        assert model.dim == 2
        assert model.channels == ("a", "b")
        assert model.n_channels == 2
        npt.assert_array_equal(model.hamiltonians[1], 2 * SX)
        # memory-independent entry broadcasts over memory values
        npt.assert_array_equal(model.jump_ops[0, 0], SM)
        npt.assert_array_equal(model.jump_ops[0, 1], SM)
        npt.assert_array_equal(model.jump_ops[1, 1], 0.5 * SM.T)

    def test_missing_inner_memory_defaults_to_zero(self):
        model = feedback_model(
            dim=2,
            channels=["a", "b"],
            hamiltonians=np.zeros((2, 2)),
            jump_ops={"a": {"a": SM}, "b": SM.T},
        )
        npt.assert_array_equal(model.jump_ops[0, 1], np.zeros((2, 2)))

    def test_validate_is_idempotent(self):
        model = feedback_model(
            dim=2, channels=["a"], hamiltonians=SX, jump_ops={"a": SM}
        )
        assert validate(model) is model

    def test_rejects_nonhermitian_hamiltonian(self):
        with pytest.raises(ValidationError, match="hermitian"):
            feedback_model(
                dim=2, channels=["a"], hamiltonians=SM, jump_ops={"a": SM}
            )

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValidationError, match="duplicate"):
            feedback_model(
                dim=2,
                channels=["a", "a"],
                hamiltonians=np.zeros((2, 2)),
                jump_ops={"a": SM},
            )

    def test_rejects_unknown_jump_label(self):
        with pytest.raises(ValidationError):
            feedback_model(
                dim=2,
                channels=["a"],
                hamiltonians=np.zeros((2, 2)),
                jump_ops={"a": SM, "b": SM},
            )

    def test_rejects_silent_label_collision(self):
        with pytest.raises(ValidationError, match="collide"):
            feedback_model(
                dim=2,
                channels=["a"],
                hamiltonians=np.zeros((2, 2)),
                jump_ops={"a": SM},
                silent_ops={"a": SM.T},
            )

    def test_channel_index_and_unknown_label(self):
        model = feedback_model(
            dim=2, channels=["a", "b"], hamiltonians=SX, jump_ops={"a": SM, "b": SM.T}
        )
        assert model.channel_index("b") == 1
        with pytest.raises(ValidationError):
            model.channel_index("zz")

    def test_loss_operator_sums_all_channels(self):
        model = feedback_model(
            dim=2,
            channels=["a"],
            hamiltonians=np.zeros((2, 2)),
            jump_ops={"a": SM},
            silent_ops={"s": 2.0 * SM.T},
        )
        expected = SM.conj().T @ SM + 4.0 * SM @ SM.conj().T
        (loss,) = loss_matrices(model.jump_ops, model.silent_ops)
        npt.assert_allclose(loss, expected, atol=1e-14)


class TestLabelTable:
    def test_mapping_and_array_forms_agree(self):
        by_label = label_table({"b": 2.0}, ("a", "b"), "t")
        npt.assert_array_equal(by_label, [0.0, 2.0])
        npt.assert_array_equal(label_table([0.0, 2.0], ("a", "b"), "t"), by_label)

    def test_unknown_label_and_wrong_shapes(self):
        with pytest.raises(ValidationError, match=r"t has unknown labels \['z'\]"):
            label_table({"z": 1.0}, ("a",), "t")
        with pytest.raises(DimensionError, match=r"t has shape \(1,\), expected \(2,\)"):
            label_table([1.0], ("a", "b"), "t")

    def test_operator_entry_of_a_wrong_shape_is_not_broadcast(self):
        # a row used to fill both rows of the operator
        with pytest.raises(DimensionError, match="jump operator 'a' entry 'a' has shape"):
            feedback_model(
                dim=2, channels=["a"], hamiltonians=SX, jump_ops={"a": {"a": [1.0, 0.0]}}
            )


class TestConstructionValidates:
    # FeedbackModel itself runs validate, so no path builds an invalid model
    def build(self, channels=("a", "b"), hams=None, silent_labels=(), silent_ops=None):
        m = len(channels)
        return FeedbackModel(
            dim=2,
            channels=channels,
            hamiltonians=np.zeros((m, 2, 2)) if hams is None else hams,
            jump_ops=np.zeros((m, m, 2, 2)),
            silent_labels=silent_labels,
            silent_ops=silent_ops,
        )

    def test_valid_direct_construction(self):
        model = self.build(hams=np.stack([SX, 2 * SX]))
        npt.assert_array_equal(model.hamiltonians[1], 2 * SX)

    def test_rejects_nonhermitian_hamiltonian(self):
        with pytest.raises(ValidationError, match=r"H\(b\) is not hermitian"):
            self.build(hams=np.stack([SX, SM]))

    def test_rejects_nan_hamiltonian(self):
        with pytest.raises(ValidationError, match=r"H\(a\) is not hermitian"):
            self.build(hams=np.stack([np.full((2, 2), np.nan), SX]))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValidationError, match="duplicate channel labels"):
            self.build(channels=("a", "a"))

    def test_rejects_colliding_silent_labels(self):
        with pytest.raises(ValidationError, match="collide"):
            self.build(silent_labels=("b",), silent_ops=np.zeros((1, 2, 2, 2)))

    def test_rejects_duplicate_silent_labels(self):
        with pytest.raises(ValidationError, match="duplicate silent labels"):
            self.build(silent_labels=("s", "s"), silent_ops=np.zeros((2, 2, 2, 2)))

    def test_rejects_empty_alphabet(self):
        with pytest.raises(ValidationError, match="at least one monitored channel"):
            self.build(channels=())

    def test_hermiticity_tolerance_scales_with_entries(self):
        big = 1e6 * SX
        skew = np.array([[0.0, 1e-7], [0.0, 0.0]])
        self.build(hams=np.stack([big + skew, SX]))
        with pytest.raises(ValidationError, match="hermitian"):
            self.build(hams=np.stack([SX + skew, SX]))


class TestModelArraysAreOwned:
    # a model is validated once, so it must not share writeable arrays
    def test_mutating_the_inputs_leaves_the_model_unchanged(self):
        hams = np.zeros((1, 2, 2), dtype=complex)
        jumps = np.zeros((1, 1, 2, 2), dtype=complex)
        jumps[0, 0] = SM
        model = FeedbackModel(dim=2, channels=("a",), hamiltonians=hams, jump_ops=jumps)
        hams[0, 0, 1] = 1.0
        jumps[0, 0] = SX
        assert model.hamiltonians is not hams
        npt.assert_array_equal(model.hamiltonians, np.zeros((1, 2, 2)))
        npt.assert_array_equal(model.jump_ops[0, 0], SM)
        assert validate(model) is model

    @pytest.mark.parametrize("name", ["hamiltonians", "jump_ops", "silent_ops"])
    def test_model_arrays_are_read_only(self, name):
        model = feedback_model(
            dim=2,
            channels=["a"],
            hamiltonians=SX,
            jump_ops={"a": SM},
            silent_ops={"s": SM.T},
        )
        with pytest.raises(ValueError, match="read-only"):
            getattr(model, name)[0, 0] = 0.0


class TestNoFeedback:
    def test_all_blocks_identical(self):
        rng = np.random.default_rng(20)
        h = random_hermitian(rng, 3)
        ops = [random_operator(rng, 3) for _ in range(2)]
        model = no_feedback(h, ops, labels=["x", "y"])
        for q in range(2):
            npt.assert_array_equal(model.hamiltonians[q], h)
            for k in range(2):
                npt.assert_array_equal(model.jump_ops[k, q], ops[k])

    def test_default_labels(self):
        model = no_feedback(np.zeros((2, 2)), [SM, SM.T])
        assert model.channels == ("c0", "c1")

    def test_label_length_mismatch(self):
        with pytest.raises(ValidationError):
            no_feedback(np.zeros((2, 2)), [SM], labels=["a", "b"])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValidationError, match="duplicate channel labels"):
            no_feedback(np.zeros((2, 2)), [SM, SM.T], labels=["a", "a"])


class TestLossMatrices:
    """The stacked loss W(q) is the dense oracle's sum of E^dag E, block by block."""

    @pytest.mark.parametrize("silent", [0, 2])
    def test_stack_equals_the_dense_oracle_per_memory(self, silent):
        rng = np.random.default_rng(2301 + silent)
        for m, d in [(1, 1), (2, 3), (3, 2), (4, 2)]:
            models = [random_model(rng, dim=d, n_channels=m, silent=silent) for _ in range(3)]
            loss = loss_matrices(
                np.stack([model.jump_ops for model in models]),
                np.stack([model.silent_ops for model in models]),
            )
            assert loss.shape == (3, m, d, d)
            for model, w in zip(models, loss):
                ops = [*extended_jumps(model), *extended_silent_jumps(model)]
                dense = sum(op.conj().T @ op for op in ops)
                # block diagonal in the memory: W(q) in block (q, q), nothing off it
                npt.assert_allclose(
                    scipy.linalg.block_diag(*w), dense, rtol=0, atol=1e-13 * np.abs(dense).max()
                )


class TestGridRule:
    """Every grid goes through check_grid, under its caller's name and bounds."""

    @staticmethod
    def setup():
        rng = np.random.default_rng(2302)
        model = random_model(rng, dim=2, n_channels=2)
        return model, extended_liouvillian(model), embed(model.channels, [0.5, 0.5], random_density(rng, 2))

    BAD = [
        ([0.0, np.nan], "must be finite"),
        ([], "must be a non-empty 1-d array"),
        ([[0.0, 1.0]], "must be a non-empty 1-d array"),
    ]

    @pytest.mark.parametrize("grid, message", BAD + [([0.0, 2.0, 1.0], "must be non-decreasing")])
    def test_evolve_extended(self, grid, message):
        model, _, state0 = self.setup()
        with pytest.raises(ValidationError, match=f"^times {message}$"):
            evolve_extended(model, state0, grid)

    @pytest.mark.parametrize("grid, message", [BAD[0], BAD[2]])
    def test_propagate(self, grid, message):
        # the grid starts at ``start``, so no times at all is a grid too
        model, ext, state0 = self.setup()
        v0 = ext.vectors(state0.blocks[None])[0]
        with pytest.raises(ValidationError, match=f"^times {message}$"):
            propagate(ext, v0, grid)
        assert propagate(ext, v0, []).shape == (0, len(v0))

    @pytest.mark.parametrize(
        "grid, message", BAD + [([0.0, -1.0], r"must be non-negative \(F is even in tau\)")]
    )
    def test_two_point_correlation(self, grid, message):
        model, ext, _ = self.setup()
        with pytest.raises(ValidationError, match=f"^lags {message}$"):
            two_point_correlation(ext, CountingWeights.activity(model.channels), grid)

    @pytest.mark.parametrize("grid, message", BAD)
    def test_power_spectrum(self, grid, message):
        model, ext, _ = self.setup()
        with pytest.raises(ValidationError, match=f"^frequencies {message}$"):
            power_spectrum(ext, CountingWeights.activity(model.channels), grid)
        # negative frequencies are allowed
        assert len(power_spectrum(ext, CountingWeights.activity(model.channels), [-1.0]).values)

    def test_rule_returns_the_float_grid(self):
        got = check_grid([3, -0.0, 1], "g")
        assert got.dtype == float and got.tolist() == [3.0, -0.0, 1.0]
        assert str(got[1]) == "-0.0"
        with pytest.raises(ValidationError, match="^g must be non-negative$"):
            check_grid([-1.0], "g", non_negative=True)


class TestPositiveRule:
    """Every positive scalar setting goes through check_positive under its own name.

    A value <= 0 (-inf included) is not positive; after that NaN and inf
    are not finite.
    """

    @staticmethod
    def call(name, value):
        model = qubit_cooling_model(QubitParams(nbar=0.5, gamma=1.0))
        weights = CountingWeights.activity(model.channels)
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        ext = extended_liouvillian(model)
        calls = {
            "horizon": lambda: mc_estimate(model, weights, rho0, [1.0, 0.0], value, 2),
            "dt": lambda: mc_estimate(
                model, weights, rho0, [1.0, 0.0], 5.0, 2, scheme="fixed-step", dt=value
            ),
            "zero_rtol": lambda: spectral_gap(ext, zero_rtol=value),
            "t_max": lambda: noise_by_quadrature(ext, weights, t_max=value),
            "gap_factor": lambda: noise_by_quadrature(ext, weights, gap_factor=value),
            "chi_step": lambda: tilted_cumulants(ext, weights, chi_step=value),
        }
        return calls[name]()

    NAMES = ["horizon", "dt", "zero_rtol", "t_max", "gap_factor", "chi_step"]
    BAD = [(np.nan, "finite"), (np.inf, "finite"), (-np.inf, "positive"), (0.0, "positive"),
           (-1.0, "positive")]

    @pytest.mark.parametrize("value, word", BAD)
    @pytest.mark.parametrize("name", NAMES)
    def test_bad_value_raises_the_rule_message(self, name, value, word):
        with pytest.raises(ValidationError, match=f"^{name} must be {word}$"):
            check_positive(value, name)
        with pytest.raises(ValidationError, match=f"^{name} must be {word}$"):
            self.call(name, value)

    def test_rule_returns_a_good_value(self):
        assert check_positive(0.5, "x") == 0.5
        assert check_positive(5e-324, "x") == 5e-324
