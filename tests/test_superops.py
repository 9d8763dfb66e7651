"""The dense oracle (tests/helpers.py) and the dense solver it shares with the package.

Vectorization, the paper-form generators, steady states, the Drazin inverse
and the spectral gap.
"""

import numpy as np
import numpy.testing as npt
import pytest

from jumpfeedback import (
    DegenerateSteadyStateError,
    ValidationError,
    drazin,
    spectral_gap,
    steady_state,
    trace_vector,
    unvec,
    vec,
)

from helpers import (
    dense_oracle,
    dissipator,
    liouvillian,
    random_density,
    random_hermitian,
    random_operator,
    sandwich,
)


def classical_hopping(a, b):
    """Two-level classical rate model: |1> -> |0> at rate a, reverse at b."""
    l_down = np.sqrt(a) * np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    l_up = np.sqrt(b) * np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    return liouvillian(np.zeros((2, 2)), [l_down, l_up])


class TestVectorization:
    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        x = random_operator(rng, 4)
        npt.assert_array_equal(unvec(vec(x), 4), x)

    def test_column_stacking_order(self):
        x = np.array([[1, 2], [3, 4]])
        npt.assert_array_equal(vec(x), [1, 3, 2, 4])

    def test_kron_product_rule(self):
        # vec(A X B) = (B^T kron A) vec(X)
        rng = np.random.default_rng(2)
        a, b, x = (random_operator(rng, 3) for _ in range(3))
        npt.assert_allclose(unvec(np.kron(b.T, a) @ vec(x), 3), a @ x @ b, atol=1e-13)

    def test_sandwich_matches_conjugation(self):
        rng = np.random.default_rng(3)
        a, x = random_operator(rng, 3), random_density(rng, 3)
        npt.assert_allclose(sandwich(a)(x), a @ x @ a.conj().T, atol=1e-13)

    def test_trace_vector_contracts_to_trace(self):
        rng = np.random.default_rng(4)
        x = random_operator(rng, 5)
        assert abs(trace_vector(5) @ vec(x) - np.trace(x)) < 1e-12


def assert_trace_annihilating(gen):
    # Tr[gen(X)] = 0 for every X: the trace row annihilates the matrix
    t = trace_vector(gen.dim)
    npt.assert_allclose(t @ gen.matrix, 0.0, atol=1e-12 * max(1.0, np.abs(gen.matrix).max()))


class TestGenerators:
    def test_dissipator_annihilates_trace(self):
        rng = np.random.default_rng(5)
        gen = dissipator(random_operator(rng, 3))
        assert_trace_annihilating(gen)

    def test_liouvillian_annihilates_trace_and_preserves_hermiticity(self):
        rng = np.random.default_rng(6)
        h = random_hermitian(rng, 3)
        gen = liouvillian(h, [random_operator(rng, 3) for _ in range(2)])
        assert_trace_annihilating(gen)
        x = random_density(rng, 3)
        out = gen(x)
        npt.assert_allclose(out, out.conj().T, atol=1e-12)

    def test_liouvillian_rejects_nonhermitian_hamiltonian(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValidationError):
            liouvillian(random_operator(rng, 3), [])

    def test_no_jump_generator_removes_gain(self):
        # the drift -i (1 kron H_eff - conj(H_eff) kron 1), H_eff = H - i W / 2,
        # is the Lindbladian without its gains
        rng = np.random.default_rng(8)
        h = random_hermitian(rng, 3)
        ops = [random_operator(rng, 3) for _ in range(2)]
        h_eff = h - 0.5j * sum(l.conj().T @ l for l in ops)
        eye = np.eye(3)
        gen0 = -1j * (np.kron(eye, h_eff) - np.kron(h_eff.conj(), eye))
        gains = sum(sandwich(l).matrix for l in ops)
        npt.assert_allclose(gen0 + gains, liouvillian(h, ops).matrix, atol=1e-13)

    def test_pure_hamiltonian_trace_annihilating(self):
        gen = liouvillian(np.diag([1.0, -1.0]), [])
        assert_trace_annihilating(gen)


class TestSteadyState:
    def test_classical_detailed_balance(self):
        # rates 3:1 give populations 0.75 / 0.25
        gen = classical_hopping(3.0, 1.0)
        rho = steady_state(gen)
        npt.assert_allclose(np.diag(rho).real, [0.75, 0.25], atol=1e-12)
        npt.assert_allclose(rho, np.diag(np.diag(rho)), atol=1e-12)

    def test_fixed_point_and_normalization(self):
        rng = np.random.default_rng(11)
        gen = liouvillian(
            random_hermitian(rng, 3), [random_operator(rng, 3, 0.8) for _ in range(2)]
        )
        rho = steady_state(gen)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        npt.assert_allclose(gen(rho), np.zeros((3, 3)), atol=1e-10)
        assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_degenerate_kernel_raises(self):
        # block-diagonal generator with two disconnected stationary states
        l1 = np.zeros((4, 4), dtype=complex)
        l1[0, 1] = 1.0
        l2 = np.zeros((4, 4), dtype=complex)
        l2[2, 3] = 1.0
        gen = liouvillian(np.zeros((4, 4)), [l1, l2])
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(gen)

    def test_spectral_gap_of_hopping_model(self):
        # populations relax at a+b = 2, coherences at (a+b)/2 = 1
        gen = classical_hopping(1.0, 1.0)
        assert abs(spectral_gap(gen) - 1.0) < 1e-9


class TestDrazin:
    def test_classical_group_inverse(self):
        # symmetric hopping: the group inverse is the generator over (a+b)^2
        gen = classical_hopping(1.0, 1.0)
        rho = steady_state(gen)
        dz = drazin(gen, rho)
        w = np.array([[-1.0, 1.0], [1.0, -1.0]])
        for j in range(2):
            basis = np.zeros((2, 2), dtype=complex)
            basis[j, j] = 1.0
            out = unvec(dz.matrix @ vec(basis), 2)
            npt.assert_allclose(np.diag(out).real, w[:, j] / 4.0, atol=1e-12)

    def test_group_inverse_identities(self):
        rng = np.random.default_rng(12)
        d = 3
        gen = liouvillian(
            random_hermitian(rng, d), [random_operator(rng, d, 0.7) for _ in range(2)]
        )
        rho = steady_state(gen)
        dz = drazin(gen, rho)
        lmat, dmat = gen.matrix, dz.matrix
        proj = np.outer(vec(rho), trace_vector(d))
        q = np.eye(d * d) - proj
        npt.assert_allclose(lmat @ dmat, q, atol=1e-9)
        npt.assert_allclose(dmat @ lmat, q, atol=1e-9)
        npt.assert_allclose(dmat @ proj, np.zeros_like(dmat), atol=1e-9)
        npt.assert_allclose(dmat @ lmat @ dmat, dmat, atol=1e-9)

    def test_zero_generator_dimension_one(self):
        gen = liouvillian(np.zeros((1, 1)), [])
        rho = np.eye(1, dtype=complex)
        dz = drazin(gen, rho)
        npt.assert_array_equal(dz.matrix, np.zeros((1, 1)))

    def test_slow_maser_is_not_called_degenerate(self):
        # rates of 1e-7 against a unit drive: the identity residuals exceed an
        # absolute 1e-9 but are round-off on the scale ||L|| ||L+||
        from jumpfeedback import MaserParams, maser_model

        params = MaserParams(nl=0.3, nr=8.0, gl=1e-7, gr=1e-7, wl=8.0, wr=2.0)
        gen = dense_oracle(maser_model(params))
        rho = steady_state(gen)
        dz = drazin(gen, rho)
        proj = np.outer(vec(rho), trace_vector(gen.dim))
        q = np.eye(len(proj)) - proj
        scale = np.linalg.norm(gen.matrix, 2) * np.linalg.norm(dz.matrix, 2)
        assert np.linalg.norm(gen.matrix @ dz.matrix - q, 2) < 1e-9 * scale
