"""Property tests: the memory-block core against the dense paper-form oracle.

Random explicit models with one to three memory values, system dimension
one to three, optional silent channels and transition-resolved weights.
The examples are derandomized and bounded, so every run checks the same
models.
"""

import numpy as np
import numpy.testing as npt
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpfeedback import (
    CountingWeights,
    average_current,
    drazin,
    embed,
    evolve_extended,
    evolve_memory_resolved,
    extended_liouvillian,
    feedback_steady_state,
    power_spectrum,
    steady_noise,
    steady_state,
    tilted_cumulants,
    trace_vector,
    two_point_correlation,
    unvec,
    vec,
)

from helpers import dense_gain, dense_oracle, random_density, random_model, to_matrix

CASES = st.tuples(
    st.integers(1, 3),  # memory values m
    st.integers(1, 3),  # system dimension d
    st.integers(0, 1),  # silent channels
    st.integers(0, 2**32 - 1),  # seed of the operators and weights
)
BOUNDED = settings(max_examples=20, derandomize=True, deadline=None, database=None)


def build(case):
    m, d, silent, seed = case
    rng = np.random.default_rng(seed)
    model = random_model(rng, dim=d, n_channels=m, silent=silent)
    weights = CountingWeights(model.channels, rng.normal(size=(m, m)))
    return rng, model, weights


def dense_stationary(model, weights):
    """Dense generator, t, vec(rho_ss), J and the current, all on the full space."""
    gen = dense_oracle(model)
    rho = steady_state(gen)
    t = trace_vector(gen.dim)
    v = vec(rho)
    jmat = dense_gain(model, weights.per_transition)
    return gen, rho, t, v, jmat, (t @ jmat @ v).real


@BOUNDED
@given(CASES)
def test_stationary_state(case):
    _, model, _ = build(case)
    state = feedback_steady_state(model)
    assert abs(state.memory_dist.sum() - 1.0) < 1e-12
    for block in state.blocks:
        assert np.linalg.eigvalsh(block).min() > -1e-10
    npt.assert_allclose(to_matrix(state), steady_state(dense_oracle(model)), atol=1e-9)


@BOUNDED
@given(CASES)
def test_current_and_three_noise_routes(case):
    _, model, weights = build(case)
    ext = extended_liouvillian(model)
    state = feedback_steady_state(model, ext=ext)
    gen, rho, t, v, jmat, current = dense_stationary(model, weights)
    assert abs(average_current(ext, weights, state) - current) < 1e-10 * max(1.0, abs(current))

    noise = steady_noise(ext, weights, state=state)
    j2 = dense_gain(model, weights.per_transition**2)
    dz = drazin(gen, rho).matrix
    noise_drazin = (t @ j2 @ v - 2.0 * t @ jmat @ dz @ jmat @ v).real
    scale = max(1.0, abs(noise))
    assert abs(noise - noise_drazin) < 1e-9 * scale
    j_tilt, d_tilt = tilted_cumulants(ext, weights)
    assert abs(j_tilt - current) < 1e-6 * max(1.0, abs(current))
    assert abs(d_tilt - noise) < 1e-4 * scale


@BOUNDED
@given(CASES, st.floats(0.1, 5.0))
def test_spectrum_value(case, omega):
    _, model, weights = build(case)
    ext = extended_liouvillian(model)
    gen, _, t, v, jmat, _ = dense_stationary(model, weights)
    jv = jmat @ v
    resolvent = np.linalg.solve(1j * omega * np.eye(len(v)) - gen.matrix, jv - v * (t @ jv))
    expected = (t @ dense_gain(model, weights.per_transition**2) @ v).real
    expected += 2.0 * (t @ jmat @ resolvent).real
    got = power_spectrum(ext, weights, [omega]).values[0]
    assert abs(got - expected) < 1e-9 * max(1.0, abs(expected))


@BOUNDED
@given(CASES, st.floats(0.05, 4.0))
def test_correlation_lag(case, tau):
    _, model, weights = build(case)
    ext = extended_liouvillian(model)
    gen, _, t, v, jmat, current = dense_stationary(model, weights)
    expected = (t @ jmat @ scipy.linalg.expm(tau * gen.matrix) @ jmat @ v).real - current**2
    got = two_point_correlation(ext, weights, [tau]).values[0]
    assert abs(got - expected) < 1e-9 * max(1.0, abs(current) ** 2)


@BOUNDED
@given(CASES)
def test_evolution_routes(case):
    rng, model, _ = build(case)
    m, d = model.n_channels, model.dim
    dist = rng.random(m)
    state0 = embed(model.channels, dist / dist.sum(), random_density(rng, d))
    times = np.array([0.0, 0.4, 1.5])
    gen = dense_oracle(model)
    by_exp = evolve_extended(model, state0, times)
    by_ode = evolve_memory_resolved(model, state0, times)
    for t, a, b in zip(times, by_exp.states, by_ode.states):
        expected = unvec(gen.expm(t).matrix @ vec(to_matrix(state0)), m * d)
        npt.assert_allclose(to_matrix(a), expected, atol=1e-10)
        npt.assert_allclose(to_matrix(b), expected, atol=1e-8)
