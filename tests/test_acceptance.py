"""Acceptance suite: the release gates for this package in one module.

Every test prints exactly one PASS/FAIL line, so running

    pytest -s tests/test_acceptance.py

reads as a checklist.  Tolerances are pinned next to each check.  The
deterministic criteria run in seconds; the Monte Carlo criterion takes
about a minute.
"""

import filecmp
import json

import numpy as np

from jumpfeedback import (
    CountingWeights,
    MaserParams,
    QubitParams,
    average_current,
    charge_from_record,
    embed,
    evolve_extended,
    evolve_memory_resolved,
    extended_liouvillian,
    feedback_model,
    feedback_steady_state,
    marginals,
    maser_analytic,
    maser_model,
    mc_estimate,
    no_feedback,
    noise_background,
    noise_by_quadrature,
    power_spectrum,
    qubit_analytic,
    qubit_baseline_model,
    qubit_cooling_model,
    steady_noise,
    tilted_cumulants,
    two_point_correlation,
    unvec,
    vec,
    work_weights,
)
from jumpfeedback.cli import main

from helpers import liouvillian, random_density, random_hermitian, random_model, random_operator

# Reference maser operating point shared by several criteria below.
MASER_POINT = dict(nl=0.3, nr=8.0, gl=0.025, gr=0.025, lam=1.0, delta=0.0, wl=8.0, wr=2.0)


def _verdict(number, name, failures):
    status = "FAIL" if failures else "PASS"
    print(f"criterion {number:02d} {name}: {status}")
    assert not failures, f"criterion {number:02d} {name}: " + "; ".join(failures)


def _qubit_steady(nbar, p, mode="feedback"):
    params = QubitParams(nbar=nbar, gamma=p, lam=1.0, delta=0.0)
    if mode == "feedback":
        model = qubit_cooling_model(params)
    else:
        model = qubit_baseline_model(params, drive_on=(mode == "always_on"))
    state = feedback_steady_state(model)
    system, probs, _ = marginals(state)
    return system, probs


def test_criterion_01_qubit_closed_forms():
    failures = []
    for nbar in (0.0, 0.25, 0.5, 1.0, 2.0, 5.0):
        for p in (0.1, 0.25, 1.0, 4.0):
            system, probs = _qubit_steady(nbar, p)
            ground, coherence, memory_minus = qubit_analytic(nbar, p)
            errs = (
                abs(system[0, 0].real - ground),
                abs(system[0, 1] - coherence),
                abs(probs[0] - memory_minus),
            )
            if max(errs) > 1e-8:
                failures.append(f"nbar={nbar} p={p}: max err {max(errs):.2e}")
    # spot values, quoted to six decimals
    system, probs = _qubit_steady(0.5, 0.25)
    if abs(system[0, 0].real - 0.799383) > 5e-7:
        failures.append(f"spot ground population {system[0, 0].real:.7f}")
    if abs(probs[0] - 0.601852) > 5e-7:
        failures.append(f"spot memory probability {probs[0]:.7f}")
    _verdict(1, "qubit closed forms", failures)


def test_criterion_02_qubit_cooling_improvement():
    failures = []
    for nbar in np.linspace(0.05, 2.0, 40):
        fb, _ = _qubit_steady(nbar, 0.25)
        on, _ = _qubit_steady(nbar, 0.25, mode="always_on")
        thermal = (nbar + 1.0) / (2.0 * nbar + 1.0)
        best_baseline = max(on[0, 0].real, thermal)
        if fb[0, 0].real < best_baseline - 1e-10:
            failures.append(
                f"nbar={nbar:.3f}: feedback {fb[0, 0].real:.6f} "
                f"< baseline {best_baseline:.6f}"
            )
    _verdict(2, "qubit cooling improvement", failures)


def test_criterion_03_maser_populations():
    failures = []
    for nl in (0.1, 0.3, 1.0, 8.0):
        for nr in (0.1, 0.3, 1.0, 8.0):
            for p in (0.05, 0.25, 1.0):
                params = MaserParams(nl=nl, nr=nr, gl=p, gr=p, lam=1.0, delta=0.0)
                state = feedback_steady_state(maser_model(params, feedback=True))
                system, _, _ = marginals(state)
                numeric = np.real(np.diag(system))
                analytic, _, _ = maser_analytic(nl, nr, p)
                if np.max(np.abs(numeric - analytic)) > 1e-8:
                    failures.append(
                        f"nl={nl} nr={nr} p={p}: pop err "
                        f"{np.max(np.abs(numeric - analytic)):.2e}"
                    )
                if abs(numeric.sum() - 1.0) > 1e-10:
                    failures.append(f"nl={nl} nr={nr} p={p}: pops sum {numeric.sum()}")
    _verdict(3, "maser populations", failures)


def test_criterion_04_maser_power_scaling():
    failures = []
    wl, wr = 8.0, 2.0
    ratios = []
    for nl in (0.1, 0.3, 1.0, 8.0):
        for nr in (0.1, 0.3, 1.0, 8.0):
            for p in (0.05, 0.25, 1.0):
                params = MaserParams(
                    nl=nl, nr=nr, gl=p, gr=p, lam=1.0, delta=0.0, wl=wl, wr=wr
                )
                weights = work_weights(params)
                _, printed_nofb, printed_fb = maser_analytic(nl, nr, p)
                scale = p * (wl - wr)
                for feedback, printed in ((True, printed_fb), (False, printed_nofb)):
                    model = maser_model(params, feedback=feedback)
                    ext = extended_liouvillian(model)
                    state = feedback_steady_state(model, ext=ext)
                    current = average_current(ext, weights, state)
                    if feedback and current <= 0.0:
                        failures.append(f"nl={nl} nr={nr} p={p}: power {current:.3e}")
                    if (
                        not feedback
                        and abs(printed) > 1e-12
                        and np.sign(current) != np.sign(nl - nr)
                    ):
                        failures.append(f"nl={nl} nr={nr} p={p}: sign mismatch")
                    if abs(printed) > 1e-12:
                        ratios.append(current / printed / scale)
    ratios = np.array(ratios)
    rel_std = ratios.std() / abs(ratios.mean())
    if rel_std > 1e-6:
        failures.append(f"ratio rel std {rel_std:.2e}")
    _verdict(4, "maser power scaling", failures)


def test_criterion_05_evolution_method_equivalence():
    failures = []
    rng = np.random.default_rng(2024)
    times = np.array([0.0, 1.1, 2.7, 5.0])
    for trial in range(20):
        dim = int(rng.integers(2, 5))
        n_ch = int(rng.integers(1, 5))
        silent = int(rng.integers(0, 2))
        model = random_model(rng, dim=dim, n_channels=n_ch, scale=0.6, silent=silent)
        rho0 = random_density(rng, dim)
        dist = rng.random(n_ch)
        dist /= dist.sum()
        state0 = embed(model.channels, dict(zip(model.channels, dist)), rho0)
        exp_res = evolve_extended(model, state0, times)
        ode_res = evolve_memory_resolved(model, state0, times)
        worst = max(
            np.max(np.abs(a.blocks - b.blocks))
            for a, b in zip(exp_res.states, ode_res.states)
        )
        if worst > 1e-8:
            failures.append(f"trial {trial} (dim {dim}, {n_ch} channels): {worst:.2e}")
    _verdict(5, "evolution method equivalence", failures)


def test_criterion_06_no_feedback_reduction():
    failures = []
    rng = np.random.default_rng(77)
    times = np.array([0.0, 0.8, 2.3, 4.0])
    for trial in range(10):
        dim = int(rng.integers(2, 5))
        n_ch = int(rng.integers(1, 4))
        h = random_hermitian(rng, dim, scale=0.7)
        ops = [random_operator(rng, dim, scale=0.6) for _ in range(n_ch)]
        model = no_feedback(h, ops)
        rho0 = random_density(rng, dim)
        dist = rng.random(n_ch)
        dist /= dist.sum()
        state0 = embed(model.channels, dict(zip(model.channels, dist)), rho0)
        hybrid = evolve_extended(model, state0, times)
        plain = liouvillian(h, ops)
        for t, state in zip(times, hybrid.states):
            expected = unvec(plain.expm(t).matrix @ vec(rho0), dim)
            system, _, _ = marginals(state)
            err = np.max(np.abs(system - expected))
            if err > 1e-10:
                failures.append(f"trial {trial} t={t}: {err:.2e}")
    _verdict(6, "no-feedback reduction", failures)


def _builtin_fcs_cases():
    qp = QubitParams(nbar=0.5, gamma=1.0, lam=1.0, delta=0.0)
    mp = MaserParams(**MASER_POINT)
    cases = [
        ("qubit feedback", qubit_cooling_model(qp), None),
        ("qubit always-on", qubit_baseline_model(qp, drive_on=True), None),
        ("maser feedback", maser_model(mp, feedback=True), work_weights(mp)),
        ("maser no-feedback", maser_model(mp, feedback=False), work_weights(mp)),
        ("maser classical", maser_model(mp, feedback=True, classical=True), work_weights(mp)),
    ]
    return [
        (tag, model, w if w is not None else CountingWeights.activity(model.channels))
        for tag, model, w in cases
    ]


def test_criterion_07_counting_statistics_identities():
    failures = []
    omegas = np.array([-2.4, -1.1, -0.3, 0.3, 1.1, 2.4])
    for tag, model, weights in _builtin_fcs_cases():
        ext = extended_liouvillian(model)
        state = feedback_steady_state(model, ext=ext)
        current = average_current(ext, weights, state)
        noise = steady_noise(ext, weights, state=state)
        scale = max(1.0, abs(noise))

        s0 = power_spectrum(ext, weights, np.array([0.0])).values[0]
        if abs(s0 - noise) > 1e-6 * scale:
            failures.append(f"{tag}: S(0) vs D {abs(s0 - noise):.2e}")

        spec = power_spectrum(ext, weights, omegas)
        if np.max(np.abs(spec.values - spec.values[::-1])) > 1e-10:
            failures.append(f"{tag}: spectrum not even")
        if np.max(np.abs(np.imag(spec.values))) > 1e-10:
            failures.append(f"{tag}: spectrum not real")

        quad = noise_by_quadrature(ext, weights, state=state)
        if abs(quad - noise) > 1e-5 * scale:
            failures.append(f"{tag}: quadrature vs Drazin {abs(quad - noise):.2e}")

        j_tilt, d_tilt = tilted_cumulants(ext, weights)
        if abs(j_tilt - current) > 1e-6 * max(1.0, abs(current)):
            failures.append(f"{tag}: tilted J {abs(j_tilt - current):.2e}")
        if abs(d_tilt - noise) > 1e-5 * scale:
            failures.append(f"{tag}: tilted D {abs(d_tilt - noise):.2e}")

    # a bare emitter counted with weight 2 is analytically Poissonian
    gamma, nu = 0.7, 2.0
    model = feedback_model(
        dim=1,
        channels=("c",),
        hamiltonians={},
        jump_ops={"c": np.array([[np.sqrt(gamma)]])},
    )
    weights = CountingWeights.from_channel_weights(("c",), {"c": nu})
    ext = extended_liouvillian(model)
    state = feedback_steady_state(model, ext=ext)
    if abs(average_current(ext, weights, state) - nu * gamma) > 1e-12:
        failures.append("poisson current not nu*gamma")
    if abs(steady_noise(ext, weights, state=state) - nu * nu * gamma) > 1e-12:
        failures.append("poisson noise not nu^2*gamma")
    _verdict(7, "counting statistics identities", failures)


def test_criterion_08_maser_spectrum_features():
    failures = []
    params = MaserParams(**MASER_POINT)
    weights = work_weights(params)

    model_fb = maser_model(params, feedback=True)
    ext_fb = extended_liouvillian(model_fb)
    state_fb = feedback_steady_state(model_fb, ext=ext_fb)

    omegas = np.arange(-4.0, 4.0 + 1e-12, 0.05)
    values = power_spectrum(ext_fb, weights, omegas).values
    minima = [
        omegas[i]
        for i in range(1, len(values) - 1)
        if values[i] < values[i - 1] and values[i] < values[i + 1]
    ]
    for target in (-2.0, 2.0):
        if not any(abs(w - target) <= 0.05 + 1e-9 for w in minima):
            failures.append(f"no spectral dip within 0.05 of {target}")

    taus = np.linspace(0.1, 12.0, 120)
    corr = two_point_correlation(ext_fb, weights, taus)
    if np.max(corr.values) > 1e-10:
        failures.append(f"smooth correlation reaches {np.max(corr.values):.2e}")

    model_off = maser_model(params, feedback=False)
    ext_off = extended_liouvillian(model_off)
    state_off = feedback_steady_state(model_off, ext=ext_off)
    k_fb = noise_background(ext_fb, weights, state_fb)
    k_off = noise_background(ext_off, weights, state_off)
    if not k_fb < k_off:
        failures.append(f"background {k_fb:.6f} not below {k_off:.6f}")
    _verdict(8, "maser spectrum features", failures)


def test_criterion_09_feedback_noise_reduction():
    failures = []
    for g in np.logspace(-2, 1, 25):
        noise = {}
        for feedback in (True, False):
            params = MaserParams(
                nl=0.3, nr=8.0, gl=g, gr=g, lam=1.0, delta=0.0, wl=8.0, wr=2.0
            )
            model = maser_model(params, feedback=feedback)
            ext = extended_liouvillian(model)
            state = feedback_steady_state(model, ext=ext)
            noise[feedback] = steady_noise(ext, work_weights(params), state=state)
        if not noise[True] < noise[False]:
            failures.append(f"g={g:.4f}: {noise[True]:.6f} vs {noise[False]:.6f}")
    _verdict(9, "feedback noise reduction", failures)


def _mc_z_scores(model, weights, rho0, mem0, horizon, burn_in, seed):
    ext = extended_liouvillian(model)
    state = feedback_steady_state(model, ext=ext)
    current = average_current(ext, weights, state)
    noise = steady_noise(ext, weights, state=state)
    _, probs, _ = marginals(state)
    est = mc_estimate(
        model,
        weights,
        rho0,
        mem0,
        horizon=horizon,
        n_traj=10_000,
        master_seed=seed,
        burn_in=burn_in,
    )
    window = horizon - burn_in
    z_mean = (est.mean_charge / window - current) / (est.mean_charge_se / window)
    z_var = (est.var_charge / window - noise) / (est.var_charge_se / window)
    z_freq = np.max(
        np.abs(est.memory_freq - probs)
        / np.where(est.memory_freq_se > 0, est.memory_freq_se, 1.0)
    )
    return z_mean, z_var, z_freq


def test_criterion_10_monte_carlo_consistency():
    failures = []

    # bare emitter: exactly Poissonian counting
    emitter = feedback_model(
        dim=1,
        channels=("c",),
        hamiltonians={},
        jump_ops={"c": np.array([[1.0]])},
    )
    w_emit = CountingWeights.from_channel_weights(("c",), {"c": 2.0})
    rho1 = np.array([[1.0]], dtype=complex)
    zs = _mc_z_scores(emitter, w_emit, rho1, {"c": 1.0}, 50.0, 0.0, seed=1)

    qubit = qubit_cooling_model(QubitParams(nbar=0.5, gamma=1.0, lam=1.0, delta=0.0))
    w_qubit = CountingWeights.activity(qubit.channels)
    rho2 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    zq = _mc_z_scores(qubit, w_qubit, rho2, {"-1": 1.0, "+1": 0.0}, 60.0, 10.0, seed=1)

    # maser at a fast-mixing operating point so a 10^4-trajectory window
    # stays unbiased (the relaxation rate is gl*nl)
    mp = MaserParams(nl=1.0, nr=2.0, gl=0.5, gr=0.5, lam=1.0, delta=0.0, wl=8.0, wr=2.0)
    maser = maser_model(mp, feedback=True)
    w_maser = work_weights(mp)
    rho3 = np.eye(3, dtype=complex) / 3
    mem0 = {ch: 0.25 for ch in maser.channels}
    zm = _mc_z_scores(maser, w_maser, rho3, mem0, 320.0, 20.0, seed=1)

    for tag, (z_mean, z_var, z_freq) in (("emitter", zs), ("qubit", zq), ("maser", zm)):
        if abs(z_mean) > 5.0:
            failures.append(f"{tag}: mean rate off by {z_mean:.1f} SE")
        if abs(z_var) > 5.0:
            failures.append(f"{tag}: variance rate off by {z_var:.1f} SE")
        if z_freq > 5.0:
            failures.append(f"{tag}: memory frequency off by {z_freq:.1f} SE")

    # per-channel and per-transition accumulation agree jump by jump
    est = mc_estimate(
        qubit,
        w_qubit,
        rho2,
        {"-1": 1.0, "+1": 0.0},
        horizon=20.0,
        n_traj=1000,
        master_seed=9,
        collect_records=True,
    )
    for tid, rec in enumerate(est.records):
        by_channel = charge_from_record(rec, w_qubit, mode="channel")
        by_transition = charge_from_record(rec, w_qubit, mode="transition")
        if by_channel != by_transition:
            failures.append(f"trajectory {tid}: {by_channel} != {by_transition}")
            break
    _verdict(10, "monte carlo consistency", failures)


def test_criterion_11_classical_quantum_agreement():
    failures = []
    params = MaserParams(**MASER_POINT)
    weights = work_weights(params)
    for feedback in (True, False):
        results = {}
        for classical in (False, True):
            model = maser_model(params, feedback=feedback, classical=classical)
            ext = extended_liouvillian(model)
            state = feedback_steady_state(model, ext=ext)
            system, _, _ = marginals(state)
            results[classical] = (
                np.real(np.diag(system)),
                average_current(ext, weights, state),
                state,
            )
        pops_q, current_q, _ = results[False]
        pops_c, current_c, state_c = results[True]
        tag = "feedback" if feedback else "no feedback"
        if np.max(np.abs(pops_q - pops_c)) > 1e-8:
            failures.append(f"{tag}: populations differ by {np.max(np.abs(pops_q - pops_c)):.2e}")
        if abs(current_q - current_c) > 1e-8 * abs(current_q):
            failures.append(f"{tag}: currents differ by {abs(current_q - current_c):.2e}")
        off_diag = max(
            np.max(np.abs(block - np.diag(np.diag(block)))) for block in state_c.blocks
        )
        if off_diag > 1e-12:
            failures.append(f"{tag}: classical coherence {off_diag:.2e}")
    _verdict(11, "classical quantum agreement", failures)


def test_criterion_12_deterministic_cli_outputs(tmp_path, capsys):
    failures = []
    traj_task = {
        "kind": "trajectories",
        "n_traj": 60,
        "horizon": 8.0,
        "scheme": "waiting-time",
        "dump": True,
    }
    sweep_task = {
        "kind": "sweep",
        "parameter": "gl",
        "values": {"logspace": [-2, 0, 5]},
        "also": {"gr": {"logspace": [-2, 0, 5]}},
        "inner": "noise",
        "variants": [{"label": "fb"}, {"label": "nofb", "feedback": False}],
    }
    jobs = {
        "traj": {
            "model": {"builtin": "qubit_cooling", "params": {"nbar": 0.5, "gamma": 1.0}},
            "weights": "activity",
            "initial": {"memory": "-1", "system": "ground"},
            "seed": 7,
            "task": traj_task,
        },
        "sweep": {
            "model": {"builtin": "maser", "params": {k: MASER_POINT[k] for k in ("nl", "nr", "gl", "gr", "wl", "wr")}},
            "weights": "work",
            "task": sweep_task,
        },
    }
    for name, job in jobs.items():
        outputs = []
        for attempt in ("one", "two"):
            directory = tmp_path / name / attempt
            job["output"] = {"directory": str(directory), "prefix": name}
            cfg_path = tmp_path / f"{name}_{attempt}.json"
            cfg_path.write_text(json.dumps(job))
            rc = main(["run", str(cfg_path)])
            lines = capsys.readouterr().out.splitlines()
            if rc != 0:
                failures.append(f"{name} run {attempt}: exit {rc}")
            outputs.append([p for p in lines if p.endswith(".csv")])
        for first, second in zip(*outputs):
            if not filecmp.cmp(first, second, shallow=False):
                failures.append(f"{name}: {first} differs from rerun")
    _verdict(12, "deterministic cli outputs", failures)
