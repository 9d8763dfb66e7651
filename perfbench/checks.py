"""Output checks, made apart from the code path that produced each output.

The reference for the solvers is a memory-resolved generator built here from
the model's operators alone: for each memory value k,

    d rho(k)/dt = -i[H(k), rho(k)] - (1/2){W(k), rho(k)}
                  + sum_q L_k(q) rho(q) L_k(q)^dag + sum_s S_s(k) rho(k) S_s(k)^dag,

in a block space of size m*d^2.  It shares nothing with the package's
extended Lindbladian, stationary SVD, Drazin inverse or resolvent solves.
Noise is checked against the tilted generator of that block space (a
finite-difference stencil on its dominant eigenvalue), the closed forms
against ``maser_analytic`` and ``qubit_analytic``, and Monte Carlo moments
against exact finite-window moments of the same block space.
"""

import csv

import numpy as np
import scipy.linalg

EPS = np.finfo(float).eps
MC_Z = 5.0


class CheckFailure(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise CheckFailure(message)


# ---------------------------------------------------------------------------
# memory-resolved block space


class BlockModel:
    """Generator, counting superoperators and trace row on the block space."""

    def __init__(self, model, per_transition):
        m, d = model.n_channels, model.dim
        n = d * d
        eye = np.eye(d)
        self.m, self.d = m, d
        self.gen = np.zeros((m * n, m * n), dtype=complex)
        self.jump = np.zeros_like(self.gen)
        self.jump2 = np.zeros_like(self.gen)
        silent = model.silent_ops
        for k in range(m):
            h = model.hamiltonians[k]
            w = sum(l.conj().T @ l for l in model.jump_ops[:, k])
            w = w + sum(s.conj().T @ s for s in silent[:, k])
            blk = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
            blk -= 0.5 * (np.kron(eye, w) + np.kron(w.T, eye))
            for s in silent[:, k]:
                blk += np.kron(s.conj(), s)
            self.gen[k * n : (k + 1) * n, k * n : (k + 1) * n] += blk
            for q in range(m):
                l = model.jump_ops[k, q]
                gain = np.kron(l.conj(), l)
                rows, cols = slice(k * n, (k + 1) * n), slice(q * n, (q + 1) * n)
                self.gen[rows, cols] += gain
                self.jump[rows, cols] += per_transition[k, q] * gain
                self.jump2[rows, cols] += per_transition[k, q] ** 2 * gain
        self.nu = np.asarray(per_transition, dtype=float)
        self.model = model
        self.trace = np.tile(np.eye(d).ravel(order="F"), m)

    def block_vector(self, memory_probs, rho):
        return np.concatenate([p * np.asarray(rho).ravel(order="F") for p in memory_probs])

    def memory_probs(self, x):
        n = self.d * self.d
        return np.array([(self.trace[:n] @ x[k * n : (k + 1) * n]).real for k in range(self.m)])

    def stationary(self):
        _, _, vh = np.linalg.svd(self.gen)
        x = vh[-1].conj()
        return x / (self.trace @ x)

    def current(self, x):
        return (self.trace @ self.jump @ x).real

    def drazin_apply(self, x, rhs):
        """L^+ rhs for rhs with zero trace, from the bordered system [[L, x], [t, 0]]."""
        size = len(x)
        a = np.zeros((size + 1, size + 1), dtype=complex)
        a[:size, :size] = self.gen
        a[:size, size] = x
        a[size, :size] = self.trace
        rhs = np.asarray(rhs)
        padded = np.concatenate([rhs, np.zeros((1,) + rhs.shape[1:])])
        return np.linalg.solve(a, padded)[:size]

    def noise_bordered(self, x):
        """Zero-frequency noise K - 2 Tr[J L^+ Q J rho] through one bordered solve."""
        jx = self.jump @ x
        y = self.drazin_apply(x, jx - x * (self.trace @ jx))
        k = (self.trace @ self.jump2 @ x).real
        return k - 2.0 * (self.trace @ self.jump @ y).real

    def tilted(self, chi):
        mat = self.gen.copy()
        for k in range(self.m):
            for q in range(self.m):
                l = self.model.jump_ops[k, q]
                if self.nu[k, q] != 0.0 and l.any():
                    n = self.d * self.d
                    rows, cols = slice(k * n, (k + 1) * n), slice(q * n, (q + 1) * n)
                    mat[rows, cols] += np.expm1(chi * self.nu[k, q]) * np.kron(l.conj(), l)
        return mat

    def tilted_cumulants(self):
        """(J, D, tolerance on D) from a five-point stencil on the dominant eigenvalue.

        The step keeps chi * |nu| at most 1e-3.  The tolerance on D is the
        eigenvalue round-off amplified by the stencil, 64 eps ||L||_1 / h^2,
        plus 1e-6 relative for the stencil's O(h^4) truncation.
        """
        h = 1e-3 / max(np.abs(self.nu).max(), 1e-300)
        lam = {}
        for j in (-2, -1, 0, 1, 2):
            ev = np.linalg.eigvals(self.tilted(j * h))
            lam[j] = ev[np.argmax(ev.real)].real
        current = (8.0 * (lam[1] - lam[-1]) - (lam[2] - lam[-2])) / (12.0 * h)
        noise = (-lam[2] + 16.0 * lam[1] - 30.0 * lam[0] + 16.0 * lam[-1] - lam[-2]) / (12.0 * h * h)
        norm = np.abs(self.gen).sum(axis=0).max()
        tol = 64.0 * EPS * norm / h**2 + 1e-6 * abs(noise)
        return current, noise, tol

    def propagator(self, t):
        return scipy.linalg.expm(t * self.gen)

    def moments_continuous(self, x0, burn_in, horizon):
        """Exact mean and variance of the charge on [burn_in, horizon] and P(k) at the horizon.

        Uses the block upper-triangular exponential of
        [[L, J, H2/2], [0, L, J], [0, 0, L]], whose first row holds the
        first and second chi-derivatives of exp(L_chi t).
        """
        xb = self.propagator(burn_in) @ x0
        e = _toeplitz3(self.gen, self.jump, 0.5 * self.jump2)
        big = scipy.linalg.expm((horizon - burn_in) * e)
        return self._moments(big, xb, self.propagator(horizon) @ x0)

    def moments_fixed_step(self, x0, burn_in, horizon, dt):
        """Exact moments of the fixed-step unraveling, step map 1 + dt L.

        A jump is counted when its step ends at or after ``burn_in``, as in
        the sampler; each counted step multiplies the generating function by
        1 + dt L + chi dt J + chi^2 dt H2 / 2 + O(chi^3).
        """
        n_steps = int(round(horizon / dt))
        burn = sum(1 for s in range(n_steps) if (s + 1) * dt < burn_in)
        step = np.eye(len(x0)) + dt * self.gen
        xb = np.linalg.matrix_power(step, burn) @ x0
        e = _toeplitz3(step, dt * self.jump, 0.5 * dt * self.jump2)
        big = np.linalg.matrix_power(e, n_steps - burn)
        return self._moments(big, xb, np.linalg.matrix_power(step, n_steps) @ x0)

    def _moments(self, big, xb, x_end):
        size = len(xb)
        first = self.trace @ big[:size, size : 2 * size] @ xb
        second = 2.0 * (self.trace @ big[:size, 2 * size :] @ xb)
        mean = first.real
        return mean, second.real - mean**2, self.memory_probs(x_end)


def _toeplitz3(a, b, c):
    z = np.zeros_like(a)
    return np.block([[a, b, c], [z, a, b], [z, z, a]])


# ---------------------------------------------------------------------------
# output parsing


def read_csv(path):
    """Header and float rows of a CSV written by run_config."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def _columns(header, rows):
    return {name: np.array([row[i] for row in rows]) for i, name in enumerate(header)}


def _merge(tables):
    """Concatenate the per-operation CSV tables of one dataset by column."""
    merged = {}
    for cols in tables:
        for name, vals in cols.items():
            merged.setdefault(name, []).append(vals)
    return {name: np.concatenate(parts) for name, parts in merged.items()}


# ---------------------------------------------------------------------------
# workload checks


def _maser_params(jf, params):
    keys = ("nl", "nr", "gl", "gr", "lam", "delta", "wl", "wr")
    return jf.MaserParams(**{k: params[k] for k in keys if k in params})


def check_sweep(jf, groups):
    """``groups`` maps a shipped config name to (base config, [(variant, csv path)])."""
    for group, (base, outputs) in groups.items():
        builtin = base["model"]["builtin"]
        params = base["model"]["params"]
        parameter = base["task"]["parameter"]
        by_variant = {}
        for variant, path in outputs:
            by_variant.setdefault(variant["label"], (variant, []))[1].append(
                _columns(*read_csv(path))
            )
        for label, (variant, tables) in by_variant.items():
            cols = _merge(tables)
            order = np.argsort(cols[parameter], kind="stable")
            cols = {k: v[order] for k, v in cols.items()}
            expected = base["task"]["values"]
            _require(
                np.array_equal(cols[parameter], expected),
                f"{group}/{label}: operations do not cover the shipped grid",
            )
            if builtin == "maser":
                _check_maser_sweep(jf, group, base, params, variant, cols)
            else:
                _check_qubit_sweep(jf, group, params, parameter, variant, cols)


def _check_maser_sweep(jf, group, base, params, variant, cols):
    label = variant["label"]
    feedback = variant.get("feedback", True)
    classical = variant.get("classical", False)
    also = base["task"].get("also", {})
    for i, value in enumerate(cols[base["task"]["parameter"]]):
        point = {**params, base["task"]["parameter"]: value}
        point.update({k: cols[k][i] for k in also})
        mp = _maser_params(jf, point)
        model = jf.maser_model(mp, feedback=feedback, classical=classical)
        weights = jf.work_weights(mp)
        block = BlockModel(model, weights.per_transition)
        current, noise, tol = block.tilted_cumulants()
        got_j = cols[f"{label}_current"][i]
        got_d = cols[f"{label}_noise"][i]
        where = f"{group}/{label} at {point['gl']:.6g}"
        _require(got_d >= 0.0, f"{where}: negative noise {got_d:.3e}")
        # the stencil's error on J stays below 2e-8 relative on the shipped grids
        _require(
            abs(got_j - current) <= 1e-7 * max(abs(current), 1e-12) + 1e-12,
            f"{where}: current {got_j!r} vs tilted generator {current!r}",
        )
        _require(
            abs(got_d - noise) <= tol,
            f"{where}: noise {got_d!r} vs tilted generator {noise!r} (tol {tol:.2e})",
        )
        power_norm = cols[f"{label}_power_norm"][i]
        scale = mp.gl * (mp.wl - mp.wr)
        _require(np.isclose(power_norm, got_j / scale, rtol=1e-12, atol=0.0),
                 f"{where}: power_norm is not current / (gl (wl - wr))")
        if mp.gl == mp.gr and mp.delta == 0.0 and not classical:
            _, p_nofb, p_fb = jf.maser_analytic(mp.nl, mp.nr, mp.gl / mp.lam)
            ref = p_fb if feedback else p_nofb
            _require(
                abs(power_norm - ref) <= 1e-8 * abs(ref),
                f"{where}: power_norm {power_norm!r} vs maser_analytic {ref!r}",
            )


def _check_qubit_sweep(jf, group, params, parameter, variant, cols):
    label = variant["label"]
    mode = variant.get("mode", "feedback")
    for i, value in enumerate(cols[parameter]):
        point = {"lam": 1.0, "delta": 0.0, **params, parameter: value}
        qp = jf.QubitParams(nbar=point["nbar"], gamma=point["gamma"], lam=point["lam"],
                            delta=point["delta"])
        if mode == "feedback":
            model = jf.qubit_cooling_model(qp)
        else:
            model = jf.qubit_baseline_model(qp, drive_on=mode == "always_on")
        block = BlockModel(model, np.zeros((2, 2)))
        x = block.stationary()
        rho = sum(x[k * 4 : (k + 1) * 4] for k in range(2)).reshape(2, 2, order="F")
        got_pop0 = cols[f"{label}_pop0"][i]
        got_c = cols[f"{label}_re_c01"][i] + 1j * cols[f"{label}_im_c01"][i]
        got_mem = cols[f"{label}_P(-1)"][i]
        where = f"{group}/{label} at {parameter}={value:.6g}"
        _require(abs(got_pop0 - rho[0, 0].real) <= 1e-9, f"{where}: ground population")
        _require(abs(got_c - rho[0, 1]) <= 1e-9, f"{where}: coherence")
        _require(abs(got_mem - block.memory_probs(x)[0]) <= 1e-9, f"{where}: memory")
        if mode == "feedback" and qp.delta == 0.0:
            ground, coherence, mem_minus = jf.qubit_analytic(qp.nbar, qp.gamma / qp.lam)
            _require(abs(got_pop0 - ground) <= 1e-9, f"{where}: vs qubit_analytic ground")
            _require(abs(got_c - coherence) <= 1e-9, f"{where}: vs qubit_analytic coherence")
            _require(abs(got_mem - mem_minus) <= 1e-9, f"{where}: vs qubit_analytic memory")


def _filon_cos(taus, f, omega):
    """Integral of cos(omega tau) times the piecewise-linear interpolant of f."""
    if omega == 0.0:
        return float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(taus)))
    s, c = np.sin(omega * taus), np.cos(omega * taus)
    slope = np.diff(f) / np.diff(taus)
    return float(
        np.sum((f[1:] * s[1:] - f[:-1] * s[:-1]) / omega + slope * (c[1:] - c[:-1]) / omega**2)
    )


def check_two_time(jf, spectra, correlations):
    """``spectra``/``correlations`` map feedback on/off to (base config, [csv paths])."""
    for feedback in spectra:
        base_s, spec_paths = spectra[feedback]
        _, corr_paths = correlations[feedback]
        mp = _maser_params(jf, base_s["model"]["params"])
        model = jf.maser_model(mp, feedback=feedback)
        block = BlockModel(model, jf.work_weights(mp).per_transition)
        x = block.stationary()
        jbar = block.current(x)
        tag = "feedback" if feedback else "no feedback"

        spec = _merge(_columns(*read_csv(p)) for p in spec_paths)
        order = np.argsort(spec["omega"])
        omegas, s_vals = spec["omega"][order], spec["S"][order]
        corr = _merge(_columns(*read_csv(p)) for p in corr_paths if p.endswith("_correlation.csv"))
        order = np.argsort(corr["tau"])
        taus, f_vals = corr["tau"][order], corr["F_smooth"][order]
        backgrounds = {
            _columns(*read_csv(p))["K"][0] for p in corr_paths if p.endswith("_background.csv")
        }
        _require(len(backgrounds) == 1, f"{tag}: correlation chunks disagree on K")
        k_bg = backgrounds.pop()
        k_ref = (block.trace @ block.jump2 @ x).real
        _require(abs(k_bg - k_ref) <= 1e-10 * abs(k_ref), f"{tag}: background K {k_bg!r} vs {k_ref!r}")

        # S(omega) = S(-omega) on the symmetric grid
        _require(np.allclose(omegas, -omegas[::-1], rtol=0, atol=1e-12), f"{tag}: grid not symmetric")
        scale = np.abs(s_vals).max()
        asym = np.abs(s_vals - s_vals[::-1]).max()
        _require(asym <= 1e-9 * scale, f"{tag}: S(omega) - S(-omega) reaches {asym:.3e}")

        # F(tau) against propagation in the block space on the uniform grid
        step = np.diff(taus)
        _require(np.allclose(step, step[0], rtol=1e-9), f"{tag}: tau grid not uniform")
        prop = block.propagator(step[0])
        y = block.jump @ x
        f_ref = np.empty(len(taus))
        for i in range(len(taus)):
            f_ref[i] = (block.trace @ block.jump @ y).real - jbar**2
            y = prop @ y
        f_scale = np.abs(f_ref).max()
        f_err = np.abs(f_vals - f_ref).max()
        _require(f_err <= 1e-9 * f_scale, f"{tag}: F(tau) off by {f_err:.3e}")
        _require(abs(f_vals[-1]) <= 0.05 * abs(f_vals[0]),
                 f"{tag}: F(tau_max) = {f_vals[-1]:.3e} has not decayed")

        # S against K + 2 int cos(omega tau) F dtau: the grid part from the
        # correlation output, the tail past tau_max exact in the block space;
        # the linear interpolant's error is at most h^2/8 max|F''| per unit lag
        h = step[0]
        f2 = np.abs(np.diff(f_vals, 2)).max() / h**2
        tol_grid = 2.0 * (h**2 / 8.0) * f2 * (taus[-1] - taus[0])
        b = block.jump @ x - x * jbar
        tail_start = scipy.linalg.expm(taus[-1] * block.gen) @ b
        tj = block.trace @ block.jump
        for w, s in zip(omegas, s_vals):
            # S = K - 2 Re tJ (L - i w)^-1 b, and the tail past T is
            # int_T^inf exp((L - i w) tau) b dtau = -(L - i w)^-1 exp(-i w T) exp(L T) b,
            # with the Drazin inverse in place of L^-1 at w = 0
            rhs = np.column_stack([b, tail_start])
            if w == 0.0:
                y = block.drazin_apply(x, rhs)
            else:
                y = np.linalg.solve(block.gen - 1j * w * np.eye(len(x)), rhs)
            s_ref = k_ref - 2.0 * (tj @ y[:, 0]).real
            _require(abs(s - s_ref) <= 1e-9 * scale,
                     f"{tag}: S({w:.4g}) = {s!r} vs block-space resolvent {s_ref!r}")
            tail = -(np.exp(-1j * w * taus[-1]) * (tj @ y[:, 1])).real
            transform = k_bg + 2.0 * (_filon_cos(taus, f_vals, w) + tail)
            _require(
                abs(s - transform) <= tol_grid + 1e-9 * scale,
                f"{tag}: S({w:.4g}) = {s!r} vs transform {transform!r} (tol {tol_grid:.2e})",
            )


def check_trajectories(jf, batches):
    """``batches`` maps a scheme to (config, [csv path per batch]); pooled over batches."""
    for scheme, (cfg, paths) in batches.items():
        task = cfg["task"]
        mp = _maser_params(jf, cfg["model"]["params"])
        model = jf.maser_model(mp)
        weights = jf.work_weights(mp)
        block = BlockModel(model, weights.per_transition)
        labels = model.channels
        probs0 = [cfg["initial"]["memory"][c] for c in labels]
        x0 = block.block_vector(probs0, np.eye(model.dim) / model.dim)
        horizon, burn_in = task["horizon"], task["burn_in"]
        if scheme == "waiting-time":
            mean_q, var_q, freq_h = block.moments_continuous(x0, burn_in, horizon)
        else:
            mean_q, var_q, freq_h = block.moments_fixed_step(x0, burn_in, horizon, task["dt"])
        x = block.stationary()
        window = horizon - burn_in
        # the package's stationary values plus the exact finite-window
        # (and, for fixed-step, O(dt)) offsets of the block space
        ext = jf.extended_liouvillian(model)
        state = jf.feedback_steady_state(model, ext=ext)
        _, marg, _ = jf.marginals(state)
        exp_mean = window * jf.average_current(ext, weights, state) + (
            mean_q - window * block.current(x)
        )
        exp_var = window * jf.steady_noise(ext, weights, state=state) + (
            var_q - window * block.noise_bordered(x)
        )
        exp_freq = marg + (freq_h - block.memory_probs(x))

        tables = [_columns(*read_csv(p)) for p in paths]
        n_total = sum(int(t["n_traj"][0]) for t in tables)
        nb = len(tables)
        mean = np.mean([t["mean_charge"][0] for t in tables])
        mean_se = np.sqrt(sum(t["mean_charge_se"][0] ** 2 for t in tables)) / nb
        var = np.mean([t["var_charge"][0] for t in tables])
        var_se = np.sqrt(sum(t["var_charge_se"][0] ** 2 for t in tables)) / nb
        z_mean = (mean - exp_mean) / mean_se
        z_var = (var - exp_var) / var_se
        _require(abs(z_mean) <= MC_Z, f"{scheme}: mean charge off by {z_mean:.2f} SE")
        _require(abs(z_var) <= MC_Z, f"{scheme}: charge variance off by {z_var:.2f} SE")
        for k, label in enumerate(labels):
            freq = np.mean([t[f"freq({label})"][0] for t in tables])
            p = exp_freq[k]
            se = np.sqrt(max(p * (1.0 - p), 1e-300) / n_total)
            z = (freq - p) / se
            _require(abs(z) <= MC_Z, f"{scheme}: memory {label} frequency off by {z:.2f} SE")
