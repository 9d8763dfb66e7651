"""Stochastic jump trajectories of feedback models.

Two sampling schemes share one batched engine:

* ``"waiting-time"`` (default): between jumps the conditional state evolves
  under the no-jump propagator exp(-i H_eff(k) t); the next jump time is
  drawn by inverse-transform sampling of the survival probability
  (bisection on a monotone exponential sum), the channel from the relative
  jump rates at that instant.  No time-discretization error.
* ``"fixed-step"``: the literal discrete unraveling with step dt; channel q
  fires with probability dt * Tr[L_q rho L_q^dag], otherwise the normalized
  no-jump map is applied.

Randomness is drawn from counter-based per-trajectory streams derived from
``(master_seed, trajectory_index)``, so results are bit-for-bit reproducible
and independent of batching.  Monitored jumps reset the memory to their
channel; silent jumps update the state only and never carry charge.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError
from .superops import no_jump_generator, sandwich, vec

__all__ = [
    "TrajectoryRecord",
    "McEstimate",
    "sample_trajectory",
    "mc_estimate",
    "charge_from_record",
    "trajectory_stream",
]

UNIFORM_BLOCK = 1024  # uniforms pre-drawn per trajectory by the fixed-step scheme
MAX_STEP_PROBABILITY = 0.05


def trajectory_stream(master_seed, index):
    """Counter-based random stream of trajectory ``index`` under a master seed.

    In :func:`mc_estimate` the stream's first uniform samples the initial
    memory value; everything after that is consumed by the sampling engine.
    Replaying a batch member by hand therefore means drawing that uniform
    before handing the stream to :func:`sample_trajectory`.
    """
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(index),))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class TrajectoryRecord:
    """Full event record of one trajectory.

    ``labels`` lists monitored channels first, then silent ones;
    ``jump_channels`` indexes into it.  ``memory_before[j]`` is the
    monitored memory index right before jump j.  The running charge uses
    the per-transition weights supplied at sampling time and respects the
    burn-in window.
    """

    labels: tuple
    n_monitored: int
    initial_memory: int
    jump_times: np.ndarray
    jump_channels: np.ndarray
    memory_before: np.ndarray
    final_state: np.ndarray
    final_memory: int
    horizon: float
    burn_in: float
    charge: float

    def memory_path(self, times):
        """Memory index at each query time (last monitored jump wins)."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        mono = self.jump_channels < self.n_monitored
        seq = np.concatenate(
            [[self.initial_memory], self.jump_channels[mono]]
        ).astype(np.intp)
        idx = np.searchsorted(self.jump_times[mono], times, side="right")
        return seq[idx]


def charge_from_record(record, weights, mode="transition"):
    """Recompute the accumulated charge of a record.

    ``mode="transition"`` uses nu[k, q]; ``mode="channel"`` ignores the
    memory and uses the per-channel weights (defined only for
    channel-resolved counting).  Jumps outside [burn_in, horizon] and
    silent jumps never contribute.
    """
    m = record.n_monitored
    mono = record.jump_channels < m
    sel = mono & (record.jump_times >= record.burn_in)
    ch = record.jump_channels[sel]
    if mode == "transition":
        # reconstruct the memory value before each jump
        mem_before = record.memory_before[sel]
        return float(weights.per_transition[ch, mem_before].sum())
    if mode == "channel":
        return float(weights.per_channel[ch].sum())
    raise ValidationError(f"unknown charge mode {mode!r}")


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo summary over a batch of trajectories.

    Charges are accumulated over [burn_in, horizon]; memory frequencies are
    occupation fractions at the horizon.  ``grid_charges`` (trajectories x
    grid points) is filled only when a charge grid was requested.
    """

    n_traj: int
    scheme: str
    master_seed: int
    horizon: float
    burn_in: float
    mean_charge: float
    mean_charge_se: float
    var_charge: float
    var_charge_se: float
    memory_labels: tuple
    memory_freq: np.ndarray
    memory_freq_se: np.ndarray
    charge_grid: Optional[np.ndarray] = None
    grid_charges: Optional[np.ndarray] = None
    records: Optional[tuple] = None


# ---------------------------------------------------------------------------
# shared precomputation


class _EngineTables:
    """Per-memory operator tables shared by both schemes."""

    def __init__(self, model, weights, dt=None):
        if weights.channels != model.channels:
            raise ValidationError("weights channels do not match the model")
        m, d = model.n_channels, model.dim
        s = len(model.silent_labels)
        self.model = model
        self.m, self.d, self.s = m, d, s
        self.labels = model.channels + model.silent_labels
        # ops[k]: all channels conditioned on memory k, monitored first
        self.ops = [
            np.concatenate([model.jump_ops[:, k], model.silent_ops[:, k]], axis=0)
            if s
            else model.jump_ops[:, k]
            for k in range(m)
        ]
        self.loss = [model.loss_operator(k) for k in range(m)]
        # charge added when channel c fires at memory k (silent rows are 0)
        self.charge_table = np.zeros((m + s, m))
        self.charge_table[:m, :] = weights.per_transition
        self.max_rate = max(np.linalg.eigvalsh(w).max() for w in self.loss)
        if dt is not None:
            if dt <= 0:
                raise ValidationError("dt must be positive")
            if dt * self.max_rate > MAX_STEP_PROBABILITY:
                raise ValidationError(
                    f"dt * max total rate = {dt * self.max_rate:.3g} exceeds "
                    f"{MAX_STEP_PROBABILITY}; reduce the step"
                )

    def waiting_tables(self):
        """Eigen-decomposed no-jump propagators for the waiting-time scheme."""
        tables = []
        for k in range(self.m):
            h_eff = self.model.hamiltonians[k] - 0.5j * self.loss[k]
            evals, v = np.linalg.eig(h_eff)
            cond = np.linalg.cond(v)
            if not np.isfinite(cond) or cond > 1e10:
                raise ValidationError(
                    f"H_eff at memory {self.model.channels[k]!r} is near-defective "
                    f"(eigenvector condition {cond:.2e}); waiting-time sampling "
                    "is unreliable, use the fixed-step scheme"
                )
            vinv = np.linalg.inv(v)
            gram = v.conj().T @ v
            rates = (-1j * (evals[:, None] - evals[None, :].conj())).ravel()
            tables.append((evals, v, vinv, gram, rates))
        return tables

    def fixed_tables(self, dt):
        """Step matrices for the fixed-step scheme (row-vector convention)."""
        step_t, probe, jump_mats = [], [], []
        for k in range(self.m):
            gen0 = no_jump_generator(self.model.hamiltonians[k], list(self.ops[k]))
            n = self.d * self.d
            step_t.append((np.eye(n) + dt * gen0.matrix).T.copy())
            w_cols = np.stack(
                [vec((op.conj().T @ op).conj()) for op in self.ops[k]], axis=1
            )
            probe.append(w_cols)
            jump_mats.append([sandwich(op).matrix for op in self.ops[k]])
        return step_t, probe, jump_mats


def _survival(coeff, rates, tvals):
    return np.einsum("nj,nj->n", coeff, np.exp(np.multiply.outer(tvals, rates))).real


class _Recorder:
    def __init__(self, n, enabled):
        self.enabled = enabled
        if enabled:
            self.times = [[] for _ in range(n)]
            self.channels = [[] for _ in range(n)]
            self.before = [[] for _ in range(n)]

    def add(self, idx, t, channel, mem_before):
        if self.enabled:
            self.times[idx].append(t)
            self.channels[idx].append(channel)
            self.before[idx].append(mem_before)


def _run_waiting(tables, states, memory, streams, horizon, burn_in, grid, recorder):
    n = states.shape[0]
    d = tables.d
    wtabs = tables.waiting_tables()
    t = np.zeros(n)
    charge = np.zeros(n)
    active = np.ones(n, dtype=bool)
    snapshots = np.zeros((n, len(grid))) if grid is not None else None
    while np.any(active):
        for k in range(tables.m):
            idx = np.where(active & (memory == k))[0]
            if len(idx) == 0:
                continue
            evals, v, vinv, gram, rates = wtabs[k]
            rho_g = states[idx]
            a = np.einsum("ab,nbc,dc->nad", vinv, rho_g, vinv.conj())
            coeff = (a * gram.T[None, :, :]).reshape(len(idx), d * d)
            t_rem = horizon - t[idx]
            u = np.array([streams[i].random() for i in idx])
            s_end = _survival(coeff, rates, t_rem)
            will_jump = u >= s_end

            # finish trajectories that survive to the horizon
            done = ~will_jump
            if np.any(done):
                sel = idx[done]
                e = np.exp(-1j * np.multiply.outer(t_rem[done], evals))
                a_t = a[done] * (e[:, :, None] * e[:, None, :].conj())
                rho_end = np.einsum("ab,nbc,dc->nad", v, a_t, v.conj())
                rho_end /= s_end[done][:, None, None]
                states[sel] = rho_end
                t[sel] = horizon
                active[sel] = False

            if not np.any(will_jump):
                continue
            sel = idx[will_jump]
            cj = coeff[will_jump]
            uj = u[will_jump]
            hi = t_rem[will_jump].copy()
            lo = np.zeros(len(sel))
            # fixed depth keeps the arithmetic independent of batch makeup;
            # 60 halvings exhaust double precision for any practical horizon
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                s_mid = _survival(cj, rates, mid)
                above = s_mid > uj
                lo = np.where(above, mid, lo)
                hi = np.where(above, hi, mid)
            t_star = 0.5 * (lo + hi)

            # conditional state at the jump instant
            e = np.exp(-1j * np.multiply.outer(t_star, evals))
            a_t = a[will_jump] * (e[:, :, None] * e[:, None, :].conj())
            rho_star = np.einsum("ab,nbc,dc->nad", v, a_t, v.conj())
            norm = np.einsum("naa->n", rho_star).real
            rho_star /= norm[:, None, None]

            # channel from the relative rates at t_star
            ops_k = tables.ops[k]
            w = np.einsum("qab,nbc,qac->nq", ops_k, rho_star, ops_k.conj()).real
            w = np.clip(w, 0.0, None)
            cum = np.cumsum(w, axis=1)
            u2 = np.array([streams[i].random() for i in sel])
            target = u2 * cum[:, -1]
            picks = np.minimum(
                (cum <= target[:, None]).sum(axis=1), tables.m + tables.s - 1
            )

            t_jump = t[sel] + t_star
            for q in np.unique(picks):
                qi = picks == q
                op = ops_k[q]
                new = np.einsum("ab,nbc,dc->nad", op, rho_star[qi], op.conj())
                tr = np.einsum("naa->n", new).real
                states[sel[qi]] = new / tr[:, None, None]
            counted = t_jump >= burn_in
            gains = tables.charge_table[picks, k]
            charge[sel[counted]] += gains[counted]
            if snapshots is not None:
                cols = np.searchsorted(grid, t_jump, side="left")
                for i, col, g, ok in zip(sel, cols, gains, counted):
                    if ok and g != 0.0 and col < len(grid):
                        snapshots[i, col:] += g
            if recorder.enabled:
                for j, i in enumerate(sel):
                    recorder.add(i, t_jump[j], int(picks[j]), k)
            t[sel] = t_jump
            memory[sel[picks < tables.m]] = picks[picks < tables.m]
    return charge, snapshots


def _run_fixed(tables, states, memory, streams, horizon, burn_in, grid, recorder, dt):
    n, d = states.shape[0], tables.d
    step_t, probe, jump_mats = tables.fixed_tables(dt)
    n_steps = int(round(horizon / dt))
    if abs(n_steps * dt - horizon) > 1e-9 * max(1.0, horizon):
        raise ValidationError("horizon must be an integer number of steps")
    vecs = np.stack([vec(states[i]) for i in range(n)])
    charge = np.zeros(n)
    snapshots = np.zeros((n, len(grid))) if grid is not None else None
    tr_idx = (np.arange(d) * d + np.arange(d))  # trace positions of a vec'd matrix
    buf = np.empty((n, UNIFORM_BLOCK))
    for step in range(n_steps):
        off = step % UNIFORM_BLOCK
        if off == 0:
            for i in range(n):
                buf[i] = streams[i].random(UNIFORM_BLOCK)
        u = buf[:, off]
        t_jump = (step + 1) * dt
        # group by the memory at the start of the step so a jump cannot
        # re-trigger in its destination group within the same step
        mem_step = memory.copy()
        for k in range(tables.m):
            idx = np.where(mem_step == k)[0]
            if len(idx) == 0:
                continue
            vg = vecs[idx]
            probs = dt * (vg @ probe[k]).real
            np.clip(probs, 0.0, None, out=probs)
            cum = np.cumsum(probs, axis=1)
            total = cum[:, -1]
            ug = u[idx]
            jumped = ug < total
            # no-jump update, renormalized
            stay = ~jumped
            if np.any(stay):
                moved = vg[stay] @ step_t[k]
                tr = moved[:, tr_idx].sum(axis=1).real
                vecs[idx[stay]] = moved / tr[:, None]
            if np.any(jumped):
                picks = (cum[jumped] <= ug[jumped][:, None]).sum(axis=1)
                picks = np.minimum(picks, tables.m + tables.s - 1)
                sel = idx[jumped]
                for q in np.unique(picks):
                    qi = picks == q
                    moved = vecs[sel[qi]] @ jump_mats[k][q].T
                    tr = moved[:, tr_idx].sum(axis=1).real
                    vecs[sel[qi]] = moved / tr[:, None]
                counted = t_jump >= burn_in
                gains = tables.charge_table[picks, k]
                if counted:
                    charge[sel] += gains
                if snapshots is not None and counted:
                    col = np.searchsorted(grid, t_jump, side="left")
                    if col < len(grid):
                        for i, g in zip(sel, gains):
                            if g != 0.0:
                                snapshots[i, col:] += g
                if recorder.enabled:
                    for j, i in enumerate(sel):
                        recorder.add(i, t_jump, int(picks[j]), k)
                mono = picks < tables.m
                memory[sel[mono]] = picks[mono]
    for i in range(n):
        states[i] = vecs[i].reshape(d, d, order="F")
    return charge, snapshots


def _check_density(rho, d):
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d, d):
        raise ValidationError(f"initial state has shape {rho.shape}, expected ({d}, {d})")
    if np.abs(rho - rho.conj().T).max() > 1e-10 * max(1.0, np.abs(rho).max()):
        raise ValidationError("initial state is not hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise ValidationError("initial state is not unit trace")
    if np.linalg.eigvalsh(rho).min() < -1e-10:
        raise ValidationError("initial state is not positive semidefinite")
    return rho


def _run_batch(
    model,
    weights,
    rho0,
    memories0,
    streams,
    horizon,
    scheme,
    dt,
    burn_in,
    grid,
    collect_records,
):
    if horizon <= 0:
        raise ValidationError("horizon must be positive")
    if not 0.0 <= burn_in < horizon:
        raise ValidationError("burn_in must lie in [0, horizon)")
    tables = _EngineTables(model, weights, dt=dt if scheme == "fixed-step" else None)
    rho0 = _check_density(rho0, model.dim)
    n = len(memories0)
    states = np.broadcast_to(rho0, (n, model.dim, model.dim)).astype(complex).copy()
    memory = np.asarray(memories0, dtype=np.intp).copy()
    recorder = _Recorder(n, collect_records)
    if grid is not None:
        grid = np.asarray(grid, dtype=float)
        if np.any(np.diff(grid) < 0) or grid.min() < 0 or grid.max() > horizon:
            raise ValidationError("charge grid must be ascending within [0, horizon]")
    if scheme == "waiting-time":
        charge, snapshots = _run_waiting(
            tables, states, memory, streams, horizon, burn_in, grid, recorder
        )
    elif scheme == "fixed-step":
        if dt is None:
            raise ValidationError("fixed-step scheme needs dt")
        charge, snapshots = _run_fixed(
            tables, states, memory, streams, horizon, burn_in, grid, recorder, dt
        )
    else:
        raise ValidationError(f"unknown scheme {scheme!r}")
    return tables, states, memory, charge, snapshots, recorder


def sample_trajectory(
    model,
    weights,
    rho0,
    k0,
    horizon,
    scheme="waiting-time",
    rng=None,
    dt=None,
    burn_in=0.0,
):
    """Sample one trajectory and return its full record.

    Parameters
    ----------
    model : FeedbackModel
    weights : CountingWeights
    rho0 : ndarray
        Initial system density matrix.
    k0 : str
        Initial memory value (a monitored channel label).
    horizon : float
    scheme : {"waiting-time", "fixed-step"}
    rng : int or numpy.random.Generator
        Integer seeds derive the stream as trajectory 0 of that master
        seed.  To replay member i of an :func:`mc_estimate` batch, take
        :func:`trajectory_stream`, draw one uniform (the batch spends it
        on the initial memory), then pass the stream here.
    dt : float
        Step size, fixed-step scheme only.
    burn_in : float
        Jumps before this time carry no charge.
    """
    if rng is None:
        rng = 0
    stream = trajectory_stream(rng, 0) if isinstance(rng, (int, np.integer)) else rng
    k0_idx = model.channel_index(k0)
    tables, states, memory, charge, _, recorder = _run_batch(
        model,
        weights,
        rho0,
        np.array([k0_idx]),
        [stream],
        horizon,
        scheme,
        dt,
        burn_in,
        None,
        True,
    )
    return TrajectoryRecord(
        labels=tables.labels,
        n_monitored=model.n_channels,
        initial_memory=k0_idx,
        jump_times=np.asarray(recorder.times[0], dtype=float),
        jump_channels=np.asarray(recorder.channels[0], dtype=np.intp),
        memory_before=np.asarray(recorder.before[0], dtype=np.intp),
        final_state=states[0],
        final_memory=int(memory[0]),
        horizon=float(horizon),
        burn_in=float(burn_in),
        charge=float(charge[0]),
    )


def mc_estimate(
    model,
    weights,
    rho0,
    memory0,
    horizon,
    n_traj,
    scheme="waiting-time",
    master_seed=0,
    dt=None,
    burn_in=0.0,
    charge_grid=None,
    collect_records=False,
):
    """Monte Carlo estimate of charge statistics and memory occupation.

    Trajectory i draws all its randomness from a Philox stream keyed by
    ``(master_seed, i)``; the first draw samples the initial memory from
    ``memory0`` (a distribution over monitored labels).  Results are
    bit-for-bit reproducible for fixed inputs, independent of batch
    organization.

    Parameters
    ----------
    memory0 : mapping or array
        Initial memory distribution, label-keyed or in channel order.
    burn_in : float
        Charges collected only over [burn_in, horizon].
    charge_grid : array_like, optional
        Absolute times at which per-trajectory accumulated charges are
        recorded (enables variance-growth regressions).
    collect_records : bool
        Keep the full per-trajectory event records (memory heavy).
    """
    if n_traj < 1:
        raise ValidationError("need at least one trajectory")
    m = model.n_channels
    if isinstance(memory0, dict):
        unknown = set(map(str, memory0)) - set(model.channels)
        if unknown:
            raise ValidationError(f"memory0 has unknown labels {sorted(unknown)}")
        dist = np.array([float(dict(memory0).get(c, 0.0)) for c in model.channels])
    else:
        dist = np.asarray(memory0, dtype=float)
        if dist.shape != (m,):
            raise ValidationError(f"memory0 shape {dist.shape}, expected ({m},)")
    if dist.min() < 0 or abs(dist.sum() - 1.0) > 1e-10:
        raise ValidationError("memory0 must be a probability distribution")

    streams = [trajectory_stream(master_seed, i) for i in range(n_traj)]
    cum = np.cumsum(dist)
    memories0 = np.array(
        [int(np.searchsorted(cum, s.random(), side="right")) for s in streams]
    )
    np.clip(memories0, 0, m - 1, out=memories0)

    tables, states, memory, charge, snapshots, recorder = _run_batch(
        model,
        weights,
        rho0,
        memories0,
        streams,
        horizon,
        scheme,
        dt,
        burn_in,
        charge_grid,
        collect_records,
    )

    mean = charge.mean()
    centered = charge - mean
    var = centered @ centered / (n_traj - 1) if n_traj > 1 else 0.0
    mean_se = np.sqrt(var / n_traj)
    m4 = np.mean(centered**4)
    var_se = np.sqrt(max(m4 - var**2, 0.0) / n_traj)
    freq = np.bincount(memory, minlength=m) / n_traj
    freq_se = np.sqrt(freq * (1.0 - freq) / n_traj)

    records = None
    if collect_records:
        records = tuple(
            TrajectoryRecord(
                labels=tables.labels,
                n_monitored=m,
                initial_memory=int(memories0[i]),
                jump_times=np.asarray(recorder.times[i], dtype=float),
                jump_channels=np.asarray(recorder.channels[i], dtype=np.intp),
                memory_before=np.asarray(recorder.before[i], dtype=np.intp),
                final_state=states[i],
                final_memory=int(memory[i]),
                horizon=float(horizon),
                burn_in=float(burn_in),
                charge=float(charge[i]),
            )
            for i in range(n_traj)
        )

    return McEstimate(
        n_traj=n_traj,
        scheme=scheme,
        master_seed=int(master_seed),
        horizon=float(horizon),
        burn_in=float(burn_in),
        mean_charge=float(mean),
        mean_charge_se=float(mean_se),
        var_charge=float(var),
        var_charge_se=float(var_se),
        memory_labels=model.channels,
        memory_freq=freq,
        memory_freq_se=freq_se,
        charge_grid=None if charge_grid is None else np.asarray(charge_grid, dtype=float),
        grid_charges=snapshots,
        records=records,
    )
