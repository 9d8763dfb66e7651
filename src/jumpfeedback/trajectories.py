"""Stochastic jump trajectories of feedback models.

Two sampling schemes share one event-driven engine.  Each round finds the
next jump of every active trajectory in one vectorized search, then applies
all those jumps through one path: channel pick, state update (one gathered
product with a stacked (memory, channel) table), charge, grid snapshots,
records and memory.

* ``"waiting-time"`` (default): between jumps the conditional state evolves
  under the no-jump propagator exp(-i H_eff(k) t).  States are held in the
  eigenbasis of H_eff(k), where that evolution is elementwise and the trace,
  the survival probability S(t), is a sum of exponentials whose d^2 growth
  factors come from d exponentials, exp(r_ab t) = e^{kappa_a t}
  conj(e^{kappa_b t}).  The next jump time solves S(t) = u
  (inverse-transform sampling) by a safeguarded Halley iteration on log S
  from t = 0, falling back to bisection when a step leaves the bracket; the
  channel follows the relative jump rates at that instant.  No
  time-discretization error.  A near-defective H_eff, whose eigenvectors
  are no usable basis, is refused in favour of the fixed-step scheme.
* ``"fixed-step"``: the literal discrete unraveling with step dt; channel q
  fires with probability dt * Tr[L_q rho L_q^dag], otherwise the normalized
  no-jump map 1 + dt L_0(k) is applied.  One matrix product with a table
  built from powers of that map gives the jump weights over the next
  LOOKAHEAD steps; a trajectory jumps at its first step whose uniform falls
  below them, or advances by the whole window.  Jumps are exactly those of
  stepping one dt at a time.  States stay in the physical basis.

Randomness is drawn from counter-based per-trajectory streams derived from
``(master_seed, trajectory_index)``, so results are bit-for-bit reproducible
and independent of batching and thread count.  Monitored jumps reset the
memory to their channel; silent jumps update the state only and never
carry charge.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.random.bit_generator import ISeedSequence

from .errors import ValidationError

__all__ = [
    "TrajectoryRecord",
    "McEstimate",
    "sample_trajectory",
    "mc_estimate",
    "charge_from_record",
    "trajectory_stream",
]

UNIFORM_BLOCK = 1024  # uniforms pre-drawn per trajectory, fixed-step: one per step
WAITING_BLOCK = 128  # the same for the waiting-time scheme: two per jump
MAX_STEP_PROBABILITY = 0.05
LOOKAHEAD = 64  # fixed-step steps searched for a jump per round
ROOT_TOLERANCE = 1e-14  # relative bracket width at which a jump-time root has converged
ACCEPT_STEP = 1e-7  # relative Halley step that is taken as the last one
MAX_ROOT_ITERATIONS = 100


# constants of numpy's SeedSequence hash (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)


def _uint32_words(n):
    """Little-endian 32-bit words of a non-negative integer, as SeedSequence splits it."""
    n = int(n)
    if n < 0:
        raise ValidationError(f"expected a non-negative integer, got {n}")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _philox_keys(master_seed, spawn_words):
    """Philox keys of ``SeedSequence(entropy=master_seed, spawn_key=(i,))``.

    ``spawn_words`` holds one row of :func:`_uint32_words` per index, all of
    one width.  Row r of the result is the key that SeedSequence hands to
    ``np.random.Philox`` for index r: numpy's entropy pool and output hash,
    run in wrapping uint32 arithmetic with the index axis vectorized.
    """
    run = _uint32_words(master_seed)
    # a spawned sequence pads its run entropy with zeros to the pool size
    run += [0] * (_POOL_SIZE - len(run))
    n = len(spawn_words)
    entropy = np.hstack([np.tile(np.array(run, dtype=np.uint32), (n, 1)), spawn_words])
    # the hash constant advances the same way for every index
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return out ^ (out >> _XSHIFT)

    pool = [hashmix(entropy[:, i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, entropy.shape[1]):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    # generate_state(2, np.uint64): four output words, paired little-endian
    hash_const = _INIT_B
    state = np.empty((n, _POOL_SIZE), dtype=np.uint32)
    for i in range(_POOL_SIZE):
        value = pool[i] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> _XSHIFT)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _PhiloxKey(ISeedSequence):
    """Seed for ``np.random.Philox`` whose state is a precomputed key."""

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def _streams(master_seed, spawn_words):
    """One Philox generator per row of ``spawn_words`` (see :func:`_philox_keys`)."""
    return [
        np.random.Generator(np.random.Philox(_PhiloxKey(key)))
        for key in _philox_keys(master_seed, spawn_words)
    ]


def trajectory_stream(master_seed, index):
    """Counter-based random stream of trajectory ``index`` under a master seed.

    The stream yields the same numbers as
    ``Generator(Philox(SeedSequence(entropy=master_seed, spawn_key=(index,))))``.
    In :func:`mc_estimate` the stream's first uniform samples the initial
    memory value; everything after that is consumed by the sampling engine.
    Replaying a batch member by hand therefore means drawing that uniform
    before handing the stream to :func:`sample_trajectory`.  The engine
    uses the stream's uniforms in order but draws them in whole blocks.
    """
    return _streams(master_seed, np.array([_uint32_words(index)], dtype=np.uint32))[0]


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
    occupation fractions at the horizon.  ``rounds`` counts the engine's
    rounds over the batch, ``jump_events`` the jumps it applied, monitored
    and silent, and ``survival_evaluations`` the per-trajectory exponential
    evaluations of the waiting-time survival: one horizon check per round,
    plus one per root-search step past t = 0 (0 for fixed-step).  ``grid_charges``
    (trajectories x grid points) is filled only when a charge grid was
    requested.
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
    rounds: int
    jump_events: int
    survival_evaluations: int
    charge_grid: Optional[np.ndarray] = None
    grid_charges: Optional[np.ndarray] = None
    records: Optional[tuple] = None


# ---------------------------------------------------------------------------
# engine


def _growth(kappa, t):
    """Rows of exp(r_ab t) = e^{kappa_a t} conj(e^{kappa_b t}): d exponentials per row."""
    e = np.exp(t[:, None] * kappa)
    return (e[:, :, None] * e.conj()[:, None, :]).reshape(len(t), kappa.shape[1] ** 2)


def _jump_time(coeff, kappa, u, t_max, evaluations=None):
    """Solve S(t) = u for t in (0, t_max], S(t) = Re sum_ab coeff_ab exp(r_ab t).

    ``coeff`` holds flat rows of c_ab and ``kappa`` the decays with
    r_ab = kappa_a + kappa_b^*.  Requires S(0) = 1 > u >= S(t_max) with S
    non-increasing.  Halley steps on f = log S - log u start at t = 0,
    where every exponential is 1 and S, S', S'' cost no evaluation; a step
    that leaves the bracket [lo, hi] kept around the root is replaced by
    bisection.  A step no longer than ACCEPT_STEP * max(t, 1), whose Newton
    step is as short, is taken and ends the search, since the next one would
    be of the order of its cube.  Every element stops on its own test, so its
    arithmetic never depends on the rest of the batch.  ``evaluations``, if
    given, gains each element's survival evaluations (one per step taken at
    t > 0).
    """
    n = len(u)
    rates = (kappa[:, :, None] + kappa.conj()[:, None, :]).reshape(coeff.shape)
    # rows of c, c r and c r^2: S, S' and S'' are their sums weighted by the growth
    moments = np.stack([coeff, coeff * rates, coeff * rates * rates], axis=1)
    t = np.zeros(n)
    idx = np.arange(n)
    lo, hi, x, log_u = np.zeros(n), np.array(t_max, dtype=float), t.copy(), np.log(u)
    s, ds, d2s = moments.sum(axis=2).real.T
    for _ in range(MAX_ROOT_ITERATIONS):
        above = s > u
        lo = np.where(above, x, lo)
        hi = np.where(above, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            f, df = np.log(s) - log_u, ds / s
            d2f = d2s / s - df * df
            step = -2.0 * f * df / (2.0 * df * df - f * d2f)
            newton = f / df
        new = x + step
        scale = np.maximum(x, 1.0)
        tol = ACCEPT_STEP * scale
        # the Newton step must be as short: where S is flat (S' = 0 at t = 0
        # in a dark state) the Halley step vanishes far from the root.  An
        # accepted step may land on or just past a bracket end, so the
        # acceptance test comes before the bracket test
        accepted = (np.abs(step) <= tol) & (np.abs(newton) <= tol)
        bisect = ~(accepted | ((new > lo) & (new < hi)))
        new[bisect] = 0.5 * (lo[bisect] + hi[bisect])
        t[idx] = new
        keep = ~(accepted | (hi - lo <= ROOT_TOLERANCE * scale))
        if not keep.any():
            break
        idx, moments, kappa, u, log_u = idx[keep], moments[keep], kappa[keep], u[keep], log_u[keep]
        lo, hi, x = lo[keep], hi[keep], new[keep]
        if evaluations is not None:
            evaluations[idx] += 1
        s, ds, d2s = np.einsum("nkx,nx->kn", moments, _growth(kappa, x)).real
    return t


class _Batch:
    """A batch of trajectories: stacked (memory, channel) tables, the state
    of every trajectory, and the one path that applies jumps for both schemes.

    A trajectory at memory k holds its state as a flat row a = A.ravel()
    (row-major) with rho = V_k A V_k^dag.  The basis V_k holds the
    eigenvectors of H_eff(k) when ``eigen`` is set (waiting-time) and is the
    identity otherwise (fixed-step, where a is rho itself).  In it
    ``jump_maps[k, q]`` = M (x) M^*, M = V_k'^-1 L_q(k) V_k, takes a to the
    post-jump row in the basis of the next memory k' = ``next_memory[k, q]``,
    ``rate_rows[k, q] . a`` = Tr[L_q rho L_q^dag] and ``trace_rows[k] . a``
    = Tr rho.
    """

    def __init__(
        self, model, weights, rho0, memories0, streams, burn_in, grid, record, block, window, eigen
    ):
        if weights.channels != model.channels:
            raise ValidationError("weights channels do not match the model")
        m, d, n = model.n_channels, model.dim, len(memories0)
        self.m, self.d, self.n_ops = m, d, m + len(model.silent_labels)
        self.labels = model.channels + model.silent_labels
        loss = np.stack([model.loss_operator(k) for k in range(m)])
        self.h_eff = model.hamiltonians - 0.5j * loss
        rho0 = check_density(rho0, d)
        if eigen:
            evals, basis = np.linalg.eig(self.h_eff)
            cond = np.linalg.cond(basis)
            bad = np.flatnonzero(~(cond <= 1e10))
            if bad.size:
                raise ValidationError(
                    f"H_eff at memory {self.labels[bad[0]]!r} is near-defective "
                    f"(eigenvector condition {cond[bad[0]]:.2e}); waiting-time sampling "
                    "is unreliable, use the fixed-step scheme"
                )
            self.decay = -1j * evals
        else:
            basis = np.broadcast_to(np.eye(d, dtype=complex), (m, d, d))
        self.basis = basis
        vinv, vh = np.linalg.inv(basis), basis.conj().swapaxes(1, 2)
        # ops[k, q] = L_q(k), monitored channels first; those reset the memory to q
        ops = np.concatenate([model.jump_ops, model.silent_ops]).swapaxes(0, 1)
        ch = np.arange(self.n_ops)
        self.next_memory = np.where(ch < m, ch, np.arange(m)[:, None])
        jump = vinv[self.next_memory] @ ops @ basis[:, None]
        kron = np.einsum("kqac,kqbd->kqabcd", jump, jump.conj())
        self.jump_maps = kron.reshape(m, self.n_ops, d * d, d * d)
        rate = vh[:, None] @ ops.conj().swapaxes(2, 3) @ ops @ basis[:, None]
        self.rate_rows = rate.swapaxes(2, 3).reshape(m, self.n_ops, d * d)
        self.trace_rows = (vh @ basis).swapaxes(1, 2).reshape(m, d * d)
        # charge added when channel c fires at memory k (silent rows are 0)
        self.charge_table = np.zeros((self.n_ops, m))
        self.charge_table[:m, :] = weights.per_transition

        self.memory = np.asarray(memories0, dtype=np.intp).copy()
        self.states = (vinv @ rho0 @ vinv.conj().swapaxes(1, 2)).reshape(m, d * d)[self.memory]
        self.burn_in = burn_in
        self.grid = grid
        self.charge = np.zeros(n)
        self.snapshots = np.zeros((n, len(grid))) if grid is not None else None
        self.rounds = 0
        self.jump_events = 0
        self.survival_evaluations = 0
        self.records = [[] for _ in range(n)] if record else None  # (time, channel, memory)
        # pre-drawn uniforms: row i holds a block of stream i, then ``window``
        # columns of padding; ptr[i] is the next unused column (block: draw a
        # new block first)
        self.streams = streams
        self.block = block
        self.uniform_buf = np.zeros((n, block + window))
        self.windows = sliding_window_view(self.uniform_buf, window, axis=1) if window else None
        self.ptr = np.full(n, block)

    def refill(self, idx):
        """Draw a new block for each trajectory in ``idx`` that used up its own."""
        for i in idx[self.ptr[idx] == self.block]:
            self.streams[i].random(out=self.uniform_buf[i, : self.block])
            self.ptr[i] = 0

    def uniforms(self, idx):
        """The next ``window`` uniforms of each trajectory in ``idx``, without using them.

        A window stops at the end of the trajectory's block; columns past
        it are padding and must not be used.
        """
        self.refill(idx)
        return self.windows[idx, self.ptr[idx]]

    def draw(self, idx):
        self.refill(idx)
        cols = self.ptr[idx]
        self.ptr[idx] = cols + 1
        return self.uniform_buf[idx, cols]

    def normalized(self, rows, ks):
        """State rows at memories ``ks`` scaled to unit trace."""
        return rows / np.einsum("nx,nx->n", rows, self.trace_rows[ks]).real[:, None]

    def apply_jumps(self, sel, t_jump, u, dt=None):
        """One jump for each trajectory in ``sel`` at times ``t_jump``.

        The channel is picked with uniform ``u`` from the jump weights
        Tr[L_q rho L_q^dag] of the current state: in proportion to them
        (waiting-time), or as the step's outcome when channel q fires with
        probability dt times its weight (fixed-step, ``dt`` given).
        """
        ks, a = self.memory[sel], self.states[sel]
        w = np.einsum("nqx,nx->nq", self.rate_rows[ks], a).real
        if dt is not None:
            w *= dt
        cum = np.cumsum(np.maximum(w, 0.0), axis=1)
        target = u if dt is not None else u * cum[:, -1]
        picks = np.minimum((cum <= target[:, None]).sum(axis=1), self.n_ops - 1)
        after = self.next_memory[ks, picks]
        a = np.einsum("nxy,ny->nx", self.jump_maps[ks, picks], a)
        self.states[sel] = self.normalized(a, after)
        gains = self.charge_table[picks, ks]
        counted = t_jump >= self.burn_in
        self.charge[sel[counted]] += gains[counted]
        if self.snapshots is not None:
            cols = np.searchsorted(self.grid, t_jump, side="left")
            for i, col, g, ok in zip(sel, cols, gains, counted):
                if ok and g != 0.0 and col < len(self.grid):
                    self.snapshots[i, col:] += g
        if self.records is not None:
            for i, event in zip(sel, zip(t_jump, picks.tolist(), ks.tolist())):
                self.records[i].append(event)
        self.memory[sel] = after
        self.jump_events += len(sel)

    def record(self, i, initial_memory, horizon):
        events = np.array(self.records[i], dtype=float).reshape(-1, 3)
        v = self.basis[self.memory[i]]
        return TrajectoryRecord(
            labels=self.labels,
            n_monitored=self.m,
            initial_memory=int(initial_memory),
            jump_times=events[:, 0].copy(),
            jump_channels=events[:, 1].astype(np.intp),
            memory_before=events[:, 2].astype(np.intp),
            final_state=v @ self.states[i].reshape(self.d, self.d) @ v.conj().T,
            final_memory=int(self.memory[i]),
            horizon=float(horizon),
            burn_in=float(self.burn_in),
            charge=float(self.charge[i]),
        )


def _run_waiting(batch, horizon):
    """Each round samples the next jump of every active trajectory exactly.

    With H_eff(k) = V diag(lambda) V^-1 and kappa = -i lambda, a state row
    evolves without a jump as a_ab exp(r_ab t), r_ab = kappa_a + kappa_b^*,
    and its trace, the survival, is Re sum_x c_x exp(r_x t) with
    c = a * trace_rows[k].  The growth factors at the horizon serve both the
    horizon check and the evolution of the trajectories that do not jump.
    """
    t = np.zeros(len(batch.memory))
    active = np.arange(len(t))
    while active.size:
        batch.rounds += 1
        ks = batch.memory[active]
        a, kappa = batch.states[active], batch.decay[ks]
        coeff = a * batch.trace_rows[ks]
        t_wait = horizon - t[active]
        u = batch.draw(active)
        growth = _growth(kappa, t_wait)
        jumps = u >= np.einsum("nx,nx->n", coeff, growth).real
        evaluations = np.zeros(np.count_nonzero(jumps), dtype=np.intp)
        t_wait[jumps] = _jump_time(coeff[jumps], kappa[jumps], u[jumps], t_wait[jumps], evaluations)
        batch.survival_evaluations += len(active) + int(evaluations.sum())
        # conditional states at the jump instants, or at the horizon
        growth[jumps] = _growth(kappa[jumps], t_wait[jumps])
        batch.states[active] = batch.normalized(a * growth, ks)
        t[active] = np.where(jumps, t[active] + t_wait, horizon)
        active = active[jumps]
        batch.apply_jumps(active, t[active], batch.draw(active))


def _lookahead_tables(h_eff, rate_rows, dt):
    """Fixed-step tables of every memory k, built by batched products.

    With P = (1 + dt L_0(k))^T acting on state rows r, ``powers[k, s]`` is
    P^s for s = 0..LOOKAHEAD, and for a real row [Re r, Im r] the product
    with ``look[k]`` holds, for each of the next LOOKAHEAD steps s, the
    unnormalized jump probabilities dt Tr[L_q rho_s L_q^dag] and the trace
    of rho_s, r P^s.
    """
    m, d = h_eff.shape[:2]
    eye = np.eye(d)
    # L_0 rho = -i (H_eff rho - rho H_eff^dag) on row-major rows
    gen = np.kron(h_eff, eye) - np.kron(eye, h_eff.conj())
    step_t = (np.eye(d * d) - 1j * dt * gen).swapaxes(1, 2)
    pw = [np.broadcast_to(np.eye(d * d, dtype=complex), step_t.shape)]
    for _ in range(LOOKAHEAD):
        pw.append(pw[-1] @ step_t)
    powers = np.stack(pw, axis=1)
    trace_col = np.broadcast_to(eye.reshape(d * d, 1), (m, d * d, 1))
    cols = np.concatenate([dt * rate_rows.swapaxes(1, 2), trace_col], axis=2)
    # table[k, x, s, c]: entry x of column c of P^s cols[k]
    table = (powers[:, :LOOKAHEAD] @ cols[:, None]).swapaxes(1, 2)
    look = np.concatenate([table.real, -table.imag], axis=1).reshape(m, 2 * d * d, -1)
    return powers, look


def _run_fixed(batch, horizon, dt):
    """Each round finds the first jumping step of every active trajectory
    within its next LOOKAHEAD steps, or advances it by the whole window
    (see :func:`_lookahead_tables`).
    """
    n_steps = whole_steps(horizon, dt)
    if n_steps is None:
        raise ValidationError("horizon must be an integer number of steps")
    powers, look = _lookahead_tables(batch.h_eff, batch.rate_rows, dt)
    n_cols = batch.n_ops + 1

    step = np.zeros(len(batch.memory), dtype=np.intp)
    active = np.arange(len(step))
    ahead = np.arange(LOOKAHEAD)
    while active.size:
        batch.rounds += 1
        u = batch.uniforms(active)
        width = np.minimum(
            LOOKAHEAD,
            np.minimum(batch.block - batch.ptr[active], n_steps - step[active]),
        )
        ks = batch.memory[active]
        rows = batch.states[active]
        real_rows = np.concatenate([rows.real, rows.imag], axis=1)
        hit = ahead < width[:, None]
        for k in np.unique(ks):
            g = ks == k
            x = real_rows[g] @ look[k]
            x = x.reshape(-1, LOOKAHEAD, n_cols)
            w = np.maximum(x[:, :, :-1], 0.0)
            # the channel slices added in order: the bits of w.sum(axis=2)
            total = w[:, :, 0]
            for c in range(1, n_cols - 1):
                total = total + w[:, :, c]
            hit[g] &= u[g] * x[:, :, -1] < total
        jumped = hit.any(axis=1)
        advance = np.where(jumped, hit.argmax(axis=1), width)
        moved = np.einsum("ni,nij->nj", rows, powers[ks, advance])
        batch.states[active] = batch.normalized(moved, ks)
        sel = active[jumped]
        u_jump = u[jumped, advance[jumped]]
        advance[jumped] += 1  # the jumping step itself
        step[active] += advance
        batch.ptr[active] += advance
        batch.apply_jumps(sel, step[sel] * dt, u_jump, dt)
        active = active[step[active] < n_steps]


def check_density(rho, d):
    """``rho`` as a complex array; raises ValidationError unless it is a density matrix."""
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


def whole_steps(horizon, dt):
    """Steps of size dt in horizon, or None unless whole within 1e-9 * max(1, horizon)."""
    n = int(round(horizon / dt))
    return n if abs(n * dt - horizon) <= 1e-9 * max(1.0, horizon) else None


def check_step(model, dt):
    """Raise ValidationError unless dt > 0 and dt * (max total jump rate) <= MAX_STEP_PROBABILITY."""
    if dt is None:
        raise ValidationError("fixed-step scheme needs dt")
    if dt <= 0:
        raise ValidationError("dt must be positive")
    loss = np.stack([model.loss_operator(k) for k in range(model.n_channels)])
    max_rate = np.linalg.eigvalsh(loss).max()
    if dt * max_rate > MAX_STEP_PROBABILITY:
        raise ValidationError(
            f"dt * max total rate = {dt * max_rate:.3g} exceeds "
            f"{MAX_STEP_PROBABILITY}; reduce the step"
        )


def _run_batch(
    model, weights, rho0, memories0, streams, horizon, scheme, dt, burn_in, grid, record
):
    if horizon <= 0:
        raise ValidationError("horizon must be positive")
    if not 0.0 <= burn_in < horizon:
        raise ValidationError("burn_in must lie in [0, horizon)")
    if grid is not None:
        grid = np.asarray(grid, dtype=float)
        if np.any(np.diff(grid) < 0) or grid.min() < 0 or grid.max() > horizon:
            raise ValidationError("charge grid must be ascending within [0, horizon]")
    if scheme not in ("waiting-time", "fixed-step"):
        raise ValidationError(f"unknown scheme {scheme!r}")
    fixed = scheme == "fixed-step"
    if fixed:
        check_step(model, dt)
    block, window = (UNIFORM_BLOCK, LOOKAHEAD) if fixed else (WAITING_BLOCK, 0)
    batch = _Batch(
        model, weights, rho0, memories0, streams, burn_in, grid, record, block, window, not fixed
    )
    if fixed:
        _run_fixed(batch, horizon, dt)
    else:
        _run_waiting(batch, horizon)
    return batch


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
        on the initial memory), then pass the stream here; the replay is
        exact.  The stream is left advanced by whole blocks of uniforms,
        not by the number the trajectory used.
    dt : float
        Step size, fixed-step scheme only.
    burn_in : float
        Jumps before this time carry no charge.
    """
    if rng is None:
        rng = 0
    stream = trajectory_stream(rng, 0) if isinstance(rng, (int, np.integer)) else rng
    k0_idx = model.channel_index(k0)
    batch = _run_batch(
        model, weights, rho0, [k0_idx], [stream], horizon, scheme, dt, burn_in, None, True
    )
    return batch.record(0, k0_idx, horizon)


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

    streams = _streams(master_seed, np.arange(n_traj, dtype=np.uint32)[:, None])
    first_uniforms = np.array([s.random() for s in streams])
    memories0 = np.searchsorted(np.cumsum(dist), first_uniforms, side="right")
    np.clip(memories0, 0, m - 1, out=memories0)

    batch = _run_batch(
        model, weights, rho0, memories0, streams, horizon, scheme, dt, burn_in,
        charge_grid, collect_records,
    )

    charge = batch.charge
    mean = charge.mean()
    centered = charge - mean
    var = centered @ centered / (n_traj - 1) if n_traj > 1 else 0.0
    mean_se = np.sqrt(var / n_traj)
    m4 = np.mean(centered**4)
    var_se = np.sqrt(max(m4 - var**2, 0.0) / n_traj)
    freq = np.bincount(batch.memory, minlength=m) / n_traj
    freq_se = np.sqrt(freq * (1.0 - freq) / n_traj)

    records = None
    if collect_records:
        records = tuple(batch.record(i, memories0[i], horizon) for i in range(n_traj))

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
        rounds=batch.rounds,
        jump_events=batch.jump_events,
        survival_evaluations=batch.survival_evaluations,
        charge_grid=None if charge_grid is None else np.asarray(charge_grid, dtype=float),
        grid_charges=batch.snapshots,
        records=records,
    )
