"""Stochastic jump trajectories of feedback models.

Two sampling schemes share one event-driven engine.  Each round finds the
next jump of every active trajectory in one vectorized search, then applies
all those jumps: channel pick, state update (one gathered product with a
stacked (memory, channel) table, or for a trajectory on a class the class
the jump leads to), charge, records and memory.  When every jump operator
has rank <= 1 (:func:`rank_one_jumps`), the state after a jump depends only
on (memory, channel), and both schemes run on the classes of
:func:`_classes`: a trajectory carries only its class and the time, or
steps, since the class began.

* ``"waiting-time"`` (default): between jumps the conditional state evolves
  under the no-jump propagator exp(-i H_eff(k) t).  States are held in the
  eigenbasis of H_eff(k), where that evolution is elementwise and the trace,
  the survival probability S(t), is a sum of exponentials whose d^2 growth
  factors come from d exponentials, exp(r_ab t) = e^{kappa_a t}
  conj(e^{kappa_b t}).  The next jump time solves S(t) = u
  (inverse-transform sampling) by a safeguarded Halley iteration on log S,
  falling back to bisection when a step leaves the bracket; the channel
  follows the relative jump rates at that instant.  No time-discretization
  error.  One round loop serves every model: a trajectory holds the index
  of its row of survival terms and the time the row began.  On classes the
  rows are per-class tables (:class:`_SurvivalTables`), whose log S starts
  each search; otherwise each trajectory has its own row
  (:class:`_SurvivalRows`), replaced by the post-jump state at each jump and
  searched from t = 0.  Either way states are formed at the horizon only.
  A near-defective H_eff, whose eigenvectors are no usable basis, is
  refused in favour of the fixed-step scheme.
* ``"fixed-step"``: the literal discrete unraveling with step dt; channel q
  fires with probability dt * Tr[L_q rho L_q^dag], otherwise the normalized
  no-jump map 1 + dt L_0(k) is applied.  One matrix product with a table
  built from powers of that map gives the jump weights over the next
  LOOKAHEAD steps; a trajectory jumps at its first step whose uniform falls
  below them, or advances by the whole window.  Jumps are exactly those of
  stepping one dt at a time.  States stay in the physical basis.  On
  classes, the window is read from per-class tables built once per batch
  (:class:`_ClassTables`).

Randomness is drawn from counter-based per-trajectory streams derived from
``(master_seed, trajectory_index)``, so results are bit-for-bit reproducible
and independent of batching and thread count.  A batch reads all of them
through one Philox generator, resumed by key and counter, which gives the
same numbers as ``Philox(SeedSequence(master_seed, spawn_key=(i,)))`` for
trajectory i.  Monitored jumps reset the memory to their channel; silent
jumps update the state only and never carry charge.
"""

import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SettingError, ValidationError
from .model import check_density, check_distribution, check_positive, label_table, loss_matrices

__all__ = [
    "TrajectoryRecord",
    "McEstimate",
    "sample_trajectory",
    "mc_estimate",
    "charge_from_record",
    "trajectory_stream",
    "rank_one_jumps",
]

UNIFORM_BLOCK = 1024  # uniforms pre-drawn per trajectory, fixed-step: one per step
WAITING_BLOCK = 128  # the same for the waiting-time scheme: two per jump
MAX_STEP_PROBABILITY = 0.05
LOOKAHEAD = 64  # fixed-step steps searched for a jump per round
MAX_TRAJECTORIES = 2**32  # stream indices are 32-bit words
RANK_TOL = 1e-10  # a jump operator with s_1 <= RANK_TOL * s_0 has rank <= 1
TABLE_FLOATS = 1 << 18  # entries the class tables of a batch may hold (2 MiB)
SURVIVAL_POINTS = 257  # times per class at which the waiting-time tables hold log S
LOG_U_MAX = 53 * np.log(2.0)  # -log u of the smallest positive uniform, 2**-53
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
    """Little-endian 32-bit words of a non-negative integer, as SeedSequence splits it.

    Only integers pass (numpy's too): a fraction truncated to an integer
    would share that integer's stream.
    """
    try:
        n = operator.index(n)
    except TypeError:
        raise ValidationError(f"expected a non-negative integer, got {n!r}") from None
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


def trajectory_stream(master_seed, index):
    """Counter-based random stream of trajectory ``index`` under a master seed.

    The stream yields the same numbers as
    ``Generator(Philox(SeedSequence(entropy=master_seed, spawn_key=(index,))))``.
    In :func:`mc_estimate` the stream's first uniform samples the initial
    memory value; everything after that is consumed by the sampling engine.
    Replaying a batch member by hand therefore means drawing that uniform
    before handing the stream to :func:`sample_trajectory`.  The batch
    itself builds no generator per trajectory: one Philox generator is set
    to this stream's key and counter whenever the trajectory needs more
    uniforms, and gives the same numbers.  The engine uses the stream's
    uniforms in order but draws them in whole blocks.
    """
    key = _philox_keys(master_seed, np.array([_uint32_words(index)], dtype=np.uint32))[0]
    return np.random.Generator(np.random.Philox(key=key))


class _KeyedStreams:
    """The streams of a batch, read through one Philox generator.

    Philox is a keyed bijection of a counter: uniform j of the stream with
    key K is output j % 4 of the block that K makes of counter j // 4 + 1.
    To continue stream i, the one generator takes key i and counter
    drawn // 4 with an empty buffer, and drops the drawn % 4 uniforms of
    that block that stream i has already used.
    """

    def __init__(self, keys):
        self.keys = keys.tolist()
        self.drawn = [0] * len(self.keys)
        self.bit_generator = np.random.Philox(key=keys[0])
        self.generator = np.random.Generator(self.bit_generator)

    def fill(self, i, out):
        """Fill ``out`` with the next uniforms of stream ``i``."""
        start = self.drawn[i]
        self.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (start // 4, 0, 0, 0), "key": self.keys[i]},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        if start % 4:
            self.generator.random(start % 4)
        self.generator.random(out=out)
        self.drawn[i] = start + len(out)


class _OneStream:
    """A caller's generator as the one stream of a batch."""

    def __init__(self, rng):
        self.rng = rng

    def fill(self, i, out):
        self.rng.random(out=out)


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
    plus one per point a root search evaluates, a tabled start included (a
    search from t = 0, as on a per-trajectory row, takes its first step
    free); 0 for fixed-step.
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
    records: Optional[tuple] = None


# ---------------------------------------------------------------------------
# engine


def _growth(kappa, t):
    """Rows of exp(r_ab t) = e^{kappa_a t} conj(e^{kappa_b t}): d exponentials per row."""
    e = np.exp(t[:, None] * kappa)
    return (e[:, :, None] * e.conj()[:, None, :]).reshape(len(t), kappa.shape[1] ** 2)


def _moments(coeff, kappa):
    """Rows of c, c r and c r^2 for survival coefficients ``coeff`` and decays ``kappa``.

    S, S' and S'' at t are their sums weighted by the growth exp(r t),
    r_ab = kappa_a + kappa_b^*.
    """
    rates = (kappa[:, :, None] + kappa.conj()[:, None, :]).reshape(coeff.shape)
    return np.stack([coeff, coeff * rates, coeff * rates * rates], axis=1)


def _jump_time(moments, kappa, u, t_max, start=None, evaluations=None):
    """Solve S(t) = u for t in (0, t_max], S(t) = Re sum_ab c_ab exp(r_ab t).

    ``moments`` holds the rows of :func:`_moments` and ``kappa`` the decays
    with r_ab = kappa_a + kappa_b^*.  Requires S(0) = 1 > u >= S(t_max)
    with S non-increasing.  Halley steps on f = log S - log u start at
    ``start`` in [0, t_max] (a class table's start), or, given None (a
    per-trajectory row), at t = 0, where every exponential is 1 and S, S',
    S'' cost no evaluation; a step that leaves the bracket [lo, hi]
    kept around the root is replaced by bisection.  A step no longer than
    ACCEPT_STEP * max(t, 1), whose Newton step is as short, is taken and
    ends the search, since the next one would be of the order of its cube.
    Every element stops on its own test, so its arithmetic never depends on
    the rest of the batch.  ``evaluations``, if given, gains each element's
    survival evaluations (one per point past t = 0 searched, a given start
    included).
    """
    n = len(u)
    t = np.zeros(n)
    idx = np.arange(n)
    lo, hi, log_u = np.zeros(n), np.array(t_max, dtype=float), np.log(u)
    if start is None:
        x = t.copy()
        s, ds, d2s = moments.sum(axis=2).real.T
    else:
        x = np.array(start, dtype=float)
        s, ds, d2s = np.einsum("nkx,nx->kn", moments, _growth(kappa, x)).real
        if evaluations is not None:
            evaluations += 1
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(MAX_ROOT_ITERATIONS):
            above = s > u
            lo = np.where(above, x, lo)
            hi = np.where(above, hi, x)
            f, df = np.log(s) - log_u, ds / s
            d2f = d2s / s - df * df
            step = -2.0 * f * df / (2.0 * df * df - f * d2f)
            newton = f / df
            new = x + step
            scale = np.maximum(x, 1.0)
            tol = ACCEPT_STEP * scale
            # the Newton step must be as short: where S is flat (S' = 0 at
            # t = 0 in a dark state) the Halley step vanishes far from the
            # root.  An accepted step may land on or just past a bracket
            # end, so the acceptance test comes before the bracket test
            accepted = (np.abs(step) <= tol) & (np.abs(newton) <= tol)
            bisect = ~(accepted | ((new > lo) & (new < hi)))
            if bisect.any():
                new[bisect] = 0.5 * (lo[bisect] + hi[bisect])
            t[idx] = new
            keep = ~(accepted | (hi - lo <= ROOT_TOLERANCE * scale))
            if not keep.any():
                break
            idx, moments, kappa = idx[keep], moments[keep], kappa[keep]
            u, log_u, lo, hi, x = u[keep], log_u[keep], lo[keep], hi[keep], new[keep]
            if evaluations is not None:
                evaluations[idx] += 1
            s, ds, d2s = np.einsum("nkx,nx->kn", moments, _growth(kappa, x)).real
    return t


class _Batch:
    """A batch of trajectories: stacked (memory, channel) tables, the state
    of every trajectory, the channel pick and landing of jumps for both
    schemes, and the own-state jumps of the fixed-step scheme.

    A trajectory at memory k holds its state as a flat row a = A.ravel()
    (row-major) with rho = V_k A V_k^dag.  The basis V_k holds the
    eigenvectors of H_eff(k) when ``eigen`` is set (waiting-time) and is the
    identity otherwise (fixed-step, where a is rho itself).  In it
    ``jump_maps[k, q]`` = M (x) M^*, M = V_k'^-1 L_q(k) V_k, takes a to the
    post-jump row in the basis of the next memory k' = ``next_memory[k, q]``,
    ``rate_rows[k, q] . a`` = Tr[L_q rho L_q^dag] and ``trace_rows[k] . a``
    = Tr rho.  When recording, every round keeps its jumps as arrays in
    ``events``, and :meth:`records` builds each trajectory's record from them.
    """

    def __init__(self, model, weights, rho0, eigen, burn_in, record):
        if weights.channels != model.channels:
            raise ValidationError("weights channels do not match the model")
        m, d = model.n_channels, model.dim
        self.m, self.d, self.n_ops = m, d, m + len(model.silent_labels)
        self.labels = model.channels + model.silent_labels
        self.h_eff = model.hamiltonians - 0.5j * loss_matrices(model.jump_ops, model.silent_ops)
        rho0 = np.asarray(rho0, dtype=complex)
        if rho0.shape != (d, d):
            raise ValidationError(f"initial state has shape {rho0.shape}, expected ({d}, {d})")
        check_density(rho0[None, None], "initial state")
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
        self.eigen, self.basis = eigen, basis
        self.vinv = vinv = np.linalg.inv(basis)
        vh = basis.conj().swapaxes(1, 2)
        # ops[k, q] = L_q(k), monitored channels first; those reset the memory to q
        ops = np.concatenate([model.jump_ops, model.silent_ops]).swapaxes(0, 1)
        self.ops = ops
        # rounds run on classes (see _classes), for either scheme
        self.rank_one = rank_one_jumps(model)
        ch = np.arange(self.n_ops)
        self.next_memory = np.where(ch < m, ch, np.arange(m)[:, None])
        jump = vinv[self.next_memory] @ ops @ basis[:, None]
        kron = np.einsum("kqac,kqbd->kqabcd", jump, jump.conj())
        self.jump_maps = kron.reshape(m, self.n_ops, d * d, d * d)
        rate = vh[:, None] @ ops.conj().swapaxes(2, 3) @ ops @ basis[:, None]
        self.rate_rows = rate.swapaxes(2, 3).reshape(m, self.n_ops, d * d)
        self.trace_rows = (vh @ basis).swapaxes(1, 2).reshape(m, d * d)
        # rho0 in the basis of every memory
        self.initial_rows = (vinv @ rho0 @ vinv.conj().swapaxes(1, 2)).reshape(m, d * d)
        # charge added when channel c fires at memory k (silent rows are 0)
        self.charge_table = np.zeros((self.n_ops, m))
        self.charge_table[:m, :] = weights.per_transition

        self.burn_in = burn_in
        self.rounds = 0
        self.jump_events = 0
        self.survival_evaluations = 0
        # one (trajectories, times, channels, memories) chunk per round, if recording
        self.events = [] if record else None
        # a waiting-time round uses two uniforms, so a pair never straddles a block
        self.block, self.window = (WAITING_BLOCK, 2) if eigen else (UNIFORM_BLOCK, LOOKAHEAD)

    def open(self, streams, n):
        """Size the batch for n trajectories on ``streams``: their charges and uniform buffers."""
        self.charge = np.zeros(n)
        # pre-drawn uniforms: row i holds a block of stream i, ``window``
        # columns of padding and one column that holds stream i + 1's first
        # uniform (see ``draw_first``); ptr[i] is the next unused column
        # (block: draw a new block first)
        self.streams = streams
        self.row_width = self.block + self.window + 1
        self.flat_buf = np.zeros(n * self.row_width + 1)
        self.uniform_buf = self.flat_buf[1:].reshape(n, self.row_width)
        self.windows = sliding_window_view(self.uniform_buf, self.window, axis=1)
        self.ptr = np.full(n, self.block)

    def start(self, memories0):
        """Put every trajectory in rho0 at its initial memory index."""
        self.memory = np.asarray(memories0, dtype=np.intp).copy()
        self.states = self.initial_rows[self.memory]

    def draw_first(self):
        """Draw each stream's first uniform together with its first block.

        Stream i's first 1 + block uniforms land in one contiguous slice:
        the last column of row i - 1 (the leading element of the buffer for
        i = 0), then the block columns of row i.  Returns the first uniforms.
        """
        n, width = len(self.ptr), self.row_width
        for i in range(n):
            self.streams.fill(i, self.flat_buf[i * width : i * width + 1 + self.block])
        self.ptr[:] = 0
        return self.flat_buf[: n * width : width]

    def refill(self, idx):
        """Draw a new block for each trajectory in ``idx`` that used up its own."""
        for i in idx[self.ptr[idx] == self.block].tolist():
            self.streams.fill(i, self.uniform_buf[i, : self.block])
            self.ptr[i] = 0

    def uniforms(self, idx):
        """The next ``window`` uniforms of each trajectory in ``idx``, without using them.

        A window stops at the end of the trajectory's block; columns past
        it are padding and must not be used.
        """
        self.refill(idx)
        return self.windows[idx, self.ptr[idx]]

    def draw(self, idx):
        """The next ``window`` uniforms of each trajectory in ``idx``, used up."""
        u = self.uniforms(idx)
        self.ptr[idx] += self.window
        return u

    def normalized(self, rows, ks):
        """State rows at memories ``ks`` scaled to unit trace."""
        return rows / np.einsum("nx,nx->n", rows, self.trace_rows[ks]).real[:, None]

    def apply_jumps(self, sel, rows, t_jump, u, dt):
        """One fixed-step jump for each trajectory in ``sel``, in state ``rows``, at ``t_jump``.

        The channel is the step's outcome for uniform ``u`` when channel q
        fires with probability dt Tr[L_q rho L_q^dag].  Returns the picked
        channels.
        """
        ks = self.memory[sel]
        w = dt * (self.rate_rows[ks] @ rows[:, :, None])[:, :, 0].real
        cum = np.cumsum(np.maximum(w, 0.0), axis=1)
        picks = self.pick(cum, u)
        a = (self.jump_maps[ks, picks] @ rows[:, :, None])[:, :, 0]
        self.states[sel] = self.normalized(a, self.next_memory[ks, picks])
        self.land(sel, t_jump, picks)
        return picks

    def pick(self, cum, target):
        """The channel of each row of cumulative jump weights ``cum`` that ``target`` selects."""
        return np.minimum((cum <= target[:, None]).sum(axis=1), self.n_ops - 1)

    def land(self, sel, t_jump, picks):
        """Charge, record and memory of the jumps ``picks`` at times ``t_jump``."""
        ks = self.memory[sel]
        counted = t_jump >= self.burn_in
        self.charge[sel[counted]] += self.charge_table[picks, ks][counted]
        if self.events is not None:
            self.events.append((sel, t_jump, picks, ks))
        self.memory[sel] = self.next_memory[ks, picks]
        self.jump_events += len(sel)

    def records(self, initial_memories, horizon):
        """The :class:`TrajectoryRecord` of every trajectory, from the recorded rounds.

        A round holds each trajectory at most once, so sorting the events
        stably by trajectory keeps every trajectory's jumps in time order.
        """
        n, d = len(self.memory), self.d
        empty = (np.empty(0, np.intp), np.empty(0), np.empty(0, np.intp), np.empty(0, np.intp))
        traj, times, channels, before = (np.concatenate(c) for c in zip(empty, *self.events))
        order = np.argsort(traj, kind="stable")
        bounds = np.searchsorted(traj[order], np.arange(n + 1)).tolist()
        times, channels, before = times[order], channels[order], before[order]
        v = self.basis[self.memory]
        finals = v @ self.states.reshape(n, d, d) @ v.conj().swapaxes(1, 2)
        return tuple(
            TrajectoryRecord(
                labels=self.labels,
                n_monitored=self.m,
                initial_memory=int(k0),
                jump_times=times[a:b],
                jump_channels=channels[a:b],
                memory_before=before[a:b],
                final_state=final,
                final_memory=k,
                horizon=float(horizon),
                burn_in=float(self.burn_in),
                charge=charge,
            )
            for a, b, k0, final, k, charge in zip(
                bounds[:-1], bounds[1:], initial_memories, finals,
                self.memory.tolist(), self.charge.tolist(),
            )
        )


def _run_waiting(batch, horizon):
    """Each round samples the next jump of every active trajectory exactly.

    With H_eff(k) = V diag(lambda) V^-1 and kappa = -i lambda, a state row
    a evolves without a jump as a_ab exp(r_ab t), r_ab = kappa_a + kappa_b^*,
    so a trajectory holds only the index of its row in a table of survival
    terms (:class:`_SurvivalRows`) and the time its row began.  Rank-one
    models index per-class tables (:class:`_SurvivalTables`), whose tabled
    log S starts each root search; any other model holds one row per
    trajectory, replaced at each jump by the normalized post-jump row, and
    searches from t = 0.  States are formed once, at the horizon.
    """
    n = len(batch.memory)
    if batch.rank_one:
        table = _SurvivalTables(batch, horizon)
        row = table.initial[batch.memory]
    else:
        table = _SurvivalRows(batch, batch.states, batch.memory)
        row = np.arange(n)
    begun = np.zeros(n)
    active = np.arange(n)
    while active.size:
        batch.rounds += 1
        c = row[active]
        t_wait = horizon - begun[active]
        # the time uniform and the channel uniform of the round
        u, u_pick = batch.draw(active).T
        kappa = table.kappa[c]
        jumps = u >= np.einsum("nx,nx->n", table.coeff[c], _growth(kappa, t_wait)).real
        n_active = len(active)
        active, c, kappa, u, t_wait = active[jumps], c[jumps], kappa[jumps], u[jumps], t_wait[jumps]
        evaluations = np.zeros(len(active), dtype=np.intp)
        t_jump = _jump_time(
            table.moments[c], kappa, u, t_wait, table.start(c, u, t_wait), evaluations=evaluations
        )
        batch.survival_evaluations += n_active + int(evaluations.sum())
        growth = _growth(kappa, t_jump)
        w = (table.rates[c] @ growth[:, :, None])[:, :, 0].real
        cum = np.cumsum(np.maximum(w, 0.0), axis=1)
        picks = batch.pick(cum, u_pick[jumps] * cum[:, -1])
        ks = batch.memory[active]
        begun[active] += t_jump
        batch.land(active, begun[active], picks)
        if batch.rank_one:
            row[active] = table.after[ks, picks]
        else:
            rows = (batch.jump_maps[ks, picks] @ (table.rows[c] * growth)[:, :, None])[:, :, 0]
            table.replace(batch, c, rows, batch.memory[active])
    rows = table.rows[row] * _growth(table.kappa[row], horizon - begun)
    batch.states = batch.normalized(rows, batch.memory)


class _SurvivalRows:
    """Survival terms of state rows; used alone, one row per trajectory.

    Row x, held in the batch basis of its memory ks[x], has survived a time
    t after it began with S_x(t) = Re sum_y coeff[x, y] exp(r_y t), and
    jumps through channel q at the rate Re sum_y rates[x, q, y] exp(r_y t)
    (see :func:`_run_waiting`).  ``moments`` holds each row's terms for S,
    S' and S'' (:func:`_moments`).  The root search of a row starts at
    t = 0.
    """

    def __init__(self, batch, rows, ks):
        self.rows = rows
        self.kappa = kappa = batch.decay[ks]
        self.coeff = rows * batch.trace_rows[ks]
        self.moments = _moments(self.coeff, kappa)
        self.rates = batch.rate_rows[ks] * rows[:, None, :]

    def start(self, c, u, t_max):
        """No tabled start: the searches of rows ``c`` begin at t = 0."""
        return None

    def replace(self, batch, c, rows, ks):
        """Rows ``c`` begin anew from state rows ``rows`` at memories ``ks``, normalized."""
        new = _SurvivalRows(batch, batch.normalized(rows, ks), ks)
        self.rows[c], self.kappa[c], self.coeff[c] = new.rows, new.kappa, new.coeff
        self.moments[c], self.rates[c] = new.moments, new.rates


class _SurvivalTables(_SurvivalRows):
    """Waiting-time tables of the classes (:func:`_classes`) of a batch.

    Row c of the survival terms is class c, which a trajectory keeps until
    its next jump.  log S and its first two derivatives are tabled at
    ``grid``, SURVIVAL_POINTS times over [0, horizon] unless the growth rows
    that build them would exceed TABLE_FLOATS entries for the most classes
    a batch of the model can have, so that the grid never depends on the
    batch.  ``keys`` holds each class's -log S, made non-decreasing, capped
    just above LOG_U_MAX and offset by the class, for one sorted search.
    """

    def __init__(self, batch, horizon):
        self.initial, self.after, ks, rows = _classes(batch)
        super().__init__(batch, rows, ks)
        n_cls, width = rows.shape
        most = batch.m * (1 + batch.n_ops)
        n_points = min(SURVIVAL_POINTS, max(2, TABLE_FLOATS // (2 * width * most)))
        self.grid = grid = np.linspace(0.0, horizon, n_points)
        growth = _growth(np.repeat(self.kappa, n_points, axis=0), np.tile(grid, n_cls))
        growth = growth.reshape(n_cls, n_points, width)
        s, ds, d2s = np.einsum("ckx,cgx->kcg", self.moments, growth).real
        with np.errstate(divide="ignore", invalid="ignore"):
            log_s = np.log(s)
            self.dlog_s = (ds / s).ravel()
            self.d2log_s = (d2s / s).ravel() - self.dlog_s**2
        self.log_s = log_s.ravel()
        depth = np.where(s > 0.0, -log_s, np.inf)
        depth = np.minimum(np.maximum.accumulate(depth, axis=1), LOG_U_MAX + 1.0)
        self.keys = (depth + (LOG_U_MAX + 2.0) * np.arange(n_cls)[:, None]).ravel()

    def start(self, c, u, t_max):
        """Root-search starts for S_c(t) = u in (0, t_max]: one Halley step on
        log S - log u from the tabled time below the root, kept between that
        time and the next one, and within t_max."""
        n_points = len(self.grid)
        log_u = np.log(u)
        first = c * n_points
        key = (LOG_U_MAX + 2.0) * c + np.minimum(-log_u, LOG_U_MAX)
        j = np.maximum(np.searchsorted(self.keys, key, side="right") - 1, first)
        p = j - first
        f, df, d2f = self.log_s[j] - log_u, self.dlog_s[j], self.d2log_s[j]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = -2.0 * f * df / (2.0 * df * df - f * d2f)
        lo = self.grid[p]
        hi = np.minimum(self.grid[np.minimum(p + 1, n_points - 1)], t_max)
        # a step that is not a number keeps the tabled time
        return np.fmin(np.fmax(lo + step, lo), hi)


def _lookahead_tables(h_eff, rate_rows, dt):
    """Fixed-step tables of every memory k, built by batched products.

    With P = (1 + dt L_0(k))^T acting on state rows r, ``powers[k, s]`` is
    P^s for s = 0..LOOKAHEAD, and for a real row [Re r, Im r] the product
    with ``look[k]`` holds, for each of the next LOOKAHEAD steps s, the
    unnormalized jump probabilities dt Tr[L_q rho_s L_q^dag] and the trace
    of rho_s, r P^s, laid out channel-major: column c * LOOKAHEAD + s.
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
    # table[k, x, c, s]: entry x of column c of P^s cols[k]
    table = (powers[:, :LOOKAHEAD] @ cols[:, None]).transpose(0, 2, 3, 1)
    look = np.concatenate([table.real, -table.imag], axis=1).reshape(m, 2 * d * d, -1)
    return powers, look


def rank_one_jumps(model):
    """Whether every jump operator L_q(k), monitored and silent, has rank <= 1.

    Rank <= 1 means s_1 <= RANK_TOL * s_0 for the operator's singular
    values.  Then the state right after a jump depends only on (memory,
    channel), and both schemes run their rounds on classes (:func:`_classes`):
    the fixed-step scheme reads per-class tables (:class:`_ClassTables`), the
    waiting-time scheme per-class survivals (:class:`_SurvivalTables`).
    Otherwise every trajectory carries its own state.
    """
    s = np.linalg.svd(np.concatenate([model.jump_ops, model.silent_ops]), compute_uv=False)
    return s.shape[-1] < 2 or bool((s[..., 1] <= RANK_TOL * s[..., 0]).all())


def _classes(batch):
    """The classes of a batch whose jump operators have rank <= 1.

    A jump through L = |a><b| leaves |a><a| whatever the state before.  A
    class is rho0 at an initial memory, or the state L L^dag normalized that
    channel q leaves when it fires at memory k, held as a row in the batch
    basis of its memory; classes of equal memory and row are one.  Returns
    the class each memory starts in and the class each jump (k, q) leads to,
    both -1 where there is none (a memory no trajectory starts at, a channel
    whose operator is 0, which never fires), and the memory and row of every
    class.
    """
    gain = batch.ops @ batch.ops.conj().swapaxes(2, 3)
    traces = np.trace(gain, axis1=2, axis2=3).real
    post = gain / np.where(traces > 0, traces, 1.0)[:, :, None, None]
    if batch.eigen:
        vinv = batch.vinv[batch.next_memory]
        post = vinv @ post @ vinv.conj().swapaxes(2, 3)
    index, rows, memories = {}, [], []

    def add(k, row):
        key = (k, row.tobytes())
        if key not in index:
            index[key] = len(rows)
            rows.append(row)
            memories.append(k)
        return index[key]

    initial = np.full(batch.m, -1)
    for k in np.unique(batch.memory).tolist():
        initial[k] = add(k, batch.initial_rows[k])
    after = np.full((batch.m, batch.n_ops), -1)
    for k, q in zip(*np.nonzero(traces > 0)):
        after[k, q] = add(batch.next_memory[k, q], post[k, q].ravel())
    return initial, after, np.array(memories, dtype=np.intp), np.array(rows)


class _ClassTables:
    """Fixed-step tables of the classes (:func:`_classes`) of a batch.

    A trajectory s steps after its last jump is in the state P^s rho_c of
    its class c, normalized.  ``cum[c, s]`` holds the
    cumulative jump probabilities dt Tr[L_q rho_s L_q^dag] / Tr rho_s over
    the channels; the last, their sum, is the probability that step s
    jumps, and ``windows[c, s]`` holds it for the LOOKAHEAD steps from s.
    Each LOOKAHEAD rows come from one product of a normalized block start
    ``anchors[c, b]`` (offset b * LOOKAHEAD) with the lookahead tables.
    Offsets below ``end`` are tabled; ``end`` covers the horizon unless the
    tables would exceed TABLE_FLOATS entries, and a trajectory that reaches
    it continues from ``anchors[c, -1]`` on its own state.
    """

    def __init__(self, batch, powers, look, n_steps):
        n_ops = batch.n_ops
        self.initial, self.after, ks, rows = _classes(batch)
        n_cls, n_cols = len(rows), n_ops + 1
        self.memory = ks
        cap = max(1, TABLE_FLOATS // (LOOKAHEAD * n_cls * n_cols) - 1)
        blocks = min(-(-n_steps // LOOKAHEAD), cap)
        self.end = blocks * LOOKAHEAD
        self.anchors = np.empty((n_cls, blocks + 1, rows.shape[1]), dtype=complex)
        cum = np.empty((n_cls, blocks + 1, LOOKAHEAD, n_ops))
        look, advance = look[ks], powers[ks, LOOKAHEAD]
        for b in range(blocks + 1):
            if b:
                rows = batch.normalized((rows[:, None] @ advance)[:, 0], ks)
            self.anchors[:, b] = rows
            x = (np.concatenate([rows.real, rows.imag], axis=1)[:, None] @ look)[:, 0]
            x = x.reshape(n_cls, n_cols, LOOKAHEAD)
            with np.errstate(divide="ignore", invalid="ignore"):
                weights = np.cumsum(np.maximum(x[:, :-1], 0.0), axis=1) / x[:, -1:]
            cum[:, b] = weights.swapaxes(1, 2)
        self.cum = cum.reshape(n_cls, -1, n_ops)
        self.windows = sliding_window_view(np.ascontiguousarray(self.cum[:, :, -1]), LOOKAHEAD, axis=1)
        self.powers = powers

    def states(self, batch, c, off):
        """Normalized state rows of classes ``c`` at offsets ``off``."""
        b, s = np.divmod(off, LOOKAHEAD)
        ks = self.memory[c]
        return batch.normalized((self.anchors[c, b][:, None] @ self.powers[ks, s])[:, 0], ks)


def _run_fixed(batch, n_steps, dt):
    """Each round finds the first jumping step of every active trajectory
    within its next LOOKAHEAD steps, or advances it by the whole window.

    A trajectory on a class table (:class:`_ClassTables`, built when
    :func:`rank_one_jumps` holds) carries only its class and offset and
    reads the hazards of its window there; any other searches its own state
    with the lookahead tables (see :func:`_lookahead_tables`).  Both compare
    the same uniforms with the same jump probabilities, so they find the
    same jumps up to the round-off of those probabilities.
    """
    powers, look = _lookahead_tables(batch.h_eff, batch.rate_rows, dt)
    n_cols = batch.n_ops + 1
    n = len(batch.memory)
    tables = _ClassTables(batch, powers, look, n_steps) if batch.rank_one else None
    # each trajectory's class and steps since the class began; class -1:
    # the trajectory's own state, in batch.states
    cls = tables.initial[batch.memory] if tables else np.full(n, -1)
    offset = np.zeros(n, dtype=np.intp)
    step = np.zeros(n, dtype=np.intp)
    active = np.arange(n)
    ahead = np.arange(LOOKAHEAD)
    while active.size:
        batch.rounds += 1
        u = batch.uniforms(active)
        ks, c, off = batch.memory[active], cls[active], offset[active]
        on = c >= 0
        room = np.minimum(batch.block - batch.ptr[active], n_steps - step[active])
        if tables:
            room = np.where(on, np.minimum(room, tables.end - off), room)
        width = np.minimum(LOOKAHEAD, room)
        hit = ahead < width[:, None]
        own = np.flatnonzero(~on)
        if not own.size:
            hit &= u < tables.windows[c, off]
        elif own.size < len(on):
            hit[on] &= u[on] < tables.windows[c[on], off[on]]
        if own.size:
            mine, k_own = active[own], ks[own]
            rows = batch.states[mine]
            real_rows = np.concatenate([rows.real, rows.imag], axis=1)
            for k in np.unique(k_own):
                g = k_own == k
                x = real_rows[g] @ look[k]
                x = x.reshape(-1, n_cols, LOOKAHEAD)
                # a sum over a non-last axis adds the channels in order
                total = np.maximum(x[:, :-1], 0.0).sum(axis=1)
                hit[own[g]] &= u[own[g]] * x[:, -1] < total
        jumped = hit.any(axis=1)
        advance = np.where(jumped, hit.argmax(axis=1), width)
        u_jump = u[jumped, advance[jumped]]
        if own.size:
            moved = batch.normalized((rows[:, None, :] @ powers[k_own, advance[own]])[:, 0], k_own)
            batch.states[mine] = moved
        offset[active] += advance
        # the jumping step itself counts as a step
        step[active] += advance + jumped
        batch.ptr[active] += advance + jumped
        j_on, j_own = jumped & on, jumped[own]
        if j_on.any():
            sel = active[j_on]
            picks = batch.pick(tables.cum[c[j_on], off[j_on] + advance[j_on]], u_jump[on[jumped]])
            batch.land(sel, step[sel] * dt, picks)
            cls[sel], offset[sel] = tables.after[ks[j_on], picks], 0
        if j_own.any():
            sel = mine[j_own]
            picks = batch.apply_jumps(sel, moved[j_own], step[sel] * dt, u_jump[~on[jumped]], dt)
            if tables:
                cls[sel], offset[sel] = tables.after[k_own[j_own], picks], 0
        if tables and tables.end < n_steps:
            # trajectories at the end of their table go on with their own state
            leave = active[on & (off + advance == tables.end)]
            batch.states[leave] = tables.anchors[cls[leave], -1]
            cls[leave] = -1
        active = active[step[active] < n_steps]
    if tables:
        sel = np.flatnonzero(cls >= 0)
        batch.states[sel] = tables.states(batch, cls[sel], offset[sel])


def whole_steps(horizon, dt):
    """Steps of size dt in horizon, or None unless whole within 1e-9 * horizon.

    Written so that a step count that is not finite is not whole; for a
    positive horizon, neither is zero steps.
    """
    n = np.round(horizon / dt)
    return int(n) if abs(n * dt - horizon) <= 1e-9 * horizon else None


def check_run(model, n_traj, horizon, scheme, dt=None, burn_in=0.0):
    """Fixed-step count of a run once n_traj, horizon, burn_in, scheme and, for
    fixed-step, dt, dt * (max total rate) <= MAX_STEP_PROBABILITY and whole
    steps pass, in that order; None for waiting-time, which ignores dt.

    A setting out of its own range raises a :class:`SettingError` that names
    it (whole steps name dt); the rate bound, which holds for the model and
    dt together, raises a plain ValidationError.
    """
    if n_traj < 1:
        raise SettingError("n_traj", "must be at least 1", "need at least one trajectory")
    if n_traj > MAX_TRAJECTORIES:
        raise SettingError(
            "n_traj", f"must be at most 2**32 = {MAX_TRAJECTORIES}",
            f"n_traj must be at most 2**32 = {MAX_TRAJECTORIES}, got {n_traj}",
        )
    check_positive(horizon, "horizon")
    if not 0.0 <= burn_in < horizon:
        raise SettingError("burn_in", "must lie in [0, horizon)")
    if scheme not in ("waiting-time", "fixed-step"):
        raise SettingError(
            "scheme", "must be 'waiting-time' or 'fixed-step'", f"unknown scheme {scheme!r}"
        )
    if scheme == "waiting-time":
        return None
    if dt is None:
        raise ValidationError("fixed-step scheme needs dt")
    check_positive(dt, "dt")
    max_rate = np.linalg.eigvalsh(loss_matrices(model.jump_ops, model.silent_ops)).max()
    if dt * max_rate > MAX_STEP_PROBABILITY:
        raise ValidationError(
            f"dt * max total rate = {dt * max_rate:.3g} exceeds "
            f"{MAX_STEP_PROBABILITY}; reduce the step"
        )
    n_steps = whole_steps(horizon, dt)
    if n_steps is None:
        message = "horizon must be an integer number of steps"
        raise SettingError("dt", message, message)
    return n_steps


def _run_batch(batch, memories0, horizon, n_steps, dt):
    """Run every trajectory of a batch to the horizon; ``n_steps`` is None for waiting-time."""
    batch.start(memories0)
    if n_steps is None:
        _run_waiting(batch, horizon)
    else:
        _run_fixed(batch, n_steps, dt)


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
    n_steps = check_run(model, 1, horizon, scheme, dt, burn_in)
    if rng is None:
        rng = 0
    stream = rng if isinstance(rng, np.random.Generator) else trajectory_stream(rng, 0)
    k0_idx = model.channel_index(k0)
    batch = _Batch(model, weights, rho0, scheme == "waiting-time", burn_in, True)
    batch.open(_OneStream(stream), 1)
    _run_batch(batch, [k0_idx], horizon, n_steps, dt)
    return batch.records([k0_idx], horizon)[0]


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
        Initial memory distribution over the channels, a :func:`label_table`
        that must be a probability distribution (:func:`check_distribution`).
    burn_in : float
        Charges collected only over [burn_in, horizon].
    collect_records : bool
        Keep the full per-trajectory event records (memory heavy).
    """
    n_steps = check_run(model, n_traj, horizon, scheme, dt, burn_in)
    m = model.n_channels
    dist = check_distribution(label_table(memory0, model.channels, "memory0"), "memory0")
    batch = _Batch(model, weights, rho0, scheme == "waiting-time", burn_in, collect_records)
    # O(n_traj) work only once every input has passed
    keys = _philox_keys(master_seed, np.arange(n_traj, dtype=np.uint32)[:, None])
    batch.open(_KeyedStreams(keys), n_traj)
    memories0 = np.searchsorted(np.cumsum(dist), batch.draw_first(), side="right")
    np.clip(memories0, 0, m - 1, out=memories0)
    _run_batch(batch, memories0, horizon, n_steps, dt)

    charge = batch.charge
    # charges near the float64 range overflow here; the check below names it
    with np.errstate(over="ignore", invalid="ignore"):
        mean = charge.mean()
        centered = charge - mean
        var = centered @ centered / (n_traj - 1) if n_traj > 1 else 0.0
        mean_se = np.sqrt(var / n_traj)
        m4 = np.mean(centered**4)
        var_se = np.sqrt(max(m4 - var**2, 0.0) / n_traj)
    for name, value in [("mean_charge", mean), ("mean_charge_se", mean_se), ("var_charge", var),
                        ("var_charge_se", var_se)]:
        if not np.isfinite(value):
            raise ValidationError(f"{name} is {value}: the charge statistics overflow float64")
    freq = np.bincount(batch.memory, minlength=m) / n_traj
    freq_se = np.sqrt(freq * (1.0 - freq) / n_traj)

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
        records=batch.records(memories0, horizon) if collect_records else None,
    )
