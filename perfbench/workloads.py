"""Workload datasets: the shipped configs split into short ``run_config`` operations.

Every operation is one JSON config handed to ``jumpfeedback.cli.run_config``.
The deterministic workloads cover exactly the grids of the shipped configs;
the seed only fixes the order in which their operations run.  The Monte
Carlo workload draws its batch seeds from the seed and the pass number, so
that a run's passes average over many batches' random work.
"""

import copy
import json
import os
import random
from dataclasses import dataclass, field

import numpy as np

# maser at the fast-mixing point of the Monte Carlo acceptance criterion
MC_PARAMS = dict(nl=1.0, nr=2.0, gl=0.5, gr=0.5, lam=1.0, delta=0.0, wl=8.0, wr=2.0)
MC_MEMORY0 = {"E_l": 0.25, "I_l": 0.25, "E_r": 0.25, "I_r": 0.25}
MC_BATCHES = 10  # per pass, alternating waiting-time and fixed-step
MC_WAITING = dict(n_traj=400, horizon=20.0, burn_in=5.0)
MC_FIXED = dict(n_traj=200, horizon=10.0, burn_in=2.0, dt=0.01)

SWEEP_CHUNK = 5  # maser grid points per operation
CORRELATION_CHUNK = 61  # lags per operation
SPECTRUM_CHUNK = 201  # frequencies per operation

# (config file, grid length, variant count) of every shipped config used;
# a run stops if a shipped config no longer has this make-up
SWEEP_CONFIGS = (
    ("fig2b_maser_noise.json", 25, 4),
    ("fig4b_maser_noise.json", 25, 2),
    ("fig1a_qubit_cooling.json", 40, 3),
    ("fig1b_qubit_drive_competition.json", 25, 3),
)
TWO_TIME_CONFIGS = (
    ("fig3a_maser_spectrum_feedback.json", 401),
    ("fig3a_maser_spectrum_nofeedback.json", 401),
    ("fig3b_maser_correlation_feedback.json", 601),
    ("fig3b_maser_correlation_nofeedback.json", 601),
)


@dataclass
class Operation:
    """One timed call of ``run_config``.

    ``group`` names the dataset the operation belongs to (a shipped config
    or a Monte Carlo scheme); the checks reassemble each group from its
    operations.  ``meta`` holds the shipped config (``base``) and, for
    sweeps, the one variant the operation runs.
    """

    name: str
    group: str
    config: dict
    meta: dict = field(default_factory=dict)


class InputError(Exception):
    """The shipped inputs do not have the make-up the benchmark pins."""


def _load(root, fname):
    path = os.path.join(root, "configs", fname)
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read shipped config {path}: {exc}") from exc


def _chunks(n, size):
    return [(i, min(i + size, n)) for i in range(0, n, size)]


def _grid(spec):
    """Expand a config grid (plain list or linspace) as run_config does."""
    if isinstance(spec, list):
        return [float(x) for x in spec]
    start, stop, num = spec["linspace"]
    return [float(x) for x in np.linspace(start, stop, num)]


def _sub_config(base, prefix, task_updates):
    cfg = copy.deepcopy(base)
    cfg["task"].update(task_updates)
    cfg["output"] = {"directory": ".", "prefix": prefix}
    return cfg


def sweep_operations(root):
    ops = []
    for fname, n_points, n_variants in SWEEP_CONFIGS:
        base = _load(root, fname)
        task = base["task"]
        values = task["values"]
        also = task.get("also", {})
        variants = task["variants"]
        if len(values) != n_points or len(variants) != n_variants:
            raise InputError(f"{fname}: expected {n_points} points x {n_variants} variants")
        group = fname[: -len(".json")]
        if base["model"]["builtin"] == "qubit_cooling":
            # 2-level models solve in about a millisecond: one operation per config
            ops.append(Operation(group, group, _sub_config(base, group, {}), {"base": base}))
            continue
        for variant in variants:
            for lo, hi in _chunks(n_points, SWEEP_CHUNK):
                name = f"{group}.{variant['label']}.{lo}"
                updates = {"values": values[lo:hi], "variants": [variant]}
                if also:
                    updates["also"] = {k: v[lo:hi] for k, v in also.items()}
                ops.append(Operation(name, group, _sub_config(base, name, updates),
                                     {"base": base, "variant": variant}))
    return ops


def two_time_operations(root):
    ops = []
    for fname, n_points in TWO_TIME_CONFIGS:
        base = _load(root, fname)
        group = fname[: -len(".json")]
        key = "omegas" if base["task"]["kind"] == "spectrum" else "taus"
        grid = _grid(base["task"][key])
        if len(grid) != n_points:
            raise InputError(f"{fname}: expected {n_points} grid points")
        size = SPECTRUM_CHUNK if key == "omegas" else CORRELATION_CHUNK
        for lo, hi in _chunks(n_points, size):
            name = f"{group}.{lo}"
            ops.append(Operation(name, group, _sub_config(base, name, {key: grid[lo:hi]}),
                                 {"base": base}))
    return ops


def trajectory_config(scheme, seed, prefix):
    spec = MC_WAITING if scheme == "waiting-time" else MC_FIXED
    task = {"kind": "trajectories", "scheme": scheme, **spec}
    return {
        "model": {"builtin": "maser", "params": dict(MC_PARAMS)},
        "weights": "work",
        "initial": {"memory": dict(MC_MEMORY0), "system": "maximally_mixed"},
        "task": task,
        "seed": seed,
        "output": {"directory": ".", "prefix": prefix},
    }


def trajectory_operations(seed, pass_index):
    """Batch slot i of pass p has master seed (seed * 10^4 + p) * 100 + i."""
    ops = []
    for i in range(MC_BATCHES):
        scheme = "waiting-time" if i % 2 == 0 else "fixed-step"
        batch_seed = (seed * 10_000 + pass_index) * 100 + i
        name = f"mc.{scheme}.{i}"
        prefix = f"{name}.p{pass_index}"
        ops.append(Operation(name, scheme, trajectory_config(scheme, batch_seed, prefix)))
    return ops


WORKLOADS = ("sweep", "two_time", "trajectories")


def operations(workload, root, seed, pass_index):
    """The operations of one pass.

    Maser and qubit datasets run in the order the seed fixes, the same in
    every pass; Monte Carlo batches alternate schemes and take new seeds in
    every pass.
    """
    if workload == "sweep":
        ops = sweep_operations(root)
    elif workload == "two_time":
        ops = two_time_operations(root)
    elif workload == "trajectories":
        return trajectory_operations(seed, pass_index)
    else:
        raise InputError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    random.Random(seed).shuffle(ops)
    return ops


def warmup_operation(workload, root):
    """First operation in dataset order: run once, untimed, during set-up."""
    if workload == "trajectories":
        return trajectory_operations(0, 0)[0]
    return (sweep_operations if workload == "sweep" else two_time_operations)(root)[0]
