"""Compare the outputs of two source trees of jumpfeedback on the same configs.

Usage::

    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC [CONFIG ...] [--tol 1e-12] [--trajectories]

``PARENT_SRC`` and ``CHANGE_SRC`` are directories that hold the
``jumpfeedback`` package (a checkout's ``src/``).  Every config, by default
every ``configs/*.json`` of this checkout, runs under each tree in a fresh
interpreter with one BLAS/OpenMP thread, each config in its own output
directory.  For every CSV the script prints whether the two files are
byte-identical, and otherwise the largest |difference| of each numeric
column relative to that column's largest |value| in the parent's file.
Text cells must match exactly.  Reports must be equal apart from
``wall_time_s``; for reports that differ the script prints each differing
key path with both values and, for numbers, their relative difference.  A
config that fails must fail with the same message on both sides.

``--trajectories`` runs the standard Monte Carlo set instead of the
shipped configs (CONFIG files given as well run with it).  Its configs are
written into the temporary directory, four models each under both schemes
(``dt`` 0.01 for fixed-step), with seeds 0-9, ``n_traj`` 200, horizon 10
and ``burn_in`` 2; the seed-0 configs set ``dump``, so their jump records
are compared too.  The models: the maser at the benchmark point and the
classical maser at the same point (work weights, uniform initial memory,
maximally mixed system); ``qubit_cooling`` with gamma 0.8 and nbar 1
(activity weights, uniform initial memory, ground state); and an explicit
two-level model whose jump operator "a" has rank 2 (activity weights,
uniform initial memory, ground state).  The first three have rank-one jump
operators, so both schemes run them on class tables; the last takes the
per-state waiting-time rounds and the fixed-step lookahead search.

Exit status: 0 when every CSV agrees within ``--tol`` (default 1e-12) and
nothing else differs, 1 otherwise.
"""

import argparse
import csv
import glob
import json
import math
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# run in the child interpreter: argv is the output root, then the configs
_CHILD = """
import json, os, sys
from jumpfeedback.cli import run_config
from jumpfeedback.errors import JumpFeedbackError
out, configs = sys.argv[1], sys.argv[2:]
status = {}
for path in configs:
    name = os.path.splitext(os.path.basename(path))[0]
    directory = os.path.join(out, name)
    os.makedirs(directory)
    with open(path) as fh:
        raw = json.load(fh)
    try:
        run_config(raw, base_dir=directory)
        status[name] = "ok"
    except (JumpFeedbackError, OSError) as exc:
        status[name] = f"{type(exc).__name__}: {exc}"
with open(os.path.join(out, "status.json"), "w") as fh:
    json.dump(status, fh)
"""

MC_MASER_PARAMS = {"nl": 1.0, "nr": 2.0, "gl": 0.5, "gr": 0.5, "lam": 1.0, "delta": 0.0,
                   "wl": 8.0, "wr": 2.0}
MC_MASER_MEMORY = {"E_l": 0.25, "I_l": 0.25, "E_r": 0.25, "I_r": 0.25}
# the standard Monte Carlo set: name -> (model, weights, initial memory, initial system)
MC_MODELS = {
    "maser": (
        {"builtin": "maser", "params": MC_MASER_PARAMS},
        "work",
        MC_MASER_MEMORY,
        "maximally_mixed",
    ),
    "maser_classical": (
        {"builtin": "maser", "params": {**MC_MASER_PARAMS, "classical": True}},
        "work",
        MC_MASER_MEMORY,
        "maximally_mixed",
    ),
    "qubit": (
        {"builtin": "qubit_cooling", "params": {"gamma": 0.8, "nbar": 1.0}},
        "activity",
        {"-1": 0.5, "+1": 0.5},
        "ground",
    ),
    "rank_two": (
        {
            "dim": 2,
            "channels": ["a", "b"],
            "hamiltonians": {"a": [[0.5, 0.3], [0.3, -0.5]], "b": [[-0.5, 0.0], [0.0, 0.5]]},
            "jump_ops": {"a": [[0.2, 0.5], [0.0, 0.3]], "b": [[0.0, 0.0], [0.6, 0.0]]},
        },
        "activity",
        {"a": 0.5, "b": 0.5},
        "ground",
    ),
}
MC_SCHEMES = {"waiting-time": {}, "fixed-step": {"dt": 0.01}}
MC_SEEDS = range(10)
MC_TASK = {"kind": "trajectories", "n_traj": 200, "horizon": 10.0, "burn_in": 2.0}


def write_trajectory_configs(directory):
    """Write the standard Monte Carlo configs into ``directory``; returns their paths."""
    paths = []
    for name, (model, weights, memory, system) in MC_MODELS.items():
        for scheme, extra in MC_SCHEMES.items():
            for seed in MC_SEEDS:
                label = f"mc_{name}_{scheme}_s{seed}"
                config = {
                    "model": model,
                    "weights": weights,
                    "initial": {"memory": memory, "system": system},
                    "task": {**MC_TASK, "scheme": scheme, **extra, "dump": seed == 0},
                    "seed": seed,
                    "output": {"prefix": label},
                }
                path = os.path.join(directory, f"{label}.json")
                with open(path, "w") as fh:
                    json.dump(config, fh, indent=2)
                paths.append(path)
    return paths


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "JUMPFEEDBACK_THREADS")


def run_tree(src, configs, out):
    """Run every config under the package in ``src``; returns {config name: status}."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), **dict.fromkeys(THREAD_VARS, "1"))
    os.makedirs(out)
    subprocess.run([sys.executable, "-c", _CHILD, out, *configs], env=env, check=True)
    with open(os.path.join(out, "status.json")) as fh:
        return json.load(fh)


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def csv_deviation(parent_path, change_path):
    """Largest |difference| of any numeric column relative to that column's largest |value|.

    Returns (deviation, column), or (inf, reason) when the files differ in
    shape, header or a text cell.
    """
    with open(parent_path, newline="") as fh:
        parent = list(csv.reader(fh))
    with open(change_path, newline="") as fh:
        change = list(csv.reader(fh))
    if len(parent) != len(change) or not parent or parent[0] != change[0]:
        return math.inf, "header or row count"
    worst, where = 0.0, None
    for col, name in enumerate(parent[0]):
        pairs = []
        for prow, crow in zip(parent[1:], change[1:]):
            if len(prow) != len(crow):
                return math.inf, "row length"
            a, b = _number(prow[col]), _number(crow[col])
            if a is None or b is None:
                if prow[col] != crow[col]:
                    return math.inf, f"text cell in {name}"
                continue
            pairs.append((a, b))
        finite = [abs(a) for a, _ in pairs if math.isfinite(a)]
        scale = max(finite, default=0.0) or 1.0
        for a, b in pairs:
            if a == b or (math.isnan(a) and math.isnan(b)):
                continue
            dev = abs(a - b) / scale if math.isfinite(a) and math.isfinite(b) else math.inf
            if not dev <= worst:
                worst, where = dev, name
    return worst, where


MISSING = "(missing)"


def json_differences(parent, change, path=""):
    """Yield (key path, parent value, change value) for every place two JSON values differ.

    Dicts are compared key by key and lists of equal length item by item;
    a key on one side only is paired with ``MISSING``.
    """
    if isinstance(parent, dict) and isinstance(change, dict):
        for key in sorted(set(parent) | set(change)):
            sub = f"{path}.{key}" if path else key
            if key in parent and key in change:
                yield from json_differences(parent[key], change[key], sub)
            else:
                yield sub, parent.get(key, MISSING), change.get(key, MISSING)
    elif isinstance(parent, list) and isinstance(change, list) and len(parent) == len(change):
        for i, (a, b) in enumerate(zip(parent, change)):
            yield from json_differences(a, b, f"{path}[{i}]")
    elif parent != change:
        yield path, parent, change


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def describe_difference(path, a, b):
    """One line: the key path, both values and, for two numbers, their relative difference."""
    line = f"  {path}: parent {a!r}, change {b!r}"
    if _is_number(a) and _is_number(b):
        scale = max(abs(a), abs(b))
        rel = abs(a - b) / scale if scale else 0.0
        line += f", relative difference {rel:.3g}"
    return line


def compare(parent_out, change_out, tol):
    """Print one line per output file; returns the number of failures."""
    failures = 0
    names = sorted(
        os.path.relpath(os.path.join(d, f), parent_out)
        for d, _, files in os.walk(parent_out)
        for f in files
        if f != "status.json"
    )
    change_names = sorted(
        os.path.relpath(os.path.join(d, f), change_out)
        for d, _, files in os.walk(change_out)
        for f in files
        if f != "status.json"
    )
    for name in sorted(set(change_names) - set(names)):
        print(f"{name}: only in the change's outputs")
        failures += 1
    for name in names:
        p, c = os.path.join(parent_out, name), os.path.join(change_out, name)
        if not os.path.exists(c):
            print(f"{name}: missing in the change's outputs")
            failures += 1
            continue
        with open(p, "rb") as fa, open(c, "rb") as fb:
            if fa.read() == fb.read():
                print(f"{name}: byte-identical")
                continue
        if name.endswith(".json"):
            with open(p) as fa, open(c) as fb:
                a, b = json.load(fa), json.load(fb)
            a.pop("wall_time_s", None)
            b.pop("wall_time_s", None)
            differences = list(json_differences(a, b))
            print(f"{name}: {'DIFFERS' if differences else 'equal apart from wall_time_s'}")
            for difference in differences:
                print(describe_difference(*difference))
            failures += bool(differences)
            continue
        dev, column = csv_deviation(p, c)
        bad = not dev <= tol
        print(f"{name}: max |diff| / column max = {dev:.3g} (column {column}){' FAIL' if bad else ''}")
        failures += bad
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", help="directory holding the parent's jumpfeedback package")
    parser.add_argument("change_src", help="directory holding the change's jumpfeedback package")
    parser.add_argument("configs", nargs="*", help="config files (default: configs/*.json)")
    parser.add_argument("--tol", type=float, default=1e-12, help="largest accepted relative deviation")
    parser.add_argument(
        "--trajectories", action="store_true", help="run the standard Monte Carlo set (see above)"
    )
    args = parser.parse_args(argv)
    configs = [os.path.abspath(c) for c in args.configs]
    with tempfile.TemporaryDirectory() as tmp:
        if args.trajectories:
            config_dir = os.path.join(tmp, "configs")
            os.makedirs(config_dir)
            configs += write_trajectory_configs(config_dir)
        elif not configs:
            configs = sorted(glob.glob(os.path.join(ROOT, "configs", "*.json")))
        parent_out, change_out = os.path.join(tmp, "parent"), os.path.join(tmp, "change")
        parent_status = run_tree(args.parent_src, configs, parent_out)
        change_status = run_tree(args.change_src, configs, change_out)
        failures = 0
        for name, status in parent_status.items():
            if status != change_status.get(name):
                print(f"{name}: parent {status!r}, change {change_status.get(name)!r}")
                failures += 1
        failures += compare(parent_out, change_out, args.tol)
    print(f"{len(configs)} configs, {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
