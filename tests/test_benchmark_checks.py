"""The benchmark's output checks run against the package.

``perfbench/checks.py`` judges every benchmark run, and its Monte Carlo
expectation calls the package itself (``extended_liouvillian``,
``feedback_steady_state``, ``marginals``, ``average_current`` and
``steady_noise``).  These tests load ``checks.py`` and ``workloads.py`` from
the benchmark directory and run the checks on the outputs of the
benchmark's own operations, so a change to those functions that breaks the
benchmark fails here first.
"""

import importlib.util
import pathlib

import jumpfeedback
from jumpfeedback.cli import run_config

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(operations, directory):
    """Run each operation's config into ``directory``; yields (operation, output paths)."""
    for op in operations:
        _, _, files = run_config(op.config, base_dir=str(directory))
        yield op, files


def test_trajectory_batches_pass_the_monte_carlo_check(tmp_path):
    # seed 0, pass 0: the batches of the benchmark's warm-up
    workloads, checks = load("workloads"), load("checks")
    batches = {}
    for op, files in run(workloads.trajectory_operations(0, 0), tmp_path):
        batches.setdefault(op.group, (op.config, []))[1].extend(files)
    assert set(batches) == {"waiting-time", "fixed-step"}
    checks.check_trajectories(jumpfeedback, batches)


def test_two_time_outputs_pass_the_spectrum_and_correlation_check(tmp_path):
    workloads, checks = load("workloads"), load("checks")
    tables = {"spectrum": {}, "correlation": {}}
    for op, files in run(workloads.two_time_operations(str(ROOT)), tmp_path):
        base = op.meta["base"]
        table = tables[base["task"]["kind"]]
        table.setdefault(base["model"]["params"]["feedback"], (base, []))[1].extend(files)
    assert set(tables["spectrum"]) == set(tables["correlation"]) == {True, False}
    checks.check_two_time(jumpfeedback, tables["spectrum"], tables["correlation"])
