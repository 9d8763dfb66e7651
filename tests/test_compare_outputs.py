"""The report comparison of tools/compare_outputs.py."""

import importlib.util
import json
import os

from jumpfeedback.cli import _task_detail, parse_config

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "compare_outputs.py")
_spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def test_json_differences_name_each_key_path():
    parent = {
        "extras": {"min_rcond": 1e-5, "max_stationarity_residual": 1.6e-16},
        "rows": {"sweep": 25},
        "config": {"task": {"values": [0.1, 0.2]}, "seed": 3},
    }
    change = {
        "extras": {"min_rcond": 1e-5, "max_stationarity_residual": 2.9e-16},
        "rows": {"sweep": 25, "noise": 1},
        "config": {"task": {"values": [0.1, 0.25]}},
    }
    assert list(compare_outputs.json_differences(parent, change)) == [
        ("config.seed", 3, compare_outputs.MISSING),
        ("config.task.values[1]", 0.2, 0.25),
        ("extras.max_stationarity_residual", 1.6e-16, 2.9e-16),
        ("rows.noise", compare_outputs.MISSING, 1),
    ]
    assert list(compare_outputs.json_differences(parent, parent)) == []


def test_numbers_carry_their_relative_difference():
    line = compare_outputs.describe_difference("extras.current", 2.0, 2.5)
    assert line == "  extras.current: parent 2.0, change 2.5, relative difference 0.2"
    text = compare_outputs.describe_difference("version", "0.1.0", "0.2.0")
    assert text == "  version: parent '0.1.0', change '0.2.0'"
    assert compare_outputs.describe_difference("x", True, False).endswith("change False")


def test_monte_carlo_set_reaches_every_engine_path(tmp_path):
    # an unchanged output only shows an engine path unchanged if some config takes it
    paths = {}
    for path in compare_outputs.write_trajectory_configs(str(tmp_path)):
        with open(path) as fh:
            ctx, _ = parse_config(json.load(fh))
        detail = _task_detail(ctx["model"], ctx["task"])
        paths.setdefault(detail, set()).add(ctx["prefix"].rsplit("_s", 1)[0])
    assert paths == {
        " (waiting-time, class tables)": {
            "mc_maser_waiting-time", "mc_maser_classical_waiting-time", "mc_qubit_waiting-time"
        },
        " (waiting-time, per-state)": {"mc_rank_two_waiting-time"},
        " (fixed-step, class tables)": {
            "mc_maser_fixed-step", "mc_maser_classical_fixed-step", "mc_qubit_fixed-step"
        },
        " (fixed-step, lookahead)": {"mc_rank_two_fixed-step"},
    }
