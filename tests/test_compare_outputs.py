"""The report comparison of tools/compare_outputs.py."""

import importlib.util
import os

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
