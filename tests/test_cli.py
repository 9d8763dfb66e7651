"""End-to-end tests for the JSON-config command line interface."""

import csv
import dataclasses
import filecmp
import glob
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import jumpfeedback.cli as cli
from jumpfeedback import (
    CountingWeights,
    HybridState,
    MaserParams,
    QubitParams,
    __version__,
    average_current,
    embed,
    extended_liouvillian,
    marginals,
    feedback_steady_state,
    maser_model,
    mc_estimate,
    qubit_analytic,
    qubit_cooling_model,
    steady_noise,
    work_weights,
)
from jumpfeedback.cli import (
    main,
    model_from_config,
    model_to_config,
    parse_config,
    run_config,
)
from jumpfeedback.errors import ConfigError
from jumpfeedback.fcs import stationarity_residuals

from helpers import RANK_TWO_MODEL, child_env, random_model

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
QUBIT_MODEL = {"builtin": "qubit_cooling", "params": {"nbar": 0.5, "gamma": 1.0}}
MASER_PARAMS = {"nl": 0.3, "nr": 8.0, "gl": 0.025, "gr": 0.025, "wl": 8.0, "wr": 2.0}


def trajectory_task(scheme, n_traj=20):
    task = {"kind": "trajectories", "n_traj": n_traj, "horizon": 2.0, "scheme": scheme}
    if scheme == "fixed-step":
        task["dt"] = 0.01
    return task


def base_config(directory, task, prefix="t"):
    return {
        "model": json.loads(json.dumps(QUBIT_MODEL)),
        "task": task,
        "output": {"directory": str(directory), "prefix": prefix},
    }


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestVerbs:
    def test_version_prints_package_version(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out == __version__ + "\n"

    def test_validate_reports_model_summary(self, tmp_path, capsys):
        cfg = base_config(tmp_path, {"kind": "steady"})
        rc = main(["validate", write_config(tmp_path, cfg)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out == "ok: dim 2, channels ['-1', '+1'], generator 8, task steady\n"

    def test_validate_reports_sweep_grid(self, capsys):
        rc = main(["validate", os.path.join(CONFIG_DIR, "fig2b_maser_noise.json")])
        assert rc == 0
        assert capsys.readouterr().out == (
            "ok: dim 3, channels ['E_l', 'I_l', 'E_r', 'I_r'], generator 36, "
            "task sweep (25 points x 4 variants)\n"
        )

    @pytest.mark.parametrize(
        "model, scheme, detail",
        [
            ("maser", "fixed-step", "fixed-step, class tables"),
            ("rank two", "fixed-step", "fixed-step, lookahead"),
            ("maser", "waiting-time", "waiting-time, class tables"),
            ("rank two", "waiting-time", "waiting-time, per-state"),
        ],
    )
    def test_validate_names_the_monte_carlo_path(self, tmp_path, capsys, model, scheme, detail):
        cfg = base_config(tmp_path, trajectory_task(scheme))
        if model == "maser":
            cfg["model"] = {"builtin": "maser", "params": MASER_PARAMS}
            cfg["weights"] = "work"
            cfg["initial"] = {"memory": "E_l", "system": "ground"}
            summary = "dim 3, channels ['E_l', 'I_l', 'E_r', 'I_r'], generator 36"
        else:
            cfg["model"] = RANK_TWO_MODEL
            cfg["weights"] = "activity"
            cfg["initial"] = {"memory": "a", "system": "ground"}
            summary = "dim 2, channels ['a', 'b'], generator 8"
        rc = main(["validate", write_config(tmp_path, cfg)])
        assert rc == 0
        assert capsys.readouterr().out == f"ok: {summary}, task trajectories ({detail})\n"

    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_more_trajectories_than_stream_indices_is_config_error(self, tmp_path, capsys, verb):
        cfg = base_config(tmp_path, trajectory_task("fixed-step", n_traj=10**10))
        cfg["weights"] = "activity"
        cfg["initial"] = {"memory": "-1", "system": "ground"}
        rc = main([verb, write_config(tmp_path, cfg)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "config error: task.n_traj: must be at most 2**32 = 4294967296\n"
        )
        assert not (tmp_path / "t_report.json").exists()

    def test_memory_error_exits_one(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 32.0 TiB for an array")

        # nothing is allocated for real: the estimate fails at once
        monkeypatch.setattr(cli, "mc_estimate", exhausted)
        cfg = base_config(tmp_path, trajectory_task("fixed-step", n_traj=2**32))
        cfg["weights"] = "activity"
        cfg["initial"] = {"memory": "-1", "system": "ground"}
        rc = main(["run", write_config(tmp_path, cfg)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: MemoryError: Unable to allocate 32.0 TiB for an array\n"
        )

    def test_validate_mentions_silent_channels(self, tmp_path, capsys):
        cfg = base_config(tmp_path, {"kind": "steady"})
        cfg["model"] = {
            "builtin": "maser",
            "params": {**MASER_PARAMS, "classical": True},
        }
        rc = main(["validate", write_config(tmp_path, cfg)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 silent" in out
        assert "task steady" in out

    def test_run_prints_csv_paths_then_report(self, tmp_path, capsys):
        cfg = base_config(tmp_path, {"kind": "steady"})
        rc = main(["run", write_config(tmp_path, cfg)])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert lines == [
            str(tmp_path / "t_steady.csv"),
            str(tmp_path / "t_report.json"),
        ]
        for line in lines:
            assert os.path.exists(line)

    def test_missing_config_file_is_config_error(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "nope.json")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error:")

    def test_invalid_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        rc = main(["validate", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "invalid JSON" in err

    def test_runtime_failure_exits_one(self, tmp_path, capsys):
        zero = [[0.0, 0.0], [0.0, 0.0]]
        cfg = base_config(tmp_path, {"kind": "steady"})
        cfg["model"] = {"dim": 2, "channels": ["a"], "jump_ops": {"a": zero}}
        rc = main(["run", write_config(tmp_path, cfg)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: DegenerateSteadyStateError:")

    @pytest.mark.parametrize("verb", ["run", "validate"])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, verb):
        # json reads NaN and Infinity; every numeric entry must reject them
        cfg = base_config(tmp_path, {"kind": "steady"})
        cfg["model"]["params"]["nbar"] = float("nan")
        cfg["model"]["params"]["gamma"] = float("inf")
        rc = main([verb, write_config(tmp_path, cfg)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: model.params.nbar: expected a finite number")
        assert not os.path.exists(tmp_path / "t_steady.csv")

    def test_non_finite_matrix_entry_is_config_error(self, tmp_path, capsys):
        cfg = base_config(tmp_path, {"kind": "steady"})
        cfg["model"] = {
            "dim": 1,
            "channels": ["a"],
            "jump_ops": {"a": [[[1.0, float("-inf")]]]},
        }
        rc = main(["validate", write_config(tmp_path, cfg)])
        assert rc == 2
        assert "model.jump_ops.a[0][0][1]: expected a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["run", "validate"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, verb):
        task = {"kind": "trajectories", "n_traj": 2, "horizon": 1.0}
        cfg = base_config(tmp_path, task)
        cfg["weights"] = "activity"
        cfg["initial"] = {"memory": "-1", "system": "ground"}
        cfg["seed"] = -1
        rc = main([verb, write_config(tmp_path, cfg)])
        assert rc == 2
        assert capsys.readouterr().err == "config error: seed: must be non-negative\n"
        assert not os.path.exists(tmp_path / "t_trajectories.csv")

    def test_unusable_output_directory_exits_one(self, tmp_path, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("a file, not a directory")
        cfg = base_config(blocker, {"kind": "steady"})
        rc = main(["run", write_config(tmp_path, cfg)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: FileExistsError:")
        assert blocker.read_text() == "a file, not a directory"

    @pytest.mark.parametrize(
        "path", sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json"))), ids=os.path.basename
    )
    def test_shipped_configs_validate(self, path, capsys):
        assert main(["validate", path]) == 0
        assert capsys.readouterr().out.startswith("ok: dim ")

    def test_linear_algebra_failure_exits_one(self, tmp_path, capsys):
        # finite but overflowing rates fill the generator with inf and nan
        cfg = base_config(tmp_path, {"kind": "steady"})
        cfg["model"] = {
            "builtin": "maser",
            "params": {"nl": 1e300, "nr": 8.0, "gl": 1e300, "gr": 0.1},
        }
        with np.errstate(all="ignore"):
            rc = main(["run", write_config(tmp_path, cfg)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: LinAlgError:")


class TestConfigErrors:
    def check(self, cfg, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(cfg)

    def test_grid_values_must_be_finite(self, tmp_path):
        cfg = base_config(tmp_path, {"kind": "spectrum", "omegas": {"logspace": [0, 400, 3]}})
        cfg["weights"] = "activity"
        with np.errstate(over="ignore"):
            self.check(cfg, "task.omegas: grid values must be finite")

    def test_unknown_top_level_key(self, tmp_path):
        cfg = base_config(tmp_path, {"kind": "steady"})
        cfg["extra"] = 1
        self.check(cfg, "unknown keys")

    def test_missing_model(self):
        self.check({"task": {"kind": "steady"}}, "missing 'model' section")

    def test_missing_task(self):
        self.check({"model": QUBIT_MODEL}, "missing 'task' section")

    def test_unknown_task_kind(self, tmp_path):
        self.check(base_config(tmp_path, {"kind": "dance"}), "task.kind")

    def test_unknown_builtin(self, tmp_path):
        cfg = base_config(tmp_path, {"kind": "steady"})
        cfg["model"] = {"builtin": "oscillator", "params": {}}
        self.check(cfg, "unknown builtin")

    def test_missing_required_builtin_parameter(self, tmp_path):
        cfg = base_config(tmp_path, {"kind": "steady"})
        cfg["model"] = {"builtin": "qubit_cooling", "params": {"nbar": 0.5}}
        self.check(cfg, "missing required parameter")

    def test_evolve_needs_initial_section(self, tmp_path):
        cfg = base_config(tmp_path, {"kind": "evolve", "times": [0.0, 1.0]})
        self.check(cfg, "needs an initial section")

    def test_evolve_times_must_increase(self, tmp_path):
        cfg = base_config(tmp_path, {"kind": "evolve", "times": [0.0, 1.0, 1.0]})
        cfg["initial"] = {"memory": "-1", "system": "ground"}
        self.check(cfg, "strictly increasing")

    def test_dt_rejected_for_waiting_time(self, tmp_path):
        task = {
            "kind": "trajectories",
            "n_traj": 2,
            "horizon": 1.0,
            "dt": 0.1,
        }
        cfg = base_config(tmp_path, task)
        cfg["weights"] = "activity"
        cfg["initial"] = {"memory": "-1", "system": "ground"}
        self.check(cfg, "only meaningful for the fixed-step scheme")

    def test_burn_in_must_precede_horizon(self, tmp_path):
        task = {"kind": "trajectories", "n_traj": 2, "horizon": 1.0, "burn_in": 1.0}
        cfg = base_config(tmp_path, task)
        cfg["weights"] = "activity"
        cfg["initial"] = {"memory": "-1", "system": "ground"}
        self.check(cfg, r"\[0, horizon\)")

    def test_sweep_requires_builtin_model(self, tmp_path):
        zero = [[0.0, 0.0], [0.0, 0.0]]
        task = {"kind": "sweep", "parameter": "nbar", "values": [0.1]}
        cfg = base_config(tmp_path, task)
        cfg["model"] = {"dim": 2, "channels": ["a"], "jump_ops": {"a": zero}}
        self.check(cfg, "sweep needs a builtin")

    def test_sweep_rejects_duplicate_variant_labels(self, tmp_path):
        task = {
            "kind": "sweep",
            "parameter": "nbar",
            "values": [0.1, 0.2],
            "variants": [{"label": "a"}, {"label": "a", "mode": "drive_off"}],
        }
        self.check(base_config(tmp_path, task), "duplicate variant label")

    def test_sweep_lockstep_length_mismatch(self, tmp_path):
        task = {
            "kind": "sweep",
            "parameter": "nbar",
            "values": [0.1, 0.2],
            "also": {"gamma": [1.0]},
        }
        self.check(base_config(tmp_path, task), "same length")

    def test_sweep_also_cannot_repeat_parameter(self, tmp_path):
        task = {
            "kind": "sweep",
            "parameter": "nbar",
            "values": [0.1, 0.2],
            "also": {"nbar": [1.0, 2.0]},
        }
        self.check(base_config(tmp_path, task), "not an independent")

    def test_unknown_weights_name(self, tmp_path):
        cfg = base_config(tmp_path, {"kind": "noise"})
        cfg["weights"] = "clicks"
        self.check(cfg, "unknown weights name")

    def test_work_weights_need_maser(self, tmp_path):
        cfg = base_config(tmp_path, {"kind": "noise"})
        cfg["weights"] = "work"
        self.check(cfg, "maser builtin only")

    def test_weights_forms_are_exclusive(self, tmp_path):
        cfg = base_config(tmp_path, {"kind": "noise"})
        cfg["weights"] = {"per_channel": {"-1": 1.0}, "per_transition": []}
        self.check(cfg, "exactly one of per_channel / per_transition")

    def test_initial_memory_must_be_distribution(self, tmp_path):
        cfg = base_config(tmp_path, {"kind": "evolve", "times": [0.0, 1.0]})
        cfg["initial"] = {"memory": {"-1": 0.4, "+1": 0.4}, "system": "ground"}
        self.check(cfg, "probability distribution")

    def test_initial_matrix_needs_unit_trace(self, tmp_path):
        cfg = base_config(tmp_path, {"kind": "evolve", "times": [0.0, 1.0]})
        cfg["initial"] = {
            "memory": "-1",
            "system": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.4, 0.0]]],
        }
        self.check(cfg, "unit trace")

    def test_prefix_rejects_path_separators(self, tmp_path):
        cfg = base_config(tmp_path, {"kind": "steady"}, prefix="a/b")
        self.check(cfg, "path separators")

    def test_grid_forms_are_exclusive(self, tmp_path):
        task = {
            "kind": "evolve",
            "times": {"linspace": [0, 1, 5], "logspace": [0, 1, 5]},
        }
        cfg = base_config(tmp_path, task)
        cfg["initial"] = {"memory": "-1", "system": "ground"}
        self.check(cfg, "exactly one of linspace / logspace")

    def test_grid_spec_needs_three_entries(self, tmp_path):
        task = {"kind": "evolve", "times": {"linspace": [0, 1]}}
        cfg = base_config(tmp_path, task)
        cfg["initial"] = {"memory": "-1", "system": "ground"}
        self.check(cfg, r"\[start, stop, num\]")


TRAJECTORIES = {"kind": "trajectories", "n_traj": 4, "horizon": 1.0}
FIXED_STEP = {**TRAJECTORIES, "scheme": "fixed-step"}
EVOLVE = {"kind": "evolve", "times": [0.0, 1.0]}


class TestValidateRejectsWhatRunRejects:
    """An initial matrix and a fixed step are checked at parse, for both verbs."""

    @staticmethod
    def config(directory, task, system):
        cfg = base_config(directory, task)
        cfg["weights"] = "activity"
        cfg["initial"] = {"memory": "-1", "system": system}
        return cfg

    @pytest.mark.parametrize("verb", ["validate", "run"])
    @pytest.mark.parametrize(
        "task, system, code, message",
        [
            (EVOLVE, [[0.5, [0.9, 0.0]], [[0.1, 0.0], 0.5]], 2,
             "config error: initial.system: initial state is not hermitian"),
            (TRAJECTORIES, [[1.5, 0.0], [0.0, -0.5]], 2,
             "config error: initial.system: initial state is not positive semidefinite"),
            # within the old evolve bound of -1e-8, outside the shared one of -1e-10
            (EVOLVE, [[1.0 + 5e-9, 0.0], [0.0, -5e-9]], 2,
             "config error: initial.system: initial state is not positive semidefinite"),
            ({**FIXED_STEP, "dt": -0.01}, "ground", 2, "config error: task.dt: must be positive"),
            ({**FIXED_STEP, "dt": 0.03}, "ground", 2,
             "config error: task.dt: horizon must be an integer number of steps"),
            ({**FIXED_STEP, "dt": 0.5}, "ground", 1,
             "error: ValidationError: dt * max total rate = 0.75 exceeds 0.05; reduce the step"),
            # 1.5 steps were once two steps, within an absolute tolerance of 1e-9
            ({**FIXED_STEP, "horizon": 1.5e-9, "dt": 1e-9}, "ground", 2,
             "config error: task.dt: horizon must be an integer number of steps"),
            # every other setting of the run rule, one at a time
            ({**TRAJECTORIES, "n_traj": 0}, "ground", 2, "config error: task.n_traj: must be at least 1"),
            ({**TRAJECTORIES, "horizon": 0.0}, "ground", 2,
             "config error: task.horizon: must be positive"),
            ({**TRAJECTORIES, "burn_in": -0.5}, "ground", 2,
             "config error: task.burn_in: must lie in [0, horizon)"),
            ({**TRAJECTORIES, "scheme": "euler"}, "ground", 2,
             "config error: task.scheme: must be 'waiting-time' or 'fixed-step'"),
            ({**FIXED_STEP, "dt": 0.0}, "ground", 2, "config error: task.dt: must be positive"),
        ],
        ids=[
            "nonhermitian", "negative", "slightly_negative", "dt_negative", "dt_fraction", "dt_long",
            "dt_tiny_fraction", "n_traj_zero", "horizon_zero", "burn_in_negative", "scheme_unknown",
            "dt_zero",
        ],
    )
    def test_both_verbs_reject(self, tmp_path, capsys, verb, task, system, code, message):
        out = tmp_path / "out"
        rc = main([verb, write_config(tmp_path, self.config(out, task, system))])
        captured = capsys.readouterr()
        assert rc == code
        assert captured.out == ""
        assert captured.err == message + "\n"
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["validate", "run"])
    @pytest.mark.parametrize("key", ["directory", "prefix"])
    def test_nul_byte_in_output_path(self, tmp_path, capsys, verb, key):
        out = tmp_path / "out"
        cfg = self.config(out, EVOLVE, "ground")
        cfg["output"][key] = "a\u0000b"
        rc = main([verb, write_config(tmp_path, cfg)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == f"config error: output.{key}: must not contain a NUL byte\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "task", [EVOLVE, {**FIXED_STEP, "dt": 0.01}], ids=["evolve", "fixed_step"]
    )
    @pytest.mark.parametrize(
        "system",
        ["ground", "maximally_mixed", {"basis": 1}, [[0.7, [0.1, 0.2]], [[0.1, -0.2], 0.3]]],
        ids=["ground", "mixed", "basis", "matrix"],
    )
    def test_density_matrices_and_named_states_run(self, tmp_path, capsys, task, system):
        path = write_config(tmp_path, self.config(tmp_path, task, system))
        assert main(["validate", path]) == 0
        assert main(["run", path]) == 0
        assert capsys.readouterr().err == ""


NAN, INF = float("nan"), float("inf")
CORRELATION = {"kind": "correlation", "taus": [0.0, 1.0]}


class TestNoTraceback:
    """Malformed and extreme configs end with an exit code and a message, never a traceback.

    Parse errors exit 2 under both verbs; a failure found only by running
    passes ``validate`` and exits 1 under ``run`` without writing a CSV.
    """

    @staticmethod
    def config(directory, task, **sections):
        cfg = base_config(directory, task)
        cfg["weights"] = "activity"
        cfg["initial"] = {"memory": "-1", "system": "ground"}
        cfg.update(sections)
        return cfg

    @pytest.mark.parametrize(
        "task, sections, code, message",
        [
            # 1e300 / 1e-300 steps overflow to inf
            ({**FIXED_STEP, "horizon": 1e300, "dt": 1e-300}, {}, 2,
             "config error: task.dt: horizon must be an integer number of steps"),
            ({**EVOLVE, "times": [0.0, 1e308]}, {}, 1,
             "error: PositivityError: state at t=1e+308 has non-finite entries"),
            ({**CORRELATION, "taus": [1e308]}, {}, 1,
             "error: ValidationError: correlation value at tau=1e+308 is nan+nanj, "
             "not a finite real number"),
            (EVOLVE, {"model": {"builtin": "qubit_cooling", "params": {"nbar": NAN, "gamma": 1}}},
             2, "config error: model.params.nbar: expected a finite number, got nan"),
            ({**TRAJECTORIES, "horizon": INF}, {}, 2,
             "config error: task.horizon: expected a finite number, got inf"),
            ({**TRAJECTORIES, "horizon": 10**400}, {}, 2,
             "config error: task.horizon: expected a finite number, got inf"),
            ({**TRAJECTORIES, "burn_in": NAN}, {}, 2,
             "config error: task.burn_in: expected a finite number, got nan"),
            ({**FIXED_STEP, "dt": NAN}, {}, 2,
             "config error: task.dt: expected a finite number, got nan"),
            ({**EVOLVE, "times": [0.0, NAN]}, {}, 2,
             "config error: task.times[1]: expected a finite number, got nan"),
            ({**CORRELATION, "taus": {"linspace": [0.0, -INF, 3]}}, {}, 2,
             "config error: task.taus.linspace[1]: expected a finite number, got -inf"),
            (EVOLVE, {"initial": {"memory": {"-1": NAN}, "system": "ground"}}, 2,
             "config error: initial.memory.-1: expected a finite number, got nan"),
            (EVOLVE, {"initial": {"memory": {"-1": 1.5, "+1": -0.5}, "system": "ground"}}, 2,
             "config error: initial.memory: memory is not a probability distribution: "
             "entries must be non-negative and sum to 1 within 1e-10"),
            (EVOLVE, {"initial": {"memory": "-1", "system": [[NAN, 0.0], [0.0, 1.0]]}}, 2,
             "config error: initial.system[0][0]: expected a finite number, got nan"),
            (CORRELATION, {"weights": {"per_channel": {"+1": NAN}}}, 2,
             "config error: weights.per_channel.+1: expected a finite number, got nan"),
            ({"kind": "sweep", "parameter": "nbar", "values": [0.5, NAN]}, {}, 2,
             "config error: task.values[1]: expected a finite number, got nan"),
            # the span that hung the removed ODE route; 'method' is no longer a key
            ({**EVOLVE, "times": [0.0, 1e308], "method": "ode"}, {}, 2,
             "config error: task: unknown keys ['method']; allowed: ['kind', 'times']"),
        ],
        ids=[
            "step_count_overflow", "evolve_far_time", "correlation_far_lag", "nan_param",
            "inf_horizon", "overflowing_integer", "nan_burn_in", "nan_dt", "nan_time",
            "infinite_grid_end", "nan_memory", "negative_memory", "nan_state_entry",
            "nan_weight", "nan_sweep_value", "evolve_method_key",
        ],
    )
    def test_exit_code_and_message(self, tmp_path, capsys, task, sections, code, message):
        out = tmp_path / "out"
        path = write_config(tmp_path, self.config(out, task, **sections))
        for verb in ("validate", "run"):
            expected = 0 if code == 1 and verb == "validate" else code
            assert main([verb, path]) == expected
            captured = capsys.readouterr()
            if expected == 0:
                assert captured.err == ""
            else:
                assert captured.out == ""
                assert captured.err == message + "\n"
        assert not glob.glob(str(out / "*.csv"))


class TestSteadyTask:
    def test_csv_layout_and_closed_form(self, tmp_path):
        cfg = base_config(tmp_path, {"kind": "steady"})
        report, report_path, files = run_config(cfg)
        header, rows = read_csv(files[0])
        assert header == ["P(-1)", "P(+1)", "pop0", "pop1", "re_c01", "im_c01"]
        assert len(rows) == 1
        got = [float(x) for x in rows[0]]
        ground, coherence, memory_minus = qubit_analytic(0.5, 1.0)
        assert got[0] == pytest.approx(memory_minus, abs=1e-12)
        assert got[2] == pytest.approx(ground, abs=1e-12)
        assert got[4] == pytest.approx(0.0, abs=1e-12)
        assert got[5] == pytest.approx(coherence.imag, abs=1e-12)
        assert report["rows"] == {"steady": 1}
        assert report["manifest"] == {"steady": "t_steady.csv"}

    def test_formatting_round_trips_doubles(self, tmp_path):
        cfg = base_config(tmp_path, {"kind": "steady"})
        _, _, files = run_config(cfg)
        _, rows = read_csv(files[0])
        state = feedback_steady_state(
            qubit_cooling_model(QubitParams(nbar=0.5, gamma=1.0, lam=1.0, delta=0.0))
        )
        system, probs, _ = marginals(state)
        assert float(rows[0][0]) == probs[0]
        assert float(rows[0][2]) == system[0, 0].real
        assert float(rows[0][5]) == system[0, 1].imag

    def test_report_file_content(self, tmp_path):
        cfg = base_config(tmp_path, {"kind": "steady"})
        report, report_path, _ = run_config(cfg)
        with open(report_path) as fh:
            text = fh.read()
        assert text.endswith("\n")
        loaded = json.loads(text)
        assert loaded["version"] == __version__
        assert loaded["config"] == parse_config(cfg)[1]
        assert set(loaded) == {"version", "config", "manifest", "rows", "wall_time_s", "extras"}
        assert set(loaded["extras"]) == {"min_rcond", "max_stationarity_residual"}


class TestEvolveTask:
    TIMES = [0.0, 0.4, 1.2]

    def evolve_config(self, directory):
        cfg = base_config(directory, {"kind": "evolve", "times": self.TIMES})
        cfg["initial"] = {"memory": "-1", "system": "ground"}
        return cfg

    def test_initial_row_matches_input(self, tmp_path):
        _, _, files = run_config(self.evolve_config(tmp_path))
        header, rows = read_csv(files[0])
        assert header[0] == "time"
        assert len(rows) == 3
        first = [float(x) for x in rows[0]]
        assert first[0] == 0.0
        assert first[1] == pytest.approx(1.0, abs=1e-14)  # P(-1)
        assert first[3] == pytest.approx(1.0, abs=1e-14)  # pop0

    def test_csv_matches_dense_exponential(self, tmp_path):
        _, _, files = run_config(self.evolve_config(tmp_path))
        _, rows = read_csv(files[0])
        got = np.array([[float(x) for x in row] for row in rows])
        assert len(got) == len(self.TIMES)
        model = qubit_cooling_model(QubitParams(nbar=0.5, gamma=1.0, lam=1.0, delta=0.0))
        ext = extended_liouvillian(model)
        v0 = ext.vectors(embed(model.channels, [1.0, 0.0], np.diag([1.0, 0.0])).blocks[None])[0]
        for t, row in zip(self.TIMES, got):
            blocks = ext.blocks(scipy.linalg.expm(t * ext.matrices[0]) @ v0)[0]
            system, probs, _ = marginals(HybridState(model.channels, blocks))
            want = [t, *probs, *system.diagonal().real, system[0, 1].real, system[0, 1].imag]
            assert np.abs(row - want).max() < 1e-10


class TestTrajectoriesTask:
    def traj_config(self, directory, dump=False):
        task = {
            "kind": "trajectories",
            "n_traj": 25,
            "horizon": 6.0,
            "scheme": "waiting-time",
            "dump": dump,
        }
        cfg = base_config(directory, task)
        cfg["weights"] = "activity"
        cfg["initial"] = {"memory": "-1", "system": "ground"}
        cfg["seed"] = 5
        return cfg

    def test_summary_matches_direct_estimate(self, tmp_path):
        report, _, files = run_config(self.traj_config(tmp_path))
        header, rows = read_csv(files[0])
        assert header[:5] == [
            "n_traj",
            "mean_charge",
            "mean_charge_se",
            "var_charge",
            "var_charge_se",
        ]
        assert header[5:] == ["freq(-1)", "freq_se(-1)", "freq(+1)", "freq_se(+1)"]
        model = qubit_cooling_model(QubitParams(nbar=0.5, gamma=1.0, lam=1.0, delta=0.0))
        weights = CountingWeights.activity(model.channels)
        rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        est = mc_estimate(
            model,
            weights,
            rho0,
            {"-1": 1.0, "+1": 0.0},
            horizon=6.0,
            n_traj=25,
            master_seed=5,
        )
        row = rows[0]
        assert row[0] == "25"
        assert float(row[1]) == est.mean_charge
        assert float(row[2]) == est.mean_charge_se
        assert float(row[3]) == est.var_charge
        assert float(row[5]) == est.memory_freq[0]
        assert report["extras"]["rounds"] == est.rounds
        # activity weights count every jump of this model once
        assert report["extras"]["jump_events"] == est.jump_events
        assert report["extras"]["survival_evaluations"] == est.survival_evaluations
        assert est.jump_events == round(25 * est.mean_charge)

    def test_jump_dump_replays_records(self, tmp_path):
        _, _, files = run_config(self.traj_config(tmp_path, dump=True))
        dump_path = [f for f in files if f.endswith("_jumps.csv")]
        assert len(dump_path) == 1
        header, rows = read_csv(dump_path[0])
        assert header == [
            "trajectory_id",
            "time",
            "channel_label",
            "memory_before",
            "charge_after",
        ]
        model = qubit_cooling_model(QubitParams(nbar=0.5, gamma=1.0, lam=1.0, delta=0.0))
        weights = CountingWeights.activity(model.channels)
        rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        est = mc_estimate(
            model,
            weights,
            rho0,
            {"-1": 1.0, "+1": 0.0},
            horizon=6.0,
            n_traj=25,
            master_seed=5,
            collect_records=True,
        )
        assert len(rows) == sum(len(r.jump_times) for r in est.records)
        final = {}
        for row in rows:
            assert row[2] in model.channels
            assert row[3] in model.channels
            final[int(row[0])] = float(row[4])
        for tid, rec in enumerate(est.records):
            if rec.jump_times.size:
                assert final[tid] == pytest.approx(rec.charge, abs=1e-12)

    def test_jump_dump_equals_the_csv_writer_rows(self, tmp_path):
        # labels with a comma, a quote and a line feed; a silent channel; a
        # -0.0 weight and a pair that cancels, so running sums pass through zero
        s, zero = 0.5, [[0.0, 0.0], [0.0, 0.0]]
        model_cfg = {
            "dim": 2,
            "channels": ["down,1", 'up "2"'],
            "hamiltonians": {"down,1": [[0.0, 0.3], [0.3, 0.0]]},
            "jump_ops": {"down,1": [[0.0, s], [0.0, 0.0]], 'up "2"': [[0.0, 0.0], [s, 0.0]]},
            "silent_ops": {"phase\nflip": {"down,1": [[s, 0.0], [0.0, -s]], 'up "2"': zero}},
        }
        nu = [[-0.0, 0.25], [-0.25, 1.0]]
        task = {"kind": "trajectories", "n_traj": 40, "horizon": 4.0, "burn_in": 0.5, "dump": True}
        cfg = base_config(tmp_path, task)
        cfg.update(
            model=model_cfg,
            weights={"per_transition": nu},
            initial={"memory": {"down,1": 0.5, 'up "2"': 0.5}, "system": "ground"},
            seed=11,
        )
        _, _, files = run_config(cfg)
        model, _ = model_from_config(model_cfg)
        est = mc_estimate(
            model, CountingWeights(model.channels, np.array(nu)), np.diag([1.0, 0.0]),
            [0.5, 0.5], 4.0, 40, master_seed=11, burn_in=0.5, collect_records=True,
        )
        # the per-jump rows of a running sum and csv.writer
        rows, first_counted = [], []
        for tid, rec in enumerate(est.records):
            running, counted = 0.0, []
            for t, ch, mem in zip(rec.jump_times, rec.jump_channels, rec.memory_before):
                if ch < rec.n_monitored and t >= rec.burn_in:
                    running += nu[ch][mem]
                    counted.append(nu[ch][mem])
                rows.append([str(tid), format(t, ".17g"), rec.labels[ch], model.channels[mem],
                             format(running, ".17g")])
            first_counted += counted[:1]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["trajectory_id", "time", "channel_label", "memory_before", "charge_after"])
        writer.writerows(rows)
        [dump] = [f for f in files if f.endswith("_jumps.csv")]
        with open(dump, newline="") as fh:
            text = fh.read()
        assert text == buf.getvalue()
        # the cases the test is for occur
        assert any(len(r.jump_times) == 0 for r in est.records)
        assert "phase\nflip" in {row[2] for row in rows}
        assert any(w == 0 and np.signbit(w) for w in first_counted)
        assert "0" in {row[4] for row in rows}
        _, parsed = read_csv(dump)
        assert len(parsed) == len(rows) and all(row[4] != "-0" for row in parsed)


class TestSpectrumTask:
    def test_report_carries_worst_resolvent_residual(self, tmp_path):
        cfg = base_config(tmp_path, {"kind": "spectrum", "omegas": [0.0, -1.5, 2.0]})
        cfg["model"] = {"builtin": "maser", "params": dict(MASER_PARAMS)}
        cfg["weights"] = "work"
        report, report_path, files = run_config(cfg)
        header, rows = read_csv(files[0])
        assert header == ["omega", "S"] and len(rows) == 3
        worst = report["extras"]["max_resolvent_residual"]
        assert 0.0 <= worst < 1e-12
        with open(report_path) as fh:
            assert json.load(fh)["extras"]["max_resolvent_residual"] == worst


class TestSweepTask:
    def test_values_sorted_with_lockstep_columns(self, tmp_path):
        task = {
            "kind": "sweep",
            "parameter": "nbar",
            "values": [2.0, 0.5, 1.0],
            "also": {"gamma": [4.0, 1.0, 2.0]},
            "inner": "steady",
            "variants": [{"label": "fb"}, {"label": "off", "mode": "drive_off"}],
        }
        cfg = base_config(tmp_path, task)
        ctx, canon = parse_config(cfg)
        assert canon["task"]["values"] == [0.5, 1.0, 2.0]
        assert canon["task"]["also"] == {"gamma": [1.0, 2.0, 4.0]}

        _, _, files = run_config(cfg)
        header, rows = read_csv(files[0])
        state_cols = ["P(-1)", "P(+1)", "pop0", "pop1", "re_c01", "im_c01"]
        expected = ["nbar", "gamma"]
        expected += [f"fb_{c}" for c in state_cols]
        expected += [f"off_{c}" for c in state_cols]
        assert header == expected
        assert [float(r[0]) for r in rows] == [0.5, 1.0, 2.0]
        assert [float(r[1]) for r in rows] == [1.0, 2.0, 4.0]

    def test_variant_columns_differ_between_modes(self, tmp_path):
        task = {
            "kind": "sweep",
            "parameter": "nbar",
            "values": [0.5],
            "variants": [{"label": "fb"}, {"label": "off", "mode": "drive_off"}],
        }
        _, _, files = run_config(base_config(tmp_path, task))
        header, rows = read_csv(files[0])
        fb_pop0 = float(rows[0][header.index("fb_pop0")])
        off_pop0 = float(rows[0][header.index("off_pop0")])
        ground, _, _ = qubit_analytic(0.5, 1.0)
        assert fb_pop0 == pytest.approx(ground, abs=1e-12)
        # without the corrective drive the qubit relaxes to the thermal state
        assert off_pop0 == pytest.approx(1.5 / 2.0, abs=1e-12)
        assert fb_pop0 > off_pop0

    @staticmethod
    def maser_noise_sweep(directory):
        task = {
            "kind": "sweep",
            "parameter": "gl",
            "values": [0.05, 0.02],
            "also": {"gr": [0.05, 0.02]},
            "inner": "noise",
            "variants": [{"label": "fb"}, {"label": "nofb", "feedback": False}],
        }
        return {
            "model": {"builtin": "maser", "params": dict(MASER_PARAMS)},
            "weights": "work",
            "task": task,
            "output": {"directory": str(directory), "prefix": "m"},
        }

    def test_noise_sweep_emits_power_norm(self, tmp_path):
        _, _, files = run_config(self.maser_noise_sweep(tmp_path))
        header, rows = read_csv(files[0])
        assert header == [
            "gl",
            "gr",
            "fb_current",
            "fb_noise",
            "fb_power_norm",
            "nofb_current",
            "nofb_noise",
            "nofb_power_norm",
        ]
        assert [float(r[0]) for r in rows] == [0.02, 0.05]
        for row in rows:
            gl = float(row[0])
            scale = gl * (MASER_PARAMS["wl"] - MASER_PARAMS["wr"])
            assert float(row[4]) == pytest.approx(float(row[2]) / scale, rel=1e-12)
            assert float(row[7]) == pytest.approx(float(row[5]) / scale, rel=1e-12)


    def test_power_norm_is_nan_where_the_work_gap_vanishes(self, tmp_path, capsys):
        with open(os.path.join(CONFIG_DIR, "fig4b_maser_noise.json")) as fh:
            cfg = json.load(fh)
        cfg["model"]["params"]["wr"] = cfg["model"]["params"]["wl"]
        cfg["output"] = {"directory": str(tmp_path), "prefix": "fig4b"}
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        capsys.readouterr()
        header, rows = read_csv(tmp_path / "fig4b_sweep.csv")
        for label in ("fb_quantum", "nofb_quantum"):
            norm = header.index(f"{label}_power_norm")
            current = header.index(f"{label}_current")
            assert all(row[norm] == "nan" for row in rows)
            assert all(np.isfinite(float(row[current])) for row in rows)

    def test_each_variant_grid_is_built_once_at_parse(self, tmp_path, monkeypatch):
        calls = []

        def counted(name, build):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return build(*args, **kwargs)

            return wrapper

        def patch_builders(wrap):
            cls, tensors_of, extras = cli._BUILTINS["maser"]
            monkeypatch.setitem(cli._BUILTINS, "maser", (cls, wrap("tensors", tensors_of), extras))
            monkeypatch.setattr(cli, "maser_model", wrap("model", cli.maser_model))

        patch_builders(counted)
        ctx, _ = parse_config(self.maser_noise_sweep(tmp_path))
        # the base model, then one grid of both points per variant
        assert sorted(calls) == ["model", "tensors", "tensors"]
        assert [tensors[0].shape[0] for _, tensors in ctx["grids"]] == [2, 2]

        def refused(name, build):
            def wrapper(*args, **kwargs):
                raise AssertionError(f"the run built a {name}")

            return wrapper

        patch_builders(refused)
        out = cli._Outputs(str(tmp_path), "m")
        cli._run_sweep(ctx, out)
        assert out.files[0][2] == 2

    @pytest.mark.parametrize("verb", ["validate", "run"])
    @pytest.mark.parametrize(
        "params, sweep, message",
        [
            (
                {},
                {"parameter": "gl", "values": [0.1, 0.2], "also": {"gr": [0.1, -0.2]}},
                "occupations and rates must be non-negative",
            ),
            # gl*nl + gr*nr vanishes only at the second point
            (
                {"nl": 0.0, "classical": True},
                {"parameter": "nr", "values": [1.0, 2.0], "also": {"gr": [0.1, 0.0]}},
                "classical drive rate undefined: gl*nl + gr*nr = 0",
            ),
        ],
    )
    def test_every_point_is_checked_at_parse(self, tmp_path, capsys, verb, params, sweep, message):
        cfg = {
            "model": {"builtin": "maser", "params": {**MASER_PARAMS, **params}},
            "task": {"kind": "sweep", **sweep},
            "output": {"directory": str(tmp_path), "prefix": "bad"},
        }
        assert main([verb, write_config(tmp_path, cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: ValidationError: {message}\n"

    @pytest.mark.parametrize(
        "builtin, base, parameter, values, weights, inner, variants",
        [
            # wl moves only the work weights, the operators stay fixed
            ("maser", MASER_PARAMS, "wl", [6.0, 9.0, 12.0], "work", "noise",
             [{}, {"feedback": False}, {"classical": True}]),
            # lam moves only H, or only the hop rate of the classical maser
            ("maser", MASER_PARAMS, "lam", [0.5, 1.0, 2.0], "work", "noise",
             [{}, {"feedback": False}, {"classical": True, "feedback": False}]),
            ("qubit_cooling", QUBIT_MODEL["params"], "lam", [0.5, 1.0, 2.0], "activity", "steady",
             [{}, {"mode": "always_on"}, {"mode": "drive_off"}]),
        ],
    )
    def test_cells_match_single_models(
        self, tmp_path, builtin, base, parameter, values, weights, inner, variants
    ):
        task = {
            "kind": "sweep",
            "parameter": parameter,
            "values": values,
            "inner": inner,
            "variants": [{"label": f"v{i}", **v} for i, v in enumerate(variants)],
        }
        cfg = {
            "model": {"builtin": builtin, "params": dict(base)},
            "weights": weights,
            "task": task,
            "output": {"directory": str(tmp_path), "prefix": "s"},
        }
        _, _, files = run_config(cfg)
        header, rows = read_csv(files[0])
        got = np.array(rows, dtype=float)
        want = np.empty_like(got)
        want[:, 0] = values
        for i, value in enumerate(values):
            col = 1
            for variant in variants:
                section = {"builtin": builtin, "params": {**base, **variant, parameter: value}}
                model, canon = model_from_config(section)
                ext = extended_liouvillian(model)
                state = feedback_steady_state(model, ext=ext)
                p = canon["params"]
                if weights == "work":
                    w = work_weights(MaserParams(**{k: p[k] for k in MASER_PARAMS}))
                else:
                    w = CountingWeights.activity(model.channels)
                cells = [float(x) for x in cli._state_rows(state.blocks[None])[0]]
                if inner == "steady":
                    want[i, col : col + len(cells)] = cells
                    col += len(cells)
                want[i, col] = average_current(ext, w, state)
                col += 1
                if inner == "noise":
                    want[i, col] = steady_noise(ext, w, state=state)
                    want[i, col + 1] = want[i, col - 1] / (p["gl"] * (p["wl"] - p["wr"]))
                    col += 2
            assert col == len(header)
        scale = np.abs(want).max(axis=0)
        assert (np.abs(got - want) <= 1e-12 * scale).all()


    @staticmethod
    def sweep_without_base_energies(directory, variants):
        base = {k: v for k, v in MASER_PARAMS.items() if k not in ("wl", "wr")}
        return {
            "model": {"builtin": "maser", "params": base},
            "weights": "work",
            "task": {
                "kind": "sweep",
                "parameter": "wl",
                "values": [6.0, 8.0],
                "inner": "noise",
                "variants": variants,
            },
            "output": {"directory": str(directory), "prefix": "w"},
        }

    def test_work_weights_are_checked_on_the_grid(self, tmp_path, capsys):
        # the base params have no wl and wr, every grid point has both
        cfg = self.sweep_without_base_energies(tmp_path, [{"label": "fb"}])
        cfg["task"]["also"] = {"wr": [2.0, 2.0]}
        path = write_config(tmp_path, cfg)
        assert main(["validate", path]) == 0
        assert main(["run", path]) == 0
        capsys.readouterr()
        header, rows = read_csv(tmp_path / "w_sweep.csv")
        assert header == ["wl", "wr", "fb_current", "fb_noise", "fb_power_norm"]
        got = np.array(rows, dtype=float)
        want = np.empty_like(got)
        for i, wl in enumerate([6.0, 8.0]):
            p = MaserParams(**{**MASER_PARAMS, "wl": wl, "wr": 2.0})
            model = maser_model(p)
            ext = extended_liouvillian(model)
            state = feedback_steady_state(model, ext=ext)
            current = average_current(ext, work_weights(p), state)
            noise = steady_noise(ext, work_weights(p), state=state)
            want[i] = [wl, 2.0, current, noise, current / (p.gl * (p.wl - p.wr))]
        assert (np.abs(got - want) <= 1e-12 * np.abs(want).max(axis=0)).all()

    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_work_weights_need_energies_at_every_point(self, tmp_path, capsys, verb):
        variants = [{"label": "a", "wr": 2.0}, {"label": "b"}]
        cfg = self.sweep_without_base_energies(tmp_path, variants)
        assert main([verb, write_config(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: weights: 'work' weights need maser params wl and wr\n"


class TestHealthExtras:
    """Reports of tasks on stationary states carry the worst conditioning and stationarity."""

    @staticmethod
    def single_model_health(model):
        ext = extended_liouvillian(model)
        state = feedback_steady_state(model, ext=ext)
        residual = stationarity_residuals(ext, state.blocks[None])[0]
        return ext.stationary.rcond[0], residual

    def test_sweep_report(self, tmp_path):
        cfg = TestSweepTask.maser_noise_sweep(tmp_path)
        report, report_path, files = run_config(cfg)
        health = [
            self.single_model_health(
                maser_model(MaserParams(**{**MASER_PARAMS, "gl": g, "gr": g}), feedback=fb)
            )
            for g in (0.02, 0.05)
            for fb in (True, False)
        ]
        extras = report["extras"]
        assert set(extras) == {"min_rcond", "max_stationarity_residual"}
        assert extras["min_rcond"] == pytest.approx(min(r for r, _ in health), rel=1e-9)
        assert 0.0 <= extras["max_stationarity_residual"] < 1e-12
        with open(report_path) as fh:
            assert json.load(fh)["extras"] == extras
        # the CSV carries no health column
        header, _ = read_csv(files[0])
        assert not any("rcond" in c or "residual" in c for c in header)

    def test_noise_report(self, tmp_path):
        cfg = base_config(tmp_path, {"kind": "noise"})
        cfg["model"] = {"builtin": "maser", "params": dict(MASER_PARAMS)}
        cfg["weights"] = "work"
        report, _, _ = run_config(cfg)
        rcond, _ = self.single_model_health(maser_model(MaserParams(**MASER_PARAMS)))
        assert report["extras"]["min_rcond"] == pytest.approx(rcond, rel=1e-9)
        assert 0.0 <= report["extras"]["max_stationarity_residual"] < 1e-12

    @pytest.mark.parametrize(
        "task, own",
        [(CORRELATION, "current"), ({"kind": "spectrum", "omegas": [0.0, 1.0]},
                                    "max_resolvent_residual")],
        ids=["correlation", "spectrum"],
    )
    def test_two_time_reports_solve_the_stationary_state_once(
        self, tmp_path, monkeypatch, task, own
    ):
        cfg = base_config(tmp_path, task)
        cfg["model"] = {"builtin": "maser", "params": dict(MASER_PARAMS)}
        cfg["weights"] = "work"

        def solved_again(*args, **kwargs):
            raise AssertionError("the kernel solved the stationary state again")

        monkeypatch.setattr("jumpfeedback.fcs.stationary_blocks", solved_again)
        report, _, _ = run_config(cfg)
        rcond, _ = self.single_model_health(maser_model(MaserParams(**MASER_PARAMS)))
        assert set(report["extras"]) == {own, "min_rcond", "max_stationarity_residual"}
        assert report["extras"]["min_rcond"] == pytest.approx(rcond, rel=1e-9)
        assert 0.0 <= report["extras"]["max_stationarity_residual"] < 1e-12


class TestDeterminism:
    def rich_config(self, directory):
        task = {
            "kind": "trajectories",
            "n_traj": 15,
            "horizon": 5.0,
            "scheme": "fixed-step",
            "dt": 0.02,
            "burn_in": 1.0,
            "dump": True,
        }
        cfg = base_config(directory, task, prefix="rep")
        cfg["weights"] = "activity"
        cfg["initial"] = {"memory": {"-1": 0.5, "+1": 0.5}, "system": "maximally_mixed"}
        cfg["seed"] = 11
        return cfg

    def test_reruns_are_byte_identical(self, tmp_path):
        report1, path1, files1 = run_config(self.rich_config(tmp_path / "one"))
        report2, path2, files2 = run_config(self.rich_config(tmp_path / "two"))
        assert [os.path.basename(f) for f in files1] == [
            os.path.basename(f) for f in files2
        ]
        for f1, f2 in zip(files1, files2):
            assert filecmp.cmp(f1, f2, shallow=False)
        report1.pop("wall_time_s")
        report2.pop("wall_time_s")
        report1["config"]["output"].pop("directory")
        report2["config"]["output"].pop("directory")
        assert report1 == report2

    def test_canonical_config_is_idempotent(self, tmp_path):
        task = {
            "kind": "sweep",
            "parameter": "nbar",
            "values": [2.0, 0.5],
            "also": {"gamma": [4.0, 1.0]},
            "variants": [{"label": "fb"}],
        }
        cfg = base_config(tmp_path, task)
        cfg["seed"] = 3
        _, canon = parse_config(cfg)
        _, canon2 = parse_config(canon)
        assert canon2 == canon

    def test_carriage_return_in_a_label_reads_back(self, tmp_path):
        section = model_to_config(qubit_cooling_model(QubitParams(nbar=0.5, gamma=1.0)))
        cfg = base_config(tmp_path, {"kind": "steady"})
        cfg["model"] = json.loads(json.dumps(section).replace('"-1"', '"a\\rb"'))
        _, _, files = run_config(cfg)
        header, rows = read_csv(files[0])
        assert header[:2] == ["P(a\rb)", "P(+1)"]
        assert len(rows) == 1 and len(rows[0]) == len(header)

    def test_thread_count_never_changes_deterministic_outputs(self, tmp_path):
        # a five-point chunk of the fig2b noise sweep and a 61-lag chunk of the
        # fig3b correlation, as the benchmark runs them
        with open(os.path.join(CONFIG_DIR, "fig2b_maser_noise.json")) as fh:
            sweep = json.load(fh)
        task = sweep["task"]
        task["values"] = task["values"][:5]
        task["also"] = {k: v[:5] for k, v in task["also"].items()}
        with open(os.path.join(CONFIG_DIR, "fig3b_maser_correlation_feedback.json")) as fh:
            correlation = json.load(fh)
        correlation["task"]["taus"] = {"linspace": [0.0, 6.0, 61]}
        code = (
            "import json, sys\n"
            "from jumpfeedback.cli import run_config\n"
            "for path in sys.argv[2:]:\n"
            "    run_config(json.load(open(path)), base_dir=sys.argv[1])\n"
        )
        paths = [write_config(tmp_path, cfg, f"{i}.json") for i, cfg in enumerate((sweep, correlation))]
        outputs = []
        for threads in ("1", "2"):
            env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
            env["JUMPFEEDBACK_THREADS"] = threads
            out = tmp_path / f"threads{threads}"
            subprocess.run(
                [sys.executable, "-c", code, str(out), *paths], env=child_env(env), check=True
            )
            outputs.append({f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))})
        assert len(outputs[0]) == 3
        assert outputs[0] == outputs[1]

    def test_csv_lines_end_with_lf(self, tmp_path):
        cfg = base_config(tmp_path, {"kind": "steady"})
        _, _, files = run_config(cfg)
        with open(files[0], "rb") as fh:
            data = fh.read()
        assert b"\r" not in data
        assert data.endswith(b"\n")


def csv_writer_text(header, rows):
    """A table as csv.writer writes it with every number through format(float(x), '.17g')."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([[format(float(x), ".17g") for x in row] for row in rows])
    return buf.getvalue()


class TestTableWriter:
    SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308,
               2.2250738585072014e-308, 0.1, 1 / 3, 1e16, 123456789012345678.0]

    def test_special_values_and_integers_match_the_csv_writer(self):
        rows = [self.SPECIAL[i : i + 2] for i in range(0, len(self.SPECIAL), 2)]
        rows += [[3, -7], [0, 2**53 + 1], [400, 10**16]]
        header = ["a", "b"]
        assert cli._table_text(header, rows) == csv_writer_text(header, rows)
        assert cli._table_text(header, np.array(rows, dtype=float)) == csv_writer_text(header, rows)

    def test_every_bit_pattern_formats_alike(self):
        bits = np.random.default_rng(190).integers(0, 2**64, size=20000, dtype=np.uint64)
        values = bits.view(float).reshape(-1, 4)
        assert cli._table_text(list("wxyz"), values) == csv_writer_text(list("wxyz"), values)

    def test_header_quoting_matches_the_csv_writer(self):
        header = ["plain", "a,b", 'say "hi"', "two\nlines", " lead", "P(x)", "semi;colon"]
        values = np.arange(14.0).reshape(2, 7)
        assert cli._table_text(header, values) == csv_writer_text(header, values)

    def test_file_bytes_and_row_count(self, tmp_path):
        out = cli._Outputs(str(tmp_path), "w")
        rows = [[1.0, np.nan], [-0.0, 5e-324]]
        out.add("t", ["x", "y"], rows)
        with open(tmp_path / "w_t.csv", "rb") as fh:
            assert fh.read() == csv_writer_text(["x", "y"], rows).encode()
        assert out.files == [("t", os.path.normpath(str(tmp_path / "w_t.csv")), 2)]


class TestGridParse:
    @pytest.mark.parametrize(
        "entry, message",
        [
            (True, "expected a number, got bool"),
            ("1.0", "expected a number, got str"),
            (float("nan"), "expected a finite number, got nan"),
            (float("inf"), "expected a finite number, got inf"),
            (-float("inf"), "expected a finite number, got -inf"),
            (10**400, "expected a finite number, got inf"),
            ([1.0], "expected a number, got list"),
        ],
        ids=["bool", "str", "nan", "inf", "-inf", "overflow", "list"],
    )
    def test_bad_entry_is_named_by_its_index(self, tmp_path, entry, message):
        taus = [0.0, 0.5, 1.0, entry, 2.0, 2.5, 3.0]
        cfg = base_config(tmp_path, {"kind": "correlation", "taus": taus})
        cfg["weights"] = "activity"
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg)
        assert str(exc.value) == f"task.taus[3]: {message}"

    def test_values_equal_the_per_element_floats(self):
        grid = [0, 1, 2.5, -0.0, 10**20, 2**53 + 1, 1e-300, 5e-324]
        got = cli._grid_from_config(grid, "g")
        assert got == [float(x) for x in grid]
        assert all(type(x) is float for x in got)
        assert str(cli._grid_from_config([-0.0], "g")[0]) == "-0.0"

    def test_numpy_floats_are_numbers(self):
        got = cli._grid_from_config([np.float64(0.5), 1.5], "g")
        assert got == [0.5, 1.5] and all(type(x) is float for x in got)


class TestModelRoundTrip:
    def test_explicit_section_reproduces_model(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, dim=3, n_channels=2, silent=1)
        section = model_to_config(model)
        rebuilt, canon = model_from_config(section)
        assert canon == section
        assert rebuilt.channels == model.channels
        assert np.array_equal(rebuilt.hamiltonians, model.hamiltonians)
        assert np.array_equal(rebuilt.jump_ops, model.jump_ops)
        assert rebuilt.silent_labels == model.silent_labels
        assert np.array_equal(rebuilt.silent_ops, model.silent_ops)

    def test_builtin_section_fills_defaults(self):
        _, canon = model_from_config({"builtin": "maser", "params": MASER_PARAMS})
        assert canon["params"]["lam"] == 1.0
        assert canon["params"]["delta"] == 0.0
        assert canon["params"]["feedback"] is True
        assert canon["params"]["classical"] is False

    @pytest.mark.parametrize(
        "name, given, cls, extras",
        [
            ("qubit_cooling", {"nbar": 0.5, "gamma": 1.0}, QubitParams, {"mode": "feedback"}),
            ("maser", MASER_PARAMS, MaserParams, {"feedback": True, "classical": False}),
            ("maser", {"nl": 0.3, "nr": 8.0, "gl": 0.1, "gr": 0.2}, MaserParams,
             {"feedback": True, "classical": False}),
        ],
    )
    def test_builtin_defaults_are_the_dataclass_defaults(self, name, given, cls, extras):
        _, canon = model_from_config({"builtin": name, "params": given})
        # fields left at None (the maser's wl, wr when not given) stay out
        numeric = {k: v for k, v in dataclasses.asdict(cls(**given)).items() if v is not None}
        assert canon["params"] == {**numeric, **extras}

    def test_explicit_matrices_with_complex_entries(self):
        sy = [[[0.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [0.0, 0.0]]]
        section = {
            "dim": 2,
            "channels": ["a"],
            "hamiltonians": {"a": sy},
            "jump_ops": {"a": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
        }
        model, _ = model_from_config(section)
        assert model.hamiltonians[0][0, 1] == -1.0j
        assert model.hamiltonians[0][1, 0] == 1.0j


class TestThreadEnvironment:
    def run_probe(self, extra_env):
        env = {
            k: v
            for k, v in os.environ.items()
            if not k.endswith("_NUM_THREADS")
        }
        env.update(extra_env)
        code = (
            "import jumpfeedback, os; "
            "print(os.environ.get('OMP_NUM_THREADS'), os.environ.get('MKL_NUM_THREADS'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=child_env(env),
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip()

    def test_thread_variable_fans_out(self):
        assert self.run_probe({"JUMPFEEDBACK_THREADS": "3"}) == "3 3"

    def test_existing_setting_wins(self):
        got = self.run_probe(
            {"JUMPFEEDBACK_THREADS": "3", "OMP_NUM_THREADS": "7"}
        )
        assert got == "7 3"

    def test_module_entry_point(self):
        out = subprocess.run(
            [sys.executable, "-m", "jumpfeedback.cli", "version"],
            env=child_env(),
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == __version__


class TestTaskDeclarations:
    """Each task kind's required sections give the same message under both verbs."""

    MISSING = [
        ("evolve", EVOLVE, "initial", "initial: task 'evolve' needs an initial section"),
        ("correlation", CORRELATION, "weights", "weights: task 'correlation' needs a weights section"),
        ("spectrum", {"kind": "spectrum", "omegas": [0.0, 1.0]}, "weights",
         "weights: task 'spectrum' needs a weights section"),
        ("noise", {"kind": "noise"}, "weights", "weights: task 'noise' needs a weights section"),
        ("trajectories", TRAJECTORIES, "weights",
         "weights: task 'trajectories' needs a weights section"),
        ("trajectories", TRAJECTORIES, "initial",
         "initial: task 'trajectories' needs an initial section"),
        ("sweep", {"kind": "sweep", "parameter": "nbar", "values": [0.5, 1.0], "inner": "noise"},
         "weights", "weights: sweep with inner 'noise' needs a weights section"),
    ]

    @pytest.mark.parametrize("verb", ["validate", "run"])
    @pytest.mark.parametrize(
        "kind, task, section, message", MISSING, ids=[f"{m[0]}-{m[2]}" for m in MISSING]
    )
    def test_missing_section(self, tmp_path, capsys, verb, kind, task, section, message):
        out = tmp_path / "out"
        cfg = base_config(out, task)
        cfg["weights"] = "activity"
        cfg["initial"] = {"memory": "-1", "system": "ground"}
        del cfg[section]
        assert main([verb, write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_unknown_kind_lists_the_kinds_in_order(self, tmp_path, capsys, verb):
        assert main([verb, write_config(tmp_path, base_config(tmp_path, {"kind": "dance"}))]) == 2
        assert capsys.readouterr().err == (
            "config error: task.kind: must be one of ('steady', 'evolve', 'correlation', "
            "'spectrum', 'noise', 'trajectories', 'sweep')\n"
        )


class TestGridRuleMessages:
    """The CLI reports the grid rule's message after the config path."""

    @pytest.mark.parametrize(
        "task, message",
        [
            ({"kind": "correlation", "taus": []}, "task.taus: grid values must be a non-empty 1-d array"),
            ({"kind": "correlation", "taus": [0.0, -1.0]}, "task.taus: grid values must be non-negative"),
            ({"kind": "evolve", "times": []}, "task.times: grid values must be a non-empty 1-d array"),
            ({"kind": "spectrum", "omegas": []}, "task.omegas: grid values must be a non-empty 1-d array"),
            ({"kind": "spectrum", "omegas": {"logspace": [0, 400, 3]}},
             "task.omegas: grid values must be finite"),
        ],
        ids=["taus_empty", "taus_negative", "times_empty", "omegas_empty", "omegas_overflow"],
    )
    def test_validate_prints_the_rule(self, tmp_path, capsys, task, message):
        cfg = base_config(tmp_path, task)
        cfg["weights"] = "activity"
        cfg["initial"] = {"memory": "-1", "system": "ground"}
        with np.errstate(over="ignore"):
            assert main(["validate", write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"


class TestSweepOfAnInvalidBase:
    """A sweep is checked at the grid it runs, not at the base value of its parameter."""

    BASE = {"nl": 0.0, "nr": 0.0, "gl": 0.5, "gr": 0.5, "feedback": False}

    def config(self, directory, classical_base):
        # gl*nl + gr*nr = 0 leaves the classical drive rate undefined at the base
        params = {**self.BASE, "classical": True} if classical_base else dict(self.BASE)
        variants = [{"label": "run"} if classical_base else {"label": "run", "classical": True}]
        return {
            "model": {"builtin": "maser", "params": params},
            "weights": "activity",
            "task": {"kind": "sweep", "parameter": "nl", "values": [0.2, 0.1], "inner": "noise",
                     "variants": variants},
            "output": {"directory": str(directory), "prefix": "s"},
        }

    def test_both_verbs_run_and_equal_the_variant_form(self, tmp_path, capsys):
        path = write_config(tmp_path, self.config(tmp_path / "base", True), "base.json")
        assert main(["validate", path]) == 0
        assert capsys.readouterr().out.startswith("ok: dim 3, channels ['E_l', 'I_l', 'E_r', 'I_r'], 2 silent")
        assert main(["run", path]) == 0
        report, _, files = run_config(self.config(tmp_path / "variant", False))
        with open(tmp_path / "base" / "s_sweep.csv") as fh, open(files[0]) as fv:
            assert fh.read() == fv.read()
        with open(tmp_path / "base" / "s_report.json") as fh:
            assert json.load(fh)["config"]["model"]["params"]["nl"] == 0.0


class TestSweepGridParsedOnce:
    """parse_config reads a sweep's grid once; a grid error is still the task section's."""

    TASK = {"kind": "sweep", "parameter": "nbar", "values": [2.0, 0.5], "also": {"gamma": [1.0, 2.0]}}

    def test_one_parse_per_config(self, tmp_path, monkeypatch):
        calls = []
        real = cli._sweep_grid

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli, "_sweep_grid", counted)
        _, canon = parse_config(base_config(tmp_path, self.TASK))
        assert len(calls) == 1
        assert canon["task"]["values"] == [0.5, 2.0]

    def test_grid_error_raised_after_the_sections_before_the_task(self, tmp_path):
        cfg = base_config(tmp_path, {**self.TASK, "values": [0.5, float("nan")]})
        with pytest.raises(ConfigError, match=r"^task\.values\[1\]: expected a finite number"):
            parse_config(cfg)
        # a seed error comes first, as the seed is read before the task
        cfg["seed"] = -1
        with pytest.raises(ConfigError, match=r"^seed: must be non-negative"):
            parse_config(cfg)


class TestMonteCarloOverflow:
    """A Monte Carlo summary that overflows is an error, not an inf or nan in the CSV."""

    @pytest.mark.parametrize(
        "weight, name", [(1e300, "mean_charge_se is inf"), (1e80, "var_charge_se is nan")]
    )
    def test_run_exits_1_and_writes_no_csv(self, tmp_path, capsys, weight, name):
        out = tmp_path / "out"
        cfg = {
            "model": {"builtin": "maser", "params": {"nl": 1.0, "nr": 2.0, "gl": 0.5, "gr": 0.5,
                                                     "wl": 8.0, "wr": 2.0}},
            "weights": {"per_channel": {"E_l": weight}},
            "initial": {"memory": "E_l", "system": "ground"},
            "task": {"kind": "trajectories", "n_traj": 4, "horizon": 2.0},
            "seed": 0,
            "output": {"directory": str(out)},
        }
        assert main(["run", write_config(tmp_path, cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ValidationError: {name}")
        assert not glob.glob(str(out / "*.csv"))
