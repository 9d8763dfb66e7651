"""Configuration-driven command line front end.

A single JSON document describes the model (builtin or explicit), the
counting weights, the initial condition, and one task; running it emits
CSV files with a fixed column order and 17-significant-digit numbers, so
repeated runs with the same config and seed are byte-identical.

Verbs: ``run <config>``, ``validate <config>``, ``version``.  The
environment variable ``JUMPFEEDBACK_THREADS`` caps the linear-algebra
thread pools (applied before numpy loads when the console script starts).
"""

import argparse
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .dynamics import evolve_extended, stationary_blocks
from .errors import ConfigError, JumpFeedbackError, ValidationError
from .fcs import (
    CountingWeights,
    power_spectrum,
    stationarity_residuals,
    stationary_noises,
    two_point_correlation,
    weighted_jump_rates,
)
from .hybrid import HybridState, embed, extended_liouvillian, generator_stack
from .model import (
    check_density,
    check_distribution,
    check_grid,
    check_hermitian,
    feedback_model,
    jump_rate_table,
)
from .models import (
    MaserParams,
    QubitParams,
    maser_model,
    maser_tensors,
    qubit_baseline_model,
    qubit_cooling_model,
    qubit_tensors,
    work_table,
    work_weights,
)
from .trajectories import MAX_TRAJECTORIES, check_run, mc_estimate, rank_one_jumps, whole_steps

__all__ = ["main", "run_config", "model_from_config", "model_to_config"]

def _fail(path, message):
    raise ConfigError(f"{path}: {message}")


def _expect_map(obj, path):
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    return obj


def _expect_list(obj, path):
    if not isinstance(obj, list):
        _fail(path, f"expected an array, got {type(obj).__name__}")
    return obj


def _expect_str(obj, path):
    if not isinstance(obj, str):
        _fail(path, f"expected a string, got {type(obj).__name__}")
    return obj


def _expect_number(obj, path):
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        _fail(path, f"expected a number, got {type(obj).__name__}")
    try:
        x = float(obj)
    except OverflowError:
        x = math.inf
    # json accepts NaN and Infinity, which no parameter can take
    if not math.isfinite(x):
        _fail(path, f"expected a finite number, got {x}")
    return x


def _expect_int(obj, path):
    if isinstance(obj, bool) or not isinstance(obj, int):
        _fail(path, f"expected an integer, got {type(obj).__name__}")
    return obj


def _expect_bool(obj, path):
    if not isinstance(obj, bool):
        _fail(path, f"expected true/false, got {type(obj).__name__}")
    return obj


def _no_extra_keys(cfg, allowed, path):
    extra = sorted(set(cfg) - set(allowed))
    if extra:
        _fail(path, f"unknown keys {extra}; allowed: {sorted(allowed)}")


# ---------------------------------------------------------------------------
# matrices as nested [re, im] pairs


def _entry_to_complex(obj, path):
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return complex(_expect_number(obj, path))
    if isinstance(obj, list) and len(obj) == 2:
        re = _expect_number(obj[0], f"{path}[0]")
        im = _expect_number(obj[1], f"{path}[1]")
        return complex(re, im)
    _fail(path, "matrix entries must be numbers or [re, im] pairs")


def _matrix_from_config(obj, dim, path):
    rows = _expect_list(obj, path)
    if len(rows) != dim:
        _fail(path, f"expected {dim} rows, got {len(rows)}")
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        row = _expect_list(row, f"{path}[{i}]")
        if len(row) != dim:
            _fail(f"{path}[{i}]", f"expected {dim} entries, got {len(row)}")
        for j, entry in enumerate(row):
            out[i, j] = _entry_to_complex(entry, f"{path}[{i}][{j}]")
    return out


def _matrix_to_pairs(mat):
    mat = np.asarray(mat, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


# ---------------------------------------------------------------------------
# model section


# builtin name -> (parameter dataclass, tensor builder, builder extras with
# their defaults); the dataclass fields give the numeric parameters, their
# defaults and which are required
_BUILTINS = {
    "qubit_cooling": (QubitParams, qubit_tensors, {"mode": "feedback"}),
    "maser": (MaserParams, maser_tensors, {"feedback": True, "classical": False}),
}
_QUBIT_MODES = ("feedback", "always_on", "drive_off")


def _canon_builtin_params(name, params, path):
    """Validate and fill defaults for builtin parameters.

    Numeric parameters whose default is None (the maser's ``wl``, ``wr``)
    are left out when not given.
    """
    params = _expect_map(params, path)
    if name not in _BUILTINS:
        _fail(path, f"unknown builtin {name!r}; available: {', '.join(_BUILTINS)}")
    cls, _, extras = _BUILTINS[name]
    fields = dataclasses.fields(cls)
    _no_extra_keys(params, {f.name for f in fields} | set(extras), path)
    canon = {}
    for f in fields:
        if f.name in params:
            canon[f.name] = _expect_number(params[f.name], f"{path}.{f.name}")
        elif f.default is dataclasses.MISSING:
            _fail(path, f"missing required parameter {f.name!r}")
        elif f.default is not None:
            canon[f.name] = f.default
    for key, default in extras.items():
        if key not in params:
            canon[key] = default
        elif isinstance(default, bool):
            canon[key] = _expect_bool(params[key], f"{path}.{key}")
        else:
            canon[key] = _expect_str(params[key], f"{path}.{key}")
            if canon[key] not in _QUBIT_MODES:
                _fail(f"{path}.{key}", f"must be one of {_QUBIT_MODES}")
    return canon


def _build_builtin(name, canon_params):
    """Model and parameter object of a builtin from its canonical parameters."""
    cls, _, extras = _BUILTINS[name]
    params = cls(**{k: v for k, v in canon_params.items() if k not in extras})
    if name == "maser":
        model = maser_model(
            params, feedback=canon_params["feedback"], classical=canon_params["classical"]
        )
    elif canon_params["mode"] == "feedback":
        model = qubit_cooling_model(params)
    else:
        model = qubit_baseline_model(params, drive_on=canon_params["mode"] == "always_on")
    return model, params


def model_from_config(mcfg, path="model"):
    """Build a validated model from its config section.

    Returns (model, canonical section).  Exactly one of ``builtin`` and
    ``dim`` selects the source.
    """
    model, canon, _, _ = _model_from_config(mcfg, path)
    return model, canon


def _model_from_config(mcfg, path, sweep=None):
    """(model, canonical section, builtin parameter object or None, sweep grid).

    A builtin that the task section ``sweep`` sweeps is built at the grid's
    first point, since no computation reads the base values it sweeps.  The
    grid is :func:`_sweep_grid` of it, or the :class:`ConfigError` that
    raised, for the task section to report in its turn; None without a
    swept builtin.
    """
    mcfg = _expect_map(mcfg, path)
    if "builtin" in mcfg:
        _no_extra_keys(mcfg, {"builtin", "params"}, path)
        name = _expect_str(mcfg["builtin"], f"{path}.builtin")
        canon_params = _canon_builtin_params(name, mcfg.get("params", {}), f"{path}.params")
        point, grid = canon_params, None
        if sweep is not None:
            try:
                grid = _sweep_grid(sweep, name)
            except ConfigError as exc:
                grid = exc
            else:
                parameter, values, also = grid
                point = {**canon_params, parameter: values[0], **{k: v[0] for k, v in also.items()}}
        model, params = _build_builtin(name, point)
        return model, {"builtin": name, "params": canon_params}, params, grid

    _no_extra_keys(
        mcfg, {"dim", "channels", "hamiltonians", "jump_ops", "silent_ops"}, path
    )
    if "dim" not in mcfg or "channels" not in mcfg:
        _fail(path, "explicit models need 'dim' and 'channels' (or use 'builtin')")
    dim = _expect_int(mcfg["dim"], f"{path}.dim")
    if dim < 1:
        _fail(f"{path}.dim", "must be at least 1")
    channels = tuple(
        _expect_str(c, f"{path}.channels[{i}]")
        for i, c in enumerate(_expect_list(mcfg["channels"], f"{path}.channels"))
    )
    if not channels:
        _fail(f"{path}.channels", "need at least one channel")

    hams_cfg = _expect_map(mcfg.get("hamiltonians", {}), f"{path}.hamiltonians")
    _no_extra_keys(hams_cfg, set(channels), f"{path}.hamiltonians")
    hams = {
        k: _matrix_from_config(v, dim, f"{path}.hamiltonians.{k}")
        for k, v in hams_cfg.items()
    }

    jumps_cfg = _expect_map(mcfg.get("jump_ops", {}), f"{path}.jump_ops")
    _no_extra_keys(jumps_cfg, set(channels), f"{path}.jump_ops")
    jump_ops = {}
    for ch, spec in jumps_cfg.items():
        jpath = f"{path}.jump_ops.{ch}"
        if isinstance(spec, dict):
            _no_extra_keys(spec, set(channels), jpath)
            jump_ops[ch] = {
                mem: _matrix_from_config(m, dim, f"{jpath}.{mem}")
                for mem, m in spec.items()
            }
        else:
            jump_ops[ch] = _matrix_from_config(spec, dim, jpath)

    silent_cfg = _expect_map(mcfg.get("silent_ops", {}), f"{path}.silent_ops")
    silent_ops = {}
    for label, spec in silent_cfg.items():
        spath = f"{path}.silent_ops.{label}"
        spec = _expect_map(spec, spath)
        _no_extra_keys(spec, set(channels), spath)
        silent_ops[label] = {
            mem: _matrix_from_config(m, dim, f"{spath}.{mem}")
            for mem, m in spec.items()
        }

    model = feedback_model(
        dim=dim,
        channels=channels,
        hamiltonians=hams,
        jump_ops=jump_ops,
        silent_ops=silent_ops or None,
    )
    return model, model_to_config(model), None, None


def model_to_config(model):
    """Explicit config section reproducing a model exactly."""
    channels = list(model.channels)
    section = {
        "dim": model.dim,
        "channels": channels,
        "hamiltonians": {
            ch: _matrix_to_pairs(model.hamiltonians[k])
            for k, ch in enumerate(channels)
        },
        "jump_ops": {
            ch: {
                mem: _matrix_to_pairs(model.jump_ops[k, q])
                for q, mem in enumerate(channels)
            }
            for k, ch in enumerate(channels)
        },
    }
    if model.silent_labels:
        section["silent_ops"] = {
            lab: {
                mem: _matrix_to_pairs(model.silent_ops[s, q])
                for q, mem in enumerate(channels)
            }
            for s, lab in enumerate(model.silent_labels)
        }
    return section


# ---------------------------------------------------------------------------
# weights / initial / grids


def _check_work_energies(params, path="weights"):
    if params.wl is None or params.wr is None:
        _fail(path, "'work' weights need maser params wl and wr")


def _weights_from_config(wcfg, model, params, swept=False, path="weights"):
    """Weights and their canonical section; ``params`` is the builtin's or None.

    A sweep (``swept``) checks 'work' weights at its grid points instead of
    on ``params`` and gets no weights object: it builds them per point.
    """
    if wcfg is None:
        return None, None
    if isinstance(wcfg, str):
        if wcfg == "activity":
            return CountingWeights.activity(model.channels), "activity"
        if wcfg == "work":
            if not isinstance(params, MaserParams):
                _fail(path, "'work' weights are defined for the maser builtin only")
            if swept:
                return None, "work"
            _check_work_energies(params, path)
            return work_weights(params), "work"
        _fail(path, f"unknown weights name {wcfg!r}; use 'activity' or 'work'")
    wcfg = _expect_map(wcfg, path)
    _no_extra_keys(wcfg, {"per_channel", "per_transition"}, path)
    if ("per_channel" in wcfg) == ("per_transition" in wcfg):
        _fail(path, "give exactly one of per_channel / per_transition")
    m = model.n_channels
    if "per_channel" in wcfg:
        entries = _expect_map(wcfg["per_channel"], f"{path}.per_channel")
        _no_extra_keys(entries, set(model.channels), f"{path}.per_channel")
        full = {
            ch: _expect_number(entries.get(ch, 0.0), f"{path}.per_channel.{ch}")
            for ch in model.channels
        }
        return (
            CountingWeights.from_channel_weights(model.channels, full),
            {"per_channel": full},
        )
    rows = _expect_list(wcfg["per_transition"], f"{path}.per_transition")
    if len(rows) != m:
        _fail(f"{path}.per_transition", f"expected {m} rows (one per channel)")
    mat = np.zeros((m, m))
    for i, row in enumerate(rows):
        row = _expect_list(row, f"{path}.per_transition[{i}]")
        if len(row) != m:
            _fail(f"{path}.per_transition[{i}]", f"expected {m} entries")
        for j, x in enumerate(row):
            mat[i, j] = _expect_number(x, f"{path}.per_transition[{i}][{j}]")
    weights = CountingWeights(channels=model.channels, per_transition=mat)
    return weights, {"per_transition": [[float(x) for x in row] for row in mat]}


def _initial_from_config(icfg, model, path="initial"):
    icfg = _expect_map(icfg, path)
    _no_extra_keys(icfg, {"memory", "system"}, path)
    if "memory" not in icfg or "system" not in icfg:
        _fail(path, "needs both 'memory' and 'system'")

    mem = icfg["memory"]
    if isinstance(mem, str):
        if mem not in model.channels:
            _fail(f"{path}.memory", f"unknown channel {mem!r}")
        mem = {mem: 1.0}
    mem = _expect_map(mem, f"{path}.memory")
    _no_extra_keys(mem, set(model.channels), f"{path}.memory")
    dist = {ch: _expect_number(mem.get(ch, 0.0), f"{path}.memory.{ch}") for ch in model.channels}
    try:
        check_distribution(np.array(list(dist.values())), "memory")
    except ValidationError as exc:
        _fail(f"{path}.memory", str(exc))

    sys_cfg = icfg["system"]
    d = model.dim
    if isinstance(sys_cfg, str):
        if sys_cfg == "ground":
            rho0 = np.zeros((d, d), dtype=complex)
            rho0[0, 0] = 1.0
        elif sys_cfg == "maximally_mixed":
            rho0 = np.eye(d, dtype=complex) / d
        else:
            _fail(f"{path}.system", f"unknown named state {sys_cfg!r}")
        canon_sys = sys_cfg
    elif isinstance(sys_cfg, dict):
        _no_extra_keys(sys_cfg, {"basis"}, f"{path}.system")
        idx = _expect_int(sys_cfg.get("basis"), f"{path}.system.basis")
        if not 0 <= idx < d:
            _fail(f"{path}.system.basis", f"index out of range for dim {d}")
        rho0 = np.zeros((d, d), dtype=complex)
        rho0[idx, idx] = 1.0
        canon_sys = {"basis": idx}
    else:
        rho0 = _matrix_from_config(sys_cfg, d, f"{path}.system")
        try:
            check_density(rho0[None, None], "initial state")
        except ValidationError as exc:
            _fail(f"{path}.system", str(exc))
        canon_sys = _matrix_to_pairs(rho0)

    return dist, rho0, {"memory": dist, "system": canon_sys}


def _numbers(items, path):
    """Floats of a list of finite numbers, checked in one pass.

    Only a list that fails the pass goes through :func:`_expect_number`
    element by element, which raises the message for its first bad entry.
    """
    if set(map(type, items)) <= {int, float}:
        try:
            vals = np.array(items, dtype=float)
        except OverflowError:
            vals = None
        if vals is not None and np.isfinite(vals).all():
            return vals
    return np.array([_expect_number(x, f"{path}[{i}]") for i, x in enumerate(items)], dtype=float)


def _grid_from_config(gcfg, path, allow_negative=True):
    if isinstance(gcfg, list):
        vals = _numbers(gcfg, path)
    elif isinstance(gcfg, dict):
        _no_extra_keys(gcfg, {"linspace", "logspace"}, path)
        if ("linspace" in gcfg) == ("logspace" in gcfg):
            _fail(path, "give exactly one of linspace / logspace (or a plain array)")
        key = "linspace" if "linspace" in gcfg else "logspace"
        spec = _expect_list(gcfg[key], f"{path}.{key}")
        if len(spec) != 3:
            _fail(f"{path}.{key}", "expected [start, stop, num]")
        start = _expect_number(spec[0], f"{path}.{key}[0]")
        stop = _expect_number(spec[1], f"{path}.{key}[1]")
        num = _expect_int(spec[2], f"{path}.{key}[2]")
        if num < 1:
            _fail(f"{path}.{key}", "num must be at least 1")
        vals = (np.linspace if key == "linspace" else np.logspace)(start, stop, num)
    else:
        _fail(path, "expected an array of numbers or {linspace/logspace: [...]}")
    try:
        return check_grid(vals, "grid values", non_negative=not allow_negative).tolist()
    except ValidationError as exc:
        _fail(path, str(exc))


# ---------------------------------------------------------------------------
# CSV output


def _cell(text):
    """A text cell, quoted as csv.writer's default dialect quotes it.

    That is when it holds a comma, a quote, a line feed or a carriage
    return, so that csv.reader reads every row back whole.
    """
    return '"' + text.replace('"', '""') + '"' if any(x in text for x in ',"\n\r') else text


def _table_text(header, values, row=None):
    """CSV text of a table: the header, then every row of ``values`` (2-D).

    One formatting pass over the whole table with the %-format ``row`` of
    one line, by default '%.17g' in every column of a float table.
    '%.17g' % x equals format(float(x), '.17g') for every float, nan,
    infinities, -0.0 and subnormals included.  Text cells go in through
    '%s' and must already be quoted (:func:`_cell`).
    """
    if row is None:
        values = np.asarray(values, dtype=float)
        row = ",".join(["%.17g"] * values.shape[1])
    lines = ((row + "\n") * len(values)) % tuple(values.ravel().tolist())
    return ",".join(map(_cell, header)) + "\n" + lines


def _state_header(model):
    cols = [f"P({ch})" for ch in model.channels]
    cols += [f"pop{i}" for i in range(model.dim)]
    for i in range(model.dim):
        for j in range(i + 1, model.dim):
            cols += [f"re_c{i}{j}", f"im_c{i}{j}"]
    return cols


def _state_rows(blocks):
    """:func:`_state_header` columns of stacked hybrid blocks ``(P, m, d, d)``, one row each."""
    probs = np.einsum("zkii->zk", blocks).real
    system = blocks.sum(axis=1)
    upper = system[(slice(None), *np.triu_indices(blocks.shape[-1], 1))]
    return np.hstack([
        probs,
        np.einsum("zii->zi", system).real,
        np.stack([upper.real, upper.imag], axis=-1).reshape(len(blocks), -1),
    ])


# ---------------------------------------------------------------------------
# task parsing (validation without execution)


def _parse_task(tcfg, ctx):
    tcfg = _expect_map(tcfg, "task")
    kind = _expect_str(tcfg.get("kind", ""), "task.kind")
    if kind not in _TASKS:
        _fail("task.kind", f"must be one of {tuple(_TASKS)}")
    keys, parse, _, needs = _TASKS[kind]
    _no_extra_keys(tcfg, {"kind", *keys}, "task")
    canon = {"kind": kind, **(parse(tcfg, ctx) if parse else {})}
    for section in needs:
        if ctx[section] is None:
            article = "an" if section == "initial" else "a"
            _fail(section, f"task {kind!r} needs {article} {section} section")
    return canon


def _parse_evolve(tcfg, ctx):
    times = _grid_from_config(tcfg.get("times"), "task.times", allow_negative=False)
    if any(b <= a for a, b in zip(times, times[1:])):
        _fail("task.times", "must be strictly increasing")
    return {"times": times}


def _parse_correlation(tcfg, ctx):
    return {"taus": _grid_from_config(tcfg.get("taus"), "task.taus", allow_negative=False)}


def _parse_spectrum(tcfg, ctx):
    return {"omegas": _grid_from_config(tcfg.get("omegas"), "task.omegas")}


def _parse_trajectories(tcfg, ctx):
    n_traj = _expect_int(tcfg.get("n_traj"), "task.n_traj")
    if n_traj < 1:
        _fail("task.n_traj", "must be at least 1")
    if n_traj > MAX_TRAJECTORIES:
        _fail("task.n_traj", f"must be at most 2**32 = {MAX_TRAJECTORIES}")
    horizon = _expect_number(tcfg.get("horizon"), "task.horizon")
    if horizon <= 0:
        _fail("task.horizon", "must be positive")
    scheme = tcfg.get("scheme", "waiting-time")
    if scheme not in ("waiting-time", "fixed-step"):
        _fail("task.scheme", "must be 'waiting-time' or 'fixed-step'")
    dt = None
    if scheme == "fixed-step":
        dt = _expect_number(tcfg.get("dt"), "task.dt")
        if dt <= 0:
            _fail("task.dt", "must be positive")
        if whole_steps(horizon, dt) is None:
            _fail("task.dt", "horizon must be an integer number of steps")
    elif "dt" in tcfg:
        _fail("task.dt", "only meaningful for the fixed-step scheme")
    burn_in = _expect_number(tcfg.get("burn_in", 0.0), "task.burn_in")
    if not 0.0 <= burn_in < horizon:
        _fail("task.burn_in", "must lie in [0, horizon)")
    dump = _expect_bool(tcfg.get("dump", False), "task.dump")
    check_run(ctx["model"], n_traj, horizon, scheme, dt, burn_in)
    canon = dict(n_traj=n_traj, horizon=horizon, scheme=scheme, burn_in=burn_in, dump=dump)
    return canon if dt is None else {**canon, "dt": dt}


def _sweep_grid(tcfg, name):
    """A sweep's parameter, its sorted values and the ``also`` values in lockstep."""
    numeric = {f.name for f in dataclasses.fields(_BUILTINS[name][0])}
    parameter = _expect_str(tcfg.get("parameter", ""), "task.parameter")
    if parameter not in numeric:
        _fail(
            "task.parameter",
            f"not a numeric parameter of {name!r}; choose from {sorted(numeric)}",
        )
    raw_values = _grid_from_config(tcfg.get("values"), "task.values")
    # secondary parameters varied in lockstep with the primary one
    also_cfg = _expect_map(tcfg.get("also", {}), "task.also")
    also = {}
    for key, spec in also_cfg.items():
        if key not in numeric or key == parameter:
            _fail(f"task.also.{key}", f"not an independent numeric parameter of {name!r}")
        vals = _grid_from_config(spec, f"task.also.{key}")
        if len(vals) != len(raw_values):
            _fail(f"task.also.{key}", "must have the same length as task.values")
        also[key] = vals
    order = sorted(range(len(raw_values)), key=raw_values.__getitem__)
    values = [raw_values[i] for i in order]
    return parameter, values, {k: [v[i] for i in order] for k, v in sorted(also.items())}


def _parse_sweep(tcfg, ctx):
    if ctx["builtin"] is None:
        _fail("task", "sweep needs a builtin model (named numeric parameters)")
    name, base = ctx["builtin"]
    cls, tensors_of, extras = _BUILTINS[name]
    if isinstance(ctx["sweep_grid"], ConfigError):
        raise ctx["sweep_grid"]
    parameter, values, also = ctx["sweep_grid"]
    inner = tcfg.get("inner", "steady")
    if inner not in ("steady", "noise"):
        _fail("task.inner", "must be 'steady' or 'noise'")
    if inner == "noise" and ctx["weights_cfg"] is None:
        _fail("weights", "sweep with inner 'noise' needs a weights section")
    variants_cfg = tcfg.get("variants", [{"label": "run"}])
    variants_cfg = _expect_list(variants_cfg, "task.variants")
    if not variants_cfg:
        _fail("task.variants", "must be non-empty")
    variants = []
    grids = []
    seen = set()
    for i, vc in enumerate(variants_cfg):
        vpath = f"task.variants[{i}]"
        vc = dict(_expect_map(vc, vpath))
        label = _expect_str(vc.pop("label", ""), f"{vpath}.label")
        if not label:
            _fail(vpath, "each variant needs a nonempty 'label'")
        if label in seen:
            _fail(vpath, f"duplicate variant label {label!r}")
        seen.add(label)
        merged = _canon_builtin_params(name, {**base, **vc}, vpath)
        variants.append({"label": label, **vc})
        # the whole grid, checked at every point; all numeric parameters are
        # arrays, so the tensors have the grid axis even if only weights vary
        grid = {**merged, parameter: values, **also}
        params = cls(**{k: np.full(len(values), v) for k, v in grid.items() if k not in extras})
        if ctx["weights_cfg"] == "work":
            _check_work_energies(params)
        tensors = tensors_of(params, **{k: merged[k] for k in extras})
        check_hermitian(tensors[0], ctx["model"].channels)
        grids.append((params, tensors))
    ctx["grids"] = grids
    canon = {"parameter": parameter, "values": values, "inner": inner, "variants": variants}
    if also:
        canon["also"] = also
    return canon


# ---------------------------------------------------------------------------
# config parsing


def parse_config(raw):
    """Validate a raw config dict; return (context, canonical config)."""
    raw = _expect_map(raw, "config")
    _no_extra_keys(
        raw, {"model", "weights", "initial", "task", "output", "seed"}, "config"
    )
    if "model" not in raw:
        _fail("config", "missing 'model' section")
    if "task" not in raw:
        _fail("config", "missing 'task' section")

    swept = isinstance(raw["task"], dict) and raw["task"].get("kind") == "sweep"
    model, model_canon, params, sweep_grid = _model_from_config(
        raw["model"], "model", raw["task"] if swept else None
    )
    builtin = None
    if "builtin" in model_canon:
        builtin = (model_canon["builtin"], model_canon["params"])

    weights, weights_canon = _weights_from_config(raw.get("weights"), model, params, swept)

    initial = None
    initial_canon = None
    if "initial" in raw:
        mem_dist, rho0, initial_canon = _initial_from_config(raw["initial"], model)
        initial = (mem_dist, rho0)

    seed = _expect_int(raw.get("seed", 0), "seed")
    if seed < 0:
        _fail("seed", "must be non-negative")

    out_cfg = _expect_map(raw.get("output", {}), "output")
    _no_extra_keys(out_cfg, {"directory", "prefix"}, "output")
    directory = _expect_str(out_cfg.get("directory", "."), "output.directory")
    prefix = _expect_str(out_cfg.get("prefix", "run"), "output.prefix")
    if not prefix or any(c in prefix for c in "/\\"):
        _fail("output.prefix", "must be a nonempty name without path separators")
    # no file system takes a NUL byte in a path
    for key, value in (("directory", directory), ("prefix", prefix)):
        if "\0" in value:
            _fail(f"output.{key}", "must not contain a NUL byte")

    ctx = {
        "model": model,
        "builtin": builtin,
        "sweep_grid": sweep_grid,
        "weights": weights,
        "weights_cfg": weights_canon,
        "initial": initial,
        "seed": seed,
        "directory": directory,
        "prefix": prefix,
    }
    task_canon = _parse_task(raw["task"], ctx)
    ctx["task"] = task_canon

    canon = {
        "model": model_canon,
        "seed": seed,
        "task": task_canon,
        "output": {"directory": directory, "prefix": prefix},
    }
    if weights_canon is not None:
        canon["weights"] = weights_canon
    if initial_canon is not None:
        canon["initial"] = initial_canon
    return ctx, canon


# ---------------------------------------------------------------------------
# task execution


def _stationary_stack(stack, out):
    """Stationary blocks of every member of a generator stack.

    Records the worst reciprocal condition of the bordered generators and
    the worst relative stationarity residual ||L v|| / max(1, max|L|) over
    every stack of the run as the report extras ``min_rcond`` and
    ``max_stationarity_residual``.
    """
    blocks = stationary_blocks(stack)
    residual = float(stationarity_residuals(stack, blocks).max())
    rcond = float(stack.stationary.rcond.min())
    extras = out.extras
    extras["min_rcond"] = min(extras.get("min_rcond", rcond), rcond)
    extras["max_stationarity_residual"] = max(
        extras.get("max_stationarity_residual", residual), residual
    )
    return blocks


def _run_steady(ctx, out):
    model = ctx["model"]
    blocks = _stationary_stack(extended_liouvillian(model), out)
    out.add("steady", _state_header(model), _state_rows(blocks))


def _run_evolve(ctx, out):
    model = ctx["model"]
    times = np.array(ctx["task"]["times"])
    mem_dist, rho0 = ctx["initial"]
    state0 = embed(model.channels, mem_dist, rho0)
    result = evolve_extended(model, state0, times)
    states = _state_rows(np.stack([st.blocks for st in result.states]))
    out.add("evolve", ["time"] + _state_header(model), np.column_stack([result.times, states]))


def _run_correlation(ctx, out):
    model, weights = ctx["model"], ctx["weights"]
    ext = extended_liouvillian(model)
    state = HybridState(model.channels, _stationary_stack(ext, out)[0])
    corr = two_point_correlation(ext, weights, np.array(ctx["task"]["taus"]), state)
    out.add("correlation", ["tau", "F_smooth"], np.column_stack([corr.taus, corr.values]))
    out.add("correlation_background", ["K"], [[corr.background]])
    out.extras["current"] = corr.current


def _run_spectrum(ctx, out):
    model, weights = ctx["model"], ctx["weights"]
    ext = extended_liouvillian(model)
    state = HybridState(model.channels, _stationary_stack(ext, out)[0])
    spec = power_spectrum(ext, weights, np.array(ctx["task"]["omegas"]), state)
    out.add("spectrum", ["omega", "S"], np.column_stack([spec.omegas, spec.values]))
    out.extras["max_resolvent_residual"] = spec.max_resolvent_residual


def _run_noise(ctx, out):
    nu = ctx["weights"].per_transition
    stack = extended_liouvillian(ctx["model"])
    blocks = _stationary_stack(stack, out)
    rates = jump_rate_table(stack.jump_ops, blocks)
    current = weighted_jump_rates(stack, nu, blocks, "average current", rates)[0]
    noise = stationary_noises(stack, nu, blocks, rates)[0]
    background = weighted_jump_rates(stack, nu**2, blocks, "noise background", rates)[0]
    fano = noise / current if current != 0 else float("nan")
    out.add("noise", ["current", "noise", "background", "fano"], [[current, noise, background, fano]])


def _run_trajectories(ctx, out):
    model, weights = ctx["model"], ctx["weights"]
    task = ctx["task"]
    mem_dist, rho0 = ctx["initial"]
    est = mc_estimate(
        model,
        weights,
        rho0,
        mem_dist,
        horizon=task["horizon"],
        n_traj=task["n_traj"],
        scheme=task["scheme"],
        master_seed=ctx["seed"],
        dt=task.get("dt"),
        burn_in=task["burn_in"],
        collect_records=task["dump"],
    )
    header = ["n_traj", "mean_charge", "mean_charge_se", "var_charge", "var_charge_se"]
    row = [est.n_traj, est.mean_charge, est.mean_charge_se, est.var_charge, est.var_charge_se]
    for ch, f, se in zip(est.memory_labels, est.memory_freq, est.memory_freq_se):
        header += [f"freq({ch})", f"freq_se({ch})"]
        row += [f, se]
    out.add("trajectories", header, [row])
    out.extras["rounds"] = est.rounds
    out.extras["jump_events"] = est.jump_events
    out.extras["survival_evaluations"] = est.survival_evaluations

    if task["dump"]:
        records = est.records
        m = model.n_channels
        labels = np.array([_cell(label) for label in records[0].labels], dtype=object)
        # charge per jump, 0 for silent channels and inside the burn-in
        nu = np.zeros((len(labels), m))
        nu[:m] = weights.per_transition
        # a running sum that starts at 0.0 never reads -0; cumsum adds in the same order
        charges = [
            np.cumsum(np.where(r.jump_times >= r.burn_in, nu[r.jump_channels, r.memory_before], 0.0))
            + 0.0
            for r in records
        ]
        counts = [len(r.jump_times) for r in records]
        cells = np.empty((sum(counts), 5), dtype=object)
        cells[:, 0] = np.repeat(np.arange(len(records)), counts)
        cells[:, 1] = np.concatenate([r.jump_times for r in records])
        cells[:, 2] = labels[np.concatenate([r.jump_channels for r in records])]
        cells[:, 3] = labels[np.concatenate([r.memory_before for r in records])]
        cells[:, 4] = np.concatenate(charges)
        out.add(
            "jumps",
            ["trajectory_id", "time", "channel_label", "memory_before", "charge_after"],
            cells,
            "%d,%.17g,%s,%s,%.17g",
        )


def _run_sweep(ctx, out):
    task = ctx["task"]
    parameter, values, inner = task["parameter"], task["values"], task["inner"]
    also = task.get("also", {})
    weights_cfg = ctx["weights_cfg"]
    # maser work currents also go out normalized by gl * (wl - wr)
    power_norm = ctx["builtin"][0] == "maser" and weights_cfg == "work"

    cols = _state_header(ctx["model"]) if inner == "steady" else []
    if weights_cfg is not None:
        cols.append("current")
    if inner == "noise":
        cols.append("noise")
    if power_norm:
        cols.append("power_norm")
    header = [parameter] + list(also)
    for var in task["variants"]:
        header += [f"{var['label']}_{c}" for c in cols]

    tables = [np.column_stack([values, *also.values()])]
    # each variant's grid, built at parse, is one stack
    for params, tensors in ctx["grids"]:
        stack = generator_stack(ctx["model"].channels, *tensors)
        blocks = _stationary_stack(stack, out)
        if inner == "steady":
            tables.append(_state_rows(blocks))
        if weights_cfg is not None:
            nu = work_table(params) if weights_cfg == "work" else ctx["weights"].per_transition
            rates = jump_rate_table(stack.jump_ops, blocks)
            columns = [weighted_jump_rates(stack, nu, blocks, "average current", rates)]
            if inner == "noise":
                columns.append(stationary_noises(stack, nu, blocks, rates))
            if power_norm:
                norm = params.gl * (params.wl - params.wr)
                # nan where gl (wl - wr) vanishes, as the noise task's fano factor
                columns.append(
                    np.divide(columns[0], norm, out=np.full(len(norm), np.nan), where=norm != 0)
                )
            tables.append(np.column_stack(columns))
    out.add("sweep", header, np.hstack(tables))


# every task kind, in the order the task.kind message lists them: its keys
# besides "kind", its parser of those (None: no keys), its runner and the
# config sections it needs
_TASKS = {
    "steady": ((), None, _run_steady, ()),
    "evolve": (("times",), _parse_evolve, _run_evolve, ("initial",)),
    "correlation": (("taus",), _parse_correlation, _run_correlation, ("weights",)),
    "spectrum": (("omegas",), _parse_spectrum, _run_spectrum, ("weights",)),
    "noise": ((), None, _run_noise, ("weights",)),
    "trajectories": (
        ("n_traj", "horizon", "scheme", "dt", "burn_in", "dump"),
        _parse_trajectories, _run_trajectories, ("weights", "initial"),
    ),
    "sweep": (("parameter", "values", "also", "inner", "variants"), _parse_sweep, _run_sweep, ()),
}


class _Outputs:
    def __init__(self, directory, prefix):
        self.directory = directory
        self.prefix = prefix
        self.files = []
        self.extras = {}

    def _path(self, suffix):
        return os.path.normpath(os.path.join(self.directory, f"{self.prefix}_{suffix}.csv"))

    def add(self, suffix, header, values, row=None):
        """Write a table, ``values`` 2-D, in one write (:func:`_table_text`)."""
        text = _table_text(header, values, row)
        fpath = self._path(suffix)
        with open(fpath, "w", newline="") as fh:
            fh.write(text)
        self.files.append((suffix, fpath, len(values)))


def run_config(raw, base_dir="."):
    """Parse and execute a config; returns the run report dict."""
    started = time.perf_counter()
    ctx, canon = parse_config(raw)
    directory = os.path.normpath(os.path.join(base_dir, ctx["directory"]))
    os.makedirs(directory, exist_ok=True)
    out = _Outputs(directory, ctx["prefix"])
    _, _, run, _ = _TASKS[ctx["task"]["kind"]]
    run(ctx, out)

    report = {
        "version": __version__,
        "config": canon,
        "manifest": {suffix: os.path.basename(fpath) for suffix, fpath, _ in out.files},
        "rows": {suffix: n for suffix, _, n in out.files},
        "wall_time_s": time.perf_counter() - started,
    }
    if out.extras:
        report["extras"] = out.extras
    report_path = os.path.join(directory, f"{ctx['prefix']}_report.json")
    with open(report_path, "w", newline="") as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report, report_path, [fpath for _, fpath, _ in out.files]


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def _task_detail(model, task):
    """What ``validate`` adds after the task kind: a sweep's grid, a Monte Carlo path."""
    if task["kind"] == "sweep":
        return f" ({len(task['values'])} points x {len(task['variants'])} variants)"
    if task["kind"] != "trajectories":
        return ""
    if task["scheme"] == "waiting-time":
        return " (waiting-time)"
    return f" (fixed-step, {'class tables' if rank_one_jumps(model) else 'lookahead'})"


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="jumpfeedback",
        description="Feedback master equations and counting statistics, driven by a JSON config.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    p_run = sub.add_parser("run", help="execute a config and write CSV outputs")
    p_run.add_argument("config", help="path to the JSON config")
    p_val = sub.add_parser("validate", help="parse and validate a config without running it")
    p_val.add_argument("config", help="path to the JSON config")
    sub.add_parser("version", help="print the package version")
    args = parser.parse_args(argv)

    if args.verb == "version":
        print(__version__)
        return 0

    try:
        raw = _load_json(args.config)
        if args.verb == "validate":
            ctx, _ = parse_config(raw)
            model, task = ctx["model"], ctx["task"]
            silent = len(model.silent_labels)
            size = model.n_channels * model.dim**2
            print(
                f"ok: dim {model.dim}, channels {list(model.channels)}"
                + (f", {silent} silent" if silent else "")
                + f", generator {size}, task {task['kind']}"
                + _task_detail(model, task)
            )
            return 0
        report, report_path, files = run_config(raw)
        for fpath in files:
            print(fpath)
        print(report_path)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (JumpFeedbackError, np.linalg.LinAlgError, OSError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
