"""Spans around the package's public functions, for the traced run only.

``Tracer.install`` replaces each traced function by a wrapper in every
``jumpfeedback`` module that holds it (the package imports functions by
name, so each holder needs its own patch) and ``uninstall`` puts the
originals back.  Spans (name, start, end, parent, size) stay in memory until
the run writes them out.  The timed runs never install the wrappers.
"""

import functools
import json
import sys
import time

# (span name, module, attribute); several functions may share a span name
TRACED_FUNCTIONS = (
    ("cli.run_config", "jumpfeedback.cli", "run_config"),
    ("cli.parse_config", "jumpfeedback.cli", "parse_config"),
    ("models.build", "jumpfeedback.models", "maser_model"),
    ("models.build", "jumpfeedback.models", "qubit_cooling_model"),
    ("models.build", "jumpfeedback.models", "qubit_baseline_model"),
    ("model.validate", "jumpfeedback.model", "validate"),
    ("hybrid.extended_liouvillian", "jumpfeedback.hybrid", "extended_liouvillian"),
    ("dynamics.feedback_steady_state", "jumpfeedback.dynamics", "feedback_steady_state"),
    ("superops.steady_state", "jumpfeedback.superops", "steady_state"),
    ("superops.drazin", "jumpfeedback.superops", "drazin"),
    ("fcs.current_superop", "jumpfeedback.fcs", "current_superop"),
    ("fcs.average_current", "jumpfeedback.fcs", "average_current"),
    ("fcs.steady_noise", "jumpfeedback.fcs", "steady_noise"),
    ("fcs.two_point_correlation", "jumpfeedback.fcs", "two_point_correlation"),
    ("fcs.power_spectrum", "jumpfeedback.fcs", "power_spectrum"),
    ("trajectories.mc_estimate", "jumpfeedback.trajectories", "mc_estimate"),
)


def _generator_dim(args, kwargs):
    gen = args[0] if args else kwargs.get("gen")
    return gen.matrix.shape[0]


def _grid_len(key):
    def size(args, kwargs):
        grid = args[2] if len(args) > 2 else kwargs[key]
        return len(grid)

    return size


def _scheme(args, kwargs):
    return kwargs.get("scheme", args[6] if len(args) > 6 else "waiting-time")


# what each span records besides its times
SIZES = {
    "superops.steady_state": _generator_dim,
    "superops.drazin": _generator_dim,
    "superops.expm": _generator_dim,
    "fcs.two_point_correlation": _grid_len("taus"),
    "fcs.power_spectrum": _grid_len("omegas"),
    "trajectories.mc_estimate": _scheme,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, size]
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        size_of = SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            size = size_of(args, kwargs) if size_of else None
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, size]
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return wrapper

    def install(self):
        package = [m for n, m in sys.modules.items() if n.split(".")[0] == "jumpfeedback"]
        for name, modname, attr in TRACED_FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, orig)
            for mod in package:
                if getattr(mod, attr, None) is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)
        superop = sys.modules["jumpfeedback.superops"].Superoperator
        self._patches.append((superop, "expm", superop.expm))
        superop.expm = self._wrap("superops.expm", superop.expm)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    def span_cost(self, calls=20_000):
        """Seconds a traced call adds over a plain one, from a no-op function."""

        def noop():
            return None

        probe = Tracer()
        wrapped = probe._wrap("noop", noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t1 = time.perf_counter()
        for _ in range(calls):
            noop()
        t2 = time.perf_counter()
        return ((t1 - t0) - (t2 - t1)) / calls

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                [{"name": n, "start": s, "end": e, "parent": p, "size": z}
                 for n, s, e, p, z in self.spans],
                fh,
            )

    def layer_metrics(self, n_passes):
        """Per-pass calls and times, self times and per-point costs by span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, total, self_ms, sizes, dims = {}, {}, {}, {}, [0]
        per_scheme = {}
        for i, (name, start, end, _, size) in enumerate(self.spans):
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            self_ms[name] = self_ms.get(name, 0.0) + dur - child_time[i]
            if name in ("superops.steady_state", "superops.drazin", "superops.expm"):
                dims.append(size)
            elif name == "trajectories.mc_estimate":
                n, t = per_scheme.get(size, (0, 0.0))
                per_scheme[size] = (n + 1, t + dur)
            elif size is not None:
                sizes[name] = sizes.get(name, 0) + size

        def per_pass_calls(name):
            return calls.get(name, 0) / n_passes

        def per_pass_ms(table, name):
            return 1e3 * table.get(name, 0.0) / n_passes

        def per_point_ms(name):
            return 1e3 * total[name] / sizes[name] if sizes.get(name) else 0.0

        out = {
            "cli.run_config.calls": (per_pass_calls("cli.run_config"), "count"),
            "cli.run_config.self_ms": (per_pass_ms(self_ms, "cli.run_config"), "ms"),
            "cli.parse_config.ms": (per_pass_ms(total, "cli.parse_config"), "ms"),
            "models.build.calls": (per_pass_calls("models.build"), "count"),
            "models.build.ms": (per_pass_ms(total, "models.build"), "ms"),
            "model.validate.ms": (per_pass_ms(total, "model.validate"), "ms"),
            "hybrid.extended_liouvillian.calls": (
                per_pass_calls("hybrid.extended_liouvillian"), "count"),
            "hybrid.extended_liouvillian.ms": (
                per_pass_ms(total, "hybrid.extended_liouvillian"), "ms"),
            "dynamics.feedback_steady_state.calls": (
                per_pass_calls("dynamics.feedback_steady_state"), "count"),
            "dynamics.feedback_steady_state.self_ms": (
                per_pass_ms(self_ms, "dynamics.feedback_steady_state"), "ms"),
            "superops.steady_state.ms": (per_pass_ms(total, "superops.steady_state"), "ms"),
            "superops.drazin.calls": (per_pass_calls("superops.drazin"), "count"),
            "superops.drazin.ms": (per_pass_ms(total, "superops.drazin"), "ms"),
            "fcs.steady_noise.self_ms": (per_pass_ms(self_ms, "fcs.steady_noise"), "ms"),
            "fcs.average_current.ms": (per_pass_ms(total, "fcs.average_current"), "ms"),
            "fcs.current_superop.calls": (per_pass_calls("fcs.current_superop"), "count"),
            "superops.expm.calls": (per_pass_calls("superops.expm"), "count"),
            "superops.expm.ms": (per_pass_ms(total, "superops.expm"), "ms"),
            "fcs.two_point_correlation.ms_per_tau": (
                per_point_ms("fcs.two_point_correlation"), "ms"),
            "fcs.power_spectrum.ms_per_omega": (per_point_ms("fcs.power_spectrum"), "ms"),
            "superops.generator_dim": (max(dims), "count"),
        }
        for scheme, key in (("waiting-time", "waiting"), ("fixed-step", "fixed")):
            n, t = per_scheme.get(scheme, (0, 0.0))
            out[f"trajectories.{key}.ms_per_batch"] = (1e3 * t / n if n else 0.0, "ms")
        return out, {s: t / n_passes for s, (_, t) in per_scheme.items()}
