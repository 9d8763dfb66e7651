"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's ``src`` directory.  Every run is one process
with one BLAS/OpenMP thread, set before numpy loads.  A run times whole
passes over the workload's operations until ``--seconds`` would be exceeded
(at least one pass), timing a fixed reference kernel between operations,
then checks every output.  ``--trace 1`` traces every pass and reports
per-layer metrics instead of the end-to-end ones.  The last line of
standard output is the result object; exit code 0 means the run completed,
whether or not the checks passed (see ``correct``).
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "JUMPFEEDBACK_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
# fresh interpreters that repeat the set-up, for its median; half run before
# the timed passes and half after, so the samples span the run's drift
SETUP_PROBES = 8


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="only set up (import, inputs, warm-up), print the set-up time and exit",
    )
    return parser.parse_args(argv)


def _import_package():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "jumpfeedback", "__init__.py")):
        raise SystemExit(f"perfbench: no package source at {src}/jumpfeedback")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import jumpfeedback
    import jumpfeedback.cli

    return jumpfeedback, time.perf_counter() - t0


class Bench:
    def __init__(self, args):
        self.args = args
        self.jf, self.import_s = _import_package()
        # the benchmark's modules load numpy and scipy; importing them after
        # the package keeps those imports inside the package's import time
        import refkernel
        import workloads

        self.workloads = workloads
        self.ops = self.pass_ops(0)
        os.makedirs(OUT_DIR, exist_ok=True)
        self.tmp = os.path.join(OUT_DIR, f"run-{os.getpid()}")
        os.makedirs(self.tmp, exist_ok=True)
        self.kernel = refkernel.ReferenceKernel(args.workload)
        self.kernel.run()
        self.execute(workloads.warmup_operation(args.workload, ROOT))
        self.setup_s = time.perf_counter() - _STARTED

    def pass_ops(self, pass_index):
        return self.workloads.operations(self.args.workload, ROOT, self.args.seed, pass_index)

    def execute(self, op):
        _, _, files = self.jf.cli.run_config(op.config, base_dir=self.tmp)
        return files

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


def _probe_setup(args, count):
    """Set-up times of ``count`` fresh interpreters, run one after another."""
    samples = []
    for _ in range(count):
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _timed_passes(bench):
    """Whole passes until the next one would overrun ``--seconds``.

    Returns per-operation times and time/kernel ratios, the kernel samples,
    per-pass wall times, each output file's bytes as first written (with its
    operation), the files whose bytes changed when written again, and the
    failure count of each operation that raised.
    """
    times = {op.name: [] for op in bench.ops}
    ratios = {op.name: [] for op in bench.ops}
    first_bytes, mismatched, failed = {}, [], {}
    ref_samples = [bench.kernel.time_once()]
    passes = []
    start = time.perf_counter()
    while True:
        ops = bench.pass_ops(len(passes))
        pass_start = time.perf_counter()
        for op in ops:
            t0 = time.perf_counter()
            try:
                files = bench.execute(op)
            except Exception as exc:  # counted as a failed operation, run goes on
                failed[op.name] = failed.get(op.name, 0) + 1
                print(f"operation {op.name} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                files = []
            elapsed = time.perf_counter() - t0
            ref_samples.append(bench.kernel.time_once())
            if op.name in failed:
                continue
            times[op.name].append(elapsed)
            ratios[op.name].append(elapsed / (0.5 * (ref_samples[-2] + ref_samples[-1])))
            for path in files:
                with open(path, "rb") as fh:
                    data = fh.read()
                if path not in first_bytes:
                    first_bytes[path] = (op, data)
                elif first_bytes[path][1] != data:
                    mismatched.append(path)
        now = time.perf_counter()
        passes.append(now - pass_start)
        if now + passes[-1] > start + bench.args.seconds:
            break
    return times, ratios, ref_samples, passes, first_bytes, mismatched, failed


def _rerun_changes(bench, first_bytes, failed):
    """Output files of the first two operations that did not fail whose bytes
    change when run again.

    Outputs must not depend on the run.  Monte Carlo batches take new seeds
    in every pass, so rerunning the first pass's batches also checks that a
    seed fixes its trajectories.
    """
    changed = []
    for op in [op for op in bench.ops if op.name not in failed][:2]:
        for path in bench.execute(op):
            with open(path, "rb") as fh:
                if path in first_bytes and fh.read() != first_bytes[path][1]:
                    changed.append(path)
    return changed


def _run_checks(bench, first_bytes, failed):
    """Check every output of the operations that did not fail; returns messages."""
    import checks

    jf, workload = bench.jf, bench.args.workload
    failed_groups = {op.group for op in bench.ops if op.name in failed}
    by_op = {}
    for path, (op, _) in first_bytes.items():
        by_op.setdefault(op.name, (op, []))[1].append(path)
    try:
        if workload == "sweep":
            groups = {}
            for op, paths in by_op.values():
                if op.group in failed_groups:
                    continue
                base = op.meta["base"]
                variants = [op.meta["variant"]] if "variant" in op.meta else base["task"]["variants"]
                entry = groups.setdefault(op.group, (base, []))
                entry[1].extend((v, p) for v in variants for p in paths)
            checked = groups
            checks.check_sweep(jf, groups)
        elif workload == "two_time":
            # a feedback setting is checked when its spectrum and its
            # correlation configs both completed: S is checked against F
            incomplete = {_feedback(op) for op in bench.ops if op.group in failed_groups}
            spectra, correlations = {}, {}
            for op, paths in by_op.values():
                if _feedback(op) in incomplete:
                    continue
                base = op.meta["base"]
                table = spectra if base["task"]["kind"] == "spectrum" else correlations
                table.setdefault(_feedback(op), (base, []))[1].extend(paths)
            checked = spectra
            checks.check_two_time(jf, spectra, correlations)
        else:
            batches = {}
            for op, paths in by_op.values():
                if op.group not in failed_groups:
                    batches.setdefault(op.group, (op.config, []))[1].extend(paths)
            checked = batches
            checks.check_trajectories(jf, batches)
    except checks.CheckFailure as exc:
        return [str(exc)]
    if by_op and not checked:
        return ["no output could be checked: every dataset had a failed operation"]
    return []


def _feedback(op):
    return op.meta["base"]["model"]["params"]["feedback"]


def _jump_events(bench, pass_indices):
    """Monitored jumps in the given passes, by replaying each batch with activity weights.

    Weights enter only the charge table and burn-in only the charge window,
    so the replayed trajectories are the timed ones and the activity charge
    counts every jump.
    """
    import checks

    events = {}
    for op in (op for p in pass_indices for op in bench.pass_ops(p)):
        cfg = json.loads(json.dumps(op.config))
        cfg["weights"] = "activity"
        cfg["task"]["burn_in"] = 0.0
        files = bench.execute(bench.workloads.Operation(op.name, op.group, cfg))
        header, rows = checks.read_csv([f for f in files if f.endswith("_trajectories.csv")][0])
        row = dict(zip(header, rows[0]))
        events[op.group] = events.get(op.group, 0) + round(row["mean_charge"] * row["n_traj"])
    return events


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    args = _parse_args(argv)
    bench = Bench(args)
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": bench.setup_s}))
            return 0
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            try:
                _, _, refs, passes, first_bytes, mismatched, failed = _timed_passes(bench)
            finally:
                tracer.uninstall()
        else:
            setup_samples = [bench.setup_s] + _probe_setup(args, SETUP_PROBES // 2)
            times, ratios, refs, passes, first_bytes, mismatched, failed = _timed_passes(bench)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setup_samples += _probe_setup(args, SETUP_PROBES - SETUP_PROBES // 2)
            ok_ops = [op.name for op in bench.ops if op.name not in failed]
            metrics = {
                "setup_s": _metric(statistics.median(setup_samples), "s"),
                "wall_s": _metric(sum(statistics.median(times[n]) for n in ok_ops), "s"),
                "wall_ref": _metric(sum(statistics.median(ratios[n]) for n in ok_ops), "ref"),
                "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            }
            note = f", set-up samples {[round(s, 3) for s in setup_samples]} s"
        mismatched += _rerun_changes(bench, first_bytes, failed)
        problems = _run_checks(bench, first_bytes, failed)
        problems += [f"output changed between passes: {p}" for p in sorted(set(mismatched))]
        if args.trace:
            # after the checks: the replay of Monte Carlo batches rewrites their files
            metrics = _layer_metrics(bench, tracer, passes, refs)
            note = ""
        for msg in problems:
            print(f"check failed: {msg}", file=sys.stderr)
        print(
            f"{args.workload}: {len(passes)} passes of {len(bench.ops)} operations, "
            f"kernel median {1e3 * statistics.median(refs):.2f} ms{note}"
        )
        result = {
            "correct": not problems,
            "attempted": len(passes) * len(bench.ops),
            "failed": sum(failed.values()),
            "metrics": metrics,
        }
        print(json.dumps(result))
        return 0
    finally:
        bench.close()


def _layer_metrics(bench, tracer, passes, refs):
    layers, mc_seconds = tracer.layer_metrics(len(passes))
    tracer.write(os.path.join(OUT_DIR, f"trace-{bench.args.workload}-seed{bench.args.seed}.json"))
    events = {}
    if bench.args.workload == "trajectories":
        events = {s: n / len(passes) for s, n in _jump_events(bench, range(len(passes))).items()}
    for scheme, key in (("waiting-time", "waiting"), ("fixed-step", "fixed")):
        rate = events[scheme] / mc_seconds[scheme] if scheme in events else 0.0
        layers[f"trajectories.{key}.jumps_per_s"] = (rate, "1/s")
    layers["trajectories.jump_events"] = (float(sum(events.values())), "count")
    layers["bench.import_s"] = (bench.import_s, "s")
    layers["bench.ref_ms"] = (1e3 * statistics.median(refs), "ms")
    # wrapper cost times spans per pass: untraced passes timed beside traced
    # ones would not resolve it, as the machine drifts more between passes
    spans_per_pass = len(tracer.spans) / len(passes)
    layers["bench.trace_overhead_s"] = (spans_per_pass * tracer.span_cost(), "s")
    return {name: _metric(value, unit) for name, (value, unit) in layers.items()}


if __name__ == "__main__":
    sys.exit(main())
