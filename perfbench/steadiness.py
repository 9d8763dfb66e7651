"""Run every workload repeatedly and report each metric's spread against its bound.

    python3 perfbench/steadiness.py --runs 10 --seed-base 100

Every run measures for ``run_seconds`` of ``BENCHMARK.json``, on every
workload it lists.  Run r uses seed ``seed-base + r``; odd runs take the
workloads in reverse order, so no workload always follows the same one.  For each workload and
end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (Q3 - Q1) / median and
the metric's bound from ``BENCHMARK.json``, and the share of failed
operations.  The raw results go to ``.perfbench_out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.perf_counter()
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = time.perf_counter() - started
    return result


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=100)
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in spec["workloads"]]
    results = {w: [] for w in workloads}
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else workloads[::-1]
        for workload in order:
            res = _run(spec["command"], workload, args.seed_base + r, spec["run_seconds"])
            results[workload].append(res)
            values = {k: round(v["value"], 4) for k, v in res["metrics"].items()}
            print(f"run {r} {workload}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} {values} "
                  f"({res['run_s']:.0f} s)", flush=True)

    print()
    print(f"{'workload':14s} {'metric':12s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
          f"{'spread':>7s} {'bound':>6s}")
    for workload, runs in results.items():
        for metric in spec["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"] for run in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            print(f"{workload:14s} {metric['name']:12s} {med:11.4f} {q1:11.4f} {q3:11.4f} "
                  f"{(q3 - q1) / med:7.3f} {metric['bound']:6.2f}")
        shares = {run["failed"] / run["attempted"] for run in runs}
        correct = all(run["correct"] for run in runs)
        print(f"{workload:14s} failed share {sorted(shares)}, all correct: {correct}")

    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    path = os.path.join(ROOT, ".perfbench_out", f"steadiness-{int(time.time())}.json")
    with open(path, "w") as fh:
        json.dump({"args": vars(args), "results": results}, fh, indent=1)
    print(f"raw results: {path}")


if __name__ == "__main__":
    main()
