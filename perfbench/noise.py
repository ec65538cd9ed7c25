#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json RUNS times per workload, each with a
different seed, interleaving the workloads so a slow spell on the host
spreads over all of them. For each workload and metric it prints the median,
the quartiles (statistics.quantiles(values, n=4)), their distance as a share
of the median, and the metric's bound. host.probe_ms is printed next to every
run, so a slow host shows as such.

Run from the repository root:

    python3 perfbench/noise.py --runs 10
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

# Drift between two sets of runs of identical code seen by the benchmark
# this one replaces (median of the second set over the first, minus 1).
EARLIER_DRIFT = {
    ("detail-fp", "setup_s"): 0.085,
    ("detail-int", "job_p90_ms"): -0.064,
    ("serve-mixed", "job_p50_ms"): 0.057,
}


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    probe = next((float(l.split()[-1]) for l in lines if "host.probe_ms" in l), None)
    return result, probe, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {w: [] for w in names}
    for k in range(args.runs):
        seed = args.first_seed + k
        for w in names:
            result, probe, wall = run_once(bench, w, seed)
            runs[w].append({"seed": seed, "probe_ms": probe, "wall_s": wall, **result})
            shown = "  ".join(f"{m}={v['value']:.4g}" for m, v in result["metrics"].items())
            print(f"{w:14} seed {seed:3}  host.probe_ms={probe:.1f}  wall={wall:.0f}s  "
                  f"correct={result['correct']}  {shown}", flush=True)

    print()
    print(f"{'workload':14} {'metric':12} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6} {'earlier drift':>13}")
    for w in names:
        for m in bounds:
            values = [r["metrics"][m]["value"] for r in runs[w] if m in r["metrics"]]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            drift = EARLIER_DRIFT.get((w, m))
            print(f"{w:14} {m:12} {med:11.5g} {q1:11.5g} {q3:11.5g} {spread:7.3f} "
                  f"{bounds[m]:6.2f} {'' if drift is None else f'{drift:+.3f}':>13}")


if __name__ == "__main__":
    main()
