#!/usr/bin/env python3
"""Steadiness check of the real-cell benchmark.

    python3 cellbench/steadiness.py --runs 10 [--workloads power_sweep,...]

Runs cellbench/run.py once per seed (seeds 1..runs) on each workload, then
prints, for every end-to-end metric, the median and the spread: the distance
between the first and third quartile as a share of the median.  For the
host-time metrics it also prints the spread of the raw figure and the
correlation of the normalized value with host.slow_factor, and compares the
slowest-host third of the runs with the fastest-host third.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RAW = {"setup_s": "host.raw_setup_s", "reads_per_s": "host.raw_reads_per_s"}


def spread(values):
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def corr(xs, ys):
    if len(set(xs)) < 2 or len(set(ys)) < 2:
        return 0.0
    return statistics.correlation(xs, ys)


def run_once(workload, seed, seconds):
    start = time.monotonic()
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    host = {}
    for line in lines:
        if line.startswith("host "):
            host = {k: v["value"] for k, v in json.loads(line[5:]).items()}
    host["wall_s"] = time.monotonic() - start
    return result, host


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="power_sweep,die_screen,retest_warm")
    ap.add_argument("--verbose", action="store_true", help="print every run")
    args = ap.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        rows = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, host = run_once(workload, seed, bench["run_seconds"])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}", flush=True)
            rows.append(({k: v["value"] for k, v in result["metrics"].items()}, host))
            if args.verbose:
                m = rows[-1][0]
                print(f"  {workload} seed {seed}: " +
                      " ".join(f"{k}={m[k]:.6g}" for k in bounds) +
                      f" slow={host['host.slow_factor']:.3f}", flush=True)
        slow = [h["host.slow_factor"] for _, h in rows]
        order = sorted(range(len(rows)), key=lambda i: slow[i])
        third = max(1, len(rows) // 3)
        walls = [h["wall_s"] for _, h in rows]
        print(f"\n{workload}: {len(rows)} runs, host.slow_factor "
              f"{min(slow):.3f}..{max(slow):.3f}, wall per run "
              f"{statistics.mean(walls):.1f} s mean / {max(walls):.1f} s max")
        for name, bound in bounds.items():
            vals = [m[name] for m, _ in rows]
            line = (f"  {name:18s} median {statistics.median(vals):12.6g}  "
                    f"spread {spread(vals):7.4f} (bound {bound})")
            if name in RAW:
                raw = [h[RAW[name]] for _, h in rows]
                fast = statistics.median([vals[i] for i in order[:third]])
                slowest = statistics.median([vals[i] for i in order[-third:]])
                line += (f"  raw spread {spread(raw):7.4f}  corr(norm, slow) "
                         f"{corr(vals, slow):+.2f}  slow/fast third "
                         f"{slowest / fast - 1:+.4f}")
            print(line, flush=True)


if __name__ == "__main__":
    main()
