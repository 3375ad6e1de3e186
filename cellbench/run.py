#!/usr/bin/env python3
"""Build and run the rfabm real-cell benchmark.

    python3 cellbench/run.py --workload power_sweep --seed 1 --seconds 8 --trace 0

Run from the repository root.  Builds the rfabm libraries from ./src and the
benchmark from ./cellbench into $CARGO_TARGET_DIR/cellbench (default
.bench_build/cellbench), then runs one workload on one thread.  The last line
of standard output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits nonzero, without a result line, when the sources are missing or the
build or run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("power_sweep", "die_screen", "retest_warm")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"cellbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build the benchmark binary; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "cellbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "cellbench")


def recorded_digest(workload, seed):
    """Digest recorded for (workload, seed) in digests.json, or None."""
    path = os.path.join(HERE, "digests.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"rfabm sources not found under {ROOT}/src")
        return 1
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "cellbench"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir,
           "--program", os.path.join(HERE, "programs", "die_screen.prog")]
    expect = recorded_digest(args.workload, args.seed)
    if expect:
        cmd += ["--expect-digest", expect]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        log(f"run failed (exit {proc.returncode})")
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
