#!/usr/bin/env python3
"""Build and run the serving benchmark.

    python3 servebench/run.py --workload single|saturated|mixed \
        --seed N --seconds S --trace 0|1

Run from the repository root. Configures and builds servebench/ (the
engine sources under src/ plus the benchmark program) into .bench_build/,
then runs one measurement. Build output goes to stderr; the benchmark's
own report goes to stdout, ending with one JSON line {correct, attempted,
failed, metrics}. Per-run results and fingerprints, and traces of --trace 1
runs, are written under .bench_build/results/. Exits non-zero when the
build fails, an answer fails the correctness gate, or the run overruns.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"


def run_timeout(seconds, trace):
    """Seconds after which a run counts as hung. A run measures for
    (1 + trace) * seconds; training, set-up, warm-up, the gate, the
    accuracy pass and the probes add 20-30 s on a quiet 4-vCPU host and
    about twice that on a slowed one. This allows three times the
    measured time plus 50 s: 110 s for --seconds 20, 170 s traced."""
    return 50 + 3 * (1 + trace) * seconds


def build():
    """Configure (once) and build the benchmark binary; returns its path."""
    cmd_cfg = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
    cmd_build = ["cmake", "--build", BUILD_DIR, "--target", "serve_bench",
                 "-j", "4"]
    for cmd in ([] if os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt"))
                else [cmd_cfg]) + [cmd_build]:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("servebench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "serve_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["single", "saturated", "mixed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(BUILD_DIR, "results")]
    timeout = run_timeout(args.seconds, args.trace)
    try:
        proc = subprocess.run(cmd, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit("servebench: run exceeded %d s" % timeout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
