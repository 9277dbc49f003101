#!/usr/bin/env python3
"""Steadiness check: run each workload k times and report the spread.

    python3 servebench/steady.py [--runs 10] [--workloads single,mixed]
        [--seconds 20] [--seed-base 1] [--save runs.json]
        [--against BASE_CHECKOUT]

Run from the repository root. Round r runs every workload once with seed
seed-base + r, in forward order on even rounds and reversed order on odd
rounds, so drift on the machine does not land on one workload. For every
end-to-end metric of BENCHMARK.json it prints the median, the quartiles
(statistics.quantiles(n=4)) and the spread (q3 - q1) / median against the
metric's bound, and flags every metric whose spread exceeds its bound.
Every run is listed, in the order it ran, with its host slowdown.

--against runs the same seed in a second checkout (the base) next to
every run here, alternating which side goes first, and saves both sides
as interleaved pairs for compare.py. --save keeps every run's result and
fingerprint.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(".bench_build", "results")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of a list of run values."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def run_once(bench, checkout, side, workload, seed, seconds):
    cmd = list(bench["command"]) + ["--workload", workload, "--seed",
                                    str(seed), "--seconds", str(seconds),
                                    "--trace", "0"]
    started = time.time()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit("run failed: %s %s seed %d (exit %d)"
                 % (side, workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    with open(os.path.join(checkout, RESULTS, "%s-seed%d-trace0.json"
                           % (workload, seed))) as f:
        saved = json.load(f)
    run = {"side": side, "workload": workload, "seed": seed,
           "started": started, "result": result,
           "fingerprint": saved["fingerprint"],
           "host_slowdown": saved["host_slowdown"],
           "as_measured": saved["as_measured"]}
    print("ran %-4s %-9s seed %-6d host %.3f  %s" % (
        side, workload, seed, run["host_slowdown"],
        "  ".join("%s %.5g" % (k, v["value"])
                  for k, v in result["metrics"].items())), flush=True)
    return run


def report(bench, runs):
    """Print the spread table; returns the number of flagged metrics."""
    flagged = 0
    for w in [x["name"] for x in bench["workloads"]]:
        mine = [r for r in runs if r["workload"] == w]
        if not mine:
            continue
        print("%s (%d runs)" % (w, len(mine)))
        for m in bench["end_to_end"]:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in mine]
            med, q1, q3, sp = spread(vals)
            flag = sp > m["bound"]
            flagged += flag
            print("  %-18s median %12.6g  q1 %12.6g  q3 %12.6g  "
                  "spread %6.3f / bound %.3f%s"
                  % (m["name"], med, q1, q3, sp, m["bound"],
                     "  FLAG" if flag else ""))
        failed = sum(r["result"]["failed"] for r in mine)
        attempted = sum(r["result"]["attempted"] for r in mine)
        print("  failed %d of %d attempted" % (failed, attempted))
    return flagged


def main():
    bench = load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()

    workloads = args.workloads.split(",")
    sides = [("new", ROOT)]
    if args.against:
        sides.append(("base", os.path.abspath(args.against)))
    runs = []
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else workloads[::-1]
        for i, w in enumerate(order):
            turn = sides if (r + i) % 2 == 0 else sides[::-1]
            for side, checkout in turn:
                runs.append(run_once(bench, checkout, side, w,
                                     args.seed_base + r, args.seconds))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(runs, f, indent=1)
    flagged = 0
    for side, _ in sides:
        if len(sides) > 1:
            print("== %s" % side)
        flagged += report(bench, [x for x in runs if x["side"] == side])
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
