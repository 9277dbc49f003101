#!/usr/bin/env python3
"""Compare a base and a new version from interleaved runs.

    python3 servebench/steady.py --against BASE_CHECKOUT --save pairs.json
    python3 servebench/compare.py pairs.json

steady.py --against runs every seed on both versions back to back,
alternating which goes first. compare.py pairs the two runs of each
(workload, seed) and judges every end-to-end metric of BENCHMARK.json by
the ratio new / base within each pair, so drift of the machine between
pairs cancels out:
- REGRESSED: the median paired change is worse than the metric's bound;
- better: at least nine pairs in ten are better, and the median paired
  change exceeds the spread (q3 - q1) / median of the base runs;
- within bound: anything else.
Runs are comparable only when their fingerprints agree on everything but
the seed: machine (nproc, compute pool, SIMD, compiler, build type) and
configuration (stream length, network, batching, run length). Otherwise
the workload is reported as "not comparable" and gets no verdict. A pair
whose two runs started more than PAIR_GAP_S apart is not interleaved, and
the workload gets no verdict either. Exits 1 when any metric regressed.
"""

import json
import statistics
import sys

from steady import load_benchmark, spread

# Fingerprint keys that differ between runs by design.
PER_RUN = {"seed", "trace"}
# Two runs of a pair must start within this many seconds of each other.
PAIR_GAP_S = 600


def machine(fp):
    return {k: v for k, v in fp.items() if k not in PER_RUN}


def verdict(metric, pairs):
    """(median change, wins, verdict) of one metric over the pairs."""
    def value(run):
        return run["result"]["metrics"][metric["name"]]["value"]
    changes = [(value(n) - value(b)) / value(b) for b, n in pairs]
    sign = 1 if metric["better"] == "lower" else -1
    worse = sign * statistics.median(changes)
    wins = sum(sign * c < 0 for c in changes)
    base_spread = spread([value(b) for b, _ in pairs])[3]
    if worse > metric["bound"]:
        return worse, wins, "REGRESSED"
    if wins * 10 >= 9 * len(pairs) and -worse > base_spread:
        return worse, wins, "better"
    return worse, wins, "within bound"


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    bench = load_benchmark()
    with open(sys.argv[1]) as f:
        runs = json.load(f)

    regressed = 0
    for w in [x["name"] for x in bench["workloads"]]:
        side = {s: {r["seed"]: r for r in runs
                    if r["workload"] == w and r["side"] == s}
                for s in ("base", "new")}
        seeds = sorted(set(side["base"]) & set(side["new"]))
        if not seeds:
            continue
        pairs = [(side["base"][s], side["new"][s]) for s in seeds]
        prints = {json.dumps(machine(r["fingerprint"]), sort_keys=True)
                  for pair in pairs for r in pair}
        if len(prints) != 1:
            keys = sorted({k for p in prints for k, v in json.loads(p).items()
                           if any(json.loads(q).get(k) != v for q in prints)})
            print("%s: not comparable (fingerprints differ in %s)"
                  % (w, ", ".join(keys)))
            continue
        apart = max(abs(b["started"] - n["started"]) for b, n in pairs)
        if apart > PAIR_GAP_S:
            print("%s: not interleaved (a pair's runs started %.0f s apart)"
                  % (w, apart))
            continue
        print("%s (%d pairs)" % (w, len(pairs)))
        for m in bench["end_to_end"]:
            worse, wins, v = verdict(m, pairs)
            regressed += v == "REGRESSED"
            print("  %-18s median paired change %+7.2f%% (worse > 0)  "
                  "bound %4.0f%%  new better in %d of %d  %s"
                  % (m["name"], 100 * worse, 100 * m["bound"], wins,
                     len(pairs), v))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
