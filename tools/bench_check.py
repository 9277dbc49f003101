#!/usr/bin/env python3
"""Guard the benchmark trajectory.

Throughput (--fresh against --committed BENCH_throughput.json):
  - trends against the committed record: fused single-image latency,
    and per topology the fused latency, the batch-vs-single ips ratio
    and the binary-vs-fused ips ratio. A topology with no committed
    history is announced and not gated; one with history that is
    missing from the fresh run is a regression;
  - absolute gates: the LeNet-5 micro-batch sustains >= 1.5x the
    single-image ips on one thread, the binary backend >= 5x the
    fused-SC single-image ips, and armed tracing costs <= 3% over
    disarmed.

Serving (--serving-fresh against --serving-committed BENCH_serving.json):
  - gate: micro-batching sustains strictly more ips than per-request
    serving at the same offered load; its ips and p99 are trended
    against the committed record;
  - overload_gate: goodput at 2.5x offered capacity holds >= 0.8 of the
    1.0x goodput; the rejected, shed and expedited counters are all
    non-zero; queue depth stays within three classes x the per-class
    cap; p99 stays within 3x the scenario deadline;
  - fleet_gate: with one of three registered models poisoned mid-run,
    the healthy models hold >= 0.8 of their solo goodput, the poisoned
    model is quarantined and recovers through half-open probes, every
    bit-exactness sentinel matches the reference engine, and the
    breaker trip leaves a flight-recorder dump.

Trends allow a --max-regress fractional change (default 0.25): a
latency may grow to (1 + r)x its committed value, a throughput or
ratio may fall to 1 / (1 + r)x. CI passes 1.0, because its hardware
differs from the box that wrote the committed record.

Usage:
  tools/bench_check.py --fresh build/BENCH_throughput.json \
      [--committed BENCH_throughput.json] \
      [--serving-fresh build/BENCH_serving.json] \
      [--serving-committed BENCH_serving.json] [--max-regress 0.25]

At least one of --fresh / --serving-fresh is required.

Exit status: 0 when within bounds, 1 on regression, 2 on malformed or
missing input (a missing file, gate block or field).
"""

import argparse
import functools
import json
import sys

MIN_BATCH_RATIO = 1.5      # lenet5 batch vs single-image ips, 1 thread
MIN_BINARY_RATIO = 5.0     # lenet5 binary vs fused-SC ips
MAX_TRACE_OVERHEAD = 0.03  # armed vs disarmed tracing, fraction
MIN_GOODPUT_RATIO = 0.8    # overload goodput, 2.5x vs 1.0x offered
MIN_FLEET_GOODPUT = 0.8    # healthy model goodput, mixed vs solo


def malformed(msg):
    sys.stderr.write(f"bench_check: {msg}\n")
    sys.exit(2)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        malformed(f"cannot read {path}: {e}")


def field(doc, path, *keys):
    """doc[keys[0]]...[keys[-1]] as a float; exit 2 when missing."""
    node = doc
    try:
        for key in keys:
            node = node[key]
        return float(node)
    except (KeyError, TypeError, ValueError):
        malformed(f"no {'.'.join(keys)} in {path}")


def verdict(label, ok):
    print(f"bench_check: {label}: {'OK' if ok else 'REGRESSION'}")
    return ok


def trend(label, fresh, prev, max_regress, higher_is_better=False,
          unit=""):
    """Compare @p fresh with its committed value @p prev. An entry
    with no committed history (prev None) is announced, not gated."""
    if prev is None:
        print(f"bench_check: {label} {fresh:.2f}{unit} (new entry, no "
              "committed history — skipping gate)")
        return True
    if prev <= 0:
        return True
    ratio = fresh / prev
    if higher_is_better:
        bound = 1.0 / (1.0 + max_regress)
        ok, bound_name = ratio >= bound, "floor"
    else:
        bound = 1.0 + max_regress
        ok, bound_name = ratio <= bound, "limit"
    return verdict(f"{label} {prev:.2f}{unit} -> {fresh:.2f}{unit} "
                   f"({ratio:.2f}x, {bound_name} {bound:.2f}x)", ok)


def check_throughput(args):
    fresh_doc = load(args.fresh)
    committed_doc = load(args.committed)
    committed_ms = field(committed_doc, args.committed,
                         "single_image", "fused_ms")
    if committed_ms <= 0:
        malformed("committed single_image.fused_ms is not positive")
    ok = trend("fused single-image",
               field(fresh_doc, args.fresh, "single_image", "fused_ms"),
               committed_ms, args.max_regress, unit=" ms")

    fresh_topos = fresh_doc.get("topologies")
    committed_topos = committed_doc.get("topologies", {})
    if not isinstance(fresh_topos, dict):
        malformed(f"no topologies block in {args.fresh}")
    for name in sorted(committed_topos):
        if name not in fresh_topos:
            ok = verdict(f"topology {name} has committed history but is "
                         "missing from the fresh run", False) and ok
    # (fresh-run key, label, higher is better, required in fresh entry)
    metrics = (("fused_ms", "fused", False, True),
               ("batch_ips_per_single_ips", "batch ratio", True, False),
               ("binary_ips_per_fused_ips", "binary ratio", True, False))
    for name in sorted(fresh_topos):
        entry = fresh_topos[name]
        prev = committed_topos.get(name, {})
        for key, label, higher, required in metrics:
            if not required and key not in entry:
                continue
            fresh = field(fresh_topos, args.fresh, name, key)
            prev_v = (field(committed_topos, args.committed, name, key)
                      if key in prev else None)
            ok = trend(f"topology {name} {label}", fresh, prev_v,
                       args.max_regress, higher_is_better=higher,
                       unit=" ms" if key == "fused_ms" else "x") and ok

    batch = field(fresh_doc, args.fresh, "batch", "batch_ips_per_single_ips")
    ok = verdict(f"lenet5 batch path {batch:.2f}x single-image ips "
                 f"(floor {MIN_BATCH_RATIO:.2f}x)",
                 batch >= MIN_BATCH_RATIO) and ok
    binary = field(fresh_doc, args.fresh,
                   "single_image", "binary", "speedup_vs_fused")
    ok = verdict(f"lenet5 binary backend {binary:.1f}x fused-SC ips "
                 f"(floor {MIN_BINARY_RATIO:.2f}x)",
                 binary >= MIN_BINARY_RATIO) and ok
    acc = fresh_doc["single_image"].get("accuracy_trained")
    if isinstance(acc, dict):
        print(f"bench_check: trained mini-LeNet accuracy SC "
              f"{float(acc.get('sc', 0)):.3f} vs binary "
              f"{float(acc.get('binary', 0)):.3f} "
              f"(delta {float(acc.get('sc_minus_binary', 0)):+.3f}, "
              "informational)")
    overhead = field(fresh_doc, args.fresh,
                     "trace_overhead", "overhead_frac")
    return verdict(f"armed-tracing overhead {100.0 * overhead:+.2f}% "
                   f"(limit {100.0 * MAX_TRACE_OVERHEAD:.2f}%)",
                   overhead <= MAX_TRACE_OVERHEAD) and ok


def check_overload(doc, path):
    g = functools.partial(field, doc, path, "overload_gate")
    ratio = g("goodput_ratio")
    ok = verdict(f"overload goodput {g('goodput_1x_ips'):.1f} ips @1.0x -> "
                 f"{g('goodput_2p5x_ips'):.1f} ips @2.5x ({ratio:.2f}x, "
                 f"floor {MIN_GOODPUT_RATIO:.2f}x)",
                 ratio >= MIN_GOODPUT_RATIO)
    for counter in ("rejected", "shed", "expedited"):
        n = g(counter)
        ok = verdict(f"overload {counter} count {n:.0f} (must be >0)",
                     n > 0) and ok
    # Three accuracy classes, each bounded by the per-class cap.
    bound = 3 * g("queue_cap_per_class")
    depth = g("max_queue_depth")
    ok = verdict(f"overload max queue depth {depth:.0f} (bound {bound:.0f})",
                 depth <= bound) and ok
    limit = 3.0 * g("deadline_ms")
    p99 = g("overload_p99_ms")
    return verdict(f"overload p99 {p99:.1f} ms (limit {limit:.1f} ms = 3x "
                   "deadline)", p99 <= limit) and ok


def check_fleet(doc, path):
    g = functools.partial(field, doc, path, "fleet_gate")
    ratio = g("healthy_goodput_ratio")
    gate = doc["fleet_gate"]
    ok = verdict(f"fleet healthy goodput ratio {ratio:.2f} (floor "
                 f"{MIN_FLEET_GOODPUT:.2f}, poisoned model "
                 f"{gate.get('poisoned_id', '?')})",
                 ratio >= MIN_FLEET_GOODPUT)
    trips = g("poisoned_trips")
    ok = verdict(f"fleet poisoned model quarantined (trips {trips:.0f})",
                 g("poisoned_quarantined") > 0 and trips > 0) and ok
    ok = verdict("fleet poisoned model recovered via half-open probe "
                 f"(final state {gate.get('poisoned_final_state', '?')})",
                 g("poisoned_recovered") > 0) and ok
    checked = g("sentinel_checked")
    mismatches = g("sentinel_mismatches")
    ok = verdict(f"fleet bit-exactness sentinels "
                 f"{checked - mismatches:.0f}/{checked:.0f} exact (must be "
                 "all, >0)", checked > 0 and mismatches == 0) and ok
    dumps = g("flight_dumps")
    return verdict(f"fleet flight-recorder dumps {dumps:.0f} (must be >0 — "
                   "a breaker trip must leave a postmortem)",
                   dumps > 0) and ok


def check_serving(args):
    doc = load(args.serving_fresh)
    prev = load(args.serving_committed)
    path = args.serving_fresh
    per_request = field(doc, path, "gate", "per_request_ips")
    micro = field(doc, path, "gate", "microbatch_ips")
    ok = verdict(f"serving at same offered load: per-request "
                 f"{per_request:.1f} ips vs micro-batching {micro:.1f} ips "
                 f"({micro / per_request if per_request > 0 else 0:.2f}x, "
                 "must be >1)", micro > per_request)
    ok = check_overload(doc, path) and ok
    ok = check_fleet(doc, path) and ok
    ok = trend("serving throughput", micro,
               field(prev, args.serving_committed, "gate", "microbatch_ips"),
               args.max_regress, higher_is_better=True, unit=" ips") and ok
    return trend("serving p99",
                 field(doc, path, "gate", "microbatch_p99_ms"),
                 field(prev, args.serving_committed,
                       "gate", "microbatch_p99_ms"),
                 args.max_regress, unit=" ms") and ok


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fresh",
                    help="throughput JSON written by the bench run under "
                         "test")
    ap.add_argument("--committed", default="BENCH_throughput.json",
                    help="throughput baseline committed to the repository")
    ap.add_argument("--serving-fresh",
                    help="serving JSON written by bench_serving")
    ap.add_argument("--serving-committed", default="BENCH_serving.json",
                    help="serving baseline committed to the repository")
    ap.add_argument("--max-regress", type=float, default=0.25,
                    help="allowed fractional trend change (default 0.25)")
    args = ap.parse_args()

    if args.fresh is None and args.serving_fresh is None:
        malformed("need --fresh and/or --serving-fresh")
    ok = True
    if args.fresh is not None:
        ok = check_throughput(args) and ok
    if args.serving_fresh is not None:
        ok = check_serving(args) and ok
    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
