#!/usr/bin/env python3
"""Self-test for tools/bench_check.py.

Copies the committed BENCH_throughput.json and BENCH_serving.json into
a temporary directory, edits one field in memory per case, and runs
the checker the way CI does (--max-regress 1.0). Every gate has a
pass case just inside its bound and a fail case just outside it (exit
1); a gate block missing from the fresh run is malformed input (exit
2). No data files beyond the two committed JSONs are read.

Run directly (python3 tools/bench_check_test.py) or through ctest.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOLS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TOOLS)
CHECKER = os.path.join(TOOLS, "bench_check.py")


def load(name):
    with open(os.path.join(ROOT, name), "r", encoding="utf-8") as f:
        return json.load(f)


THROUGHPUT = load("BENCH_throughput.json")
SERVING = load("BENCH_serving.json")


def setv(*keys, value=None, scale=None, delete=False):
    """An edit that sets, scales or deletes doc[keys[0]]...[keys[-1]]."""
    def edit(doc):
        node = doc
        for k in keys[:-1]:
            node = node[k]
        if delete:
            del node[keys[-1]]
        elif scale is not None:
            node[keys[-1]] = node[keys[-1]] * scale
        else:
            node[keys[-1]] = value
    return edit


def serv(*keys):
    node = SERVING
    for k in keys:
        node = node[k]
    return node


# (name, kind, edits applied to the fresh copy, expected exit status).
# kind "throughput" runs --fresh/--committed, "serving" runs
# --serving-fresh/--serving-committed. The committed copy is never
# edited, so trend cases scale the fresh value against it.
GATE_CASES = [
    ("identical_throughput", "throughput", [], 0),
    ("identical_serving", "serving", [], 0),

    # Fused single-image latency: limit 2.0x at --max-regress 1.0.
    ("fused_ms_within", "throughput",
     [setv("single_image", "fused_ms", scale=1.9)], 0),
    ("fused_ms_regress", "throughput",
     [setv("single_image", "fused_ms", scale=2.1)], 1),

    # Per-topology fused_ms trend.
    ("topology_fused_within", "throughput",
     [setv("topologies", "lenet-l", "fused_ms", scale=1.9)], 0),
    ("topology_fused_regress", "throughput",
     [setv("topologies", "lenet-l", "fused_ms", scale=2.1)], 1),
    ("topology_missing_from_fresh", "throughput",
     [setv("topologies", "mlp", delete=True)], 1),
    ("topology_new_without_history", "throughput",
     [setv("topologies", "tiny",
           value={"fused_ms": 1.0, "batch_ips_per_single_ips": 0.1,
                  "binary_ips_per_fused_ips": 0.1})], 0),

    # LeNet-5 batch path: absolute 1.5x floor.
    ("batch_ratio_at_floor", "throughput",
     [setv("batch", "batch_ips_per_single_ips", value=1.5)], 0),
    ("batch_ratio_below_floor", "throughput",
     [setv("batch", "batch_ips_per_single_ips", value=1.49)], 1),

    # Per-topology batch-ratio trend: floor 0.5x at --max-regress 1.0.
    ("topology_batch_within", "throughput",
     [setv("topologies", "mlp", "batch_ips_per_single_ips", scale=0.51)],
     0),
    ("topology_batch_regress", "throughput",
     [setv("topologies", "mlp", "batch_ips_per_single_ips", scale=0.49)],
     1),

    # Binary backend: absolute 5x floor.
    ("binary_speedup_at_floor", "throughput",
     [setv("single_image", "binary", "speedup_vs_fused", value=5.0)], 0),
    ("binary_speedup_below_floor", "throughput",
     [setv("single_image", "binary", "speedup_vs_fused", value=4.9)], 1),

    # Per-topology binary-ratio trend.
    ("topology_binary_within", "throughput",
     [setv("topologies", "lenet-l", "binary_ips_per_fused_ips",
           scale=0.51)], 0),
    ("topology_binary_regress", "throughput",
     [setv("topologies", "lenet-l", "binary_ips_per_fused_ips",
           scale=0.49)], 1),

    # Armed-tracing overhead: absolute 3% limit.
    ("trace_overhead_at_limit", "throughput",
     [setv("trace_overhead", "overhead_frac", value=0.03)], 0),
    ("trace_overhead_over_limit", "throughput",
     [setv("trace_overhead", "overhead_frac", value=0.031)], 1),

    # Serving: micro-batching strictly beats per-request.
    ("microbatch_beats_per_request", "serving",
     [setv("gate", "per_request_ips",
           value=serv("gate", "microbatch_ips") - 0.01)], 0),
    ("microbatch_ties_per_request", "serving",
     [setv("gate", "per_request_ips",
           value=serv("gate", "microbatch_ips"))], 1),

    # Serving throughput trend: floor 0.5x.
    ("serving_ips_within", "serving",
     [setv("gate", "microbatch_ips", scale=0.51),
      setv("gate", "per_request_ips", value=1.0)], 0),
    ("serving_ips_regress", "serving",
     [setv("gate", "microbatch_ips", scale=0.49),
      setv("gate", "per_request_ips", value=1.0)], 1),

    # Serving p99 trend: limit 2.0x.
    ("serving_p99_within", "serving",
     [setv("gate", "microbatch_p99_ms", scale=1.9)], 0),
    ("serving_p99_regress", "serving",
     [setv("gate", "microbatch_p99_ms", scale=2.1)], 1),

    # Overload: goodput at 2.5x holds >= 0.8 of the 1.0x goodput.
    ("overload_goodput_at_floor", "serving",
     [setv("overload_gate", "goodput_ratio", value=0.8)], 0),
    ("overload_goodput_below_floor", "serving",
     [setv("overload_gate", "goodput_ratio", value=0.79)], 1),

    # Overload: admission, shedding and expediting all engaged.
    ("overload_rejected_one", "serving",
     [setv("overload_gate", "rejected", value=1)], 0),
    ("overload_rejected_zero", "serving",
     [setv("overload_gate", "rejected", value=0)], 1),
    ("overload_shed_one", "serving",
     [setv("overload_gate", "shed", value=1)], 0),
    ("overload_shed_zero", "serving",
     [setv("overload_gate", "shed", value=0)], 1),
    ("overload_expedited_one", "serving",
     [setv("overload_gate", "expedited", value=1)], 0),
    ("overload_expedited_zero", "serving",
     [setv("overload_gate", "expedited", value=0)], 1),

    # Overload: queue depth within three classes x the per-class cap.
    ("overload_depth_at_bound", "serving",
     [setv("overload_gate", "max_queue_depth",
           value=3 * serv("overload_gate", "queue_cap_per_class"))], 0),
    ("overload_depth_over_bound", "serving",
     [setv("overload_gate", "max_queue_depth",
           value=3 * serv("overload_gate", "queue_cap_per_class") + 1)],
     1),

    # Overload: p99 within 3x the scenario deadline.
    ("overload_p99_at_limit", "serving",
     [setv("overload_gate", "overload_p99_ms",
           value=3.0 * serv("overload_gate", "deadline_ms"))], 0),
    ("overload_p99_over_limit", "serving",
     [setv("overload_gate", "overload_p99_ms",
           value=3.0 * serv("overload_gate", "deadline_ms") + 0.1)], 1),

    # Fleet: healthy models hold >= 0.8 of their solo goodput.
    ("fleet_goodput_at_floor", "serving",
     [setv("fleet_gate", "healthy_goodput_ratio", value=0.8)], 0),
    ("fleet_goodput_below_floor", "serving",
     [setv("fleet_gate", "healthy_goodput_ratio", value=0.79)], 1),

    # Fleet: the poisoned model is quarantined, then recovers.
    ("fleet_not_quarantined", "serving",
     [setv("fleet_gate", "poisoned_quarantined", value=0)], 1),
    ("fleet_no_trips", "serving",
     [setv("fleet_gate", "poisoned_trips", value=0)], 1),
    ("fleet_not_recovered", "serving",
     [setv("fleet_gate", "poisoned_recovered", value=0)], 1),

    # Fleet: every bit-exactness sentinel matches, and some ran.
    ("fleet_sentinel_mismatch", "serving",
     [setv("fleet_gate", "sentinel_mismatches", value=1)], 1),
    ("fleet_sentinel_none_checked", "serving",
     [setv("fleet_gate", "sentinel_checked", value=0)], 1),

    # Fleet: a breaker trip leaves a flight-recorder dump.
    ("fleet_flight_dump_one", "serving",
     [setv("fleet_gate", "flight_dumps", value=1)], 0),
    ("fleet_flight_dump_zero", "serving",
     [setv("fleet_gate", "flight_dumps", value=0)], 1),
]

# A gate block missing from the fresh run is malformed input.
MISSING_CASES = [
    ("missing_batch", "throughput", [setv("batch", delete=True)], 2),
    ("missing_binary", "throughput",
     [setv("single_image", "binary", delete=True)], 2),
    ("missing_trace_overhead", "throughput",
     [setv("trace_overhead", delete=True)], 2),
    ("missing_gate", "serving", [setv("gate", delete=True)], 2),
    ("missing_overload_gate", "serving",
     [setv("overload_gate", delete=True)], 2),
    ("missing_fleet_gate", "serving", [setv("fleet_gate", delete=True)], 2),
    ("missing_flight_dumps", "serving",
     [setv("fleet_gate", "flight_dumps", delete=True)], 2),
]


def run_case(kind, edits, tmp):
    base = THROUGHPUT if kind == "throughput" else SERVING
    fresh = copy.deepcopy(base)
    for edit in edits:
        edit(fresh)
    fresh_path = os.path.join(tmp, "fresh.json")
    committed_path = os.path.join(tmp, "committed.json")
    with open(fresh_path, "w", encoding="utf-8") as f:
        json.dump(fresh, f)
    with open(committed_path, "w", encoding="utf-8") as f:
        json.dump(base, f)
    flag = "" if kind == "throughput" else "serving-"
    cmd = [sys.executable, CHECKER, f"--{flag}fresh", fresh_path,
           f"--{flag}committed", committed_path, "--max-regress", "1.0"]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          check=False)
    return proc.returncode, proc.stdout + proc.stderr


class BenchCheckTest(unittest.TestCase):
    def check_cases(self, cases):
        with tempfile.TemporaryDirectory() as tmp:
            for name, kind, edits, expected in cases:
                with self.subTest(case=name):
                    status, output = run_case(kind, edits, tmp)
                    self.assertEqual(status, expected,
                                     f"{name}: exit {status}, want "
                                     f"{expected}\n{output}")

    def test_gates(self):
        self.check_cases(GATE_CASES)

    def test_missing_blocks(self):
        self.check_cases(MISSING_CASES)


if __name__ == "__main__":
    unittest.main()
