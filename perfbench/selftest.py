#!/usr/bin/env python3
"""Fast self-test of the repository benchmark.

Runs every workload of BENCHMARK.json at a tiny size (--tiny) and asserts:
  * with --trace 0 and --trace 1 the result line names exactly the
    end-to-end, respectively per-layer, metrics of BENCHMARK.json, with
    their units, the table prints fail_ratio (and the service's open-loop
    latency percentiles), and every output matched its oracle;
  * a deliberately perturbed result (--perturb: one bit of one solution
    flipped before its oracle check) counts as a failure, and the run exits
    non-zero.

usage: python3 perfbench/selftest.py     (from the repository root)
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


# Lines the --trace 0 table must print besides the result line's metrics.
TABLE_LINES = {"service_mix": ("fail_ratio", "req_p50_s", "req_p99_s")}


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, lines


def check_shape(result, expected, label):
    assert result is not None, f"{label}: no result line"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {set(result)}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    metrics = result["metrics"]
    assert set(metrics) == set(expected), (
        f"{label}: missing {sorted(set(expected) - set(metrics))}, "
        f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        value = metrics[name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), f"{label}: {name}"
        assert metrics[name]["unit"] == unit, f"{label}: {name} unit {metrics[name]['unit']}"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sets = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in sets.items():
            label = f"{workload} --trace {trace}"
            code, result, lines = run(workload, trace)
            check_shape(result, expected, label)
            printed = {line.split()[0] for line in lines[:-1] if line.startswith("  ")}
            for name in TABLE_LINES.get(workload, ("fail_ratio",)) if trace == 0 else ():
                assert name in printed, f"{label}: table lacks {name}"
            assert code == 0 and result["correct"] and result["failed"] == 0, (
                f"{label}: exit {code}, {result}")
            if trace == 0:
                for name in expected:
                    assert result["metrics"][name]["value"] > 0, f"{label}: {name} is 0"
            print(f"ok   {label}: {len(expected)} metrics, {result['attempted']} checked")
        code, result, _ = run(workload, 0, "--perturb")
        check_shape(result, sets[0], f"{workload} --perturb")
        assert code != 0 and not result["correct"] and result["failed"] >= 1, (
            f"{workload} --perturb: a flipped bit went unnoticed (exit {code}, {result})")
        print(f"ok   {workload} --perturb: {result['failed']} of {result['attempted']} failed, "
              f"exit {code}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
