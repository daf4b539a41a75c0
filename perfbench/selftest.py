#!/usr/bin/env python3
"""Self-test of the benchmark harness on tiny inputs.

Usage: python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json in smoke mode (a2 and a3, AR closure
cap 8), untraced once and traced twice.  Checks that the result line has
exactly the keys the contract names, that every end-to-end and per-layer
metric of BENCHMARK.json appears with its unit, that the smoke results are
correct, and that the count metrics repeat exactly between the two traced
runs.  Exits 0 when every check passes.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_UNITS = ("count", "bits", "share")


def smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_result(result, expected, label):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{label}: smoke run not correct ({result.get('failed')} failed)")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"{label}: metrics differ: missing {sorted(set(expected) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit:
            problems.append(f"{label}: {name} has unit {got.get('unit')!r}, expected {unit!r}")
        if not isinstance(got.get("value"), (int, float)):
            problems.append(f"{label}: {name} has no numeric value")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for w in (w["name"] for w in spec["workloads"]):
        problems += check_result(smoke(w, 0), e2e, f"{w} trace=0")
        first, second = smoke(w, 1), smoke(w, 1)
        problems += check_result(first, layer, f"{w} trace=1")
        for name, unit in layer.items():
            if unit in EXACT_UNITS:
                a = first["metrics"].get(name, {}).get("value")
                b = second["metrics"].get(name, {}).get("value")
                if a != b:
                    problems.append(f"{w}: {name} differs between traced runs: {a} vs {b}")
        print(f"{w}: checked", flush=True)
    for p in problems:
        print("FAIL", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
