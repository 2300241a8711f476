"""Smoke test of the benchmark itself, in seconds rather than minutes.

    python3 benchmarks/smoke.py

Runs every workload of BENCHMARK.json at tiny size (about 200 nodes),
untraced and traced, and checks the result line against BENCHMARK.json: the
exact keys, every metric by name and unit, finite values, and nonzero
end-to-end values.  It then runs the benchmark in a directory that holds only
BENCHMARK.json and the benchmark's files, where it must fail without printing
a result.  Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BARE = ROOT / ".bench_work" / "bare"
TIMEOUT_S = 300


def _run(workload: str, trace: int, cwd: Path, spec: dict):
    cmd = spec["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                             "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(proc, expected: dict, nonzero: bool) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if entry.get("unit") != expected.get(name):
            problems.append(f"{name}: unit {entry.get('unit')!r}, expected {expected.get(name)!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
        elif nonzero and value == 0:
            problems.append(f"{name}: end-to-end value is 0")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_result(_run(workload, trace, ROOT, spec), expected[trace], trace == 0)
            failures += bool(problems)
            print(f"{'ok  ' if not problems else 'FAIL'} {workload} trace {trace}")
            for problem in problems:
                print(f"     {problem}")

    shutil.rmtree(BARE, ignore_errors=True)
    BARE.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", BARE)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, BARE / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(spec["workloads"][0]["name"], 0, BARE, spec)
    finally:
        shutil.rmtree(BARE, ignore_errors=True)
    bare_ok = proc.returncode != 0 and '"correct"' not in proc.stdout
    failures += not bare_ok
    print(f"{'ok  ' if bare_ok else 'FAIL'} refuses to run without the program "
          f"(exit {proc.returncode})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
