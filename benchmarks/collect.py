"""Run the benchmark over several seeds and summarise each metric.

    python3 benchmarks/collect.py --seeds 1-10 [--trace-seeds 1-3]
                                  [--workloads hsweep-2k,inspect-syn2] [--out summary.json]

Runs ``BENCHMARK.json``'s command once per (workload, seed), one run at a
time: untraced for ``--seeds``, traced for ``--trace-seeds``.  For every
workload and metric it prints the median of the per-seed values and their
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  End-to-end
spreads are shown next to the metric's bound.  ``--out`` writes the same
summary as JSON together with the machine description the runs printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    summary = {"median": median, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary.update(q1=q1, q3=q3, spread=(q3 - q1) / abs(median) if median else None)
    return summary


def collect(spec: dict, name: str, seeds: list[int], trace: int, report: dict) -> dict | None:
    """Run one workload over ``seeds``; returns its metric table, None on a failed run."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]} if trace == 0 else {}
    per_metric: dict[str, list] = {}
    units = {}
    for seed in seeds:
        cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
        if proc.returncode != 0 or not result.get("correct"):
            print(f"{name} seed {seed}: FAILED (exit {proc.returncode})\n{proc.stdout}"
                  f"{proc.stderr[-2000:]}")
            return None
        for line in lines:
            if line.startswith("machine: "):
                report["machine"] = json.loads(line[len("machine: "):])
        for metric, entry in result["metrics"].items():
            per_metric.setdefault(metric, []).append(entry["value"])
            units[metric] = entry["unit"]
        if trace == 0:
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={e['value']:.6g}" for m, e in result["metrics"].items()), flush=True)
    table = {}
    for metric, values in per_metric.items():
        table[metric] = dict(summarise(values), unit=units[metric])
        spread = table[metric].get("spread")
        bound = bounds.get(metric)
        flag = ""
        if bound is not None and metric != "setup_s" and spread is not None:
            flag = "  over bound/3" if spread > bound / 3 else ""
        print(f"  {name:13s} {metric:32s} median {table[metric]['median']:12.6g} "
              f"spread {spread if spread is not None else float('nan'):8.4f}"
              f"{'' if bound is None else f'  bound {bound}'}{flag}", flush=True)
    return table


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="seeds of the untraced runs")
    p.add_argument("--trace-seeds", default="", help="seeds of the traced runs")
    p.add_argument("--workloads", help="comma list (default: every workload)")
    p.add_argument("--out")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    report = {"run_seconds": spec["run_seconds"], "end_to_end": {}, "per_layer": {}}
    ok = True
    for key, trace, seeds in (("end_to_end", 0, args.seeds), ("per_layer", 1, args.trace_seeds)):
        if not seeds:
            continue
        report[f"{key}_seeds"] = _seeds(seeds)
        for name in names:
            table = collect(spec, name, _seeds(seeds), trace, report)
            ok = ok and table is not None
            report[key][name] = table
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
