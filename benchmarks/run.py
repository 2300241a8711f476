"""clprop benchmark: run one workload, check its outputs, print its metrics.

    python3 benchmarks/run.py --workload hsweep-2k --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced unit (see benchmarks/README.md).  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit codes: 0 all checks passed,
1 a check failed, 2 the program could not be found or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7
MIN_SEED_COVERAGE = 0.8  # share of a traced seed its child spans must cover
LAYERS = ("synth", "graph", "mlp", "compatibility", "propagation", "metrics", "pipeline", "cli")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs every workload at about 200 nodes (smoke test)")
    return p.parse_args(argv)


def _limit_threads() -> int:
    """One BLAS/OpenMP thread; must run before numpy loads.

    The program's matrices are small (at most 10k x 64), and with a second
    thread every BLAS call waits for a second core, which on a shared host
    adds more jitter than the thread saves.
    """
    threads = 1
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def machine(threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _run_units(wl, seconds: float, min_units: int) -> list:
    """Repeat the workload's unit for ``seconds``, at least ``min_units`` times."""
    from spans import Timer

    units = []
    start = time.perf_counter()
    while len(units) < min_units or time.perf_counter() - start < seconds:
        with Timer() as timer:
            unit = wl.run_unit()
        unit.wall = timer.seconds
        units.append(unit)
    return units


def end_to_end(units, setup_times, peak_rss_mb: float) -> dict:
    attempted = sum(u.attempted for u in units)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        # per unit the mean of its calls (one per graph), then the median over units
        "call_s": (statistics.median(statistics.fmean(u.call_times) for u in units), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "acc": (units[0].quality["acc"], "fraction"),
        "ok_share": ((attempted - sum(u.fallbacks for u in units)) / attempted, "fraction"),
    }


def per_layer(rec, traced, untraced) -> dict:
    """Per-layer metrics of one traced unit (set-up spans included)."""
    spans = rec.spans
    m = {}

    def seconds(metric, span_name):
        m[metric] = (rec.total(span_name), "s")

    def ratio(num, den):
        return num / den if den else 0.0

    seconds("synth.generate_s", "synth.generate")
    seconds("graph.save_s", "graph.save")
    seconds("graph.load_s", "graph.load")
    m["graph.load_bytes"] = (
        sum(s.attrs.get("bytes", 0) for s in spans if s.name == "graph.load"), "B")
    seconds("mlp.train_s", "mlp.train")
    epochs = sum(s.attrs.get("epochs", 0) for s in spans if s.name == "mlp.train")
    m["mlp.epochs"] = (epochs, "count")
    m["mlp.epoch_ms"] = (1000.0 * ratio(rec.total("mlp.train"), epochs), "ms")
    seconds("compatibility.estimate_s", "compatibility.estimate")
    seconds("propagation.edge_weights_s", "propagation.edge_weights")
    seconds("propagation.certify_s", "propagation.certify")
    m["propagation.certify_calls"] = (rec.count("propagation.certify"), "count")
    seconds("propagation.power_iter_s", "propagation.power_iter")
    m["propagation.power_iter_calls"] = (rec.count("propagation.power_iter"), "count")
    seconds("propagation.clp_norm_s", "propagation.clp_norm")
    seconds("propagation.clp_raw_s", "propagation.clp_raw")
    clp = [s for s in spans if s.name in ("propagation.clp_norm", "propagation.clp_raw")]
    done = [s for s in clp if "iterations" in s.attrs]
    arc_updates = sum(s.attrs["iterations"] * s.attrs["arcs"] * s.attrs["classes"] for s in done)
    clp_s = sum(s.duration for s in clp)
    candidates = clp + [s for s in spans if s.name == "propagation.clp_star"]
    m["propagation.candidates"] = (len(clp), "count")
    m["propagation.iterations"] = (sum(s.attrs["iterations"] for s in done), "count")
    m["propagation.arc_updates"] = (arc_updates, "count")
    m["propagation.arc_updates_per_s"] = (ratio(arc_updates, clp_s), "1/s")
    m["propagation.budget_ratio"] = (
        ratio(sum(1 for s in done if s.attrs["budget"]), len(done)), "fraction")
    m["propagation.diverged_ratio"] = (
        ratio(sum(1 for s in candidates if s.attrs.get("raised") == "DivergenceError"),
              len(candidates)), "fraction")
    seconds("propagation.clp_star_s", "propagation.clp_star")
    seconds("propagation.lp_s", "propagation.lp")
    seconds("metrics.hv_histogram_s", "metrics.hv_histogram")
    seconds("metrics.bucket_accuracy_s", "metrics.bucket_accuracy")
    seconds("pipeline.write_report_s", "pipeline.write_report")
    layer_self = rec.layer_self_times()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self.get(layer, 0.0), "s")
    m["trace.overhead_s"] = (traced.wall - statistics.median(u.wall for u in untraced), "s")
    m["trace.seed_coverage"] = (min(seed_coverage(rec), default=0.0), "fraction")
    q = traced.quality
    m["mlp.test_acc"] = (q.get("mlp_acc", 0.0), "fraction")
    m["compatibility.dist"] = (q.get("compat_dist", 0.0), "1")
    m["propagation.lp_acc"] = (q.get("lp_acc", 0.0), "fraction")
    m["propagation.clp_star_acc"] = (q.get("clp_star_acc", 0.0), "fraction")
    m["pipeline.clp_mlp_ratio_min"] = (q.get("clp_mlp_ratio_min", 0.0), "ratio")
    return m


def seed_coverage(rec) -> list[float]:
    """Share of each traced pipeline call covered by its child spans."""
    return [
        1.0 - rec.self_time(i) / s.duration
        for i, s in enumerate(rec.spans)
        if s.name in ("pipeline.run", "pipeline.inspect") and s.duration > 0
    ]


def measure(args, threads: int) -> tuple[dict, int, list[str], dict]:
    import workloads
    from spans import SpanRecorder, Timer, instrument

    wl_cls = workloads.WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = wl_cls(args.seed, args.size, work)
    rec = SpanRecorder()
    try:
        setup_times = []
        if args.trace:
            with instrument(rec, workloads.PROBES), rec.span("bench.setup"):
                wl.setup()
            workloads.warm_up(args.seed)
            units = _run_units(wl, args.seconds, 1)
            with instrument(rec, workloads.PROBES), rec.span("bench.unit"), Timer() as timer:
                traced = wl.run_unit()
            traced.wall = timer.seconds
            units.append(traced)
        else:
            for _ in range(SETUP_REPEATS):
                with Timer() as timer:
                    wl.setup()
                    workloads.warm_up(args.seed)
                setup_times.append(timer.seconds)
            units = _run_units(wl, args.seconds, wl.min_units)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # before the checks, which may run more pipeline seeds (HSweep.check)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = [e for u in units for e in u.errors] + wl.check(units)
    attempted = sum(u.attempted for u in units)
    if args.trace:
        errors += rec.nesting_errors()
        low = [c for c in seed_coverage(rec) if c < MIN_SEED_COVERAGE]
        if low:
            errors.append(
                f"child spans cover only {min(low):.2f} of a traced pipeline call "
                f"(need {MIN_SEED_COVERAGE})"
            )
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(rec.to_json()) + "\n")
    info = {"unit_walls": [u.wall for u in units], "setup_times": setup_times,
            "calls": sum(len(u.call_times) for u in units), "machine": machine(threads)}
    if errors:
        return {}, attempted, errors, info
    if args.trace:
        metrics = per_layer(rec, units[-1], units[:-1])
        info["layer_self_s"] = rec.layer_self_times()
    else:
        metrics = end_to_end(units, setup_times, peak_rss_mb)
    return metrics, attempted, errors, info


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "clprop" / "__init__.py").is_file():
        print(f"error: no clprop sources under {SRC}", file=sys.stderr)
        return 2
    threads = _limit_threads()
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {sorted(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    metrics, attempted, errors, info = measure(args, threads)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{info['calls']} measured calls in {len(info['unit_walls'])} units")
    print("unit wall times (s): " + " ".join(f"{t:.3f}" for t in info["unit_walls"]))
    if info["setup_times"]:
        print("set-up times (s): " + " ".join(f"{t:.3f}" for t in info["setup_times"]))
    print("machine: " + json.dumps(info["machine"], sort_keys=True))
    for error in errors:
        print(f"CHECK FAILED: {error}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    if "layer_self_s" in info:
        print("self time per layer (s):")
        for layer, value in sorted(info["layer_self_s"].items(), key=lambda kv: -kv[1]):
            print(f"  {layer:16s} {value:10.4f}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": min(len(errors), attempted),
        "metrics": {} if errors else {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
