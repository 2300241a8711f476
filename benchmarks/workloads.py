"""The benchmark's workloads: set-up, one measured unit, and output checks.

Every workload drives clprop through its public entry points only
(``cli.main``, ``run_pipeline``, ``inspect_dataset``, ``generate``,
``save_graph``) and looks each function up through its module at call time,
so the probes of a traced run see every call.  One process makes one call at
a time (a closed loop with a single caller).
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from clprop import cli, pipeline, synth
from clprop import graph as graph_io

from spans import Probe, Timer

# Criterion 9 is defined on the 2000-node graph (1600 test nodes).  The tiny
# size exists to exercise the harness; with 160 test nodes its accuracies are
# too coarse for a 0.01 margin, so it skips that check.
SIZES = {
    "full": {"sweep_nodes": 2000, "inspect_scale": 1.0, "criterion_9": True},
    "tiny": {"sweep_nodes": 200, "inspect_scale": 0.02, "criterion_9": False},
}
SWEEP_H = (0.1, 0.5, 0.9)
SWEEP_METHODS = ("mlp", "lp", "clp", "clp-star")  # names of `clprop run --method`
# The benchmark seed draws the edges only.  Features and the pipeline seed
# (split, MLP initialisation, dropout) stay fixed: the MLP's test accuracy
# swings between about 0.24 and 0.50 across initialisations of one 2k graph,
# and edge weights, certification work and CLP accuracy all inherit it.
FEATURE_SEED = 0
PIPELINE_SEED = 0


@dataclass
class Unit:
    """What one measured unit of a workload produced."""

    call_times: list = field(default_factory=list)
    attempted: int = 0
    fallbacks: int = 0
    errors: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    fingerprint: object = None
    wall: float = 0.0


def _check_fraction(unit: Unit, label: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        unit.errors.append(f"{label} = {value!r} lies outside [0, 1]")


def _cli(argv: list[str]) -> tuple[int, str, float]:
    """Run ``clprop`` in-process; returns exit code, stdout and wall time."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with Timer() as timer:
            code = cli.main(argv)
    return code, out.getvalue(), timer.seconds


def _generate(spec: synth.SyntheticSpec):
    """``generate`` with the node features redrawn from ``FEATURE_SEED``."""
    graph, manifest = synth.generate(spec)
    features = synth.gaussian_features(graph.labels, FEATURE_SEED, graph.num_classes)
    return dataclasses.replace(graph, features=features), manifest


def warm_up(seed: int) -> None:
    """One tiny pipeline and inspection, so lazy imports and first calls are
    paid during set-up rather than inside the measured units."""
    graph, _ = synth.generate(synth.SyntheticSpec(100, 10, 5.0, 0.5, seed))
    config = pipeline.ExperimentConfig(dataset={}, seeds=(PIPELINE_SEED,), method="clp")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pipeline.run_pipeline(config, graph=graph)
        pipeline.inspect_dataset(graph, config)


CRITERION_SEEDS = (0, 1, 2, 3, 4)  # pipeline seeds of the criterion-9 means
CRITERION_MARGIN = 0.01


def criterion_9(graph) -> tuple[float, float]:
    """Mean CLP and MLP test accuracy over ``CRITERION_SEEDS`` on ``graph``,
    computed the way the acceptance test of criterion 9 computes them."""
    means = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for method in ("clp", "mlp_only"):
            config = pipeline.ExperimentConfig(
                dataset={}, seeds=CRITERION_SEEDS, scheme="medium", method=method)
            means.append(pipeline.run_pipeline(config, graph=graph).mean)
    return means[0], means[1]


def _same_outputs(name: str, units: list[Unit]) -> list[str]:
    prints = {u.fingerprint for u in units if u.fingerprint is not None}
    if len(prints) > 1:
        return [f"{name}: outputs differ between repetitions of the same input"]
    return []


class HSweep:
    name = "hsweep-2k"
    min_units = 2

    def __init__(self, seed: int, size: str, work: Path):
        self.seed = seed
        self.nodes = SIZES[size]["sweep_nodes"]
        self.criterion_9 = SIZES[size]["criterion_9"]
        self.work = work
        self.units_run = 0

    def setup(self) -> None:
        self.datasets = []
        for h in SWEEP_H:
            graph, manifest = _generate(synth.SyntheticSpec(self.nodes, 10, 10.0, h, self.seed))
            directory = self.work / f"h{h}"
            graph_io.save_graph(graph, directory, extra_manifest=manifest)
            self.datasets.append((h, directory, graph))

    def run_unit(self) -> Unit:
        unit = Unit()
        self.units_run += 1
        reports = []
        per_h = []
        for h, directory, _ in self.datasets:
            rows = {}
            for method in SWEEP_METHODS:
                out = self.work / f"out{self.units_run}" / f"h{h}-{method}"
                argv = ["run", "--dataset", str(directory), "--method", method,
                        "--seeds", str(PIPELINE_SEED), "--out", str(out)]
                unit.attempted += 1
                code, _, seconds = _cli(argv)
                if code != 0:
                    unit.errors.append(f"h={h} clprop run --method {method} exited {code}")
                    continue
                if method == "clp":
                    unit.call_times.append(seconds)
                report = (out / "report.csv").read_bytes()
                reports += [report, (out / "summary.csv").read_bytes()]
                (row,) = csv.DictReader(io.StringIO(report.decode()))
                unit.fallbacks += row["fallback"] == "yes"
                _check_fraction(unit, f"h={h} {method} accuracy", float(row["test_accuracy"]))
                rows[method] = row
            if len(rows) < len(SWEEP_METHODS):
                continue
            per_h.append(rows)
        unit.fingerprint = tuple(reports)
        if per_h and not unit.errors:
            def mean(method, column="test_accuracy"):
                return sum(float(rows[method][column]) for rows in per_h) / len(per_h)

            unit.quality = {
                "acc": mean("clp"),
                "mlp_acc": mean("mlp"),
                "lp_acc": mean("lp"),
                "clp_star_acc": mean("clp-star"),
                "compat_dist": mean("clp", "compat_distance"),
                "per_h": [
                    (float(rows["clp"]["test_accuracy"]), float(rows["mlp"]["test_accuracy"]))
                    for rows in per_h
                ],
                "clp_mlp_ratio_min": min(
                    float(rows["clp"]["test_accuracy"]) / float(rows["mlp"]["test_accuracy"])
                    for rows in per_h
                ),
            }
        return unit

    def check(self, units: list[Unit]) -> list[str]:
        """Identical outputs across units, then the criterion-9 floor.

        Criterion 9 holds CLP to MLP - 0.01 on means over five pipeline
        seeds.  The units run pipeline seed 0 only; where that one seed
        misses the floor, the five-seed means decide, computed on the same
        graph after the measured units.
        """
        errors = _same_outputs(self.name, units)
        if errors or not units[0].quality or not self.criterion_9:
            return errors
        for (h, _, graph), (clp, mlp) in zip(self.datasets, units[0].quality["per_h"]):
            if clp >= mlp - CRITERION_MARGIN:
                continue
            clp_mean, mlp_mean = criterion_9(graph)
            print(f"h={h}: seed {PIPELINE_SEED} has clp {clp:.4f} against mlp {mlp:.4f}; "
                  f"means over seeds {CRITERION_SEEDS}: clp {clp_mean:.4f}, mlp {mlp_mean:.4f}")
            if clp_mean < mlp_mean - CRITERION_MARGIN:
                errors.append(
                    f"h={h}: criterion 9 fails: mean clp accuracy {clp_mean:.4f} is below "
                    f"mean mlp {mlp_mean:.4f} - {CRITERION_MARGIN} over seeds {CRITERION_SEEDS}"
                )
        return errors


class InspectSyn2:
    name = "inspect-syn2"
    min_units = 2

    def __init__(self, seed: int, size: str, work: Path):
        self.seed = seed
        self.scale = SIZES[size]["inspect_scale"]
        self.work = work
        self.dataset_dir = work / "syn2"
        self.units_run = 0

    def setup(self) -> None:
        spec = synth.preset_spec("syn2", 0.5, self.seed, self.scale)
        self.graph, manifest = _generate(spec)
        graph_io.save_graph(self.graph, self.dataset_dir, extra_manifest=manifest)
        split = graph_io.make_splits(self.graph, "medium", PIPELINE_SEED, 1)[0]
        self.test_count = split.test.size

    def run_unit(self) -> Unit:
        unit = Unit(attempted=1)
        self.units_run += 1
        out = self.work / f"out{self.units_run}"
        argv = ["inspect", "--dataset", str(self.dataset_dir), "--scheme", "medium",
                "--seeds", str(PIPELINE_SEED), "--out", str(out)]
        code, text, seconds = _cli(argv)
        if code != 0:
            unit.errors.append(f"clprop inspect exited {code}")
            return unit
        unit.call_times.append(seconds)
        histogram, buckets = _parse_inspect(text)
        counts = tuple(count for count, _ in buckets)
        with open(out / "bucket_accuracy.csv") as fh:
            if tuple(int(r["count"]) for r in csv.DictReader(fh)) != counts:
                unit.errors.append("bucket_accuracy.csv counts differ from the printed table")
        hits = 0
        for count, acc in buckets:
            if acc is not None:
                _check_fraction(unit, "bucket accuracy", acc)
                hits += round(acc * count)
        if sum(histogram) != self.graph.node_count:
            unit.errors.append(
                f"h_v histogram sums to {sum(histogram)}, not {self.graph.node_count} nodes"
            )
        if sum(counts) != self.test_count:
            unit.errors.append(
                f"bucket counts sum to {sum(counts)}, not {self.test_count} test nodes"
            )
        unit.fingerprint = (histogram, counts)
        if not unit.errors:
            unit.quality = {"acc": hits / self.test_count, "mlp_acc": hits / self.test_count}
        return unit

    def check(self, units: list[Unit]) -> list[str]:
        return _same_outputs(self.name, units)


def _parse_inspect(text: str):
    """The h_v histogram counts and the (count, accuracy) bucket rows that
    ``clprop inspect`` prints.  Accuracies are read from the printed table:
    bucket_accuracy.csv writes them with ``repr`` of a numpy scalar."""

    def block(header):
        lines = text.splitlines()
        start = lines.index(header) + 1
        end = start
        while end < len(lines) and lines[end].startswith("  "):
            end += 1
        return [line.rsplit(":", 1)[1].strip() for line in lines[start:end]]

    histogram = tuple(int(v) for v in block("h_v histogram (level: nodes):"))
    buckets = []
    for row in block("per-bucket accuracy (bucket, count, accuracy):"):
        count, acc = row.split(" nodes, ")
        buckets.append((int(count), None if acc == "no data" else float(acc)))
    return histogram, buckets


WORKLOADS = {w.name: w for w in (HSweep, InspectSyn2)}


# -- probes of the traced run -------------------------------------------------


def _clp_name(args, kwargs) -> str:
    config = args[2] if len(args) > 2 else kwargs["config"]
    return "propagation.clp_norm" if config.message_normalization else "propagation.clp_raw"


def _after_clp(span, args, kwargs, result) -> None:
    awf = args[0] if args else kwargs["awf"]
    config = args[2] if len(args) > 2 else kwargs["config"]
    log = result[1]
    span.attrs.update(
        iterations=len(log),
        arcs=int(awf.arcs.shape[0]),
        classes=int(awf.num_classes),
        budget=len(log) >= config.max_iters and log[-1].residual >= config.tol,
    )


def _after_train(span, args, kwargs, result) -> None:
    span.attrs["epochs"] = len(result[1])


def _after_load(span, args, kwargs, result) -> None:
    directory = Path(args[0] if args else kwargs["dataset_dir"])
    span.attrs["bytes"] = sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


PROBES = (
    Probe("clprop.cli", "main", "cli.main"),
    Probe("clprop.cli", "run_pipeline", "pipeline.run"),
    Probe("clprop.cli", "inspect_dataset", "pipeline.inspect"),
    Probe("clprop.pipeline", "write_report", "pipeline.write_report"),
    Probe("clprop.synth", "generate", "synth.generate"),
    Probe("clprop.graph", "save_graph", "graph.save"),
    Probe("clprop.pipeline", "load_dataset", "graph.load", _after_load),
    Probe("clprop.pipeline", "train", "mlp.train", _after_train),
    Probe("clprop.pipeline", "estimate_compatibility", "compatibility.estimate"),
    Probe("clprop.pipeline", "edge_weights", "propagation.edge_weights"),
    Probe("clprop.pipeline", "convergence_check", "propagation.certify"),
    Probe("clprop.propagation", "spectral_radius", "propagation.power_iter"),
    Probe("clprop.pipeline", "propagate_clp", _clp_name, _after_clp),
    Probe("clprop.pipeline", "propagate_clp_star", "propagation.clp_star"),
    Probe("clprop.pipeline", "propagate_lp", "propagation.lp"),
    Probe("clprop.metrics", "local_homophily_histogram", "metrics.hv_histogram"),
    Probe("clprop.metrics", "bucket_accuracy", "metrics.bucket_accuracy"),
)
