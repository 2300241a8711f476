"""End-to-end experiment orchestration: load or generate a dataset, split,
train the base predictor, estimate compatibility, propagate, and report.

Per run seed the same trained predictor backs every method, so accuracy
differences isolate the propagation step.  :data:`METHODS` is the one table
of the methods.  Candidate propagation settings (``alpha_grid`` x
``teleport_source`` x ``message_normalization``, the config fields the method
reads) are selected by validation accuracy, and only the chosen one is
certified; reports are plain CSV with a JSON header carrying the only timestamp.

Every entry point takes its settings from one :class:`ExperimentConfig`, whose
JSON mirror gives each field as a top-level key (``mlp`` as a nested object),
and writes its files to ``config.output_dir`` when that is set (nothing otherwise).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import numbers
import os
import warnings
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import metrics
from .compatibility import Beliefs, estimate_compatibility, prior_beliefs
from .graph import SPLIT_RATIOS, Graph, load_dataset, make_splits, one_hot
from .mlp import TrainConfig, init_mlp, params_checksum, predict, save_params, train
from .propagation import (
    DivergenceError,
    PropagationConfig,
    convergence_check,
    edge_weights,
    lp_weights,
    propagate_clp,
    sender_weights,
)
from .synth import UNDIRECTED_ONLY, SyntheticSpec, generate, preset_spec, snap_h_fraction

DEFAULT_ALPHA_GRID = [round(0.1 * i, 1) for i in range(1, 10)]

# method (config spelling) -> its `clprop run --method` spelling and the propagation
# settings it reads, as ExperimentConfig fields; a new method is a row plus its weights in _run_seed
Method = NamedTuple("Method", [("cli_name", str), ("reads", tuple)])
_CLP_READS = ("alpha_grid", "message_normalization", "teleport_source")
METHODS = {"mlp_only": Method("mlp", ()), "lp": Method("lp", ("alpha_grid",)),
           "clp": Method("clp", _CLP_READS), "clp_star": Method("clp-star", _CLP_READS)}

# The choices of the candidate grid, spelled as in config files, flags and
# report.csv; "auto" evaluates each tuple's choices in this order.
NORMALIZATIONS = ("off", "on")
TELEPORTS = ("base", "prior")

# CLP* and LP run propagate_clp on their sender-only weights.  The traced
# benchmark run probes these names (propagation.clp_star, propagation.lp) to
# tell the calls apart; _run_seed reads them at call time, so each must stay a
# second binding of the function, not a wrapper.
propagate_clp_star = propagate_lp = propagate_clp


_KIND_WORDS = {numbers.Integral: "an integer", numbers.Real: "a number", str: "a string",
               bool: "true or false"}


def _check_kind(name: str, value, kind) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is of ``kind``; a bool
    is only ever of kind bool."""
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {_KIND_WORDS[kind]}, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str | dict
    seeds: tuple[int, ...]
    scheme: str = "medium"
    method: str = "clp"
    alpha_grid: tuple[float, ...] = tuple(DEFAULT_ALPHA_GRID)
    # "on"/"off" and "base" (the MLP's prediction)/"prior"; "auto" selects by validation
    message_normalization: str = "auto"
    teleport_source: str = "auto"
    mlp: TrainConfig = field(default_factory=TrainConfig)
    output_dir: str | None = None
    directed: bool = False

    def __post_init__(self):
        seeds = list(self.seeds)
        if not seeds or not all(isinstance(s, numbers.Integral) and not isinstance(s, bool)
                                and s >= 0 for s in seeds) or len(set(seeds)) < len(seeds):
            raise ValueError(f"seeds must be one or more distinct non-negative integers, "
                             f"got {seeds}")
        _check_kind("directed", self.directed, bool)
        if self.output_dir is not None:
            _check_kind("output_dir", self.output_dir, str)
        for alpha in self.alpha_grid:
            _check_kind("alpha_grid value", alpha, numbers.Real)
        if not isinstance(self.scheme, str) or self.scheme not in SPLIT_RATIOS:
            raise ValueError(
                f"unknown split scheme {self.scheme!r} (choose from {list(SPLIT_RATIOS)})")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r} (choose from {tuple(METHODS)})")
        if not self.alpha_grid or not all(0.0 < a < 1.0 for a in self.alpha_grid):
            raise ValueError("alpha grid values must lie strictly inside (0, 1)")
        if self.message_normalization not in ("auto", *NORMALIZATIONS):
            raise ValueError(f"message normalization must be on, off or auto, "
                             f"got {self.message_normalization!r}")
        if self.teleport_source not in ("auto", *TELEPORTS):
            raise ValueError(f"teleport source must be base, prior or auto, "
                             f"got {self.teleport_source!r}")


def _from_fields(cls, raw, section: str):
    """``cls(**raw)`` for an object ``raw``, naming every key that ``cls`` does not have."""
    if not isinstance(raw, dict):
        raise ValueError(f"{section} config must be an object, got {raw!r}")
    unknown = sorted(set(raw) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ValueError(f"unknown {section} config keys: {', '.join(unknown)}")
    return cls(**raw)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from the JSON mirror: the fields as top-level keys, with
    ``mlp`` a nested object.

    Unknown or missing keys and values of the wrong type raise ValueError.
    """
    if not isinstance(raw, dict):  # dict() would also take a list of pairs
        raise ValueError(f"top-level config must be an object, got {raw!r}")
    try:
        data = dict(raw)
        if "mlp" in data:
            data["mlp"] = _from_fields(TrainConfig, data["mlp"], "mlp")
        for key in ("seeds", "alpha_grid"):
            if key in data:
                data[key] = tuple(data[key])
        return _from_fields(ExperimentConfig, data, "top-level")
    except TypeError as exc:
        raise ValueError(f"malformed config: {exc}") from None


def resolve_dataset(dataset, directed: bool = False) -> Graph:
    """A path loads the TSV trio; a dict generates a synthetic benchmark.

    Synthetic dicts carry either a named preset ("preset", "scale") or raw
    sizes ("num_nodes", "num_classes", "target_avg_degree"), plus "h" and
    "seed".  Synthetic graphs are undirected, so ``directed`` is an error there.
    """
    if isinstance(dataset, (str, Path)):
        return load_dataset(dataset, directed=True if directed else None)
    spec = synthetic_spec_from_dict(dataset)
    if directed:
        raise ValueError(UNDIRECTED_ONLY)
    graph, _ = generate(spec)
    return graph


# required and optional keys of the two synthetic dataset forms
_PRESET_KEYS = ({"preset"}, {"scale", "h", "seed"})
_SIZE_KEYS = ({"num_nodes", "num_classes", "target_avg_degree"}, {"h", "seed"})
# the kind of each dataset value that is not an integer
_DATASET_KINDS = {"preset": str, "scale": numbers.Real, "h": numbers.Real,
                  "target_avg_degree": numbers.Real}


def synthetic_spec_from_dict(dataset: dict) -> SyntheticSpec:
    """The spec of a synthetic dataset object; a key outside its form, a
    missing size key, a value of the wrong type or a dataset that is not an
    object raises ValueError."""
    if not isinstance(dataset, dict):
        raise ValueError(f"dataset must be a directory path or an object, got {dataset!r}")
    required, optional = _PRESET_KEYS if "preset" in dataset else _SIZE_KEYS
    for problem, keys in (("unknown", set(dataset) - required - optional),
                          ("missing", required - set(dataset))):
        if keys:
            raise ValueError(f"{problem} dataset config keys: {', '.join(sorted(keys))}")
    for key, value in dataset.items():
        _check_kind(f"dataset {key}", value, _DATASET_KINDS.get(key, numbers.Integral))
    h, seed = snap_h_fraction(dataset.get("h", 0.5)), dataset.get("seed", 0)
    if "preset" in dataset:
        return preset_spec(dataset["preset"], h, seed, dataset.get("scale", 1.0))
    return SyntheticSpec(**{key: dataset[key] for key in required}, p_in_fraction=h, seed=seed)


def standardize_features(features: np.ndarray) -> np.ndarray:
    """Column z-scores over all nodes; constant columns become zero."""
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return (features - mean) / std


@dataclass
class SeedResult:
    seed: int
    test_accuracy: float
    val_accuracy: float
    chosen_alpha: float | None = None
    chosen_normalization: str | None = None
    chosen_teleport: str | None = None
    compat_distance: float | None = None
    convergence: str = ""
    checkpoint: str = ""
    fallback: bool = False
    candidate_log: list = field(default_factory=list, repr=False)
    training_log: list = field(default_factory=list, repr=False)


@dataclass
class RunReport:
    method: str
    metric: str
    per_seed: list[SeedResult]

    @property
    def mean(self) -> float:
        return float(np.mean([r.test_accuracy for r in self.per_seed]))

    @property
    def std(self) -> float:
        return float(np.std([r.test_accuracy for r in self.per_seed]))


def _convergence_summary(verdicts) -> str:
    counts = Counter(v.status for v in verdicts)
    return ";".join(f"{status}:{counts[status]}" for status in sorted(counts))


def _train_base_predictor(graph: Graph, split, config: ExperimentConfig):
    features = standardize_features(graph.features)
    work = dataclasses.replace(graph, features=features)
    params0 = init_mlp(
        feature_dim=work.feature_dim,
        hidden_dim=config.mlp.hidden_dim,
        num_hidden_layers=config.mlp.num_hidden_layers,
        num_classes=work.num_classes,
        seed=split.seed,
    )
    params, log = train(params0, work, split, config.mlp)
    return params, predict(params, features), log


def train_base_predictors(config: ExperimentConfig) -> list[tuple[int, float, int, float]]:
    """Train the base predictor of every seed; with an output directory, write
    seed<s>/training_log.csv and seed<s>/checkpoint.bin.  Returns ``(seed, best
    validation accuracy, epochs, test accuracy)`` per seed."""
    graph = resolve_dataset(config.dataset, config.directed)
    rows = []
    for seed in config.seeds:
        split = make_splits(graph, config.scheme, seed, 1)[0]
        params, d_hat, log = _train_base_predictor(graph, split, config)
        if config.output_dir:
            seed_dir = Path(config.output_dir) / f"seed{seed}"
            _write_csv(seed_dir / "training_log.csv", "epoch,train_loss,val_acc",
                       [(r.epoch, r.train_loss, r.val_acc) for r in log])
            save_params(params, seed_dir / "checkpoint.bin")
        rows.append((seed, max(r.val_acc for r in log), len(log),
                     metrics.accuracy(d_hat, graph.labels, split.test)))
    return rows


def _select(options, run, labels, validation):
    """Run every ``(alpha, teleport, normalization)`` option through ``run``,
    which returns the beliefs and the iteration log.

    Returns the first option with the best validation accuracy as
    ``(val, option, beliefs)`` (None when every option diverged) and the
    candidate log of ``(alpha, teleport, normalization, val, status)``.  The
    status is "converged", "diverged" or "budget": the last residual is at or
    above the default tolerance of :class:`PropagationConfig`, at which every
    candidate runs, so all ``max_iters`` steps ran.  Budget stops still compete.
    """
    best = None
    candidates = []
    for option in options:
        try:
            beliefs, log = run(*option)
        except DivergenceError:
            candidates.append((*option, None, "diverged"))
            continue
        val = metrics.accuracy(beliefs, labels, validation)
        status = "converged" if log[-1].residual < PropagationConfig.tol else "budget"
        candidates.append((*option, val, status))
        if best is None or val > best[0]:
            best = (val, option, beliefs)
    return best, candidates


def _run_seed(graph: Graph, seed: int, config: ExperimentConfig) -> SeedResult:
    split = make_splits(graph, config.scheme, seed, 1)[0]
    labels = graph.labels
    y_hot = one_hot(labels, graph.num_classes)

    if config.method == "lp":
        # no base predictor: both accuracies come from the chosen candidate
        base = SeedResult(seed, math.nan, math.nan,
                          convergence="certified: symmetric normalized adjacency")
        teleport = np.zeros_like(y_hot)
        teleport[split.train] = y_hot[split.train]
        teleports = {None: Beliefs(teleport, "propagated")}
        weights, propagate = lp_weights(graph), propagate_lp
    else:
        params, d_hat, training_log = _train_base_predictor(graph, split, config)
        base = SeedResult(
            seed,
            metrics.accuracy(d_hat, labels, split.test),
            metrics.accuracy(d_hat, labels, split.validation),
            checkpoint=params_checksum(params),
            training_log=training_log,
        )
        if config.method == "mlp_only":
            return base

        b0 = prior_beliefs(d_hat, y_hot, split.train)
        h_hat = estimate_compatibility(graph, b0, y_hot, split.train)
        base.compat_distance = metrics.compat_distance(metrics.true_compatibility(graph), h_hat)
        teleports = {"base": d_hat, "prior": b0}
        if config.method == "clp":
            weights, propagate = edge_weights(graph, b0, h_hat), propagate_clp
        else:
            weights, propagate = sender_weights(graph, b0, h_hat), propagate_clp_star

    # the (alpha, teleport, normalization) grid; a setting the method does not read is None
    name, norm = config.teleport_source, config.message_normalization
    grid = {"alpha_grid": config.alpha_grid,
            "teleport_source": TELEPORTS if name == "auto" else (name,),
            "message_normalization": NORMALIZATIONS if norm == "auto" else (norm,)}
    reads = METHODS[config.method].reads
    options = itertools.product(*(grid[key] if key in reads else (None,) for key in grid))

    def run(alpha, teleport, norm):
        pcfg = PropagationConfig(alpha, message_normalization=norm == "on")
        return propagate(weights, teleports[teleport], pcfg)

    best, base.candidate_log = _select(options, run, labels, split.validation)
    if best is None:
        if config.method == "lp":
            raise DivergenceError(f"seed {seed}: every label propagation candidate diverged")
        warnings.warn(
            f"seed {seed}: every propagation candidate diverged; "
            "falling back to the base predictor"
        )
        base.fallback = True
        return base

    val, (alpha, teleport, norm), beliefs = best
    if config.method != "lp":
        base.convergence = _convergence_summary(convergence_check(weights, alpha))
    elif unreached := int((beliefs.values.sum(axis=1) <= 0).sum()):
        # a zero row takes class 0 under argmax, as a uniform one would
        warnings.warn(f"seed {seed}: {unreached} nodes are unreachable from the training set")
    return dataclasses.replace(
        base,
        test_accuracy=metrics.accuracy(beliefs, labels, split.test),
        val_accuracy=val,
        chosen_alpha=alpha,
        chosen_normalization=norm,
        chosen_teleport=teleport,
    )


def run_pipeline(config: ExperimentConfig, graph: Graph | None = None) -> RunReport:
    """Run every seed of the configured experiment and aggregate the metric."""
    if graph is None:
        graph = resolve_dataset(config.dataset, config.directed)
    per_seed = [_run_seed(graph, seed, config) for seed in config.seeds]
    report = RunReport(config.method, "accuracy", per_seed)
    if config.output_dir:
        write_report(report, config)
    return report


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):  # float() first: repr(np.float64) is "np.float64(...)"
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: str, rows) -> None:
    """``header`` and one line per row of cells, each cell through :func:`_fmt`;
    creates the parent directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [header] + [",".join(_fmt(cell) for cell in row) for row in rows]
    _atomic_write(path, "\n".join(lines) + "\n")


def _mlp_facts(log) -> dict:
    """Epochs run and the first epoch that reached the best validation
    accuracy (the snapshot ``train`` returns); null without a training log."""
    if not log:
        return {"mlp_epochs": None, "mlp_best_epoch": None}
    best = max(log, key=lambda rec: rec.val_acc)  # max keeps the first maximum
    return {"mlp_epochs": len(log), "mlp_best_epoch": best.epoch}


def write_report(report: RunReport, config: ExperimentConfig) -> None:
    """report.csv + summary.csv (both deterministic) and run.json (timestamped,
    with the config) in ``config.output_dir``."""
    out = Path(config.output_dir)
    _write_csv(
        out / "report.csv",
        "seed,test_accuracy,val_accuracy,chosen_alpha,chosen_normalization,"
        "chosen_teleport,compat_distance,convergence,checkpoint,fallback",
        [
            (
                r.seed,
                r.test_accuracy,
                r.val_accuracy,
                r.chosen_alpha,
                r.chosen_normalization,
                r.chosen_teleport,
                r.compat_distance,
                r.convergence,
                r.checkpoint,
                "yes" if r.fallback else "no",
            )
            for r in report.per_seed
        ],
    )
    _write_csv(
        out / "summary.csv",
        "method,metric,n_seeds,mean,std",
        [(report.method, report.metric, len(report.per_seed), report.mean, report.std)],
    )
    header = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "method": report.method,
        "metric": report.metric,
        "aggregate": {"mean": report.mean, "std": report.std},
        "per_seed": [{"seed": r.seed, **_mlp_facts(r.training_log)} for r in report.per_seed],
        "config": json.loads(json.dumps(dataclasses.asdict(config), default=str)),
    }
    _atomic_write(out / "run.json", json.dumps(header, indent=2, sort_keys=True) + "\n")


def sweep_homophily(config: ExperimentConfig, h_grid, methods) -> list[dict]:
    """Paired method comparison across homophily levels of a synthetic family."""
    if not isinstance(config.dataset, dict):
        raise ValueError("the homophily sweep requires a synthetic dataset config")
    rows = []
    for h in h_grid:
        dataset = {**config.dataset, "h": float(h)}
        graph = resolve_dataset(dataset, config.directed)
        for method in methods:
            cfg = dataclasses.replace(config, dataset=dataset, method=method, output_dir=None)
            report = run_pipeline(cfg, graph=graph)
            rows.append({"h": float(h), "method": method, "mean": report.mean,
                         "std": report.std, "n_seeds": len(report.per_seed)})
    if config.output_dir:
        _write_csv(Path(config.output_dir) / "sweep.csv", "h,method,mean,std,n_seeds",
                   [r.values() for r in rows])
    return rows


def report_compat_quality(config: ExperimentConfig) -> list[dict]:
    """Compatibility-estimate distance and accuracy per labelling scheme, in
    the order of ``SPLIT_RATIOS``."""
    graph = resolve_dataset(config.dataset, config.directed)
    rows = []
    for scheme in SPLIT_RATIOS:
        cfg = dataclasses.replace(config, scheme=scheme, method="clp", output_dir=None)
        report = run_pipeline(cfg, graph=graph)
        dists = np.array([r.compat_distance for r in report.per_seed], dtype=np.float64)
        rows.append({"scheme": scheme, "label_rate": SPLIT_RATIOS[scheme][0],
                     "mean_dist": float(dists.mean()), "std_dist": float(dists.std()),
                     "mean_acc": report.mean})
    if config.output_dir:
        _write_csv(Path(config.output_dir) / "compat_quality.csv",
                   "scheme,label_rate,mean_dist,std_dist,mean_acc", [r.values() for r in rows])
    return rows


@dataclass
class InspectReport:
    edge_homophily: float | None  # None on a graph with no arcs
    node_homophily: float | None
    true_compatibility: np.ndarray
    degree_stats: dict
    hv_histogram: list[tuple[str, int]]
    bucket_table: tuple[metrics.BucketRow, ...] | None = None

    def render(self) -> str:
        lines = [
            f"{name} homophily: " + ("undefined" if value is None else f"{value:.4f}")
            for name, value in (("edge", self.edge_homophily), ("node", self.node_homophily))
        ]
        lines.append("true compatibility matrix:")
        for row in self.true_compatibility:
            lines.append("  " + " ".join(f"{x:.4f}" for x in row))
        stats = self.degree_stats
        lines.append(
            "degree: min {min} / median {median:.1f} / mean {mean:.3f} / max {max}"
            " (isolated: {isolated})".format(**stats)
        )
        lines.append("h_v histogram (level: nodes):")
        for level, count in self.hv_histogram:
            lines.append(f"  {level}: {count}")
        if self.bucket_table is not None:
            lines.append("per-bucket accuracy (bucket, count, accuracy):")
            for row in self.bucket_table:
                bucket = "undefined" if row.bucket is None else f"{row.bucket:.1f}"
                acc = "no data" if row.accuracy is None else f"{row.accuracy:.4f}"
                lines.append(f"  {bucket}: {row.count} nodes, {acc}")
        return "\n".join(lines)


def inspect_dataset(graph: Graph, config: ExperimentConfig | None = None) -> InspectReport:
    """Homophily diagnostics; adds the per-bucket accuracy table when a
    pipeline config supplies a trainable base predictor, and writes it to
    bucket_accuracy.csv when the config names an output directory."""
    degrees = graph.degrees()
    stats = {
        "min": int(degrees.min()),
        "median": float(np.median(degrees)),
        "mean": float(degrees.mean()),
        "max": int(degrees.max()),
        "isolated": int((degrees == 0).sum()),
    }
    counts, undefined = metrics.local_homophily_histogram(graph)
    histogram = [(repr(metrics.BUCKET_LEVELS[i]), int(counts[i])) for i in range(11)]
    histogram.append(("undefined", undefined))
    bucket_table = None
    if config is not None:
        seed = config.seeds[0]
        split = make_splits(graph, config.scheme, seed, 1)[0]
        _, d_hat, _ = _train_base_predictor(graph, split, config)
        bucket_table = metrics.bucket_accuracy(d_hat, graph, split.test)
        if config.output_dir:
            _write_csv(
                Path(config.output_dir) / "bucket_accuracy.csv",
                "bucket,count,accuracy",
                [("undefined" if r.bucket is None else r.bucket, r.count, r.accuracy)
                 for r in bucket_table],
            )
    return InspectReport(
        edge_homophily=metrics.edge_homophily(graph) if graph.arc_count else None,
        node_homophily=metrics.node_homophily(graph) if graph.arc_count else None,
        true_compatibility=metrics.true_compatibility(graph).values,
        degree_stats=stats,
        hv_histogram=histogram,
        bucket_table=bucket_table,
    )
