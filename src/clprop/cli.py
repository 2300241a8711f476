"""Command-line interface.

Subcommands: synth, inspect, train, run, sweep, compat-quality.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .graph import GraphFormatError, make_splits, save_graph
from .mlp import TrainingDivergedError, save_params, training_log_to_csv
from .pipeline import (
    NORMALIZATION_CHOICES,
    TELEPORT_CHOICES,
    ExperimentConfig,
    inspect_dataset,
    load_config,
    report_compat_quality,
    resolve_dataset,
    run_pipeline,
    sweep_homophily,
)
from .propagation import DivergenceError, SingularSystemError
from .synth import UNDIRECTED_ONLY, generate, preset_spec, snap_h_fraction

_METHOD_NAMES = {"mlp": "mlp_only", "lp": "lp", "clp": "clp", "clp-star": "clp_star"}
_H_LEVELS = [round(0.1 * i, 1) for i in range(11)]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; the contract wants 1
        raise _UsageError(message)


def _add_common_flags(p: _Parser) -> None:
    p.add_argument("--config", help="JSON experiment config; flags override its fields")
    p.add_argument("--dataset", help="dataset directory (edges/features/labels TSV trio)")
    p.add_argument("--preset", choices=["syn1", "syn2", "syn3"], help="synthetic benchmark family")
    p.add_argument("--scale", type=float, default=1.0, help="node-count factor for presets")
    p.add_argument("--scheme", choices=["sparse", "medium", "dense"])
    p.add_argument("--seeds", help="comma-separated integer seeds")
    p.add_argument("--method", help="mlp|lp|clp|clp-star (comma list for sweep)")
    p.add_argument("--alpha", help="comma-separated alpha grid, each in (0,1)")
    p.add_argument("--directed", action="store_true", help="keep arcs as-is (no symmetrization)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--normalize-messages", choices=list(NORMALIZATION_CHOICES), default=None)
    p.add_argument("--teleport", choices=list(TELEPORT_CHOICES), default=None)


def _build_parser() -> _Parser:
    parser = _Parser(prog="clprop", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("synth", "generate a synthetic homophily-sweep benchmark"),
        ("inspect", "print homophily/compatibility diagnostics for a dataset"),
        ("train", "train the base predictor and save checkpoints"),
        ("run", "run the full pipeline and report test accuracy"),
        ("sweep", "compare methods across the homophily grid"),
        ("compat-quality", "compatibility estimate quality per labelling scheme"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p)
    return parser


def _parse_seeds(text: str | None):
    if not text:
        return None
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise _UsageError(f"--seeds expects comma-separated integers, got {text!r}") from None


def _parse_alpha(text: str | None):
    if not text:
        return None
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise _UsageError(f"--alpha expects comma-separated floats, got {text!r}") from None


def _parse_methods(text: str | None, allow_many: bool):
    if not text:
        return None
    names = text.split(",") if allow_many else [text]
    for name in names:
        if name not in _METHOD_NAMES:
            raise _UsageError(f"unknown method {name!r} (choose from {sorted(_METHOD_NAMES)})")
    methods = [_METHOD_NAMES[name] for name in names]
    return methods if allow_many else methods[0]


def _dataset_from_args(args, default_h: float = 0.5):
    if args.dataset and args.preset:
        raise _UsageError("--dataset and --preset are mutually exclusive")
    if args.dataset:
        return args.dataset
    if args.preset:
        seeds = _parse_seeds(args.seeds) or (0,)
        return {"preset": args.preset, "scale": args.scale, "h": default_h, "seed": seeds[0]}
    return None


def _config_from_args(args) -> ExperimentConfig:
    if args.config:
        config = load_config(args.config)
    else:
        dataset = _dataset_from_args(args)
        if dataset is None:
            raise _UsageError("provide --dataset, --preset, or --config")
        config = ExperimentConfig(dataset=dataset, seeds=(0,))
    updates = {}
    dataset = _dataset_from_args(args)
    if dataset is not None:
        updates["dataset"] = dataset
    if args.scheme:
        updates["scheme"] = args.scheme
    seeds = _parse_seeds(args.seeds)
    if seeds:
        updates["seeds"] = seeds
    method = _parse_methods(args.method, allow_many=False)
    if method:
        updates["method"] = method
    alpha = _parse_alpha(args.alpha)
    if alpha:
        updates["alpha_grid"] = alpha
    if args.out:
        updates["output_dir"] = args.out
    if args.directed:
        updates["directed"] = True
    prop_updates = {}
    if args.normalize_messages is not None:
        prop_updates["message_normalization"] = NORMALIZATION_CHOICES[args.normalize_messages]
    if args.teleport is not None:
        prop_updates["teleport_source"] = TELEPORT_CHOICES[args.teleport]
    if prop_updates:
        updates["propagation"] = dataclasses.replace(config.propagation, **prop_updates)
    return dataclasses.replace(config, **updates) if updates else config


def _cmd_synth(args) -> int:
    if not args.preset:
        raise _UsageError("synth requires --preset")
    if not args.out:
        raise _UsageError("synth requires --out")
    if args.directed:
        raise ValueError(UNDIRECTED_ONLY)
    seeds = _parse_seeds(args.seeds) or (0,)
    out = Path(args.out)
    for idx, level in enumerate(_H_LEVELS):
        spec = preset_spec(args.preset, snap_h_fraction(level), seeds[0], args.scale)
        graph, manifest = generate(spec)
        target = out / f"h{idx:02d}"
        save_graph(graph, target, extra_manifest=manifest)
        realized = manifest["realized"]
        print(
            f"{target}: n={graph.node_count} arcs={graph.arc_count} "
            f"h={realized['edge_homophily']:.3f} d_avg={realized['avg_degree']:.2f}"
        )
    return 0


def _cmd_inspect(args) -> int:
    if not (args.dataset or args.preset):
        raise _UsageError("inspect requires --dataset or --preset")
    graph = resolve_dataset(_dataset_from_args(args), args.directed)
    config = None
    if args.scheme:
        config = _config_from_args(args)
    report = inspect_dataset(graph, config)
    print(report.render())
    if args.out and report.bucket_table is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        report.bucket_table.to_csv(out / "bucket_accuracy.csv")
    return 0


def _cmd_train(args) -> int:
    config = _config_from_args(args)
    if not config.output_dir:
        raise _UsageError("train requires --out")
    graph = resolve_dataset(config.dataset, config.directed)
    from .pipeline import _train_base_predictor

    out = Path(config.output_dir)
    for seed in config.seeds:
        split = make_splits(graph, config.scheme, seed, 1)[0]
        params, d_hat, log = _train_base_predictor(graph, split, config)
        seed_dir = out / f"seed{seed}"
        seed_dir.mkdir(parents=True, exist_ok=True)
        save_params(params, seed_dir / "checkpoint.bin")
        training_log_to_csv(log, seed_dir / "training_log.csv")
        from .metrics import accuracy

        print(
            f"seed {seed}: best val acc {max(r.val_acc for r in log):.4f} "
            f"({len(log)} epochs, test acc {accuracy(d_hat, graph.labels, split.test):.4f})"
        )
    return 0


def _cmd_run(args) -> int:
    config = _config_from_args(args)
    report = run_pipeline(config)
    for r in report.per_seed:
        extras = []
        if r.chosen_alpha is not None:
            extras.append(f"alpha={r.chosen_alpha}")
        if r.fallback:
            extras.append("fallback=mlp")
        suffix = f" ({', '.join(extras)})" if extras else ""
        print(f"seed {r.seed}: test acc {r.test_accuracy:.4f}{suffix}")
    print(f"{report.method}: {report.mean:.4f} +/- {report.std:.4f} over {len(report.per_seed)} seeds")
    return 0


def _cmd_sweep(args) -> int:
    methods = _parse_methods(args.method, allow_many=True) or ["mlp_only", "clp"]
    config = _config_from_args(args)
    if not isinstance(config.dataset, dict):
        raise _UsageError("sweep requires a synthetic dataset (--preset or config)")
    rows = sweep_homophily(config, _H_LEVELS, methods, out_dir=config.output_dir)
    for row in rows:
        print(
            f"h={row['h']:.1f} {row['method']}: {row['mean']:.4f} +/- {row['std']:.4f}"
        )
    return 0


def _cmd_compat_quality(args) -> int:
    config = _config_from_args(args)
    rows = report_compat_quality(config, out_dir=config.output_dir)
    for row in rows:
        print(
            f"{row['scheme']} (label rate {row['label_rate']:.2f}): "
            f"dist {row['mean_dist']:.4f} +/- {row['std_dist']:.4f}, acc {row['mean_acc']:.4f}"
        )
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "inspect": _cmd_inspect,
    "train": _cmd_train,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "compat-quality": _cmd_compat_quality,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (GraphFormatError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (DivergenceError, SingularSystemError, TrainingDivergedError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
