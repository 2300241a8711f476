"""Command-line interface.

Subcommands: synth, inspect, train, run, sweep, compat-quality.  One table
lists the flags of each; a flag is on a subcommand iff the subcommand reads
it, and any other flag is a usage error, as is a propagation setting, given
by flag or by config-file key, that no method of ``run`` or ``sweep`` reads.
The methods, their names and the settings each reads are ``pipeline.METHODS``.
A flag that overrides an ``ExperimentConfig`` field is stored under the
field's name, which is also the field's top-level key in a config file.

A handler builds an ``ExperimentConfig`` from its flags, makes one pipeline
call with it and prints the result; ``inspect`` resolves the graph it
inspects first, and ``synth``, which writes a dataset tree, takes no config.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .graph import SPLIT_RATIOS, save_graph
from .mlp import TrainingDivergedError
from .pipeline import (
    METHODS,
    NORMALIZATIONS,
    TELEPORTS,
    ExperimentConfig,
    config_from_dict,
    inspect_dataset,
    report_compat_quality,
    resolve_dataset,
    run_pipeline,
    sweep_homophily,
    train_base_predictors,
)
from .propagation import DivergenceError
from .synth import H_LEVELS, PRESETS, generate, preset_spec, snap_h_fraction

_METHOD_NAMES = {row.cli_name: method for method, row in METHODS.items()}
_SWEEP_METHODS = ("mlp_only", "clp")  # sweep's default --method list


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; the contract wants 1
        raise _UsageError(message)


def _method(name: str) -> str:
    if name not in _METHOD_NAMES:
        choices = sorted(_METHOD_NAMES)
        raise argparse.ArgumentTypeError(f"unknown method {name!r} (choose from {choices})")
    return _METHOD_NAMES[name]


def _comma_list(convert, what: str):
    def parse(text: str) -> tuple:
        try:
            return tuple(convert(tok) for tok in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expects comma-separated {what}, got {text!r}") from None

    return parse


# argparse dest (an ExperimentConfig field's name where the flag overrides one)
# -> (option, argparse spec); "methods" is the list-valued --method of sweep
_FLAGS = {
    "config": ("--config", dict(help="JSON experiment config; flags override its fields")),
    "dataset": ("--dataset", dict(help="dataset directory (edges/features/labels TSV trio)")),
    "preset": ("--preset", dict(choices=list(PRESETS), help="synthetic benchmark family")),
    "scale": ("--scale", dict(type=float, help="node-count factor for --preset (default 1)")),
    "directed": ("--directed", dict(action="store_true", help="keep arcs as-is (no symmetrization)")),
    "seeds": ("--seeds", dict(type=_comma_list(int, "integers"), help="comma-separated integer seeds")),
    "output_dir": ("--out", dict(metavar="OUT", help="output directory")),
    "scheme": ("--scheme", dict(choices=list(SPLIT_RATIOS))),
    "method": ("--method", dict(type=_method, help="|".join(_METHOD_NAMES))),
    "methods": ("--method", dict(type=_comma_list(_method, "methods"),
                                 default=_SWEEP_METHODS, help="comma list (default "
                                 f"{','.join(METHODS[m].cli_name for m in _SWEEP_METHODS)})")),
    "alpha_grid": ("--alpha", dict(type=_comma_list(float, "floats"), metavar="ALPHA",
                                   help="comma-separated alpha grid, each in (0,1)")),
    "message_normalization": ("--normalize-messages", dict(choices=[*NORMALIZATIONS, "auto"])),
    "teleport_source": ("--teleport", dict(choices=[*TELEPORTS, "auto"])),
}
_CONFIG_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def _preset_scale(scale: float | None) -> float:
    return 1.0 if scale is None else scale


def _dataset_from_args(flags: dict):
    if flags.get("dataset") and flags.get("preset"):
        raise _UsageError("--dataset and --preset are mutually exclusive")
    if flags.get("scale") is not None and not flags.get("preset"):
        raise _UsageError("--scale applies only with --preset")
    if flags.get("dataset"):
        return flags["dataset"]
    if flags.get("preset"):
        seeds = flags["seeds"] or (0,)
        return {"preset": flags["preset"], "scale": _preset_scale(flags["scale"]), "h": 0.5,
                "seed": seeds[0]}
    return None


def _config_from_args(args) -> tuple[ExperimentConfig, set[str]]:
    """The config from the flags and the config file, and the file's top-level keys."""
    flags = vars(args)  # holds only the flags of the subcommand that was run
    config, keys = None, set()
    if flags["config"]:
        raw = json.loads(Path(flags["config"]).read_text())
        config, keys = config_from_dict(raw), set(raw)
    dataset = _dataset_from_args(flags)
    if config is None:
        if dataset is None:
            raise _UsageError("provide --dataset, --preset, or --config")
        config = ExperimentConfig(dataset=dataset, seeds=(0,))
    updates = {key: value for key, value in flags.items() if key in _CONFIG_FIELDS and value}
    if dataset is not None:
        updates["dataset"] = dataset
    return dataclasses.replace(config, **updates), keys


def _check_settings_are_read(flags: dict, keys: set[str], methods) -> None:
    """A propagation setting, from a flag or from the config file's ``keys``,
    that none of ``methods`` reads is a usage error."""
    names = ",".join(METHODS[method].cli_name for method in methods)
    unread = {key for row in METHODS.values() for key in row.reads}
    unread -= {key for method in methods for key in METHODS[method].reads}
    for key, (option, _) in _FLAGS.items():
        if key in unread and flags.get(key):
            raise _UsageError(f"{option} is not read by method {names}")
        if key in unread & keys:
            raise _UsageError(f"the config's {key} is not read by method {names}")


def _cmd_synth(args) -> int:
    seeds = args.seeds or (0,)
    if len(seeds) > 1:
        raise _UsageError(f"synth takes one seed, got {len(seeds)}")
    out = Path(args.output_dir)
    for idx, level in enumerate(H_LEVELS):
        spec = preset_spec(args.preset, snap_h_fraction(level), seeds[0], _preset_scale(args.scale))
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
    config, keys = _config_from_args(args)
    if len(config.seeds) > 1:
        raise _UsageError(f"inspect takes one seed, got {len(config.seeds)}")
    # config.scheme has a default, so only the file's keys say whether it names one
    scheme = args.scheme or "scheme" in keys
    if config.output_dir and not scheme:
        raise _UsageError("inspect writes to an output directory (--out or the config's "
                          "output_dir) only the bucket table that --scheme (or the config's "
                          "scheme) trains")
    graph = resolve_dataset(config.dataset, config.directed)
    report = inspect_dataset(graph, config if scheme else None)
    print(report.render())
    return 0


def _cmd_train(args) -> int:
    config, _ = _config_from_args(args)
    if not config.output_dir:
        raise _UsageError("train requires --out")
    for seed, best_val, epochs, test_acc in train_base_predictors(config):
        print(f"seed {seed}: best val acc {best_val:.4f} "
              f"({epochs} epochs, test acc {test_acc:.4f})")
    return 0


def _cmd_run(args) -> int:
    config, keys = _config_from_args(args)
    _check_settings_are_read(vars(args), keys, [config.method])
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
    config, keys = _config_from_args(args)
    if not isinstance(config.dataset, dict):
        raise _UsageError("sweep requires a synthetic dataset (--preset or config)")
    if "method" in keys:  # sweep_homophily runs each method of --method instead
        raise _UsageError("sweep does not read the config's method; list the methods "
                          "with --method")
    _check_settings_are_read(vars(args), keys, args.methods)
    for row in sweep_homophily(config, H_LEVELS, args.methods):
        print(f"h={row['h']:.1f} {row['method']}: {row['mean']:.4f} +/- {row['std']:.4f}")
    return 0


def _cmd_compat_quality(args) -> int:
    config, _ = _config_from_args(args)
    rows = report_compat_quality(config)
    for row in rows:
        print(
            f"{row['scheme']} (label rate {row['label_rate']:.2f}): "
            f"dist {row['mean_dist']:.4f} +/- {row['std_dist']:.4f}, acc {row['mean_acc']:.4f}"
        )
    return 0


class _Subcommand(NamedTuple):
    help: str
    handler: Callable
    flags: tuple[str, ...]
    required: tuple[str, ...] = ()


# where the graph comes from, the seeds and the output directory
_DATA_FLAGS = ("config", "dataset", "preset", "scale", "directed", "seeds", "output_dir")
_PROPAGATION_FLAGS = ("alpha_grid", "message_normalization", "teleport_source")

_SUBCOMMANDS = {
    "synth": _Subcommand("generate a synthetic homophily-sweep benchmark", _cmd_synth,
                         ("preset", "scale", "seeds", "output_dir"),
                         required=("preset", "output_dir")),
    "inspect": _Subcommand("print homophily/compatibility diagnostics for a dataset",
                           _cmd_inspect, _DATA_FLAGS + ("scheme",)),
    # the MLP reads only features and labels, so train takes no --directed
    "train": _Subcommand("train the base predictor and save checkpoints", _cmd_train,
                         ("config", "dataset", "preset", "scale", "seeds", "output_dir",
                          "scheme")),
    "run": _Subcommand("run the full pipeline and report test accuracy", _cmd_run,
                       _DATA_FLAGS + ("scheme", "method") + _PROPAGATION_FLAGS),
    "sweep": _Subcommand("compare methods across the homophily grid", _cmd_sweep,
                         ("config", "preset", "scale", "seeds", "output_dir", "scheme",
                          "methods") + _PROPAGATION_FLAGS),
    "compat-quality": _Subcommand("compatibility estimate quality per labelling scheme",
                                  _cmd_compat_quality, _DATA_FLAGS + _PROPAGATION_FLAGS),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="clprop", description="Compare a feature-only MLP, label "
                     "propagation and compatibility-weighted label propagation for "
                     "semi-supervised node classification on graphs of any homophily.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for dest in command.flags:
            option, spec = _FLAGS[dest]
            p.add_argument(option, dest=dest, required=dest in command.required, **spec)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _SUBCOMMANDS[args.command].handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (DivergenceError, TrainingDivergedError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
