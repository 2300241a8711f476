import argparse
import csv
import json
import re

import numpy as np
import pytest

from clprop.cli import _build_parser
from clprop.cli import main as cli_main
from clprop.graph import build_graph, make_splits, save_graph
from clprop.mlp import TrainConfig
from clprop.pipeline import (
    ExperimentConfig,
    PropagationOverrides,
    config_from_dict,
    inspect_dataset,
    report_compat_quality,
    resolve_dataset,
    run_pipeline,
    standardize_features,
    sweep_homophily,
    write_report,
)
from clprop.synth import SyntheticSpec, generate

from conftest import graph_from_edges

FAST_MLP = TrainConfig(epochs=80, early_stop_patience=80)

SUBCOMMANDS = ("synth", "inspect", "train", "run", "sweep", "compat-quality")

# the flags each subcommand accepts: exactly the ones it honours
DATA_FLAGS = {"config", "dataset", "preset", "scale", "directed", "seeds", "out"}
PROPAGATION_FLAGS = {"alpha", "normalize-messages", "teleport"}
CLI_FLAGS = {
    "synth": {"preset", "scale", "seeds", "out"},
    "inspect": DATA_FLAGS | {"scheme"},
    "train": DATA_FLAGS | {"scheme"},
    "run": DATA_FLAGS | {"scheme", "method"} | PROPAGATION_FLAGS,
    "sweep": DATA_FLAGS - {"dataset", "directed"} | {"scheme", "method"} | PROPAGATION_FLAGS,
    "compat-quality": DATA_FLAGS | PROPAGATION_FLAGS,
}
FLAG_VALUES = {"config": ["config.json"], "dataset": ["ds"], "directed": [], "scheme": ["medium"],
               "method": ["clp"], "alpha": ["0.5"], "normalize-messages": ["on"],
               "teleport": ["prior"]}
DROPPED_FLAGS = [
    (command, flag)
    for command in SUBCOMMANDS
    for flag in sorted(CLI_FLAGS["run"] - CLI_FLAGS[command])
]

SMALL_DATASET = {
    "num_nodes": 300,
    "num_classes": 3,
    "target_avg_degree": 8.0,
    "h": 0.2,
    "seed": 11,
}


def small_config(**overrides):
    base = dict(
        dataset=SMALL_DATASET,
        seeds=(0, 1),
        scheme="medium",
        method="clp",
        mlp=FAST_MLP,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def drop_label_line(dataset_dir, node):
    labels = dataset_dir / "labels.tsv"
    lines = labels.read_text().splitlines(keepends=True)
    labels.write_text("".join(lines[:node] + lines[node + 1:]))


@pytest.fixture(scope="module")
def small_graph():
    graph, _ = generate(SyntheticSpec(300, 3, 8.0, 0.2, 11))
    return graph


class TestConfig:
    def test_json_mirror_round_trip(self):
        raw = {
            "dataset": {"preset": "syn1", "scale": 0.05, "h": 0.3, "seed": 2},
            "seeds": [0, 1, 2],
            "scheme": "sparse",
            "method": "clp_star",
            "alpha_grid": [0.2, 0.4],
            "mlp": {"epochs": 50, "early_stop_patience": 10, "hidden_dim": 32},
            "propagation": {"max_iters": 30, "teleport_source": "base", "message_normalization": "off"},
        }
        cfg = config_from_dict(raw)
        assert cfg.seeds == (0, 1, 2)
        assert cfg.mlp.hidden_dim == 32
        assert cfg.propagation.teleport_source == "base_prediction"
        assert cfg.propagation.message_normalization is False

    def test_auto_maps_to_none(self):
        cfg = config_from_dict(
            {
                "dataset": "some/dir",
                "seeds": [0],
                "propagation": {"message_normalization": "auto", "teleport_source": "auto"},
            }
        )
        assert cfg.propagation.message_normalization is None
        assert cfg.propagation.teleport_source is None

    def test_alpha_grid_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            ExperimentConfig(dataset="d", seeds=(0,), alpha_grid=(0.5, 1.0))

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            ExperimentConfig(dataset="d", seeds=(0,), method="gnn")

    def test_seeds_required(self):
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(dataset="d", seeds=())

    @pytest.mark.parametrize(
        "extra, named",
        [
            ({"bogus": 1}, "unknown top-level config keys: bogus"),
            ({"partial_labels": True}, "unknown top-level config keys: partial_labels"),
            ({"mlp": {"lr": 0.1, "epochs": 5}}, "unknown mlp config keys: lr"),
            ({"propagation": {"alpha": 0.5}}, "unknown propagation config keys: alpha"),
        ],
    )
    def test_unknown_keys_are_named(self, extra, named):
        with pytest.raises(ValueError, match=named):
            config_from_dict({"dataset": "d", "seeds": [0], **extra})

    @pytest.mark.parametrize(
        "raw, reason",
        [
            ({"dataset": "d"}, "missing 1 required positional argument: 'seeds'"),
            ({"dataset": "d", "seeds": 5}, "'int' object is not iterable"),
            ({"dataset": "d", "seeds": [0], "mlp": {"learning_rate": "fast"}}, "'<' not supported"),
        ],
    )
    def test_missing_keys_and_mistyped_values(self, raw, reason):
        with pytest.raises(ValueError, match=f"malformed config: .*{reason}"):
            config_from_dict(raw)

    @pytest.mark.parametrize("value", ["maybe", 0, 1, "true"])
    def test_message_normalization_rejects_other_values(self, value):
        with pytest.raises(ValueError, match="message normalization must be on, off or auto"):
            config_from_dict(
                {"dataset": "d", "seeds": [0], "propagation": {"message_normalization": value}}
            )

    def test_json_booleans_and_null_are_accepted(self):
        for value in (True, False, None):
            cfg = config_from_dict(
                {"dataset": "d", "seeds": [0], "propagation": {"message_normalization": value}}
            )
            assert cfg.propagation.message_normalization is value


class TestStandardize:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((100, 3)) * [10, 0.1, 5] + [3, -2, 0]
        z = standardize_features(x)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column(self):
        z = standardize_features(np.ones((5, 2)))
        np.testing.assert_array_equal(z, np.zeros((5, 2)))


class TestRunPipeline:
    def test_mlp_and_clp_share_checkpoint(self, small_graph):
        clp = run_pipeline(small_config(), graph=small_graph)
        mlp = run_pipeline(small_config(method="mlp_only"), graph=small_graph)
        for a, b in zip(clp.per_seed, mlp.per_seed):
            assert a.checkpoint == b.checkpoint

    def test_chosen_alpha_maximizes_validation(self, small_graph):
        report = run_pipeline(small_config(seeds=(0,)), graph=small_graph)
        result = report.per_seed[0]
        evaluated = [c for c in result.candidate_log if c[4] == "ok"]
        best_val = max(c[3] for c in evaluated)
        assert result.val_accuracy == best_val
        chosen = (result.chosen_alpha, result.chosen_normalization, result.chosen_teleport)
        assert any(
            (c[0], c[1], c[2]) == chosen and c[3] == best_val for c in evaluated
        )

    def test_aggregate_recomputable(self, small_graph):
        report = run_pipeline(small_config(), graph=small_graph)
        accs = [r.test_accuracy for r in report.per_seed]
        assert report.mean == pytest.approx(np.mean(accs))
        assert report.std == pytest.approx(np.std(accs))

    def test_tiny_alpha_matches_base_argmax(self, small_graph):
        from clprop.compatibility import estimate_compatibility, prior_beliefs
        from clprop.graph import make_splits, one_hot
        from clprop.pipeline import _train_base_predictor
        from clprop.propagation import PropagationConfig, edge_weights, propagate_clp

        cfg = small_config(seeds=(0,))
        split = make_splits(small_graph, "medium", 0, 1)[0]
        _, d_hat, _ = _train_base_predictor(small_graph, split, cfg)
        y = one_hot(small_graph.labels, small_graph.num_classes)
        b0 = prior_beliefs(d_hat, y, split.train)
        awf = edge_weights(small_graph, b0, estimate_compatibility(small_graph, b0, y, split.train))
        out, _ = propagate_clp(awf, d_hat, PropagationConfig(alpha=0.01, max_iters=50))
        agreement = np.mean(out.argmax()[split.test] == d_hat.argmax()[split.test])
        assert agreement >= 0.99

    def test_compat_distance_present_for_clp(self, small_graph):
        report = run_pipeline(small_config(seeds=(0,)), graph=small_graph)
        assert report.per_seed[0].compat_distance is not None

    def test_clp_star_is_certified_over_the_full_grid(self, small_graph):
        report = run_pipeline(small_config(method="clp_star", seeds=(0,)), graph=small_graph)
        result = report.per_seed[0]
        assert not result.fallback
        assert re.fullmatch(
            r"(certified|convergent|divergent|inconclusive):\d+"
            r"(;(certified|convergent|divergent|inconclusive):\d+)*",
            result.convergence,
        )
        # 9 alphas x 2 message normalizations x 2 teleport sources
        assert len(result.candidate_log) == 9 * 2 * 2

    def test_lp_runs_without_training(self, small_graph):
        report = run_pipeline(small_config(method="lp"), graph=small_graph)
        assert all(r.checkpoint == "" for r in report.per_seed)

    def test_requires_labels(self, tmp_path, capsys, small_graph):
        save_graph(small_graph, tmp_path / "ds")
        drop_label_line(tmp_path / "ds", 7)
        code = cli_main(["run", "--dataset", str(tmp_path / "ds"), "--seeds", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.endswith("labels.tsv: node 7 has no label\n")


class TestReports:
    def test_written_files_are_deterministic(self, small_graph, tmp_path):
        for name in ("first", "second"):
            report = run_pipeline(small_config(seeds=(0,)), graph=small_graph)
            write_report(report, tmp_path / name, small_config(seeds=(0,)))
        a = (tmp_path / "first" / "report.csv").read_bytes()
        b = (tmp_path / "second" / "report.csv").read_bytes()
        assert a == b
        a = (tmp_path / "first" / "summary.csv").read_bytes()
        b = (tmp_path / "second" / "summary.csv").read_bytes()
        assert a == b

    def test_run_json_records_mlp_facts(self, small_graph, tmp_path):
        # a patience below the budget, so early stopping may end a run
        patience_cfg = TrainConfig(epochs=200, early_stop_patience=20)
        facts = {}
        for method in ("mlp_only", "clp", "lp"):
            config = small_config(method=method, mlp=patience_cfg)
            report = run_pipeline(config, graph=small_graph)
            write_report(report, tmp_path / method, config)
            facts[method] = json.loads((tmp_path / method / "run.json").read_text())["per_seed"]
            if method == "mlp_only":
                results = report.per_seed
        assert [f["seed"] for f in facts["mlp_only"]] == [0, 1]
        for fact, result in zip(facts["mlp_only"], results):
            best = fact["mlp_best_epoch"]
            # stopping comes `patience` epochs after the best one, or at the budget
            assert fact["mlp_epochs"] == min(200, best + 20 + 1)
            log = result.training_log
            assert len(log) == fact["mlp_epochs"]
            # the returned snapshot is the first epoch with the best validation accuracy
            assert log[best].val_acc == result.val_accuracy
            assert all(rec.val_acc < result.val_accuracy for rec in log[:best])
            assert all(rec.val_acc <= result.val_accuracy for rec in log)
        assert facts["clp"] == facts["mlp_only"]
        assert facts["lp"] == [
            {"seed": s, "mlp_epochs": None, "mlp_best_epoch": None} for s in (0, 1)
        ]

    def test_timestamp_confined_to_json_header(self, small_graph, tmp_path):
        report = run_pipeline(small_config(seeds=(0,)), graph=small_graph)
        write_report(report, tmp_path, small_config(seeds=(0,)))
        header = json.loads((tmp_path / "run.json").read_text())
        assert "timestamp" in header
        csv_text = (tmp_path / "report.csv").read_text()
        assert "timestamp" not in csv_text


class TestSweep:
    def test_grid_shape(self, tmp_path):
        cfg = small_config(seeds=(0,))
        rows = sweep_homophily(cfg, [0.0, 0.5, 1.0], ["mlp_only", "clp"], out_dir=tmp_path)
        assert len(rows) == 6
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "h,method,mean,std,n_seeds"
        assert len(lines) == 7

    def test_requires_synthetic(self):
        cfg = small_config(dataset="not/a/dict")
        with pytest.raises(ValueError, match="synthetic"):
            sweep_homophily(cfg, [0.5], ["clp"])


class TestCompatQuality:
    def test_columns_and_rows(self, small_graph, tmp_path):
        cfg = small_config(seeds=(0,))
        rows = report_compat_quality(cfg, schemes=("sparse", "dense"), out_dir=tmp_path,
                                     graph=small_graph)
        assert [row["scheme"] for row in rows] == ["sparse", "dense"]
        assert rows[0]["label_rate"] == 0.05
        lines = (tmp_path / "compat_quality.csv").read_text().splitlines()
        assert lines[0] == "scheme,label_rate,mean_dist,std_dist,mean_acc"


class TestInspect:
    def test_bipartite_diagnostics(self, k22):
        report = inspect_dataset(k22)
        assert report.edge_homophily == 0.0
        np.testing.assert_allclose(report.true_compatibility, [[0, 1], [1, 0]])
        assert report.bucket_table is None
        text = report.render()
        assert "edge homophily" in text

    def test_bucket_table_rows(self, small_graph):
        cfg = small_config(seeds=(0,))
        report = inspect_dataset(small_graph, cfg)
        assert report.bucket_table is not None
        assert len(report.bucket_table.rows) == 12


class TestCli:
    def test_usage_error_exit_code(self, capsys):
        assert cli_main(["run", "--method", "transformer", "--preset", "syn1"]) == 1
        assert "usage error" in capsys.readouterr().err
        assert cli_main(["run", "--method", "mlp,clp", "--preset", "syn1"]) == 1
        assert "usage error: argument --method: unknown method 'mlp,clp'" in capsys.readouterr().err

    def test_parser_matches_the_flag_table(self):
        (subparsers,) = [a for a in _build_parser()._actions
                         if isinstance(a, argparse._SubParsersAction)]
        options = {
            name: {opt.removeprefix("--") for action in sub._actions
                   if not isinstance(action, argparse._HelpAction)
                   for opt in action.option_strings}
            for name, sub in subparsers.choices.items()
        }
        assert options == CLI_FLAGS
        assert sum(map(len, options.values())) == 52 and len(DROPPED_FLAGS) == 20

    @pytest.mark.parametrize("command, flag", DROPPED_FLAGS,
                             ids=["-".join(pair) for pair in DROPPED_FLAGS])
    def test_flag_the_subcommand_ignores_is_usage_error(self, command, flag, tmp_path, capsys):
        args = [command, "--preset", "syn1", "--scale", "0.02", "--seeds", "0",
                "--out", str(tmp_path / "out"), f"--{flag}", *FLAG_VALUES[flag]]
        assert cli_main(args) == 1
        assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, flag, value, message",
        [
            ("run", "--seeds", "0,x", "argument --seeds: expects comma-separated integers, got '0,x'"),
            ("run", "--seeds", "", "argument --seeds: expects comma-separated integers, got ''"),
            ("run", "--alpha", "0.5,a", "argument --alpha: expects comma-separated floats, got '0.5,a'"),
            ("sweep", "--method", "clp,", "argument --method: unknown method ''"),
        ],
        ids=["seeds-non-integer", "seeds-empty", "alpha-non-float", "sweep-method-empty-name"],
    )
    def test_bad_flag_value_is_usage_error(self, command, flag, value, message, tmp_path, capsys):
        args = [command, "--preset", "syn1", "--out", str(tmp_path / "out"), flag, value]
        assert cli_main(args) == 1
        assert capsys.readouterr().err.startswith(f"usage error: {message}")
        assert not (tmp_path / "out").exists()

    def test_synth_requires_preset_and_out(self, capsys):
        assert cli_main(["synth", "--scale", "0.02"]) == 1
        assert "required: --preset, --out" in capsys.readouterr().err

    def test_sweep_takes_a_method_list(self, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["sweep", "--preset", "syn1", "--scale", "0.02", "--seeds", "0",
                "--method", "mlp,clp", "--out", str(out)]
        assert cli_main(args) == 0
        with open(out / "sweep.csv") as fh:
            methods = [row["method"] for row in csv.DictReader(fh)]
        assert methods == ["mlp_only", "clp"] * 11

    @pytest.mark.parametrize("scale", ["inf", "nan", "0", "-3"])
    def test_bad_scale_is_data_error(self, scale, tmp_path, capsys):
        args = ["run", "--preset", "syn1", "--scale", scale, "--seeds", "0",
                "--out", str(tmp_path / "out")]
        assert cli_main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: preset scale must be a finite positive number")
        assert "Traceback" not in err and not (tmp_path / "out").exists()

    def test_missing_dataset_is_data_error(self, capsys, tmp_path):
        code = cli_main(["run", "--dataset", str(tmp_path / "nope"), "--seeds", "0"])
        assert code == 2

    def test_synth_then_run_round_trip(self, tmp_path, capsys):
        out = tmp_path / "bench"
        # tiny preset: 0.02 * 10000 = 200 nodes per graph
        code = cli_main(
            ["synth", "--preset", "syn1", "--scale", "0.02", "--seeds", "3", "--out", str(out)]
        )
        assert code == 0
        produced = sorted(p.name for p in out.iterdir())
        assert produced == [f"h{i:02d}" for i in range(11)]
        manifest = json.loads((out / "h05" / "manifest.json").read_text())
        assert manifest["node_count"] == 200

        run_out = tmp_path / "runout"
        code = cli_main(
            [
                "run",
                "--dataset", str(out / "h05"),
                "--scheme", "dense",
                "--seeds", "0",
                "--method", "clp",
                "--alpha", "0.3,0.6",
                "--out", str(run_out),
            ]
        )
        assert code == 0
        assert (run_out / "report.csv").exists()
        assert "test acc" in capsys.readouterr().out

    def test_cli_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "bench"
        cli_main(["synth", "--preset", "syn1", "--scale", "0.02", "--seeds", "3", "--out", str(out)])
        args_template = [
            "run",
            "--dataset", str(out / "h03"),
            "--scheme", "dense",
            "--seeds", "0,1",
            "--method", "lp",
            "--alpha", "0.5",
        ]
        outputs = []
        for name in ("r1", "r2"):
            target = tmp_path / name
            assert cli_main(args_template + ["--out", str(target)]) == 0
            outputs.append((target / "report.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_clp_star_normalize_messages_reaches_report(self, tmp_path, small_graph):
        save_graph(small_graph, tmp_path / "ds")
        out = tmp_path / "out"
        args = ["run", "--dataset", str(tmp_path / "ds"), "--method", "clp-star",
                "--seeds", "0", "--normalize-messages", "on", "--out", str(out)]
        assert cli_main(args) == 0
        with open(out / "report.csv") as fh:
            (row,) = csv.DictReader(fh)
        assert row["chosen_normalization"] == "on"
        assert row["fallback"] == "no"

    def test_inspect_dataset_dir(self, tmp_path, capsys, k22):
        save_graph(k22, tmp_path / "ds")
        assert cli_main(["inspect", "--dataset", str(tmp_path / "ds")]) == 0
        out = capsys.readouterr().out
        assert "edge homophily: 0.0000" in out

    def test_directed_flag_respected(self, tmp_path):
        g = graph_from_edges(3, [(0, 1), (1, 2)], [0, 1, 1], directed=True)
        save_graph(g, tmp_path / "ds")
        loaded = resolve_dataset(str(tmp_path / "ds"))
        assert loaded.arc_count == 2  # manifest records directed=True

    def test_inspect_directed_bucket_counts_cover_test_split(self, tmp_path, capsys, small_graph):
        forward = small_graph.arcs[small_graph.arcs[:, 0] < small_graph.arcs[:, 1]]
        arcs = np.concatenate([forward, forward[::7, ::-1]])  # some reciprocal pairs
        g = build_graph(
            small_graph.node_count, arcs, small_graph.features, small_graph.labels,
            small_graph.num_classes, directed=True,
        )
        save_graph(g, tmp_path / "ds")
        assert resolve_dataset(str(tmp_path / "ds")).directed
        out = tmp_path / "out"
        args = ["inspect", "--dataset", str(tmp_path / "ds"), "--scheme", "medium"]
        assert cli_main(args + ["--seeds", "0", "--out", str(out)]) == 0
        assert "per-bucket accuracy" in capsys.readouterr().out
        rows = (out / "bucket_accuracy.csv").read_text().splitlines()[1:]
        counts = [int(row.split(",")[1]) for row in rows]
        assert sum(counts) == make_splits(g, "medium", 0, 1)[0].test.size

    def test_inspect_partial_labels_is_data_error(self, tmp_path, capsys, k22):
        save_graph(k22, tmp_path / "ds")
        drop_label_line(tmp_path / "ds", 0)
        code = cli_main(["inspect", "--dataset", str(tmp_path / "ds")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.endswith("labels.tsv: node 0 has no label\n")
        assert "partial" not in err.replace(str(tmp_path), "")  # tmp_path holds the test name

    def test_dataset_without_labels_is_data_error(self, tmp_path, capsys, k22):
        save_graph(k22, tmp_path / "ds")
        (tmp_path / "ds" / "labels.tsv").unlink()
        for command in ("inspect", "run"):
            assert cli_main([command, "--dataset", str(tmp_path / "ds"), "--seeds", "0"]) == 2
            assert "labels.tsv" in capsys.readouterr().err

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_partial_labels_flag_is_usage_error(self, command, tmp_path, capsys):
        args = [command, "--preset", "syn1", "--scale", "0.02", "--seeds", "0",
                "--out", str(tmp_path / "out"), "--partial-labels"]
        assert cli_main(args) == 1
        assert "unrecognized arguments: --partial-labels" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_directed_synthetic_is_data_error(self, tmp_path, capsys):
        args = ["run", "--preset", "syn1", "--scale", "0.02", "--seeds", "0", "--directed",
                "--out", str(tmp_path / "out")]
        assert cli_main(args) == 2
        assert "synthetic datasets are undirected" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_malformed_edges_line_is_data_error(self, tmp_path, capsys, small_graph):
        save_graph(small_graph, tmp_path / "ds")
        edges = tmp_path / "ds" / "edges.tsv"
        edges.write_text(edges.read_text() + "\n3\tfour\n")
        lineno = small_graph.arc_count + 2  # after one blank line
        for command in ("run", "inspect"):
            out = tmp_path / f"out-{command}"
            args = [command, "--dataset", str(tmp_path / "ds"), "--scheme", "medium",
                    "--seeds", "0", "--out", str(out)]
            assert cli_main(args) == 2
            err = capsys.readouterr().err
            assert err.startswith("data error: ")
            assert f"edges.tsv:{lineno}: non-integer node id in '3\\tfour'" in err
            assert not out.exists()

    @pytest.mark.parametrize(
        "raw",
        [
            {"bogus": 1},
            {"mlp": {"lr": 0.1}},
            {"propagation": {"message_normalization": "maybe"}},
        ],
    )
    def test_bad_config_file_is_data_error(self, raw, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"dataset": SMALL_DATASET, "seeds": [0], **raw}))
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("data error: ")
        assert not out.exists()
