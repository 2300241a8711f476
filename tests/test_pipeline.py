import argparse
import csv
import dataclasses
import hashlib
import json
import re
import warnings

import numpy as np
import pytest

import clprop.pipeline as pipeline
import clprop.propagation as propagation
from clprop.cli import _build_parser
from clprop.cli import main as cli_main
from clprop.compatibility import Beliefs
from clprop.graph import Graph, build_graph, load_dataset, make_splits, save_graph
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

from conftest import graph_from_edges, line_writer_files, weights_from_dense

FAST_MLP = TrainConfig(epochs=80, early_stop_patience=80)

SUBCOMMANDS = ("synth", "inspect", "train", "run", "sweep", "compat-quality")

# the flags each subcommand accepts: exactly the ones it honours
DATA_FLAGS = {"config", "dataset", "preset", "scale", "directed", "seeds", "out"}
PROPAGATION_FLAGS = {"alpha", "normalize-messages", "teleport"}
CLI_FLAGS = {
    "synth": {"preset", "scale", "seeds", "out"},
    "inspect": DATA_FLAGS | {"scheme"},
    "train": DATA_FLAGS - {"directed"} | {"scheme"},
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


# SHA-256 of the files `clprop run --seeds 0,1` writes on SyntheticSpec(300, 3, 8.0, h, 11)
REPORT_DIGESTS = {
    (0.2, "mlp", "report.csv"): "18b83c4b4af8d491d9cdec12c415ecd587389c46fcb8d85bc43b44edfbc9a3a3",
    (0.2, "mlp", "summary.csv"): "f8781039471541c866686b65ad5787205727c5f80c21b04045756f1a3fb362ed",
    (0.2, "lp", "report.csv"): "6007271f5e86171775ae83f15e3e508088ad508d2c87514fd6b97f8bde138404",
    (0.2, "lp", "summary.csv"): "a2c579a3e16d9efefdd4eca9cc38ac11b43118fa85217abeaa8413c76cbe0a16",
    (0.2, "clp", "report.csv"): "c206fa4a4ba013bd23272288842ce7ccede9e00f0e62359187bffac1723bbac7",
    (0.2, "clp", "summary.csv"): "277ec8c9e72c84f41cdb362e9970581fe6ea6c6a1817cf8c92b9b0578f7004c6",
    (0.2, "clp-star", "report.csv"): "b13a5c6e85372d491b68ce16749c27eab11517d9a0c1a8fdf87b611ba55da5e9",
    (0.2, "clp-star", "summary.csv"): "57bf4f11a0dd327de1f388593a6c4ac297a01c7135bec13b430d21007792b8dc",
    (0.8, "mlp", "report.csv"): "18b83c4b4af8d491d9cdec12c415ecd587389c46fcb8d85bc43b44edfbc9a3a3",
    (0.8, "mlp", "summary.csv"): "f8781039471541c866686b65ad5787205727c5f80c21b04045756f1a3fb362ed",
    (0.8, "lp", "report.csv"): "42285b7695fd45e0c21a352d98d0cdf79d44c3e501674cb37344a85677c1ea43",
    (0.8, "lp", "summary.csv"): "3bfeaa5358e669fe9ce39cf017e6347acafa1272a5ac4ed42042f98bb9bb92ee",
    (0.8, "clp", "report.csv"): "98fce1d068817ecd57a03fac51f5dbdee772ddb0711d01f3c93e54944d87881e",
    (0.8, "clp", "summary.csv"): "377387c092f807cfe37abc764a340c6ea2b9bd8f8ee36d4613b1219c9b711f78",
    (0.8, "clp-star", "report.csv"): "04ce54a6c32d331c5545a45a673e70f7728c415c1035e4ef64b6c3f9ae333c03",
    (0.8, "clp-star", "summary.csv"): "20205b5d2165782ca30c19cb8c4abd989ab912759667fad7b7a0a1da2ee8c533",
}
# SHA-256 of report.csv of `clprop run --method clp --seeds 0,1` with one override flag,
# on SyntheticSpec(300, 3, 8.0, 0.2, 11)
OVERRIDE_DIGESTS = {
    ("--normalize-messages", "on"): "d4d0e186d0e18563c425a86bc59eea6e7ba012293e93974bb7f983ab152a1a8e",
    ("--normalize-messages", "off"): "c206fa4a4ba013bd23272288842ce7ccede9e00f0e62359187bffac1723bbac7",
    ("--teleport", "base"): "c206fa4a4ba013bd23272288842ce7ccede9e00f0e62359187bffac1723bbac7",
    ("--teleport", "prior"): "d4334696f9c9f9c9675bfa9b0fafe5ae857e7cb56722d2e6a937ed4eb91f7f37",
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


def _diverge(*args, **kwargs):
    """A propagation call that always diverges."""
    raise propagation.DivergenceError("residual grew")


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
            "propagation": {"teleport_source": "base", "message_normalization": "off"},
        }
        cfg = config_from_dict(raw)
        assert cfg.seeds == (0, 1, 2)
        assert cfg.mlp.hidden_dim == 32
        assert cfg.propagation == PropagationOverrides(message_normalization="off",
                                                       teleport_source="base")

    def test_auto_is_the_default(self):
        cfg = config_from_dict(
            {
                "dataset": "some/dir",
                "seeds": [0],
                "propagation": {"message_normalization": "auto", "teleport_source": "auto"},
            }
        )
        assert cfg.propagation == PropagationOverrides()
        assert cfg.propagation.message_normalization == cfg.propagation.teleport_source == "auto"

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
            ({"mlp": {"seed": 7}}, "unknown mlp config keys: seed"),
            ({"propagation": {"max_iters": 30}}, "unknown propagation config keys: max_iters"),
            ({"propagation": {"tol": 1e-6}}, "unknown propagation config keys: tol"),
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
        ],
    )
    def test_missing_keys_and_mistyped_values(self, raw, reason):
        with pytest.raises(ValueError, match=f"malformed config: .*{reason}"):
            config_from_dict(raw)

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"directed": "no"}, "directed must be true or false, got 'no'"),
            ({"output_dir": 5}, "output_dir must be a string, got 5"),
            ({"alpha_grid": ["0.5"]}, "alpha_grid value must be a number, got '0.5'"),
        ],
    )
    def test_mistyped_values_name_the_field(self, extra, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config_from_dict({"dataset": "d", "seeds": [0], **extra})

    @pytest.mark.parametrize("value", ["maybe", 0, 1, "true", True, False, None])
    def test_message_normalization_rejects_other_values(self, value):
        with pytest.raises(ValueError, match="message normalization must be on, off or auto"):
            config_from_dict(
                {"dataset": "d", "seeds": [0], "propagation": {"message_normalization": value}}
            )

    @pytest.mark.parametrize(
        "dataset, message",
        [
            ({"h": 0.5}, "missing dataset config keys: num_classes, num_nodes, target_avg_degree"),
            ({"preset": "syn1", "scael": 0.02}, "unknown dataset config keys: scael"),
            ({**SMALL_DATASET, "scale": 0.5}, "unknown dataset config keys: scale"),
            (5, "dataset must be a directory path or an object, got 5"),
            ({**SMALL_DATASET, "h": "0.2"}, "dataset h must be a number, got '0.2'"),
            ({"preset": "syn1", "scale": "0.02"}, "dataset scale must be a number, got '0.02'"),
            ({**SMALL_DATASET, "num_nodes": 300.7}, "dataset num_nodes must be an integer, got 300.7"),
            ({**SMALL_DATASET, "num_classes": 3.0}, "dataset num_classes must be an integer, got 3.0"),
            ({**SMALL_DATASET, "seed": True}, "dataset seed must be an integer, got True"),
            ({"preset": 2}, "dataset preset must be a string, got 2"),
        ],
    )
    def test_synthetic_dataset_keys_are_checked(self, dataset, message):
        with pytest.raises(ValueError, match=message):
            resolve_dataset(dataset)


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
        evaluated = [c for c in result.candidate_log if c[4] != "diverged"]
        best_val = max(c[3] for c in evaluated)
        assert result.val_accuracy == best_val
        chosen = (result.chosen_alpha, result.chosen_teleport, result.chosen_normalization)
        assert any(
            (c[0], c[1], c[2]) == chosen and c[3] == best_val for c in evaluated
        )

    def test_select_logs_a_budget_stop_apart_from_convergence(self):
        """A candidate that runs every step with its residual at or above the
        tolerance is logged "budget", not "converged", and still competes."""
        weights = np.array([[0.0, 0.5], [0.5, 0.0]])
        awf = weights_from_dense(weights, 2)
        teleport = Beliefs(np.array([[0.9, 0.1], [0.2, 0.8]]), "base_prediction")

        def run(alpha, _teleport, _norm):
            if alpha == 0.9:
                _diverge()
            return propagation.propagate_clp(
                awf, teleport, propagation.PropagationConfig(alpha, max_iters=3))

        options = [(0.0, "base", "off"), (0.5, "base", "off"), (0.9, "base", "off")]
        best, log = pipeline._select(options, run, np.array([0, 1]), np.array([0, 1]))
        assert [c[4] for c in log] == ["converged", "budget", "diverged"]
        assert [c[3] for c in log] == [1.0, 1.0, None]
        assert best[:2] == (1.0, options[0])

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
        agreement = np.mean(np.argmax(out.values[split.test], axis=1)
                            == np.argmax(d_hat.values[split.test], axis=1))
        assert agreement >= 0.99

    def test_compat_distance_present_for_clp(self, small_graph):
        report = run_pipeline(small_config(seeds=(0,)), graph=small_graph)
        assert report.per_seed[0].compat_distance is not None

    def test_clp_star_is_certified_over_the_full_grid(self, small_graph):
        report = run_pipeline(small_config(method="clp_star", seeds=(0,)), graph=small_graph)
        result = report.per_seed[0]
        assert not result.fallback
        assert re.fullmatch(
            r"(certified|convergent|divergent|unproved):\d+"
            r"(;(certified|convergent|divergent|unproved):\d+)*",
            result.convergence,
        )
        # 9 alphas x 2 message normalizations x 2 teleport sources
        assert len(result.candidate_log) == 9 * 2 * 2

    @pytest.mark.parametrize("method, calls", [("clp", 1), ("clp_star", 0)])
    def test_only_clp_calls_edge_weights(self, method, calls, small_graph, monkeypatch):
        """A CLP run builds its weights with ``edge_weights`` once per seed, so
        that span times them; CLP* builds its own and never calls it."""
        built = []
        real = pipeline.edge_weights

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "edge_weights", counting)
        report = run_pipeline(small_config(method=method, seeds=(0,)), graph=small_graph)
        assert not report.per_seed[0].fallback
        assert len(built) == calls

    @pytest.mark.parametrize("method, certifies", [("mlp_only", False), ("lp", False),
                                                   ("clp", True), ("clp_star", True)])
    def test_certificate_runs_once_per_seed(self, method, certifies, small_graph, monkeypatch):
        """One convergence check per seed, at the chosen alpha, with at most
        one bracket call, which covers the classes that the Frobenius norm
        leaves; none when it certifies every class.  LP and the MLP never
        certify."""
        brackets, checks = [], []
        real_check, real_radius = pipeline.convergence_check, propagation.spectral_radius

        def radius(weights, *args, **kwargs):
            brackets.append(weights.num_classes)
            return real_radius(weights, *args, **kwargs)

        def check(weights, alpha):
            before = len(brackets)
            verdicts = real_check(weights, alpha)
            bracketed = sum(v.upper is not None for v in verdicts)
            assert brackets[before:] == ([bracketed] if bracketed else [])
            checks.append(alpha)
            return verdicts

        monkeypatch.setattr(propagation, "spectral_radius", radius)
        monkeypatch.setattr(pipeline, "convergence_check", check)
        report = run_pipeline(small_config(method=method), graph=small_graph)
        if certifies:
            assert not any(r.fallback for r in report.per_seed)
            assert checks == [r.chosen_alpha for r in report.per_seed]
        else:
            assert checks == [] and brackets == []
        assert len(brackets) <= len(checks)

    def test_lp_weights_are_built_once_per_seed(self, small_graph, monkeypatch):
        graphs = []

        def weights(graph):
            graphs.append(graph)
            return propagation.lp_weights(graph)

        monkeypatch.setattr(pipeline, "lp_weights", weights)
        run_pipeline(small_config(method="lp"), graph=small_graph)
        assert graphs == [small_graph, small_graph]

    def test_lp_warns_once_per_seed_about_unreachable_nodes(self):
        """The warning comes from the chosen candidate's zero rows, once per
        seed, not once per candidate."""
        rng = np.random.default_rng(5)
        edges = rng.integers(0, 40, (120, 2))  # nodes 40-59 stay isolated
        graph = graph_from_edges(60, edges, np.arange(60) % 3, features=rng.random((60, 4)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_pipeline(small_config(method="lp", seeds=(0, 1)), graph=graph)
        messages = [str(w.message) for w in caught if "unreachable" in str(w.message)]
        assert [m.split(":")[0] for m in messages] == ["seed 0", "seed 1"]

    @pytest.mark.parametrize("method, warns", [("mlp_only", False), ("lp", False),
                                               ("clp", True), ("clp_star", True)])
    def test_true_compatibility_only_where_it_is_used(self, method, warns):
        """Only the compatibility methods compare their estimate with the true
        matrix, so only they warn about a class without outgoing arcs."""
        rng = np.random.default_rng(5)
        edges = rng.integers(0, 40, (120, 2))  # class 2, nodes 40-59, has no arcs
        graph = graph_from_edges(60, edges, np.repeat([0, 1, 2], 20), features=rng.random((60, 4)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_pipeline(small_config(method=method, seeds=(0,)), graph=graph)
        assert any("no outgoing arcs" in str(w.message) for w in caught) == warns

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


class TestTrainBasePredictors:
    def test_rows_match_the_mlp_run_and_nothing_is_written(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = small_config(method="mlp_only")
        rows = pipeline.train_base_predictors(config)
        per_seed = run_pipeline(config).per_seed
        assert rows == [(r.seed, r.val_accuracy, len(r.training_log), r.test_accuracy)
                        for r in per_seed]
        assert list(tmp_path.iterdir()) == []


class TestReports:
    def test_written_files_are_deterministic(self, small_graph, tmp_path):
        for name in ("first", "second"):
            config = small_config(seeds=(0,), output_dir=str(tmp_path / name))
            write_report(run_pipeline(small_config(seeds=(0,)), graph=small_graph), config)
        a = (tmp_path / "first" / "report.csv").read_bytes()
        b = (tmp_path / "second" / "report.csv").read_bytes()
        assert a == b
        a = (tmp_path / "first" / "summary.csv").read_bytes()
        b = (tmp_path / "second" / "summary.csv").read_bytes()
        assert a == b

    @pytest.mark.parametrize("h", [0.2, 0.8])
    @pytest.mark.parametrize("method", ["mlp", "lp", "clp", "clp-star"])
    def test_report_bytes_match_recorded_digests(self, h, method, tmp_path):
        """``clprop run --seeds 0,1`` on a 300-node graph writes the same
        report.csv and summary.csv as the commit that recorded these SHA-256
        digests, so a refactor that claims to keep the results shows it here.
        A change meant to alter results, such as a new MLP optimizer, changes
        the digests on purpose and records the new ones."""
        save_graph(generate(SyntheticSpec(300, 3, 8.0, h, 11))[0], tmp_path / "ds")
        out = tmp_path / "out"
        args = ["run", "--dataset", str(tmp_path / "ds"), "--method", method,
                "--seeds", "0,1", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cli_main(args) == 0
        for name in ("report.csv", "summary.csv"):
            digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert digest == REPORT_DIGESTS[h, method, name], name

    @pytest.mark.parametrize("flag", sorted(OVERRIDE_DIGESTS))
    def test_override_report_bytes_match_recorded_digests(self, flag, tmp_path):
        save_graph(generate(SyntheticSpec(300, 3, 8.0, 0.2, 11))[0], tmp_path / "ds")
        out = tmp_path / "out"
        args = ["run", "--dataset", str(tmp_path / "ds"), "--method", "clp",
                "--seeds", "0,1", "--out", str(out), *flag]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cli_main(args) == 0
        digest = hashlib.sha256((out / "report.csv").read_bytes()).hexdigest()
        assert digest == OVERRIDE_DIGESTS[flag]

    def test_run_json_records_mlp_facts(self, small_graph, tmp_path):
        # a patience below the budget, so early stopping may end a run
        patience_cfg = TrainConfig(epochs=200, early_stop_patience=20)
        facts = {}
        for method in ("mlp_only", "clp", "lp"):
            config = small_config(method=method, mlp=patience_cfg,
                                  output_dir=str(tmp_path / method))
            report = run_pipeline(config, graph=small_graph)
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

    def test_csv_cells_write_numpy_floats_as_python_floats(self, tmp_path):
        rows = [(np.float64(0.1), 0.25, "on", None, "x")]
        pipeline._write_csv(tmp_path / "t.csv", "a,b,c,d,e", rows)
        assert (tmp_path / "t.csv").read_text() == "a,b,c,d,e\n0.1,0.25,on,,x\n"

    def test_csv_writer_creates_the_directory(self, tmp_path):
        pipeline._write_csv(tmp_path / "a" / "b" / "t.csv", "x", [(1,)])
        assert (tmp_path / "a" / "b" / "t.csv").read_text() == "x\n1\n"

    @pytest.mark.parametrize(
        "overrides",
        [PropagationOverrides(), PropagationOverrides(message_normalization="on",
                                                      teleport_source="prior")],
        ids=["auto", "on-prior"],
    )
    def test_run_json_config_loads_back(self, overrides, small_graph, tmp_path):
        config = small_config(seeds=(0,), alpha_grid=(0.5,), propagation=overrides,
                              output_dir=str(tmp_path))
        run_pipeline(config, graph=small_graph)
        written = json.loads((tmp_path / "run.json").read_text())["config"]
        assert config_from_dict(written) == config

    def test_timestamp_confined_to_json_header(self, small_graph, tmp_path):
        report = run_pipeline(small_config(seeds=(0,)), graph=small_graph)
        write_report(report, small_config(seeds=(0,), output_dir=str(tmp_path)))
        header = json.loads((tmp_path / "run.json").read_text())
        assert "timestamp" in header
        assert header["config"]["output_dir"] == str(tmp_path)
        csv_text = (tmp_path / "report.csv").read_text()
        assert "timestamp" not in csv_text


class TestSweep:
    def test_grid_shape(self, tmp_path):
        cfg = small_config(seeds=(0,), output_dir=str(tmp_path))
        rows = sweep_homophily(cfg, [0.0, 0.5, 1.0], ["mlp_only", "clp"])
        assert len(rows) == 6
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "h,method,mean,std,n_seeds"
        assert len(lines) == 7

    def test_requires_synthetic(self):
        cfg = small_config(dataset="not/a/dict")
        with pytest.raises(ValueError, match="synthetic"):
            sweep_homophily(cfg, [0.5], ["clp"])


class TestCompatQuality:
    def test_columns_and_rows(self, tmp_path):
        cfg = small_config(seeds=(0,), output_dir=str(tmp_path))
        rows = report_compat_quality(cfg)
        assert [row["scheme"] for row in rows] == ["sparse", "medium", "dense"]
        assert [row["label_rate"] for row in rows] == [0.05, 0.10, 0.48]
        lines = (tmp_path / "compat_quality.csv").read_text().splitlines()
        assert lines[0] == "scheme,label_rate,mean_dist,std_dist,mean_acc"
        assert len(lines) == 4


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
        assert len(report.bucket_table) == 12

    def test_hv_counts_computed_once(self, monkeypatch):
        """The h_v histogram and the bucket table share one pass over the graph."""
        calls = []
        counts = Graph.__dict__["induced_arc_counts"]
        compute = counts.func

        def counting(graph):
            calls.append(graph)
            return compute(graph)

        monkeypatch.setattr(counts, "func", counting)
        graph, _ = generate(SyntheticSpec(300, 3, 8.0, 0.2, 11))
        report = inspect_dataset(graph, small_config(seeds=(0,)))
        assert report.bucket_table is not None
        assert len(calls) == 1 and calls[0] is graph


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
        assert sum(map(len, options.values())) == 51 and len(DROPPED_FLAGS) == 21

    @pytest.mark.parametrize("command, flag", DROPPED_FLAGS,
                             ids=["-".join(pair) for pair in DROPPED_FLAGS])
    def test_flag_the_subcommand_ignores_is_usage_error(self, command, flag, tmp_path, capsys):
        args = [command, "--preset", "syn1", "--scale", "0.02", "--seeds", "0",
                "--out", str(tmp_path / "out"), f"--{flag}", *FLAG_VALUES[flag]]
        assert cli_main(args) == 1
        assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, method, flag, value",
        [("run", "lp", "teleport", "prior"), ("run", "lp", "normalize-messages", "on"),
         ("run", "mlp", "alpha", "0.5"), ("run", "mlp", "teleport", "base"),
         ("sweep", "mlp,lp", "teleport", "prior"), ("sweep", "mlp", "alpha", "0.5")],
        ids=["run-lp-teleport", "run-lp-normalize", "run-mlp-alpha", "run-mlp-teleport",
             "sweep-mlp-lp-teleport", "sweep-mlp-alpha"],
    )
    def test_propagation_flag_no_method_reads_is_usage_error(self, command, method, flag, value,
                                                             tmp_path, capsys):
        """--alpha is read by lp, clp and clp-star; --teleport and
        --normalize-messages by clp and clp-star only."""
        args = [command, "--preset", "syn1", "--scale", "0.02", "--seeds", "0",
                "--method", method, "--out", str(tmp_path / "out"), f"--{flag}", value]
        assert cli_main(args) == 1
        assert capsys.readouterr().err == f"usage error: --{flag} is not read by method {method}\n"
        assert not (tmp_path / "out").exists()

    def test_propagation_flag_checks_the_configured_method(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dataset": SMALL_DATASET, "seeds": [0], "method": "lp"}))
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(config), "--teleport", "prior",
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == "usage error: --teleport is not read by method lp\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("command", [c for c in SUBCOMMANDS if c != "synth"])
    def test_scale_without_preset_is_usage_error(self, command, tmp_path, capsys):
        """A preset config's own scale is not overridden by a flag that would be
        dropped; synth requires --preset (test_synth_requires_preset_and_out)."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dataset": {"preset": "syn1", "scale": 0.02}, "seeds": [0]}))
        assert cli_main([command, "--config", str(config), "--scale", "0.05"]) == 1
        assert capsys.readouterr().err == "usage error: --scale applies only with --preset\n"
        if "dataset" in CLI_FLAGS[command]:
            assert cli_main([command, "--dataset", str(tmp_path / "ds"), "--scale", "7"]) == 1
            assert capsys.readouterr().err == "usage error: --scale applies only with --preset\n"

    def test_preset_scale_defaults_to_one(self, monkeypatch, tmp_path):
        scales = []

        def record(scale):
            scales.append(scale)
            raise ValueError("recorded")

        monkeypatch.setattr("clprop.cli.resolve_dataset",
                            lambda dataset, directed: record(dataset["scale"]))
        monkeypatch.setattr("clprop.cli.preset_spec", lambda name, h, seed, scale: record(scale))
        assert cli_main(["inspect", "--preset", "syn1"]) == 2
        assert cli_main(["inspect", "--preset", "syn1", "--scale", "0.05"]) == 2
        assert cli_main(["synth", "--preset", "syn1", "--out", str(tmp_path / "out")]) == 2
        assert cli_main(["synth", "--preset", "syn1", "--scale", "0.05",
                         "--out", str(tmp_path / "out")]) == 2
        assert scales == [1.0, 0.05, 1.0, 0.05]

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

    def test_synth_writes_line_writer_bytes_reproducibly(self, tmp_path):
        trees = []
        for run in ("a", "b"):
            out = tmp_path / run
            argv = ["synth", "--preset", "syn1", "--scale", "0.05", "--seeds", "4", "--out", str(out)]
            assert cli_main(argv) == 0
            trees.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
        assert trees[0] == trees[1]
        directories = sorted((tmp_path / "a").iterdir())
        assert len(directories) == 11
        for directory in directories:
            generator = json.loads((directory / "manifest.json").read_text())["generator"]
            fields = dataclasses.fields(SyntheticSpec)
            graph, _ = generate(SyntheticSpec(**{f.name: generator[f.name] for f in fields}))
            for name, data in line_writer_files(graph).items():
                assert (directory / name).read_bytes() == data
            loaded = load_dataset(directory)  # checks the manifest checksums
            assert np.array_equal(loaded.arcs, graph.arcs)
            assert loaded.features.tobytes() == graph.features.tobytes()

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

    def test_inspect_graph_without_arcs(self, tmp_path, capsys):
        save_graph(graph_from_edges(20, np.zeros((0, 2), dtype=np.int64), np.arange(20) % 2),
                   tmp_path / "ds")
        with pytest.warns(UserWarning, match="no outgoing arcs"):
            assert cli_main(["inspect", "--dataset", str(tmp_path / "ds")]) == 0
        out = capsys.readouterr().out
        assert "edge homophily: undefined\nnode homophily: undefined\n" in out
        assert "(isolated: 20)" in out

    def test_inspect_out_requires_scheme(self, tmp_path, capsys, small_graph):
        """An output directory from --out or from the config's output_dir is
        a usage error that names --scheme, which trains the only table
        inspect writes."""
        out = tmp_path / "out"
        args = ["inspect", "--dataset", str(tmp_path / "ds"), "--seeds", "0", "--out", str(out)]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dataset": SMALL_DATASET, "seeds": [0],
                                      "output_dir": str(out)}))
        for argv in (args, ["inspect", "--config", str(config)]):
            assert cli_main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("usage error: ") and "--scheme" in err
            assert not out.exists()
        save_graph(small_graph, tmp_path / "ds")
        assert cli_main(args[:3] + ["--scheme", "medium"] + args[3:]) == 0
        assert (out / "bucket_accuracy.csv").exists()
        (out / "bucket_accuracy.csv").unlink()
        assert cli_main(["inspect", "--config", str(config), "--scheme", "medium"]) == 0
        assert (out / "bucket_accuracy.csv").exists()

    def test_inspect_takes_its_dataset_from_the_config(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"dataset": SMALL_DATASET, "seeds": [0]}))
        assert cli_main(["inspect", "--config", str(path)]) == 0
        text = capsys.readouterr().out
        assert "edge homophily" in text and "per-bucket accuracy" not in text
        assert cli_main(["inspect", "--config", str(path), "--scheme", "medium"]) == 0
        assert "per-bucket accuracy" in capsys.readouterr().out

    def test_inspect_trains_the_table_on_the_config_scheme(self, tmp_path, capsys):
        """A "scheme" key in the config names the scheme as --scheme does; a
        config without the key prints no table."""
        fast = {"dataset": SMALL_DATASET, "seeds": [0],
                "mlp": {"epochs": 80, "early_stop_patience": 80}}
        plain, named = tmp_path / "plain.json", tmp_path / "named.json"
        plain.write_text(json.dumps(fast))
        named.write_text(json.dumps({**fast, "scheme": "dense"}))
        assert cli_main(["inspect", "--config", str(plain), "--scheme", "dense"]) == 0
        flagged = capsys.readouterr().out
        assert "per-bucket accuracy" in flagged
        assert cli_main(["inspect", "--config", str(named)]) == 0
        assert capsys.readouterr().out == flagged
        assert cli_main(["inspect", "--config", str(plain)]) == 0
        assert "per-bucket accuracy" not in capsys.readouterr().out
        out = tmp_path / "out"
        named.write_text(json.dumps({**fast, "scheme": "dense", "output_dir": str(out)}))
        assert cli_main(["inspect", "--config", str(named)]) == 0
        assert (out / "bucket_accuracy.csv").exists()

    def test_inspect_rejects_a_bad_config_without_scheme(self, tmp_path, capsys, k22):
        save_graph(k22, tmp_path / "ds")
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"dataset": "elsewhere", "seeds": [0], "bogus": 1}))
        assert cli_main(["inspect", "--dataset", str(tmp_path / "ds"), "--config", str(path)]) == 2
        assert capsys.readouterr().err == "data error: unknown top-level config keys: bogus\n"

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
            {"dataset": {"h": 0.5}},
            {"dataset": 5},
            {"dataset": {"preset": "syn1", "scael": 0.02}},
            {"scheme": 5},
            {"scheme": [0.2, 0.2]},
            {"scheme": "bogus"},
            {"dataset": {"preset": "syn1", "scale": None}},
            {"dataset": {"preset": "syn1", "seed": None}},
            {"dataset": {**SMALL_DATASET, "num_nodes": [300]}},
            {"mlp": 5},
            {"propagation": "on"},
            {"seeds": [0.7]},
            {"directed": "no"},
            {"alpha_grid": ["0.5"]},
            {"output_dir": 5},
            {"dataset": {**SMALL_DATASET, "h": "0.2"}},
            {"dataset": {"preset": "syn1", "scale": "0.02"}},
            {"dataset": {**SMALL_DATASET, "num_nodes": 300.7}},
            {"dataset": {**SMALL_DATASET, "num_classes": 3.0}},
            {"dataset": {**SMALL_DATASET, "seed": True}},
            {"propagation": {"message_normalization": True}},
            {"propagation": {"message_normalization": None}},
            {"propagation": {"teleport_source": "base_prediction"}},
        ],
    )
    def test_bad_config_file_is_data_error(self, raw, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"dataset": SMALL_DATASET, "seeds": [0], **raw}))
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("data error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "run"])
    @pytest.mark.parametrize(
        "mlp,field",
        [
            ({"epochs": 0, "early_stop_patience": 0}, "epochs"),
            ({"epochs": -3, "early_stop_patience": -5}, "epochs"),
            ({"early_stop_patience": -1}, "early_stop_patience"),
            ({"weight_decay": -1e-4}, "weight_decay"),
            ({"epochs": 2.5, "early_stop_patience": 1}, "epochs"),
            ({"hidden_dim": 2.5}, "hidden_dim"),
            ({"learning_rate": True}, "learning_rate"),
            ({"learning_rate": "0.1"}, "learning_rate"),
            ({"learning_rate": "fast"}, "learning_rate"),
            ({"learning_rate": float("nan")}, "learning_rate"),
            ({"weight_decay": "0"}, "weight_decay"),
        ],
    )
    def test_out_of_range_mlp_config_is_data_error(self, command, mlp, field, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"dataset": SMALL_DATASET, "seeds": [0], "mlp": mlp}))
        out = tmp_path / "out"
        assert cli_main([command, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {field} must be ")
        assert not out.exists()

    @staticmethod
    def _fast_config(tmp_path):
        """A config file for the 300-node synthetic dataset with a short MLP budget."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"dataset": SMALL_DATASET, "seeds": [0], "alpha_grid": [0.5],
                                    "mlp": {"epochs": 80, "early_stop_patience": 80}}))
        return path

    @staticmethod
    def _report_row(out):
        with open(out / "report.csv") as fh:
            (row,) = csv.DictReader(fh)
        return row

    def test_every_clp_candidate_diverging_falls_back_to_the_mlp(self, monkeypatch, tmp_path,
                                                                  capsys):
        config = self._fast_config(tmp_path)
        assert cli_main(["run", "--config", str(config), "--method", "mlp",
                         "--out", str(tmp_path / "mlp")]) == 0
        capsys.readouterr()

        monkeypatch.setattr(pipeline, "propagate_clp", _diverge)
        with pytest.warns(UserWarning, match="every propagation candidate diverged"):
            assert cli_main(["run", "--config", str(config), "--method", "clp",
                             "--out", str(tmp_path / "clp")]) == 0
        assert "(fallback=mlp)" in capsys.readouterr().out
        row = self._report_row(tmp_path / "clp")
        assert row["fallback"] == "yes"
        assert row["test_accuracy"] == self._report_row(tmp_path / "mlp")["test_accuracy"]

    def test_every_lp_candidate_diverging_is_numerical_failure(self, monkeypatch, tmp_path,
                                                               capsys):
        monkeypatch.setattr(pipeline, "propagate_lp", _diverge)
        out = tmp_path / "out"
        args = ["run", "--config", str(self._fast_config(tmp_path)), "--method", "lp",
                "--out", str(out)]
        assert cli_main(args) == 3
        assert capsys.readouterr().err.startswith("numerical failure: ")
        assert not out.exists()

    def test_compat_quality_end_to_end(self, tmp_path, capsys):
        config = self._fast_config(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["compat-quality", "--config", str(config), "--out", str(out)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3
        rows = report_compat_quality(config_from_dict(json.loads(config.read_text())))
        lines = (out / "compat_quality.csv").read_text().splitlines()
        assert lines[1:] == [",".join(pipeline._fmt(v) for v in row.values()) for row in rows]

    @pytest.mark.parametrize(
        "flag, word, column",
        [
            ("--teleport", "base", "chosen_teleport"),
            ("--teleport", "prior", "chosen_teleport"),
            ("--normalize-messages", "on", "chosen_normalization"),
            ("--normalize-messages", "off", "chosen_normalization"),
        ],
        ids=["teleport-base", "teleport-prior", "normalize-on", "normalize-off"],
    )
    def test_override_flag_reaches_report(self, flag, word, column, tmp_path):
        out = tmp_path / "out"
        args = ["run", "--config", str(self._fast_config(tmp_path)), "--method", "clp",
                flag, word, "--out", str(out)]
        assert cli_main(args) == 0
        assert self._report_row(out)[column] == word

    @pytest.mark.parametrize(
        "args, message",
        [
            (["run", "--dataset", "ds", "--preset", "syn1"],
             "--dataset and --preset are mutually exclusive"),
            (["run", "--seeds", "0"], "provide --dataset, --preset, or --config"),
            (["train", "--preset", "syn1", "--scale", "0.02", "--seeds", "0"],
             "train requires --out"),
            (["sweep", "--config", "CONFIG"], "sweep requires a synthetic dataset"),
            (["synth", "--preset", "syn1", "--scale", "0.02", "--seeds", "4,5", "--out", "OUT"],
             "synth takes one seed, got 2"),
        ],
        ids=["dataset-and-preset", "no-dataset", "train-without-out", "sweep-dataset-directory",
             "synth-two-seeds"],
    )
    def test_usage_errors(self, args, message, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dataset": str(tmp_path / "ds"), "seeds": [0]}))
        places = {"CONFIG": str(config), "OUT": str(tmp_path / "out")}
        assert cli_main([places.get(arg, arg) for arg in args]) == 1
        assert capsys.readouterr().err.startswith(f"usage error: {message}")
        assert not (tmp_path / "out").exists()
