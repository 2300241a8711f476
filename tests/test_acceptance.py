"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or read the captured output).

Heavy artifacts (the random convergent instances, the homophily-sweep
pipeline runs) are built once in module-scoped fixtures and shared.
"""

import dataclasses
import time
from contextlib import contextmanager

import numpy as np
import pytest

from clprop import propagation
from clprop.cli import main as cli_main
from clprop.compatibility import Beliefs, sinkhorn_knopp
from clprop.graph import build_graph, one_hot
from clprop.metrics import edge_homophily
from clprop.mlp import TrainConfig, init_mlp, loss_and_gradients
from clprop.pipeline import ExperimentConfig, report_compat_quality, run_pipeline
from clprop.propagation import (
    DivergenceError,
    PropagationConfig,
    convergence_check,
    edge_weights,
    propagate_clp,
    sender_weights,
)
from clprop.synth import H_LEVELS, SyntheticSpec, gaussian_features, generate, snap_h_fraction

from conftest import (
    class_slices,
    closed_form_clp,
    graph_from_edges,
    proven_convergent,
    weights_from_dense,
)


@contextmanager
def criterion(number: int, label: str):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number:>2} [{label}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:>2} [{label}]: PASS ({elapsed:.1f}s)")


def _worked_instance():
    graph = graph_from_edges(3, [(0, 1), (0, 2)], [0, 1, 0], directed=True, num_classes=2)
    from clprop.compatibility import CompatibilityMatrix

    compat = CompatibilityMatrix(np.array([[0.2, 0.8], [0.8, 0.2]]), "row_stochastic")
    beliefs = Beliefs(np.array([[0.4, 0.6], [0.2, 0.8], [0.7, 0.3]]), "prior")
    return graph, compat, beliefs


def test_criterion_1_worked_example_oracle():
    with criterion(1, "single-sender worked example"):
        start = time.perf_counter()
        graph, compat, beliefs = _worked_instance()
        awf = edge_weights(graph, beliefs, compat)
        # exact up to one IEEE double rounding of the stated products
        arc_01 = awf.outgoing[0] * awf.receiving[1]
        np.testing.assert_allclose(arc_01, [0.112, 0.352], rtol=0, atol=1e-15)
        # receivers 1 and 2 each hear one arc, so their aggregate is its message
        msgs = propagation._step(awf, True)(beliefs.values)
        np.testing.assert_allclose(msgs[1], [0.175, 0.825], rtol=0, atol=1e-12)
        assert np.allclose(msgs[1], [0.18, 0.83], atol=0.01)
        assert np.allclose(msgs[2], [0.66, 0.34], atol=0.01)
        star = sender_weights(graph, beliefs, compat)
        agg = star.incoming @ star.outgoing
        np.testing.assert_allclose(agg[1], [0.56, 0.44], rtol=0, atol=1e-12)
        np.testing.assert_allclose(agg[2], [0.56, 0.44], rtol=0, atol=1e-12)
        assert time.perf_counter() - start < 1.0


def _convergent_instances(count=50, seed=2024):
    """Random (weights, teleport, alpha) triples that pass the analytic check."""
    rng = np.random.default_rng(seed)
    alphas = [0.3, 0.6, 0.9]
    instances = []
    attempts = 0
    while len(instances) < count and attempts < 2000:
        attempts += 1
        alpha = alphas[len(instances) % 3]
        n = int(rng.integers(8, 51))
        c = int(rng.integers(2, 6))
        # low target degree keeps the per-class weight mass certifiable
        target_degree = rng.uniform(1.0, 0.7 * c * c)
        p = min(0.9, target_degree / max(n - 1, 1))
        pairs = np.array(
            [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p],
            dtype=np.int64,
        ).reshape(-1, 2)
        graph = build_graph(n, pairs, np.zeros((n, 1)), rng.integers(0, c, n), c)
        b = rng.random((n, c)) + 0.05
        b /= b.sum(axis=1, keepdims=True)
        h, dev = sinkhorn_knopp(rng.random((c, c)) + 0.05)
        from clprop.compatibility import CompatibilityMatrix

        compat = CompatibilityMatrix(h, "doubly_stochastic", dev)
        awf = edge_weights(graph, Beliefs(b, "prior"), compat)
        if not proven_convergent(convergence_check(awf, alpha)):
            continue
        teleport = rng.random((n, c)) + 0.05
        teleport /= teleport.sum(axis=1, keepdims=True)
        instances.append((awf, Beliefs(teleport, "base_prediction"), alpha))
    assert len(instances) == count, f"only {len(instances)} convergent instances found"
    return instances


@pytest.fixture(scope="module")
def convergent_instances():
    return _convergent_instances()


def test_criterion_2_closed_form_equivalence(convergent_instances):
    with criterion(2, "closed form equals iterative limit"):
        start = time.perf_counter()
        worst = 0.0
        for awf, teleport, alpha in convergent_instances:
            out, _ = propagate_clp(
                awf, teleport, PropagationConfig(alpha, max_iters=100000, tol=1e-13)
            )
            exact = closed_form_clp(awf, teleport, alpha)
            worst = max(worst, float(np.abs(exact - out.values).max()))
        assert worst < 1e-8, f"max deviation {worst:.3g}"
        assert time.perf_counter() - start < 30.0


def _known_radius_weights(n, rho_target, seed):
    rng = np.random.default_rng(seed)
    base = rng.random((n, n))
    np.fill_diagonal(base, 0.0)
    rho0 = float(np.max(np.abs(np.linalg.eigvals(base))))  # dense oracle
    scaled = base * (rho_target / rho0)
    assert scaled.max() <= 1.0
    return weights_from_dense(scaled)


def test_criterion_3_convergence_boundary():
    with criterion(3, "convergence boundary at rho = 1/alpha"):
        for alpha in (0.5, 0.8):
            teleport = Beliefs(np.ones((16, 1)), "prior")
            awf = _known_radius_weights(16, 0.8 / alpha, seed=int(alpha * 10))
            _, log = propagate_clp(
                awf, teleport, PropagationConfig(alpha, max_iters=500, tol=1e-10)
            )
            assert log[-1].residual < 1e-10
            assert len(log) <= 500

            awf = _known_radius_weights(16, 1.2 / alpha, seed=100 + int(alpha * 10))
            with pytest.raises(DivergenceError) as err:
                propagate_clp(
                    awf, teleport, PropagationConfig(alpha, max_iters=200, tol=1e-300)
                )
            assert len(err.value.log) <= 200


def test_criterion_4_norm_chain(convergent_instances):
    with criterion(4, "rho <= Frobenius <= entrywise 1-norm"):
        for awf, _, _ in convergent_instances:
            for m in class_slices(awf):
                # dense oracle: the slices have at most 50 nodes
                rho = float(np.max(np.abs(np.linalg.eigvals(m))))
                frob = float(np.sqrt(np.sum(m * m)))
                norm1 = float(np.abs(m).sum())
                assert rho <= frob + 1e-6
                assert frob <= norm1 + 1e-6


def test_criterion_5_sinkhorn_balancing_and_scale_invariance():
    with criterion(5, "Sinkhorn balancing on 100 random matrices"):
        rng = np.random.default_rng(5)
        for _ in range(100):
            size = int(rng.integers(2, 21))
            m = rng.random((size, size)) + 1e-3
            s, _ = sinkhorn_knopp(m)
            np.testing.assert_allclose(s.sum(axis=0), 1.0, atol=1e-9)
            np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-9)
            s3, _ = sinkhorn_knopp(3.0 * m)
            np.testing.assert_allclose(s3, s, atol=1e-8)


def test_criterion_6_synthetic_structure_control():
    with criterion(6, "synthetic graphs hit target homophily and degree"):
        start = time.perf_counter()
        n, c, degree = 2000, 10, 5.0
        for fraction in map(snap_h_fraction, H_LEVELS):
            hs, degs = [], []
            for seed in range(5):
                spec = SyntheticSpec(n, c, degree, fraction, seed)
                graph = generate(spec)[0]
                hs.append(edge_homophily(graph))
                degs.append(graph.arc_count / graph.node_count)
            assert abs(np.mean(hs) - fraction) <= 0.03, f"h off at p_in fraction {fraction}"
            assert abs(np.mean(degs) - degree) / degree <= 0.05
        assert time.perf_counter() - start < 60.0


def test_criterion_7_gaussian_feature_moments():
    with criterion(7, "class-0 feature moments"):
        labels = np.zeros(10000, dtype=np.int64)
        x = gaussian_features(labels, seed=7, num_classes=10)
        target_cov = 3500.0 * np.diag([7.0, 2.0])
        se = np.sqrt(np.diag(target_cov) / 10000.0)
        assert np.all(np.abs(x.mean(axis=0) - [300.0, 0.0]) < 3.0 * se)
        sample_cov = np.cov(x.T)
        scale = np.sqrt(np.outer(np.diag(target_cov), np.diag(target_cov)))
        assert np.all(np.abs(sample_cov - target_cov) <= 0.10 * scale)


def test_criterion_8_gradient_check():
    with criterion(8, "analytic gradients vs central differences"):
        for instance in range(5):
            rng = np.random.default_rng(800 + instance)
            layers = int(rng.integers(1, 4))
            params = dataclasses.replace(init_mlp(4, 6, layers, 3, seed=instance),
                                         dropout_rate=0.0)
            x = rng.standard_normal((10, 4))
            labels = rng.integers(0, 3, 10)
            _, grads = loss_and_gradients(params, x, labels)
            for _ in range(20):
                layer = int(rng.integers(len(params.weights)))
                w = params.weights[layer]
                idx = (int(rng.integers(w.shape[0])), int(rng.integers(w.shape[1])))
                eps = 1e-5
                plus = params.copy()
                plus.weights[layer][idx] += eps
                minus = params.copy()
                minus.weights[layer][idx] -= eps
                numeric = (
                    loss_and_gradients(plus, x, labels)[0]
                    - loss_and_gradients(minus, x, labels)[0]
                ) / (2 * eps)
                analytic = grads[layer][0][idx]
                scale = max(abs(numeric), abs(analytic), 1e-8)
                assert abs(numeric - analytic) / scale < 1e-3


@pytest.fixture(scope="module")
def sweep_reports():
    """CLP/MLP/LP pipeline runs at three homophily levels (five seeds each)."""
    start = time.perf_counter()
    results = {}
    for h in (0.1, 0.5, 0.9):
        dataset = {
            "num_nodes": 2000,
            "num_classes": 10,
            "target_avg_degree": 10.0,
            "h": h,
            "seed": 42,
        }
        graph = generate(SyntheticSpec(2000, 10, 10.0, h, 42))[0]
        for method in ("clp", "mlp_only", "lp"):
            config = ExperimentConfig(
                dataset=dataset, seeds=(0, 1, 2, 3, 4), scheme="medium", method=method
            )
            results[(h, method)] = run_pipeline(config, graph=graph)
    results["elapsed"] = time.perf_counter() - start
    return results


def test_criterion_9_pipeline_sanity(sweep_reports):
    with criterion(9, "pipeline beats its parts at every homophily level"):
        for h in (0.1, 0.5, 0.9):
            clp = sweep_reports[(h, "clp")].mean
            mlp = sweep_reports[(h, "mlp_only")].mean
            lp = sweep_reports[(h, "lp")].mean
            print(f"  h={h}: clp {clp:.4f}  mlp {mlp:.4f}  lp {lp:.4f}")
            assert clp >= mlp - 0.01, f"h={h}: clp {clp:.4f} < mlp {mlp:.4f} - 0.01"
        clp_low = sweep_reports[(0.1, "clp")].mean
        lp_low = sweep_reports[(0.1, "lp")].mean
        assert clp_low >= lp_low + 0.10, f"clp {clp_low:.4f} vs lp {lp_low:.4f}"
        assert sweep_reports["elapsed"] < 600.0


def test_criterion_10_compat_quality_trend():
    with criterion(10, "label rate improves compatibility estimate and accuracy"):
        dataset = {
            "num_nodes": 2000,
            "num_classes": 10,
            "target_avg_degree": 10.0,
            "h": 0.3,
            "seed": 7,
        }
        config = ExperimentConfig(dataset=dataset, seeds=(0, 1, 2, 3, 4), method="clp")
        rows = report_compat_quality(config)
        by_scheme = {row["scheme"]: row for row in rows}
        assert by_scheme["dense"]["mean_dist"] <= by_scheme["sparse"]["mean_dist"]
        assert by_scheme["dense"]["mean_acc"] >= by_scheme["sparse"]["mean_acc"]


def test_criterion_11_byte_identical_reruns(tmp_path):
    with criterion(11, "re-running a command reproduces CSV bytes"):
        bench = tmp_path / "bench"
        assert (
            cli_main(
                ["synth", "--preset", "syn1", "--scale", "0.02", "--seeds", "5",
                 "--out", str(bench)]
            )
            == 0
        )
        run_args = [
            "run",
            "--dataset", str(bench / "h03"),
            "--scheme", "dense",
            "--seeds", "0,1",
            "--method", "clp",
            "--alpha", "0.2,0.5,0.8",
        ]
        payloads = []
        for name in ("first", "second"):
            out = tmp_path / name
            assert cli_main(run_args + ["--out", str(out)]) == 0
            payloads.append(
                (out / "report.csv").read_bytes() + (out / "summary.csv").read_bytes()
            )
        assert payloads[0] == payloads[1]

        manifests = []
        for name in ("m1", "m2"):
            out = tmp_path / name
            assert (
                cli_main(
                    ["synth", "--preset", "syn1", "--scale", "0.02", "--seeds", "5",
                     "--out", str(out)]
                )
                == 0
            )
            manifests.append((out / "h05" / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]
