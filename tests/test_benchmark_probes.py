"""The traced benchmark run wraps program functions by module attribute
(``benchmarks/workloads.py``, ``PROBES``); a refactor that drops or renames
one of them breaks every traced run, so each name is checked here."""

import importlib
from pathlib import Path

import numpy as np

import clprop.pipeline as pipeline
from clprop.compatibility import Beliefs
from clprop.propagation import PropagationConfig

from conftest import weights_from_dense

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_every_probe_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    workloads = importlib.import_module("workloads")
    assert workloads.PROBES
    for probe in workloads.PROBES:
        module = importlib.import_module(probe.module)
        assert callable(getattr(module, probe.attr, None)), f"{probe.module}.{probe.attr}"


def test_clp_probe_reads_a_real_call(monkeypatch):
    """The propagate_clp probe reads the call's weights (``arcs``,
    ``num_classes``), its config and the returned log; each span of a traced
    run carries what it read."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    workloads = importlib.import_module("workloads")
    spans = importlib.import_module("spans")
    probe = next(p for p in workloads.PROBES if p.attr == "propagate_clp")
    # arcs (0, 1), (1, 0) and (1, 2) of weight 0.25 in both classes
    awf = weights_from_dense(np.array([[0, 0.25, 0], [0.25, 0, 0], [0, 0.25, 0]]), 2)
    teleport = Beliefs(np.full((3, 2), 0.5), "prior")
    config = PropagationConfig(0.5, max_iters=4, tol=0.0)
    with spans.instrument(spans.SpanRecorder(), [probe]) as recorder:
        pipeline.propagate_clp(awf, teleport, config)
        pipeline.propagate_clp(awf=awf, teleport=teleport, config=config)
    assert [span.attrs for span in recorder.spans] == 2 * [
        {"iterations": 4, "arcs": 3, "classes": 2, "budget": True}
    ]


def test_workloads_run_at_tiny_size(monkeypatch, tmp_path):
    """Beyond the probes, the harness calls the program through ``warm_up``
    (``run_pipeline(config, graph=...)``, ``inspect_dataset``) and through
    each workload's set-up and unit (``preset_spec``, ``gaussian_features``,
    ``make_splits(..., 1)[0]``, the CLI); one tiny round of each keeps those
    calls working."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    workloads = importlib.import_module("workloads")
    workloads.warm_up(1)
    for cls in (workloads.HSweep, workloads.InspectSyn2):
        work = tmp_path / cls.name
        work.mkdir()
        workload = cls(1, "tiny", work)
        workload.setup()
        units = [workload.run_unit(), workload.run_unit()]
        assert [unit.errors for unit in units] == [[], []], cls.name
        # a second unit with other outputs is what run.py reports as outputs
        # that differ between repetitions
        assert workload.check(units) == [], cls.name


def test_each_candidate_runs_under_its_method_probe(monkeypatch, tmp_path):
    """In a traced HSweep unit, each ``clprop run`` of CLP* holds one
    ``propagation.clp_star`` span per candidate, each run of CLP one
    ``clp_norm`` or ``clp_raw`` span per candidate (9 alphas x 2 teleports x
    2 normalizations) and each run of LP one ``propagation.lp`` span per
    alpha, with no span of another method.  LP and CLP* call the function
    that CLP calls, so a wrapper around it, or a call through CLP's name,
    adds or moves spans."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    workloads = importlib.import_module("workloads")
    spans = importlib.import_module("spans")
    workload = workloads.HSweep(1, "tiny", tmp_path)
    workload.setup()
    with spans.instrument(spans.SpanRecorder(), workloads.PROBES) as recorder:
        unit = workload.run_unit()
    assert unit.errors == []
    assert recorder.nesting_errors() == []
    calls = [i for i, span in enumerate(recorder.spans) if span.name == "pipeline.run"]
    methods = [method for _ in workloads.SWEEP_H for method in workloads.SWEEP_METHODS]
    assert len(calls) == len(methods)
    names = ("propagation.clp_star", "propagation.clp_norm", "propagation.clp_raw",
             "propagation.lp")
    expected = {"mlp": [0, 0, 0, 0], "lp": [0, 0, 0, 9], "clp": [0, 18, 18, 0],
                "clp-star": [36, 0, 0, 0]}
    for method, call in zip(methods, calls):
        below = {call}
        for index, span in enumerate(recorder.spans):  # a parent opens before its children
            if span.parent in below:
                below.add(index)
        held = [recorder.spans[index].name for index in below]
        assert [held.count(name) for name in names] == expected[method], method
