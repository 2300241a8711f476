"""The traced benchmark run wraps program functions by module attribute
(``benchmarks/workloads.py``, ``PROBES``); a refactor that drops or renames
one of them breaks every traced run, so each name is checked here."""

import importlib
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_every_probe_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    workloads = importlib.import_module("workloads")
    assert workloads.PROBES
    for probe in workloads.PROBES:
        module = importlib.import_module(probe.module)
        assert callable(getattr(module, probe.attr, None)), f"{probe.module}.{probe.attr}"
