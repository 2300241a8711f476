"""Span recording for the traced benchmark run.

``Timer`` is the one clock of the harness: untraced runs time their calls
with it, and every span a ``SpanRecorder`` keeps is measured the same way.
``instrument`` wraps public functions of the program at the module attributes
the program looks them up through, so a traced run needs no change to the
program itself.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field


class Timer:
    """Context manager that measures wall time with ``time.perf_counter``."""

    def __enter__(self) -> "Timer":
        self.start = time.perf_counter()
        self.seconds = None
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self.seconds = self.end - self.start


@dataclass
class Span:
    name: str
    start: float
    end: float | None = None
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class SpanRecorder:
    """Keeps every span in memory; spans nest by the order they are opened."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        span = Span(name, 0.0, parent=self._open[-1] if self._open else None, attrs=dict(attrs))
        self._open.append(len(self.spans))
        self.spans.append(span)
        timer = Timer()
        try:
            with timer:
                span.start = timer.start
                yield span
        finally:
            self._open.pop()
            span.end = timer.end

    def children(self, index: int) -> list[Span]:
        return [s for s in self.spans if s.parent == index]

    def self_time(self, index: int) -> float:
        """Span duration minus the time its direct children cover."""
        return self.spans[index].duration - sum(c.duration for c in self.children(index))

    def nesting_errors(self) -> list[str]:
        """Children that leave their parent's interval (the span tree is broken)."""
        errors = []
        for s in self.spans:
            if s.parent is None:
                continue
            p = self.spans[s.parent]
            if s.start < p.start or s.end > p.end:
                errors.append(f"{s.name} leaves the interval of {p.name}")
        return errors

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def layer_self_times(self) -> dict[str, float]:
        table: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            table[s.layer] = table.get(s.layer, 0.0) + self.self_time(i)
        return table

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "attrs": s.attrs}
            for s in self.spans
        ]


@dataclass(frozen=True)
class Probe:
    """One function to wrap: ``module.attr`` becomes a span named ``name``.

    ``name`` may be a callable of the call's ``(args, kwargs)``; ``after`` may
    add attributes to the span from ``(span, args, kwargs, result)``.
    """

    module: str
    attr: str
    name: object
    after: object = None


def _wrap(recorder: SpanRecorder, fn, probe: Probe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = probe.name(args, kwargs) if callable(probe.name) else probe.name
        with recorder.span(name) as span:
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.attrs["raised"] = type(exc).__name__
                raise
            if probe.after is not None:
                probe.after(span, args, kwargs, result)
            return result

    return wrapper


@contextlib.contextmanager
def instrument(recorder: SpanRecorder, probes):
    """Swap each probed attribute for a recording wrapper; restore on exit."""
    saved = []
    try:
        for probe in probes:
            module = importlib.import_module(probe.module)
            fn = getattr(module, probe.attr)
            saved.append((module, probe.attr, fn))
            setattr(module, probe.attr, _wrap(recorder, fn, probe))
        yield recorder
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
