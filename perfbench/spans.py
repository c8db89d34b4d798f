"""In-memory spans recorded around calls into the library's layers.

A span holds its name, start, end, parent span and input id; ``units``
optionally counts the work inside it (steps, samples, values).  Spans are
appended to a list while the run goes and written out once when it ends.
The calls a benchmark run makes are sequential, so a span's children never
overlap and its self time is its duration minus the sum of theirs.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "input_id", "units")

    def __init__(self, name, start, parent, input_id):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.input_id = input_id
        self.units = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per ``with tracer.span(name):`` block."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, input_id=None):
        parent = self._open[-1] if self._open else None
        if input_id is None and parent is not None:
            input_id = self.spans[parent].input_id
        span = Span(name, perf_counter(), parent, input_id)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def by_name(self) -> dict[str, list[tuple[Span, float]]]:
        """(span, self time) pairs grouped by span name."""
        out: dict[str, list[tuple[Span, float]]] = {}
        for s, own in zip(self.spans, self.self_times()):
            out.setdefault(s.name, []).append((s, own))
        return out

    def write(self, path) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                record = {
                    "id": i,
                    "name": s.name,
                    "start_s": s.start - origin,
                    "end_s": s.end - origin,
                    "self_s": own[i],
                    "parent": s.parent,
                    "input": s.input_id,
                    "units": s.units,
                }
                fh.write(json.dumps(record) + "\n")


class _Discard:
    """Stands in for a span when tracing is off; attribute writes are kept
    on this one shared object and never read."""

    units = None


class NullTracer:
    """Tracing off: ``span`` costs one generator frame and records nothing."""

    _discard = _Discard()

    @contextmanager
    def span(self, name: str, input_id=None):
        yield self._discard
