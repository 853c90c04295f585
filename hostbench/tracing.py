"""In-memory spans around the benchmark's own calls into each layer.

A :class:`Tracer` records one :class:`Span` per ``with tracer.span(name)``
block: its name, start and end (``perf_counter`` seconds), the span that
encloses it and the op it belongs to.  Nothing is written until
:meth:`Tracer.write_chrome` exports the whole list as Chrome trace-event
JSON (open it in ``chrome://tracing`` or Perfetto).

Spans live only in this benchmark's files; the program's own phase
split inside a launch comes from ``repro.gpusim.hostprof``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

#: Span names the workloads open around their layer calls.
SPAN_READ = "graphs.read_edge_list"
SPAN_LAUNCH = "runtime.launch"
SPAN_REPLAY = "serve.serve_trace"


@dataclass
class Span:
    span_id: int
    name: str
    op_id: int
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``span()`` nests by the innermost open span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self.op_id = 0

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1].span_id if self._open else None
        span = Span(len(self.spans), name, self.op_id, parent, perf_counter())
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._open.pop()

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.span_id]

    def self_seconds(self, span: Span) -> float:
        """The span's duration minus the part its direct children cover."""
        return span.seconds - sum(c.seconds for c in self.children(span))

    def write_chrome(self, path) -> None:
        """Write every span as a Chrome trace-event ``X`` (complete) event."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = [{"name": s.name, "ph": "X", "pid": 1, "tid": 1,
                   "ts": (s.start - origin) * 1e6, "dur": s.seconds * 1e6,
                   "args": {"op": s.op_id, "span": s.span_id,
                            "parent": s.parent}}
                  for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
