"""Bench-side tracer: spans around the calls into each layer.

One span per call into a layer's public function — name, start, end,
the span that caused it, and the op id every span of one operation
shares.  Spans live in memory and are written once, at the end, as
Chrome trace events (open the file in https://ui.perfetto.dev or
``chrome://tracing``).  A span's *self time* is its duration minus the
part of that interval its child spans cover; ``self_seconds`` sums it
per span name, which is how a saving is attributed to a layer.

Set-up spans are always recorded (a handful per run).  Op spans are
recorded only in a traced run, and there only in the odd slices of
the timed phase (the load generators decide), so latency still comes
from untraced ops.  ``obs.trace_overhead_fraction`` is the measured
cost of a span times the spans opened, over the traced time.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional

__all__ = ["Tracer"]


class _Span:
    __slots__ = ("tracer", "name", "op", "start", "end", "parent", "id")

    def __init__(self, tracer: "Tracer", name: str, op: Optional[int]):
        self.tracer = tracer
        self.name = name
        self.op = op

    def __enter__(self) -> "_Span":
        stack = self.tracer._stack()
        self.parent = stack[-1] if stack else None
        if self.op is None and self.parent is not None:
            self.op = self.parent.op
        stack.append(self)
        self.id = next(self.tracer._ids)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.end = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer._record(self)


class Tracer:
    """In-memory span recorder with Chrome trace-event export."""

    def __init__(self) -> None:
        self._origin = time.perf_counter()
        self._local = threading.local()
        self._ids = itertools.count()
        #: (name, start, end, id, parent id or -1, op id or -1, thread)
        self._spans: List[tuple] = []

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def span(self, name: str, op: Optional[int] = None) -> _Span:
        """``with tracer.span("layer.call", op=i):`` around one call."""
        return _Span(self, name, op)

    def _record(self, span: _Span) -> None:
        parent = span.parent.id if span.parent is not None else -1
        # list.append is atomic under the interpreter lock.
        self._spans.append((span.name, span.start, span.end, span.id,
                            parent, -1 if span.op is None else span.op,
                            threading.get_ident()))

    def add(self, name: str, start: float, end: float,
            op: Optional[int] = None) -> None:
        """Record a span measured elsewhere (e.g. submit -> callback)."""
        self._spans.append((name, start, end, next(self._ids), -1,
                            -1 if op is None else op, 0))

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def durations(self, name: str) -> List[float]:
        """Seconds of every recorded span called ``name``, in order."""
        return [end - start for span_name, start, end, *_ in self._spans
                if span_name == name]

    def self_seconds(self) -> Dict[str, float]:
        """Per span name: total duration minus what children cover."""
        child_time = defaultdict(float)
        for _, start, end, _, parent, *_ in self._spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for name, start, end, span_id, *_ in self._spans:
            totals[name] += (end - start) - child_time.get(span_id, 0.0)
        return dict(totals)

    def __len__(self) -> int:
        return len(self._spans)

    @staticmethod
    def span_cost(rounds: int = 2000) -> float:
        """Seconds one span costs the thread that opens it, measured."""
        scratch = Tracer()
        start = time.perf_counter()
        for op in range(rounds):
            with scratch.span("cost", op=op):
                pass
        return (time.perf_counter() - start) / rounds

    def chrome_trace(self, metadata: Optional[dict] = None) -> dict:
        """The spans as a Chrome trace-event JSON object."""
        pid = os.getpid()
        tids: Dict[int, int] = {}
        events = []
        for name, start, end, span_id, parent, op, thread in self._spans:
            tid = tids.setdefault(thread, len(tids))
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": (start - self._origin) * 1e6,
                "dur": max(0.0, (end - start) * 1e6),
                "pid": pid, "tid": tid,
                "args": {"id": span_id, "parent": parent, "op": op},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "metadata": metadata or {}}

    def write(self, path: str, metadata: Optional[dict] = None) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(metadata), handle)
