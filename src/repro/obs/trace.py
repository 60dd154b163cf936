"""Span-based tracing for the query and build paths.

A *trace* is a tree of :class:`Span` objects rooted by
:func:`start_trace`; instrumented code opens children with
:func:`span`. The design point is the **no-op fast path**: when no
trace is active (the overwhelmingly common case — sampling defaults
to 0), ``span(...)`` returns a shared reusable context manager whose
``__enter__``/``__exit__`` do nothing, so instrumentation sites cost
two dict-free attribute lookups and no allocation.

When a trace *is* active:

* each ``span`` records wall time (``time.perf_counter``), free-form
  attributes, and nested children;
* on close, the span's elapsed time is observed into the registry's
  ``stage_seconds{stage=<name>}`` histogram — stage latency series
  therefore populate **only for sampled queries**, which is what makes
  a low sampling rate cheap;
* :func:`current_add` lets leaf code (the store page cache) attach
  counts to whatever span is open (e.g. page faults during a label
  read) without knowing about the trace structure.

Nesting uses a :class:`contextvars.ContextVar`, so traces are correct
across threads (the Batcher's collector thread never sees a request
thread's trace) and cheap to consult.

Sampling is deterministic, not random: :class:`TraceSampler` carries
an accumulator that adds ``rate`` per decision and fires when it
crosses 1 — ``rate=0.25`` traces exactly every 4th query, ``rate=1``
every query. Deterministic sampling keeps tests exact and spreads
samples evenly under load.

The second half of the module makes the tree *fleet-wide*:

* a :class:`TraceContext` is the picklable sampling decision a
  :class:`~repro.serving.pool.BatchMessage` carries to a worker —
  trace id, the batcher-side parent span id, and the sampled flag;
* :func:`trace_from_context` opens a worker-side root under that
  context, so the worker's stage spans belong to the batcher's trace;
* :func:`span_records` flattens a finished tree into plain-dict
  records (picklable, JSON-ready) that ride home in
  :class:`~repro.serving.pool.BatchResponse.spans` exactly like the
  metrics/profile deltas;
* the Batcher stitches its own records (``queue.wait``, the
  ``serving.request`` envelope) with the worker records into one
  :class:`StitchedTrace` per sampled batch and hands it to a
  :class:`TraceBuffer`;
* :func:`chrome_trace` renders buffered traces as Chrome trace-event
  JSON — ``GET /traces`` and ``repro trace export`` emit it, and the
  file opens directly in Perfetto / ``chrome://tracing``.

Timestamps in span records are wall-clock (``time.time()`` seconds):
monotonic clocks are per-process, so the wall clock is the only
timeline batcher and worker spans can share. Sub-millisecond skew
between processes on one machine is visible in Perfetto but does not
break containment badly enough to matter for stage attribution.

Fleet sampling is two-staged: *head* sampling (the batcher's
:class:`TraceSampler` decides before dispatch whether a batch is
traced at all) and *tail* retention (the buffer, when full, evicts
ordinary traces first and keeps error traces and traces over its
latency threshold — the interesting tail survives a burst of boring
ones).
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
import time
from typing import Any, Dict, Iterable, List, NamedTuple, Optional

from .registry import get_registry

__all__ = [
    "Span", "TraceSampler", "start_trace", "span", "current_add",
    "format_span_tree", "stage_totals",
    "stage_breakdown", "TraceContext", "StitchedTrace", "TraceBuffer",
    "trace_from_context", "span_records", "chrome_trace",
    "validate_chrome_trace", "new_trace_id", "new_span_id",
]

#: Histogram fed by every closed span of a sampled trace.
STAGE_SECONDS = "stage_seconds"

_trace_counter = itertools.count(1)
_span_counter = itertools.count(1)
_counter_lock = threading.Lock()


def new_trace_id() -> str:
    """A fresh process-unique trace id."""
    with _counter_lock:
        serial = next(_trace_counter)
    return f"{os.getpid():x}-{serial:06x}"


def new_span_id() -> str:
    """A fresh process-unique span id."""
    with _counter_lock:
        serial = next(_span_counter)
    return f"{os.getpid():x}-s{serial:06x}"


class Span:
    """One timed stage; spans nest into a tree under a trace root.

    Every span carries a process-unique ``span_id`` and, once entered,
    a wall-clock ``start_wall`` (``time.time()``) alongside the
    monotonic ``perf_counter`` pair used for ``elapsed``. The wall
    clock is what lets spans from *different processes* (batcher and
    workers) land on one Chrome trace-event timeline — perf_counter
    epochs are not comparable across processes. ``remote_parent`` is
    the span id of a parent living in another process (set on roots
    opened from a shipped :class:`TraceContext`).
    """

    __slots__ = ("name", "trace_id", "attrs", "counts", "children",
                 "_start", "elapsed", "parent", "span_id",
                 "start_wall", "remote_parent")

    def __init__(self, name: str, trace_id: str,
                 parent: Optional["Span"] = None,
                 **attrs: Any) -> None:
        self.name = name
        self.trace_id = trace_id
        self.parent = parent
        self.attrs: Dict[str, Any] = dict(attrs)
        self.counts: Dict[str, float] = {}
        self.children: List[Span] = []
        self._start = 0.0
        self.elapsed = 0.0
        self.span_id = new_span_id()
        self.start_wall = 0.0
        self.remote_parent: Optional[str] = None

    def add(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, {self.elapsed * 1e3:.3f}ms, "
                f"children={len(self.children)})")


_current: contextvars.ContextVar[Optional[Span]] = \
    contextvars.ContextVar("repro_obs_span", default=None)


class _NoopSpan:
    """Shared placeholder returned when no trace is active."""

    __slots__ = ()
    name = "noop"
    elapsed = 0.0
    children: List[Span] = []
    attrs: Dict[str, Any] = {}
    counts: Dict[str, float] = {}
    span_id = "noop"
    start_wall = 0.0
    remote_parent = None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def add(self, key: str, amount: float = 1.0) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class _ActiveSpan:
    """Context manager wrapping one child span of the live trace."""

    __slots__ = ("_span", "_token")

    def __init__(self, span_obj: Span) -> None:
        self._span = span_obj
        self._token = None

    def __enter__(self) -> Span:
        self._token = _current.set(self._span)
        self._span.start_wall = time.time()
        self._span._start = time.perf_counter()
        return self._span

    def __exit__(self, *exc) -> None:
        span_obj = self._span
        span_obj.elapsed = time.perf_counter() - span_obj._start
        _current.reset(self._token)
        get_registry().histogram(
            STAGE_SECONDS, stage=span_obj.name).observe(
            span_obj.elapsed)
        return None


class _RootSpan:
    """Context manager for the trace root from :func:`start_trace`."""

    __slots__ = ("_span", "_token")

    def __init__(self, span_obj: Span) -> None:
        self._span = span_obj
        self._token = None

    def __enter__(self) -> Span:
        self._token = _current.set(self._span)
        self._span.start_wall = time.time()
        self._span._start = time.perf_counter()
        return self._span

    def __exit__(self, *exc) -> None:
        span_obj = self._span
        span_obj.elapsed = time.perf_counter() - span_obj._start
        _current.reset(self._token)
        return None


def start_trace(name: str, **attrs: Any):
    """Open a new trace root; use as ``with start_trace(...) as root:``.

    The root itself is *not* observed into ``stage_seconds`` — it is
    the end-to-end envelope the stage spans are compared against.
    """
    return _RootSpan(Span(name, new_trace_id(), **attrs))


def span(name: str, **attrs: Any):
    """A child span of the active trace, or a shared no-op."""
    parent = _current.get()
    if parent is None:
        return _NOOP_SPAN
    child = Span(name, parent.trace_id, parent=parent, **attrs)
    parent.children.append(child)
    return _ActiveSpan(child)


def current_add(key: str, amount: float = 1.0) -> None:
    """Attach a count to the innermost open span (no-op untraced)."""
    open_span = _current.get()
    if open_span is not None:
        open_span.add(key, amount)


class TraceSampler:
    """Deterministic accumulator sampler (see module docstring)."""

    __slots__ = ("_rate", "_accum", "_lock")

    def __init__(self, rate: float = 0.0) -> None:
        self._lock = threading.Lock()
        self.set_rate(rate)

    @property
    def rate(self) -> float:
        return self._rate

    def set_rate(self, rate: float) -> None:
        rate = float(rate)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(
                f"trace sample rate must be in [0, 1], got {rate}")
        with self._lock:
            self._rate = rate
            self._accum = 0.0

    def should_sample(self) -> bool:
        if self._rate <= 0.0:
            return False
        with self._lock:
            self._accum += self._rate
            if self._accum >= 1.0:
                self._accum -= 1.0
                return True
            return False


# ----------------------------------------------------------------------
# Rendering and roll-ups
# ----------------------------------------------------------------------

def _walk(span_obj: Span, depth: int, out: List[str]) -> None:
    pieces = [f"{'  ' * depth}{span_obj.name:<{max(1, 28 - 2 * depth)}}"
              f" {span_obj.elapsed * 1e3:9.3f} ms"]
    extras = []
    for key, value in span_obj.attrs.items():
        extras.append(f"{key}={value}")
    for key, value in span_obj.counts.items():
        formatted = int(value) if float(value).is_integer() else value
        extras.append(f"{key}={formatted}")
    if extras:
        pieces.append("  [" + " ".join(extras) + "]")
    out.append("".join(pieces))
    for child in span_obj.children:
        _walk(child, depth + 1, out)


def format_span_tree(root: Span) -> str:
    """Indented text rendering of a finished trace.

    Includes the trace id, the per-span timing tree, and a coverage
    line: the sum of the root's direct children against the root's
    end-to-end elapsed time (the ``repro trace`` acceptance number).
    """
    lines = [f"trace {root.trace_id}"]
    _walk(root, 0, lines)
    covered = sum(child.elapsed for child in root.children)
    if root.elapsed > 0:
        lines.append(
            f"stage sum {covered * 1e3:.3f} ms / end-to-end "
            f"{root.elapsed * 1e3:.3f} ms "
            f"({100.0 * covered / root.elapsed:.1f}% covered)")
    return "\n".join(lines)


def stage_totals(root: Span) -> Dict[str, float]:
    """Elapsed seconds per span name, summed over the whole tree."""
    totals: Dict[str, float] = {}

    def visit(span_obj: Span) -> None:
        totals[span_obj.name] = totals.get(span_obj.name, 0.0) \
            + span_obj.elapsed
        for child in span_obj.children:
            visit(child)

    for child in root.children:
        visit(child)
    return totals


def stage_breakdown(root: Span) -> List[Dict[str, Any]]:
    """Flat per-stage summary rows for logs (name, ms, counts)."""
    rows: List[Dict[str, Any]] = []

    def visit(span_obj: Span, depth: int) -> None:
        row: Dict[str, Any] = {
            "stage": span_obj.name,
            "ms": round(span_obj.elapsed * 1e3, 4),
            "depth": depth,
        }
        if span_obj.counts:
            row["counts"] = dict(span_obj.counts)
        rows.append(row)
        for child in span_obj.children:
            visit(child, depth + 1)

    for child in root.children:
        visit(child, 0)
    return rows


# ----------------------------------------------------------------------
# Cross-process traces: context propagation, buffering, export
# ----------------------------------------------------------------------

class TraceContext(NamedTuple):
    """The trace state a batch carries across the process boundary."""

    trace_id: str
    #: Span id of the batcher-side envelope span; the worker's root
    #: reports it as its remote parent, which is what lets the
    #: batcher stitch the two trees without coordination.
    parent_span_id: str
    sampled: bool = True


def trace_from_context(context: TraceContext, name: str, **attrs: Any):
    """Open a trace root continuing a remote parent's trace.

    Returns the same context manager as :func:`start_trace`; the root
    span carries the context's trace id and records the remote parent
    span id, so :func:`span_records` emits it as a child of the
    batcher-side envelope instead of an orphan root.
    """
    root = Span(name, context.trace_id, **attrs)
    root.remote_parent = context.parent_span_id
    return _RootSpan(root)


def span_records(root: Optional[Span],
                 process: str = "main") -> Optional[List[dict]]:
    """Flatten a finished span tree into plain-dict records.

    Each record is picklable and JSON-ready::

        {"trace": id, "span": id, "parent": id-or-None, "name": str,
         "ts": wall-seconds, "dur": seconds, "proc": str,
         "attrs": {...}, "counts": {...}}

    ``None`` in, ``None`` out (the untraced batch fast path).
    """
    if root is None:
        return None
    records: List[dict] = []

    def visit(span_obj: Span, parent_id: Optional[str]) -> None:
        record = {
            "trace": span_obj.trace_id,
            "span": span_obj.span_id,
            "parent": parent_id,
            "name": span_obj.name,
            "ts": span_obj.start_wall,
            "dur": span_obj.elapsed,
            "proc": process,
        }
        if span_obj.attrs:
            record["attrs"] = dict(span_obj.attrs)
        if span_obj.counts:
            record["counts"] = dict(span_obj.counts)
        records.append(record)
        for child in span_obj.children:
            visit(child, span_obj.span_id)

    visit(root, root.remote_parent)
    return records


class StitchedTrace(NamedTuple):
    """One fully stitched trace: batcher + worker span records."""

    trace_id: str
    #: Flat span records (see :func:`span_records`); exactly one has
    #: ``parent=None`` — the batcher-side envelope root.
    spans: List[dict]
    #: Wall-clock start (seconds) and end-to-end duration (seconds).
    ts: float
    duration: float
    error: bool = False
    mode: Optional[str] = None
    pairs: int = 0

    @property
    def duration_ms(self) -> float:
        return self.duration * 1e3


class TraceBuffer:
    """Bounded in-memory store of stitched traces with tail retention.

    ``capacity`` bounds memory; when full, the *oldest ordinary* trace
    is evicted first — error traces and traces at or over ``slow_ms``
    end-to-end latency are retained preferentially, so the tail worth
    debugging survives long after the traffic that produced it. Once
    every buffered trace is retained-class, the oldest goes anyway
    (the buffer never exceeds ``capacity``).
    """

    def __init__(self, capacity: int = 256,
                 slow_ms: float = 100.0) -> None:
        if capacity < 1:
            raise ValueError("trace buffer capacity must be >= 1")
        self.capacity = capacity
        self.slow_ms = float(slow_ms)
        self._lock = threading.Lock()
        self._traces: List[StitchedTrace] = []
        self.added_total = 0
        self.evicted_total = 0

    def _retained(self, trace: StitchedTrace) -> bool:
        return trace.error or trace.duration_ms >= self.slow_ms

    def add(self, trace: StitchedTrace) -> None:
        with self._lock:
            self.added_total += 1
            if len(self._traces) >= self.capacity:
                victim = next(
                    (i for i, t in enumerate(self._traces)
                     if not self._retained(t)), 0)
                del self._traces[victim]
                self.evicted_total += 1
            self._traces.append(trace)

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def traces(self, *, limit: Optional[int] = None,
               min_ms: float = 0.0,
               errors_only: bool = False) -> List[StitchedTrace]:
        """Newest-first filtered view of the buffered traces."""
        with self._lock:
            out = list(self._traces)
        out.reverse()
        if errors_only:
            out = [t for t in out if t.error]
        if min_ms > 0:
            out = [t for t in out if t.duration_ms >= min_ms]
        if limit is not None:
            out = out[:limit]
        return out

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            buffered = len(self._traces)
            errors = sum(1 for t in self._traces if t.error)
        return {
            "buffered": buffered,
            "errors": errors,
            "capacity": self.capacity,
            "slow_ms": self.slow_ms,
            "added_total": self.added_total,
            "evicted_total": self.evicted_total,
        }


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------

def chrome_trace(traces: Iterable[StitchedTrace]) -> Dict[str, Any]:
    """Render stitched traces as a Chrome trace-event JSON object.

    Uses complete (``"ph": "X"``) duration events with microsecond
    ``ts``/``dur``, one synthetic pid per originating process
    (``batcher``, ``worker-N``) named through ``process_name``
    metadata events — the layout Perfetto and ``chrome://tracing``
    group lanes by. Span attrs/counts land in ``args``.
    """
    events: List[dict] = []
    pids: Dict[str, int] = {}

    def pid_of(proc: str) -> int:
        pid = pids.get(proc)
        if pid is None:
            pid = len(pids) + 1
            pids[proc] = pid
            events.append({
                "ph": "M", "name": "process_name", "pid": pid,
                "tid": 0, "args": {"name": proc},
            })
        return pid

    for trace in traces:
        for record in trace.spans:
            args: Dict[str, Any] = {
                "trace_id": record.get("trace", trace.trace_id),
                "span_id": record.get("span"),
            }
            if record.get("parent") is not None:
                args["parent_span_id"] = record["parent"]
            for key in ("attrs", "counts"):
                for name, value in (record.get(key) or {}).items():
                    args[name] = value
            events.append({
                "ph": "X",
                "name": record["name"],
                "cat": "serving" if trace.error is False else "error",
                "ts": record["ts"] * 1e6,
                "dur": max(0.0, record["dur"]) * 1e6,
                "pid": pid_of(record.get("proc", "main")),
                "tid": 1,
                "args": args,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome_trace(payload: Any) -> List[str]:
    """Structural check against the Chrome trace-event format.

    Returns a list of problems (empty means the payload loads in
    Perfetto / ``chrome://tracing``). Checked: the JSON-object array
    form with a ``traceEvents`` list, per-event ``ph``/``name``
    fields, numeric non-negative ``ts``/``dur`` on complete events,
    and integer ``pid``/``tid``.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"top level must be a JSON object, got "
                f"{type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["'traceEvents' must be a list"]
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if not isinstance(ph, str) or not ph:
            problems.append(f"{where}: missing phase 'ph'")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: missing 'name'")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"{where}: '{key}' must be an int")
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: 'ts' must be a non-negative "
                            f"number (microseconds)")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: complete event needs a "
                                f"non-negative 'dur'")
    return problems
