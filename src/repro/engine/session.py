"""Query sessions: batched execution with options, stats, and caching.

A :class:`QuerySession` wraps any :class:`~repro.engine.base.PathIndex`
and executes query batches under a :class:`QueryOptions` policy:

* **mode** — what to compute per pair: ``"distance"`` (fast path where
  the family has one), ``"spg"`` (the full shortest path graph) or
  ``"count-paths"`` (the Figure-1 quantity, via the SPG's DAG dynamic
  program);
* **time budget** — an optional wall-clock cap; a batch stops early
  and is reported as truncated instead of blowing the serving SLA;
* **stats** — per-query :class:`~repro.core.search.SearchStats` where
  the family is instrumented, aggregated over the batch (the §6.5
  traversal accounting);
* **cache** — an optional LRU result cache keyed by ``(u, v, mode,
  index.version)``; repeated pairs in a workload (the common case for
  serving traffic) are answered without touching the index, and the
  version component invalidates every cached answer the moment a
  mutable index applies an update. On undirected families the key is
  normalized to ``(min(u, v), max(u, v))`` — gated on
  :attr:`~repro.engine.base.PathIndex.is_directed` — so a ``(v, u)``
  lookup hits what ``(u, v)`` cached;
* **bulk distance dispatch** — a ``"distance"``-mode batch is
  deduplicated and answered through one
  :meth:`~repro.engine.base.PathIndex.distance_many` kernel call
  instead of a per-pair Python loop (:meth:`QuerySession.query_many`).

The harness's timing loops and the CLI ``query`` subcommand both run
on sessions, so every index family gets batching, budgets and caching
without implementing any of it.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .._util import Stopwatch
from ..core.search import SearchStats
from ..errors import QueryError
from ..obs import get_registry, log_slow_query, span, start_trace
from ..obs.profiler import attach_profile
from ..obs.trace import Span, TraceSampler
from .base import PathIndex
from .batch import pairs_to_arrays

__all__ = ["QueryOptions", "QueryRecord", "BatchReport", "QuerySession",
           "normalize_pair"]

#: Valid ``QueryOptions.mode`` values.
QUERY_MODES = ("distance", "spg", "count-paths")

#: Pairs per bulk kernel call when a time budget must be honoured —
#: the budget is checked between chunks, so this bounds the overshoot.
_BUDGET_CHUNK = 256


def normalize_pair(u: int, v: int, mode: str,
                   directed: bool) -> Tuple[int, int]:
    """Canonical pair order for cache and dedup keys.

    Distances and path counts are the same number either way on an
    undirected index, so those modes normalize to ``(min, max)`` and
    ``(v, u)`` shares ``(u, v)``'s key. SPG answers are *oriented*
    (``source``/``target``, ``iter_paths`` direction), so ``"spg"``
    keeps the requested order — a reversed caller must never be
    served a flipped object. Directed indexes always keep order. The
    session LRU and the serving batcher both key through this one
    predicate, so the two layers cannot drift.
    """
    if v < u and mode != "spg" and not directed:
        return v, u
    return u, v


@dataclass(frozen=True)
class QueryOptions:
    """Execution policy for a :class:`QuerySession`.

    Attributes
    ----------
    mode:
        Per-pair computation: ``"distance"``, ``"spg"`` or
        ``"count-paths"``.
    time_budget:
        Wall-clock seconds a batch may spend; ``None`` means no cap.
        An exhausted budget truncates the batch (it never raises —
        partial results are the point of a budget).
    collect_stats:
        Record per-query :class:`SearchStats` where the family
        provides them (``"spg"``/``"count-paths"`` modes only).
    cache_size:
        Capacity of the LRU result cache; ``0`` disables caching.
    trace_sample:
        Fraction of queries (scalar) / batches (bulk) executed under
        a :mod:`repro.obs` trace: per-stage spans feed the
        ``stage_seconds`` histograms and the last sampled trace is
        kept on :attr:`QuerySession.last_trace`. Sampling is
        deterministic (every ``1/rate``-th query); ``0`` (the
        default) skips tracing entirely on a no-op fast path.
    slow_query_ms:
        Log executed queries slower than this many milliseconds to
        the ``repro.slowlog`` logger, with the trace id and per-stage
        breakdown when the query was sampled. ``None`` disables.
    """

    mode: str = "spg"
    time_budget: Optional[float] = None
    collect_stats: bool = False
    cache_size: int = 0
    trace_sample: float = 0.0
    slow_query_ms: Optional[float] = None

    def __post_init__(self) -> None:
        self.resolve_mode(self.mode)
        if self.cache_size < 0:
            raise QueryError("cache_size must be >= 0")
        if self.time_budget is not None and self.time_budget <= 0:
            raise QueryError("time_budget must be positive")
        if not 0.0 <= self.trace_sample <= 1.0:
            raise QueryError("trace_sample must be in [0, 1]")
        if self.slow_query_ms is not None and self.slow_query_ms < 0:
            raise QueryError("slow_query_ms must be >= 0")

    def resolve_mode(self, mode: Optional[str]) -> str:
        """``mode`` once checked, or this policy's own for ``None``."""
        if mode is None:
            return self.mode
        if mode not in QUERY_MODES:
            raise QueryError(
                f"unknown query mode {mode!r}; "
                f"expected one of {QUERY_MODES}"
            )
        return mode


@dataclass
class QueryRecord:
    """One executed query: inputs, result, and instrumentation."""

    u: int
    v: int
    value: Any
    seconds: float
    cached: bool = False
    stats: Optional[SearchStats] = None
    mode: str = "spg"


@dataclass
class BatchReport:
    """Outcome of :meth:`QuerySession.run` over one batch."""

    mode: str
    records: List[QueryRecord] = field(default_factory=list)
    elapsed: float = 0.0
    truncated: bool = False

    @property
    def results(self) -> List[Any]:
        """Per-pair values, in input order (distance/SPG/count)."""
        return [record.value for record in self.records]

    @property
    def num_queries(self) -> int:
        return len(self.records)

    @property
    def cache_hits(self) -> int:
        return sum(1 for record in self.records if record.cached)

    def mean_query_ms(self) -> float:
        """Mean batch wall-clock per *record*, in milliseconds.

        Cache hits are records too, so under a warm cache this is an
        amortized number, not the latency of an actual index query —
        see :meth:`mean_executed_ms` for that.
        """
        if not self.records:
            return 0.0
        return self.elapsed * 1000.0 / len(self.records)

    @property
    def executed_queries(self) -> int:
        """Records that actually ran a query (cache hits excluded)."""
        return sum(1 for record in self.records if not record.cached)

    def mean_executed_ms(self) -> float:
        """Mean measured time per *executed* query, in milliseconds.

        Excludes cache hits (0-second records that would understate
        true per-query latency) and sums the executed records' own
        timings, so batches dominated by hot keys still report what a
        cold query costs. ``0.0`` when every record was a hit.
        """
        executed = [r.seconds for r in self.records if not r.cached]
        if not executed:
            return 0.0
        return sum(executed) * 1000.0 / len(executed)

    def aggregate_stats(self) -> Dict[str, Any]:
        """Fold the per-query :class:`SearchStats` into batch totals."""
        collected = [r.stats for r in self.records if r.stats is not None]
        return {
            "num_queries": self.num_queries,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": (self.cache_hits / self.num_queries
                               if self.records else 0.0),
            "mode_counts": dict(Counter(r.mode for r in self.records)),
            "truncated": self.truncated,
            "elapsed_seconds": self.elapsed,
            "mean_query_ms": self.mean_query_ms(),
            "executed_queries": self.executed_queries,
            "mean_executed_ms": self.mean_executed_ms(),
            "queries_with_stats": len(collected),
            "edges_traversed": sum(s.edges_traversed for s in collected),
            "used_reverse": sum(1 for s in collected if s.used_reverse),
            "used_recover": sum(1 for s in collected if s.used_recover),
        }


class QuerySession:
    """Batch query executor over one index.

    Sessions are cheap to create and hold only the LRU cache (plus its
    hit/miss counters) as mutable state; one session per workload (or
    per serving worker) is the intended granularity. The cache is
    guarded by a lock, so a session may be shared by the serving
    front-end's threads; the underlying indexes are read-only at query
    time, so the queries themselves need no coordination.
    """

    def __init__(self, index: PathIndex,
                 options: Optional[QueryOptions] = None) -> None:
        self._index = index
        self.options = options if options is not None else QueryOptions()
        self._cache: "OrderedDict[Tuple[int, int, str, int], Any]" = \
            OrderedDict()
        self._cache_lock = threading.Lock()
        self._cache_hits = 0
        self._cache_misses = 0
        # Registry instruments are resolved once here; the hot paths
        # below only pay one locked `+=` per event (or per batch).
        registry = get_registry()
        self._m_cache_hits = registry.counter(
            "session_cache_hits_total",
            help="Session LRU result-cache hits (incl. batch dedup).")
        self._m_cache_misses = registry.counter(
            "session_cache_misses_total",
            help="Session LRU result-cache misses.")
        self._m_queries = {
            mode: registry.counter("session_queries_total",
                                   help="Queries accepted by sessions.",
                                   mode=mode)
            for mode in QUERY_MODES}
        self._m_seconds = {
            mode: registry.histogram(
                "session_query_seconds",
                help="Per-call session execution time (one kernel "
                     "call for a distance batch).", mode=mode)
            for mode in QUERY_MODES}
        self._sampler = TraceSampler(self.options.trace_sample)
        #: Root span of the most recent sampled trace (CLI/debugging).
        self.last_trace: Optional[Span] = None

    @property
    def index(self) -> PathIndex:
        return self._index

    def _cache_key(self, u: int, v: int,
                   mode: str) -> Tuple[int, int, str, int]:
        """Cache/dedup key (see :func:`normalize_pair` for symmetry)."""
        u, v = normalize_pair(u, v, mode, self._index.is_directed)
        return (u, v, mode, self._index.version)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def query(self, u: int, v: int,
              mode: Optional[str] = None) -> QueryRecord:
        """Execute one query under the session's options.

        ``mode`` overrides the session-wide ``options.mode`` for this
        query (the serving workers answer mixed-mode traffic through
        one session); when omitted the session default applies.

        The cache key includes the index's :attr:`~repro.engine.base.
        PathIndex.version`, so entries cached before a mutation can
        never be served after it — they simply stop matching and age
        out of the LRU. On an undirected index the key is symmetric
        for the orientation-free modes (``distance``,
        ``count-paths``): ``query(v, u)`` hits what ``query(u, v)``
        cached.
        """
        mode = self.options.resolve_mode(mode)
        u, v = self._index.check_pair(u, v)
        if self._sampler.should_sample():
            with start_trace("query", u=u, v=v, mode=mode) as root:
                record = self._query_inner(u, v, mode)
            # With a sampling profiler running, the trace carries
            # stack attribution (slow logs print it as profile=...).
            attach_profile(root)
            self.last_trace = root
            self._maybe_slow(record, root)
            return record
        record = self._query_inner(u, v, mode)
        self._maybe_slow(record, None)
        return record

    def _query_inner(self, u: int, v: int, mode: str) -> QueryRecord:
        options = self.options
        key = self._cache_key(u, v, mode)
        self._m_queries[mode].inc()
        if options.cache_size:
            with span("session.cache"):
                with self._cache_lock:
                    if key in self._cache:
                        self._cache.move_to_end(key)
                        self._cache_hits += 1
                        self._m_cache_hits.inc()
                        return QueryRecord(
                            u=u, v=v, value=self._cache[key],
                            seconds=0.0, cached=True, mode=mode)
                    self._cache_misses += 1
                    self._m_cache_misses.inc()
        stats = None
        with span("session.scalar", mode=mode):
            with Stopwatch() as sw:
                if mode == "distance":
                    value = self._index.distance(u, v)
                else:
                    if options.collect_stats:
                        spg, stats = self._index.query_with_stats(u, v)
                    else:
                        spg = self._index.query(u, v)
                    value = spg if mode == "spg" else spg.count_paths()
        self._m_seconds[mode].observe(sw.elapsed)
        if options.cache_size:
            with self._cache_lock:
                self._cache[key] = value
                if len(self._cache) > options.cache_size:
                    self._cache.popitem(last=False)
        return QueryRecord(u=u, v=v, value=value, seconds=sw.elapsed,
                           stats=stats, mode=mode)

    def _maybe_slow(self, record: QueryRecord,
                    root: Optional[Span]) -> None:
        threshold = self.options.slow_query_ms
        if threshold is None or record.cached:
            return
        elapsed_ms = record.seconds * 1000.0
        if elapsed_ms >= threshold:
            log_slow_query(record.u, record.v, record.mode,
                           elapsed_ms, threshold, root)

    def query_many(self, pairs: Iterable[Tuple[int, int]],
                   mode: Optional[str] = None) -> List[QueryRecord]:
        """Answer a batch, bulk-dispatching where the mode allows it.

        ``"distance"`` batches take the fast path: the cache is
        consulted in one locked pass, the misses are deduplicated on
        their (symmetric, for undirected indexes) keys, the surviving
        unique pairs reach the index as a *single*
        :meth:`~repro.engine.base.PathIndex.distance_many` kernel
        call, and the cache is refilled in one more locked pass.
        Records come back in input order; a record answered from the
        LRU or from another occurrence of its own key in the same
        batch is marked ``cached``. Other modes fall back to per-pair
        :meth:`query` calls (SPG extraction has no batch kernel).
        """
        mode = self.options.resolve_mode(mode)
        us, vs = pairs_to_arrays(pairs, self._index.num_vertices)
        pairs = list(zip(us.tolist(), vs.tolist()))
        if self._sampler.should_sample():
            with start_trace("query_many", mode=mode,
                             pairs=len(pairs)) as root:
                records = self._query_many_inner(pairs, mode)
            attach_profile(root)
            self.last_trace = root
            if self.options.slow_query_ms is not None:
                for record in records:
                    self._maybe_slow(record, root)
            return records
        records = self._query_many_inner(pairs, mode)
        if self.options.slow_query_ms is not None:
            for record in records:
                self._maybe_slow(record, None)
        return records

    def _query_many_inner(self, pairs: List[Tuple[int, int]],
                          mode: str) -> List[QueryRecord]:
        if mode != "distance":
            return [self._query_inner(u, v, mode) for u, v in pairs]
        options = self.options
        self._m_queries[mode].inc(len(pairs))
        keys = [self._cache_key(u, v, mode) for u, v in pairs]
        records: List[Optional[QueryRecord]] = [None] * len(pairs)
        misses: "OrderedDict[Tuple[int, int, str, int], List[int]]" = \
            OrderedDict()
        if options.cache_size:
            batch_hits = batch_misses = 0
            with span("session.cache", pairs=len(pairs)):
                with self._cache_lock:
                    for i, key in enumerate(keys):
                        if key in self._cache:
                            self._cache.move_to_end(key)
                            self._cache_hits += 1
                            batch_hits += 1
                            u, v = pairs[i]
                            records[i] = QueryRecord(
                                u=u, v=v, value=self._cache[key],
                                seconds=0.0, cached=True, mode=mode)
                        elif key in misses:
                            # Answered by this batch's own
                            # deduplication without touching the index
                            # — a hit, exactly as the scalar path
                            # would have scored it one query later
                            # (and as the record reports it).
                            self._cache_hits += 1
                            batch_hits += 1
                            misses[key].append(i)
                        else:
                            self._cache_misses += 1
                            batch_misses += 1
                            misses[key] = [i]
            if batch_hits:
                self._m_cache_hits.inc(batch_hits)
            if batch_misses:
                self._m_cache_misses.inc(batch_misses)
        else:
            for i, key in enumerate(keys):
                misses.setdefault(key, []).append(i)
        if misses:
            kernel_pairs = [(key[0], key[1]) for key in misses]
            with span("session.kernel", pairs=len(kernel_pairs)):
                with Stopwatch() as sw:
                    values = self._index.distance_many(kernel_pairs)
            share = sw.elapsed / len(kernel_pairs)
            self._m_seconds[mode].observe(sw.elapsed)
            if options.cache_size:
                with self._cache_lock:
                    for key, value in zip(misses, values):
                        self._cache[key] = value
                        if len(self._cache) > options.cache_size:
                            self._cache.popitem(last=False)
            for key, value in zip(misses, values):
                for position, i in enumerate(misses[key]):
                    u, v = pairs[i]
                    # The first occurrence carries the kernel's cost
                    # share; duplicates were answered by batch dedup.
                    records[i] = QueryRecord(
                        u=u, v=v, value=value,
                        seconds=share if position == 0 else 0.0,
                        cached=position > 0, mode=mode)
        return records

    def run(self, pairs: Iterable[Tuple[int, int]]) -> BatchReport:
        """Execute a batch, honouring the time budget if one is set.

        ``"distance"`` mode dispatches through the bulk
        :meth:`query_many` path — one deduplicated kernel call per
        batch (per chunk, under a time budget). The budget is checked
        between queries or chunks (work in flight is never
        interrupted); once exceeded, the remaining pairs are skipped
        and the report is marked ``truncated``.
        """
        options = self.options
        report = BatchReport(mode=options.mode)
        deadline = None
        if options.time_budget is not None:
            deadline = time.perf_counter() + options.time_budget
        with Stopwatch() as sw:
            if options.mode == "distance":
                pairs = list(pairs)
                if deadline is None:
                    report.records = self.query_many(pairs)
                else:
                    for start in range(0, len(pairs), _BUDGET_CHUNK):
                        if time.perf_counter() > deadline:
                            report.truncated = True
                            break
                        report.records.extend(self.query_many(
                            pairs[start:start + _BUDGET_CHUNK]))
            else:
                for u, v in pairs:
                    if deadline is not None \
                            and time.perf_counter() > deadline:
                        report.truncated = True
                        break
                    report.records.append(self.query(u, v))
        report.elapsed = sw.elapsed
        return report

    # ------------------------------------------------------------------
    # Cache introspection
    # ------------------------------------------------------------------

    @property
    def cache_len(self) -> int:
        with self._cache_lock:
            return len(self._cache)

    @property
    def cache_hits_total(self) -> int:
        """Cumulative cache hits over the session's lifetime."""
        with self._cache_lock:
            return self._cache_hits

    @property
    def cache_misses_total(self) -> int:
        """Cumulative cache misses over the session's lifetime."""
        with self._cache_lock:
            return self._cache_misses

    @property
    def cache_hit_rate(self) -> float:
        """Lifetime hit rate (0.0 when caching is off or unused).

        Both counters are read under the cache lock so concurrent
        front-end threads see one consistent ratio.
        """
        with self._cache_lock:
            looked_up = self._cache_hits + self._cache_misses
            return self._cache_hits / looked_up if looked_up else 0.0

    def clear_cache(self) -> None:
        with self._cache_lock:
            self._cache.clear()
