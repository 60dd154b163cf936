"""Request batching: coalescing, deduplication, admission control.

Per-request IPC would drown the worker pool in queue overhead — a
label-merge distance query costs tens of microseconds, about the same
as pickling one message. The :class:`Batcher` amortizes that cost by
coalescing in-flight requests into batches, and exploits traffic
skew by *deduplicating* within a batch: identical ``(u, v, mode)``
keys are computed once and fanned out to every waiting caller. For
undirected indexes (``directed=False``, the default — gate it on
:attr:`~repro.engine.base.PathIndex.is_directed`) the key of an
orientation-free request (``distance`` / ``count-paths``) is
normalized to ``(min(u, v), max(u, v))``, so ``(v, u)`` requests
coalesce with ``(u, v)`` instead of doubling the worker work; the
answers are identical numbers either way. ``spg`` requests keep
ordered keys — an SPG is oriented, and a reversed caller must not
receive a flipped object. Under hot-key traffic (see
``sample_pairs_hotspot``) this cuts worker work well below the
request count.

Flow control is explicit rather than emergent:

* **admission control** — at most ``max_pending`` requests may be
  unresolved at once; past that, :meth:`submit` raises
  :class:`~repro.errors.ServiceOverloadedError` immediately instead
  of growing an unbounded queue (the HTTP front-end maps this to 503);
* **time budgets** — with a ``time_budget`` (taken from the service's
  :class:`~repro.engine.session.QueryOptions`), a request that is
  still queued at its deadline fails with
  :class:`~repro.errors.RequestExpiredError` at flush, and one whose
  answer arrives late gets the same error instead of a stale success.

A dispatcher thread flushes an accumulating batch when it reaches
``max_batch`` distinct keys or has aged ``max_delay`` seconds; a
collector thread resolves futures from worker responses. Batches
whose snapshot was retired under them (a hot-swap race) are retried
once against the current snapshot before failing their futures.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from ..engine.session import normalize_pair
from ..errors import (
    RequestExpiredError,
    ServiceOverloadedError,
    ServingError,
)
from ..obs import get_registry
from ..obs.profiler import merge_folded
from ..obs.slowlog import log_slow_query
from ..obs.trace import (
    StitchedTrace,
    TraceBuffer,
    TraceContext,
    TraceSampler,
    new_span_id,
    new_trace_id,
)
from .pool import BatchMessage, BatchResponse, PairError, WorkerPool
from .snapshot import SnapshotHandle

__all__ = ["Batcher", "Answer"]

_log = logging.getLogger("repro.serving")

#: ``counters`` keys whose registry mirror keeps a bespoke name (the
#: respawn/retry series the observability issue names explicitly);
#: every other key mirrors as ``serving_<key>_total``.
_COUNTER_SERIES = {
    "worker_deaths": "serving_worker_respawns_total",
    "retries": "serving_retirement_retries_total",
}


class Answer(NamedTuple):
    """A resolved request: the value plus the epoch that served it."""

    value: object
    epoch: int


@dataclass
class _Entry:
    """All callers waiting on one deduplicated ``(u, v)`` key."""

    futures: List[Future] = field(default_factory=list)
    deadline: Optional[float] = None
    #: ``time.monotonic()`` of the first caller's admission; feeds the
    #: ``serving_request_seconds`` end-to-end latency histogram.
    submitted: float = 0.0
    #: ``time.monotonic()`` of the batch dispatch; ``dispatched -
    #: submitted`` is the queue wait, the rest of the end-to-end time
    #: is worker residency (both show up in slow-query records).
    dispatched: float = 0.0


@dataclass
class _Accumulating:
    """A per-mode batch still open for coalescing."""

    opened: float
    entries: "Dict[Tuple[int, int], _Entry]" = field(
        default_factory=dict)


@dataclass
class _InFlight:
    """A dispatched batch awaiting its response."""

    mode: Optional[str]
    keys: List[Tuple[int, int]]
    entries: Dict[Tuple[int, int], _Entry]
    retried: bool = False
    #: Distributed-trace context of a sampled batch. Survives retries
    #: and worker-death re-dispatch, so the retried attempt's worker
    #: spans still land in the *same* stitched trace — a killed worker
    #: must not orphan a trace.
    trace: Optional[TraceContext] = None
    #: Wall-clock bookkeeping for the batcher-side records (batch
    #: opened for coalescing / handed to the pool).
    opened_wall: float = 0.0
    dispatched_wall: float = 0.0
    #: Worker span records from *failed* attempts, kept so the final
    #: stitched trace shows every attempt, not just the one that
    #: resolved.
    spans: List[dict] = field(default_factory=list)


class Batcher:
    """Coalesces requests into deduplicated batches for a worker pool.

    ``handle_provider`` returns the current
    :class:`~repro.serving.snapshot.SnapshotHandle`; it is consulted
    at dispatch time, so a hot swap takes effect on the very next
    batch without any coordination with callers.
    """

    def __init__(self, pool: WorkerPool,
                 handle_provider: Callable[[], SnapshotHandle], *,
                 max_batch: int = 256,
                 max_delay: float = 0.002,
                 max_pending: int = 10_000,
                 time_budget: Optional[float] = None,
                 directed: bool = False,
                 default_mode: str = "spg",
                 slow_query_ms: Optional[float] = None) -> None:
        if max_batch < 1:
            raise ServingError("max_batch must be >= 1")
        if max_delay <= 0:
            raise ServingError("max_delay must be positive")
        if max_pending < 1:
            raise ServingError("max_pending must be >= 1")
        self._pool = pool
        self._handle_provider = handle_provider
        self.max_batch = max_batch
        self.max_delay = max_delay
        self.max_pending = max_pending
        self.time_budget = time_budget
        self.directed = directed
        #: What ``mode=None`` resolves to in the workers' sessions;
        #: decides whether a request's key may be symmetric.
        self.default_mode = default_mode
        #: End-to-end latency past which a resolved request is logged
        #: to the slow-query log with its queue-wait / worker-residency
        #: breakdown (``None`` disables; serving has no worker trace
        #: for most requests, so this is the parent-side complement of
        #: the session-level slow log).
        self.slow_query_ms = slow_query_ms
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._accumulating: Dict[Optional[str], _Accumulating] = {}
        self._inflight: Dict[int, _InFlight] = {}
        self._batch_ids = itertools.count()
        self._pending = 0  # unresolved requests (admission control)
        self._closed = False
        # Latest label-store counters per worker, when workers serve an
        # out-of-core (mmap) snapshot; each response carries its
        # replica's cumulative stats, so keeping the newest per worker
        # and summing gives the fleet-wide picture.
        self._store_stats: Dict[int, dict] = {}
        self.counters = {
            "submitted": 0, "answered": 0, "failed": 0,
            "deduplicated": 0, "rejected": 0, "expired": 0,
            "batches": 0, "retries": 0, "worker_seconds": 0.0,
            "worker_cache_hits": 0, "worker_deaths": 0,
        }
        # Every key above also mirrors into the process registry
        # (`_count` bumps both), so the `stats()` dict and `/metrics`
        # move by the same amounts by construction.
        registry = get_registry()
        self._registry = registry
        self._m_counters = {
            key: registry.counter(
                _COUNTER_SERIES.get(key, f"serving_{key}_total"),
                help="Serving batcher counter.")
            for key in self.counters}
        self._m_request_seconds = registry.histogram(
            "serving_request_seconds",
            help="Admission-to-resolution latency of one "
                 "deduplicated request key.")
        self._m_queue_wait = registry.histogram(
            "serving_queue_wait_seconds",
            help="Admission-to-dispatch wait of one deduplicated "
                 "request key (time spent coalescing in the batcher "
                 "before any worker saw it).")
        #: Worker continuous-profiling state: the hz shipped on every
        #: dispatched batch, the fleet-wide folded-stack counts merged
        #: from worker responses, and the newest resource snapshot per
        #: worker.
        self._profile_hz = 0.0
        self._worker_profile: Dict[str, int] = {}
        self._worker_resources: Dict[int, dict] = {}
        #: Per-batch trace sampling (the HTTP front-end's knob): a
        #: sampled batch is dispatched with a :class:`TraceContext`,
        #: answered under it in its worker, and stitched with the
        #: batcher-side records into the trace buffer on resolution.
        self.trace_sampler = TraceSampler(0.0)
        #: Stitched distributed traces (``GET /traces`` reads this);
        #: tail retention keys off the slow-query threshold when one
        #: is configured.
        self.trace_buffer = TraceBuffer(
            slow_ms=slow_query_ms if slow_query_ms is not None
            else 100.0)
        #: Optional ``fn(u, v, mode, value, epoch)`` called for every
        #: resolved answer — the oracle auditor's sampling intake. Must
        #: be cheap; it runs on the collector thread under the lock.
        self._answer_hook: Optional[Callable] = None
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, daemon=True,
            name="repro-serving-dispatcher")
        self._collector = threading.Thread(
            target=self._collect_loop, daemon=True,
            name="repro-serving-collector")
        self._dispatcher.start()
        self._collector.start()

    def _count(self, key: str, amount: float = 1) -> None:
        """Bump a legacy counter and its registry mirror together."""
        self.counters[key] += amount
        self._m_counters[key].inc(amount)

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------

    def submit(self, u: int, v: int,
               mode: Optional[str] = None) -> "Future[Answer]":
        """Enqueue one request; the future resolves to an
        :class:`Answer` (or raises the request's failure)."""
        future: "Future[Answer]" = Future()
        now = time.monotonic()
        deadline = (now + self.time_budget
                    if self.time_budget is not None else None)
        with self._lock:
            if self._closed:
                raise ServingError("batcher is closed")
            if self._pending >= self.max_pending:
                self._count("rejected")
                raise ServiceOverloadedError(
                    f"serving queue is full "
                    f"({self._pending} requests pending, "
                    f"limit {self.max_pending}); retry later"
                )
            self._pending += 1
            self._count("submitted")
            self._enqueue_locked(mode, u, v, future, deadline, now)
        return future

    def submit_many(self, pairs, mode: Optional[str] = None
                    ) -> List["Future[Answer]"]:
        """Bulk admission: one lock pass for a whole burst of pairs.

        All-or-nothing against the pending limit (a burst that does
        not fit raises :class:`ServiceOverloadedError` without partial
        admission); otherwise exactly like per-pair :meth:`submit`.
        """
        pairs = list(pairs)
        now = time.monotonic()
        deadline = (now + self.time_budget
                    if self.time_budget is not None else None)
        futures: List["Future[Answer]"] = []
        with self._lock:
            if self._closed:
                raise ServingError("batcher is closed")
            if self._pending + len(pairs) > self.max_pending:
                self._count("rejected", len(pairs))
                raise ServiceOverloadedError(
                    f"burst of {len(pairs)} does not fit "
                    f"({self._pending} requests pending, "
                    f"limit {self.max_pending}); retry later"
                )
            self._pending += len(pairs)
            self._count("submitted", len(pairs))
            for u, v in pairs:
                future: "Future[Answer]" = Future()
                futures.append(future)
                self._enqueue_locked(mode, u, v, future, deadline,
                                     now)
        return futures

    def _enqueue_locked(self, mode: Optional[str], u: int, v: int,
                        future: "Future[Answer]",
                        deadline: Optional[float],
                        now: float) -> None:
        effective = mode if mode is not None else self.default_mode
        u, v = normalize_pair(u, v, effective, self.directed)
        batch = self._accumulating.get(mode)
        if batch is None:
            batch = _Accumulating(opened=now)
            self._accumulating[mode] = batch
            # Wake the dispatcher only for a *new* batch — it sleeps
            # until this batch ripens; per-request wakeups would just
            # burn context switches at high submit rates.
            self._wake.notify()
        entry = batch.entries.get((u, v))
        if entry is None:
            entry = _Entry(deadline=deadline, submitted=now)
            batch.entries[(u, v)] = entry
        else:
            self._count("deduplicated")
            if deadline is not None:
                entry.deadline = max(entry.deadline or 0.0, deadline)
        entry.futures.append(future)
        if len(batch.entries) >= self.max_batch:
            self._flush_locked(mode)

    def flush(self) -> None:
        """Dispatch every accumulating batch immediately."""
        with self._lock:
            for mode in list(self._accumulating):
                self._flush_locked(mode)

    def drain(self, timeout: float = 30.0) -> bool:
        """Flush, then wait for all in-flight batches to resolve."""
        self.flush()
        deadline = time.monotonic() + timeout
        with self._lock:
            while self._inflight or self._accumulating:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._wake.wait(timeout=min(remaining, 0.1))
        return True

    def stats(self) -> Dict[str, object]:
        """This batcher's counters plus its queue gauges.

        ``counters`` is per-instance by construction (a second Batcher
        in the process starts from zero, and a disabled metrics
        registry changes nothing); `_count` bumps the process-wide
        ``serving_*_total`` mirrors by the same amounts, so `/stats`
        and `/metrics` agree.
        """
        with self._lock:
            return {
                **self.counters,
                "pending": self._pending,
                "inflight_batches": len(self._inflight),
            }

    def label_store_stats(self) -> Optional[Dict[str, object]]:
        """Fleet-wide label-store counters, or ``None`` without one.

        Sums the additive page-cache counters (hits, misses,
        evictions, resident bytes) over the newest report from each
        worker; the per-store constants (tier sizes, hot fraction)
        are identical across replicas and pass through.
        """
        with self._lock:
            reports = list(self._store_stats.values())
        if not reports:
            return None
        summed = {key: sum(report[key] for report in reports)
                  for key in ("hits", "misses", "evictions",
                              "pinned_hits", "resident_bytes")}
        touches = (summed["hits"] + summed["misses"]
                   + summed["pinned_hits"])
        latest = reports[-1]
        return {
            **summed,
            "hit_rate": ((summed["hits"] + summed["pinned_hits"])
                         / touches if touches else 0.0),
            "hot_bytes": latest["hot_bytes"],
            "cold_bytes": latest["cold_bytes"],
            "hot_fraction": latest["hot_fraction"],
            "io": latest["io"],
            "workers_reporting": len(reports),
        }

    def set_profile_hz(self, hz: float) -> None:
        """Set the worker continuous-profiling rate (``0`` stops).

        Takes effect on the next dispatched batch per worker —
        activation rides the ordinary request path, exactly like
        hot-swap epochs, so there is no side-channel to workers.
        """
        if hz < 0:
            raise ServingError("profile hz must be >= 0")
        with self._lock:
            self._profile_hz = float(hz)

    @property
    def profile_hz(self) -> float:
        return self._profile_hz

    def worker_profile(self, *, take: bool = False) -> Dict[str, int]:
        """Fleet-wide folded-stack counts merged from worker responses.

        ``take=True`` clears the accumulator (the `/profile` endpoint
        does, so each profiling window reports only its own samples).
        """
        with self._lock:
            if take:
                profile, self._worker_profile = \
                    self._worker_profile, {}
                return profile
            return dict(self._worker_profile)

    def worker_resources(self) -> Dict[int, dict]:
        """Newest resource snapshot per worker id."""
        with self._lock:
            return {worker_id: dict(snapshot) for worker_id, snapshot
                    in self._worker_resources.items()}

    def close(self, timeout: float = 10.0) -> None:
        """Drain what's possible, then fail anything still pending."""
        self.drain(timeout=timeout)
        with self._lock:
            if self._closed:
                return
            self._closed = True
            leftovers: List[_Entry] = []
            for batch in self._accumulating.values():
                leftovers.extend(batch.entries.values())
            self._accumulating.clear()
            for inflight in self._inflight.values():
                leftovers.extend(inflight.entries.values())
            self._inflight.clear()
            for entry in leftovers:
                self._fail_entry_locked(
                    entry, ServingError("serving shut down before the "
                                        "request was answered"))
            self._wake.notify_all()
        self._dispatcher.join(timeout=1.0)

    def join(self, timeout: float = 5.0) -> None:
        """Wait for the collector thread; call after closing the pool.

        The collector blocks in the pool's ``get_response``. Closing
        the pool ends the workers, every response pipe reads EOF, the
        collector wakes, finds the batcher closed and returns.
        """
        self._collector.join(timeout=timeout)

    # ------------------------------------------------------------------
    # Dispatch (batcher -> pool)
    # ------------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                if self._closed:
                    return
                now = time.monotonic()
                ripest = None
                for mode, batch in list(self._accumulating.items()):
                    age = now - batch.opened
                    if age >= self.max_delay:
                        self._flush_locked(mode)
                    elif ripest is None or batch.opened < ripest:
                        ripest = batch.opened
                wait = (self.max_delay if ripest is None
                        else max(0.0, ripest + self.max_delay - now))
                self._wake.wait(timeout=wait)

    def _flush_locked(self, mode: Optional[str]) -> None:
        batch = self._accumulating.pop(mode, None)
        if batch is None:
            return
        now = time.monotonic()
        live: Dict[Tuple[int, int], _Entry] = {}
        for key, entry in batch.entries.items():
            if entry.deadline is not None and now > entry.deadline:
                self._fail_entry_locked(entry, RequestExpiredError(
                    f"request ({key[0]}, {key[1]}) expired after "
                    f"{self.time_budget:.3f}s in the serving queue"),
                    expired=True)
            else:
                live[key] = entry
        if not live:
            return
        batch_id = next(self._batch_ids)
        keys = list(live)
        handle = self._handle_provider()
        inflight = _InFlight(mode=mode, keys=keys, entries=live)
        if self.trace_sampler.should_sample():
            inflight.trace = TraceContext(new_trace_id(),
                                          new_span_id())
            # Wall-clock timeline shared with the worker spans; the
            # batch opened (now - batch.opened) seconds ago.
            wall_now = time.time()
            inflight.opened_wall = wall_now - (now - batch.opened)
            inflight.dispatched_wall = wall_now
        self._inflight[batch_id] = inflight
        self._count("batches")
        for entry in live.values():
            entry.dispatched = now
            if entry.submitted:
                self._m_queue_wait.observe(now - entry.submitted)
        self._pool.submit(BatchMessage(
            batch_id, handle, mode, tuple(keys),
            trace=inflight.trace,
            profile_hz=self._profile_hz))

    # ------------------------------------------------------------------
    # Collection (pool -> futures)
    # ------------------------------------------------------------------

    def _collect_loop(self) -> None:
        while True:
            response = self._pool.get_response(timeout=0.2)
            with self._lock:
                if self._closed and not self._inflight:
                    return
                self._reap_dead_workers_locked()
                if response is None:
                    continue
                if not isinstance(response, BatchResponse):
                    continue  # readiness report of a respawned worker
                if response.metrics:
                    # Fold the worker's registry increments into the
                    # parent registry. Deltas are flushed per response
                    # and re-based in the worker, so each event lands
                    # here exactly once — even across respawns (a
                    # fresh worker discards its inherited baseline
                    # before its first batch).
                    self._registry.merge(response.metrics)
                if response.profile:
                    merge_folded(self._worker_profile,
                                 response.profile)
                if response.resources is not None:
                    self._worker_resources[response.worker_id] = \
                        response.resources
                inflight = self._inflight.pop(response.batch_id, None)
                if inflight is None:  # resolved by close()
                    continue
                if response.error is not None:
                    if response.spans:
                        # Failed attempt's worker spans: kept on the
                        # in-flight record so the eventual stitched
                        # trace shows this attempt too.
                        inflight.spans.extend(response.spans)
                    self._handle_batch_error_locked(response.batch_id,
                                                    inflight,
                                                    response.error)
                else:
                    self._resolve_locked(inflight, response)
                    self._stitch_locked(inflight, response, None)
                    self._count("worker_cache_hits",
                                response.cache_hits)
                    if response.store is not None:
                        self._store_stats[response.worker_id] = \
                            response.store
                self._count("worker_seconds", response.seconds)
                self._wake.notify_all()

    def _reap_dead_workers_locked(self) -> None:
        """Heal the pool after a worker death (OOM, kill, segfault).

        A batch a dead worker held never gets a response, which would
        leak its futures and its admission-control budget forever.
        Respawn the missing workers, then re-dispatch everything in
        flight: a batch that was merely still queued gets answered
        twice, and the duplicate finds no in-flight entry — harmless.
        """
        pool = self._pool
        if pool.alive_workers >= pool.num_workers:
            return
        handle = self._handle_provider()
        respawned = pool.respawn(handle)
        if not respawned:
            return
        self._count("worker_deaths", len(respawned))
        _log.warning(
            "worker_respawn workers=%s epoch=%d inflight_batches=%d "
            "alive=%d/%d",
            ",".join(map(str, respawned)), handle.epoch,
            len(self._inflight), pool.alive_workers, pool.num_workers)
        # A dead worker's profile deltas died with it; drop its stale
        # resource snapshot so `/stats` doesn't report a ghost pid.
        for slot in respawned:
            self._worker_resources.pop(slot, None)
        inflight, self._inflight = self._inflight, {}
        for batch in inflight.values():
            new_id = next(self._batch_ids)
            self._inflight[new_id] = batch
            # Keep the trace context: the re-dispatched attempt's
            # worker spans must land in the original stitched trace.
            pool.submit(BatchMessage(new_id, handle, batch.mode,
                                     tuple(batch.keys),
                                     trace=batch.trace,
                                     profile_hz=self._profile_hz))

    def _handle_batch_error_locked(self, batch_id: int,
                                   inflight: _InFlight,
                                   error: str) -> None:
        if not inflight.retried:
            # Most batch-level failures are hot-swap races (the
            # snapshot was retired mid-flight); one retry against the
            # current handle resolves those.
            inflight.retried = True
            self._count("retries")
            handle = self._handle_provider()
            _log.warning(
                "batch_retry batch=%d epoch=%d keys=%d error=%s",
                batch_id, handle.epoch, len(inflight.keys), error)
            new_id = next(self._batch_ids)
            self._inflight[new_id] = inflight
            self._pool.submit(BatchMessage(
                new_id, handle, inflight.mode,
                tuple(inflight.keys),
                trace=inflight.trace,
                profile_hz=self._profile_hz))
            return
        failure = ServingError(f"batch failed in worker: {error}")
        self._stitch_locked(inflight, None, error)
        for entry in inflight.entries.values():
            self._fail_entry_locked(entry, failure)

    def _stitch_locked(self, inflight: _InFlight, response,
                       error: Optional[str]) -> None:
        """Assemble one cross-process trace and buffer it.

        The batcher contributes the ``serving.request`` envelope (the
        root — its span id is the context's ``parent_span_id``, which
        the worker roots name as their remote parent) and a
        ``queue.wait`` child; the worker records from every attempt
        hang under the envelope by construction.
        """
        context = inflight.trace
        if context is None:
            return
        end_wall = time.time()
        duration = max(0.0, end_wall - inflight.opened_wall)
        mode = (inflight.mode if inflight.mode is not None
                else self.default_mode)
        attrs: Dict[str, object] = {"mode": mode,
                                    "keys": len(inflight.keys)}
        if error is not None:
            attrs["error"] = error
        records = [{
            "trace": context.trace_id,
            "span": context.parent_span_id,
            "parent": None,
            "name": "serving.request",
            "ts": inflight.opened_wall,
            "dur": duration,
            "proc": "batcher",
            "attrs": attrs,
        }, {
            "trace": context.trace_id,
            "span": new_span_id(),
            "parent": context.parent_span_id,
            "name": "queue.wait",
            "ts": inflight.opened_wall,
            "dur": max(0.0, inflight.dispatched_wall
                       - inflight.opened_wall),
            "proc": "batcher",
        }]
        records.extend(inflight.spans)
        if response is not None and response.spans:
            records.extend(response.spans)
        self.trace_buffer.add(StitchedTrace(
            trace_id=context.trace_id, spans=records,
            ts=inflight.opened_wall, duration=duration,
            error=error is not None, mode=mode,
            pairs=len(inflight.keys)))

    def set_answer_hook(self, hook: Optional[Callable]) -> None:
        """Install the resolved-answer tap (``fn(u, v, mode, value,
        epoch)``) the oracle auditor samples from."""
        with self._lock:
            self._answer_hook = hook

    def _resolve_locked(self, inflight: _InFlight,
                        response) -> None:
        now = time.monotonic()
        mode = (inflight.mode if inflight.mode is not None
                else self.default_mode)
        for key, value in zip(inflight.keys, response.values):
            entry = inflight.entries[key]
            if isinstance(value, PairError):
                self._fail_entry_locked(
                    entry, ServingError(value.message))
                continue
            if entry.deadline is not None and now > entry.deadline:
                self._fail_entry_locked(entry, RequestExpiredError(
                    f"request ({key[0]}, {key[1]}) answered after its "
                    f"time budget"), expired=True)
                continue
            answer = Answer(value, response.epoch)
            if self._answer_hook is not None:
                try:
                    self._answer_hook(key[0], key[1], mode, value,
                                      response.epoch)
                except Exception:  # the audit tap must never fail a
                    pass           # request
            if entry.submitted:
                elapsed = now - entry.submitted
                self._m_request_seconds.observe(elapsed)
                if (self.slow_query_ms is not None
                        and elapsed * 1e3 >= self.slow_query_ms):
                    self._log_slow_locked(key, mode, entry, elapsed,
                                          response)
            for future in entry.futures:
                self._pending -= 1
                self._count("answered")
                try:
                    future.set_result(answer)
                except InvalidStateError:  # caller cancelled
                    pass

    def _log_slow_locked(self, key: Tuple[int, int], mode: str,
                         entry: _Entry, elapsed: float,
                         response) -> None:
        """Slow-query record with the serving-side stage breakdown.

        Queue wait and worker residency are the two stages the worker
        trace cannot see (they happen in the parent); worker residency
        is the whole batch's wall time, an upper bound for this key.
        """
        stages = [("batch.worker", response.seconds * 1e3)]
        if entry.dispatched and entry.submitted:
            stages.insert(0, ("queue.wait",
                              (entry.dispatched - entry.submitted)
                              * 1e3))
        log_slow_query(key[0], key[1], mode, elapsed * 1e3,
                       self.slow_query_ms, None, extra_stages=stages)

    def _fail_entry_locked(self, entry: _Entry, error: Exception, *,
                           expired: bool = False) -> None:
        for future in entry.futures:
            self._pending -= 1
            self._count("expired" if expired else "failed")
            try:
                future.set_exception(error)
            except InvalidStateError:
                pass
