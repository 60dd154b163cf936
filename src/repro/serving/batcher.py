"""Request batching: one result cache, one queue, coalescing,
deduplication, admission.

Per-request IPC would drown the worker pool in pipe overhead — a
label-merge distance query costs tens of microseconds, about the same
as pickling one message. The :class:`Batcher` is the only queue between
a caller and a worker, and it has one dispatch rule:

    a worker is idle  ->  the oldest queued batch leaves for it, now;
    no worker is idle ->  requests wait here, and coalesce while they do.

No timer, nothing to tune: a lone request on an idle service leaves
alone and at once, and batches grow exactly as large as the
back-pressure that made them wait (at most ``max_batch`` distinct keys
per message; full batches queue FIFO). The rule is applied at the end
of every :meth:`~Batcher.submit_many` — after the *whole* burst is
enqueued — and by the collector thread the moment a response frees a
worker, which hands that worker its next batch *before* resolving the
response's futures.

Waiting requests are *deduplicated* within their batch: identical
``(u, v, mode)`` keys are computed once and fanned out to every waiting
caller. For undirected indexes (``directed=False``, the default — gate
it on :attr:`~repro.engine.base.PathIndex.is_directed`) the key of an
orientation-free request (``distance`` / ``count-paths``) is
normalized to ``(min(u, v), max(u, v))``, so ``(v, u)`` requests
coalesce with ``(u, v)`` instead of doubling the worker work; the
answers are identical numbers either way. ``spg`` requests keep
ordered keys — an SPG is oriented, and a reversed caller must not
receive a flipped object. Under hot-key traffic (see
``sample_pairs_hotspot``) this cuts worker work well below the
request count.

In front of the queue sits the served path's one *result cache*: an
LRU of at most ``cache_size`` answers, keyed by the same normalized
``(u, v)`` key plus the mode, holding answers of the current epoch
only. A hit is answered inside :meth:`~Batcher.submit_many`, under its
lock, as ``Answer(value, epoch)`` — never queued, never counted
against ``max_pending``, never expired — so a hot key costs no worker
round trip. Only answers of the current epoch are stored, and the
first admission after a publish empties the LRU, so every hit is exact
at the epoch it names. Workers keep no cache of their own.

Flow control is explicit rather than emergent:

* **admission control** — at most ``max_pending`` requests may be
  unresolved at once; past that, :meth:`submit_many` raises
  :class:`~repro.errors.ServiceOverloadedError` immediately instead
  of growing an unbounded queue (the HTTP front-end maps this to 503);
* **time budgets** — with a ``time_budget`` (taken from the service's
  :class:`~repro.engine.session.QueryOptions`), a request that is
  still queued at its deadline fails with
  :class:`~repro.errors.RequestExpiredError` when its batch's turn
  comes, and one whose answer arrives late gets the same error instead
  of a stale success.

In-flight batches are kept by the worker holding them, so a worker
death re-queues exactly the victim's batch, at the head of the queue.
Batches whose snapshot was retired under them (a hot-swap race) are
retried once against the current snapshot before failing their futures.
"""

from __future__ import annotations

import collections
import itertools
import logging
import threading
import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from typing import (Callable, Deque, Dict, List, NamedTuple, Optional,
                    Tuple)

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


#: Cache lookup miss (a cached answer may itself be ``None``).
_MISS = object()


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


@dataclass
class _Batch:
    """One batch of one mode: queued (and, while it is the open one
    for its mode, still coalescing), then in flight on a worker."""

    mode: str
    #: ``time.monotonic()`` of the first request's admission.
    opened: float
    #: Insertion-ordered, so ``tuple(entries)`` is the message's keys
    #: and lines up with the response's values.
    entries: "Dict[Tuple[int, int], _Entry]" = field(
        default_factory=dict)
    #: ``time.monotonic()`` of the first hand-off to a worker (0 while
    #: queued). ``dispatched - entry.submitted`` is an entry's queue
    #: wait, the rest of its end-to-end time is worker residency (both
    #: show up in slow-query records).
    dispatched: float = 0.0
    #: Id of the current attempt's message: a re-dispatch takes a
    #: fresh one, so a late answer to an earlier attempt matches none.
    id: int = -1
    retried: bool = False
    #: Distributed-trace context of a sampled batch. Survives retries
    #: and worker-death re-dispatch, so the retried attempt's worker
    #: spans still land in the *same* stitched trace — a killed worker
    #: must not orphan a trace.
    trace: Optional[TraceContext] = None
    #: Worker span records from *failed* attempts, kept so the final
    #: stitched trace shows every attempt, not just the one that
    #: resolved.
    spans: List[dict] = field(default_factory=list)


class Batcher:
    """Coalesces requests into deduplicated batches for a worker pool.

    ``handle_provider`` returns the current
    :class:`~repro.serving.snapshot.SnapshotHandle`; it is consulted
    at dispatch time, so a hot swap takes effect on the very next
    batch without any coordination with callers, and at admission, to
    key the result cache (``cache_size`` answers; ``0`` turns it off)
    on the current epoch. All sends to the pool happen under this
    object's lock, one at a time.
    """

    def __init__(self, pool: WorkerPool,
                 handle_provider: Callable[[], SnapshotHandle], *,
                 max_batch: int = 256,
                 max_pending: int = 10_000,
                 time_budget: Optional[float] = None,
                 directed: bool = False,
                 slow_query_ms: Optional[float] = None,
                 cache_size: int = 0) -> None:
        if max_batch < 1:
            raise ServingError("max_batch must be >= 1")
        if max_pending < 1:
            raise ServingError("max_pending must be >= 1")
        if cache_size < 0:
            raise ServingError("cache_size must be >= 0")
        self._pool = pool
        self._handle_provider = handle_provider
        self.max_batch = max_batch
        self.max_pending = max_pending
        self.time_budget = time_budget
        self.directed = directed
        #: End-to-end latency past which a resolved request is logged
        #: to the slow-query log with its queue-wait / worker-residency
        #: breakdown (``None`` disables) — the served path's one slow
        #: log.
        self.slow_query_ms = slow_query_ms
        self.cache_size = cache_size
        #: The result cache: answers of epoch ``_cache_epoch`` by
        #: ``(key, mode)``, least recently used first.
        self._cache: collections.OrderedDict = collections.OrderedDict()
        self._cache_epoch = -1
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        #: Batches no worker has taken yet, oldest first.
        self._queue: Deque[_Batch] = collections.deque()
        #: Per mode, the queued batch still short of ``max_batch``
        #: keys: where the next request of that mode coalesces.
        self._open: Dict[str, _Batch] = {}
        #: One-key batches owed to a particular worker (the profiling
        #: nudge); they leave when *that* worker is idle.
        self._addressed: Dict[int, _Batch] = {}
        #: Dispatched batches awaiting their response, by the slot of
        #: the worker holding them — one each, by construction.
        self._inflight: Dict[int, _Batch] = {}
        self._batch_ids = itertools.count()
        self._pending = 0  # unresolved requests (admission control)
        self._closed = False
        self.counters = {
            "submitted": 0, "answered": 0, "failed": 0,
            "deduplicated": 0, "rejected": 0, "expired": 0,
            "batches": 0, "retries": 0, "worker_seconds": 0.0,
            "cache_hits": 0, "worker_deaths": 0,
            # Workers keep no cache; the key stays, reading 0, for
            # readers of the earlier stats shape.
            "worker_cache_hits": 0,
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
                 "request key (time spent queued in the batcher "
                 "because no worker was idle).")
        #: Worker profiling state: the hz shipped on every dispatched
        #: batch and the fleet-wide folded-stack counts merged from
        #: worker responses.
        self._profile_hz = 0.0
        self._worker_profile: Dict[str, int] = {}
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
        self._collector = threading.Thread(
            target=self._collect_loop, daemon=True,
            name="repro-serving-collector")
        self._collector.start()

    def _count(self, key: str, amount: float = 1) -> None:
        """Bump a legacy counter and its registry mirror together."""
        self.counters[key] += amount
        self._m_counters[key].inc(amount)

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------

    def submit_many(self, pairs, mode: str) -> List["Future[Answer]"]:
        """Admit a burst of pairs in one lock pass, then dispatch; each
        future resolves to an :class:`Answer` or raises its failure.

        ``mode`` is a mode by name (the service resolves its callers'
        ``None``): batches are keyed on it, so two spellings of one
        mode would neither coalesce nor deduplicate.

        A pair whose answer is in the result cache resolves before this
        returns. All-or-nothing against the pending limit, which counts
        the other pairs only: a burst whose uncached pairs do not fit
        raises :class:`ServiceOverloadedError` without partial
        admission.
        """
        now = time.monotonic()
        deadline = (now + self.time_budget
                    if self.time_budget is not None else None)
        keys = [normalize_pair(u, v, mode, self.directed)
                for u, v in pairs]
        futures: List["Future[Answer]"] = []
        with self._lock:
            if self._closed:
                raise ServingError("batcher is closed")
            hits = self._lookup_locked(keys, mode)
            misses = len(keys) - len(hits)
            if self._pending + misses > self.max_pending:
                self._count("rejected", len(keys))
                raise ServiceOverloadedError(
                    f"burst of {misses} does not fit "
                    f"({self._pending} requests pending, "
                    f"limit {self.max_pending}); retry later"
                )
            self._pending += misses
            self._count("submitted", len(keys))
            if hits:
                self._count("cache_hits", len(hits))
                self._count("answered", len(hits))
            for position, key in enumerate(keys):
                futures.append(Future())
                if position in hits:
                    value = hits[position]
                    self._tap_locked(key, mode, value, self._cache_epoch)
                    self._m_request_seconds.observe(
                        time.monotonic() - now)
                    futures[-1].set_result(
                        Answer(value, self._cache_epoch))
                    continue
                batch = self._open.get(mode)
                if batch is None:
                    batch = self._open[mode] = _Batch(mode, opened=now)
                    self._queue.append(batch)
                entry = batch.entries.get(key)
                if entry is None:
                    entry = batch.entries[key] = _Entry(
                        deadline=deadline, submitted=now)
                else:
                    self._count("deduplicated")
                    if deadline is not None:
                        entry.deadline = max(entry.deadline or 0.0,
                                             deadline)
                entry.futures.append(futures[-1])
                if len(batch.entries) >= self.max_batch:
                    del self._open[mode]  # full: waits as it is
            self._dispatch_locked()
        return futures

    def nudge_workers(self) -> List["Future[Answer]"]:
        """One single-key batch *addressed* to each worker.

        Worker profiling is switched and harvested over the ordinary
        batch channel (:meth:`set_profile_hz`), and ordinary batches go
        to whichever worker is idle; these go to every slot on purpose,
        each as soon as its worker is idle. Exempt from admission
        control; each asks for the distance ``(0, 0)``, so the graph
        needs a vertex.
        """
        now = time.monotonic()
        futures: List["Future[Answer]"] = [
            Future() for _ in range(self._pool.num_workers)]
        with self._lock:
            if self._closed:
                raise ServingError("batcher is closed")
            for slot, future in enumerate(futures):
                batch = self._addressed.setdefault(
                    slot, _Batch("distance", opened=now))
                batch.entries.setdefault(
                    (0, 0), _Entry(submitted=now)).futures.append(future)
            self._pending += len(futures)
            self._count("submitted", len(futures))
            self._dispatch_locked()
        return futures

    def drain(self, timeout: float = 30.0) -> bool:
        """Wait for everything queued or in flight to resolve."""
        deadline = time.monotonic() + timeout
        with self._lock:
            while self._queue or self._addressed or self._inflight:
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

    def set_profile_hz(self, hz: float) -> None:
        """Set the worker profiling rate (``0`` stops).

        Takes effect on the next dispatched batch per worker —
        activation rides the ordinary request path, exactly like
        hot-swap epochs, so there is no side-channel to workers
        (:meth:`nudge_workers` makes "next" now, fleet-wide).
        """
        if hz < 0:
            raise ServingError("profile hz must be >= 0")
        with self._lock:
            self._profile_hz = float(hz)

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

    def close(self, timeout: float = 10.0) -> None:
        """Drain what's possible, then fail anything still pending."""
        self.drain(timeout=timeout)
        with self._lock:
            if self._closed:
                return
            self._closed = True
            leftovers = [*self._queue, *self._addressed.values(),
                         *self._inflight.values()]
            self._queue.clear()
            self._open.clear()
            self._addressed.clear()
            self._inflight.clear()
            failure = ServingError("serving shut down before the "
                                   "request was answered")
            for batch in leftovers:
                for entry in batch.entries.values():
                    self._fail_entry_locked(entry, failure)
            self._wake.notify_all()

    def join(self, timeout: float = 5.0) -> None:
        """Wait for the collector thread; call after closing the pool.

        The collector blocks in the pool's ``get_response``. Closing
        the pool ends the workers, every pipe reads EOF, the
        collector wakes, finds the batcher closed and returns.
        """
        self._collector.join(timeout=timeout)

    # ------------------------------------------------------------------
    # Dispatch (batcher -> pool)
    # ------------------------------------------------------------------

    def _dispatch_locked(self) -> None:
        """The one dispatch rule: each idle worker takes the batch
        addressed to it, else the oldest queued one. With no idle
        worker everything stays queued — and coalesces — until the
        collector calls this again for a freed one."""
        if not (self._queue or self._addressed):
            return
        for slot in self._pool.idle_workers:
            if slot in self._inflight:
                # Answered, but the collector has not taken the answer
                # yet; it dispatches again when it does.
                continue
            batch = (self._addressed.pop(slot, None)
                     or self._next_queued_locked())
            if batch is not None:
                self._send_locked(batch, slot)

    def _next_queued_locked(self) -> Optional[_Batch]:
        """Pop the oldest queued batch with an unexpired entry."""
        now = time.monotonic()
        while self._queue:
            batch = self._queue.popleft()
            if self._open.get(batch.mode) is batch:
                del self._open[batch.mode]
            for key, entry in list(batch.entries.items()):
                if entry.deadline is not None and now > entry.deadline:
                    del batch.entries[key]
                    self._fail_entry_locked(entry, RequestExpiredError(
                        f"request ({key[0]}, {key[1]}) expired after "
                        f"{self.time_budget:.3f}s in the serving "
                        f"queue"), expired=True)
            if batch.entries:
                return batch
        return None

    def _send_locked(self, batch: _Batch, slot: int) -> None:
        """Hand ``batch`` to the idle worker ``slot``."""
        if not batch.dispatched:  # not a retry or a death re-dispatch
            now = batch.dispatched = time.monotonic()
            self._count("batches")
            for entry in batch.entries.values():
                self._m_queue_wait.observe(now - entry.submitted)
            if self.trace_sampler.should_sample():
                batch.trace = TraceContext(new_trace_id(), new_span_id())
        batch.id = next(self._batch_ids)
        self._inflight[slot] = batch
        self._pool.submit(BatchMessage(
            batch.id, self._handle_provider(), batch.mode,
            tuple(batch.entries), trace=batch.trace,
            profile_hz=self._profile_hz), slot)

    # ------------------------------------------------------------------
    # Collection (pool -> futures)
    # ------------------------------------------------------------------

    def _collect_loop(self) -> None:
        while True:
            response = self._pool.get_response(timeout=0.2)
            with self._lock:
                if self._closed and not self._inflight:
                    return
                if isinstance(response, BatchResponse):
                    self._absorb_locked(response)
                self._reap_dead_workers_locked()
                # For whatever this pass re-queued, and for a
                # respawned worker that just reported ready.
                self._dispatch_locked()
                self._wake.notify_all()

    def _absorb_locked(self, response: BatchResponse) -> None:
        batch = self._inflight.get(response.worker_id)
        if batch is not None and batch.id == response.batch_id:
            del self._inflight[response.worker_id]
        else:  # resolved by close(), or re-dispatched after a death
            batch = None
        # The sender is idle: its next batch leaves before this one's
        # futures resolve, so the worker computes while callers wake.
        self._dispatch_locked()
        if response.metrics:
            # Fold the worker's registry increments into the parent
            # registry. Deltas are flushed per response and re-based
            # in the worker, so each event lands here exactly once —
            # even across respawns (a fresh worker discards its
            # inherited baseline before its first batch).
            self._registry.merge(response.metrics)
        if response.profile:
            merge_folded(self._worker_profile, response.profile)
        if batch is None:
            return
        self._count("worker_seconds", response.seconds)
        if response.error is not None:
            if response.spans:
                # Failed attempt's worker spans: kept on the batch so
                # the eventual stitched trace shows this attempt too.
                batch.spans.extend(response.spans)
            self._handle_batch_error_locked(response.batch_id, batch,
                                            response.error)
        else:
            self._resolve_locked(batch, response)
            self._stitch_locked(batch, response, None)

    def _reap_dead_workers_locked(self) -> None:
        """Heal the pool after a worker death (OOM, kill, segfault).

        The batch a dead worker held never gets a response, which would
        leak its futures and its admission-control budget forever.
        Respawn the missing workers and re-queue what *they* held; the
        survivors' batches are untouched.
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
        for slot in respawned:
            if slot in self._inflight:  # next in line, for whoever
                self._queue.appendleft(self._inflight.pop(slot))

    def _handle_batch_error_locked(self, batch_id: int, batch: _Batch,
                                   error: str) -> None:
        if not batch.retried:
            # Most batch-level failures are hot-swap races (the
            # snapshot was retired mid-flight); one retry against the
            # current handle resolves those.
            batch.retried = True
            self._count("retries")
            _log.warning(
                "batch_retry batch=%d epoch=%d keys=%d error=%s",
                batch_id, self._handle_provider().epoch,
                len(batch.entries), error)
            self._queue.appendleft(batch)
            return
        failure = ServingError(f"batch failed in worker: {error}")
        self._stitch_locked(batch, None, error)
        for entry in batch.entries.values():
            self._fail_entry_locked(entry, failure)

    def _stitch_locked(self, batch: _Batch, response,
                       error: Optional[str]) -> None:
        """Assemble one cross-process trace and buffer it.

        The batcher contributes the ``serving.request`` envelope (the
        root — its span id is the context's ``parent_span_id``, which
        the worker roots name as their remote parent) and a
        ``queue.wait`` child; the worker records from every attempt
        hang under the envelope by construction.
        """
        context = batch.trace
        if context is None:
            return
        # Wall-clock timeline shared with the worker spans; the batch
        # opened `duration` seconds ago.
        duration = time.monotonic() - batch.opened
        opened_wall = time.time() - duration
        attrs: Dict[str, object] = {"mode": batch.mode,
                                    "keys": len(batch.entries)}
        if error is not None:
            attrs["error"] = error
        records = [{
            "trace": context.trace_id,
            "span": context.parent_span_id,
            "parent": None,
            "name": "serving.request",
            "ts": opened_wall,
            "dur": duration,
            "proc": "batcher",
            "attrs": attrs,
        }, {
            "trace": context.trace_id,
            "span": new_span_id(),
            "parent": context.parent_span_id,
            "name": "queue.wait",
            "ts": opened_wall,
            "dur": batch.dispatched - batch.opened,
            "proc": "batcher",
        }]
        records.extend(batch.spans)
        if response is not None and response.spans:
            records.extend(response.spans)
        self.trace_buffer.add(StitchedTrace(
            trace_id=context.trace_id, spans=records,
            ts=opened_wall, duration=duration,
            error=error is not None, mode=batch.mode,
            pairs=len(batch.entries)))

    def _current_cache_locked(self):
        """The result cache, holding answers of the current epoch only
        (the first call after a publish empties it); ``None`` when
        ``cache_size`` is 0."""
        if not self.cache_size:
            return None
        epoch = self._handle_provider().epoch
        if epoch != self._cache_epoch:
            self._cache.clear()
            self._cache_epoch = epoch
        return self._cache

    def _lookup_locked(self, keys, mode: str) -> Dict[int, object]:
        """Cached answers among ``keys``, by position in ``keys``."""
        cache = self._current_cache_locked()
        if not cache:
            return {}
        hits = {}
        for position, key in enumerate(keys):
            value = cache.get((key, mode), _MISS)
            if value is not _MISS:
                cache.move_to_end((key, mode))
                hits[position] = value
        return hits

    def _tap_locked(self, key, mode: str, value, epoch: int) -> None:
        if self._answer_hook is not None:
            try:
                self._answer_hook(key[0], key[1], mode, value, epoch)
            except Exception:  # the audit tap must never fail a
                pass           # request

    def set_answer_hook(self, hook: Optional[Callable]) -> None:
        """Install the resolved-answer tap (``fn(u, v, mode, value,
        epoch)``) the oracle auditor samples from."""
        with self._lock:
            self._answer_hook = hook

    def _resolve_locked(self, batch: _Batch, response) -> None:
        now = time.monotonic()
        cache = self._current_cache_locked()
        if response.epoch != self._cache_epoch:
            cache = None  # an older epoch's answers are never stored
        for (key, entry), value in zip(batch.entries.items(),
                                       response.values):
            if isinstance(value, PairError):
                self._fail_entry_locked(
                    entry, ServingError(value.message))
                continue
            if cache is not None:
                cache[(key, batch.mode)] = value
                if len(cache) > self.cache_size:
                    cache.popitem(last=False)
            if entry.deadline is not None and now > entry.deadline:
                self._fail_entry_locked(entry, RequestExpiredError(
                    f"request ({key[0]}, {key[1]}) answered after its "
                    f"time budget"), expired=True)
                continue
            answer = Answer(value, response.epoch)
            self._tap_locked(key, batch.mode, value, response.epoch)
            elapsed = now - entry.submitted
            self._m_request_seconds.observe(elapsed)
            if (self.slow_query_ms is not None
                    and elapsed * 1e3 >= self.slow_query_ms):
                # With the two stages the worker trace cannot see
                # (they happen in the parent); worker residency is the
                # whole batch's wall time, an upper bound for this key.
                log_slow_query(
                    key[0], key[1], batch.mode, elapsed * 1e3,
                    self.slow_query_ms, None, extra_stages=[
                        ("queue.wait",
                         (batch.dispatched - entry.submitted) * 1e3),
                        ("batch.worker", response.seconds * 1e3)])
            for future in entry.futures:
                self._pending -= 1
                self._count("answered")
                try:
                    future.set_result(answer)
                except InvalidStateError:  # caller cancelled
                    pass

    def _fail_entry_locked(self, entry: _Entry, error: Exception, *,
                           expired: bool = False) -> None:
        for future in entry.futures:
            self._pending -= 1
            self._count("expired" if expired else "failed")
            try:
                future.set_exception(error)
            except InvalidStateError:
                pass
