"""Process worker pool: parallel query execution off the GIL.

Label-merge queries are pure Python over numpy-backed labels, so
threads cannot scale them — every merge holds the GIL. The
:class:`WorkerPool` runs N OS processes instead, each holding an index
materialized over a read-only mapping of the current snapshot file
(:mod:`repro.serving.snapshot` — the label pages are shared by the
fleet, not copied per worker) and a
:class:`~repro.engine.session.QuerySession` over it (giving every
worker the version-keyed LRU result cache for free).

Protocol: the parent round-robins :class:`BatchMessage` tuples over
*per-worker* request queues and each worker answers down its *own*
response pipe; :meth:`WorkerPool.get_response` multiplexes the pipes'
read ends. Neither direction shares a channel between workers, because
a shared ``multiprocessing.Queue`` is guarded by cross-process locks —
the reader lock while a ``get`` waits, the writer lock while a feeder
thread sends — and a worker killed holding one poisons the queue for
every sibling and every respawn. With one channel per worker a death
costs only that worker's undelivered batches, which the batcher
re-dispatches. A response pipe has exactly one writer (the worker's
main thread: no feeder thread, no lock) and the parent drops its copy
of the write end before the next fork, so a dead worker reads as EOF
— even mid-frame — and only its own connection is retired. Every
message carries the current
:class:`~repro.serving.snapshot.SnapshotHandle`; a worker whose
materialized epoch differs re-materializes before answering — hot
swaps need no broadcast and cannot be missed, a worker is simply
never allowed to answer a batch against the wrong epoch.

Failure containment: a bad pair (unknown vertex) poisons only its own
slot in the response (:class:`PairError`), and a batch-level failure
(e.g. a retired snapshot file) is reported in the response's
``error`` field for the batcher to retry against the current epoch —
neither kills the worker.
"""

from __future__ import annotations

import collections
import multiprocessing
import os
import threading
import time
from multiprocessing.connection import wait
from typing import List, NamedTuple, Optional, Tuple

from .._util import Stopwatch
from ..engine.session import QueryOptions, QuerySession
from ..errors import ReproError, ServingError, VertexError
from ..obs import get_registry
from ..obs.profiler import SamplingProfiler, merge_folded
from ..obs.resources import resource_snapshot
from ..obs.trace import TraceContext, span_records, trace_from_context
from .snapshot import SnapshotHandle, materialize_snapshot

__all__ = ["WorkerPool", "BatchMessage", "BatchResponse", "PairError",
           "default_num_workers"]

#: Seconds a worker may take to report readiness at startup.
_READY_TIMEOUT = 60.0

#: Sentinel telling a worker to exit its loop.
_SHUTDOWN = None


def default_num_workers() -> int:
    """Serving default: the machine's cores, capped at 8."""
    return max(1, min(8, os.cpu_count() or 1))


class BatchMessage(NamedTuple):
    """One dispatched batch: id, snapshot to serve it from, work."""

    batch_id: int
    handle: SnapshotHandle
    mode: Optional[str]
    pairs: Tuple[Tuple[int, int], ...]
    #: Distributed-trace context (trace id, batcher-side parent span
    #: id, sampling decision), or ``None`` for the untraced fast path.
    #: A traced batch runs under the shipped context, so its per-stage
    #: spans feed the worker's ``stage_seconds`` histograms *and* ride
    #: home as flat span records in :attr:`BatchResponse.spans` for
    #: the batcher to stitch into one cross-process tree.
    trace: Optional[TraceContext] = None
    #: Continuous-profiling activation flag: ``> 0`` keeps a
    #: :class:`~repro.obs.profiler.SamplingProfiler` running in the
    #: worker at this rate (started/retuned on the message that flips
    #: it), ``0`` stops it. Accumulated folded-stack deltas ride home
    #: in :attr:`BatchResponse.profile` on every response.
    profile_hz: float = 0.0


class BatchResponse(NamedTuple):
    """One answered (or failed) batch from a worker."""

    batch_id: int
    epoch: int
    worker_id: int
    values: Optional[List]
    error: Optional[str]
    seconds: float
    #: Result-cache hits while answering *this* batch.
    cache_hits: int
    #: Label-store counters of the worker's replica, when it serves a
    #: ``mmap`` snapshot through an out-of-core store (else ``None``).
    store: Optional[dict] = None
    #: Metrics-registry deltas since the worker's previous response
    #: (:meth:`repro.obs.MetricsRegistry.flush_deltas`); the batcher
    #: merges them into the parent registry. ``None`` when empty.
    metrics: Optional[dict] = None
    #: Folded-stack profile deltas since the previous response, when
    #: the worker's sampling profiler is (or was just) active — the
    #: batcher merges them into its fleet-wide profile. ``None`` when
    #: no samples accumulated.
    profile: Optional[dict] = None
    #: Point-in-time :func:`repro.obs.resources.resource_snapshot` of
    #: the worker process, rate-limited to ~1/s; the batcher keeps the
    #: newest per worker. ``None`` between refreshes.
    resources: Optional[dict] = None
    #: Flat span records (:func:`repro.obs.trace.span_records`) from
    #: answering this batch under a shipped trace context — present on
    #: error responses too, so failed batches still produce stitched
    #: traces for the buffer's tail retention. ``None`` untraced.
    spans: Optional[List[dict]] = None


class PairError(NamedTuple):
    """Per-pair failure slot inside an otherwise-answered batch."""

    message: str


class _Ready(NamedTuple):
    """Worker startup report (posted once, before any batch)."""

    worker_id: int
    error: Optional[str]


def _answer_distance_batch(session: QuerySession, pairs,
                           mode: Optional[str]) -> List:
    """One bulk kernel invocation for a distance batch.

    Out-of-range vertex ids are weeded into :class:`PairError` slots
    per pair (exactly what the scalar path produced for them); the
    surviving pairs reach the index as a single ``distance_many``
    call through the session's deduplicating bulk cache path.
    """
    num_vertices = session.index.num_vertices
    values: List = [None] * len(pairs)
    good = []
    slots = []
    for i, (u, v) in enumerate(pairs):
        bad = next((x for x in (u, v)
                    if not 0 <= x < num_vertices), None)
        if bad is None:
            good.append((u, v))
            slots.append(i)
        else:
            values[i] = PairError(str(VertexError(bad, num_vertices)))
    if good:
        for i, record in zip(slots, session.query_many(good, mode=mode)):
            values[i] = record.value
    return values


def _answer_batch(session: QuerySession, pairs, mode: Optional[str],
                  effective: str) -> List:
    """Answer one batch through the session (kernel or scalar path)."""
    if effective == "distance":
        # The whole deduplicated batch reaches the index as one
        # vectorized kernel invocation.
        return _answer_distance_batch(session, pairs, mode)
    values: List = []
    for u, v in pairs:
        try:
            values.append(session.query(u, v, mode=mode).value)
        except ReproError as exc:
            values.append(PairError(str(exc)))
    return values


class _WorkerProfile:
    """Worker-side profiler lifecycle, driven by ``profile_hz`` flags.

    The profiler keeps running *between* batches once activated — the
    point of continuous profiling is that queue-idle and
    re-materialization stacks show up too — and every response ships
    the folded-stack deltas accumulated so far. Samples taken after
    the stop flag but before the next batch ship with that batch.
    """

    def __init__(self) -> None:
        self._profiler: Optional[SamplingProfiler] = None
        self._pending: dict = {}

    def update(self, hz: float) -> None:
        """Start/retune/stop the profiler to match the requested hz."""
        if hz > 0:
            if (self._profiler is None
                    or abs(self._profiler.hz - hz) > 1e-9):
                self._retire()
                self._profiler = SamplingProfiler(hz).start()
        else:
            self._retire()

    def _retire(self) -> None:
        if self._profiler is not None:
            self._profiler.stop()
            merge_folded(self._pending, self._profiler.flush_folded())
            self._profiler = None

    def flush(self) -> Optional[dict]:
        """Deltas since the previous flush (``None`` if empty)."""
        if self._profiler is not None:
            merge_folded(self._pending, self._profiler.flush_folded())
        pending, self._pending = self._pending, {}
        return pending or None


#: Seconds between worker resource snapshots (reading ``/proc`` per
#: batch would tax the hot path for data that changes slowly).
_RESOURCE_INTERVAL = 1.0


def _worker_main(worker_id: int, requests, responses,
                 handle: SnapshotHandle, options: QueryOptions) -> None:
    """Worker process body: materialize, then serve batches forever."""
    import signal

    # A terminal Ctrl-C delivers SIGINT to the whole process group;
    # shutdown belongs to the parent (sentinel, then terminate), so
    # workers must not die mid-batch with a KeyboardInterrupt spew.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover
        pass
    registry = get_registry()
    try:
        index = materialize_snapshot(handle)
        session = QuerySession(index, options)
        epoch = handle.epoch
    except BaseException as exc:  # startup failure: report and exit
        responses.send(_Ready(worker_id, f"{type(exc).__name__}: {exc}"))
        return
    # The fork copied the parent's registry, absolute counts included;
    # discard that inherited baseline (plus materialization noise) so
    # the first real flush ships only this worker's own query work.
    registry.flush_deltas()
    responses.send(_Ready(worker_id, None))
    profile = _WorkerProfile()
    resources_at = 0.0
    while True:
        try:
            message = requests.get()
        except (EOFError, OSError):  # parent tore the queue down
            break
        if message is _SHUTDOWN:
            break
        batch_id = message.batch_id
        handle = message.handle
        mode = message.mode
        pairs = message.pairs
        trace = message.trace
        profile.update(message.profile_hz)
        now = time.monotonic()
        resources = None
        if now - resources_at >= _RESOURCE_INTERVAL:
            resources_at = now
            resources = resource_snapshot()
        root_span = None
        with Stopwatch() as sw:
            try:
                if handle.epoch != epoch:
                    index = materialize_snapshot(handle)
                    session = QuerySession(index, options)
                    epoch = handle.epoch
                hits_before = session.cache_hits_total
                effective = (mode if mode is not None
                             else options.mode)
                if trace is not None:
                    # The shipped context makes this root a child of
                    # the batcher-side envelope span; __exit__ runs on
                    # exceptions too, so error responses still carry a
                    # finished span tree.
                    with trace_from_context(
                            trace, "serving.batch", batch=batch_id,
                            pairs=len(pairs)) as root_span:
                        values = _answer_batch(session, pairs, mode,
                                               effective)
                else:
                    values = _answer_batch(session, pairs, mode,
                                           effective)
            except BaseException as exc:
                responses.send(BatchResponse(
                    batch_id, handle.epoch, worker_id, None,
                    f"{type(exc).__name__}: {exc}", sw.elapsed, 0,
                    None, registry.flush_deltas() or None,
                    profile.flush(), resources,
                    span_records(root_span,
                                 process=f"worker-{worker_id}")))
                continue
        store_stats = getattr(index, "store_stats", None)
        responses.send(BatchResponse(
            batch_id, epoch, worker_id, values, None, sw.elapsed,
            session.cache_hits_total - hits_before,
            store_stats() if store_stats is not None else None,
            registry.flush_deltas() or None,
            profile.flush(), resources,
            span_records(root_span, process=f"worker-{worker_id}")))


class WorkerPool:
    """N query-serving processes, one request queue and one response
    pipe each.

    The pool is transport only — admission control, deduplication and
    future plumbing live in :class:`~repro.serving.batcher.Batcher`.
    ``start`` blocks until every worker has materialized the initial
    snapshot and reported ready, so construction errors surface as one
    :class:`ServingError` instead of a hung first query.
    """

    def __init__(self, num_workers: Optional[int] = None,
                 options: Optional[QueryOptions] = None) -> None:
        if num_workers is None:
            num_workers = default_num_workers()
        if num_workers < 1:
            raise ServingError("num_workers must be >= 1")
        self.num_workers = num_workers
        self.options = options if options is not None else QueryOptions()
        self._context = multiprocessing.get_context()
        self._request_queues: List = []
        self._processes: List = []
        #: Read ends of the live response pipes. Not keyed by slot: a
        #: dead worker's pipe stays until it reads EOF, so whatever it
        #: sent in full before dying is still delivered.
        self._readers: List = []
        #: Messages received but not yet handed out (one ``wait`` can
        #: find several pipes readable).
        self._received: collections.deque = collections.deque()
        #: Serializes :meth:`get_response` against :meth:`close`
        #: closing the read ends under it.
        self._receive_lock = threading.Lock()
        self._next_slot = 0
        self._started = False
        self._closed = False

    # -- lifecycle ------------------------------------------------------

    def _spawn(self, slot: int, handle: SnapshotHandle):
        """One worker process with its own request queue and response
        pipe."""
        queue = self._context.Queue()
        reader, writer = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_worker_main,
            args=(slot, queue, writer, handle, self.options),
            daemon=True,
            name=f"repro-serving-worker-{slot}",
        )
        process.start()
        # The worker holds the only write end from here on. Drop ours
        # before anything else forks: a copy inherited by a sibling
        # would keep the pipe open past this worker's death, and the
        # death would never read as EOF.
        writer.close()
        self._readers.append(reader)
        return queue, process

    def start(self, handle: SnapshotHandle) -> None:
        """Spawn the workers and wait for their readiness reports."""
        if self._started:
            raise ServingError("worker pool already started")
        self._started = True
        for worker_id in range(self.num_workers):
            queue, process = self._spawn(worker_id, handle)
            self._request_queues.append(queue)
            self._processes.append(process)
        failures = []
        for _ in range(self.num_workers):
            ready = self.get_response(timeout=_READY_TIMEOUT)
            if ready is None:
                failures.append("a worker died or timed out before "
                                "reporting ready")
                break
            if not isinstance(ready, _Ready):  # pragma: no cover
                failures.append(f"unexpected startup message {ready!r}")
            elif ready.error is not None:
                failures.append(f"worker {ready.worker_id}: "
                                f"{ready.error}")
        if failures:
            self.close()
            raise ServingError(
                "worker pool failed to start: " + "; ".join(failures))

    def submit(self, message: BatchMessage) -> None:
        """Enqueue one batch, round-robin over the live workers."""
        if self._closed:
            raise ServingError("worker pool is closed")
        if not self._started:
            raise ServingError("worker pool not started")
        slot = self._next_slot % self.num_workers
        for offset in range(self.num_workers):
            candidate = (self._next_slot + offset) % self.num_workers
            if self._processes[candidate].is_alive():
                slot = candidate
                break
        # With every worker dead the batch still lands in a queue; the
        # batcher re-dispatches in-flight batches after a respawn.
        self._next_slot = (slot + 1) % self.num_workers
        self._request_queues[slot].put(message)

    def get_response(self, timeout: Optional[float] = None
                     ) -> Optional[BatchResponse]:
        """Next answered batch, or ``None`` on timeout.

        Also returns ``None`` — early — when a worker's pipe reads EOF,
        so the caller notices the death without waiting its timeout
        out. One consumer at a time (the batcher's collector).
        """
        with self._receive_lock:
            if not self._received:
                for reader in wait(self._readers, timeout):
                    try:
                        self._received.append(reader.recv())
                    except (EOFError, OSError):
                        # The writer is gone, possibly mid-frame; only
                        # this worker's channel is lost.
                        self._readers.remove(reader)
                        reader.close()
            return self._received.popleft() if self._received else None

    @property
    def alive_workers(self) -> int:
        return sum(1 for process in self._processes
                   if process.is_alive())

    def respawn(self, handle: SnapshotHandle) -> List[int]:
        """Replace dead workers; returns the respawned worker slots.

        Replacements materialize ``handle`` at startup and post their
        readiness report down their response pipe — consumers of
        :meth:`get_response` must skip non-:class:`BatchResponse`
        messages (the batcher's collector does). A batch a dead
        worker took down with it never produces a response; the
        batcher re-dispatches its in-flight batches after calling
        this (and logs/counts each slot returned here).
        """
        if self._closed or not self._started:
            return []
        respawned: List[int] = []
        for slot, process in enumerate(self._processes):
            if process.is_alive():
                continue
            # Fresh channels, always: the dead worker may have died
            # holding the old queue's reader lock, which would wedge
            # any successor reading from it. Undelivered batches in
            # the old queue are in flight by definition — the batcher
            # re-dispatches them after this returns. The old response
            # pipe retires itself in `get_response` once drained.
            old = self._request_queues[slot]
            queue, replacement = self._spawn(slot, handle)
            self._request_queues[slot] = queue
            self._processes[slot] = replacement
            old.close()
            old.cancel_join_thread()
            respawned.append(slot)
        return respawned

    def close(self, timeout: float = 5.0) -> None:
        """Stop the workers (sentinel first, terminate stragglers)."""
        if self._closed:
            return
        self._closed = True
        for queue in self._request_queues:
            try:
                queue.put(_SHUTDOWN)
            except (ValueError, OSError):  # queue already torn down
                pass
        for process in self._processes:
            process.join(timeout=timeout)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        for queue, process in zip(self._request_queues, self._processes):
            queue.close()
            if process.exitcode == 0:
                # It read up to the sentinel, so the feeder thread has
                # nothing left to block on: leave no thread behind.
                queue.join_thread()
            else:
                # Buffered batches nobody will read; don't let close()
                # or interpreter shutdown block on the feeder.
                queue.cancel_join_thread()
        # Every worker is gone, so a `get_response` still waiting has
        # been woken by EOF and lets go of the lock.
        with self._receive_lock:
            for reader in self._readers:
                reader.close()
            self._readers.clear()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
