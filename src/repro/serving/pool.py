"""Process worker pool: parallel query execution off the GIL.

Label-merge queries are pure Python over numpy-backed labels, so
threads cannot scale them — every merge holds the GIL. The
:class:`WorkerPool` runs N OS processes instead, each holding an index
materialized over a read-only mapping of the current snapshot file
(:mod:`repro.serving.snapshot` — the label pages are shared by the
fleet, not copied per worker) and a
:class:`~repro.engine.session.QuerySession` over it (giving every
worker the version-keyed LRU result cache for free).

Protocol: each worker owns one duplex pipe. The parent sends it
:class:`BatchMessage` tuples and the worker answers on the same pipe;
:meth:`WorkerPool.get_response` multiplexes the parent ends. Nothing is
shared between workers — a ``multiprocessing.Queue`` is guarded by
cross-process locks, and a worker killed holding one poisons it for
every sibling and every respawn — and nothing is buffered per worker:
a worker holds **at most one batch**. :meth:`WorkerPool.submit` only
sends to an *idle* worker (one that has reported ready or answered its
last batch; longest idle first) and says which, so whoever queues the
work — the batcher — knows which worker is free and which batch a dead
one took with it. Depth one is also what makes a bare pipe safe: a
worker handed a batch is blocked in ``recv``, so the sender never
waits on a full pipe buffer while holding the batcher's lock. The two
directions of a pipe share no state — one thread at a time sends (the
batcher's lock serializes them), the collector receives. The parent
drops its copy of the worker's end right after the fork, so a dead
worker reads as EOF — even mid-frame — and only its own pipe is
retired; a worker drops the parent ends it was forked with, so a dead
parent reads as EOF too and its workers exit. Every message carries
the current :class:`~repro.serving.snapshot.SnapshotHandle`; a worker whose
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
from ..errors import ReproError, ServingError
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
    mode: str
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


def _answer_batch(session: QuerySession, pairs, mode: str) -> List:
    """Answer one batch through the session (kernel or scalar path).

    A distance batch reaches the index whole, as one kernel call on
    the session's deduplicating bulk path. Ids were checked at
    admission; should that call raise all the same, the batch is
    answered pair by pair and the bad pair fails alone
    (:class:`PairError`), not its batch-mates.
    """
    if mode == "distance":
        try:
            return [record.value
                    for record in session.query_many(pairs, mode=mode)]
        except ReproError:
            pass
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


def _worker_main(worker_id: int, pipe, handle: SnapshotHandle,
                 options: QueryOptions, parent_ends) -> None:
    """Worker process body: materialize, then serve batches forever."""
    import signal

    # A forked worker inherits the parent's end of its own pipe and of
    # every elder sibling's. While any copy is open the pipe never
    # reads EOF, and a worker whose parent was SIGKILLed would sit in
    # ``recv`` forever.
    for inherited in parent_ends:
        inherited.close()
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
        pipe.send(_Ready(worker_id, f"{type(exc).__name__}: {exc}"))
        return
    # The fork copied the parent's registry, absolute counts included;
    # discard that inherited baseline (plus materialization noise) so
    # the first real flush ships only this worker's own query work.
    registry.flush_deltas()
    pipe.send(_Ready(worker_id, None))
    profile = _WorkerProfile()
    resources_at = 0.0
    while True:
        try:
            message = pipe.recv()
        except (EOFError, OSError):  # parent closed its end
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
                if trace is not None:
                    # The shipped context makes this root a child of
                    # the batcher-side envelope span; __exit__ runs on
                    # exceptions too, so error responses still carry a
                    # finished span tree.
                    with trace_from_context(
                            trace, "serving.batch", batch=batch_id,
                            pairs=len(pairs)) as root_span:
                        values = _answer_batch(session, pairs, mode)
                else:
                    values = _answer_batch(session, pairs, mode)
            except BaseException as exc:
                pipe.send(BatchResponse(
                    batch_id, handle.epoch, worker_id, None,
                    f"{type(exc).__name__}: {exc}", sw.elapsed, 0,
                    None, registry.flush_deltas() or None,
                    profile.flush(), resources,
                    span_records(root_span,
                                 process=f"worker-{worker_id}")))
                continue
        store_stats = getattr(index, "store_stats", None)
        pipe.send(BatchResponse(
            batch_id, epoch, worker_id, values, None, sw.elapsed,
            session.cache_hits_total - hits_before,
            store_stats() if store_stats is not None else None,
            registry.flush_deltas() or None,
            profile.flush(), resources,
            span_records(root_span, process=f"worker-{worker_id}")))


class WorkerPool:
    """N query-serving processes, one duplex pipe and at most one batch
    each.

    The pool is transport only — queueing, admission control,
    deduplication and future plumbing live in
    :class:`~repro.serving.batcher.Batcher`.
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
        self._processes: List = []
        #: Parent end of each live worker's pipe, by slot.
        self._pipes: List = []
        #: Every parent end still open. A dead worker's pipe stays here
        #: (and out of ``_pipes`` once respawned) until it reads EOF,
        #: so whatever it sent in full before dying is still delivered.
        self._readers: List = []
        #: Slots holding no batch, longest idle first. Appended by the
        #: receiving thread, taken by the sending one.
        self._idle: collections.deque = collections.deque()
        self._idle_lock = threading.Lock()
        #: Messages received but not yet handed out (one ``wait`` can
        #: find several pipes readable).
        self._received: collections.deque = collections.deque()
        #: Serializes :meth:`get_response` against :meth:`close`
        #: closing the pipes under it.
        self._receive_lock = threading.Lock()
        self._started = False
        self._closed = False

    # -- lifecycle ------------------------------------------------------

    def _spawn(self, slot: int, handle: SnapshotHandle):
        """One worker process and the parent end of its pipe. The
        worker is idle once its readiness report arrives."""
        ours, theirs = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(slot, theirs, handle, self.options,
                  [ours, *self._readers]),
            daemon=True,
            name=f"repro-serving-worker-{slot}",
        )
        process.start()
        # The worker holds the only copy of its end from here on. Drop
        # ours before anything else forks: a copy inherited by a
        # sibling would keep the pipe open past this worker's death,
        # and the death would never read as EOF.
        theirs.close()
        self._readers.append(ours)
        return process, ours

    def start(self, handle: SnapshotHandle) -> None:
        """Spawn the workers and wait for their readiness reports."""
        if self._started:
            raise ServingError("worker pool already started")
        self._started = True
        for worker_id in range(self.num_workers):
            process, pipe = self._spawn(worker_id, handle)
            self._processes.append(process)
            self._pipes.append(pipe)
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

    @property
    def idle_workers(self) -> Tuple[int, ...]:
        """Slots that hold no batch, longest idle first."""
        with self._idle_lock:
            return tuple(self._idle)

    def submit(self, message: BatchMessage,
               slot: Optional[int] = None) -> int:
        """Send one batch to an idle worker; returns that worker's slot.

        The longest-idle worker takes it unless ``slot`` names one
        (which must be idle too). One sender at a time. A worker that
        died idle fails the send silently: its slot is still returned,
        and whoever tracks the batch learns of the death from
        :meth:`respawn`, as for any other batch a dead worker held.
        """
        if self._closed:
            raise ServingError("worker pool is closed")
        if not self._started:
            raise ServingError("worker pool not started")
        with self._idle_lock:
            if slot is None and self._idle:
                slot = self._idle[0]
            if slot not in self._idle:
                raise ServingError(f"no idle worker (asked: {slot})")
            self._idle.remove(slot)
        try:
            self._pipes[slot].send(message)
        except OSError:  # died idle: `respawn` will say so
            pass
        return slot

    def get_response(self, timeout: Optional[float] = None
                     ) -> Optional[BatchResponse]:
        """Next answered batch, or ``None`` on timeout.

        Also returns ``None`` — early — when a worker's pipe reads EOF,
        so the caller notices the death without waiting its timeout
        out. One consumer at a time (the batcher's collector). The
        sender of a received message is idle from then on.
        """
        with self._receive_lock:
            if not self._received:
                for pipe in wait(self._readers, timeout):
                    try:
                        message = pipe.recv()
                    except (EOFError, OSError):
                        # The worker is gone, possibly mid-frame; only
                        # its own pipe is lost.
                        self._readers.remove(pipe)
                        pipe.close()
                        continue
                    self._received.append(message)
                    # A failed start exits, and a replaced worker's
                    # last words free nobody.
                    if (pipe is self._pipes[message.worker_id]
                            and (isinstance(message, BatchResponse)
                                 or message.error is None)):
                        with self._idle_lock:
                            self._idle.append(message.worker_id)
            return self._received.popleft() if self._received else None

    @property
    def alive_workers(self) -> int:
        return sum(1 for process in self._processes
                   if process.is_alive())

    def respawn(self, handle: SnapshotHandle) -> List[int]:
        """Replace dead workers; returns the respawned worker slots.

        Replacements materialize ``handle`` at startup and post their
        readiness report down their pipe — consumers of
        :meth:`get_response` must skip non-:class:`BatchResponse`
        messages (the batcher's collector does). The batch a dead
        worker held never produces a response; the batcher
        re-dispatches the batches it sent to the slots returned here
        (and logs/counts each of them). The old pipe retires itself in
        :meth:`get_response` once drained.
        """
        if self._closed or not self._started:
            return []
        respawned: List[int] = []
        for slot, process in enumerate(self._processes):
            if process.is_alive():
                continue
            with self._idle_lock:
                if slot in self._idle:  # it died holding nothing
                    self._idle.remove(slot)
            self._processes[slot], self._pipes[slot] = \
                self._spawn(slot, handle)
            respawned.append(slot)
        return respawned

    def close(self, timeout: float = 5.0) -> None:
        """Stop the workers (sentinel first, terminate stragglers)."""
        if self._closed:
            return
        self._closed = True
        for pipe in self._pipes:
            try:
                # A few bytes: never blocks, even on a busy worker.
                pipe.send(_SHUTDOWN)
            except OSError:  # the worker is already gone
                pass
        for process in self._processes:
            process.join(timeout=timeout)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        # Every worker is gone, so a `get_response` still waiting has
        # been woken by EOF and lets go of the lock.
        with self._receive_lock:
            for pipe in self._readers:
                pipe.close()
            self._readers.clear()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
