"""Process worker pool: parallel query execution off the GIL.

Label-merge queries are pure Python over numpy-backed labels, so
threads cannot scale them — every merge holds the GIL. The
:class:`WorkerPool` runs N OS processes instead, each holding an index
materialized over a read-only mapping of the current snapshot file
(:mod:`repro.serving.snapshot` — the label pages are shared by the
fleet, not copied per worker), and answers a batch straight from it: a
distance batch is one :meth:`~repro.engine.base.PathIndex.distance_many`
kernel call, an ``spg`` / ``count-paths`` batch one
:meth:`~repro.engine.base.PathIndex.query` per pair. Everything else a
request goes through — id checks, deduplication, the one result
cache, trace sampling, the slow-query log — happens once, in front of
the fleet, in the :class:`~repro.serving.batcher.Batcher`; a worker
keeps none of it but the per-mode series a session feeds
(``session_queries_total{mode}``, and ``session_query_seconds{mode}``
once per index call), which the default latency SLOs read. Nor does
a worker report its own memory: the parent reads each live worker's
``/proc`` entries when asked (:meth:`WorkerPool.worker_pids`).

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
parent reads as EOF too and its workers exit. A parent end is closed
only once no sender can reach it — by :meth:`WorkerPool.respawn`,
after it swaps the end out of its slot, or by
:meth:`WorkerPool.close` — never by the receiving thread that reads
its EOF: the sender may be writing to it at that moment, and a closed
descriptor's number is soon reused by a socket. Every message carries
the current :class:`~repro.serving.snapshot.SnapshotHandle`; a worker whose
materialized epoch differs re-materializes before answering — hot
swaps need no broadcast and cannot be missed, a worker is simply
never allowed to answer a batch against the wrong epoch.

Failure containment: a bad pair (unknown vertex) poisons only its own
slot in the response (:class:`PairError`), and a batch-level failure
(e.g. a retired snapshot file) is reported in the response's
``error`` field for the batcher to retry against the current epoch —
neither kills the worker. A worker that does die is seen by one
reaper: the receiving thread waits on every worker's process sentinel
beside the pipes and records the death once;
:attr:`~WorkerPool.alive_workers` and :meth:`~WorkerPool.respawn`
read that record, so no caller or HTTP thread ever calls ``waitpid``
on a worker.
"""

from __future__ import annotations

import collections
import multiprocessing
import os
import threading
from multiprocessing.connection import wait
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from .._util import Stopwatch
from ..errors import ReproError, ServingError
from ..obs import get_registry
from ..obs.profiler import SamplingProfiler, merge_folded
from ..obs.trace import (TraceContext, span, span_records,
                         trace_from_context)
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
    #: A traced batch runs under the shipped context, so its
    #: ``serving.answer`` span feeds the worker's ``stage_seconds``
    #: histogram *and* rides home as flat span records in
    #: :attr:`BatchResponse.spans` for the batcher to stitch into one
    #: cross-process tree.
    trace: Optional[TraceContext] = None
    #: Profiling activation flag: ``> 0`` keeps a
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
    #: Metrics-registry deltas since the worker's previous response
    #: (:meth:`repro.obs.MetricsRegistry.flush_deltas`); the batcher
    #: merges them into the parent registry. ``None`` when empty.
    metrics: Optional[dict] = None
    #: Folded-stack profile deltas since the previous response, when
    #: the worker's sampling profiler is (or was just) active — the
    #: batcher merges them into its fleet-wide profile. ``None`` when
    #: no samples accumulated.
    profile: Optional[dict] = None
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


def _answer_batch(index, pairs, mode: str, seconds) -> List:
    """Answer one batch straight from the materialized index.

    A distance batch reaches the index whole, as one
    :meth:`~repro.engine.base.PathIndex.distance_many` kernel call
    (the batcher already deduplicated it). Ids were checked at
    admission; should that call raise all the same, the batch is
    answered pair by pair and the bad pair fails alone
    (:class:`PairError`), not its batch-mates. Every index call that
    answers is timed into the ``seconds`` histogram.
    """
    if mode == "distance":
        try:
            with Stopwatch() as sw:
                values = index.distance_many(pairs)
            seconds.observe(sw.elapsed)
            return values
        except ReproError:
            pass
    values: List = []
    for u, v in pairs:
        try:
            with Stopwatch() as sw:
                if mode == "distance":
                    value = index.distance(u, v)
                else:
                    spg = index.query(u, v)
                    value = spg if mode == "spg" else spg.count_paths()
            seconds.observe(sw.elapsed)
            values.append(value)
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


def _worker_main(worker_id: int, pipe, handle: SnapshotHandle,
                 parent_ends) -> None:
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
    # Mode -> (pairs counter, per-call seconds histogram).
    meters: Dict[str, tuple] = {}
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
        if mode not in meters:
            meters[mode] = (
                registry.counter("session_queries_total", mode=mode),
                registry.histogram("session_query_seconds", mode=mode))
        queries, seconds = meters[mode]
        root_span = None
        with Stopwatch() as sw:
            try:
                if handle.epoch != epoch:
                    index = materialize_snapshot(handle)
                    epoch = handle.epoch
                if trace is not None:
                    # The shipped context makes this root a child of
                    # the batcher-side envelope span; __exit__ runs on
                    # exceptions too, so error responses still carry a
                    # finished span tree.
                    with trace_from_context(
                            trace, "serving.batch", batch=batch_id,
                            pairs=len(pairs)) as root_span:
                        with span("serving.answer", mode=mode):
                            values = _answer_batch(index, pairs, mode,
                                                   seconds)
                else:
                    values = _answer_batch(index, pairs, mode, seconds)
            except BaseException as exc:
                pipe.send(BatchResponse(
                    batch_id, handle.epoch, worker_id, None,
                    f"{type(exc).__name__}: {exc}", sw.elapsed,
                    registry.flush_deltas() or None,
                    profile.flush(),
                    span_records(root_span,
                                 process=f"worker-{worker_id}")))
                continue
        queries.inc(len(pairs))
        pipe.send(BatchResponse(
            batch_id, epoch, worker_id, values, None, sw.elapsed,
            registry.flush_deltas() or None,
            profile.flush(),
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

    def __init__(self, num_workers: Optional[int] = None) -> None:
        if num_workers is None:
            num_workers = default_num_workers()
        if num_workers < 1:
            raise ServingError("num_workers must be >= 1")
        self.num_workers = num_workers
        self._context = multiprocessing.get_context()
        self._processes: List = []
        #: Parent end of each live worker's pipe, by slot.
        self._pipes: List = []
        #: Every parent end not yet read to EOF. A dead worker's pipe
        #: stays here (and out of ``_pipes`` once respawned) until it
        #: reads EOF, so whatever it sent in full before dying is
        #: still delivered.
        self._readers: List = []
        #: Every parent end not yet closed: ``_pipes``, plus the ends
        #: of replaced workers not yet read to EOF.
        self._ends: List = []
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
        #: The one record of worker deaths: slots whose worker has
        #: exited and not been replaced yet. Deaths are read off the
        #: process sentinels — never by ``waitpid``, whose loser in a
        #: race with another reaper reads a dead child as alive.
        #: Changed under ``_idle_lock``.
        self._dead: Set[int] = set()
        #: Deaths recorded since start, each once.
        self.deaths = 0
        self._started = False
        self._closed = False

    # -- lifecycle ------------------------------------------------------

    def _spawn(self, slot: int, handle: SnapshotHandle):
        """One worker process and the parent end of its pipe. The
        worker is idle once its readiness report arrives."""
        ours, theirs = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(slot, theirs, handle, [ours, *self._readers]),
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
        self._ends.append(ours)
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

        Waits on the worker process sentinels beside the pipes, so a
        death is recorded (:attr:`alive_workers`, :meth:`respawn`) the
        moment it happens, and returns ``None`` early when nothing
        else arrived — the caller notices the death without waiting
        its timeout out; so does a pipe that reads EOF. One consumer
        at a time (the batcher's collector). The sender of a received
        message is idle from then on.
        """
        with self._receive_lock:
            if not self._received:
                sentinels = self._sentinels()
                ready = wait([*self._readers, *sentinels], timeout)
                self._record_deaths(sentinels, ready)
                for pipe in ready:
                    if pipe in sentinels:
                        continue
                    try:
                        message = pipe.recv()
                    except (EOFError, OSError):
                        # The worker is gone, possibly mid-frame; only
                        # its own pipe is lost. A sender may still hold
                        # it, so `respawn` or `close` closes it.
                        self._readers.remove(pipe)
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

    def _sentinels(self) -> Dict[int, int]:
        """Process sentinel -> slot of each worker not recorded dead."""
        return {process.sentinel: slot
                for slot, process in enumerate(self._processes)
                if slot not in self._dead}

    def _record_deaths(self, sentinels: Dict[int, int], ready) -> None:
        """Record the workers whose sentinel is among ``ready``."""
        with self._idle_lock:
            for sentinel in ready:
                slot = sentinels.get(sentinel)
                if slot is not None and slot not in self._dead:
                    self._dead.add(slot)
                    self.deaths += 1

    def worker_pids(self) -> Dict[int, int]:
        """Slot -> pid of each worker not recorded dead (a respawned
        slot names its new process)."""
        if self._closed:
            return {}
        with self._idle_lock:
            return {slot: process.pid
                    for slot, process in enumerate(self._processes)
                    if slot not in self._dead}

    @property
    def alive_workers(self) -> int:
        """Workers not recorded dead: a read of the record, safe from
        any thread."""
        if self._closed:
            return 0
        return len(self._processes) - len(self._dead)

    def respawn(self, handle: SnapshotHandle) -> List[int]:
        """Replace dead workers; returns the respawned worker slots.

        Replacements materialize ``handle`` at startup and post their
        readiness report down their pipe — consumers of
        :meth:`get_response` must skip non-:class:`BatchResponse`
        messages (the batcher's collector does). The batch a dead
        worker held never produces a response; the batcher
        re-dispatches the batches it sent to the slots returned here
        (and logs/counts each of them). Replaced pipes already read to
        EOF are closed here: no slot holds them, so no sender reaches
        them. One still being read is closed by a later respawn or by
        :meth:`close`. One thread sends or respawns at a time (the
        batcher's lock). A death no :meth:`get_response` has seen yet
        is recorded here first, from the same sentinels.
        """
        if self._closed or not self._started:
            return []
        sentinels = self._sentinels()
        self._record_deaths(sentinels, wait(list(sentinels), 0))
        respawned: List[int] = []
        for slot in sorted(self._dead):
            with self._idle_lock:
                if slot in self._idle:  # it died holding nothing
                    self._idle.remove(slot)
            self._processes[slot], self._pipes[slot] = \
                self._spawn(slot, handle)
            with self._idle_lock:
                self._dead.discard(slot)
            respawned.append(slot)
        for end in [end for end in self._ends
                    if end not in self._pipes and end not in self._readers]:
            self._ends.remove(end)
            end.close()
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
            for end in self._ends:
                end.close()
            self._ends.clear()
            self._readers.clear()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
