"""`QueryService` — the serving facade tying the subsystem together.

One object wires the three serving pieces over any registered
:class:`~repro.engine.base.PathIndex`:

* a :class:`~repro.serving.snapshot.SnapshotManager` publishing
  versioned snapshots of the source index (hot-swapped while a
  mutable source absorbs updates), each one file: ``store="shm"``
  (default, every family) holds the state arrays as they are and the
  fleet shares one mapped copy, ``store="mmap"`` (``ppl`` /
  ``parent-ppl``) the out-of-core label store; ``directory=`` places
  the files (unset: ``/dev/shm`` for ``shm``, else the temp dir);
* a :class:`~repro.serving.pool.WorkerPool` of query processes, each
  serving from a read-only mapping of the current snapshot, which
  outlives the unlinking of a retired epoch's file;
* a :class:`~repro.serving.batcher.Batcher` — the one queue in front
  of the workers: a request leaves the moment a worker is idle, waits
  (coalescing and deduplicating, under admission control) otherwise.

Typical use::

    from repro.serving import QueryService

    with QueryService(index, num_workers=4,
                      options=QueryOptions(mode="distance",
                                           cache_size=4096)) as service:
        answer = service.query(u, v)          # Answer(value, epoch)
        futures = [service.submit(u, v) for u, v in burst]
        service.apply_updates([("insert", a, b)])   # mutable sources
        service.refresh()                     # hot-swap the snapshot

Reads and updates are decoupled by design: queries are answered
against the latest *published* snapshot, updates mutate the source
index and take effect at the next :meth:`QueryService.refresh` (which
:meth:`QueryService.apply_updates` triggers by default). Every answer
carries the epoch that served it, so exactness is auditable per epoch
even while the graph evolves.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Dict, Iterable, List, Optional, Tuple

from ..engine.base import PathIndex
from ..engine.batch import pairs_to_arrays
from ..engine.session import QueryOptions
from ..errors import ImmutableIndexError, ServingError
from ..obs import get_registry
from ..obs.audit import OracleAuditor
from ..obs.profiler import DEFAULT_HZ, collect_profile
from ..obs.registry import format_sample
from ..obs.resources import resource_snapshot
from ..obs.slo import SloEngine, parse_slo_config
from ..obs.trace import chrome_trace
from .batcher import Answer, Batcher
from .pool import WorkerPool
from .snapshot import Snapshot, SnapshotManager

__all__ = ["QueryService"]


class QueryService:
    """Concurrent query serving over one source index."""

    def __init__(self, index: PathIndex, *,
                 num_workers: Optional[int] = None,
                 options: Optional[QueryOptions] = None,
                 store: str = "shm",
                 directory=None,
                 max_batch: int = 256,
                 max_pending: int = 10_000,
                 audit_rate: float = 0.0,
                 slo_config: Optional[list] = None) -> None:
        self._source = index
        self._options = options if options is not None else QueryOptions()
        self._update_lock = threading.Lock()
        self._snapshots = SnapshotManager(index, store=store,
                                          directory=directory)
        self._pool: Optional[WorkerPool] = None
        self._batcher: Optional[Batcher] = None
        self._auditor: Optional[OracleAuditor] = None
        self._closed = False
        try:
            snapshot = self._snapshots.publish()
            self._pool = WorkerPool(num_workers=num_workers,
                                    options=self._options)
            self._pool.start(snapshot.handle)
            self._batcher = Batcher(
                self._pool, self._snapshots.current_handle,
                max_batch=max_batch, max_pending=max_pending,
                time_budget=self._options.time_budget,
                # Undirected sources get symmetric dedup keys for
                # orientation-free modes: a (v, u) distance request
                # coalesces with (u, v).
                directed=index.is_directed,
                # The session-level slow log only sees worker-side
                # time; the batcher's complement logs end-to-end
                # latency with the queue-wait breakdown.
                slow_query_ms=self._options.slow_query_ms)
            # SLO engine: objectives score registry series, with the
            # snapshot manager wired in as the staleness provider.
            objectives = (parse_slo_config(slo_config)
                          if slo_config is not None else None)
            self._slo = SloEngine(objectives)
            self._slo.register_provider(
                "snapshot_staleness_seconds",
                self._snapshots.staleness_seconds)
            if audit_rate > 0.0:
                self._auditor = OracleAuditor(
                    self._snapshots.graph_at, rate=audit_rate)
                self._batcher.set_answer_hook(self._auditor.offer)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def submit(self, u: int, v: int,
               mode: Optional[str] = None) -> "Future[Answer]":
        """Asynchronous query; the future resolves to an
        :class:`~repro.serving.batcher.Answer`."""
        return self.submit_many([(u, v)], mode)[0]

    def query(self, u: int, v: int, mode: Optional[str] = None, *,
              timeout: float = 30.0) -> Answer:
        """Synchronous query through the full batching path."""
        return self.submit(u, v, mode).result(timeout=timeout)

    def submit_many(self, pairs: Iterable[Tuple[int, int]],
                    mode: Optional[str] = None
                    ) -> List["Future[Answer]"]:
        """Bulk-admit a burst of pairs (one admission-control pass).

        Vertex ids (against the current snapshot's graph, in one array
        pass through the index contract's batch validator) and the
        mode are checked here, so a bad request is rejected at
        admission instead of travelling to a worker and back — and
        ``mode=None`` becomes the service's default here, once, so the
        batcher and the workers only ever see a mode by name.
        """
        self._check_open()
        mode = self._options.resolve_mode(mode)
        us, vs = pairs_to_arrays(
            pairs, self._snapshots.current.graph.num_vertices)
        return self._batcher.submit_many(
            list(zip(us.tolist(), vs.tolist())), mode)

    def query_many(self, pairs: Iterable[Tuple[int, int]],
                   mode: Optional[str] = None, *,
                   timeout: float = 60.0) -> List[Answer]:
        """Submit a burst and wait for all answers, in input order."""
        futures = self.submit_many(pairs, mode)
        return [future.result(timeout=timeout) for future in futures]

    # ------------------------------------------------------------------
    # Updates and hot swaps
    # ------------------------------------------------------------------

    def refresh(self, force: bool = False) -> Optional[Snapshot]:
        """Publish the source's current state if its version moved.

        Returns the new snapshot (``None`` when nothing changed and
        ``force`` is off). Workers pick the new epoch up lazily with
        their next batch; in-flight batches finish on the epoch they
        were dispatched with.
        """
        self._check_open()
        with self._update_lock:
            if force:
                return self._snapshots.publish()
            return self._snapshots.publish_if_changed()

    def apply_updates(self, operations, *,
                      refresh: bool = True) -> Dict[str, int]:
        """Apply ``(kind, u, v)`` mutations to the source and republish.

        The source must be mutable (``insert_edge``/``remove_edge``,
        i.e. a :class:`~repro.dynamic.DynamicIndex`); updates are
        serialized against snapshot publishes, so a publish can never
        observe a half-applied batch.
        """
        self._check_open()
        source = self._source
        if not hasattr(source, "apply_batch"):
            raise ImmutableIndexError(
                f"the served {source.method!r} index is immutable; "
                f"serve a 'dynamic' index to accept updates"
            )
        with self._update_lock:
            outcome = source.apply_batch(operations)
        if refresh:
            snapshot = self.refresh()
            outcome["epoch"] = (snapshot.handle.epoch
                                if snapshot is not None
                                else self.epoch)
        return outcome

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def source(self) -> PathIndex:
        return self._source

    @property
    def options(self) -> QueryOptions:
        return self._options

    @property
    def epoch(self) -> int:
        """Epoch of the snapshot new batches are served from."""
        return self._snapshots.current.handle.epoch

    @property
    def num_workers(self) -> int:
        return self._pool.num_workers if self._pool else 0

    def graph_at(self, epoch: int):
        """The graph served at ``epoch`` (for exactness audits)."""
        return self._snapshots.graph_at(epoch)

    def health(self) -> Dict[str, object]:
        """Readiness probe payload for ``GET /healthz``.

        ``ok`` is the liveness verdict the HTTP front-end maps to
        200/503: the service is ready iff it is open and at least one
        worker is alive to answer batches. The rest is the state an
        operator triages with — snapshot version, live/dead worker
        counts, queue depth.
        """
        if self._closed:
            return {"ok": False, "error": "service closed"}
        current = self._snapshots.current
        batcher_stats = self._batcher.stats()
        alive = self._pool.alive_workers
        return {
            "ok": alive > 0,
            "epoch": current.handle.epoch,
            "index_version": current.handle.version,
            "method": current.handle.method,
            "workers": self._pool.num_workers,
            "alive_workers": alive,
            "dead_workers": self._pool.num_workers - alive,
            "pending": batcher_stats["pending"],
            "inflight_batches": batcher_stats["inflight_batches"],
        }

    def stats(self) -> Dict[str, object]:
        """Batcher counters plus pool and snapshot gauges.

        Under ``store="mmap"`` the dict additionally carries a
        ``"label_store"`` sub-dict: the fleet-aggregated page-cache
        counters (hits, misses, evictions, resident bytes, hot-tier
        fraction) of the workers' out-of-core stores.
        """
        self._check_open()
        current = self._snapshots.current
        stats = {
            **self._batcher.stats(),
            "num_workers": self._pool.num_workers,
            "alive_workers": self._pool.alive_workers,
            "epoch": current.handle.epoch,
            "index_version": current.handle.version,
            "method": current.handle.method,
            "store": current.handle.kind,
            "published_epochs": len(self._snapshots.epochs),
        }
        label_store = self._batcher.label_store_stats()
        if label_store is not None:
            stats["label_store"] = label_store
        stats["resources"] = {
            "parent": resource_snapshot(),
            "workers": self._batcher.worker_resources(),
        }
        return stats

    def metrics_text(self) -> str:
        """Prometheus text for ``GET /metrics``.

        The process registry's full exposition (session, shard, store,
        build and serving series — worker deltas included, since the
        batcher merges them as responses arrive) followed by
        point-in-time service gauges and, under ``store="mmap"``, the
        fleet-aggregated ``serving_label_store_*`` series.
        """
        self._check_open()
        batcher_stats = self._batcher.stats()
        current = self._snapshots.current
        # Refresh the slo_* gauges before rendering, so every scrape
        # carries current burn rates without a separate evaluator loop.
        self._slo.evaluate()
        lines = [get_registry().render_prometheus().rstrip("\n")]

        def _gauge(name: str, value: float) -> None:
            lines.append(f"# TYPE {name} gauge")
            lines.append(format_sample(name, {}, float(value)))

        _gauge("serving_pending_requests", batcher_stats["pending"])
        _gauge("serving_inflight_batches",
               batcher_stats["inflight_batches"])
        _gauge("serving_workers", self._pool.num_workers)
        _gauge("serving_alive_workers", self._pool.alive_workers)
        _gauge("serving_epoch", current.handle.epoch)
        _gauge("serving_published_epochs", len(self._snapshots.epochs))
        _gauge("serving_trace_sample_rate", self.trace_rate)
        label_store = self._batcher.label_store_stats()
        if label_store is not None:
            for key in ("hits", "misses", "evictions", "pinned_hits"):
                name = f"serving_label_store_{key}_total"
                lines.append(f"# TYPE {name} counter")
                lines.append(format_sample(name, {},
                                           float(label_store[key])))
            for key in ("resident_bytes", "hit_rate", "hot_fraction",
                        "workers_reporting"):
                _gauge(f"serving_label_store_{key}", label_store[key])
        worker_resources = self._batcher.worker_resources()
        if worker_resources:
            for key, name in (
                    ("rss_bytes", "serving_worker_resident_bytes"),
                    ("peak_rss_bytes",
                     "serving_worker_peak_resident_bytes"),
                    ("open_fds", "serving_worker_open_fds")):
                rows = [(worker_id, snapshot[key]) for worker_id,
                        snapshot in sorted(worker_resources.items())
                        if key in snapshot]
                if not rows:
                    continue
                lines.append(f"# TYPE {name} gauge")
                lines.extend(
                    format_sample(name, {"worker": worker_id},
                                  float(value))
                    for worker_id, value in rows)
        return "\n".join(lines) + "\n"

    @property
    def trace_rate(self) -> float:
        """Per-batch trace sampling rate (0 disables tracing)."""
        return self._batcher.trace_sampler.rate

    def set_trace_rate(self, rate: float) -> float:
        """Set the per-batch trace sampling rate; returns the new rate.

        A sampled batch runs under a ``serving.batch`` trace in its
        worker and its per-stage timings come back through the metrics
        deltas as ``stage_seconds{stage=...}`` observations — and its
        stitched cross-process trace lands in the trace buffer.
        """
        self._check_open()
        self._batcher.trace_sampler.set_rate(rate)
        return self.trace_rate

    # ------------------------------------------------------------------
    # Distributed traces, SLOs, auditing
    # ------------------------------------------------------------------

    def traces(self, *, limit: Optional[int] = 50,
               min_ms: float = 0.0, errors_only: bool = False):
        """Newest-first stitched traces from the batcher's buffer."""
        self._check_open()
        return self._batcher.trace_buffer.traces(
            limit=limit, min_ms=min_ms, errors_only=errors_only)

    def traces_chrome(self, *, limit: Optional[int] = 50,
                      min_ms: float = 0.0,
                      errors_only: bool = False) -> dict:
        """Buffered traces as a Chrome trace-event JSON object (opens
        in Perfetto / ``chrome://tracing``)."""
        return chrome_trace(self.traces(
            limit=limit, min_ms=min_ms, errors_only=errors_only))

    def trace_buffer_stats(self) -> Dict[str, object]:
        self._check_open()
        return self._batcher.trace_buffer.stats()

    def slo_status(self) -> Dict[str, object]:
        """Evaluate every objective now (``GET /slo`` payload).

        Also refreshes the ``slo_burn_rate`` / ``slo_budget_remaining``
        gauges, so a scrape right after sees the same numbers.
        """
        self._check_open()
        return self._slo.evaluate()

    @property
    def auditor(self) -> Optional[OracleAuditor]:
        """The oracle auditor, or ``None`` when ``audit_rate`` is 0."""
        return self._auditor

    def audit_stats(self) -> Optional[Dict[str, object]]:
        self._check_open()
        return (self._auditor.stats()
                if self._auditor is not None else None)

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------

    def profile(self, seconds: float = 2.0,
                hz: float = DEFAULT_HZ, *,
                workers: bool = False) -> Dict[str, int]:
        """Profile for a bounded window; returns folded-stack counts.

        With ``workers=False`` (default) the parent process is sampled
        — the submitting/collector/HTTP threads, i.e. serving overhead.
        With ``workers=True`` the window activates the continuous
        profiler in every worker instead (activation and folded-stack
        deltas ride the ordinary batch channel), so the counts
        attribute actual query execution. Worker profiles only
        accumulate while batches flow; an idle window returns what
        little shipped with the stop nudge.
        """
        self._check_open()
        if not workers:
            profiler = collect_profile(seconds, hz)
            return profiler.folded()
        batcher = self._batcher
        batcher.worker_profile(take=True)  # drop stale samples
        batcher.set_profile_hz(hz)
        try:
            time.sleep(seconds)
        finally:
            batcher.set_profile_hz(0.0)
            self._nudge_workers()
        return batcher.worker_profile(take=True)

    def _nudge_workers(self, timeout: float = 5.0) -> None:
        """One tiny batch addressed to each worker, so every worker
        sees the current ``profile_hz`` and ships its accumulated
        profile deltas.

        A busy worker gets its nudge when it frees, the others at
        once; responses are merged by the collector before the futures
        resolve, so waiting on the futures is waiting on the deltas.
        """
        if self._snapshots.current.graph.num_vertices < 1:
            return
        for future in self._batcher.nudge_workers():
            try:
                future.result(timeout=timeout)
            except Exception:
                pass  # the nudge's answer is irrelevant

    @property
    def profile_hz(self) -> float:
        """Current worker continuous-profiling rate (0 = off)."""
        return self._batcher.profile_hz

    def set_profile_hz(self, hz: float) -> float:
        """Set the worker continuous-profiling rate; returns it.

        Unlike :meth:`profile` this leaves the profiler running —
        merged folded stacks accumulate in the batcher and can be read
        (or drained) any time via ``worker_profile``.
        """
        self._check_open()
        self._batcher.set_profile_hz(hz)
        return self.profile_hz

    def worker_profile(self, *, take: bool = False) -> Dict[str, int]:
        """Fleet-wide folded-stack counts accumulated so far."""
        self._check_open()
        return self._batcher.worker_profile(take=take)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise ServingError("query service is closed")

    def close(self) -> None:
        """Drain, stop the workers, release snapshot storage.

        Nothing outlives the call: no worker process, no serving
        thread, no snapshot file and no directory the service created
        for them.
        """
        if self._closed:
            return
        self._closed = True
        if self._auditor is not None:
            self._auditor.close()
        if self._batcher is not None:
            self._batcher.close()
        if self._pool is not None:
            self._pool.close()
        if self._batcher is not None:
            # Only now: the workers' exit is what wakes the collector.
            self._batcher.join()
        self._snapshots.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
