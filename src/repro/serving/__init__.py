"""Concurrent query serving over the PathIndex engine.

The paper's index answers a query in microseconds; this package turns
that into a *service* that answers millions of them — the ROADMAP's
"heavy traffic" north star. Four pieces, each usable alone:

* :class:`~repro.serving.pool.WorkerPool` — N worker processes
  answering query batches from materialized snapshot replicas
  (parallelism that actually scales: processes, not GIL-bound
  threads; a snapshot crosses the boundary as one page-aligned
  file every worker maps read-only — every array as is, or packed as
  an out-of-core label store), one duplex pipe and at most one batch
  per worker;
* :class:`~repro.serving.batcher.Batcher` — the one queue in front of
  the pool and its one dispatch rule (a worker is idle: send; none
  is: wait and coalesce — no timer), intra-batch deduplication,
  queue-depth admission control, and per-request time budgets;
* :class:`~repro.serving.snapshot.SnapshotManager` — versioned,
  hot-swappable snapshots keyed on ``PathIndex.version``, so serving
  stays oracle-exact per epoch while a
  :class:`~repro.dynamic.DynamicIndex` absorbs edge updates;
* the front-ends — :class:`~repro.serving.service.QueryService` (the
  in-process facade), :func:`~repro.serving.http.make_server` (a
  stdlib JSON-over-HTTP endpoint), and
  :func:`~repro.serving.loadgen.run_closed_loop` (the closed-loop
  load generator behind ``serve --smoke`` and
  ``benchmarks/test_serving.py``).

Quickstart::

    from repro import QueryOptions, build_index
    from repro.serving import QueryService

    index = build_index(graph, "dynamic")
    with QueryService(index, num_workers=4,
                      options=QueryOptions(mode="distance",
                                           cache_size=4096)) as svc:
        svc.query(u, v).value            # through batching + pool
        svc.apply_updates([("insert", a, b)])  # hot-swaps a snapshot

or, from the command line, ``python -m repro serve --dataset douban
--workers 4 --port 8080``.
"""

from .batcher import Answer, Batcher
from .http import ServingHTTPServer, make_server, render_value
from .loadgen import LoadReport, percentile, run_burst, run_closed_loop
from .pool import BatchMessage, BatchResponse, PairError, WorkerPool, \
    default_num_workers
from .service import QueryService
from .snapshot import (
    SNAPSHOT_STORES,
    Snapshot,
    SnapshotHandle,
    SnapshotManager,
    materialize_snapshot,
)

__all__ = [
    "QueryService",
    "WorkerPool",
    "Batcher",
    "Answer",
    "SnapshotManager",
    "Snapshot",
    "SnapshotHandle",
    "materialize_snapshot",
    "SNAPSHOT_STORES",
    "BatchMessage",
    "BatchResponse",
    "PairError",
    "default_num_workers",
    "ServingHTTPServer",
    "make_server",
    "render_value",
    "LoadReport",
    "run_closed_loop",
    "run_burst",
    "percentile",
]
