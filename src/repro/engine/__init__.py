"""The unified PathIndex engine: one registry, one query surface, one
persistence format for every index family.

This package is the canonical API for building and querying
shortest-path-graph indexes. The paper's method (QbS) and every
baseline it is benchmarked against plug into the same three pieces:

* :class:`~repro.engine.base.PathIndex` — the uniform index contract
  (``build`` / ``distance`` / ``query`` / ``query_many`` / ``stats`` /
  ``size_bytes`` / ``save`` / ``load``);
* the **registry** — :func:`register_index`, :func:`build_index`,
  :func:`available_methods`; families are string-keyed and each is
  exactly one class, registered in the module that defines it
  (``"qbs"`` :class:`~repro.core.qbs.QbSIndex`, ``"ppl"``
  :class:`~repro.baselines.ppl.PPLIndex`, ``"parent-ppl"``
  :class:`~repro.baselines.parent_ppl.ParentPPLIndex`, ``"naive"``
  :class:`~repro.baselines.naive.NaiveLabelling`, ``"bibfs"``
  :class:`~repro.baselines.bibfs.BiBFS`, ``"qbs-directed"``
  :class:`~repro.directed.qbs.DirectedQbSIndex`, ``"dynamic"``
  :class:`~repro.dynamic.index.DynamicIndex`, ``"sharded"``
  :class:`~repro.shard.index.ShardedIndex`); ``import repro`` loads
  all of them, and a new backend is a one-decorator drop-in;
* :class:`QuerySession` / :class:`QueryOptions` — batched query
  execution with modes (distance | spg | count-paths), wall-clock
  budgets, per-query :class:`~repro.core.search.SearchStats`
  aggregation, and an optional LRU result cache.

Typical use::

    from repro import build_index, load_index, QuerySession, QueryOptions

    index = build_index(graph, method="qbs", num_landmarks=20)
    index.save("qbs.idx")                       # uniform npz format

    session = QuerySession(load_index("qbs.idx"),
                           QueryOptions(mode="count-paths",
                                        cache_size=1024))
    report = session.run(pairs)
    report.results, report.mean_query_ms(), report.aggregate_stats()
"""

from .base import PathIndex
from .persist import (
    describe_index,
    load_index,
    peek_index,
    read_index_state,
    save_index,
)
from .registry import (
    available_methods,
    build_index,
    get_index_class,
    register_index,
)
from .session import BatchReport, QueryOptions, QueryRecord, QuerySession

__all__ = [
    "PathIndex",
    "register_index",
    "build_index",
    "available_methods",
    "get_index_class",
    "save_index",
    "load_index",
    "peek_index",
    "describe_index",
    "read_index_state",
    "QuerySession",
    "QueryOptions",
    "QueryRecord",
    "BatchReport",
]
