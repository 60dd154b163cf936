"""Query-by-Sketch (QbS): shortest path graph queries at scale.

A faithful, laptop-scale reproduction of *Query-by-Sketch: Scaling
Shortest Path Graph Queries on Very Large Networks* (SIGMOD 2021).

Quickstart::

    from repro import Graph, build_index

    graph = Graph.from_edges([(0, 1), (1, 2), (0, 3), (3, 2)])
    index = build_index(graph, method="qbs", num_landmarks=2)
    spg = index.query(0, 2)          # shortest path graph, exactly
    spg.distance                     # 2
    sorted(spg.edges)                # [(0, 1), (0, 3), (1, 2), (2, 3)]
    spg.count_paths()                # 2

Engine API (``repro.engine``)
-----------------------------

Every index family — QbS and each baseline the paper benchmarks it
against — plugs into one engine surface:

* **Registry** — families are string-keyed; ``build_index(graph,
  method=..., **params)`` is the single construction entry point,
  ``available_methods()`` enumerates what is registered (``"qbs"``,
  ``"ppl"``, ``"parent-ppl"``, ``"naive"``, ``"bibfs"``,
  ``"qbs-directed"``, ``"dynamic"``, ``"sharded"``), and
  ``@register_index("name")`` drops a new backend in with zero
  call-site edits.
* **PathIndex contract** — every built index answers ``distance(u,
  v)``, ``query(u, v)`` (the exact shortest path graph),
  ``query_many(pairs)``, and exposes ``stats`` and ``size_bytes``
  under the paper's byte-accounting models.
* **Persistence** — ``index.save(path)`` / ``load_index(path)`` speak
  one self-describing, pickle-free npz/json format for every family;
  the loader dispatches through the registry.
* **Sessions** — ``QuerySession(index, QueryOptions(...))`` executes
  batches with a query mode (``distance`` | ``spg`` |
  ``count-paths``), an optional wall-clock budget (truncating, never
  raising), per-query ``SearchStats`` aggregation, and an optional
  LRU result cache.

Each family is one class (``QbSIndex``, ``PPLIndex``, ...), exported
here; ``build_index(graph, "qbs")`` and ``QbSIndex.build(graph)``
return the same type.

See ``README.md`` for the system inventory and ``python -m repro
--help`` for the experiment, ``build`` and ``query`` commands.
"""

from .baselines import BiBFS, NaiveLabelling, ParentPPLIndex, PPLIndex, \
    spg_oracle
from .core import (
    QbSIndex,
    SearchStats,
    ShortestPathGraph,
    Sketch,
    bidirectional_spg,
    select_landmarks,
)
from .engine import (
    BatchReport,
    PathIndex,
    QueryOptions,
    QuerySession,
    available_methods,
    build_index,
    load_index,
    register_index,
)
from .errors import (
    BudgetExceededError,
    GraphFormatError,
    GraphValidationError,
    IndexBuildError,
    IndexFormatError,
    QueryError,
    ReproError,
    VertexError,
)
from .graph import Graph, GraphBuilder, build_graph

# Importing the directed package registers "qbs-directed".
from . import directed  # noqa: F401  (import for side effect)

# Importing the dynamic package registers the "dynamic" engine family.
from .dynamic import DeltaGraph, DynamicIndex

# Importing the shard package registers the "sharded" engine family.
from .shard import ShardedIndex

__version__ = "1.3.0"

__all__ = [
    "__version__",
    "Graph",
    "GraphBuilder",
    "build_graph",
    "QbSIndex",
    "ShortestPathGraph",
    "Sketch",
    "SearchStats",
    "select_landmarks",
    "BiBFS",
    "PPLIndex",
    "ParentPPLIndex",
    "NaiveLabelling",
    "spg_oracle",
    "bidirectional_spg",
    "PathIndex",
    "DeltaGraph",
    "DynamicIndex",
    "ShardedIndex",
    "build_index",
    "available_methods",
    "register_index",
    "load_index",
    "QuerySession",
    "QueryOptions",
    "BatchReport",
    "ReproError",
    "GraphFormatError",
    "GraphValidationError",
    "VertexError",
    "IndexBuildError",
    "IndexFormatError",
    "BudgetExceededError",
    "QueryError",
]
