"""The :class:`PathIndex` contract — one surface for every index family.

The paper presents Query-by-Sketch as one member of a family of
labelling-based shortest-path-graph indexes and benchmarks it against
several others (PPL, ParentPPL, the naive labelling, online Bi-BFS).
Each family in this repo grew its own ad-hoc surface; this module
defines the single contract they all satisfy:

* ``build(graph, **params)``  — offline construction (classmethod);
* ``distance(u, v)``          — exact distance, ``None`` if apart;
* ``distance_many(pairs)``    — batched distances (families override
  the per-pair default with vectorized kernels; see
  :mod:`repro.engine.batch`);
* ``query(u, v)``             — the shortest path graph, exactly;
* ``query_many(pairs)``       — batched queries;
* ``query_with_stats(u, v)``  — query plus search instrumentation
  (``None`` stats where a family has no counters);
* ``stats`` / ``size_bytes``  — uniform introspection;
* ``save(path)`` / ``load(path)`` — one npz/json persistence format
  for every family (see :mod:`repro.engine.persist`).

Implementations register themselves with
:func:`repro.engine.registry.register_index`, which is what makes
:func:`~repro.engine.registry.build_index` and the conformance test
suite enumerate them without fan-out edits.
"""

from __future__ import annotations

import abc
from typing import Any, ClassVar, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..errors import IndexFormatError

__all__ = ["PathIndex"]

#: ``to_state`` return type: (json-able metadata, named numpy arrays).
State = Tuple[Dict[str, Any], Dict[str, np.ndarray]]


class PathIndex(abc.ABC):
    """Abstract base for every shortest-path-graph index family.

    Subclasses are the concrete index implementations, one class per
    family, each registered under a string method name.
    The contract is graph-kind agnostic: undirected families answer
    with :class:`~repro.core.spg.ShortestPathGraph`, directed families
    with :class:`~repro.directed.spg.DirectedSPG`; both expose
    ``distance``, ``count_paths`` and edge/arc sets.
    """

    #: Registry key, set by :func:`~repro.engine.registry.register_index`.
    method: ClassVar[str] = ""

    #: True for families built over :class:`~repro.directed.digraph.DiGraph`.
    directed: ClassVar[bool] = False

    @property
    def is_directed(self) -> bool:
        """Whether ``(u, v)`` and ``(v, u)`` are distinct queries.

        On undirected families the answer is symmetric, so result
        caches and batch deduplication normalize keys to
        ``(min(u, v), max(u, v))``; directed families keep ordered
        keys. :class:`~repro.engine.session.QuerySession` and the
        serving :class:`~repro.serving.batcher.Batcher` both gate
        their key normalization on this flag.
        """
        return type(self).directed

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    @abc.abstractmethod
    def build(cls, graph, **params) -> "PathIndex":
        """Build the index over ``graph`` (the offline phase)."""

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def distance(self, u: int, v: int) -> Optional[int]:
        """Exact shortest-path distance (``None`` when disconnected)."""

    def distance_many(self, pairs: Iterable[Tuple[int, int]]
                      ) -> List[Optional[int]]:
        """Exact distances for a batch of ``(u, v)`` pairs.

        The contract's answers are identical to calling
        :meth:`distance` per pair — this default does exactly that.
        Families with array-backed labels override it with one
        vectorized kernel invocation per batch
        (:mod:`repro.engine.batch`); callers should always prefer
        this entry point for more than a handful of pairs.
        """
        return [self.distance(u, v) for u, v in pairs]

    @abc.abstractmethod
    def query(self, u: int, v: int):
        """The exact shortest path graph between ``u`` and ``v``."""

    def query_with_stats(self, u: int, v: int):
        """Like :meth:`query`, returning ``(spg, stats_or_None)``.

        Families with search instrumentation (QbS, Bi-BFS) override
        this to return a populated
        :class:`~repro.core.search.SearchStats`.
        """
        return self.query(u, v), None

    def query_many(self, pairs: Iterable[Tuple[int, int]]) -> List:
        """Answer a batch of ``(u, v)`` queries."""
        return [self.query(u, v) for u, v in pairs]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    @abc.abstractmethod
    def graph(self):
        """The graph the index was built over."""

    @property
    def num_vertices(self) -> int:
        """Vertex count of the indexed graph.

        Kept contract-level so hot paths can range-check vertex ids
        without touching :attr:`graph` — mutable families override
        this, because their ``graph`` property materializes a
        snapshot.
        """
        return self.graph.num_vertices

    @property
    @abc.abstractmethod
    def size_bytes(self) -> int:
        """Index size under the paper's byte-accounting models.

        Zero for online methods that precompute nothing (Bi-BFS).
        """

    @property
    def version(self) -> int:
        """Mutation counter for cache invalidation.

        Static families never change after ``build`` and return ``0``
        forever; mutable families (the dynamic subsystem) bump this on
        every applied update. :class:`~repro.engine.session.
        QuerySession` keys its result cache on it, so cached answers
        can never outlive the graph state they were computed on.
        """
        return 0

    @property
    def stats(self) -> Dict[str, Any]:
        """Uniform index statistics; subclasses extend the base dict."""
        graph = self.graph
        edges = getattr(graph, "num_edges", None)
        if edges is None:
            edges = graph.num_arcs
        return {
            "method": self.method,
            "directed": self.directed,
            "num_vertices": graph.num_vertices,
            "num_edges": int(edges),
            "size_bytes": self.size_bytes,
        }

    # ------------------------------------------------------------------
    # Persistence (uniform npz/json format; see repro.engine.persist)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def to_state(self) -> State:
        """Decompose the index into ``(metadata, arrays)``.

        ``metadata`` must be JSON-serializable; ``arrays`` maps names
        to numpy arrays with non-object dtypes (the archive is written
        and read with ``allow_pickle=False``).
        """

    @classmethod
    @abc.abstractmethod
    def from_state(cls, meta: Dict[str, Any],
                   arrays: Dict[str, np.ndarray]) -> "PathIndex":
        """Reassemble an index from :meth:`to_state` output."""

    def save(self, path) -> None:
        """Persist the index to ``path`` in the uniform npz format."""
        from .persist import save_index

        save_index(self, path)

    @classmethod
    def load(cls, path) -> "PathIndex":
        """Load any saved index; on a subclass, require that family."""
        from .persist import load_index

        index = load_index(path)
        if cls is not PathIndex and index.method != cls.method:
            raise IndexFormatError(
                f"{path}: holds a {index.method!r} index, "
                f"not {cls.method!r}"
            )
        return index
