"""The :class:`PathIndex` contract — one surface for every index family.

The paper presents Query-by-Sketch as one member of a family of
labelling-based shortest-path-graph indexes and benchmarks it against
several others (PPL, ParentPPL, the naive labelling, online Bi-BFS).
This module defines the single contract they all satisfy — build,
distance / batched distance, SPG query (with search instrumentation
where a family has counters), uniform ``stats`` / ``size_bytes``, and
one npz/json persistence format (:mod:`repro.engine.persist`).

Implementations register themselves with
:func:`repro.engine.registry.register_index`, which is what makes
:func:`~repro.engine.registry.build_index` and the conformance test
suite enumerate them without fan-out edits.
"""

from __future__ import annotations

import abc
from operator import index as _as_int
from typing import Any, ClassVar, Dict, Iterable, List, Optional, Tuple

import numpy as np

from .._util import UNREACHED
from ..core.spg import ShortestPathGraph
from ..errors import IndexFormatError, QueryError, VertexError
from .batch import finalize_distances, pairs_to_arrays

__all__ = ["PathIndex"]

#: ``to_state`` return type: (json-able metadata, named numpy arrays).
State = Tuple[Dict[str, Any], Dict[str, np.ndarray]]


class PathIndex(abc.ABC):
    """Abstract base for every shortest-path-graph index family.

    One class per family, registered under a string method name. The
    four query methods are written here, once — they check the ids,
    answer ``u == v`` (``0`` / the trivial SPG) and hand the rest to
    the family's ``_distance`` / ``_query`` / ``_distance_many`` — so
    this is the only place an id is checked, and the only place a
    distance batch becomes a Python list.

    An id is an integer in ``[0, num_vertices)``; anything with
    ``__index__`` is one (``np.int64(3)`` is ``3``, ``True`` is ``1``).
    A float (``2.0`` too), a string or ``None`` raises
    :class:`~repro.errors.QueryError`, an integer out of range
    :class:`~repro.errors.VertexError` — the same two on every family
    and every surface built on one (sessions, the query service, HTTP
    ``400``). ``query`` answers with one
    :class:`~repro.core.spg.ShortestPathGraph` whatever the graph
    kind; a directed family's carries ``directed=True``.

    A batch goes in and comes out as arrays: ``_distance_many`` takes
    checked int64 id arrays and returns an int32 array of the same
    length with :data:`~repro._util.UNREACHED` where there is no path
    — what the kernels compute. ``distance_many`` boxes it to
    ``List[Optional[int]]``, once; a family composing other indexes'
    answers (sharded) asks them for ``_distance_array`` instead.
    """

    #: Registry key, set by :func:`~repro.engine.registry.register_index`.
    method: ClassVar[str] = ""

    #: True for families built over :class:`~repro.directed.digraph.DiGraph`.
    directed: ClassVar[bool] = False

    #: The counters type ``_query`` fills through its ``stats=``
    #: keyword, on families that instrument their search (QbS, Bi-BFS).
    search_stats: ClassVar[Optional[type]] = None

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

    def check_pair(self, u, v) -> Tuple[int, int]:
        """``(u, v)`` as in-range Python ints, or the typed refusal —
        for callers that key on a pair before they ask about it."""
        try:
            u, v = _as_int(u), _as_int(v)
        except TypeError:
            raise QueryError(
                f"vertex ids must be integers; got ({u!r}, {v!r})"
            ) from None
        n = self.num_vertices
        if not 0 <= u < n:
            raise VertexError(u, n)
        if not 0 <= v < n:
            raise VertexError(v, n)
        return u, v

    def distance(self, u: int, v: int) -> Optional[int]:
        """Exact shortest-path distance (``None`` when disconnected)."""
        u, v = self.check_pair(u, v)
        return 0 if u == v else self._distance(u, v)

    def distance_many(self, pairs: Iterable[Tuple[int, int]]
                      ) -> List[Optional[int]]:
        """Exact distances for a batch of ``(u, v)`` pairs — the
        answers of :meth:`distance` per pair, from one vectorized
        kernel call where the family has one
        (:mod:`repro.engine.batch`). An integer ``(k, 2)`` ndarray is
        validated without any per-pair work."""
        return finalize_distances(self._distance_array(
            *pairs_to_arrays(pairs, self.num_vertices)))

    def _distance_array(self, us: np.ndarray, vs: np.ndarray
                        ) -> np.ndarray:
        """``distance_many`` between validation and boxing: checked
        int64 id arrays in (``us[i] == vs[i]`` allowed, answered 0
        here), the int32 answer array out."""
        dist = np.zeros(len(us), dtype=np.int32)
        rest = np.flatnonzero(us != vs)
        dist[rest] = self._distance_many(us[rest], vs[rest])
        return dist

    def query(self, u: int, v: int) -> ShortestPathGraph:
        """The exact shortest path graph between ``u`` and ``v``."""
        u, v = self.check_pair(u, v)
        if u == v:
            return ShortestPathGraph.trivial(u, self.directed)
        return self._query(u, v)

    def query_with_stats(self, u: int, v: int, **search):
        """Like :meth:`query`, returning ``(spg, stats_or_None)``:
        a populated :class:`~repro.core.search.SearchStats` from the
        instrumented families (QbS, Bi-BFS). ``search`` options go
        through to ``_query`` (QbS: ``use_budgets``)."""
        u, v = self.check_pair(u, v)
        stats = None
        if self.search_stats is not None:
            stats = search["stats"] = self.search_stats()
        if u == v:
            return ShortestPathGraph.trivial(u, self.directed), stats
        return self._query(u, v, **search), stats

    @abc.abstractmethod
    def _distance(self, u: int, v: int) -> Optional[int]:
        """``distance`` for checked, distinct ``u`` and ``v``."""

    def _distance_many(self, us: np.ndarray, vs: np.ndarray
                       ) -> np.ndarray:
        """``distance_many`` for checked int64 id arrays, ``us[i] !=
        vs[i]`` throughout (possibly empty): an int32 array of that
        length, ``UNREACHED`` where there is no path. Default: pair
        by pair."""
        return np.fromiter(
            (UNREACHED if d is None else d
             for d in map(self._distance, us.tolist(), vs.tolist())),
            dtype=np.int32, count=len(us))

    @abc.abstractmethod
    def _query(self, u: int, v: int) -> ShortestPathGraph:
        """``query`` for checked, distinct ``u`` and ``v``."""

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
        """Vertex count of the indexed graph — what the front door
        range-checks against. Mutable families override this, because
        their ``graph`` property materializes a snapshot."""
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
