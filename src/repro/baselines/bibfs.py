"""Bi-BFS — the search-based baseline of Table 2.

A thin, stable-named wrapper over one
:class:`repro.core.search.GuidedSearcher` run with an empty sketch
(what :func:`~repro.core.search.bidirectional_spg` does once per
call): the same alternating level expansion from both endpoints, on
the *full* graph (no labelling, no sparsification, no sketch bound),
followed by the reverse search that extracts the SPG.
The paper reports QbS answering queries 10-300x faster than this
method; the gap is what Figures 10-11 and §6.5 decompose.
"""

from __future__ import annotations

from typing import Optional

from ..core.search import GuidedSearcher, SearchStats
from ..core.sketch import Sketch
from ..core.spg import ShortestPathGraph
from ..engine.base import PathIndex
from ..engine.persist import graph_arrays, graph_from_arrays
from ..engine.registry import register_index
from ..errors import IndexBuildError
from ..graph.csr import Graph

__all__ = ["BiBFS"]


@register_index("bibfs")
class BiBFS(PathIndex):
    """Online bidirectional-BFS query answerer (no precomputation)."""

    search_stats = SearchStats

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        self._searcher = GuidedSearcher(graph, graph)

    @classmethod
    def build(cls, graph: Graph, **params) -> "BiBFS":
        if params:
            raise IndexBuildError(
                f"bibfs precomputes nothing and takes no build "
                f"parameters; got {sorted(params)}"
            )
        return cls(graph)

    def _query(self, u: int, v: int, stats: Optional[SearchStats] = None
               ) -> ShortestPathGraph:
        """Exact ``SPG(u, v)`` via bidirectional BFS + reverse search;
        ``query_with_stats`` hands in the traversal counters (for the
        §6.5 comparison)."""
        found = self._searcher.run(Sketch(u, v, None), stats)
        return ShortestPathGraph(u, v, *found)

    def _distance(self, u: int, v: int) -> Optional[int]:
        return self._searcher.distance_only(Sketch(u, v, None))

    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def size_bytes(self) -> int:
        return 0

    def to_state(self):
        return {}, graph_arrays(self._graph)

    @classmethod
    def from_state(cls, meta, arrays):
        return cls(graph_from_arrays(arrays))
