"""Naive full path labelling (§3.2 first paragraph).

One full BFS per vertex, storing all pairwise distances:
``L(v) = {(u, δ_vu) | u ∈ V}``. Construction is ``O(|V||E|)`` time and
``O(|V|^2)`` space — the paper introduces it only to motivate pruning,
and we keep it for small-graph sanity comparisons (it doubles as an
independent distance oracle in tests).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from .._util import UNREACHED, TimeBudget
from ..core.spg import ShortestPathGraph
from ..engine.base import PathIndex
from ..engine.persist import graph_arrays, graph_from_arrays
from ..engine.registry import register_index
from ..errors import BudgetExceededError
from ..graph.csr import Graph
from ..graph.traversal import bfs_distances
from .oracle import spg_edges_from_distances

__all__ = ["NaiveLabelling"]


@register_index("naive")
class NaiveLabelling(PathIndex):
    """Dense all-pairs distance matrix built by |V| BFSs."""

    #: Guard against accidentally building a quadratic matrix on a
    #: large graph (the paper's point, enforced).
    MAX_VERTICES = 20_000

    def __init__(self, graph: Graph, matrix: np.ndarray) -> None:
        self._graph = graph
        self._matrix = matrix

    @classmethod
    def build(cls, graph: Graph,
              budget: Optional[TimeBudget] = None) -> "NaiveLabelling":
        n = graph.num_vertices
        if n > cls.MAX_VERTICES:
            raise BudgetExceededError(
                f"naive labelling needs a {n}x{n} matrix; refusing "
                f"(limit {cls.MAX_VERTICES} vertices)", kind="memory",
            )
        matrix = np.empty((n, n), dtype=np.int32)
        for v in range(n):
            if budget is not None and v % 64 == 0:
                budget.check()
            bfs_distances(graph, v, out=matrix[v])
        return cls(graph, matrix)

    def _distance(self, u: int, v: int) -> Optional[int]:
        d = int(self._matrix[u, v])
        return None if d == UNREACHED else d

    def _distance_many(self, us, vs) -> np.ndarray:
        """One fancy-index gather over the all-pairs matrix."""
        return self._matrix[us, vs]

    def _query(self, u: int, v: int) -> ShortestPathGraph:
        """SPG directly from the stored distance rows."""
        distance = self._distance(u, v)
        if distance is None:
            return ShortestPathGraph.empty(u, v)
        edge_array = spg_edges_from_distances(
            self._graph, self._matrix[u], self._matrix[v], distance
        )
        return ShortestPathGraph(u, v, distance,
                                 map(tuple, edge_array.tolist()))

    def num_entries(self) -> int:
        """Label entries (finite distances) — size(L) accounting."""
        return int(np.count_nonzero(self._matrix != UNREACHED))

    def paper_size_bytes(self) -> int:
        return self.num_entries() * 5

    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def size_bytes(self) -> int:
        return self.paper_size_bytes()

    @property
    def stats(self) -> Dict[str, Any]:
        base = super().stats
        base["label_entries"] = self.num_entries()
        return base

    def to_state(self):
        return {}, {**graph_arrays(self._graph), "matrix": self._matrix}

    @classmethod
    def from_state(cls, meta, arrays):
        return cls(graph_from_arrays(arrays),
                   np.asarray(arrays["matrix"], dtype=np.int32))
