"""Shortest Path Network Interdiction over SPGs.

One of the three applications motivating the paper's introduction:
find critical edges and vertices whose removal destroys all shortest
paths between two vertices [Israeli & Wood 2002; Khachiyan et al.
2008]. Because the SPG contains *exactly* the shortest paths, the
single-element interdiction question reduces to counting paths through
each element on the SPG DAG — no enumeration, no re-search.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..core.spg import ShortestPathGraph

__all__ = ["InterdictionReport", "analyze_interdiction",
           "vertex_path_counts"]

Edge = Tuple[int, int]


def _dag_counts(spg: ShortestPathGraph):
    """Forward/backward path counts per vertex on the SPG DAG."""
    level = spg.levels()
    adjacency: Dict[int, List[int]] = defaultdict(list)
    for a, b in spg.edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    forward: Dict[int, int] = defaultdict(int)
    forward[spg.source] = 1
    for x in sorted(level, key=level.get):
        for y in adjacency[x]:
            if level[y] == level[x] + 1:
                forward[y] += forward[x]
    backward: Dict[int, int] = defaultdict(int)
    backward[spg.target] = 1
    for x in sorted(level, key=level.get, reverse=True):
        for y in adjacency[x]:
            if level[y] == level[x] - 1:
                backward[y] += backward[x]
    return level, forward, backward


def vertex_path_counts(spg: ShortestPathGraph) -> Dict[int, int]:
    """Number of shortest paths through each SPG vertex."""
    if spg.distance in (None, 0):
        return {spg.source: spg.count_paths()}
    level, forward, backward = _dag_counts(spg)
    return {x: forward[x] * backward[x] for x in spg.vertices}


@dataclass
class InterdictionReport:
    """Single-element interdiction analysis of one vertex pair."""

    source: int
    target: int
    distance: int
    total_paths: int
    critical_edges: Set[Edge]
    critical_vertices: Set[int]
    edge_coverage: Dict[Edge, float]
    vertex_coverage: Dict[int, float]

    @property
    def is_interdictable_by_one_edge(self) -> bool:
        """True iff removing one edge destroys every shortest path."""
        return bool(self.critical_edges)

    @property
    def is_interdictable_by_one_vertex(self) -> bool:
        """True iff removing one interior vertex destroys them all."""
        return bool(self.critical_vertices)

    def best_edge(self) -> Edge:
        """The edge whose removal kills the most shortest paths."""
        return max(self.edge_coverage, key=self.edge_coverage.get)

    def best_vertex(self) -> int:
        """The interior vertex whose removal kills the most paths."""
        if not self.vertex_coverage:
            raise ValueError("no interior vertices to interdict")
        return max(self.vertex_coverage, key=self.vertex_coverage.get)


def analyze_interdiction(spg: ShortestPathGraph) -> InterdictionReport:
    """Single-edge / single-vertex interdiction analysis.

    ``coverage`` values are the fraction of shortest paths an element
    removes; a coverage of 1.0 marks a critical element.
    """
    if spg.distance is None:
        raise ValueError("cannot interdict a disconnected pair")
    if spg.distance == 0:
        raise ValueError("cannot interdict a trivial pair")
    total = spg.count_paths()
    level, forward, backward = _dag_counts(spg)
    edge_cov: Dict[Edge, float] = {}
    for edge, through in spg.edge_betweenness().items():
        edge_cov[edge] = through / total
    vertex_cov: Dict[int, float] = {}
    for x in spg.vertices:
        if x in (spg.source, spg.target):
            continue
        vertex_cov[x] = forward[x] * backward[x] / total
    return InterdictionReport(
        source=spg.source,
        target=spg.target,
        distance=spg.distance,
        total_paths=total,
        critical_edges={e for e, c in edge_cov.items() if c == 1.0},
        critical_vertices={x for x, c in vertex_cov.items() if c == 1.0},
        edge_coverage=edge_cov,
        vertex_coverage=vertex_cov,
    )
