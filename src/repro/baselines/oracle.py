"""Ground-truth SPG computation by double BFS.

This is the "straightforward solution" of the paper's introduction —
compute all shortest paths on the fly with BFS — reformulated as an
edge predicate so it never enumerates paths:

    edge (x, y) lies on a shortest u-v path
        iff dist_u[x] + 1 + dist_v[y] == d(u, v)   (for some orientation)

Two full BFS passes over ``G`` give both distance arrays; a single
vectorized pass over the arc array extracts the SPG edge set. It is
``O(|V| + |E|)``, obviously correct, and therefore the test oracle for
QbS and every other method in the library. On a ``DiGraph`` the first
pass runs along the arcs from ``u`` and the second against them from
``v``, which is the whole of the directed case.
"""

from __future__ import annotations

import numpy as np

from .._util import UNREACHED
from ..core.spg import ShortestPathGraph
from ..directed.digraph import DiGraph
from ..graph.traversal import bfs_distances

__all__ = ["spg_oracle", "spg_edges_from_distances", "distance_oracle"]


def distance_oracle(graph, u: int, v: int):
    """Exact ``d(u, v)`` by BFS, ``None`` if disconnected."""
    dist = bfs_distances(graph, u)
    d = int(dist[v])
    return None if d == UNREACHED else d


def spg_edges_from_distances(graph, dist_u: np.ndarray,
                             dist_v: np.ndarray, distance: int) -> np.ndarray:
    """Vectorized SPG edge extraction from two exact distance arrays.

    Returns an ``(k, 2)`` array of arcs ``(x, y)`` with
    ``dist_u[x] + 1 + dist_v[y] == distance`` — i.e. the arc is crossed
    in the ``u -> v`` direction by some shortest path. ``dist_v`` holds
    distances *to* ``v``.
    """
    n = graph.num_vertices
    src = np.repeat(np.arange(n, dtype=np.int32),
                    np.diff(graph.out_indptr))
    dst = graph.out_indices
    reach = (dist_u[src] != UNREACHED) & (dist_v[dst] != UNREACHED)
    on_path = reach & (dist_u[src] + 1 + dist_v[dst] == distance)
    return np.column_stack((src[on_path], dst[on_path]))


def spg_oracle(graph, u: int, v: int) -> ShortestPathGraph:
    """Exact shortest path graph from ``u`` to ``v`` (ground truth);
    a directed answer when ``graph`` is a ``DiGraph``."""
    directed = isinstance(graph, DiGraph)
    graph._check_vertex(u)
    graph._check_vertex(v)
    if u == v:
        return ShortestPathGraph.trivial(u, directed)
    dist_u = bfs_distances(graph, u)
    if dist_u[v] == UNREACHED:
        return ShortestPathGraph.empty(u, v, directed)
    distance = int(dist_u[v])
    dist_v = bfs_distances(graph, v, forward=False)
    edge_array = spg_edges_from_distances(graph, dist_u, dist_v, distance)
    edges = map(tuple, edge_array.tolist())
    return ShortestPathGraph(u, v, distance, edges, directed)
