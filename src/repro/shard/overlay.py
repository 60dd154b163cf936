"""The boundary overlay: exact distances over the shard quotient.

Cutting a graph into shards loses every path that crosses a cut edge.
The overlay puts exactly that information back, and nothing more: its
nodes are the **boundary vertices** (endpoints of cut edges), its
edges are

* every cut edge, at weight 1, and
* for each shard, one weighted edge per pair of that shard's boundary
  vertices, at their distance *inside the shard's induced subgraph*
  (omitted when locally disconnected).

Any path in the full graph decomposes into maximal single-shard
segments whose endpoints are boundary vertices, so shortest distances
in this weighted overlay equal shortest distances in the full graph
for every boundary pair — the overlay is an *exact* quotient, not an
approximation. The all-pairs matrix over it (``|B| x |B|``, Dijkstra
via scipy's csgraph) is the "small exact index" the sharded query
assembly combines with shard-local answers:

    d(u, v) = min over (b1 in B(shard(u)), b2 in B(shard(v))) of
              d_local(u, b1) + D[b1, b2] + d_local(b2, v)

(plus the direct shard-local term when u and v cohabit). The matrix
is dense, so overlay memory is quadratic in the boundary — which is
why the partition quality report exists: graphs that shard well have
small boundaries, and graphs that don't will say so up front.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .._util import UNREACHED
from ..errors import GraphValidationError
from ..graph.csr import Graph
from ..graph.traversal import bfs_distances
from .partition import Partition

__all__ = ["BoundaryOverlay", "boundary_clique", "build_overlay",
           "shard_boundary_ids"]


def boundary_clique(subgraph: Graph,
                    boundary_local: np.ndarray) -> np.ndarray:
    """Pairwise local distances among a shard's boundary vertices.

    One BFS per boundary vertex over the shard's induced subgraph;
    returns an ``(b, b)`` int32 matrix with ``UNREACHED`` where the
    shard alone does not connect the pair. This is per-shard build
    work, so the parallel builder runs it next to the inner index
    build inside the same worker process.
    """
    boundary_local = np.asarray(boundary_local, dtype=np.int64)
    b = len(boundary_local)
    clique = np.full((b, b), UNREACHED, dtype=np.int32)
    if b == 0:
        return clique
    scratch = np.empty(subgraph.num_vertices, dtype=np.int32)
    for i, root in enumerate(boundary_local.tolist()):
        bfs_distances(subgraph, int(root), out=scratch)
        clique[i] = scratch[boundary_local]
    return clique


class BoundaryOverlay:
    """Exact all-pairs distances between boundary vertices.

    Stores the sorted global boundary ids, a global-to-overlay
    position map, and the dense distance matrix ``D`` (``UNREACHED``
    sentinel where globally disconnected). ``D[i, j]`` equals the
    *full-graph* distance between boundary vertices ``i`` and ``j``.
    """

    __slots__ = ("boundary", "position", "dist")

    def __init__(self, boundary: np.ndarray, position: np.ndarray,
                 dist: np.ndarray) -> None:
        self.boundary = np.asarray(boundary, dtype=np.int32)
        self.position = np.asarray(position, dtype=np.int32)
        self.dist = np.asarray(dist, dtype=np.int32)
        if self.dist.shape != (len(self.boundary), len(self.boundary)):
            raise GraphValidationError(
                "overlay distance matrix does not match the boundary"
            )

    @property
    def num_boundary(self) -> int:
        return len(self.boundary)

    @property
    def nbytes(self) -> int:
        return int(self.boundary.nbytes + self.position.nbytes
                   + self.dist.nbytes)

    def dist_float(self, rows: np.ndarray,
                   cols: Optional[np.ndarray] = None) -> np.ndarray:
        """Submatrix of ``D`` as float64 with ``inf`` for unreachable.

        The query assembly works in float so numpy ``min`` composes
        unreachable legs without sentinel bookkeeping.
        """
        return float_distances(
            self.dist[np.ix_(rows, cols)] if cols is not None
            else self.dist[rows])


def float_distances(dist: np.ndarray) -> np.ndarray:
    """int32 distances (``UNREACHED`` = no path) as float64 with
    ``inf`` there, for ``min``/``+`` compositions."""
    out = dist.astype(np.float64)
    out[dist == UNREACHED] = np.inf
    return out


def build_overlay(graph: Graph, partition: Partition,
                  shard_boundary_global: Sequence[np.ndarray],
                  cliques: Sequence[np.ndarray]) -> BoundaryOverlay:
    """Assemble the weighted quotient and run all-pairs Dijkstra.

    ``shard_boundary_global[s]`` holds shard ``s``'s boundary vertices
    as global ids (ascending); ``cliques[s]`` the matching local
    distance matrix from :func:`boundary_clique`.
    """
    boundary = partition.boundary_vertices(graph)
    n = graph.num_vertices
    position = np.full(n, -1, dtype=np.int32)
    position[boundary] = np.arange(len(boundary), dtype=np.int32)
    b = len(boundary)
    if b == 0:
        return BoundaryOverlay(boundary, position,
                               np.zeros((0, 0), dtype=np.int32))

    # Dense weight matrix, 0 == no edge (no real edge has weight 0:
    # clique entries join distinct vertices, cut edges have weight 1).
    weights = np.zeros((b, b), dtype=np.float64)

    def _merge(rows: np.ndarray, cols: np.ndarray,
               values: np.ndarray) -> None:
        block = weights[np.ix_(rows, cols)]
        merged = np.where(block == 0, values,
                          np.where(values == 0, block,
                                   np.minimum(block, values)))
        weights[np.ix_(rows, cols)] = merged

    # Cut edges at weight 1 (both endpoints are boundary by definition).
    src = np.repeat(np.arange(n, dtype=np.int32),
                    np.diff(graph.indptr))
    cross = partition.assignment[src] != partition.assignment[
        graph.indices]
    if cross.any():
        rows = position[src[cross]]
        cols = position[graph.indices[cross]]
        weights[rows, cols] = 1.0

    # Per-shard cliques at local-distance weight.
    for shard_boundary, clique in zip(shard_boundary_global, cliques):
        if len(shard_boundary) == 0:
            continue
        overlay_ids = position[shard_boundary]
        values = clique.astype(np.float64)
        values[clique == UNREACHED] = 0.0  # 0 == absent
        np.fill_diagonal(values, 0.0)
        _merge(overlay_ids, overlay_ids, values)

    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    matrix = shortest_path(csr_matrix(weights), method="D",
                           directed=False, unweighted=False)
    dist = np.full((b, b), UNREACHED, dtype=np.int32)
    finite = np.isfinite(matrix)
    dist[finite] = np.rint(matrix[finite]).astype(np.int32)
    return BoundaryOverlay(boundary, position, dist)


def shard_boundary_ids(partition: Partition, graph: Graph
                       ) -> List[np.ndarray]:
    """Per-shard boundary vertices as global ids (ascending)."""
    mask = partition.boundary_mask(graph)
    return [vertices[mask[vertices]]
            for vertices in (partition.shard_vertices(s)
                             for s in range(partition.num_shards))]
