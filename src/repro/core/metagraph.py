"""Meta-graph ``M = (R, E_R, σ)`` and inter-landmark path material.

Definition 4.1: landmarks are joined by an edge iff some shortest path
between them avoids all other landmarks; the weight is their exact
distance. Because every landmark-to-landmark shortest path decomposes
at its landmark visits into such edges, shortest-path distances *on the
meta-graph* equal distances in ``G`` — which is what makes the sketch
upper bound (Eq. 3) exact for landmark-passing paths. Over a directed
graph the edges are arcs and ``d_M`` is asymmetric; which of the two it
is comes from the labelling (:attr:`PathLabelling.symmetric`).

This module also precomputes ``Δ``: for every meta edge ``(a, b)``, the
shortest path graph of the landmark-avoiding ``a``–``b`` paths in
``G``. §5.2/§6.5 of the paper precompute these so queries never search
between high-degree landmarks; Table 3 reports their size as
``size(Δ)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path as _sp_shortest_path

from ..graph.traversal import descend_levels
from .labelling import PathLabelling
from .spg import _normalize

__all__ = ["MetaGraph", "build_meta_graph"]

Edge = Tuple[int, int]


@dataclass
class MetaGraph:
    """Meta-graph over landmark *positions* ``0..|R|-1``.

    Attributes
    ----------
    landmarks:
        Landmark vertex ids (positions index into this).
    edges:
        ``(i, j) -> weight`` (σ of Definition 4.1): arcs ``i -> j``,
        or undirected edges keyed ``i < j`` when ``symmetric``.
    dist:
        ``(|R|, |R|)`` float64 matrix of meta-graph distances ``d_M``
        (``inf`` when disconnected; 0 on the diagonal).
    symmetric:
        The labelling's :attr:`~PathLabelling.symmetric`.
    delta:
        ``(i, j) -> frozenset of G edges``: the precomputed SPG of
        landmark-avoiding shortest paths for each meta edge (Δ) —
        ``(tail, head)`` arcs, or normalized ``(min, max)`` edges when
        ``symmetric``.
    """

    landmarks: np.ndarray
    edges: Dict[Edge, int]
    dist: np.ndarray
    symmetric: bool
    delta: Dict[Edge, FrozenSet[Edge]] = field(default_factory=dict)
    _edge_arrays: Optional[tuple] = field(default=None, repr=False)
    _spg_cache: Dict[Edge, List[Edge]] = field(default_factory=dict,
                                               repr=False)

    @property
    def num_landmarks(self) -> int:
        return len(self.landmarks)

    def edge_key(self, i: int, j: int) -> Edge:
        """The key ``edges`` and ``delta`` hold meta edge ``i -> j``
        under."""
        return (min(i, j), max(i, j)) if self.symmetric else (i, j)

    def weight(self, i: int, j: int) -> int:
        """σ(i, j) for an existing meta edge."""
        return self.edges[self.edge_key(i, j)]

    def _arrays(self):
        """Meta edges as parallel numpy arrays (lazily materialized)."""
        if self._edge_arrays is None:
            if self.edges:
                keys = sorted(self.edges)
                a = np.fromiter((k[0] for k in keys), dtype=np.int64,
                                count=len(keys))
                b = np.fromiter((k[1] for k in keys), dtype=np.int64,
                                count=len(keys))
                w = np.fromiter((self.edges[k] for k in keys),
                                dtype=np.float64, count=len(keys))
            else:
                a = b = np.empty(0, dtype=np.int64)
                w = np.empty(0, dtype=np.float64)
            object.__setattr__(self, "_edge_arrays", (a, b, w))
        return self._edge_arrays

    def meta_spg_edges(self, i: int, j: int) -> List[Edge]:
        """Meta edges lying on shortest ``i`` -> ``j`` paths *in M*,
        each as the ``(tail, head)`` it is traversed in.

        A meta edge ``(a, b)`` of weight ``w`` is on such a path iff
        ``d_M[i,a] + w + d_M[b,j] == d_M[i,j]``; a ``symmetric`` edge
        may instead be walked ``b -> a``, and is then returned as
        ``(b, a)`` — an oriented answer needs to know which. Used by
        Algorithm 3 lines 10-12 to put landmark-to-landmark structure
        into the sketch. Vectorized over the edge arrays and memoized
        per landmark pair — this is the §5.2 precomputation that keeps
        sketching O(|R|^2).
        """
        if i == j:
            return []
        cached = self._spg_cache.get((i, j))
        if cached is not None:
            return cached
        target = self.dist[i, j]
        if not np.isfinite(target):
            self._spg_cache[(i, j)] = []
            return []
        a, b, w = self._arrays()
        on_path = self.dist[i, a] + w + self.dist[b, j] == target
        result = [(int(x), int(y))
                  for x, y in zip(a[on_path], b[on_path])]
        if self.symmetric:
            on_path = self.dist[i, b] + w + self.dist[a, j] == target
            result += [(int(y), int(x))
                       for x, y in zip(a[on_path], b[on_path])]
        self._spg_cache[(i, j)] = result
        return result

    def delta_total_edges(self) -> int:
        """Total stored Δ edges (the size(Δ) accounting of Table 3)."""
        return sum(len(edges) for edges in self.delta.values())

    def paper_size_bytes(self) -> int:
        """Meta-graph storage under the paper's model (§6.2.2).

        Each meta edge: two 32-bit landmark ids plus an 8-bit weight.
        """
        return len(self.edges) * 9


def build_meta_graph(graph, labelling: PathLabelling,
                     precompute_delta: bool = True) -> MetaGraph:
    """Assemble the meta-graph from a built labelling.

    ``precompute_delta=False`` skips the Δ materialization — the
    ablation bench uses this to measure what §6.5 calls source of gain
    (3); queries then rebuild landmark segments on the fly.
    """
    meta = MetaGraph(
        landmarks=labelling.landmarks,
        edges=dict(labelling.meta_edges),
        dist=_meta_distances(labelling.meta_edges,
                             labelling.num_landmarks,
                             labelling.symmetric),
        symmetric=labelling.symmetric,
    )
    if precompute_delta:
        for (i, j), weight in sorted(meta.edges.items()):
            arcs = landmark_pair_arcs(graph, labelling, i, j, weight)
            if meta.symmetric:
                arcs = (_normalize(x, y) for x, y in arcs)
            meta.delta[(i, j)] = frozenset(arcs)
    return meta


def _meta_distances(edges: Dict[Edge, int], count: int,
                    symmetric: bool) -> np.ndarray:
    """All-pairs shortest distances on the weighted meta-graph."""
    if count == 0:
        return np.zeros((0, 0))
    if not edges:
        dist = np.full((count, count), np.inf)
        np.fill_diagonal(dist, 0.0)
        return dist
    rows, cols = zip(*edges)
    matrix = csr_matrix(
        (np.fromiter(edges.values(), dtype=np.float64, count=len(edges)),
         (np.asarray(rows), np.asarray(cols))),
        shape=(count, count),
    )
    # The meta-graph is tiny (|R| <= a few hundred); Dijkstra from every
    # node is effectively free next to the labelling BFSs. Undirected
    # mode walks an (i, j) entry both ways, which is what a symmetric
    # graph's once-stored edges mean.
    return _sp_shortest_path(matrix, method="D", directed=not symmetric)


def landmark_pair_arcs(graph, labelling: PathLabelling,
                       i: int, j: int, weight: int) -> Set[Edge]:
    """Δ(i, j): arcs of the landmark-avoiding shortest a -> b paths.

    Label-guided descent from the ``b`` side: the last interior vertex
    of such a path is a predecessor of ``b`` labelled ``weight - 1``
    from ``a``, and from there each step just filters predecessors on
    the ``a`` label column (landmark rows carry no labels, so the walk
    cannot enter one).
    """
    a = int(labelling.landmarks[i])
    b = int(labelling.landmarks[j])
    if weight == 1:
        return {(a, b)}
    column = labelling.reverse_matrix[:, i]
    before_b = graph.in_indices[graph.in_indptr[b]:graph.in_indptr[b + 1]]
    seeds = before_b[column[before_b] == weight - 1]
    arcs = {(int(x), b) for x in seeds}
    descend_levels(graph, column, a, seeds, arcs, forward=True)
    return arcs
