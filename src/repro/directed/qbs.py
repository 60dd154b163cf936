"""Directed Query-by-Sketch.

The extension the paper claims in §2 ("our work can be easily extended
to directed ... graphs"), built out in full:

* **Labelling** — per landmark ``r``, one *forward* labelled BFS
  (along arcs) producing ``F[v] = d(r -> v)`` for vertices with a
  landmark-avoiding shortest path from ``r``, and one *backward*
  labelled BFS (against arcs) producing ``B[v] = d(v -> r)``. Both use
  the two-queue discipline of Algorithm 2. Landmarks discovered on the
  labelled side become *meta arcs* with exact distances.
* **Sketch** — for a query ``u -> v``, broadcast
  ``B[u][:, None] + d_M + F[v][None, :]`` over the directed meta
  distance matrix; the minimum is the length of the best
  landmark-passing route (the directed Eq. 3).
* **Guided search** — forward BFS from ``u`` and backward BFS from
  ``v`` on the landmark-free subgraph, bounded by ``d_top``; reverse
  and recover searches assemble the directed SPG exactly as in the
  undirected Algorithm 4, with predecessor/successor roles split by
  side.

Queries with landmark endpoints fall back to the exact double-BFS
oracle, mirroring the undirected index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path as _sp_shortest_path

from .._util import NO_LABEL, UNREACHED
from ..engine.base import PathIndex
from ..engine.persist import pack_pairs, unpack_pairs
from ..engine.registry import register_index
from ..errors import IndexBuildError
from ..graph.traversal import expand_frontier
from .digraph import DiGraph, _csr
from .oracle import directed_spg_oracle
from .spg import DirectedSPG

__all__ = ["DirectedQbSIndex"]

Arc = Tuple[int, int]

#: uint8 sentinel distance cap, as in the undirected labelling.
_MAX_DIST = 254


# ----------------------------------------------------------------------
# Labelling
# ----------------------------------------------------------------------

def _labelled_bfs(indptr: np.ndarray, indices: np.ndarray, root: int,
                  is_landmark: np.ndarray,
                  column: np.ndarray) -> List[Tuple[int, int]]:
    """One directed two-queue BFS (Algorithm 2 over one orientation).

    Fills ``column`` with distances of labelled vertices and returns
    landmark hits as ``(landmark_vertex, distance)``.
    """
    visited = np.zeros(len(is_landmark), dtype=bool)
    visited[root] = True
    labelled = np.array([root], dtype=np.int32)
    silent = np.empty(0, dtype=np.int32)
    hits: List[Tuple[int, int]] = []
    depth = 0
    while len(labelled) or len(silent):
        depth += 1
        if depth > _MAX_DIST:
            raise IndexBuildError(
                f"directed BFS from {root} exceeded uint8 distance cap"
            )
        fresh = expand_frontier(indptr, indices, labelled)
        fresh = np.unique(fresh[~visited[fresh]])
        visited[fresh] = True
        landmark_hits = fresh[is_landmark[fresh]]
        labelled_next = fresh[~is_landmark[fresh]]
        column[labelled_next] = depth
        for hit in landmark_hits:
            hits.append((int(hit), depth))
        silent_fresh = expand_frontier(indptr, indices, silent)
        silent_fresh = np.unique(silent_fresh[~visited[silent_fresh]])
        visited[silent_fresh] = True
        labelled = labelled_next
        silent = np.concatenate((landmark_hits, silent_fresh))
    return hits


@dataclass
class _DirectedScheme:
    """Labels and meta-graph of a directed index."""

    landmarks: np.ndarray
    position: np.ndarray                 # vertex -> landmark position
    forward: np.ndarray                  # F[v, i] = d(r_i -> v)
    backward: np.ndarray                 # B[v, i] = d(v -> r_i)
    meta_arcs: Dict[Arc, int] = field(default_factory=dict)
    meta_dist: Optional[np.ndarray] = None

    def is_landmark(self, v: int) -> bool:
        return self.position[v] >= 0


def _build_scheme(graph: DiGraph, landmarks: np.ndarray) -> _DirectedScheme:
    n = graph.num_vertices
    if len(landmarks) == 0:
        raise IndexBuildError("landmark set must be non-empty")
    if len(np.unique(landmarks)) != len(landmarks):
        raise IndexBuildError("duplicate landmarks")
    if landmarks.min() < 0 or landmarks.max() >= n:
        raise IndexBuildError("landmark id out of range")
    position = np.full(n, -1, dtype=np.int32)
    position[landmarks] = np.arange(len(landmarks), dtype=np.int32)
    is_landmark = position >= 0

    forward = np.full((n, len(landmarks)), NO_LABEL, dtype=np.uint8)
    backward = np.full((n, len(landmarks)), NO_LABEL, dtype=np.uint8)
    meta: Dict[Arc, int] = {}
    for i, root in enumerate(landmarks):
        root = int(root)
        # Forward: r -> v distances; hits are meta arcs r -> r'.
        for hit, weight in _labelled_bfs(graph.out_indptr,
                                         graph.out_indices, root,
                                         is_landmark, forward[:, i]):
            _merge_arc(meta, (i, int(position[hit])), weight)
        # Backward: v -> r distances; hits are meta arcs r' -> r.
        for hit, weight in _labelled_bfs(graph.in_indptr,
                                         graph.in_indices, root,
                                         is_landmark, backward[:, i]):
            _merge_arc(meta, (int(position[hit]), i), weight)
    scheme = _DirectedScheme(landmarks=landmarks, position=position,
                             forward=forward, backward=backward,
                             meta_arcs=meta)
    scheme.meta_dist = _meta_distances(meta, len(landmarks))
    return scheme


def _merge_arc(meta: Dict[Arc, int], key: Arc, weight: int) -> None:
    existing = meta.get(key)
    if existing is not None and existing != weight:
        raise IndexBuildError(
            f"inconsistent directed meta arc {key}: {existing} vs {weight}"
        )
    meta[key] = weight


def _meta_distances(arcs: Dict[Arc, int], count: int) -> np.ndarray:
    if not arcs:
        dist = np.full((count, count), np.inf)
        np.fill_diagonal(dist, 0.0)
        return dist
    rows = [a for (a, _b) in arcs]
    cols = [b for (_a, b) in arcs]
    weights = [float(w) for w in arcs.values()]
    matrix = csr_matrix((weights, (rows, cols)), shape=(count, count))
    return _sp_shortest_path(matrix, method="D", directed=True)


# ----------------------------------------------------------------------
# The index
# ----------------------------------------------------------------------

@register_index("qbs-directed")
class DirectedQbSIndex(PathIndex):
    """Query-by-Sketch over a directed graph."""

    directed = True

    def __init__(self, graph: DiGraph, scheme: _DirectedScheme,
                 sparsified: DiGraph) -> None:
        self._graph = graph
        self._scheme = scheme
        self._sparsified = sparsified

    @classmethod
    def build(cls, graph: DiGraph,
              num_landmarks: int = 20,
              landmarks: Optional[np.ndarray] = None
              ) -> "DirectedQbSIndex":
        """Select landmarks (highest total degree) and build labels."""
        if landmarks is None:
            if num_landmarks < 1:
                raise IndexBuildError("need at least one landmark")
            total = graph.total_degree()
            order = np.argsort(-total, kind="stable")
            landmarks = order[:min(num_landmarks,
                                   graph.num_vertices)].astype(np.int32)
        else:
            landmarks = np.asarray(landmarks, dtype=np.int32)
        scheme = _build_scheme(graph, landmarks)
        sparsified = graph.remove_vertices(landmarks)
        return cls(graph, scheme, sparsified)

    @property
    def landmarks(self) -> np.ndarray:
        return self._scheme.landmarks

    @property
    def graph(self) -> DiGraph:
        return self._graph

    @property
    def size_bytes(self) -> int:
        """Forward + backward labels (|R| bytes per vertex each, the
        paper's §6.1 accounting) plus 9 bytes per meta arc."""
        scheme = self._scheme
        label_bytes = 2 * self._graph.num_vertices * len(scheme.landmarks)
        return label_bytes + 9 * len(scheme.meta_arcs)

    @property
    def stats(self) -> Dict[str, Any]:
        base = super().stats
        base.update({
            "num_landmarks": len(self.landmarks),
            "meta_arcs": len(self._scheme.meta_arcs),
        })
        return base

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def to_state(self):
        scheme = self._scheme
        meta_key, meta_weight = pack_pairs(scheme.meta_arcs)
        arrays = {
            "out_indptr": self._graph.out_indptr,
            "out_indices": self._graph.out_indices,
            "landmarks": scheme.landmarks,
            "forward": scheme.forward,
            "backward": scheme.backward,
            "meta_key": meta_key,
            "meta_weight": meta_weight,
        }
        return {}, arrays

    @classmethod
    def from_state(cls, meta, arrays):
        out_indptr = arrays["out_indptr"].astype(np.int64)
        out_indices = arrays["out_indices"].astype(np.int32)
        n = len(out_indptr) - 1
        src = np.repeat(np.arange(n, dtype=np.int32),
                        np.diff(out_indptr))
        graph = DiGraph(*_csr(src, out_indices, n),
                        *_csr(out_indices, src, n))
        landmarks = arrays["landmarks"].astype(np.int32)
        position = np.full(n, -1, dtype=np.int32)
        position[landmarks] = np.arange(len(landmarks), dtype=np.int32)
        scheme = _DirectedScheme(
            landmarks=landmarks,
            position=position,
            forward=arrays["forward"].astype(np.uint8),
            backward=arrays["backward"].astype(np.uint8),
            meta_arcs=unpack_pairs(arrays["meta_key"],
                                   arrays["meta_weight"]),
        )
        scheme.meta_dist = _meta_distances(scheme.meta_arcs,
                                           len(landmarks))
        sparsified = graph.remove_vertices(landmarks)
        return cls(graph, scheme, sparsified)

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------

    def query(self, u: int, v: int) -> DirectedSPG:
        """All shortest directed ``u -> v`` paths, exactly."""
        self._graph._check_vertex(u)
        self._graph._check_vertex(v)
        if u == v:
            return DirectedSPG.trivial(u)
        if self._scheme.is_landmark(u) or self._scheme.is_landmark(v):
            return directed_spg_oracle(self._graph, u, v)
        return self._guided_query(u, v)

    def distance(self, u: int, v: int) -> Optional[int]:
        return self.query(u, v).distance

    # ------------------------------------------------------------------
    # Sketch
    # ------------------------------------------------------------------

    def _sketch(self, u: int, v: int):
        """Directed Eq. 3: route lengths ``u -> r -> r' -> v``."""
        scheme = self._scheme
        du = scheme.backward[u].astype(np.float64)
        du[scheme.backward[u] == NO_LABEL] = np.inf
        dv = scheme.forward[v].astype(np.float64)
        dv[scheme.forward[v] == NO_LABEL] = np.inf
        pi = du[:, None] + scheme.meta_dist + dv[None, :]
        d_top_value = float(pi.min()) if pi.size else np.inf
        if not np.isfinite(d_top_value):
            return None, {}, {}, []
        d_top = int(d_top_value)
        side_u: Dict[int, int] = {}
        side_v: Dict[int, int] = {}
        pairs: List[Arc] = []
        rows, cols = np.nonzero(pi == d_top_value)
        for r, r_prime in zip(rows.tolist(), cols.tolist()):
            side_u[r] = int(du[r])
            side_v[r_prime] = int(dv[r_prime])
            pairs.append((r, r_prime))
        return d_top, side_u, side_v, pairs

    # ------------------------------------------------------------------
    # Guided search
    # ------------------------------------------------------------------

    def _guided_query(self, u: int, v: int) -> DirectedSPG:
        d_top, side_u, side_v, pairs = self._sketch(u, v)
        n = self._graph.num_vertices
        depth_u = np.full(n, UNREACHED, dtype=np.int32)
        depth_v = np.full(n, UNREACHED, dtype=np.int32)
        depth_u[u] = 0
        depth_v[v] = 0
        levels_u: List[np.ndarray] = [np.array([u], dtype=np.int32)]
        levels_v: List[np.ndarray] = [np.array([v], dtype=np.int32)]

        d_minus, meeting = self._bidirectional(
            d_top, depth_u, depth_v, levels_u, levels_v
        )
        candidates = [d for d in (d_minus, d_top) if d is not None]
        if not candidates:
            return DirectedSPG.empty(u, v)
        distance = min(candidates)

        arcs: Set[Arc] = set()
        if d_minus is not None and d_minus == distance:
            arcs |= self._descend_to_source(meeting, depth_u)
            arcs |= self._descend_to_target(meeting, depth_v)
        if d_top is not None and d_top == distance:
            arcs |= self._recover(side_u, side_v, pairs, depth_u, depth_v,
                                  levels_u, levels_v)
        return DirectedSPG(u, v, distance, arcs)

    def _bidirectional(self, d_top, depth_u, depth_v, levels_u, levels_v):
        """Alternating forward/backward level BFS on the sparsified
        graph, bounded by ``d_top``."""
        sparsified = self._sparsified
        frontier_u = levels_u[0]
        frontier_v = levels_v[0]
        count_u = count_v = 1
        while d_top is None or len(levels_u) - 1 + len(levels_v) - 1 < d_top:
            expand_u = len(frontier_u) > 0 and (
                len(frontier_v) == 0 or count_u <= count_v
            )
            if len(frontier_u) == 0 and len(frontier_v) == 0:
                return None, None
            if expand_u:
                fresh = expand_frontier(sparsified.out_indptr,
                                        sparsified.out_indices, frontier_u)
                fresh = np.unique(fresh[depth_u[fresh] == UNREACHED])
                depth_u[fresh] = len(levels_u)
                levels_u.append(fresh)
                frontier_u = fresh
                count_u += len(fresh)
                this_depth, other = depth_u, depth_v
            else:
                fresh = expand_frontier(sparsified.in_indptr,
                                        sparsified.in_indices, frontier_v)
                fresh = np.unique(fresh[depth_v[fresh] == UNREACHED])
                depth_v[fresh] = len(levels_v)
                levels_v.append(fresh)
                frontier_v = fresh
                count_v += len(fresh)
                this_depth, other = depth_v, depth_u
            hits = fresh[other[fresh] != UNREACHED]
            if len(hits):
                sums = this_depth[hits] + other[hits]
                d_minus = int(sums.min())
                return d_minus, hits[sums == d_minus]
            if len(fresh) == 0:
                return None, None
        return None, None

    def _descend_to_source(self, seeds, depth_u) -> Set[Arc]:
        """Arcs of shortest paths from the source to ``seeds`` (walk
        predecessors whose forward depth decreases)."""
        sparsified = self._sparsified
        arcs: Set[Arc] = set()
        buckets: Dict[int, Set[int]] = {}
        for x in seeds:
            d = int(depth_u[int(x)])
            if d > 0:
                buckets.setdefault(d, set()).add(int(x))
        if not buckets:
            return arcs
        for d in range(max(buckets), 0, -1):
            for x in buckets.get(d, ()):
                for p in sparsified.predecessors(x):
                    p = int(p)
                    if depth_u[p] == d - 1:
                        arcs.add((p, x))
                        if d - 1 > 0:
                            buckets.setdefault(d - 1, set()).add(p)
        return arcs

    def _descend_to_target(self, seeds, depth_v) -> Set[Arc]:
        """Arcs of shortest paths from ``seeds`` to the target (walk
        successors whose backward depth decreases)."""
        sparsified = self._sparsified
        arcs: Set[Arc] = set()
        buckets: Dict[int, Set[int]] = {}
        for x in seeds:
            d = int(depth_v[int(x)])
            if d > 0:
                buckets.setdefault(d, set()).add(int(x))
        if not buckets:
            return arcs
        for d in range(max(buckets), 0, -1):
            for x in buckets.get(d, ()):
                for s in sparsified.successors(x):
                    s = int(s)
                    if depth_v[s] == d - 1:
                        arcs.add((x, s))
                        if d - 1 > 0:
                            buckets.setdefault(d - 1, set()).add(s)
        return arcs

    def _recover(self, side_u, side_v, pairs, depth_u, depth_v,
                 levels_u, levels_v) -> Set[Arc]:
        """Directed recover search: reassemble landmark routes."""
        scheme = self._scheme
        arcs: Set[Arc] = set()
        d_u = len(levels_u) - 1
        d_v = len(levels_v) - 1
        # u side: u .. w .. r with B decreasing towards r.
        for r_pos, sigma in side_u.items():
            dm = min(sigma - 1, d_u)
            level = levels_u[dm]
            column = scheme.backward[:, r_pos]
            seeds = level[column[level] == sigma - dm]
            if len(seeds) == 0:
                continue
            arcs |= self._descend_to_source(seeds, depth_u)
            arcs |= self._descend_backward_column(seeds, r_pos)
        # v side: r' .. w .. v with F decreasing towards r'.
        for r_pos, sigma in side_v.items():
            dm = min(sigma - 1, d_v)
            level = levels_v[dm]
            column = scheme.forward[:, r_pos]
            seeds = level[column[level] == sigma - dm]
            if len(seeds) == 0:
                continue
            arcs |= self._descend_to_target(seeds, depth_v)
            arcs |= self._descend_forward_column(seeds, r_pos)
        # Landmark-to-landmark structure.
        expanded: Set[Arc] = set()
        for r, r_prime in set(pairs):
            for a, b in self._meta_spg_arcs(r, r_prime):
                if (a, b) in expanded:
                    continue
                expanded.add((a, b))
                arcs |= self._expand_meta_arc(a, b)
        return arcs

    def _descend_backward_column(self, seeds, r_pos: int) -> Set[Arc]:
        """Walk ``w -> ... -> r`` guided by the B label column."""
        scheme = self._scheme
        sparsified = self._sparsified
        landmark = int(scheme.landmarks[r_pos])
        column = scheme.backward[:, r_pos]
        arcs: Set[Arc] = set()
        buckets: Dict[int, Set[int]] = {}
        for w in seeds:
            w = int(w)
            buckets.setdefault(int(column[w]), set()).add(w)
        if not buckets:
            return arcs
        for delta in range(max(buckets), 0, -1):
            for x in buckets.get(delta, ()):
                if delta == 1:
                    arcs.add((x, landmark))
                    continue
                for y in sparsified.successors(x):
                    y = int(y)
                    if column[y] == delta - 1:
                        arcs.add((x, y))
                        buckets.setdefault(delta - 1, set()).add(y)
        return arcs

    def _descend_forward_column(self, seeds, r_pos: int) -> Set[Arc]:
        """Walk ``r' -> ... -> w`` guided by the F label column."""
        scheme = self._scheme
        sparsified = self._sparsified
        landmark = int(scheme.landmarks[r_pos])
        column = scheme.forward[:, r_pos]
        arcs: Set[Arc] = set()
        buckets: Dict[int, Set[int]] = {}
        for w in seeds:
            w = int(w)
            buckets.setdefault(int(column[w]), set()).add(w)
        if not buckets:
            return arcs
        for delta in range(max(buckets), 0, -1):
            for x in buckets.get(delta, ()):
                if delta == 1:
                    arcs.add((landmark, x))
                    continue
                for y in sparsified.predecessors(x):
                    y = int(y)
                    if column[y] == delta - 1:
                        arcs.add((y, x))
                        buckets.setdefault(delta - 1, set()).add(y)
        return arcs

    def _meta_spg_arcs(self, r: int, r_prime: int) -> List[Arc]:
        """Meta arcs on shortest directed ``r -> r'`` meta paths."""
        if r == r_prime:
            return []
        scheme = self._scheme
        target = scheme.meta_dist[r, r_prime]
        if not np.isfinite(target):
            return []
        result = []
        for (a, b), w in scheme.meta_arcs.items():
            if scheme.meta_dist[r, a] + w + scheme.meta_dist[b, r_prime] \
                    == target:
                result.append((a, b))
        return result

    def _expand_meta_arc(self, a_pos: int, b_pos: int) -> FrozenSet[Arc]:
        """Δ for a directed meta arc: landmark-avoiding a -> b SPG."""
        scheme = self._scheme
        a = int(scheme.landmarks[a_pos])
        b = int(scheme.landmarks[b_pos])
        weight = scheme.meta_arcs[(a_pos, b_pos)]
        if weight == 1:
            return frozenset({(a, b)})
        forward_col = scheme.forward[:, a_pos]
        is_landmark = scheme.position >= 0
        arcs: Set[Arc] = set()
        seeds = [
            int(x) for x in self._graph.predecessors(b)
            if not is_landmark[x] and forward_col[x] == weight - 1
        ]
        for x in seeds:
            arcs.add((x, b))
        current: Set[int] = set(seeds)
        for level in range(weight - 1, 0, -1):
            next_level: Set[int] = set()
            for x in current:
                if level == 1:
                    arcs.add((a, x))
                    continue
                for y in self._graph.predecessors(x):
                    y = int(y)
                    if not is_landmark[y] and forward_col[y] == level - 1:
                        arcs.add((y, x))
                        next_level.add(y)
            current = next_level
        return frozenset(arcs)
