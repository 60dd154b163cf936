"""Incremental maintenance of pruned path labels under edge updates.

The PPL and ParentPPL families (Section 3.2) are 2-hop *distance
covers*: for every pair ``(u, v)`` some landmark ``r`` on a shortest
``u``-``v`` path appears in both labels with exact distances, so the
rank merge-join returns ``d(u, v)`` exactly. This module keeps that
property true while the graph changes, without rebuilding:

* **Insertion** (:func:`repair_insert`) — resumed pruned BFS, the
  classic incremental scheme for pruned landmark labellings (Akiba,
  Iwata and Yoshida, *Dynamic and historical shortest-path distance
  queries on large evolving networks*, WWW 2014, adapted to path
  labels). A new edge ``(a, b)`` only creates shortest paths of the
  form ``r ⇝ a → b ⇝ w`` (or the mirror image) that cross it exactly
  once, so for every entry ``(r, δ)`` in ``L(a)`` a partial BFS is
  resumed from ``b`` at depth ``δ + 1``, pruned wherever the current
  labels already answer ``≤`` the candidate depth. Existing entries are
  lowered in place, missing ones inserted; cost is proportional to the
  region whose distances actually changed.

* **Deletion** — decremental 2-hop maintenance is the hard direction
  (stored distances become *under*-estimates, which a min merge-join
  cannot detect), so deletions are handled by invalidation: deleted
  edges stay in the labels' graph as *phantom* edges, and a pair with
  one on a label-shortest path is *poisoned*. One vectorized screen in
  :class:`~repro.dynamic.index.DynamicIndex` finds poisoned pairs for
  scalar and batch queries alike; they are re-validated by a
  label-guided delta-BFS (:func:`guided_levels`) that walks only
  vertices on label-shortest paths, and pairs whose distance grew fall
  back to a plain BFS. The rebuild policy bounds the phantom set.

Soundness of the guided search (used for validation *and* for exact
SPG extraction): with ``G ⊆ G_label`` and ``d = d_label(s, t)``, every
vertex ``x`` on a current shortest ``s``-``t`` path of length ``d``
satisfies ``d_label(s, x) + d_label(x, t) = d`` with both terms equal
to the current distances (squeeze by the triangle inequality), so the
level-restricted BFS reaches exactly the current shortest-path
vertices at their true depths, and an edge ``(x, y)`` with
``level_s[x] + 1 + level_t[y] = d`` lies on a current shortest path.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Optional, \
    Sequence, Tuple

import numpy as np

from ..baselines.ppl import PPLIndex
from ..core.build_kernels import ParentsView, RaggedView

__all__ = ["MutableLabels", "repair_insert", "guided_levels"]

#: ``neighbors(v) -> array of neighbour ids`` — the adjacency callback
#: used by the repair BFS and the guided search.
NeighborFn = Callable[[int], Iterable[int]]

_merge_min = PPLIndex._query_distance_lists

_INF = float("inf")


def _flatten_ragged(lists: Sequence[Sequence[int]], dtype
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Ragged list-of-lists -> (offsets[n+1], flat) arrays."""
    offsets = np.zeros(len(lists) + 1, dtype=np.int64)
    if len(lists):
        offsets[1:] = np.cumsum([len(x) for x in lists])
    flat = np.empty(int(offsets[-1]), dtype=dtype)
    position = 0
    for values in lists:
        flat[position:position + len(values)] = values
        position += len(values)
    return offsets, flat


class MutableLabels:
    """Rank-sorted 2-hop path labels with in-place entry updates.

    Owns per-vertex parallel ``(rank, distance)`` lists (and, for
    ParentPPL, the aligned parent-tuple lists) — the mutable
    counterpart of the flat CSR layout the static label families hold.
    :meth:`from_flat` deep-copies that layout into lists, :meth:`to_flat`
    writes it back. ``order`` maps rank -> vertex id; ``rank_of`` is
    its inverse.
    """

    def __init__(self, order: np.ndarray,
                 label_ranks: List[List[int]],
                 label_dists: List[List[int]],
                 label_parents: Optional[List[List[Tuple[int, ...]]]] = None
                 ) -> None:
        self.order = order
        self.rank_of = np.empty(len(label_ranks), dtype=np.int64)
        self.rank_of[order] = np.arange(len(label_ranks))
        self.ranks = label_ranks
        self.dists = label_dists
        self.parents = label_parents
        self.repaired_entries = 0
        self._cov = None

    @classmethod
    def from_flat(cls, arrays, with_parents: bool) -> "MutableLabels":
        """Copy a label family's ``to_state`` arrays into lists."""
        offsets = arrays["label_offsets"]
        parents = None
        if with_parents:
            parents = [list(row) for row in ParentsView(
                offsets, arrays["parent_offsets"], arrays["parents"])]
        return cls(
            arrays["order"].astype(np.int64),
            [row.tolist()
             for row in RaggedView(offsets, arrays["label_ranks"])],
            [row.tolist()
             for row in RaggedView(offsets, arrays["label_dists"])],
            parents)

    def to_flat(self) -> Dict[str, np.ndarray]:
        """The labels as ``to_state`` arrays (the static families'
        names and dtypes, so archives and snapshots stay one layout)."""
        offsets, flat_ranks = _flatten_ragged(self.ranks, np.int64)
        _, flat_dists = _flatten_ragged(self.dists, np.int32)
        arrays = {"order": self.order, "label_offsets": offsets,
                  "label_ranks": flat_ranks, "label_dists": flat_dists}
        if self.parents is not None:
            arrays["parent_offsets"], arrays["parents"] = _flatten_ragged(
                [parents for per_vertex in self.parents
                 for parents in per_vertex], np.int32)
        return arrays

    def _covered_by_rank(self) -> np.ndarray:
        """Dense ``L(root)``-by-rank scratch for the repair BFS.

        Allocated once and reused across resumes; callers scatter one
        root's label into it and must restore ``inf`` before returning.
        """
        if self._cov is None:
            self._cov = np.full(len(self.rank_of), _INF,
                                dtype=np.float64)
        return self._cov

    def distance(self, u: int, v: int) -> Optional[int]:
        """Exact distance in the labels' graph (``None`` if apart)."""
        if u == v:
            return 0
        best = _merge_min(self.ranks[u], self.dists[u],
                          self.ranks[v], self.dists[v])
        return None if best == _INF else int(best)

    def num_entries(self) -> int:
        return sum(len(ranks) for ranks in self.ranks)

    def paper_size_bytes(self) -> int:
        """The family's paper model: 5 bytes per entry, plus 4 per
        stored parent for ParentPPL labels."""
        size = self.num_entries() * 5
        if self.parents is not None:
            size += 4 * sum(len(parents) for per_vertex in self.parents
                            for parents in per_vertex)
        return size

    def set_entry(self, w: int, rank: int, dist: int) -> None:
        """Insert or lower the entry ``(rank, dist)`` on vertex ``w``.

        For ParentPPL labels the aligned parent slot is set to the
        empty tuple — parent sets are rebuilt, not repaired (the
        dynamic query path never reads them; see ``DynamicIndex``).
        """
        ranks = self.ranks[w]
        position = bisect_left(ranks, rank)
        if position < len(ranks) and ranks[position] == rank:
            self.dists[w][position] = dist
            if self.parents is not None:
                self.parents[w][position] = ()
        else:
            ranks.insert(position, rank)
            self.dists[w].insert(position, dist)
            if self.parents is not None:
                self.parents[w].insert(position, ())
        self.repaired_entries += 1


def repair_insert(labels: MutableLabels, neighbors: NeighborFn,
                  a: int, b: int) -> None:
    """Restore label exactness after inserting the edge ``(a, b)``.

    ``neighbors`` must describe the labels' graph *including* the new
    edge (and any phantom edges still credited to the labels). Labels
    must be exact for that graph minus ``(a, b)`` on entry; they are
    exact for the full graph on return.
    """
    for x, y in ((a, b), (b, a)):
        # Snapshot: entries added while repairing must not re-drive
        # the loop. Stored rank order = highest priority first.
        for root_rank, d_rx in list(zip(labels.ranks[x], labels.dists[x])):
            _resume_pruned_bfs(labels, neighbors, root_rank, y, d_rx + 1)


def _resume_pruned_bfs(labels: MutableLabels, neighbors: NeighborFn,
                       root_rank: int, start: int, start_dist: int) -> None:
    """Partial BFS for landmark ``order[root_rank]`` from ``start``.

    A vertex is labelled (and expanded) only where the candidate depth
    strictly beats what the current labels already answer — the
    standard prune that confines the walk to the region whose
    distances the new edge actually changed.

    Frontier-at-a-time (same shape as the construction kernels): each
    level's prune test is one vectorized label merge. ``L(root)`` is
    scattered by rank into a persistent dense scratch, making
    ``known(w)`` a gather-add-min over ``L(w)``'s entries; that stays
    valid for the whole resume because the walk never relabels the
    root itself (``known(root) = 0`` always prunes).
    """
    root = int(labels.order[root_rank])
    covered_by_rank = labels._covered_by_rank()
    scattered = np.asarray(labels.ranks[root], dtype=np.int64)
    covered_by_rank[scattered] = labels.dists[root]
    frontier = [int(start)]
    depth = start_dist
    try:
        while frontier:
            rows = [labels.ranks[w] for w in frontier]
            counts = np.fromiter((len(r) for r in rows),
                                 dtype=np.int64, count=len(rows))
            known = np.full(len(frontier), _INF, dtype=np.float64)
            if int(counts.sum()):
                flat_ranks = np.concatenate(
                    [np.asarray(r, dtype=np.int64)
                     for r in rows if len(r)])
                flat_dists = np.concatenate(
                    [np.asarray(labels.dists[w], dtype=np.float64)
                     for w, r in zip(frontier, rows) if len(r)])
                offsets = np.concatenate(
                    (np.zeros(1, dtype=np.int64), np.cumsum(counts)[:-1]))
                known[counts > 0] = np.minimum.reduceat(
                    covered_by_rank[flat_ranks] + flat_dists,
                    offsets[counts > 0])
            collected: List[int] = []
            for w, best in zip(frontier, known):
                if w == root or best <= depth:
                    continue
                labels.set_entry(w, root_rank, depth)
                for z in neighbors(w):
                    collected.append(int(z))
            if collected:
                frontier = np.unique(
                    np.asarray(collected, dtype=np.int64)).tolist()
            else:
                frontier = []
            depth += 1
    finally:
        covered_by_rank[scattered] = _INF


def guided_levels(labels: MutableLabels, neighbors: NeighborFn,
                  s: int, t: int, d: int) -> Dict[int, int]:
    """Label-guided BFS from ``s`` towards ``t`` over ``neighbors``.

    Walks the *current* graph (pass current adjacency) but only
    through vertices the labels place on a shortest ``s``-``t`` path
    at the matching depth: ``x`` is admitted at level ``k`` iff
    ``d_label(s, x) = k`` and ``d_label(x, t) = d - k``. Returns
    ``{vertex: level}`` for every admitted vertex.

    Reading the result: ``t`` present (at level ``d``) iff the current
    distance still equals ``d``; and against a second sweep from ``t``,
    ``levels_s[x] + 1 + levels_t[y] = d`` characterizes exactly the
    current SPG edges (module docstring).
    """
    levels = {s: 0}
    rejected = set()
    frontier = [s]
    for k in range(d):
        next_frontier: List[int] = []
        for x in frontier:
            for z in neighbors(x):
                z = int(z)
                if z in levels or z in rejected:
                    continue
                if labels.distance(s, z) != k + 1 \
                        or labels.distance(z, t) != d - k - 1:
                    # Levels only grow, so a vertex that fails its
                    # first reachable level can never be admitted.
                    rejected.add(z)
                    continue
                levels[z] = k + 1
                next_frontier.append(z)
        if not next_frontier:
            break
        frontier = next_frontier
    return levels
