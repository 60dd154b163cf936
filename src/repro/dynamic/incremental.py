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

  Most roots prune at ``b`` itself, so they are screened out together
  before any resume: ``L(b)`` is scattered by rank once and one
  gather-add-min over the roots' rows gives ``known(b)`` for all of
  them. Only a root with ``known(b) > δ + 1`` (and ``r ≠ b``) resumes,
  in the same order as without the screen. Skipping the others is
  sound because a repair only inserts or lowers entries — every root
  keeps its own ``(rank, 0)`` — so label distances only fall while
  the roots before it resume, and a root that prunes at ``b`` at the
  start of the pass still prunes there at its turn. Each direction is
  screened just before its pass: the ``(b, a)`` roots after the
  ``(a, b)`` pass has written.

  A resume works one BFS level at a time: one gather prunes the whole
  frontier (:meth:`MutableLabels.distances`), one
  :meth:`MutableLabels.set_entries` writes every surviving vertex, and
  one neighbour call expands them.

* **Deletion** — decremental 2-hop maintenance is the hard direction
  (stored distances become *under*-estimates, which a min merge-join
  cannot detect), so deletions are handled by invalidation: deleted
  edges stay in the labels' graph as *phantom* edges, and a pair with
  one on a label-shortest path is *poisoned*. One vectorized screen in
  :class:`~repro.dynamic.index.DynamicIndex` finds poisoned pairs for
  scalar and batch queries alike; they are re-validated by a
  label-guided delta-BFS (:func:`guided_levels`) that walks only
  vertices on label-shortest paths, one level per step, and pairs
  whose distance grew fall back to a plain BFS. The rebuild policy
  bounds the phantom set.

The labels stay in the one flat CSR layout every label family, the
batch kernel and the archive use (:class:`MutableLabels`): rows are
gapped so an insert shifts one row's tail in place, and they are
compacted back to the packed layout on save.

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

import threading
from typing import Callable, Dict, NamedTuple, Optional

import numpy as np

from .._util import segment_positions, sorted_unique

__all__ = ["MutableLabels", "repair_insert", "guided_levels"]

#: ``neighbors(frontier) -> concatenated neighbour ids`` of a whole
#: frontier (duplicates allowed) — the adjacency callback of the
#: repair BFS and the guided search.
NeighborFn = Callable[[np.ndarray], np.ndarray]


class Rows(NamedTuple):
    """Label rows of a vertex array, end to end (:meth:`MutableLabels.
    gather`): each row's length, where it begins among the gathered
    entries, and every entry's flat slot and rank."""

    counts: np.ndarray
    heads: np.ndarray
    slots: np.ndarray
    ranks: np.ndarray


_INF = float("inf")


def _per_row(ufunc, values: np.ndarray, rows: Rows, empty) -> np.ndarray:
    """``ufunc`` reduced over each row of ``values`` (gathered as
    ``rows``); ``empty`` where a row has no entries."""
    if rows.counts.all():
        return ufunc.reduceat(values, rows.heads)
    out = np.full(len(rows.counts), empty, dtype=values.dtype)
    nonempty = rows.counts > 0
    if nonempty.any():
        # reduceat over the nonempty rows' heads only: an empty row
        # would read the next row's first entry.
        out[nonempty] = ufunc.reduceat(values, rows.heads[nonempty])
    return out


class MutableLabels:
    """Rank-sorted 2-hop path labels as a gapped CSR, updated in place.

    The flat layout of the static families, with room to grow: vertex
    ``v``'s label is ``ranks[starts[v]:starts[v] + lengths[v]]``
    (int64, ascending) beside the same slice of ``dists`` (int32), and
    ``capacity[v]`` slots are reserved from ``starts[v]``. Rows start
    packed, copied once from a family's ``to_state`` arrays. A write
    into a full row moves it to the end of the flat arrays with doubled
    capacity, and the flat arrays grow geometrically. :meth:`to_flat`
    compacts the rows back into the static layout, byte for byte.

    ParentPPL parent sets stay in the family's flat ``parents`` array:
    the entry in slot ``i`` owns ``parents[parent_starts[i]:
    parent_starts[i] + parent_counts[i]]``, and a repaired entry owns
    none. ``order`` maps rank -> vertex id; ``rank_of`` is its inverse.

    One dense by-rank scratch, ``inf`` between uses, serves the scalar
    distance, the frontier gather (:meth:`distances`: the repair's
    screen and prune, the guided walk) and the dynamic index's
    poisoning screen (:meth:`borrow_scratch`).
    """

    def __init__(self, order: np.ndarray, offsets: np.ndarray,
                 ranks: np.ndarray, dists: np.ndarray,
                 parent_offsets: Optional[np.ndarray] = None,
                 parents: Optional[np.ndarray] = None) -> None:
        self.order = np.array(order, dtype=np.int64)
        self.rank_of = np.empty(len(self.order), dtype=np.int64)
        self.rank_of[self.order] = np.arange(len(self.order))
        offsets = np.asarray(offsets, dtype=np.int64)
        self.starts = offsets[:-1].copy()
        self.lengths = np.diff(offsets)
        self.capacity = self.lengths.copy()
        self.ranks = np.array(ranks, dtype=np.int64)
        self.dists = np.array(dists, dtype=np.int32)
        self._used = len(self.ranks)
        #: The per-slot arrays, which move together.
        self._columns = ("ranks", "dists")
        self.parents = None
        if parents is not None:
            parent_offsets = np.asarray(parent_offsets, dtype=np.int64)
            self.parents = np.array(parents, dtype=np.int32)
            self.parent_starts = parent_offsets[:-1].copy()
            self.parent_counts = np.diff(parent_offsets)
            self._columns += ("parent_starts", "parent_counts")
        self.repaired_entries = 0
        self._scratch = np.full(len(self.order), _INF)
        self._scratch_lock = threading.Lock()

    @classmethod
    def from_flat(cls, arrays, with_parents: bool) -> "MutableLabels":
        """Copy a label family's ``to_state`` arrays."""
        parents = ((arrays["parent_offsets"], arrays["parents"])
                   if with_parents else ())
        return cls(arrays["order"], arrays["label_offsets"],
                   arrays["label_ranks"], arrays["label_dists"], *parents)

    def to_flat(self) -> Dict[str, np.ndarray]:
        """The labels compacted into ``to_state`` arrays (the static
        families' names and dtypes, so archives and snapshots stay one
        layout)."""
        live = segment_positions(self.starts, self.lengths)
        arrays = {"order": self.order,
                  "label_offsets": np.cumsum(np.r_[0, self.lengths]),
                  "label_ranks": self.ranks[live],
                  "label_dists": self.dists[live]}
        if self.parents is not None:
            counts = self.parent_counts[live]
            arrays["parent_offsets"] = np.cumsum(np.r_[0, counts])
            arrays["parents"] = self.parents[
                segment_positions(self.parent_starts[live], counts)]
        return arrays

    def row(self, v: int):
        """``(ranks, dists)`` of ``v``'s label: views, valid until the
        next write."""
        start = int(self.starts[v])
        end = start + int(self.lengths[v])
        return self.ranks[start:end], self.dists[start:end]

    def borrow_scratch(self) -> np.ndarray:
        """The shared by-rank scratch (all ``inf``), or a fresh one
        while it is lent out. Give it back with :meth:`return_scratch`
        once every slot written is ``inf`` again; a borrower that
        raises never does, so a dirty scratch is never lent again."""
        if self._scratch_lock.acquire(blocking=False):
            return self._scratch
        return np.full(len(self.order), _INF)

    def return_scratch(self, by_rank: np.ndarray) -> None:
        if by_rank is self._scratch:
            self._scratch_lock.release()

    def distance(self, u: int, v: int) -> Optional[int]:
        """Exact distance in the labels' graph (``None`` if apart):
        ``L(u)`` scattered by rank, one gather, add and min over
        ``L(v)``."""
        if u == v:
            return 0
        ranks_u, dists_u = self.row(u)
        ranks_v, dists_v = self.row(v)
        by_rank = self.borrow_scratch()
        by_rank[ranks_u] = dists_u
        best = (by_rank[ranks_v] + dists_v).min(initial=_INF)
        by_rank[ranks_u] = _INF
        self.return_scratch(by_rank)
        return None if best == _INF else int(best)

    def num_entries(self) -> int:
        return int(self.lengths.sum())

    def paper_size_bytes(self) -> int:
        """The family's paper model: 5 bytes per entry, plus 4 per
        stored parent for ParentPPL labels."""
        size = self.num_entries() * 5
        if self.parents is not None:
            live = segment_positions(self.starts, self.lengths)
            size += 4 * int(self.parent_counts[live].sum())
        return size

    def gather(self, ws: np.ndarray) -> Rows:
        """The rows of ``ws`` end to end."""
        counts = self.lengths[ws]
        slots = segment_positions(self.starts[ws], counts)
        return Rows(counts, counts.cumsum() - counts, slots,
                    self.ranks[slots])

    def distances(self, x: int, ws: np.ndarray,
                  rows: Optional[Rows] = None) -> np.ndarray:
        """Label distance from ``x`` to each of ``ws`` (float, ``inf``
        where apart): ``L(x)`` scattered by rank into the shared
        scratch, then one gather-add-min over the rows of ``ws``
        (``rows``: their :meth:`gather`, if the caller has it)."""
        if rows is None:
            rows = self.gather(ws)
        ranks_x, dists_x = self.row(x)
        by_rank = self.borrow_scratch()
        by_rank[ranks_x] = dists_x
        legs = by_rank[rows.ranks]
        legs += self.dists[rows.slots]
        by_rank[ranks_x] = _INF
        self.return_scratch(by_rank)
        return _per_row(np.minimum, legs, rows, _INF)

    def ahead(self, rows: Rows, rank: int) -> np.ndarray:
        """Entries ranked ahead of ``rank`` in each of ``rows``: where
        ``rank`` sits or would be inserted."""
        return _per_row(np.add, (rows.ranks < rank).astype(np.int64),
                        rows, 0)

    def _move_rows(self, ws: np.ndarray) -> None:
        """Move the full rows ``ws`` to the end together, each with
        doubled capacity; the flat arrays grow geometrically."""
        lengths = self.lengths[ws]
        capacity = np.maximum(2 * lengths, 1)
        moved = self._used + np.cumsum(capacity) - capacity
        self._used += int(capacity.sum())
        grow = self._used > len(self.ranks)
        size = max(self._used, 2 * len(self.ranks))
        old = segment_positions(self.starts[ws], lengths)
        new = segment_positions(moved, lengths)
        used = int(moved[0])
        for name in self._columns:
            column = getattr(self, name)
            if grow:
                # Only the used prefix is written, so the new tail
                # costs no memory until rows move into it.
                prefix, column = column, np.empty(size, column.dtype)
                column[:used] = prefix[:used]
                setattr(self, name, column)
            column[new] = column[old]
        self.starts[ws] = moved
        self.capacity[ws] = capacity

    def set_entries(self, ws: np.ndarray, rank: int, dist: int,
                    ahead: Optional[np.ndarray] = None) -> None:
        """Insert or lower the entry ``(rank, dist)`` on every vertex of
        ``ws`` (distinct ids), in one pass.

        ``ahead`` is :meth:`ahead` over the rows of ``ws`` — the insert
        offsets; a caller that has gathered the rows already passes it.
        The rows that gain an entry and are full move to the end
        together, then their tails shift one slot right in one
        fancy-index copy per column. For ParentPPL labels every written
        entry's parent set becomes empty — parent sets are rebuilt, not
        repaired (the dynamic query path never reads them; see
        ``DynamicIndex``).
        """
        if ahead is None:
            ahead = self.ahead(self.gather(ws), rank)
        lengths = self.lengths[ws]
        at = self.starts[ws] + ahead
        new = ahead == lengths
        new[~new] = self.ranks[at[~new]] != rank
        if new.any():
            grown, lengths, ahead = ws[new], lengths[new], ahead[new]
            full = lengths == self.capacity[grown]
            if full.any():
                self._move_rows(grown[full])
                at[new] = self.starts[grown] + ahead
            tails = segment_positions(at[new], lengths - ahead)
            for name in self._columns:
                column = getattr(self, name)
                column[tails + 1] = column[tails]
            self.lengths[grown] = lengths + 1
        # A lowered entry's rank is rewritten unchanged.
        self.ranks[at] = rank
        self.dists[at] = dist
        if self.parents is not None:
            self.parent_counts[at] = 0
        self.repaired_entries += len(ws)


def repair_insert(labels: MutableLabels, neighbors: NeighborFn,
                  a: int, b: int) -> None:
    """Restore label exactness after inserting the edge ``(a, b)``.

    ``neighbors`` must describe the labels' graph *including* the new
    edge (and any phantom edges still credited to the labels). Labels
    must be exact for that graph minus ``(a, b)`` on entry; they are
    exact for the full graph on return. The roots that would prune at
    their start are screened out first (module docstring).
    """
    for x, y in ((a, b), (b, a)):
        # Copies: entries added while repairing must not re-drive the
        # loop. Stored rank order = highest priority first.
        ranks, dists = (column.copy() for column in labels.row(x))
        roots = labels.order[ranks]
        resume = (labels.distances(y, roots) > dists + 1) & (roots != y)
        for root_rank, d_rx in zip(ranks[resume].tolist(),
                                   dists[resume].tolist()):
            _resume_pruned_bfs(labels, neighbors, root_rank, y, d_rx + 1)


def _resume_pruned_bfs(labels: MutableLabels, neighbors: NeighborFn,
                       root_rank: int, start: int, start_dist: int) -> None:
    """Partial BFS for landmark ``order[root_rank]`` from ``start``.

    A vertex is labelled (and expanded) only where the candidate depth
    strictly beats what the current labels already answer — the
    standard prune that confines the walk to the region whose
    distances the new edge actually changed.

    One level per step: the frontier's rows are gathered once, and
    that gather serves both the prune (``known(w)`` for the whole
    frontier, :meth:`MutableLabels.distances`) and the write (each
    row's insert offset, :meth:`MutableLabels.set_entries`). The root
    itself always prunes (``known(root) = 0``), so its row, scattered
    afresh each level, never changes during the resume.
    """
    root = int(labels.order[root_rank])
    frontier = np.array([start], dtype=np.int64)
    depth = start_dist
    while len(frontier):
        rows = labels.gather(frontier)
        write = (labels.distances(root, frontier, rows) > depth) \
            & (frontier != root)
        if not write.any():
            break
        frontier = frontier[write]
        labels.set_entries(frontier, root_rank, depth,
                           labels.ahead(rows, root_rank)[write])
        frontier = sorted_unique(neighbors(frontier))
        depth += 1


def guided_levels(labels: MutableLabels, neighbors: NeighborFn,
                  s: int, t: int, d: int) -> Dict[int, int]:
    """Label-guided BFS from ``s`` towards ``t`` over ``neighbors``.

    Walks the *current* graph (pass current adjacency) but only
    through vertices the labels place on a shortest ``s``-``t`` path
    at the matching depth: ``x`` is admitted at level ``k`` iff
    ``d_label(s, x) = k`` and ``d_label(x, t) = d - k``. Returns
    ``{vertex: level}`` for every admitted vertex.

    One level per step: the candidates are the frontier's unique
    neighbours not seen before, and each test is one gather over them.
    Levels only grow, so a vertex that fails at its first reachable
    level can never be admitted, and every candidate is seen once.

    Reading the result: ``t`` present (at level ``d``) iff the current
    distance still equals ``d``; and against a second sweep from ``t``,
    ``levels_s[x] + 1 + levels_t[y] = d`` characterizes exactly the
    current SPG edges (module docstring).
    """
    seen = np.zeros(len(labels.order), dtype=bool)
    seen[s] = True
    frontier = np.array([s], dtype=np.int64)
    found = [frontier]
    for k in range(d):
        candidates = sorted_unique(neighbors(frontier))
        candidates = candidates[~seen[candidates]]
        seen[candidates] = True
        near = candidates[labels.distances(s, candidates) == k + 1]
        frontier = near[labels.distances(t, near) == d - k - 1]
        if not len(frontier):
            break
        found.append(frontier)
    levels: Dict[int, int] = {}
    for k, level in enumerate(found):
        levels.update(dict.fromkeys(level.tolist(), k))
    return levels
