"""ParentPPL — pruned path labelling with parent sets (§3.2).

Each label entry is a triple ``(r, δ_vr, W_vr)`` where ``W_vr`` holds
the *parent* vertices of ``v`` towards landmark ``r`` (all neighbours
at recorded depth ``δ_vr - 1`` in the pruned BFS from ``r``). The paper
stores parents on the vertex side (not the landmark side) because
landmarks have high degree.

Query note (reproduction deviation, documented in DESIGN.md): with
*pruned* labels, parent sets can be incomplete for shortest paths whose
vertices were discovered late in the pruned BFS — those paths are
covered by earlier landmarks via the 2-hop path cover instead. A
parent-walk alone is therefore not exact. Our query walks parents
*and* performs the common-landmark split, taking the union; this keeps
ParentPPL exact at the cost of some of the query-time advantage the
paper reports on the two smallest datasets. The construction-side
behaviour the paper emphasizes (roughly 2x label size, slower builds,
earlier OOM/DNF walls — Tables 2 and 3) is preserved.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, FrozenSet, Set, Tuple

import numpy as np

from ..core.build_kernels import ParentsView
from ..engine.registry import register_index
from .ppl import PPLIndex, _norm

__all__ = ["ParentPPLIndex"]

Edge = Tuple[int, int]


@register_index("parent-ppl")
class ParentPPLIndex(PPLIndex):
    """PPL labels augmented with per-entry parent sets.

    Everything but the parent sets is :class:`PPLIndex`: the same sound
    label rule and build kernel (with parent collection switched on —
    the neighbourhood scan is what makes ParentPPL slower to build,
    "finding all parents takes more time", §6.2.1, and the parent sets
    are what roughly double its size, Table 3), the same distance
    paths (parents play no role in distances), the same flat layout
    plus ``parent_offsets`` / ``parents``: entry ``e`` (a position in
    ``label_ranks``) owns ``parents[parent_offsets[e]:parent_offsets[e
    + 1]]``.
    """

    LABEL_ARRAYS = {**PPLIndex.LABEL_ARRAYS,
                    "parent_offsets": np.int64, "parents": np.int32}

    def __init__(self, graph, order, labels, *, label_store=None,
                 batch_labels=None) -> None:
        super().__init__(graph, order, labels, label_store=label_store,
                         batch_labels=batch_labels)
        self._label_parents = ParentsView(labels["label_offsets"],
                                          labels["parent_offsets"],
                                          labels["parents"])
        rank_of = np.empty(len(order), dtype=np.int64)
        rank_of[order] = np.arange(len(order))
        self._rank_of = rank_of

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _resolve(self, a: int, b: int, distance: int,
                 memo: Dict[Edge, FrozenSet[Edge]]) -> FrozenSet[Edge]:
        """The label split of PPL plus parent walks towards whichever
        endpoint is the landmark of a stored entry (possible when
        ``rank(other) < rank(self)``)."""
        key = _norm(a, b)
        cached = memo.get(key)
        if cached is not None:
            return cached
        edges = super()._resolve(a, b, distance, memo)
        if distance >= 2:
            edges = (edges | self._parent_walk(a, b, distance)
                     | self._parent_walk(b, a, distance))
            memo[key] = edges
        return edges

    def _parent_walk(self, start: int, landmark_vertex: int,
                     distance: int) -> Set[Edge]:
        """Follow parent sets from ``start`` down to ``landmark_vertex``.

        Emits the edges of every shortest path whose vertices the
        pruned BFS from the landmark discovered at exact depth.
        """
        target_rank = int(self._rank_of[landmark_vertex])
        entry = self._entry_for(start, target_rank)
        if entry is None or entry[0] != distance:
            return set()
        edges: Set[Edge] = set()
        frontier = {start}
        level = distance
        seen: Set[int] = set()
        while frontier and level > 0:
            next_frontier: Set[int] = set()
            for x in frontier:
                if x in seen:
                    continue
                seen.add(x)
                x_entry = self._entry_for(x, target_rank)
                if x_entry is None or x_entry[0] != level:
                    continue
                for w in x_entry[1]:
                    edges.add(_norm(x, w))
                    next_frontier.add(w)
            frontier = next_frontier
            level -= 1
        return edges

    def _entry_for(self, vertex: int, rank: int):
        """Return ``(distance, parents)`` of the entry for ``rank``."""
        ranks = self._label_ranks[vertex]
        i = bisect_left(ranks, rank)
        if i < len(ranks) and ranks[i] == rank:
            return self._label_dists[vertex][i], self._label_parents[vertex][i]
        return None

    # ------------------------------------------------------------------
    # Size accounting (Table 3)
    # ------------------------------------------------------------------

    def num_parent_slots(self) -> int:
        """Total stored parent vertices across all entries."""
        return len(self._label_parents.parents)

    def paper_size_bytes(self) -> int:
        """Paper model: 32-bit landmark + 8-bit distance + 32-bit/parent."""
        return self.num_entries() * 5 + self.num_parent_slots() * 4

    @property
    def stats(self) -> Dict[str, Any]:
        base = super().stats
        base["parent_slots"] = self.num_parent_slots()
        return base

    def to_state(self):
        meta, arrays = super().to_state()
        arrays["parent_offsets"] = np.asarray(
            self._label_parents.parent_offsets)
        arrays["parents"] = np.asarray(self._label_parents.parents)
        return meta, arrays
