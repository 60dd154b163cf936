"""Pruned Path Labelling (PPL) — Section 3.2, Algorithm 1.

PPL adapts Pruned Landmark Labelling (Akiba et al., SIGMOD 2013) to the
shortest-path-*graph* problem: every vertex is a landmark, processed in
descending degree order, and labels must form a 2-hop **path** cover
(Definition 3.2) so the recursive query can split every shortest path
at a common interior landmark.

Reproduction finding (exercised by
``tests/test_ppl.py::test_paper_algorithm1_counterexample`` against the
verbatim builder kept in ``tests/_reference_builders.py``): the pruning
rule of the paper's Algorithm 1 — keep the label on ``d_L == depth``
but stop expanding — does **not** guarantee a 2-hop path cover.
Stopping expansion can leave a vertex undiscovered at its true depth
in a later-relevant BFS, so the final labels can miss the interior
landmark some shortest path needs, and the recursive query silently
drops paths. This module therefore builds a corrected labelling with
the rule

      label (r, u)  iff  some shortest r-u path has every *interior*
      vertex ranked strictly below r,

computed per landmark with one full BFS (exact distances) plus one
rank-restricted BFS (distances using only lower-ranked interiors);
``u`` is labelled iff the two agree. This is a 2-hop path cover:
for any pair ``(u, v)`` and any shortest path ``p`` with
``|p| >= 2``, the maximum-ranked interior vertex ``r`` of ``p``
satisfies the rule for both ``u`` and ``v`` (the sub-paths' interiors
are interiors of ``p``, hence outranked by ``r``), so ``r`` is a
common label landmark lying on ``p``. Construction stays
``O(|V| |E|)`` and the label sets remain PPL-sized.

PPL is the labelling-based baseline of Table 2, expected to lose to
QbS by orders of magnitude at scale.
"""

from __future__ import annotations

from typing import Any, ClassVar, Dict, FrozenSet, List, Mapping, \
    Optional, Sequence, Set, Tuple

import numpy as np

from .._util import TimeBudget
from ..core.build_kernels import RaggedView, build_sound_labels
from ..core.spg import ShortestPathGraph
from ..engine.base import PathIndex
from ..engine.batch import LabelArrays, two_hop_distance_many
from ..engine.persist import graph_arrays, graph_from_arrays
from ..engine.registry import register_index
from ..graph.csr import Graph

__all__ = ["PPLIndex"]

Edge = Tuple[int, int]

INF = float("inf")


def _norm(a: int, b: int) -> Edge:
    return (a, b) if a <= b else (b, a)


@register_index("ppl")
class PPLIndex(PathIndex):
    """Pruned path labelling over one graph.

    ``labels`` is the flat CSR layout every producer speaks — the
    construction kernel's output, the ``to_state`` arrays, and the
    packed store's arrays: ``label_offsets[v]:label_offsets[v + 1]``
    slices vertex ``v``'s rank-sorted ``label_ranks`` / ``label_dists``.
    ``rank`` is the position in the degree-descending landmark order;
    vertex ids are recovered through ``order``. The scalar query paths
    read the labels as per-vertex rows through
    :class:`~repro.core.build_kernels.RaggedView` and only ever slice
    the flat arrays, so they may be ndarrays or the block-cached cold
    arrays of a :class:`~repro.store.LabelStore` (``label_store``,
    attached by :func:`~repro.store.open_store_index`, which also
    hands over the store's pre-packed ``batch_labels``).
    """

    #: The family's flat label arrays (name -> dtype): what ``labels``
    #: holds, and what the npz archive, the serving snapshot file and
    #: the packed store carry.
    LABEL_ARRAYS: ClassVar[Dict[str, Any]] = {
        "label_offsets": np.int64,
        "label_ranks": np.int64,
        "label_dists": np.int32,
    }

    def __init__(self, graph: Graph, order: np.ndarray,
                 labels: Mapping[str, Any], *, label_store=None,
                 batch_labels: Optional[LabelArrays] = None) -> None:
        self._graph = graph
        self._order = order
        offsets = labels["label_offsets"]
        self._label_ranks = RaggedView(offsets, labels["label_ranks"])
        self._label_dists = RaggedView(offsets, labels["label_dists"])
        self.label_store = label_store
        self._batch_labels = batch_labels

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, graph: Graph, budget: Optional[TimeBudget] = None,
              jobs: Optional[int] = None) -> "PPLIndex":
        """Build labels from every vertex in degree-descending order.

        ``budget`` emulates the paper's 24-hour wall: construction
        aborts with :class:`~repro.errors.BudgetExceededError` when
        exceeded, which the harness reports as DNF.

        Runs the bit-parallel batched kernel of
        :mod:`repro.core.build_kernels` (64 roots per pass; ``jobs``
        fans root batches out over a process pool).
        """
        order = np.argsort(-graph.degree(), kind="stable").astype(np.int64)
        labels = build_sound_labels(
            graph, order, jobs=jobs, budget=budget,
            with_parents="parents" in cls.LABEL_ARRAYS)
        return cls(graph, order, labels)

    @staticmethod
    def _query_distance_lists(ranks_a: Sequence[int],
                              dists_a: Sequence[int],
                              ranks_b: Sequence[int],
                              dists_b: Sequence[int]) -> float:
        """2-hop distance query by merge-join on sorted rank lists."""
        best = INF
        i = j = 0
        len_a, len_b = len(ranks_a), len(ranks_b)
        while i < len_a and j < len_b:
            ra, rb = ranks_a[i], ranks_b[j]
            if ra == rb:
                total = dists_a[i] + dists_b[j]
                if total < best:
                    best = total
                i += 1
                j += 1
            elif ra < rb:
                i += 1
            else:
                j += 1
        return best

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _distance(self, u: int, v: int) -> Optional[int]:
        """Exact distance from the 2-hop labels (``None`` if apart)."""
        best = self._query_distance_lists(
            self._label_ranks[u], self._label_dists[u],
            self._label_ranks[v], self._label_dists[v],
        )
        return None if best == INF else int(best)

    def _distance_many(self, us, vs) -> np.ndarray:
        """Batched 2-hop label merges as one vectorized kernel call.

        The sound labels are a 2-hop distance cover, so
        :func:`~repro.engine.batch.two_hop_distance_many` is exact and
        no per-pair fallback is ever needed. The kernel's packed
        :class:`~repro.engine.batch.LabelArrays` costs one pass over
        every label entry and is built on first use.
        """
        if self._batch_labels is None:
            self._batch_labels = LabelArrays.from_flat(
                self._label_ranks.offsets, self._label_ranks.flat,
                self._label_dists.flat)
        return two_hop_distance_many(self._batch_labels, us, vs)

    def _query(self, u: int, v: int) -> ShortestPathGraph:
        """Answer ``SPG(u, v)`` by recursive label resolution (§3.2)."""
        distance = self._distance(u, v)
        if distance is None:
            return ShortestPathGraph.empty(u, v)
        memo: Dict[Edge, FrozenSet[Edge]] = {}
        edges = self._resolve(u, v, distance, memo)
        return ShortestPathGraph(u, v, distance, edges)

    def _resolve(self, a: int, b: int, distance: int,
                 memo: Dict[Edge, FrozenSet[Edge]]) -> FrozenSet[Edge]:
        """Edges of ``G_ab`` via common-landmark splitting.

        The 2-hop path cover guarantees every shortest path of length
        >= 2 has an *interior* common landmark; splitting at all
        minimal ones and recursing covers every path. Memoization tames
        the redundant re-querying the paper's Example 3.4 shows.
        """
        key = _norm(a, b)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if distance == 1:
            memo[key] = frozenset({key})
            return memo[key]
        edges: Set[Edge] = set()
        for r, d_ar, d_br in self._common_minimal_landmarks(a, b, distance):
            if r == a or r == b:
                continue  # Definition 3.2 requires interior landmarks
            edges |= self._resolve(a, r, d_ar, memo)
            edges |= self._resolve(b, r, d_br, memo)
        result = frozenset(edges)
        memo[key] = result
        return result

    def _common_minimal_landmarks(self, a: int, b: int, distance: int):
        """Yield ``(vertex, d(a, r), d(b, r))`` for landmarks on shortest
        ``a``-``b`` paths (the ``V_uv`` sets of §3.2)."""
        ranks_a = self._label_ranks[a]
        dists_a = self._label_dists[a]
        ranks_b = self._label_ranks[b]
        dists_b = self._label_dists[b]
        i = j = 0
        while i < len(ranks_a) and j < len(ranks_b):
            ra, rb = ranks_a[i], ranks_b[j]
            if ra == rb:
                if dists_a[i] + dists_b[j] == distance:
                    yield int(self._order[ra]), dists_a[i], dists_b[j]
                i += 1
                j += 1
            elif ra < rb:
                i += 1
            else:
                j += 1

    # ------------------------------------------------------------------
    # Introspection and size accounting (Table 3)
    # ------------------------------------------------------------------

    @property
    def graph(self) -> Graph:
        return self._graph

    def num_entries(self) -> int:
        """Total label entries across all vertices (size(L) of §2)."""
        return int(self._label_ranks.offsets[-1])

    def paper_size_bytes(self) -> int:
        """Paper cost model (§6.1): 32-bit landmark + 8-bit distance."""
        return self.num_entries() * 5

    @property
    def size_bytes(self) -> int:
        return self.paper_size_bytes()

    @property
    def stats(self) -> Dict[str, Any]:
        base = super().stats
        base["label_entries"] = self.num_entries()
        return base

    @property
    def order(self) -> np.ndarray:
        """Landmark order (vertex ids, degree-descending)."""
        return self._order

    def label_of(self, v: int) -> List[Tuple[int, int]]:
        """Label of ``v`` as ``[(landmark_vertex, distance), ...]``."""
        return [(int(self._order[rank]), int(dist))
                for rank, dist in zip(self._label_ranks[v],
                                      self._label_dists[v])]

    # ------------------------------------------------------------------
    # Store backing (see repro.store.open_store_index)
    # ------------------------------------------------------------------

    def store_stats(self) -> Optional[Dict[str, Any]]:
        """Page-cache and tier counters of the attached label store
        (serving surfaces these); ``None`` for a resident index."""
        if self.label_store is None:
            return None
        return self.label_store.stats()

    def close(self) -> None:
        """Release the attached label store, if any."""
        if self.label_store is not None:
            self.label_store.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def to_state(self):
        # np.asarray is a no-op on resident labels and materializes a
        # store-backed index's cold arrays.
        return {}, {
            **graph_arrays(self._graph),
            "order": self._order,
            "label_offsets": self._label_ranks.offsets,
            "label_ranks": np.asarray(self._label_ranks.flat),
            "label_dists": np.asarray(self._label_dists.flat),
        }

    @classmethod
    def from_state(cls, meta, arrays):
        labels = {name: np.asarray(arrays[name], dtype=dtype)
                  for name, dtype in cls.LABEL_ARRAYS.items()}
        return cls(graph_from_arrays(arrays),
                   np.asarray(arrays["order"], dtype=np.int64), labels)
