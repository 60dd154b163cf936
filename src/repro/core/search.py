"""Guided searching (Algorithm 4 of the paper).

Answering ``SPG(u, v)`` after sketching has three stages:

1. **Bidirectional search** on the sparsified graph ``G⁻ = G[V \\ R]``,
   alternating a forward (``u``, along the arcs) and backward (``v``,
   against them) level expansion. The sketch contributes the upper
   bound ``d_top`` (stop once ``d_u + d_v`` reaches it) and the
   per-side budgets ``d*`` (Eq. 4) that bias which side to grow; ties
   fall back to the smaller visited set, the classic optimized bi-BFS
   rule.
2. **Reverse search** — when the frontiers met, walk the two depth
   arrays back from the minimal meeting set, collecting every edge of
   ``G⁻_uv`` (shortest paths that avoid landmarks entirely).
3. **Recover search** — when landmark routes tie the distance,
   reconstruct ``G^L_uv`` (shortest paths through landmarks) from the
   ``Z`` seed pairs (line 19-23), the label columns, and the
   precomputed inter-landmark SPGs ``Δ``.

The final answer is the union prescribed by Eq. 5.

All of it is written once, against a dual-CSR view (``out_*`` /
``in_*`` arrays) and a pair of label matrices, so the one searcher
serves the one ``QbSIndex`` over a ``Graph`` or a ``DiGraph``
(``qbs-directed``); it returns ``(distance, arcs)`` with arcs oriented
``(tail, head)``, which is what a ``ShortestPathGraph`` is made of.
It answers one pair per call: a QbS distance batch runs it pair by
pair. An empty sketch (``d_top is None``) leaves stage 1 unbounded
and unbiased and stage 3 idle — which is plain Bi-BFS, so
:func:`bidirectional_spg`, the ``bibfs`` family and the index's
landmark-endpoint fallback run the same loop over the unsparsified
graph.

A query costs O(visited), not O(|V|): the searcher allocates its
length-|V| arrays once, and each query hands them back clean by
writing ``UNREACHED`` over exactly the vertices it reached.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional, Set, Tuple

import numpy as np

from .._util import UNREACHED
from ..graph.traversal import descend_levels
from .labelling import PathLabelling
from .metagraph import MetaGraph, landmark_pair_arcs
from .sketch import Sketch
from .spg import ShortestPathGraph

__all__ = ["SearchStats", "GuidedSearcher", "bidirectional_spg"]

Arc = Tuple[int, int]


@dataclass
class SearchStats:
    """Instrumentation for the §6.5 traversal-savings experiments."""

    edges_traversed: int = 0
    met: bool = False
    used_reverse: bool = False
    used_recover: bool = False
    d_minus: Optional[int] = None
    d_top: Optional[int] = None


class _Scratch:
    """The length-|V| arrays one query works in.

    ``depth_u`` / ``depth_v`` are the two sides' depth arrays and hold
    ``UNREACHED`` between queries. ``stamp`` is the level dedup's slot
    array: every entry a level reads it has just written, so it is
    never reset.
    """

    def __init__(self, num_vertices: int) -> None:
        self.depth_u = np.empty(num_vertices, dtype=np.int32)
        self.depth_v = np.empty(num_vertices, dtype=np.int32)
        self.depth_u[:] = self.depth_v[:] = UNREACHED
        self.stamp = np.empty(num_vertices, dtype=np.int32)


class _BfsSide:
    """State of one direction of the bidirectional search.

    The ``forward`` side grows from ``u`` along the arcs, the other
    from ``v`` against them (the same CSR on a symmetric graph).
    ``csr`` is ``(indptr, indices, degree)`` of that direction;
    ``depth`` and ``stamp`` are borrowed :class:`_Scratch` arrays, and
    ``levels`` lists every vertex written into ``depth``.
    """

    def __init__(self, source: int, forward: bool, csr, depth: np.ndarray,
                 stamp: np.ndarray) -> None:
        self.source = source
        self.forward = forward
        self.indptr, self.indices, self.degree = csr
        self.depth = depth
        self.stamp = stamp
        self.frontier = np.array([source], dtype=np.int32)
        # A level is recorded before it is written, so the reset that
        # scatters over ``levels`` sees every write.
        self.levels: List[np.ndarray] = [self.frontier]
        self.current_depth = 0
        self.visited_count = 1
        depth[source] = 0

    def expand(self, stats: SearchStats) -> np.ndarray:
        """Grow one BFS level; returns the fresh vertex array.

        Only called on a non-empty frontier (see ``_pick_side``).
        """
        frontier = self.frontier
        counts = self.degree[frontier]
        ends = counts.cumsum()
        # Every frontier row in one gather: output slot s of row j
        # reads indptr[j] + s - (first output slot of row j).
        shifts = (self.indptr[frontier] - ends + counts).repeat(counts)
        neighbors = self.indices[np.arange(ends[-1]) + shifts]
        stats.edges_traversed += len(neighbors)
        fresh = neighbors[self.depth[neighbors] == UNREACHED]
        # Dedup in O(k): every copy of a vertex writes its own slot,
        # one write survives, and exactly that copy reads its slot back.
        slots = np.arange(len(fresh), dtype=np.int32)
        self.stamp[fresh] = slots
        fresh = fresh[self.stamp[fresh] == slots]
        self.current_depth += 1
        self.levels.append(fresh)
        self.depth[fresh] = self.current_depth
        self.frontier = fresh
        self.visited_count += len(fresh)
        return fresh


class GuidedSearcher:
    """Reusable query executor bound to one built QbS index.

    ``graph`` and ``sparsified`` are dual-CSR views of ``G`` and
    ``G⁻``. Without a labelling there is nothing to recover and only
    empty sketches make sense (see :func:`bidirectional_spg`).

    The searcher owns one set of working arrays over ``G⁻``, allocated
    here. A query borrows them and hands them back clean; a query that
    finds them lent out (a concurrent caller) works in fresh ones.
    """

    def __init__(self, graph, sparsified,
                 labelling: Optional[PathLabelling] = None,
                 meta: Optional[MetaGraph] = None) -> None:
        self._graph = graph
        self._sparsified = sparsified
        self._labelling = labelling
        self._meta = meta
        out_degree = np.diff(sparsified.out_indptr)
        in_degree = out_degree \
            if sparsified.in_indptr is sparsified.out_indptr \
            else np.diff(sparsified.in_indptr)
        self._out_csr = (sparsified.out_indptr, sparsified.out_indices,
                         out_degree)
        self._in_csr = (sparsified.in_indptr, sparsified.in_indices,
                        in_degree)
        self._scratch = _Scratch(sparsified.num_vertices)
        self._scratch_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def run(self, sketch: Sketch, stats: Optional[SearchStats] = None,
            use_budgets: bool = True) -> Tuple[Optional[int], Set[Arc]]:
        """Execute Algorithm 4 for a prepared sketch.

        Returns ``(distance, arcs)`` — ``(None, set())`` for a
        disconnected pair. ``use_budgets=False`` disables the Eq. 4
        side-selection hints (the ablation for §6.5 gain source (2));
        the ``d_top`` bound and correctness are unaffected.
        """
        stats = stats if stats is not None else SearchStats()
        with self._sides(sketch) as (side_u, side_v):
            d_minus, meeting = self._bidirectional(
                sketch, side_u, side_v, stats, use_budgets)
            candidates = [d for d in (d_minus, sketch.d_top)
                          if d is not None]
            if not candidates:
                return None, set()
            distance = min(candidates)

            arcs: Set[Arc] = set()
            if d_minus == distance:
                # Stage 2 (lines 16-17): all G⁻ shortest-path arcs from
                # the meeting set back to each side's source.
                stats.used_reverse = True
                for side in (side_u, side_v):
                    self._descend_depths(side, meeting, arcs)
            if sketch.d_top == distance:
                stats.used_recover = True
                self._recover_search(sketch, side_u, side_v, arcs)
        return distance, arcs

    def distance_only(self, sketch: Sketch,
                      stats: Optional[SearchStats] = None) -> Optional[int]:
        """Exact distance without materializing the SPG.

        Runs only the bounded bidirectional stage and combines it with
        the sketch bound (``d = min(d_minus, d_top)``, §4.3). Cheaper
        than :meth:`run` because the reverse and recover stages are
        skipped entirely.
        """
        stats = stats if stats is not None else SearchStats()
        with self._sides(sketch) as (side_u, side_v):
            d_minus = self._bidirectional(sketch, side_u, side_v, stats)[0]
        candidates = [d for d in (d_minus, sketch.d_top) if d is not None]
        return min(candidates) if candidates else None

    @contextmanager
    def _sides(self, sketch: Sketch) -> Iterator[Tuple[_BfsSide, _BfsSide]]:
        """The query's two search sides, on borrowed scratch.

        Leaving the block writes ``UNREACHED`` back over each depth
        array's recorded levels, one scatter per array, also when the
        query raised. Should that reset itself fail, the lock stays
        held: the dirty arrays are never lent again, and every later
        query works in fresh ones.
        """
        owned = self._scratch_lock.acquire(blocking=False)
        scratch = self._scratch if owned \
            else _Scratch(self._sparsified.num_vertices)
        sides: List[_BfsSide] = []
        try:
            sides.append(_BfsSide(sketch.u, True, self._out_csr,
                                  scratch.depth_u, scratch.stamp))
            sides.append(_BfsSide(sketch.v, False, self._in_csr,
                                  scratch.depth_v, scratch.stamp))
            yield sides[0], sides[1]
        finally:
            if owned:
                for side in sides:
                    side.depth[np.concatenate(side.levels)] = UNREACHED
                self._scratch_lock.release()

    # ------------------------------------------------------------------
    # Stage 1: bounded bidirectional BFS on G-minus
    # ------------------------------------------------------------------

    def _bidirectional(self, sketch: Sketch, side_u: _BfsSide,
                       side_v: _BfsSide, stats: SearchStats,
                       use_budgets: bool = True):
        """Alternating level expansion (Algorithm 4 lines 6-15).

        Returns ``(d_minus, meeting)`` — the exact ``d_{G⁻}(u, v)`` and
        the minimal meeting vertex set, both ``None`` when the
        endpoints do not connect within the ``d_top`` bound.
        """
        d_top = stats.d_top = sketch.d_top
        budgets = (sketch.budget_u, sketch.budget_v) if use_budgets \
            else (0, 0)
        d_minus = meeting = None
        while d_top is None or side_u.current_depth + side_v.current_depth \
                < d_top:
            side = self._pick_side(side_u, side_v, budgets)
            if side is None:
                break
            other = side_v if side is side_u else side_u
            fresh = side.expand(stats)
            hits = fresh[other.depth[fresh] != UNREACHED]
            if len(hits):
                sums = side.current_depth + other.depth[hits]
                d_minus = int(sums.min())
                meeting = hits[sums == d_minus]
                break
            if len(fresh) == 0:
                # The side's whole G⁻ component is explored without a
                # meeting, so the pair is disconnected in G⁻.
                break
        stats.d_minus = d_minus
        stats.met = meeting is not None
        return d_minus, meeting

    @staticmethod
    def _pick_side(side_u: _BfsSide, side_v: _BfsSide,
                   budgets: Tuple[int, int]) -> Optional[_BfsSide]:
        """pick_search of Algorithm 4 line 7.

        Prefer the side whose sketch budget ``d*`` is not yet met; break
        ties (both or neither under budget) with the smaller visited
        set. A side with an exhausted frontier can never progress, so
        the other is chosen; both exhausted means ``G⁻`` disconnects
        the pair.
        """
        u_alive = len(side_u.frontier) > 0
        v_alive = len(side_v.frontier) > 0
        if not u_alive and not v_alive:
            return None
        if not u_alive:
            return side_v
        if not v_alive:
            return side_u
        u_under = side_u.current_depth < budgets[0]
        v_under = side_v.current_depth < budgets[1]
        if u_under != v_under:
            return side_u if u_under else side_v
        if side_u.visited_count <= side_v.visited_count:
            return side_u
        return side_v

    def _descend_depths(self, side: _BfsSide, seeds,
                        arcs: Set[Arc]) -> None:
        """``G⁻`` shortest-path arcs between ``seeds`` and the side's
        source, descending its exact depth array."""
        descend_levels(self._sparsified, side.depth, side.source, seeds,
                       arcs, forward=side.forward)

    # ------------------------------------------------------------------
    # Stage 3: recover search (lines 18-24)
    # ------------------------------------------------------------------

    def _recover_search(self, sketch: Sketch, side_u: _BfsSide,
                        side_v: _BfsSide, arcs: Set[Arc]) -> None:
        """Reconstruct ``G^L_uv``: shortest paths through landmarks."""
        labelling = self._labelling
        for side, sketch_edges, matrix in (
                (side_u, sketch.side_u, labelling.label_matrix),
                (side_v, sketch.side_v, labelling.reverse_matrix)):
            for r_pos, sigma in sketch_edges.items():
                # Z seeds (lines 19-23): per minimal landmark route,
                # the explored vertices nearest to the landmark.
                d_m = min(sigma - 1, side.current_depth)
                level = side.levels[d_m]
                column = matrix[:, r_pos]
                seeds = level[column[level] == sigma - d_m]
                # Segment t .. w via the searched depths, then w .. r
                # via the label column (which runs the other way).
                self._descend_depths(side, seeds, arcs)
                descend_levels(self._sparsified, column,
                               int(labelling.landmarks[r_pos]), seeds,
                               arcs, forward=not side.forward)
        # Landmark-to-landmark structure: expand every meta edge on a
        # shortest meta path of each minimizing pair with its Δ SPG —
        # precomputed, or rebuilt on demand when the index was built
        # with ``precompute_delta=False``.
        meta = self._meta
        expanded: Set[Arc] = set()
        for r, r_prime in set(sketch.meta_pairs):
            for arc in meta.meta_spg_edges(r, r_prime):
                if arc in expanded:
                    continue
                expanded.add(arc)
                delta = meta.delta.get(meta.edge_key(*arc))
                if delta is None:
                    delta = landmark_pair_arcs(
                        self._graph, labelling, *arc, meta.weight(*arc))
                arcs |= delta


def bidirectional_spg(graph, u: int, v: int,
                      stats: Optional[SearchStats] = None,
                      directed: bool = False) -> ShortestPathGraph:
    """Plain bidirectional BFS over the *full* dual-CSR view: the
    Bi-BFS baseline of Table 2, and both QbS indexes' answer for
    landmark endpoints.

    The guided search with nothing to guide it — an empty sketch gives
    no bound, no budgets and no landmark routes, and the graph is not
    sparsified. This is the one-shot form: it builds a searcher, and
    with it O(|V|) scratch, per call; the ``bibfs`` family and the
    indexes keep one searcher and run ``Sketch(u, v, None)`` on it.
    ``u`` and ``v`` are vertex ids of ``graph``; ids are checked at the
    ``PathIndex`` front door (``BiBFS(graph).query``).
    """
    if u == v:
        return ShortestPathGraph.trivial(u, directed)
    found = GuidedSearcher(graph, graph).run(Sketch(u, v, None), stats)
    return ShortestPathGraph(u, v, *found, directed=directed)
