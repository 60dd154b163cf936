"""The public Query-by-Sketch index.

:class:`QbSIndex` packages the paper's three phases behind two calls:

>>> from repro import Graph, QbSIndex
>>> g = Graph.from_edges([(0, 1), (1, 2), (0, 3), (3, 2), (2, 4)])
>>> index = QbSIndex.build(g, num_landmarks=2)
>>> spg = index.query(0, 4)
>>> spg.distance
3
>>> sorted(spg.edges)
[(0, 1), (0, 3), (1, 2), (2, 3), (2, 4)]

Offline, :meth:`build` selects landmarks, constructs the labelling
scheme (Algorithm 2, 64 landmarks per lockstep sweep), assembles the
meta-graph with its precomputed inter-landmark SPGs, and sparsifies the
graph. Online, :meth:`query` sketches (Algorithm 3) and runs the guided
search (Algorithm 4). The three phases are written against a dual-CSR
view, so :class:`~repro.directed.qbs.DirectedQbSIndex` runs the same
code over a ``DiGraph``; this class is the undirected index, with Δ
precomputed and the vectorized ``distance_many`` bounds.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, Optional, Tuple

import numpy as np

from .._util import Stopwatch
from ..engine.base import PathIndex
from ..engine.batch import batched_min_plus
from ..engine.persist import graph_arrays, graph_from_arrays, \
    pack_pairs, unpack_pairs
from ..engine.registry import register_index
from ..errors import QueryError
from ..graph.csr import Graph
from .labelling import PathLabelling, build_labelling, \
    landmark_positions
from .landmarks import select_landmarks
from .metagraph import MetaGraph, build_meta_graph
from .search import GuidedSearcher, SearchStats
from .sketch import Sketch, compute_sketch
from .spg import ShortestPathGraph

__all__ = ["QbSIndex", "BuildReport"]


@dataclass
class BuildReport:
    """Timings and sizes recorded while building an index.

    The benchmark harness reads these to fill the construction-time
    and labelling-size columns of Tables 2 and 3.
    """

    num_landmarks: int
    labelling_seconds: float
    meta_seconds: float
    sparsify_seconds: float
    total_seconds: float
    label_size_bytes: int
    meta_size_bytes: int
    delta_edges: int

    @property
    def delta_size_bytes(self) -> int:
        """size(Δ) under the paper's 8-bytes-per-edge accounting."""
        return self.delta_edges * 8


@register_index("qbs")
class QbSIndex(PathIndex):
    """A built Query-by-Sketch index over one graph."""

    search_stats = SearchStats

    def __init__(self, graph: Graph, labelling: PathLabelling,
                 meta: MetaGraph, sparsified: Graph,
                 report: BuildReport) -> None:
        self._graph = graph
        self._labelling = labelling
        self._meta = meta
        self._sparsified = sparsified
        self._searcher = GuidedSearcher(graph, sparsified, labelling, meta)
        self._fallback: Optional[GuidedSearcher] = None
        self.report = report

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, graph: Graph, num_landmarks: int = 20,
              strategy: str = "degree", seed=None,
              landmarks: Optional[np.ndarray] = None,
              precompute_delta: bool = True) -> "QbSIndex":
        """Build the index (the paper's offline phase).

        Parameters
        ----------
        graph:
            Input graph (undirected CSR).
        num_landmarks:
            ``|R|``; the paper's default is 20.
        strategy:
            Landmark selection strategy (default: highest degree, as in
            §6.1). Ignored when ``landmarks`` is given explicitly.
        seed:
            Randomness for stochastic strategies.
        landmarks:
            Explicit landmark vertex ids (overrides selection).
        precompute_delta:
            Materialize inter-landmark SPGs (Δ). Disable only for the
            ablation that measures their benefit.
        """
        if landmarks is None:
            chosen = select_landmarks(graph, num_landmarks,
                                      strategy=strategy, seed=seed)
        else:
            chosen = np.asarray(landmarks, dtype=np.int32)

        with Stopwatch() as sw_total:
            with Stopwatch() as sw_label:
                labelling = build_labelling(graph, chosen)
            with Stopwatch() as sw_meta:
                meta = build_meta_graph(
                    graph, labelling, precompute_delta=precompute_delta
                )
            with Stopwatch() as sw_sparse:
                sparsified = graph.remove_vertices(chosen)
        report = BuildReport(
            num_landmarks=len(chosen),
            labelling_seconds=sw_label.elapsed,
            meta_seconds=sw_meta.elapsed,
            sparsify_seconds=sw_sparse.elapsed,
            total_seconds=sw_total.elapsed,
            label_size_bytes=labelling.paper_size_bytes(),
            meta_size_bytes=meta.paper_size_bytes(),
            delta_edges=meta.delta_total_edges(),
        )
        return cls(graph, labelling, meta, sparsified, report)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _query(self, u: int, v: int, stats: Optional[SearchStats] = None,
               use_budgets: bool = True) -> ShortestPathGraph:
        """Answer ``SPG(u, v)`` exactly (Definition 2.3).

        ``query_with_stats(u, v, use_budgets=False)`` disables the
        sketch's side-selection guidance (ablation of §6.5 gain source
        (2)); results are identical, only traversal effort changes.
        """
        searcher, sketch = self._plan(u, v)
        found = searcher.run(sketch, stats, use_budgets=use_budgets)
        return ShortestPathGraph(u, v, *found)

    def _plan(self, u: int, v: int) -> Tuple[GuidedSearcher, Sketch]:
        """The searcher and sketch that answer ``(u, v)``."""
        if self._labelling.is_landmark(u) or self._labelling.is_landmark(v):
            # Labels are defined on V \ R (Definition 4.2); the paper
            # leaves landmark endpoints implicit. They are rare
            # (|R| << |V|) and answered exactly by the Bi-BFS fallback,
            # on a full-graph searcher made on first use and kept.
            if self._fallback is None:
                self._fallback = GuidedSearcher(self._graph, self._graph)
            return self._fallback, Sketch(u, v, None)
        return (self._searcher,
                compute_sketch(self._labelling, self._meta, u, v))

    def sketch(self, u: int, v: int) -> Sketch:
        """Compute the query sketch only (Algorithm 3); for analysis."""
        u, v = self.check_pair(u, v)
        if self._labelling.is_landmark(u) or self._labelling.is_landmark(v):
            raise QueryError(
                "sketches are defined for non-landmark endpoints"
            )
        return compute_sketch(self._labelling, self._meta, u, v)

    def _distance(self, u: int, v: int) -> Optional[int]:
        """Exact shortest-path distance (``None`` when disconnected).

        Uses a fast path that runs only the sketch and the bounded
        bidirectional stage — no SPG is materialized.
        """
        searcher, sketch = self._plan(u, v)
        return searcher.distance_only(sketch)

    def _distance_many(self, us, vs) -> np.ndarray:
        """Batched distances via one vectorized sketch-bound pass.

        The sketch upper bound ``d_top`` (Eq. 3) for the whole batch
        is one gather over the label matrix plus a min-plus reduction
        against the meta-graph distance matrix. A pair is answered
        without search when the bound is *provably* tight:

        * a common-landmark lower bound ``max_r |d(u,r) - d(v,r)|``
          (triangle inequality over exact label distances) meets
          ``d_top``; or
        * ``d_top == 2``, where the true distance is 1 exactly when
          the edge ``{u, v}`` exists (``d_top >= 2`` always holds for
          non-landmark endpoints, so nothing shorter is possible).

        Everything else — landmark endpoints, unproven bounds,
        sketch-disconnected pairs — falls back to the per-pair guided
        search (the contract's default), whose answers the bounds
        never contradict.
        """
        landmark = self._labelling.landmark_position >= 0
        idx = np.nonzero(~landmark[us] & ~landmark[vs])[0]
        dist = np.empty(len(us), dtype=np.int32)
        unresolved = np.ones(len(us), dtype=bool)
        if len(idx):
            label_u = self._labelling.label_rows_float(us[idx])
            label_v = self._labelling.label_rows_float(vs[idx])
            num_r = self._meta.dist.shape[0]
            d_top = batched_min_plus(label_u, self._meta.dist, label_v)
            common = np.isfinite(label_u) & np.isfinite(label_v)
            gap = np.zeros_like(label_u)
            np.subtract(label_u, label_v, out=gap, where=common)
            np.abs(gap, out=gap)
            lower = gap.max(axis=1) if num_r else np.zeros(len(idx))
            finite = np.isfinite(d_top)
            tight = finite & (lower == d_top)
            dist[idx[tight]] = d_top[tight]
            near = finite & ~tight & (d_top == 2.0)
            for b in idx[near].tolist():
                dist[b] = 1 if self._graph.has_edge(
                    int(us[b]), int(vs[b])) else 2
            unresolved[idx[tight | near]] = False
        rest = np.flatnonzero(unresolved)
        dist[rest] = super()._distance_many(us[rest], vs[rest])
        return dist

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def sparsified_graph(self) -> Graph:
        """``G⁻ = G[V \\ R]`` used by the guided search."""
        return self._sparsified

    @property
    def landmarks(self) -> np.ndarray:
        return self._labelling.landmarks

    @property
    def labelling(self) -> PathLabelling:
        return self._labelling

    @property
    def meta_graph(self) -> MetaGraph:
        return self._meta

    @property
    def size_bytes(self) -> int:
        """size(L) + size(M) + size(Δ) under the paper's models."""
        return (self._labelling.paper_size_bytes()
                + self._meta.paper_size_bytes()
                + self._meta.delta_total_edges() * 8)

    @property
    def stats(self) -> Dict[str, Any]:
        base = super().stats
        base.update({
            "num_landmarks": int(self.report.num_landmarks),
            "label_entries": self._labelling.size_entries(),
            "meta_edges": len(self._meta.edges),
            "delta_edges": self._meta.delta_total_edges(),
            "build_seconds": self.report.total_seconds,
        })
        return base

    # ------------------------------------------------------------------
    # Persistence (the engine's pickle-free npz format; files written
    # by the retired pickle format are refused by the loader)
    # ------------------------------------------------------------------

    def to_state(self):
        labelling = self._labelling
        meta_graph = self._meta
        meta_key, meta_weight = pack_pairs(meta_graph.edges)
        delta_keys = sorted(meta_graph.delta)
        delta_lengths = np.asarray(
            [len(meta_graph.delta[k]) for k in delta_keys], dtype=np.int64
        )
        delta_edges = [edge for key in delta_keys
                       for edge in sorted(meta_graph.delta[key])]
        arrays = {
            **graph_arrays(self._graph),
            "landmarks": labelling.landmarks,
            "label_matrix": labelling.label_matrix,
            "meta_key": meta_key,
            "meta_weight": meta_weight,
            "delta_key": (np.asarray(delta_keys, dtype=np.int32)
                          if delta_keys
                          else np.zeros((0, 2), dtype=np.int32)),
            "delta_len": delta_lengths,
            "delta_edges": (np.asarray(delta_edges, dtype=np.int32)
                            if delta_edges
                            else np.zeros((0, 2), dtype=np.int32)),
        }
        return {"report": asdict(self.report)}, arrays

    @classmethod
    def from_state(cls, meta, arrays):
        graph = graph_from_arrays(arrays)
        landmarks = np.asarray(arrays["landmarks"], dtype=np.int32)
        label_matrix = np.asarray(arrays["label_matrix"],
                                  dtype=np.uint8)
        labelling = PathLabelling(
            landmarks=landmarks,
            landmark_position=landmark_positions(landmarks,
                                                 graph.num_vertices),
            label_matrix=label_matrix,
            reverse_matrix=label_matrix,
            meta_edges=unpack_pairs(arrays["meta_key"],
                                    arrays["meta_weight"]),
        )
        meta_graph = build_meta_graph(graph, labelling,
                                      precompute_delta=False)
        cursor = 0
        edge_rows = arrays["delta_edges"]
        for (i, j), length in zip(arrays["delta_key"].tolist(),
                                  arrays["delta_len"].tolist()):
            block = edge_rows[cursor:cursor + length]
            meta_graph.delta[(int(i), int(j))] = frozenset(
                (int(a), int(b)) for a, b in block.tolist()
            )
            cursor += length
        # Only the declared fields: archives written before the thread
        # builder was removed also carry ``parallel``.
        report = BuildReport(**{f.name: meta["report"][f.name]
                                for f in fields(BuildReport)})
        sparsified = graph.remove_vertices(landmarks)
        return cls(graph, labelling, meta_graph, sparsified, report)
