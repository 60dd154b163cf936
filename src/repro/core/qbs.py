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
view, and so is this class: over a ``DiGraph`` it is the §2 directed
extension, registered as ``qbs-directed`` by the subclass
:class:`~repro.directed.qbs.DirectedQbSIndex`, which adds only its
archive layout. A batch of distances is answered pair by pair (the
``PathIndex`` default).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, Optional, Tuple

import numpy as np

from .._util import NO_LABEL, Stopwatch
from ..engine.base import PathIndex
from ..engine.persist import graph_arrays, graph_from_arrays, \
    pack_pairs, unpack_pairs, within
from ..engine.registry import register_index
from ..errors import IndexFormatError, QueryError
from .labelling import PathLabelling, build_labelling, \
    checked_landmarks, landmark_positions
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
    and labelling-size columns of Tables 2 and 3. An index loaded from
    an archive that does not store its report (``qbs-directed``) has
    the sizes and zero timings.
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
    """A built Query-by-Sketch index over one graph (any dual-CSR view:
    a ``Graph`` here, a ``DiGraph`` under ``qbs-directed``)."""

    search_stats = SearchStats

    def __init__(self, graph, labelling: PathLabelling, meta: MetaGraph,
                 sparsified, report: BuildReport) -> None:
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
    def build(cls, graph, num_landmarks: int = 20,
              strategy: str = "degree", seed=None,
              landmarks: Optional[np.ndarray] = None,
              precompute_delta: bool = True) -> "QbSIndex":
        """Build the index (the paper's offline phase).

        Parameters
        ----------
        graph:
            Input graph (a ``Graph``; a ``DiGraph`` for
            ``qbs-directed``).
        num_landmarks:
            ``|R|``; the paper's default is 20.
        strategy:
            Landmark selection strategy (default: highest degree, as in
            §6.1; out- plus in-degree on a digraph). Ignored when
            ``landmarks`` is given explicitly.
        seed:
            Randomness for stochastic strategies.
        landmarks:
            Explicit landmark vertex ids (overrides selection): distinct
            integers in ``[0, n)``.
        precompute_delta:
            Materialize inter-landmark SPGs (Δ). Disable only for the
            ablation that measures their benefit.
        """
        if landmarks is None:
            landmarks = select_landmarks(graph, num_landmarks,
                                         strategy=strategy, seed=seed)
        with Stopwatch() as sw_total:
            with Stopwatch() as sw_label:
                labelling = build_labelling(graph, landmarks)
            with Stopwatch() as sw_meta:
                meta = build_meta_graph(
                    graph, labelling, precompute_delta=precompute_delta
                )
            with Stopwatch() as sw_sparse:
                sparsified = graph.remove_vertices(labelling.landmarks)
        report = BuildReport(
            num_landmarks=labelling.num_landmarks,
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
        return ShortestPathGraph(u, v, *found, directed=self.directed)

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

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def graph(self):
        return self._graph

    @property
    def sparsified_graph(self):
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
        label_matrix = np.asarray(arrays["label_matrix"], dtype=np.uint8)
        # Only the declared fields: archives written before the thread
        # builder was removed also carry ``parallel``.
        report = BuildReport(**{f.name: meta["report"][f.name]
                                for f in fields(BuildReport)})
        index = cls._from_labels(graph, arrays, label_matrix, label_matrix,
                                 report)
        keys, lengths = arrays["delta_key"], arrays["delta_len"]
        edge_rows = arrays["delta_edges"]
        if len(keys) != len(lengths) or (lengths < 0).any() \
                or lengths.sum() != len(edge_rows) \
                or not within(keys, index.labelling.num_landmarks) \
                or not within(edge_rows, graph.num_vertices):
            raise IndexFormatError(
                "Δ arrays do not add up: one length per landmark pair, "
                "lengths summing to the edge rows, vertices in [0, n)")
        cursor = 0
        for (i, j), length in zip(keys.tolist(), lengths.tolist()):
            block = edge_rows[cursor:cursor + length]
            index.meta_graph.delta[(int(i), int(j))] = frozenset(
                (int(a), int(b)) for a, b in block.tolist()
            )
            cursor += length
        return index

    @classmethod
    def _from_labels(cls, graph, arrays, label_matrix: np.ndarray,
                     reverse_matrix: np.ndarray,
                     report: Optional[BuildReport] = None) -> "QbSIndex":
        """The index over an archive's labels, without Δ: the load path
        both archive layouts share. ``arrays`` holds ``landmarks``,
        ``meta_key`` and ``meta_weight``; the two matrices are one
        object on a symmetric graph.

        Label arrays that decode but do not add up answer wrong SPGs
        rather than fail, so they raise :class:`IndexFormatError`
        here: landmarks must be distinct ids in ``[0, n)``, each matrix
        ``(n, |R|)`` with all-``NO_LABEL`` landmark rows, and each meta
        edge must join positions in ``[0, |R|)`` with weight >= 1.
        """
        n = graph.num_vertices
        landmarks = checked_landmarks(arrays["landmarks"], n,
                                      IndexFormatError)
        meta_key = np.asarray(arrays["meta_key"])
        meta_weight = np.asarray(arrays["meta_weight"])
        count = len(landmarks)
        for matrix in (label_matrix, reverse_matrix):
            if matrix.shape != (n, count) \
                    or (matrix[landmarks] != NO_LABEL).any():
                raise IndexFormatError(
                    f"a label matrix is not {n} x {count} with "
                    f"unlabelled landmark rows")
        if meta_key.shape != (len(meta_weight), 2) \
                or not within(meta_key, count) \
                or (len(meta_weight) and meta_weight.min() < 1):
            raise IndexFormatError(
                "meta edges must join landmark positions in [0, |R|) "
                "with weight >= 1")
        meta_edges = unpack_pairs(meta_key, meta_weight)
        if reverse_matrix is label_matrix:
            # A symmetric labelling keeps each meta edge once, as
            # (i, j) with i < j; a digraph archive built over split
            # CSRs holds both orientations.
            meta_edges = {(min(i, j), max(i, j)): weight
                          for (i, j), weight in meta_edges.items()}
        labelling = PathLabelling(
            landmarks=landmarks,
            landmark_position=landmark_positions(landmarks, n),
            label_matrix=label_matrix,
            reverse_matrix=reverse_matrix,
            meta_edges=meta_edges,
        )
        meta_graph = build_meta_graph(graph, labelling,
                                      precompute_delta=False)
        if report is None:
            report = BuildReport(
                num_landmarks=count, labelling_seconds=0.0,
                meta_seconds=0.0, sparsify_seconds=0.0,
                total_seconds=0.0,
                label_size_bytes=labelling.paper_size_bytes(),
                meta_size_bytes=meta_graph.paper_size_bytes(),
                delta_edges=0)
        return cls(graph, labelling, meta_graph,
                   graph.remove_vertices(landmarks), report)
