"""Directed Query-by-Sketch.

The extension the paper claims in §2 ("our work can be easily extended
to directed ... graphs"). Nothing here re-implements the method: the
labelling sweep, the sketch and the guided search in :mod:`repro.core`
are written against a dual-CSR view, which a :class:`DiGraph` is, so
this module only assembles them and owns the family's archive layout;
the answer is the one :class:`~repro.core.spg.ShortestPathGraph`, with
``directed=True``.

* **Labelling** — :func:`~repro.core.labelling.build_labelling` sweeps
  the out-CSR for ``forward`` (``F[v, i] = d(r_i -> v)``) and the
  in-CSR for ``backward`` (``B[v, i] = d(v -> r_i)``); landmarks
  reached on the labelled side become *meta arcs*.
* **Sketch** — :func:`~repro.core.sketch.compute_sketch` broadcasts
  ``B[u][:, None] + d_M + F[v][None, :]`` over the directed meta
  distance matrix (the directed Eq. 3).
* **Guided search** — :class:`~repro.core.search.GuidedSearcher`
  grows ``u`` along the arcs and ``v`` against them on the
  landmark-free subgraph, bounded by ``d_top`` and steered by the
  sketch budgets; Δ is rebuilt on demand rather than stored.

Queries with a landmark endpoint run the same search unguided over the
whole graph, mirroring the undirected index.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..core.labelling import PathLabelling, build_labelling, \
    landmark_positions
from ..core.metagraph import MetaGraph, build_meta_graph
from ..core.search import GuidedSearcher
from ..core.sketch import Sketch, compute_sketch
from ..core.spg import ShortestPathGraph
from ..engine.base import PathIndex
from ..engine.persist import pack_pairs, unpack_pairs
from ..engine.registry import register_index
from ..errors import IndexBuildError
from .digraph import DiGraph, _csr

__all__ = ["DirectedQbSIndex"]


@register_index("qbs-directed")
class DirectedQbSIndex(PathIndex):
    """Query-by-Sketch over a directed graph."""

    directed = True

    def __init__(self, graph: DiGraph, labelling: PathLabelling,
                 meta: MetaGraph) -> None:
        self._graph = graph
        self._labelling = labelling
        self._meta = meta
        self._searcher = GuidedSearcher(
            graph, graph.remove_vertices(labelling.landmarks),
            labelling, meta)
        self._fallback: Optional[GuidedSearcher] = None

    @classmethod
    def build(cls, graph: DiGraph,
              num_landmarks: int = 20,
              landmarks: Optional[np.ndarray] = None
              ) -> "DirectedQbSIndex":
        """Select landmarks (highest total degree) and build labels."""
        if landmarks is None:
            if num_landmarks < 1:
                raise IndexBuildError("need at least one landmark")
            order = np.argsort(-graph.total_degree(), kind="stable")
            landmarks = order[:min(num_landmarks, graph.num_vertices)]
        labelling = build_labelling(graph, landmarks)
        return cls(graph, labelling,
                   build_meta_graph(graph, labelling,
                                    precompute_delta=False))

    @property
    def landmarks(self) -> np.ndarray:
        return self._labelling.landmarks

    @property
    def graph(self) -> DiGraph:
        return self._graph

    @property
    def size_bytes(self) -> int:
        """Forward + backward labels (|R| bytes per vertex each, the
        paper's §6.1 accounting) plus 9 bytes per meta arc."""
        return (self._labelling.paper_size_bytes()
                + self._meta.paper_size_bytes())

    @property
    def stats(self) -> Dict[str, Any]:
        base = super().stats
        base.update({
            "num_landmarks": len(self.landmarks),
            "meta_arcs": len(self._meta.edges),
        })
        return base

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def to_state(self):
        meta_key, meta_weight = pack_pairs(self._meta.edges)
        arrays = {
            "out_indptr": self._graph.out_indptr,
            "out_indices": self._graph.out_indices,
            "landmarks": self._labelling.landmarks,
            "forward": self._labelling.reverse_matrix,
            "backward": self._labelling.label_matrix,
            "meta_key": meta_key,
            "meta_weight": meta_weight,
        }
        return {}, arrays

    @classmethod
    def from_state(cls, meta, arrays):
        out_indices = np.asarray(arrays["out_indices"], dtype=np.int32)
        n = len(arrays["out_indptr"]) - 1
        src = np.repeat(np.arange(n, dtype=np.int32),
                        np.diff(arrays["out_indptr"]))
        out_csr = _csr(src, out_indices, n)
        in_csr = _csr(out_indices, src, n)
        # Shared code tells a symmetric graph by its two sides being
        # ONE CSR, and a build over one keeps one label matrix and each
        # meta edge once (``i < j``). Serialisation loses the identity;
        # re-establish it: the CSRs are equal iff every arc is mutual.
        symmetric = all(np.array_equal(a, b)
                        for a, b in zip(out_csr, in_csr))
        graph = DiGraph(*out_csr, *(out_csr if symmetric else in_csr))
        landmarks = np.asarray(arrays["landmarks"], dtype=np.int32)
        backward = np.asarray(arrays["backward"], dtype=np.uint8)
        meta_edges = unpack_pairs(arrays["meta_key"],
                                  arrays["meta_weight"])
        if symmetric:
            # An archive built over split CSRs holds both orientations.
            meta_edges = {(min(i, j), max(i, j)): weight
                          for (i, j), weight in meta_edges.items()}
        labelling = PathLabelling(
            landmarks=landmarks,
            landmark_position=landmark_positions(landmarks, n),
            label_matrix=backward,
            reverse_matrix=backward if symmetric else np.asarray(
                arrays["forward"], dtype=np.uint8),
            meta_edges=meta_edges,
        )
        return cls(graph, labelling,
                   build_meta_graph(graph, labelling,
                                    precompute_delta=False))

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------

    def _query(self, u: int, v: int) -> ShortestPathGraph:
        """All shortest directed ``u -> v`` paths, exactly."""
        searcher, sketch = self._plan(u, v)
        return ShortestPathGraph(u, v, *searcher.run(sketch), directed=True)

    def _distance(self, u: int, v: int) -> Optional[int]:
        """Exact ``d(u -> v)`` (``None`` when unreachable), from the
        sketch and the bounded search alone — no SPG is built."""
        searcher, sketch = self._plan(u, v)
        return searcher.distance_only(sketch)

    def _plan(self, u: int, v: int) -> Tuple[GuidedSearcher, Sketch]:
        """The searcher and sketch that answer ``u -> v``."""
        if self._labelling.is_landmark(u) or self._labelling.is_landmark(v):
            # Labels are defined on V \ R; landmark endpoints get the
            # unguided search over the whole graph, on a searcher made
            # on first use and kept.
            if self._fallback is None:
                self._fallback = GuidedSearcher(self._graph, self._graph)
            return self._fallback, Sketch(u, v, None)
        return (self._searcher,
                compute_sketch(self._labelling, self._meta, u, v))
