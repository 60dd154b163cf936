"""Directed Query-by-Sketch: the ``qbs-directed`` archive layout.

The extension the paper claims in §2 ("our work can be easily extended
to directed ... graphs"). :class:`~repro.core.qbs.QbSIndex` is written
against a dual-CSR view, which a :class:`DiGraph` is: the labelling
sweeps the out-CSR for ``forward`` (``F[v, i] = d(r_i -> v)``) and the
in-CSR for ``backward`` (``B[v, i] = d(v -> r_i)``), the sketch
broadcasts ``B[u][:, None] + d_M + F[v][None, :]`` over the directed
meta distances, and the guided search grows ``u`` along the arcs and
``v`` against them. So this subclass holds only what the registry key
``qbs-directed`` pins: its archive layout, which stores no Δ (so a
build leaves Δ off and rebuilds landmark segments on demand).
"""

from __future__ import annotations

import numpy as np

from ..core.qbs import QbSIndex
from ..engine.persist import pack_pairs
from ..engine.registry import register_index
from .digraph import DiGraph, _csr

__all__ = ["DirectedQbSIndex"]


@register_index("qbs-directed")
class DirectedQbSIndex(QbSIndex):
    """Query-by-Sketch over a directed graph."""

    directed = True

    @classmethod
    def build(cls, graph: DiGraph, **params) -> "DirectedQbSIndex":
        """:meth:`QbSIndex.build` without Δ, which this layout does not
        store: a built index must answer as its reloaded self."""
        return super().build(graph, precompute_delta=False, **params)

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
        # ONE CSR, and a build over one keeps one label matrix.
        # Serialisation loses the identity; re-establish it: the CSRs
        # are equal iff every arc is mutual.
        symmetric = all(np.array_equal(a, b)
                        for a, b in zip(out_csr, in_csr))
        graph = DiGraph(*out_csr, *(out_csr if symmetric else in_csr))
        backward = np.asarray(arrays["backward"], dtype=np.uint8)
        forward = backward if symmetric else np.asarray(
            arrays["forward"], dtype=np.uint8)
        return cls._from_labels(graph, arrays, backward, forward)
