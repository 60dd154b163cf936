"""Labelling-scheme construction (Algorithm 2 of the paper).

For each landmark ``r`` a single BFS partitions discovered vertices
into two queues:

* ``Q_L`` — vertices reached by at least one shortest path from ``r``
  that passes through **no other landmark**; these receive the label
  ``(r, depth)``;
* ``Q_N`` — vertices whose every shortest path from ``r`` crosses some
  other landmark first; they are traversed (to block re-discovery) but
  not labelled.

Landmarks discovered from the ``Q_L`` side become meta-graph edges with
weight equal to their exact distance from ``r`` (Definition 4.1). The
construction is deterministic for a fixed landmark set (Lemma 5.2):
the per-landmark BFSs are independent, which is what lets
:func:`build_labelling` run them 64 at a time as the uint64 lanes of
one lockstep sweep. There is no thread variant.

The sweep is written against a dual-CSR view (``out_indptr`` /
``out_indices`` / ``in_indptr`` / ``in_indices``): one pass along the
arcs labels ``d(r -> v)``, one against them labels ``d(v -> r)``. A
``DiGraph`` needs both; an undirected ``Graph`` names its one CSR on
both sides, so a single pass serves as both matrices (§2's "easily
extended to directed graphs", with nothing forked).

The result is stored the way the paper accounts for it: a dense
``|V| x |R|`` uint8 matrix (``|R| * 8`` bits per vertex, §6.1), with
:data:`~repro._util.NO_LABEL` marking absent entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Tuple

import numpy as np

from .._util import NO_LABEL, Stopwatch
from ..errors import IndexBuildError
from ..obs import get_registry, span
from .build_kernels import BATCH_BITS, Csr, _csr_triple, _expand_bits, \
    qbs_batch_levels

__all__ = ["PathLabelling", "build_labelling", "checked_landmarks",
           "landmark_positions"]

#: Largest distance representable in a uint8 label (255 is the sentinel).
MAX_LABEL_DISTANCE = 254


@dataclass
class PathLabelling:
    """The path labelling ``L`` plus raw meta-graph edges.

    Attributes
    ----------
    landmarks:
        int32 array of landmark vertex ids; column ``i`` of
        ``label_matrix`` belongs to ``landmarks[i]``.
    landmark_position:
        int32 array of length ``|V|``; position of each landmark in
        ``landmarks`` (or -1 for non-landmarks).
    label_matrix:
        ``(|V|, |R|)`` uint8 array; ``label_matrix[v, i]`` is
        ``d_G(v -> landmarks[i])`` when a landmark-avoiding shortest
        path exists, else :data:`NO_LABEL`. Landmark rows are all
        :data:`NO_LABEL` (labels are defined on ``V \\ R``).
    reverse_matrix:
        The same for ``d_G(landmarks[i] -> v)``. On a symmetric graph
        the two distances coincide and this *is* ``label_matrix`` (the
        one array, not a copy) — which is how :attr:`symmetric` and
        everything downstream tell the two kinds of graph apart.
    meta_edges:
        Mapping ``(i, j) -> weight`` over landmark *positions*, the
        meta-graph edge set ``E_R`` with ``σ``: the arc ``i -> j`` on
        a directed graph, the edge ``{i, j}`` stored once under
        ``i < j`` on a symmetric one.
    """

    landmarks: np.ndarray
    landmark_position: np.ndarray
    label_matrix: np.ndarray
    reverse_matrix: np.ndarray
    meta_edges: Dict[Tuple[int, int], int]

    @property
    def symmetric(self) -> bool:
        """Whether distances to and from a landmark are one matrix."""
        return self.reverse_matrix is self.label_matrix

    @property
    def num_landmarks(self) -> int:
        return len(self.landmarks)

    @property
    def num_vertices(self) -> int:
        return len(self.landmark_position)

    def is_landmark(self, v: int) -> bool:
        return self.landmark_position[v] >= 0

    def label_entries(self, v: int) -> List[Tuple[int, int]]:
        """Label of ``v`` as ``[(landmark_vertex, distance), ...]``.

        Mirrors the per-vertex label sets of Definition 4.2; mostly for
        tests and debugging (hot paths use the matrix directly).
        """
        row = self.label_matrix[v]
        present = np.nonzero(row != NO_LABEL)[0]
        return [(int(self.landmarks[i]), int(row[i])) for i in present]

    def label_rows_float(self, vertices, reverse: bool = False
                         ) -> np.ndarray:
        """Label rows of ``vertices`` as float64, ``inf`` for absent
        (``reverse``: distances *from* the landmarks).

        One fancy-index gather over the dense matrix; the float form
        is what the sketch broadcast and the batched distance kernel
        compute on (``inf`` composes under ``+``/``min`` without
        sentinel bookkeeping).
        """
        matrix = self.reverse_matrix if reverse else self.label_matrix
        rows = matrix[np.asarray(vertices, dtype=np.int64)]
        out = rows.astype(np.float64)
        out[rows == NO_LABEL] = np.inf
        return out

    def size_entries(self) -> int:
        """Number of materialized label entries (size(L) of §2)."""
        return int(np.count_nonzero(self.label_matrix != NO_LABEL))

    def paper_size_bytes(self) -> int:
        """Paper cost model: ``|R| * 8`` bits = ``|R|`` bytes per vertex
        for each matrix held."""
        return (self.num_vertices * self.num_landmarks
                * (1 if self.symmetric else 2))


def checked_landmarks(landmarks, num_vertices: int,
                      error: type = IndexBuildError) -> np.ndarray:
    """``landmarks`` as an int32 array, or ``error`` unless they are a
    non-empty set of distinct integer ids in ``[0, num_vertices)``.

    Checked before the cast, which would wrap ``2**32 + 2`` to 2 and
    truncate ``1.5`` (or ``True``) to 1. Builds refuse with
    :class:`IndexBuildError`, archive loads with ``IndexFormatError``.
    """
    landmarks = np.asarray(landmarks)
    if landmarks.ndim != 1 or len(landmarks) == 0:
        raise error("landmark set must be non-empty")
    if landmarks.dtype.kind not in "iu":
        raise error(f"landmark ids must be integers, got {landmarks.dtype}")
    if landmarks.min() < 0 or landmarks.max() >= num_vertices:
        raise error("landmark id out of range")
    if len(np.unique(landmarks)) != len(landmarks):
        raise error("landmark set contains duplicates")
    return landmarks.astype(np.int32)


def landmark_positions(landmarks: np.ndarray,
                       num_vertices: int) -> np.ndarray:
    """``landmark_position`` of a labelling: each vertex's index in
    ``landmarks``, -1 for non-landmarks."""
    position = np.full(num_vertices, -1, dtype=np.int32)
    position[landmarks] = np.arange(len(landmarks), dtype=np.int32)
    return position


def _depth_limit_error(roots) -> str:
    head = ", ".join(str(int(r)) for r in np.asarray(roots)[:3])
    return (f"BFS from landmark(s) {head} exceeded the uint8 label "
            f"distance limit ({MAX_LABEL_DISTANCE}); the paper's "
            f"8-bit-per-label cost model assumes small-diameter graphs")


def build_labelling(graph, landmarks: np.ndarray) -> PathLabelling:
    """Labelling construction over any dual-CSR view.

    Sweeps the landmarks 64 at a time through the bit-parallel lockstep
    kernel (one uint64 lane per root) — the repo's realisation of
    Lemma 5.2: the scheme is deterministic w.r.t. the landmark *set*,
    so the per-landmark BFSs are independent and run as lanes of one
    pass; the order only affects column layout, not content.

    One sweep along the arcs gives ``d(r -> v)``, one against them
    ``d(v -> r)``; on a symmetric graph (both sides of the view name
    one CSR) the second sweep would repeat the first, so the one matrix
    serves as both and each meta edge is kept once, as ``(i, j)`` with
    ``i < j``.
    """
    n = graph.num_vertices
    landmarks = checked_landmarks(landmarks, n)
    position = landmark_positions(landmarks, n)
    symmetric = graph.out_indices is graph.in_indices
    out_csr = _csr_triple(graph.out_indptr, graph.out_indices)
    in_csr = out_csr if symmetric else _csr_triple(graph.in_indptr,
                                                   graph.in_indices)
    with span("build.root_bfs_loop", landmarks=len(landmarks),
              batch_bits=BATCH_BITS):
        reverse_matrix, hits = _label_sweep(out_csr, in_csr, landmarks,
                                            position)
        if symmetric:
            label_matrix = reverse_matrix
            arcs = [(min(r, h), max(r, h), w) for r, h, w in hits]
        else:
            # Along the arcs a hit is the meta arc root -> hit; against
            # them it is hit -> root.
            label_matrix, against = _label_sweep(in_csr, out_csr,
                                                 landmarks, position)
            arcs = hits + [(h, r, w) for r, h, w in against]
    return PathLabelling(
        landmarks=landmarks,
        landmark_position=position,
        label_matrix=label_matrix,
        reverse_matrix=reverse_matrix,
        meta_edges=_merge_meta_edges(arcs),
    )


def _label_sweep(push: Csr, pull: Csr, landmarks: np.ndarray,
                 position: np.ndarray
                 ) -> Tuple[np.ndarray, List[Tuple[int, int, int]]]:
    """Algorithm 2 along one orientation.

    Returns the ``(|V|, |R|)`` matrix of labelled BFS depths from each
    landmark over the ``push`` CSR, and the landmarks labelled by
    another root — the meta-edge discoveries — as
    ``(root_position, hit_position, depth)``.
    """
    is_landmark = position >= 0
    matrix = np.full((len(position), len(landmarks)), NO_LABEL,
                     dtype=np.uint8)
    hits: List[Tuple[int, int, int]] = []
    registry = get_registry()
    root_seconds = registry.histogram(
        "build_root_bfs_seconds",
        help="Wall time of one labelled BFS from a landmark root.")
    roots_counter = registry.counter(
        "build_roots_processed_total",
        help="Landmark roots swept by the construction kernels.")
    for start in range(0, len(landmarks), BATCH_BITS):
        chunk = landmarks[start:start + BATCH_BITS]
        with Stopwatch() as sw:
            for depth, vertices, bits in qbs_batch_levels(
                    push, pull, chunk.astype(np.int64), is_landmark,
                    max_depth=MAX_LABEL_DISTANCE,
                    max_depth_error=_depth_limit_error(chunk)):
                if depth == 0:
                    continue
                rows, cols = _expand_bits(bits)
                labelled = vertices[rows]
                hit_mask = is_landmark[labelled]
                matrix[labelled[~hit_mask], start + cols[~hit_mask]] = depth
                hits.extend(zip((start + cols[hit_mask]).tolist(),
                                position[labelled[hit_mask]].tolist(),
                                repeat(depth)))
        roots_counter.inc(len(chunk))
        # One lockstep pass serves the whole batch; attribute its
        # wall time evenly so the per-root histogram stays live.
        root_seconds.observe_many(
            np.full(len(chunk), sw.elapsed / len(chunk)))
    return matrix, hits


def _merge_meta_edges(arcs: List[Tuple[int, int, int]]
                      ) -> Dict[Tuple[int, int], int]:
    """Fold ``(tail, head, weight)`` discoveries into one mapping.

    Each meta edge is discovered from both endpoints; the weights must
    agree (both are the exact graph distance) — a mismatch would mean
    the BFS is broken, so it is checked.
    """
    meta: Dict[Tuple[int, int], int] = {}
    for tail, head, weight in sorted(arcs):
        if meta.setdefault((tail, head), weight) != weight:
            raise IndexBuildError(
                f"inconsistent meta edge weight for landmarks "
                f"{(tail, head)}: {meta[(tail, head)]} vs {weight}"
            )
    return meta
