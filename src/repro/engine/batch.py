"""Vectorized batch-distance kernels behind ``distance_many``.

The paper's headline claim is *online query speed*, yet a batch
answered through a Python loop pays interpreter dispatch per pair —
orders of magnitude more than the label arithmetic itself. This module
holds the shared numpy kernels behind
:meth:`~repro.engine.base.PathIndex.distance_many` and the families'
``_distance_many``:

* :func:`pairs_to_arrays` — one validation pass turning an iterable of
  ``(u, v)`` pairs into two int64 arrays (non-integer ids raise
  :class:`~repro.errors.QueryError`, out-of-range ones
  :class:`~repro.errors.VertexError`, exactly like the scalar path);
* :class:`LabelArrays` — per-vertex ragged 2-hop labels, flattened
  once per index version (cache via :func:`cached_label_arrays`) into
  a **dense head** and a **sparse tail**: label entries on the
  highest-ranked landmarks — where degree-ordered labellings
  concentrate their entries — live in a ``(|V|, H)`` float32 matrix,
  the long tail stays in CSR arrays;
* :func:`two_hop_distance_many` — the label-merge kernel shared by
  the ``ppl``/``parent-ppl``/``dynamic`` families: the head
  contributes ``min_r d(u, r) + d(r, v)`` as one row gather + add +
  min-reduction over the whole batch, the tail via one sorted-key
  binary-search intersection — no per-pair merge joins anywhere;
* :func:`finalize_distances` — an int32 answer array (``UNREACHED`` =
  disconnected, what every ``_distance_many`` returns) to the public
  ``Optional[int]`` list; the front door is its one caller.

The kernel chunks its pair dimension so peak memory stays bounded
regardless of batch size.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .._util import UNREACHED
from ..errors import QueryError, VertexError

__all__ = ["pairs_to_arrays", "LabelArrays", "cached_label_arrays",
           "two_hop_distance_many", "batched_min_plus",
           "finalize_distances"]

#: Head width cap: ranks below this bound get dense columns.
_HEAD_WIDTH = 256

#: Cap on the dense head matrix (float32 bytes); the width shrinks on
#: huge graphs so precomputation never dominates index memory.
_HEAD_BYTES = 64 * 1024 * 1024

#: Pairs per kernel chunk (bounds the transient batch matrices).
_CHUNK_PAIRS = 4096

#: Broadcast elements per :func:`batched_min_plus` chunk (~16 MB f64).
_MIN_PLUS_ELEMS = 2_000_000


def pairs_to_arrays(pairs: Iterable[Tuple[int, int]],
                    num_vertices: int) -> Tuple[np.ndarray, np.ndarray]:
    """Validate a pair batch into ``(us, vs)`` int64 arrays.

    The batch half of the :class:`~repro.engine.base.PathIndex` front
    door. Ids must be integers: an integer ``(k, 2)`` ndarray is taken
    as it is, anything else must *come out* of ``np.asarray`` integer
    — a float, a string or ``None`` anywhere refuses the batch with
    :class:`QueryError`, nothing is cast. The range check is one
    vectorized pass; the first offending id raises
    :class:`VertexError`.
    """
    if not isinstance(pairs, np.ndarray):
        try:
            pairs = np.asarray(list(pairs))
        except ValueError as exc:  # ragged rows
            raise QueryError(f"expected (u, v) pairs: {exc}") from None
    if pairs.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy()
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise QueryError(
            f"distance_many expects (u, v) pairs; got shape "
            f"{pairs.shape}"
        )
    if pairs.dtype.kind not in "iub":
        raise QueryError(
            f"vertex ids must be integers; got a batch of "
            f"{pairs.dtype.name} values"
        )
    sides = np.ascontiguousarray(pairs.T, dtype=np.int64)
    bad = (sides < 0) | (sides >= num_vertices)
    if bad.any():
        raise VertexError(int(sides[bad][0]), num_vertices)
    return sides[0], sides[1]


def finalize_distances(dist: np.ndarray) -> List[Optional[int]]:
    """An int32 answer array (``UNREACHED`` = disconnected) ->
    ``Optional[int]``."""
    return [None if value == UNREACHED else value
            for value in dist.tolist()]


def seal_distances(best: np.ndarray) -> np.ndarray:
    """Float distances out of a ``min``/``+`` composition (``inf`` =
    disconnected) -> the int32 answer array (``UNREACHED`` there)."""
    return np.where(best == np.inf, UNREACHED, best).astype(np.int32)


def batched_min_plus(left: np.ndarray, matrix: np.ndarray,
                     right: np.ndarray) -> np.ndarray:
    """``out[p] = min_{i,j} left[p, i] + matrix[i, j] + right[p, j]``.

    The batched min-plus reduction behind both the QbS sketch bound
    (rows = label distances, matrix = meta-graph distances) and the
    sharded relay (rows = boundary distances, matrix = overlay
    block). Chunked over the pair dimension so the broadcast
    temporary stays bounded.
    """
    count = len(left)
    out = np.full(count, np.inf, dtype=np.float64)
    if matrix.size == 0 or not count:
        return out
    step = max(1, _MIN_PLUS_ELEMS // matrix.size)
    for start in range(0, count, step):
        chunk = slice(start, start + step)
        through = (left[chunk][:, :, None]
                   + matrix[None, :, :]).min(axis=1)
        out[chunk] = (through + right[chunk]).min(axis=1)
    return out


class LabelArrays:
    """2-hop labels packed for the batch kernel: dense head + CSR tail.

    ``head[v, r]`` holds ``d(v, rank r)`` for ranks below
    ``head_width`` (``inf`` when absent) — degree-ordered labellings
    put most entries on those hub ranks, so most of every merge is a
    dense row operation. Entries on higher ranks live in the tail:
    ``tail_offsets[v]:tail_offsets[v + 1]`` slices vertex ``v``'s
    ``(tail_ranks, tail_dists)``, rank-sorted per vertex.
    ``num_ranks`` spans the rank id space (for collision-free
    ``slot * num_ranks + rank`` keys).
    """

    __slots__ = ("head", "head_width", "tail_offsets", "tail_ranks",
                 "tail_dists", "num_ranks")

    def __init__(self, head: np.ndarray, tail_offsets: np.ndarray,
                 tail_ranks: np.ndarray, tail_dists: np.ndarray,
                 num_ranks: int) -> None:
        self.head = head
        self.head_width = head.shape[1]
        self.tail_offsets = tail_offsets
        self.tail_ranks = tail_ranks
        self.tail_dists = tail_dists
        self.num_ranks = num_ranks

    @classmethod
    def from_lists(cls, label_ranks: Sequence[Sequence[int]],
                   label_dists: Sequence[Sequence[int]]
                   ) -> "LabelArrays":
        counts = np.fromiter((len(ranks) for ranks in label_ranks),
                             dtype=np.int64, count=len(label_ranks))
        offsets = np.zeros(len(label_ranks) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        total = int(offsets[-1])
        flat_ranks = np.empty(total, dtype=np.int64)
        flat_dists = np.empty(total, dtype=np.float64)
        position = 0
        for ranks, dists in zip(label_ranks, label_dists):
            step = len(ranks)
            flat_ranks[position:position + step] = ranks
            flat_dists[position:position + step] = dists
            position += step
        return cls.from_flat(offsets, flat_ranks, flat_dists)

    @classmethod
    def from_flat(cls, offsets: np.ndarray, flat_ranks: np.ndarray,
                  flat_dists: np.ndarray,
                  head_width: Optional[int] = None) -> "LabelArrays":
        """Pack from a flat label CSR (``offsets[v]:offsets[v + 1]``
        slices vertex ``v``'s rank-sorted entries).

        This is the zero-materialization path: the persistence format
        and the out-of-core store both hold labels in exactly this
        layout, and the inputs may be memmap-backed — everything here
        is one vectorized pass, no per-vertex Python objects. Entries
        must be ordered by (vertex, rank), which every producer of the
        flat layout guarantees.
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        num_vertices = len(offsets) - 1
        if head_width is None:
            head_width = int(min(
                _HEAD_WIDTH,
                max(16, _HEAD_BYTES // (4 * max(1, num_vertices)))))
        flat_ranks = np.asarray(flat_ranks, dtype=np.int64)
        flat_dists = np.asarray(flat_dists, dtype=np.float64)
        counts = np.diff(offsets)
        vertex_of = np.repeat(
            np.arange(num_vertices, dtype=np.int64), counts)
        in_head = flat_ranks < head_width
        head = np.full((num_vertices, head_width), np.inf,
                       dtype=np.float32)
        head[vertex_of[in_head], flat_ranks[in_head]] = \
            flat_dists[in_head]
        in_tail = ~in_head
        tail_offsets = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(vertex_of[in_tail],
                              minlength=num_vertices),
                  out=tail_offsets[1:])
        # Entries are ordered by (vertex, rank) already, so the masked
        # views are the tail CSR verbatim.
        return cls(head, tail_offsets,
                   np.ascontiguousarray(flat_ranks[in_tail]),
                   np.ascontiguousarray(flat_dists[in_tail]),
                   num_vertices)

    def gather_tail(self, vertices: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(keys, dists)`` of the tail entries of ``vertices``.

        ``keys[i] = slot * num_ranks + rank`` where ``slot`` is the
        position in ``vertices`` — ascending by construction (slots
        ascend, ranks ascend within a vertex), so both sides of the
        kernel's intersection arrive pre-sorted.
        """
        starts = self.tail_offsets[vertices]
        counts = self.tail_offsets[vertices + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return (np.zeros(0, dtype=np.int64),
                    np.zeros(0, dtype=np.float64))
        slots = np.repeat(np.arange(len(vertices), dtype=np.int64),
                          counts)
        ends = np.cumsum(counts)
        positions = np.arange(total, dtype=np.int64) \
            + np.repeat(starts - (ends - counts), counts)
        keys = slots * self.num_ranks + self.tail_ranks[positions]
        return keys, self.tail_dists[positions]


def cached_label_arrays(owner, label_ranks, label_dists,
                        version: int) -> LabelArrays:
    """:class:`LabelArrays` over a mutable index's label lists, rebuilt
    only when ``version`` moves (the packing costs one pass over every
    label entry)."""
    cached = getattr(owner, "_label_arrays_cache", None)
    if cached is not None and cached[0] == version:
        return cached[1]
    arrays = LabelArrays.from_lists(label_ranks, label_dists)
    owner._label_arrays_cache = (version, arrays)
    return arrays


def two_hop_distance_many(labels: LabelArrays, us: np.ndarray,
                          vs: np.ndarray) -> np.ndarray:
    """Batched 2-hop label merge: ``min_r d(u, r) + d(r, v)`` per pair.

    Exact whenever the labels are a 2-hop distance cover (the sound
    PPL invariant). Returns the int32 answer array, ``UNREACHED``
    where the endpoints share no labelled rank; ``u == v`` pairs are
    0 by definition.
    """
    count = len(us)
    out = np.full(count, np.inf, dtype=np.float64)
    for start in range(0, count, _CHUNK_PAIRS):
        chunk = slice(start, min(start + _CHUNK_PAIRS, count))
        # Head: two row gathers, one add, one min-reduction.
        best = (labels.head[us[chunk]]
                + labels.head[vs[chunk]]).min(axis=1)
        best = best.astype(np.float64)
        # Tail: sorted-key intersection (both sides arrive sorted, so
        # matching is a binary-search pass, not a re-sort).
        keys_u, dists_u = labels.gather_tail(us[chunk])
        keys_v, dists_v = labels.gather_tail(vs[chunk])
        if len(keys_u) and len(keys_v):
            positions = np.searchsorted(keys_u, keys_v)
            positions[positions == len(keys_u)] = 0
            matched = keys_u[positions] == keys_v
            hit_v = np.nonzero(matched)[0]
            if len(hit_v):
                sums = dists_u[positions[hit_v]] + dists_v[hit_v]
                slots = keys_v[hit_v] // labels.num_ranks
                # `slots` ascends: grouped min via reduceat, then one
                # scatter against the head's answer.
                group_starts = np.nonzero(
                    np.r_[True, np.diff(slots) != 0])[0]
                group_slots = slots[group_starts]
                best[group_slots] = np.minimum(
                    best[group_slots],
                    np.minimum.reduceat(sums, group_starts))
        out[chunk] = best
    out[us == vs] = 0.0
    return seal_distances(out)
