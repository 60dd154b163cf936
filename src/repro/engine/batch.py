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
* :class:`LabelArrays` — a flat 2-hop label CSR packed into a
  **dense head** and a **sparse tail**: label entries on the
  highest-ranked landmarks — where degree-ordered labellings
  concentrate their entries — live in a ``(|V|, H)`` matrix of the
  narrowest unsigned dtype that holds the labels' distances (one
  byte per distance, as in the paper's label cost model, whenever
  they are at most 63), so a 1 KiB row covers 1,024 hub ranks; the
  long tail stays in CSR arrays;
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

from typing import Iterable, List, Optional, Tuple

import numpy as np

from .._util import UNREACHED, segment_positions
from ..errors import QueryError, VertexError

__all__ = ["pairs_to_arrays", "LabelArrays", "HEAD_DTYPES",
           "head_absent", "two_hop_distance_many", "batched_min_plus",
           "finalize_distances"]

#: Bytes in one dense head row: 1,024 ranks at one byte a distance.
_HEAD_ROW_BYTES = 1024

#: Cap on the dense head matrix (bytes); the width shrinks on huge
#: graphs so precomputation never dominates index memory.
_HEAD_BYTES = 64 * 1024 * 1024

#: The head dtypes the kernel reads, narrowest first: :meth:`LabelArrays
#: .from_flat` packs in the first whose :func:`head_absent` exceeds
#: twice the largest label distance; a packed store keeps float32.
HEAD_DTYPES = (np.uint8, np.uint16, np.uint32, np.float32)

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

    The batched min-plus reduction behind the sharded relay (rows =
    boundary distances, matrix = overlay block). Chunked over the
    pair dimension so the broadcast temporary stays bounded.
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


def head_absent(dtype):
    """The head value that reads "no entry": ``inf`` in a float head,
    ``iinfo.max // 2`` in an unsigned one (127 for uint8).

    Every distance in an unsigned head is at most ``(absent - 1) // 2``,
    so two real entries sum below ``absent``, any sum with an absent
    entry is at least ``absent``, and two absent ones (``2 * absent <=
    iinfo.max``) never wrap.
    """
    dtype = np.dtype(dtype)
    return np.inf if dtype.kind == "f" else np.iinfo(dtype).max // 2


class LabelArrays:
    """2-hop labels packed for the batch kernel: dense head + CSR tail.

    ``head[v, r]`` holds ``d(v, rank r)`` for ranks below
    ``head_width`` (:func:`head_absent` of the head's dtype when
    absent) — degree-ordered labellings put most entries on those hub
    ranks, so most of every merge is a dense row operation. The head
    is uint8 / uint16 / uint32 as :meth:`from_flat` packs it, float32
    (``inf`` absent) as a packed store keeps it; the kernel reads
    either. Entries on higher ranks live in the tail:
    ``tail_offsets[v]:tail_offsets[v + 1]`` slices vertex ``v``'s
    ``(tail_ranks, tail_dists)``, rank-sorted per vertex.
    ``num_ranks`` spans the rank id space (for collision-free
    ``slot * num_ranks + rank`` keys). ``absent`` is
    :func:`head_absent` of the head's dtype, read once here and not
    per batch.
    """

    __slots__ = ("head", "head_width", "absent", "tail_offsets",
                 "tail_ranks", "tail_dists", "num_ranks")

    def __init__(self, head: np.ndarray, tail_offsets: np.ndarray,
                 tail_ranks: np.ndarray, tail_dists: np.ndarray,
                 num_ranks: int) -> None:
        self.head = head
        self.head_width = head.shape[1]
        self.absent = head_absent(head.dtype)
        self.tail_offsets = tail_offsets
        self.tail_ranks = tail_ranks
        self.tail_dists = tail_dists
        self.num_ranks = num_ranks

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

        The head's dtype is the narrowest of uint8 / uint16 / uint32
        whose :func:`head_absent` exceeds twice the largest distance
        (uint8 up to distance 63). Unless ``head_width`` is given, a
        row is 1 KiB — 1,024 uint8 ranks, 512 uint16 ones — narrowed
        so the whole head stays within 64 MiB on huge graphs, and
        never wider than the rank count (a column past the last rank
        holds no entry).
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        num_vertices = len(offsets) - 1
        flat_ranks = np.asarray(flat_ranks, dtype=np.int64)
        flat_dists = np.asarray(flat_dists)
        max_dist = int(flat_dists.max()) if len(flat_dists) else 0
        dtype = next(np.dtype(kind) for kind in HEAD_DTYPES
                     if 2 * max_dist < head_absent(kind))
        if head_width is None:
            head_width = int(min(
                _HEAD_ROW_BYTES // dtype.itemsize,
                max(16, _HEAD_BYTES
                    // (dtype.itemsize * max(1, num_vertices))),
                max(1, num_vertices)))
        in_head = flat_ranks < head_width
        # Head entries before each flat position: a vertex's row count
        # and its tail offset both read off it, so no per-entry vertex
        # id is ever materialized.
        heads_before = np.zeros(len(flat_ranks) + 1, dtype=np.int64)
        np.cumsum(in_head, out=heads_before[1:])
        heads_before = heads_before[offsets]
        head = np.full((num_vertices, head_width), head_absent(dtype),
                       dtype=dtype)
        slots = np.repeat(
            np.arange(num_vertices, dtype=np.int64) * head_width,
            np.diff(heads_before))
        slots += flat_ranks[in_head]
        head.reshape(-1)[slots] = flat_dists[in_head]
        del slots
        in_tail = ~in_head
        # Entries are ordered by (vertex, rank) already, so the masked
        # arrays are the tail CSR verbatim.
        return cls(head, offsets - heads_before, flat_ranks[in_tail],
                   np.asarray(flat_dists[in_tail], dtype=np.float64),
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
        positions = segment_positions(starts, counts)
        slots = np.repeat(np.arange(len(vertices), dtype=np.int64),
                          counts)
        keys = slots * self.num_ranks + self.tail_ranks[positions]
        return keys, self.tail_dists[positions]


def two_hop_distance_many(labels: LabelArrays, us: np.ndarray,
                          vs: np.ndarray) -> np.ndarray:
    """Batched 2-hop label merge: ``min_r d(u, r) + d(r, v)`` per pair.

    Exact whenever the labels are a 2-hop distance cover (the sound
    PPL invariant). Returns the int32 answer array, ``UNREACHED``
    where the endpoints share no labelled rank; ``u == v`` pairs are
    0 by definition.
    """
    head, absent = labels.head, labels.absent
    count = len(us)
    out = np.full(count, np.inf, dtype=np.float64)
    for start in range(0, count, _CHUNK_PAIRS):
        chunk = slice(start, min(start + _CHUNK_PAIRS, count))
        # Head: two row gathers, one in-place add, one min-reduction;
        # a minimum at or above `absent` is no common head rank.
        sums = head[us[chunk]]
        np.add(sums, head[vs[chunk]], out=sums)
        best = sums.min(axis=1).astype(np.float64)
        best[best >= absent] = np.inf
        # Tail: one gather for both sides — slot i is us[i], slot
        # size + i is vs[i] — then a sorted-key intersection (both
        # halves arrive sorted, so matching is a binary-search pass,
        # not a re-sort).
        size = len(best)
        keys, dists = labels.gather_tail(
            np.concatenate((us[chunk], vs[chunk])))
        shift = size * labels.num_ranks
        split = int(np.searchsorted(keys, shift))
        if 0 < split < len(keys):
            keys_u = keys[:split]
            keys_v = keys[split:] - shift
            positions = np.searchsorted(keys_u, keys_v)
            positions[positions == split] = 0
            hit_v = np.flatnonzero(keys_u[positions] == keys_v)
            if len(hit_v):
                sums = dists[positions[hit_v]] + dists[split + hit_v]
                # Per pair, the least tail sum against the head's.
                np.minimum.at(best, keys_v[hit_v] // labels.num_ranks,
                              sums)
        out[chunk] = best
    out[us == vs] = 0.0
    return seal_distances(out)
