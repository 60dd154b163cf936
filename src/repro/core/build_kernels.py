"""Array-native label-construction kernels.

Every labelling construction in this repo — sound PPL
(:mod:`repro.baselines.ppl`), ParentPPL, the QbS labelling of
Algorithm 2 (:mod:`repro.core.labelling`), and the dynamic repair
resume (:mod:`repro.dynamic.incremental`) — reduces to the same
primitive: a BFS from a root whose *interior* vertices are restricted
to an allowed set, compared against the unrestricted BFS. A vertex is
labelled exactly when the restricted distance equals the true
distance. The two former per-vertex Python loops (``restricted_bfs``
and ``label_bfs``'s two-queue walk) instantiated this with different
allowed sets — lower-ranked vertices for PPL, non-landmarks for QbS —
and had quietly diverged; this module is now the single home for the
prune predicate.

:func:`_lockstep_sweep` runs it for 64 roots per pass. Each vertex
carries one ``uint64`` whose bit *j* means "reached by root *j*"; a
whole BFS level for all 64 roots is one CSR gather plus an
OR-reduction, and the full and restricted sweeps advance in lockstep so
the label test (``fresh_full & fresh_restricted``) is a single AND per
level. This is the bit-parallel batching of Akiba et al. (SIGMOD 2013)
adapted to the restricted-interior rule. Root batches are independent
for the sound variant, so :func:`build_sound_labels` can fan them out
over a ``multiprocessing`` pool. (The one-root, frontier-at-a-time form
the sweep is pinned against is ``restricted_distances`` in
``tests/_reference_builders.py``.)

Construction output is flat CSR ``(offsets, flat_ranks, flat_dists)``
sorted by ``(vertex, rank)`` — exactly what the batch kernel's
``LabelArrays.from_flat`` and the packed store consume, so the build
result needs zero conversion downstream. :class:`RaggedView` /
:class:`ParentsView` wrap those flats as the sequence-of-sequences the
scalar query paths index.
"""

from __future__ import annotations

import multiprocessing
import signal
from collections.abc import Sequence
from typing import Dict, List, Optional, Tuple

import numpy as np

from .._util import Stopwatch, TimeBudget
from ..errors import IndexBuildError
from ..obs import get_registry, span

__all__ = [
    "BATCH_BITS",
    "RaggedView",
    "ParentsRow",
    "ParentsView",
    "build_sound_labels",
    "qbs_batch_levels",
]

#: Roots per bit-parallel pass (width of the uint64 visited masks).
BATCH_BITS = 64

_ALL_BITS = np.uint64(0xFFFFFFFFFFFFFFFF)
_ZERO = np.uint64(0)

#: One orientation of a graph as the kernels take it:
#: ``(indptr, indices, degrees)``.
Csr = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: The dense expansion path gathers all ``m`` edge masks; it wins once
#: the frontier touches at least this fraction of the edge set.
_DENSE_EDGE_FRACTION = 16


# ----------------------------------------------------------------------
# Flat-label views (the construction-side container contract)
# ----------------------------------------------------------------------

class RaggedView(Sequence):
    """Per-vertex rows over ``(offsets, flat)`` CSR arrays.

    ``rows[v]`` slices the flat array and returns an ndarray the
    merge-join query code indexes exactly like the list-of-lists the
    families historically held. ``flat`` may be any array-like
    supporting slicing (an ndarray here; the packed store passes its
    block-cached cold arrays).
    """

    __slots__ = ("offsets", "flat")

    def __init__(self, offsets: np.ndarray, flat) -> None:
        self.offsets = offsets
        self.flat = flat

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, vertex):
        if isinstance(vertex, slice):
            raise TypeError("ragged label rows index by vertex only")
        vertex = int(vertex)
        if vertex < 0:
            vertex += len(self)
        if not 0 <= vertex < len(self):
            raise IndexError(vertex)
        return self.flat[int(self.offsets[vertex]):
                         int(self.offsets[vertex + 1])]

    def __eq__(self, other):
        # Value equality against any sequence-of-rows (tests compare
        # label containers against list-of-lists snapshots).
        try:
            if len(other) != len(self):
                return False
        except TypeError:
            return NotImplemented
        return all(np.array_equal(self[v], other[v])
                   for v in range(len(self)))

    __hash__ = None


class ParentsRow(Sequence):
    """One vertex's per-entry parent tuples, sliced on demand."""

    __slots__ = ("_base", "_count", "_parent_offsets", "_parents")

    def __init__(self, base: int, count: int, parent_offsets,
                 parents) -> None:
        self._base = base
        self._count = count
        self._parent_offsets = parent_offsets
        self._parents = parents

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, i):
        if isinstance(i, slice):
            raise TypeError("parent rows index by entry only")
        i = int(i)
        if i < 0:
            i += self._count
        if not 0 <= i < self._count:
            raise IndexError(i)
        entry = self._base + i
        bounds = self._parent_offsets[entry:entry + 2]
        return tuple(
            int(w) for w in
            self._parents[int(bounds[0]):int(bounds[1])])


class ParentsView(Sequence):
    """``label_parents[v][i]`` facade over flat parent arrays."""

    __slots__ = ("offsets", "parent_offsets", "parents")

    def __init__(self, offsets: np.ndarray, parent_offsets,
                 parents) -> None:
        self.offsets = offsets
        self.parent_offsets = parent_offsets
        self.parents = parents

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, vertex):
        if isinstance(vertex, slice):
            raise TypeError("parent views index by vertex only")
        vertex = int(vertex)
        if vertex < 0:
            vertex += len(self)
        if not 0 <= vertex < len(self):
            raise IndexError(vertex)
        base = int(self.offsets[vertex])
        count = int(self.offsets[vertex + 1]) - base
        return ParentsRow(base, count, self.parent_offsets, self.parents)


# ----------------------------------------------------------------------
# Bit-parallel lockstep sweep (64 roots per pass)
# ----------------------------------------------------------------------

def _concat_neighbors(indptr: np.ndarray, indices: np.ndarray,
                      vertices: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Adjacency lists of ``vertices`` concatenated in CSR order.

    Returns ``(targets, counts)`` where ``counts[i]`` is the degree of
    ``vertices[i]`` and ``targets`` lists their neighbours contiguously.
    """
    starts = indptr[vertices].astype(np.int64)
    counts = (indptr[vertices + 1] - indptr[vertices]).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype), counts
    shifted = np.concatenate((np.zeros(1, dtype=np.int64),
                              np.cumsum(counts)[:-1]))
    pos = (np.arange(total, dtype=np.int64)
           - np.repeat(shifted, counts) + np.repeat(starts, counts))
    return indices[pos], counts


def _csr_triple(indptr: np.ndarray, indices: np.ndarray) -> Csr:
    return indptr, indices, np.diff(indptr).astype(np.int64)


def _spread(push: Csr, pull: Csr,
            frontier_bits: np.ndarray, active: np.ndarray,
            reached: np.ndarray, scatter_buf: np.ndarray
            ) -> Tuple[np.ndarray, np.ndarray]:
    """One bit-parallel expansion level for one sweep.

    ORs the frontier masks into every neighbour, keeps the bits not yet
    in ``reached`` (marking them reached), and returns the fresh
    ``(vertices, bits)``. Dense frontiers gather the whole edge array
    and OR-reduce per CSR row; sparse frontiers scatter into
    ``scatter_buf`` instead, touching only incident edges.

    The sparse path *pushes* each active vertex's bits along its
    ``push`` row; the dense path *pulls* each vertex's bits from the
    vertices that would push to it, which are its ``pull`` row — the
    CSR of the opposite orientation. On an undirected graph the two
    are the same CSR; a sweep along the arcs of a digraph passes
    ``(out, in)``, one against them ``(in, out)``.
    """
    indptr, indices, degrees = push
    m = len(indices)
    if len(active) == 0 or m == 0:
        return (np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.uint64))
    edge_count = int(degrees[active].sum())
    if edge_count == 0:
        return (np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.uint64))
    if edge_count * _DENSE_EDGE_FRACTION >= m:
        # reduceat over the starts of nonempty rows only: consecutive
        # nonempty starts bound exactly one row's edges (empty rows in
        # between contribute zero length), and the last nonempty row
        # runs to the end of the edge array. Clamping empty-row starts
        # instead would truncate the final nonempty row whenever
        # trailing isolated vertices exist.
        pull_indptr, pull_indices, pull_degrees = pull
        gathered = frontier_bits[pull_indices]
        nonempty = np.nonzero(pull_degrees)[0]
        acc = np.bitwise_or.reduceat(
            gathered, pull_indptr[nonempty].astype(np.int64))
        hit = acc != _ZERO
        touched = nonempty[hit]
        arrive = acc[hit]
    else:
        targets, counts = _concat_neighbors(indptr, indices, active)
        source = np.repeat(frontier_bits[active], counts)
        np.bitwise_or.at(scatter_buf, targets, source)
        touched = np.unique(targets).astype(np.int64)
        arrive = scatter_buf[touched]
        scatter_buf[touched] = _ZERO
    fresh = arrive & ~reached[touched]
    keep = fresh != _ZERO
    fresh_vertices = touched[keep].astype(np.int64)
    fresh_bits = fresh[keep]
    reached[fresh_vertices] |= fresh_bits
    return fresh_vertices, fresh_bits


def _lockstep_sweep(push: Csr, pull: Csr, roots: np.ndarray,
                    expand_mask: np.ndarray, *,
                    collect_parents: bool = False,
                    budget: Optional[TimeBudget] = None,
                    max_depth: Optional[int] = None,
                    max_depth_error: Optional[str] = None):
    """Full + restricted BFS from ≤64 roots, one uint64 lane per root.

    Yields ``(depth, vertices, labelled_bits, parent_edges)`` per BFS
    level: ``vertices`` (ascending) hold at least one bit that became
    fresh in *both* sweeps at this depth — i.e. roots whose restricted
    distance equals the true distance, the shared label rule.
    ``expand_mask[v]`` says which roots' restricted sweeps may expand
    through ``v`` (callers must OR each root's own bit at its vertex).
    ``push`` is the CSR the BFS follows and ``pull`` its transpose
    (see :func:`_spread`); both are ``(indptr, indices, degrees)``.

    ``parent_edges`` (when ``collect_parents``) is ``(slots, parents,
    bits)``: for each CSR edge out of a labelled vertex whose endpoint
    was full-fresh one level up, the index into ``vertices``, the
    endpoint, and the bits it is a parent for — the ParentPPL parent
    rule, evaluated against the previous level's full frontier.

    Without ``max_depth`` the sweep stops as soon as either frontier
    empties (no further level can produce a label). With it, the sweep
    keeps pace with the full BFS and raises once ``depth`` exceeds the
    limit while vertices remain — matching Algorithm 2's uint8 guard.
    """
    n = len(push[0]) - 1
    k = len(roots)
    roots = np.asarray(roots, dtype=np.int64)
    seeds = np.uint64(1) << np.arange(k, dtype=np.uint64)
    reached_full = np.zeros(n, dtype=np.uint64)
    reached_rest = np.zeros(n, dtype=np.uint64)
    frontier_full = np.zeros(n, dtype=np.uint64)
    frontier_rest = np.zeros(n, dtype=np.uint64)
    scatter_buf = np.zeros(n, dtype=np.uint64)
    reached_full[roots] = seeds
    reached_rest[roots] = seeds
    frontier_full[roots] = seeds
    frontier_rest[roots] = seeds

    no_parents = (np.empty(0, dtype=np.int64),
                  np.empty(0, dtype=np.int64),
                  np.empty(0, dtype=np.uint64))
    slot_order = np.argsort(roots, kind="stable")
    yield 0, roots[slot_order], seeds[slot_order], no_parents

    active_full = roots
    active_rest = roots
    depth = 0
    while len(active_full) and (len(active_rest) or max_depth is not None):
        depth += 1
        if budget is not None:
            budget.check()
        if max_depth is not None and depth > max_depth:
            raise IndexBuildError(
                max_depth_error
                or f"bit-parallel BFS exceeded depth {max_depth}")
        fresh_v_full, fresh_b_full = _spread(
            push, pull, frontier_full, active_full,
            reached_full, scatter_buf)
        fresh_v_rest, fresh_b_rest = _spread(
            push, pull, frontier_rest, active_rest,
            reached_rest, scatter_buf)
        # Restricted distances never beat the full BFS, so a bit fresh
        # in both sweeps at the same depth has restricted == full.
        common, if_full, if_rest = np.intersect1d(
            fresh_v_full, fresh_v_rest, assume_unique=True,
            return_indices=True)
        labelled_bits = fresh_b_full[if_full] & fresh_b_rest[if_rest]
        keep = labelled_bits != _ZERO
        labelled_vertices = common[keep]
        labelled_bits = labelled_bits[keep]
        if collect_parents and len(labelled_vertices):
            # frontier_full still holds the previous level's fresh
            # bits: exactly the vertices at true depth - 1.
            targets, counts = _concat_neighbors(
                pull[0], pull[1], labelled_vertices)
            slots = np.repeat(
                np.arange(len(labelled_vertices), dtype=np.int64),
                counts)
            bits = labelled_bits[slots] & frontier_full[targets]
            hit = bits != _ZERO
            parent_edges = (slots[hit], targets[hit].astype(np.int64),
                            bits[hit])
        else:
            parent_edges = no_parents
        frontier_full[active_full] = _ZERO
        frontier_full[fresh_v_full] = fresh_b_full
        active_full = fresh_v_full
        frontier_rest[active_rest] = _ZERO
        masked = fresh_b_rest & expand_mask[fresh_v_rest]
        forward = masked != _ZERO
        active_rest = fresh_v_rest[forward]
        frontier_rest[active_rest] = masked[forward]
        if len(labelled_vertices):
            yield depth, labelled_vertices, labelled_bits, parent_edges


def _expand_bits(masks: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Explode uint64 masks into ``(rows, bit_columns)`` pairs."""
    lanes = np.arange(BATCH_BITS, dtype=np.uint64)
    table = ((masks[:, None] >> lanes) & np.uint64(1)).astype(bool)
    return np.nonzero(table)


# ----------------------------------------------------------------------
# Sound PPL batches (rank-prefix restriction)
# ----------------------------------------------------------------------

def _rank_expand_mask(rank_of: np.ndarray, r0: int, roots: np.ndarray,
                      seeds: np.ndarray) -> np.ndarray:
    """Per-vertex uint64 of the batch roots allowed to expand through it.

    Root ``r0 + j`` may pass through interiors ranked strictly below it,
    i.e. vertex ``v`` expands bit ``j`` iff ``rank_of[v] > r0 + j`` —
    a prefix of the lanes, so the mask is ``(1 << shift) - 1`` with
    ``shift = clip(rank_of - r0, 0, 64)``. Each root additionally
    expands its own lane (the BFS origin is never an interior).
    """
    shift = np.clip(rank_of - r0, 0, BATCH_BITS)
    low = ((np.uint64(1) << np.minimum(shift, BATCH_BITS - 1)
            .astype(np.uint64)) - np.uint64(1))
    mask = np.where(shift >= BATCH_BITS, _ALL_BITS, low)
    mask[roots] |= seeds
    return mask


def _sound_batch(indptr: np.ndarray, indices: np.ndarray,
                 degrees: np.ndarray, order: np.ndarray,
                 rank_of: np.ndarray, r0: int, k: int, *,
                 with_parents: bool = False,
                 budget: Optional[TimeBudget] = None) -> Dict[str, np.ndarray]:
    """Labels contributed by the rank batch ``[r0, r0 + k)``.

    Returns level-ordered (not yet globally sorted) entry arrays;
    :func:`build_sound_labels` concatenates batches and sorts once.
    """
    roots = np.asarray(order[r0:r0 + k], dtype=np.int64)
    seeds = np.uint64(1) << np.arange(k, dtype=np.uint64)
    expand_mask = _rank_expand_mask(rank_of, r0, roots, seeds)
    vertices: List[np.ndarray] = []
    ranks: List[np.ndarray] = []
    dists: List[np.ndarray] = []
    parent_counts: List[np.ndarray] = []
    parent_flat: List[np.ndarray] = []
    csr = (indptr, indices, degrees)
    for depth, lv, lm, pedges in _lockstep_sweep(
            csr, csr, roots, expand_mask,
            collect_parents=with_parents, budget=budget):
        erows, ecols = _expand_bits(lm)
        vertices.append(lv[erows])
        ranks.append(r0 + ecols.astype(np.int64))
        dists.append(np.full(len(erows), depth, dtype=np.int32))
        if with_parents:
            entry_keys = erows * BATCH_BITS + ecols
            pslots, ptargets, pbits = pedges
            prow, pcol = _expand_bits(pbits)
            pkeys = pslots[prow] * BATCH_BITS + pcol
            # Stable sort groups parents per (vertex, rank) entry while
            # preserving CSR neighbour order inside each group.
            grouping = np.argsort(pkeys, kind="stable")
            slot_of_entry = np.searchsorted(entry_keys, pkeys[grouping])
            parent_counts.append(np.bincount(
                slot_of_entry, minlength=len(entry_keys)
            ).astype(np.int64))
            parent_flat.append(ptargets[prow[grouping]])
    out = {
        "vertices": _concat(vertices, np.int64),
        "ranks": _concat(ranks, np.int64),
        "dists": _concat(dists, np.int32),
    }
    if with_parents:
        out["parent_counts"] = _concat(parent_counts, np.int64)
        out["parents"] = _concat(parent_flat, np.int64)
    return out


def _concat(chunks: List[np.ndarray], dtype) -> np.ndarray:
    if not chunks:
        return np.empty(0, dtype=dtype)
    return np.concatenate(chunks).astype(dtype, copy=False)


_POOL_STATE: Dict[str, np.ndarray] = {}


def _init_pool_worker(indptr, indices, degrees, order, rank_of,
                      with_parents) -> None:
    # A forked worker inherits the host's Python-level SIGTERM handler,
    # which only runs between bytecodes: `Pool.terminate()`'s SIGTERM
    # can then land just before the worker blocks on its task queue
    # and be lost, hanging the pool's join. Die on the signal instead.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _POOL_STATE.update(indptr=indptr, indices=indices, degrees=degrees,
                       order=order, rank_of=rank_of,
                       with_parents=with_parents)


def _pool_batch(task: Tuple[int, int]) -> Dict[str, np.ndarray]:
    r0, k = task
    return _sound_batch(_POOL_STATE["indptr"], _POOL_STATE["indices"],
                        _POOL_STATE["degrees"], _POOL_STATE["order"],
                        _POOL_STATE["rank_of"], r0, k,
                        with_parents=_POOL_STATE["with_parents"])


def _permute_segments(counts: np.ndarray, flat: np.ndarray,
                      perm: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Reorder variable-length segments of ``flat`` by ``perm``."""
    offsets = np.concatenate((np.zeros(1, dtype=np.int64),
                              np.cumsum(counts, dtype=np.int64)))
    new_counts = counts[perm]
    total = int(new_counts.sum())
    if total == 0:
        return new_counts, np.empty(0, dtype=flat.dtype)
    starts = offsets[perm]
    shifted = np.concatenate((np.zeros(1, dtype=np.int64),
                              np.cumsum(new_counts)[:-1]))
    pos = (np.arange(total, dtype=np.int64)
           - np.repeat(shifted, new_counts)
           + np.repeat(starts, new_counts))
    return new_counts, flat[pos]


def build_sound_labels(graph, order: np.ndarray, *,
                       jobs: Optional[int] = None,
                       budget: Optional[TimeBudget] = None,
                       with_parents: bool = False
                       ) -> Dict[str, np.ndarray]:
    """Sound pruned-path labels for every vertex, 64 roots per pass.

    Returns flat CSR arrays ``{"label_offsets", "label_ranks",
    "label_dists"}`` sorted by ``(vertex, rank)`` — plus
    ``{"parent_offsets", "parents"}`` when ``with_parents`` — the exact
    layout :meth:`LabelArrays.from_flat` and the packed store consume.

    The sound rule makes every root's label test independent of all
    other labels, so rank batches are embarrassingly parallel:
    ``jobs > 1`` fans batches out over a ``multiprocessing`` pool (the
    graph ships once per worker via the pool initializer). The budget
    is enforced per BFS level serially and between batches in pool
    mode.
    """
    n = graph.num_vertices
    indptr, indices = graph.indptr, graph.indices
    degrees = np.diff(indptr).astype(np.int64)
    rank_of = np.empty(n, dtype=np.int64)
    rank_of[order] = np.arange(n)
    tasks = [(r0, min(BATCH_BITS, n - r0))
             for r0 in range(0, n, BATCH_BITS)]
    registry = get_registry()
    roots_counter = registry.counter(
        "build_roots_processed_total",
        help="Landmark roots swept by the construction kernels.")
    batch_seconds = registry.histogram(
        "build_root_batch_seconds",
        help="Wall time of one 64-root bit-parallel batch.")
    effective_jobs = 1 if jobs is None else max(1, int(jobs))
    results: List[Dict[str, np.ndarray]] = []
    with span("build.root_bfs_loop", roots=n, jobs=effective_jobs,
              batches=len(tasks)):
        if effective_jobs > 1 and len(tasks) > 1:
            ctx = multiprocessing.get_context()
            with ctx.Pool(
                    processes=min(effective_jobs, len(tasks)),
                    initializer=_init_pool_worker,
                    initargs=(indptr, indices, degrees, order, rank_of,
                              with_parents)) as pool:
                for (r0, k), out in zip(
                        tasks, pool.imap(_pool_batch, tasks)):
                    if budget is not None:
                        budget.check()
                    roots_counter.inc(k)
                    results.append(out)
        else:
            for r0, k in tasks:
                with Stopwatch() as sw:
                    results.append(_sound_batch(
                        indptr, indices, degrees, order, rank_of, r0, k,
                        with_parents=with_parents, budget=budget))
                batch_seconds.observe(sw.elapsed)
                roots_counter.inc(k)
    vertices = _concat([r["vertices"] for r in results], np.int64)
    ranks = _concat([r["ranks"] for r in results], np.int64)
    dists = _concat([r["dists"] for r in results], np.int32)
    perm = np.lexsort((ranks, vertices))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(vertices, minlength=n), out=offsets[1:])
    out = {
        "label_offsets": offsets,
        "label_ranks": ranks[perm],
        "label_dists": dists[perm],
    }
    if with_parents:
        counts = _concat([r["parent_counts"] for r in results], np.int64)
        flat = _concat([r["parents"] for r in results], np.int64)
        new_counts, parents = _permute_segments(counts, flat, perm)
        parent_offsets = np.zeros(len(new_counts) + 1, dtype=np.int64)
        np.cumsum(new_counts, out=parent_offsets[1:])
        out["parent_offsets"] = parent_offsets
        out["parents"] = parents.astype(np.int32)
    return out


# ----------------------------------------------------------------------
# QbS labelling batches (landmark-avoiding restriction)
# ----------------------------------------------------------------------

def qbs_batch_levels(push: Csr, pull: Csr, roots: np.ndarray,
                     is_landmark: np.ndarray, *,
                     max_depth: Optional[int] = None,
                     max_depth_error: Optional[str] = None):
    """Algorithm 2 BFS levels for ≤64 landmark roots at once.

    The allowed-interior set is ``V \\ R`` (every shortest path counted
    by a label must avoid other landmarks), so a vertex labelled at
    depth ``d`` by root ``j`` is exactly one Algorithm 2 would place in
    ``Q_L``; labelled vertices that are themselves landmarks are the
    meta-graph edge discoveries. Yields ``(depth, vertices, bits)``
    levels starting at depth 0 (the roots themselves — callers skip it
    for labels and meta edges alike). The sweep follows the ``push``
    CSR, with ``pull`` its transpose (see :func:`_spread`).
    """
    roots = np.asarray(roots, dtype=np.int64)
    seeds = np.uint64(1) << np.arange(len(roots), dtype=np.uint64)
    expand_mask = np.where(is_landmark, _ZERO, _ALL_BITS)
    expand_mask[roots] |= seeds
    for depth, lv, lm, _ in _lockstep_sweep(
            push, pull, roots, expand_mask,
            max_depth=max_depth, max_depth_error=max_depth_error):
        yield depth, lv, lm
