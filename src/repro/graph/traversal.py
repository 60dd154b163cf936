"""Vectorized breadth-first-search kernels over CSR graphs.

These kernels are the performance backbone of the whole reproduction:
labelling construction (Algorithm 2), the guided bidirectional search
(Algorithm 4) and every baseline are built out of the frontier
expansion primitive below. All of them operate on raw ``indptr`` /
``indices`` arrays so they can be reused on sparsified graphs without
re-wrapping.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional, Set, Tuple

import numpy as np

from .._util import UNREACHED
from .csr import Graph

__all__ = [
    "expand_frontier",
    "descend_levels",
    "bfs_distances",
    "bfs_distances_bounded",
    "bfs_distances_offsets",
    "multi_source_bfs",
    "eccentricity",
    "connected_components",
]


def expand_frontier(indptr: np.ndarray, indices: np.ndarray,
                    frontier: np.ndarray) -> np.ndarray:
    """Concatenated neighbours of every vertex in ``frontier``.

    Duplicates are *not* removed — callers filter with their own
    visited masks, which is cheaper than a sort-based unique here.
    """
    if len(frontier) == 0:
        return np.empty(0, dtype=indices.dtype)
    starts = indptr[frontier]
    ends = indptr[frontier + 1]
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype)
    # Classic vectorized multi-slice gather: positions are a single
    # arange shifted per-slice so indices[positions] pulls every row.
    shifts = np.repeat(starts - np.concatenate(([0], counts.cumsum()[:-1])),
                       counts)
    positions = np.arange(total, dtype=np.int64) + shifts
    return indices[positions]


def descend_levels(graph, level: np.ndarray, root: int, seeds,
                   arcs: Set[Tuple[int, int]], *, forward: bool) -> None:
    """Add to ``arcs`` every arc on a shortest path joining ``root``
    and ``seeds``.

    ``level[x]`` is the exact BFS level of ``x`` counted from ``root``
    — along the arcs when ``forward``, against them otherwise — and
    any other value where ``x`` lies on no such path (a depth array's
    ``UNREACHED``, a label column's ``NO_LABEL``). Every neighbour one
    level closer to the root is a BFS parent, so the walk collects
    whole levels at a time and visits a shared sub-path once. Level-1
    vertices link to ``root`` directly; the root itself needs neither
    a level nor a row in ``graph`` (a landmark has no label and is
    absent from the sparsified graph).

    ``graph`` is any dual-CSR view (``Graph`` or ``DiGraph``); arcs
    come out oriented ``(tail, head)``.
    """
    if forward:
        indptr, indices = graph.in_indptr, graph.in_indices
    else:
        indptr, indices = graph.out_indptr, graph.out_indices
    buckets: Dict[int, Set[int]] = defaultdict(set)
    for x in seeds:
        buckets[int(level[x])].add(int(x))
    for d in range(max(buckets, default=0), 0, -1):
        for x in buckets[d]:
            if d == 1:
                arcs.add((root, x) if forward else (x, root))
                continue
            for y in indices[indptr[x]:indptr[x + 1]].tolist():
                if level[y] == d - 1:
                    arcs.add((y, x) if forward else (x, y))
                    buckets[d - 1].add(y)


def bfs_distances(graph, source: int, out: Optional[np.ndarray] = None,
                  *, forward: bool = True) -> np.ndarray:
    """Exact BFS distances from ``source`` (``UNREACHED`` where cut off)."""
    return bfs_distances_bounded(graph, source, max_depth=None, out=out,
                                 forward=forward)


def bfs_distances_bounded(graph, source: int,
                          max_depth: Optional[int],
                          out: Optional[np.ndarray] = None,
                          *, forward: bool = True) -> np.ndarray:
    """BFS distances from ``source`` up to ``max_depth`` levels.

    Parameters
    ----------
    graph:
        Any dual-CSR view (``Graph`` or ``DiGraph``).
    source:
        Start vertex.
    max_depth:
        Stop after this many levels (``None`` = traverse everything).
    out:
        Optional preallocated int32 array to fill (reused across calls
        by hot loops); it is reset to ``UNREACHED`` first.
    forward:
        Follow the arcs (``d(source -> x)``) or run against them
        (``d(x -> source)``); the same thing on an undirected graph.
    """
    graph._check_vertex(source)
    n = graph.num_vertices
    if out is None:
        dist = np.full(n, UNREACHED, dtype=np.int32)
    else:
        dist = out
        dist.fill(UNREACHED)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int32)
    depth = 0
    if forward:
        indptr, indices = graph.out_indptr, graph.out_indices
    else:
        indptr, indices = graph.in_indptr, graph.in_indices
    while len(frontier):
        if max_depth is not None and depth >= max_depth:
            break
        depth += 1
        neighbors = expand_frontier(indptr, indices, frontier)
        fresh = neighbors[dist[neighbors] == UNREACHED]
        if len(fresh) == 0:
            break
        dist[fresh] = depth  # duplicate writes of the same value are fine
        frontier = np.unique(fresh)
    return dist


def bfs_distances_offsets(graph: Graph, sources, offsets,
                          out: Optional[np.ndarray] = None) -> np.ndarray:
    """BFS distances from sources that start at integer depth offsets.

    ``dist[x] = min_i (offsets[i] + d(sources[i], x))`` — the unit-edge
    special case of Dijkstra with non-uniform source potentials,
    processed Dial-style (one bucket per depth, so the cost stays one
    ordinary BFS plus the offset range, never a heap). The sharded
    query assembly uses this to turn "distance from every boundary
    vertex" overlays into exact per-shard distance fields with a
    single sweep instead of one BFS per boundary vertex.

    ``offsets`` must be non-negative; a source may be rediscovered
    cheaper through another source, in which case its own offset is
    ignored. Returns ``UNREACHED`` where no source reaches.
    """
    n = graph.num_vertices
    source_array = np.asarray(list(sources), dtype=np.int64)
    offset_array = np.asarray(list(offsets), dtype=np.int64)
    if source_array.shape != offset_array.shape or source_array.ndim != 1:
        raise ValueError("sources and offsets must be equal-length 1-D")
    if len(offset_array) and offset_array.min() < 0:
        raise ValueError("offsets must be non-negative")
    if len(source_array) and (source_array.min() < 0
                              or source_array.max() >= n):
        graph._check_vertex(int(source_array.max())
                            if source_array.max() >= n
                            else int(source_array.min()))
    if out is None:
        dist = np.full(n, UNREACHED, dtype=np.int32)
    else:
        dist = out
        dist.fill(UNREACHED)
    if len(source_array) == 0:
        return dist
    order = np.argsort(offset_array, kind="stable")
    source_array = source_array[order]
    offset_array = offset_array[order]
    cursor = 0
    depth = int(offset_array[0])
    frontier = np.empty(0, dtype=np.int32)
    indptr, indices = graph.indptr, graph.indices
    while True:
        # Admit sources whose offset equals the current depth, unless
        # some earlier source already reached them at least as cheaply.
        while cursor < len(source_array) \
                and offset_array[cursor] == depth:
            s = int(source_array[cursor])
            cursor += 1
            if dist[s] == UNREACHED:
                dist[s] = depth
                frontier = np.append(frontier,
                                     np.int32(s))
        if len(frontier) == 0:
            if cursor >= len(source_array):
                break
            depth = int(offset_array[cursor])
            continue
        neighbors = expand_frontier(indptr, indices,
                                    frontier.astype(np.int32))
        fresh = neighbors[dist[neighbors] == UNREACHED]
        depth += 1
        if len(fresh):
            dist[fresh] = depth
            frontier = np.unique(fresh)
        else:
            frontier = np.empty(0, dtype=np.int32)
    return dist


def multi_source_bfs(graph: Graph, sources) -> np.ndarray:
    """Distances to the nearest vertex of ``sources`` (landmark cover)."""
    n = graph.num_vertices
    dist = np.full(n, UNREACHED, dtype=np.int32)
    frontier = np.unique(np.asarray(list(sources), dtype=np.int32))
    if len(frontier) and (frontier.min() < 0 or frontier.max() >= n):
        graph._check_vertex(int(frontier.max()))
    dist[frontier] = 0
    depth = 0
    indptr, indices = graph.indptr, graph.indices
    while len(frontier):
        depth += 1
        neighbors = expand_frontier(indptr, indices, frontier)
        fresh = neighbors[dist[neighbors] == UNREACHED]
        if len(fresh) == 0:
            break
        dist[fresh] = depth
        frontier = np.unique(fresh)
    return dist


def eccentricity(graph: Graph, source: int) -> int:
    """Largest finite BFS distance from ``source``."""
    dist = bfs_distances(graph, source)
    reached = dist[dist != UNREACHED]
    return int(reached.max()) if len(reached) else 0


def connected_components(graph: Graph) -> Tuple[int, np.ndarray]:
    """Connected components via repeated BFS.

    Returns ``(count, labels)`` where ``labels[v]`` is a component id in
    ``[0, count)``. Deterministic: components are numbered by their
    smallest vertex.
    """
    n = graph.num_vertices
    labels = np.full(n, UNREACHED, dtype=np.int32)
    count = 0
    indptr, indices = graph.indptr, graph.indices
    for start in range(n):
        if labels[start] != UNREACHED:
            continue
        labels[start] = count
        frontier = np.array([start], dtype=np.int32)
        while len(frontier):
            neighbors = expand_frontier(indptr, indices, frontier)
            fresh = neighbors[labels[neighbors] == UNREACHED]
            if len(fresh) == 0:
                break
            labels[fresh] = count
            frontier = np.unique(fresh)
        count += 1
    return count, labels
