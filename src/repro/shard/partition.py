"""Graph partitioning: carve a CSR graph into vertex shards.

The sharded index scales the *offline* axis of the paper: labelling
is built per shard on a fraction of the graph, so construction
parallelizes across processes and no single worker ever holds labels
for the whole network. Everything downstream (the boundary overlay,
the cross-shard query assembly) keys off the :class:`Partition`
produced here, so the partitioner is deliberately self-contained and
deterministic.

Two methods:

``bfs``
    Seeded BFS growth, then label-propagation refinement. Seeds are
    chosen farthest-first from the top-degree vertex (landing in
    distinct regions, and in distinct components when the graph is
    disconnected); regions grow level-synchronously with the smallest
    region expanding first, which keeps sizes balanced without a hard
    capacity wall. A few label-propagation sweeps then move vertices
    to their neighbour-majority shard when that strictly reduces the
    edge cut and respects the balance cap. This is the method that
    makes community-structured and mesh-like graphs (road networks,
    SBMs, rings) shard with small boundaries.

``hash``
    Degree-ordered round-robin: vertices sorted by descending degree
    are dealt out ``0, 1, .., k-1, 0, ..``. No locality at all — the
    worst-case boundary — but perfectly balanced in both vertex count
    and degree mass, and independent of graph structure. The fallback
    when BFS growth degenerates (e.g. expander-like graphs where any
    contiguous partition is as bad as a random one).

Partition quality is a first-class output: :meth:`Partition.
quality_report` gives edge cut, balance and boundary fraction, which
is how an operator decides whether a graph is worth sharding at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .._util import UNREACHED, check_random_state
from ..errors import GraphValidationError, ReproError
from ..graph.csr import Graph
from ..graph.io import read_tagged_npz, write_tagged_npz
from ..graph.traversal import expand_frontier, multi_source_bfs

__all__ = ["Partition", "partition_graph", "save_partition",
           "load_partition", "PARTITION_METHODS"]

#: Supported partitioning methods.
PARTITION_METHODS = ("bfs", "hash")

#: A shard may grow to this multiple of the ideal size ``n / k``
#: before label propagation refuses to move more vertices into it.
_BALANCE_SLACK = 1.25

#: Label-propagation passes over a BFS-grown assignment, at most (a
#: pass that moves nothing ends refinement early).
_REFINE_SWEEPS = 4


@dataclass(frozen=True, eq=False)
class Partition:
    """A vertex partition of one graph.

    ``assignment[v]`` is the shard id of vertex ``v`` (``0 <= id <
    num_shards``). Instances are immutable; derived quantities (shard
    vertex lists, boundary sets, the quality report) are computed on
    demand from the assignment and the graph they are asked about.
    """

    assignment: np.ndarray
    num_shards: int
    method: str
    seed: Optional[int] = None
    _cache: dict = field(default_factory=dict, repr=False, hash=False,
                         compare=False)

    def __post_init__(self) -> None:
        assignment = np.asarray(self.assignment, dtype=np.int32)
        assignment.setflags(write=False)
        object.__setattr__(self, "assignment", assignment)
        if self.num_shards < 1:
            raise GraphValidationError("num_shards must be >= 1")
        if len(assignment) and (assignment.min() < 0
                                or assignment.max() >= self.num_shards):
            raise GraphValidationError(
                "shard assignment out of range"
            )

    # -- views ------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.assignment)

    def shard_vertices(self, shard: int) -> np.ndarray:
        """Global vertex ids of ``shard``, ascending."""
        if not 0 <= shard < self.num_shards:
            raise ReproError(
                f"shard {shard} out of range for {self.num_shards}"
            )
        return np.nonzero(self.assignment == shard)[0].astype(np.int32)

    def shard_sizes(self) -> np.ndarray:
        """Vertex count per shard."""
        return np.bincount(self.assignment,
                           minlength=self.num_shards).astype(np.int64)

    def _cut_info(self, graph: Graph):
        """``(boundary mask, edge cut)`` from one scan over the arcs.

        Cached per graph *object* — the entry keeps a reference to the
        graph it was computed for and is compared by identity, so a
        later graph reusing a freed object's address can never be
        served another graph's boundary data.
        """
        self._check(graph)
        cached = self._cache.get("cut")
        if cached is not None and cached[0] is graph:
            return cached[1], cached[2]
        src = np.repeat(np.arange(graph.num_vertices, dtype=np.int32),
                        np.diff(graph.indptr))
        cross = self.assignment[src] != self.assignment[graph.indices]
        mask = np.zeros(graph.num_vertices, dtype=bool)
        mask[src[cross]] = True
        cut = int(cross.sum()) // 2
        self._cache["cut"] = (graph, mask, cut)
        return mask, cut

    def boundary_mask(self, graph: Graph) -> np.ndarray:
        """Boolean mask of vertices with a neighbour in another shard."""
        return self._cut_info(graph)[0]

    def boundary_vertices(self, graph: Graph) -> np.ndarray:
        """Global ids of all boundary vertices, ascending."""
        return np.nonzero(self.boundary_mask(graph))[0].astype(np.int32)

    def edge_cut(self, graph: Graph) -> int:
        """Number of undirected edges crossing between shards."""
        return self._cut_info(graph)[1]

    def balance(self) -> float:
        """Largest shard size over the ideal ``n / k`` (1.0 = perfect)."""
        n = self.num_vertices
        if n == 0:
            return 1.0
        return float(self.shard_sizes().max() * self.num_shards / n)

    def quality_report(self, graph: Graph) -> Dict[str, object]:
        """Edge cut, balance and boundary statistics in one dict."""
        self._check(graph)
        cut = self.edge_cut(graph)
        boundary = int(self.boundary_mask(graph).sum())
        n = max(1, graph.num_vertices)
        m = max(1, graph.num_edges)
        return {
            "method": self.method,
            "num_shards": self.num_shards,
            "shard_sizes": self.shard_sizes().tolist(),
            "balance": self.balance(),
            "edge_cut": cut,
            "cut_fraction": cut / m,
            "boundary_vertices": boundary,
            "boundary_fraction": boundary / n,
        }

    def _check(self, graph: Graph) -> None:
        if graph.num_vertices != self.num_vertices:
            raise GraphValidationError(
                f"partition covers {self.num_vertices} vertices, "
                f"graph has {graph.num_vertices}"
            )


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------

def partition_graph(graph: Graph, num_shards: int, *,
                    method: str = "bfs",
                    seed: Optional[int] = 0) -> Partition:
    """Partition ``graph`` into ``num_shards`` vertex shards.

    ``num_shards`` is clamped to the vertex count (every shard is
    non-empty whenever the graph has at least that many vertices).
    ``seed`` feeds the stochastic tie-breaking of BFS growth, which at
    most ``_REFINE_SWEEPS`` label-propagation passes then refine.
    Deterministic for fixed inputs.
    """
    if num_shards < 1:
        raise ReproError("num_shards must be >= 1")
    if method not in PARTITION_METHODS:
        raise ReproError(
            f"unknown partition method {method!r}; "
            f"expected one of {PARTITION_METHODS}"
        )
    n = graph.num_vertices
    k = max(1, min(num_shards, n)) if n else 1
    if k == 1:
        assignment = np.zeros(n, dtype=np.int32)
    elif method == "hash":
        assignment = _hash_assignment(graph, k)
    elif _is_forest(graph):
        # Trees admit near-perfect partitions (a subtree costs one cut
        # edge) that ball-growing can never find on hub-heavy trees —
        # any compact ball there has a perimeter proportional to its
        # size. Pack whole subtrees instead.
        assignment = _forest_assignment(graph, k)
        _rebalance(graph, assignment, k)
    else:
        assignment = _bfs_assignment(graph, k, seed)
        for _ in range(_REFINE_SWEEPS):
            if not _refine_sweep(graph, assignment, k):
                break
        _rebalance(graph, assignment, k)
    return Partition(assignment=assignment, num_shards=k,
                     method=method, seed=seed)


def _is_forest(graph: Graph) -> bool:
    """True iff the graph is acyclic (``m == n - components``)."""
    from ..graph.traversal import connected_components

    if graph.num_edges >= graph.num_vertices:
        return False
    count, _ = connected_components(graph)
    return graph.num_edges == graph.num_vertices - count


def _forest_assignment(graph: Graph, k: int) -> np.ndarray:
    """Subtree packing for forests: near-minimal cut at balance ~1.

    Each component is rooted at its highest-degree vertex and walked
    in reverse BFS order, carving off a region whenever the live
    subtree under a vertex reaches the region target (a quarter of the
    ideal shard size, so packing has granularity). A carved region is
    the vertex *plus* its live child subtrees — including the vertex
    keeps hub-to-leaf edges internal, so each region costs one cut
    edge (its upward edge). The regions are then bin-packed
    largest-first into k shards; shards may hold several disconnected
    subtrees, which the query assembly supports by design.
    """
    n = graph.num_vertices
    ideal = max(1, n // k)
    # Half-shard regions: fine enough for the packing to balance,
    # coarse enough that small forests do not dissolve into
    # single-vertex regions (which would cut every edge).
    target = max(2, ideal // 2) if n > k else 1
    indptr, indices = graph.indptr, graph.indices
    parent = np.full(n, -2, dtype=np.int64)  # -2 unvisited, -1 root
    order: List[int] = []
    for root in np.argsort(-graph.degree(), kind="stable"):
        root = int(root)
        if parent[root] != -2:
            continue
        parent[root] = -1
        frontier = np.array([root], dtype=np.int32)
        order.append(root)
        while len(frontier):
            neighbors = expand_frontier(indptr, indices, frontier)
            fresh = np.unique(neighbors[parent[neighbors] == -2])
            if len(fresh) == 0:
                break
            # In a forest every fresh vertex has exactly one visited
            # neighbour; recover it by scanning the fresh rows.
            for w in fresh.tolist():
                row = indices[indptr[w]:indptr[w + 1]]
                parents = row[parent[row] != -2]
                parent[w] = int(parents[0])
            order.extend(int(w) for w in fresh)
            frontier = fresh.astype(np.int32)
    children: List[List[int]] = [[] for _ in range(n)]
    for v in range(n):
        if parent[v] >= 0:
            children[int(parent[v])].append(v)

    region = np.full(n, -1, dtype=np.int64)
    region_sizes: List[int] = []
    sizes = np.ones(n, dtype=np.int64)

    def _carve(root_vertices: List[int]) -> None:
        """Assign a new region to the live subtrees under these roots."""
        region_id = len(region_sizes)
        members = 0
        stack = list(root_vertices)
        while stack:
            x = stack.pop()
            region[x] = region_id
            members += 1
            stack.extend(w for w in children[x] if region[w] < 0)
        region_sizes.append(members)

    for v in reversed(order):
        live = [w for w in children[v] if region[w] < 0]
        total = 1 + sum(int(sizes[w]) for w in live)
        if total < target:
            sizes[v] = total
            continue
        if total <= ideal:
            _carve([v, *live])
            continue
        # Oversized: carve child groups (whole subtrees) without v.
        acc = 0
        group: List[int] = []
        for w in live:
            group.append(w)
            acc += int(sizes[w])
            if acc >= target:
                _carve(group)
                group = []
                acc = 0
        sizes[v] = 1 + acc
        if sizes[v] >= target:
            _carve([v, *group])
    for v in range(n):
        if parent[v] == -1 and region[v] < 0:
            _carve([v])  # residual region under this root
    for v in order:  # safety: nothing should remain, but never crash
        if region[v] < 0:  # pragma: no cover
            region[v] = region[int(parent[v])]

    # Largest-first bin packing of regions into k shards.
    assignment = np.empty(n, dtype=np.int32)
    shard_load = np.zeros(k, dtype=np.int64)
    region_shard = np.empty(len(region_sizes), dtype=np.int32)
    for region_id in sorted(range(len(region_sizes)),
                            key=lambda r: (-region_sizes[r], r)):
        shard = int(np.argmin(shard_load))
        region_shard[region_id] = shard
        shard_load[shard] += region_sizes[region_id]
    assignment[:] = region_shard[region]
    return assignment


def _hash_assignment(graph: Graph, k: int) -> np.ndarray:
    """Degree-ordered round-robin (deterministic, degree-balanced)."""
    degrees = graph.degree()
    order = np.argsort(-degrees, kind="stable")
    assignment = np.empty(graph.num_vertices, dtype=np.int32)
    assignment[order] = np.arange(graph.num_vertices,
                                  dtype=np.int32) % k
    return assignment


def _bfs_assignment(graph: Graph, k: int, seed) -> np.ndarray:
    """Seeded BFS growth: k regions expand level-synchronously.

    A region whose frontier dies while it is still under the ideal
    size is *reseeded* at the highest-degree unassigned vertex: it
    carves a fresh compact island instead of letting whichever region
    still has a live frontier hoover the rest of the graph. (Hub
    graphs encircle eccentric seeds almost immediately — without
    reseeding one shard ends up with nearly everything, and repairing
    that after the fact costs cut quality.) Shards may therefore be
    internally disconnected; the query assembly never assumes
    otherwise.
    """
    n = graph.num_vertices
    seeds = _spread_seeds(graph, k, seed)
    assignment = np.full(n, -1, dtype=np.int32)
    frontiers: List[np.ndarray] = []
    for shard, s in enumerate(seeds):
        assignment[s] = shard
        frontiers.append(np.array([s], dtype=np.int32))
    sizes = np.ones(k, dtype=np.int64)
    indptr, indices = graph.indptr, graph.indices
    remaining = n - k
    ideal = max(1, n // k)
    cap = max(1, int(np.ceil(n / k * _BALANCE_SLACK)))
    # Degree-descending scan pointer for reseeding (amortized O(n)).
    reseed_order = np.argsort(-graph.degree(), kind="stable")
    reseed_cursor = 0
    while remaining > 0:
        # Smallest region expands first each round, which is all the
        # balancing BFS growth needs: a region that lags claims its
        # next level before the bigger ones flood past it. A region at
        # the balance cap sits out (keeping its frontier) unless a
        # whole round stalls, in which case the cap yields — every
        # reachable vertex must land somewhere.
        claimed = 0
        capped = False
        for shard in np.argsort(sizes, kind="stable"):
            frontier = frontiers[shard]
            if len(frontier) == 0:
                if sizes[shard] < ideal and remaining > claimed:
                    while reseed_cursor < n and assignment[
                            reseed_order[reseed_cursor]] >= 0:
                        reseed_cursor += 1
                    if reseed_cursor >= n:
                        continue
                    reseed = int(reseed_order[reseed_cursor])
                    assignment[reseed] = shard
                    sizes[shard] += 1
                    remaining -= 1
                    claimed += 1
                    frontiers[shard] = np.array([reseed],
                                                dtype=np.int32)
                continue
            if sizes[shard] >= cap:
                capped = True
                continue
            neighbors = expand_frontier(indptr, indices, frontier)
            fresh = np.unique(neighbors[assignment[neighbors] < 0])
            room = int(cap - sizes[shard])
            if len(fresh) > room:
                # Claim only up to the cap: one hub expansion must not
                # blow a region far past its balance budget.
                fresh = fresh[:room]
                capped = True
            if len(fresh):
                assignment[fresh] = shard
                sizes[shard] += len(fresh)
                remaining -= len(fresh)
                claimed += len(fresh)
            frontiers[shard] = fresh.astype(np.int32)
        if claimed == 0:
            if not capped:
                break  # only unreachable components remain
            cap = n  # all live frontiers are capped: let them finish
    if remaining > 0:
        # Components no seed reached: deal whole components to the
        # currently-smallest shards so sizes stay even.
        leftovers = np.nonzero(assignment < 0)[0]
        for component in _components_of(graph, leftovers):
            shard = int(np.argmin(sizes))
            assignment[component] = shard
            sizes[shard] += len(component)
    return assignment


def _spread_seeds(graph: Graph, k: int, seed) -> List[int]:
    """Farthest-first seed selection from the top-degree vertex.

    Unreached vertices (other components) count as infinitely far, so
    seeds spill into new components before crowding one. Ties break by
    degree then id, with the rng only breaking exact ties among the
    maximal candidates, keeping selection reproducible.
    """
    n = graph.num_vertices
    degrees = graph.degree()
    rng = check_random_state(seed)
    first = int(np.argmax(degrees))
    seeds = [first]
    while len(seeds) < k:
        dist = multi_source_bfs(graph, seeds)
        # Prefer unreached vertices, then maximal distance, then degree.
        score = dist.astype(np.float64)
        score[dist == UNREACHED] = np.inf
        best = np.max(score)
        candidates = np.nonzero(score == best)[0]
        candidates = candidates[~np.isin(candidates, seeds)]
        if len(candidates) == 0:  # pragma: no cover - k <= n guards this
            candidates = np.nonzero(~np.isin(np.arange(n), seeds))[0]
        top_degree = degrees[candidates].max()
        candidates = candidates[degrees[candidates] == top_degree]
        seeds.append(int(rng.choice(candidates)))
    return seeds


def _components_of(graph: Graph, vertices: np.ndarray):
    """Connected components restricted to an unassigned vertex set."""
    pending = set(int(v) for v in vertices)
    indptr, indices = graph.indptr, graph.indices
    while pending:
        start = min(pending)
        pending.discard(start)
        component = [start]
        frontier = np.array([start], dtype=np.int32)
        while len(frontier):
            neighbors = expand_frontier(indptr, indices, frontier)
            fresh = [int(x) for x in np.unique(neighbors)
                     if int(x) in pending]
            for x in fresh:
                pending.discard(x)
            component.extend(fresh)
            frontier = np.asarray(fresh, dtype=np.int32)
        yield np.asarray(component, dtype=np.int64)


def _refine_sweep(graph: Graph, assignment: np.ndarray, k: int) -> bool:
    """One label-propagation pass; returns True if anything moved.

    A vertex moves to the shard holding the plurality of its
    neighbours when that strictly reduces its cut degree, the target
    is under the balance cap, and its current shard would not empty.
    """
    n = graph.num_vertices
    sizes = np.bincount(assignment, minlength=k).astype(np.int64)
    cap = max(1, int(np.ceil(n / k * _BALANCE_SLACK)))
    moved = False
    indptr, indices = graph.indptr, graph.indices
    for v in range(n):
        row = indices[indptr[v]:indptr[v + 1]]
        if len(row) == 0:
            continue
        current = int(assignment[v])
        if sizes[current] <= 1:
            continue
        counts = np.bincount(assignment[row], minlength=k)
        target = int(np.argmax(counts))
        if target == current or counts[target] <= counts[current]:
            continue
        if sizes[target] >= cap:
            continue
        assignment[v] = target
        sizes[current] -= 1
        sizes[target] += 1
        moved = True
    return moved


def _rebalance(graph: Graph, assignment: np.ndarray, k: int) -> None:
    """Move *connected chunks* out of over-cap shards until balanced.

    BFS growth can strand a seed: a region encircled early stops
    growing and whoever holds the live frontier hoovers the rest.
    Moving vertices one at a time would repair the sizes while
    shredding the cut (every stolen vertex leaves its neighbours
    behind), so the repair unit here is a chunk grown by BFS *inside*
    the oversized shard from its contact points with the target —
    connected, so the only new cut is the chunk's own perimeter.
    """
    n = graph.num_vertices
    if n == 0 or k <= 1:
        return
    cap = max(1, int(np.ceil(n / k * _BALANCE_SLACK)))
    ideal = max(1, n // k)
    indptr, indices = graph.indptr, graph.indices
    src = np.repeat(np.arange(n, dtype=np.int32), np.diff(indptr))
    for _ in range(8 * k):
        sizes = np.bincount(assignment, minlength=k).astype(np.int64)
        over = int(np.argmax(sizes))
        if sizes[over] <= cap:
            return
        contact = (assignment[src] == over) \
            & (assignment[indices] != over)
        contact_src = src[contact]
        contact_shard = assignment[indices[contact]]
        if len(contact_src) == 0:
            return  # the whole component is one shard; nothing to do
        adjacent = np.unique(contact_shard)
        # Prefer an underfull neighbour; otherwise cascade through the
        # smallest neighbour that still strictly improves balance.
        underfull = [int(t) for t in adjacent if sizes[t] < ideal]
        if underfull:
            target = min(underfull, key=lambda t: (sizes[t], t))
            need = int(min(sizes[over] - ideal,
                           ideal - sizes[target]))
        else:
            candidates = [int(t) for t in adjacent
                          if sizes[t] + 1 < sizes[over]]
            if not candidates:
                return
            target = min(candidates, key=lambda t: (sizes[t], t))
            need = int((sizes[over] - sizes[target]) // 2)
        if need <= 0:
            return
        seeds = np.unique(contact_src[contact_shard == target])
        chunk = _grow_chunk(graph, assignment, over, seeds, need)
        if len(chunk) == 0:
            return
        assignment[chunk] = target


def _grow_chunk(graph: Graph, assignment: np.ndarray, shard: int,
                seeds: np.ndarray, need: int) -> np.ndarray:
    """Collect up to ``need`` vertices of ``shard`` by BFS from
    ``seeds``, truncating the last level by ascending id."""
    indptr, indices = graph.indptr, graph.indices
    taken = np.zeros(graph.num_vertices, dtype=bool)
    collected: List[int] = []
    frontier = np.unique(np.asarray(seeds, dtype=np.int32))
    taken[frontier] = True
    while len(frontier) and len(collected) < need:
        room = need - len(collected)
        level = np.sort(frontier)[:room]
        collected.extend(int(v) for v in level)
        if len(level) < len(frontier):
            break
        neighbors = expand_frontier(indptr, indices, frontier)
        fresh = neighbors[(assignment[neighbors] == shard)
                          & ~taken[neighbors]]
        frontier = np.unique(fresh).astype(np.int32)
        taken[frontier] = True
    return np.asarray(collected, dtype=np.int64)


# ----------------------------------------------------------------------
# Persistence (partition maps travel separately from built indexes)
# ----------------------------------------------------------------------

_PARTITION_TAG = "repro-partition-v1"


def save_partition(partition: Partition, path) -> None:
    """Write a partition map as a small npz archive."""
    write_tagged_npz(
        path, _PARTITION_TAG,
        assignment=partition.assignment,
        num_shards=np.asarray([partition.num_shards], dtype=np.int64),
        method=np.asarray([partition.method]),
    )


def load_partition(path) -> Partition:
    """Load a partition map written by :func:`save_partition`."""
    assignment, num_shards, method = read_tagged_npz(
        path, _PARTITION_TAG, ("assignment", "num_shards", "method"),
        "partition")
    return Partition(assignment=assignment,
                     num_shards=int(num_shards[0]),
                     method=str(method[0]))
