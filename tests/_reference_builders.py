"""Reference label builders the product kernels are pinned against.

Per-root, per-vertex Python loops — slow and obviously correct. They
used to ship in ``repro.baselines`` behind a ``variant=`` build knob;
only tests ever selected them, so they live here:

* :func:`restricted_distances` — the shared prune primitive, one root
  and a frontier at a time (what the 64-root lockstep sweep computes);
* :func:`restricted_bfs` — PPL's rank-restricted BFS as one call of it;
* :func:`sound_scalar_labels` — the sound label rule, one full BFS plus
  one restricted BFS per root (``ppl`` and, with parents, ``parent-ppl``);
* :func:`paper_algorithm1_labels` — the paper's Algorithm 1 verbatim,
  whose prune rule is unsound (``test_ppl.py`` shows the
  counterexample);
* :func:`index_from_lists` — wrap list-of-lists labels as a queryable
  ``PPLIndex``;
* :func:`label_bfs` — one QbS labelled BFS as a 1-lane run of the
  lockstep kernel (what the 64-lane sweep is compared against);
* :func:`two_queue_labelled_bfs` / :func:`two_queue_scheme` —
  Algorithm 2's ``Q_L``/``Q_N`` walk over one CSR orientation, which
  shares nothing with the lockstep kernel (the directed index's
  builder until the pipeline was written once over a dual-CSR view);
* :func:`resume_pruned_bfs_scalar` — the dynamic insert repair's
  resumed pruned BFS one vertex at a time, which
  ``repro.dynamic.incremental._resume_pruned_bfs`` does a frontier at
  a time;
* :func:`touches_phantom_edge` — the dynamic index's poisoning test
  for one pair, one label merge per leg, which
  ``DynamicIndex._poisoned`` runs as one gather over the phantom
  endpoints' labels.
"""

from collections import deque

import numpy as np

from repro._util import NO_LABEL, UNREACHED
from repro.baselines import PPLIndex
from repro.core.build_kernels import _csr_triple, qbs_batch_levels
from repro.dynamic import MutableLabels
from repro.graph.traversal import bfs_distances, expand_frontier


def degree_order(graph):
    return np.argsort(-graph.degree(), kind="stable").astype(np.int64)


def restricted_distances(indptr, indices, root, may_expand, out=None):
    """BFS distances from ``root`` through allowed interiors only.

    ``dist[u]`` is the length of the shortest ``root``-``u`` path whose
    every *interior* vertex ``w`` satisfies ``may_expand[w]`` (the root
    itself always expands; endpoints are unconstrained), or
    ``UNREACHED``. With ``may_expand = rank_of > r`` this is PPL's
    rank-restricted BFS; with ``may_expand = ~is_landmark`` it is the
    landmark-avoiding reachability of QbS Algorithm 2 — a vertex
    deserves the label ``(root, d)`` exactly when this distance equals
    the unrestricted one.
    """
    n = len(indptr) - 1
    if out is None:
        dist = np.full(n, UNREACHED, dtype=np.int32)
    else:
        dist = out
        dist.fill(UNREACHED)
    dist[root] = 0
    frontier = np.array([root], dtype=np.int32)
    depth = 0
    while len(frontier):
        depth += 1
        neighbors = expand_frontier(indptr, indices, frontier)
        fresh = neighbors[dist[neighbors] == UNREACHED]
        if len(fresh) == 0:
            break
        fresh = np.unique(fresh)
        dist[fresh] = depth
        frontier = fresh[may_expand[fresh]]
    return dist


def restricted_bfs(graph, root, rank_of, root_rank, out=None):
    """BFS distances from ``root`` through lower-ranked interiors only.

    A vertex may be *discovered* regardless of rank, but only vertices
    ranked strictly below ``root_rank`` (a larger rank number) are
    expanded.
    """
    return restricted_distances(graph.indptr, graph.indices, root,
                                rank_of > root_rank, out=out)


def sound_scalar_labels(graph, with_parents=False):
    """``(order, label_ranks, label_dists, label_parents)`` under the
    sound rule: ``u`` takes the label ``(root, d)`` iff its restricted
    distance equals its true distance. ``label_parents`` is ``None``
    unless asked for; parents keep CSR neighbour order."""
    n = graph.num_vertices
    order = degree_order(graph)
    rank_of = np.empty(n, dtype=np.int64)
    rank_of[order] = np.arange(n)
    label_ranks = [[] for _ in range(n)]
    label_dists = [[] for _ in range(n)]
    label_parents = [[] for _ in range(n)] if with_parents else None
    full = np.empty(n, dtype=np.int32)
    restricted = np.empty(n, dtype=np.int32)
    for rank in range(n):
        root = int(order[rank])
        bfs_distances(graph, root, out=full)
        restricted_bfs(graph, root, rank_of, rank, out=restricted)
        labelled = np.nonzero((restricted != -1) & (restricted == full))[0]
        for u in labelled.tolist():
            d = int(full[u])
            label_ranks[u].append(rank)
            label_dists[u].append(d)
            if with_parents:
                label_parents[u].append(tuple(
                    int(w) for w in graph.neighbors(u)
                    if full[w] == d - 1) if d else ())
    return order, label_ranks, label_dists, label_parents


def paper_algorithm1_labels(graph):
    """Algorithm 1 exactly as printed: keep the label when the current
    labels already cover the depth (``covered == d``) but stop
    expanding there."""
    n = graph.num_vertices
    order = degree_order(graph)
    label_ranks = [[] for _ in range(n)]
    label_dists = [[] for _ in range(n)]
    merge = PPLIndex._query_distance_lists
    depth = np.full(n, -1, dtype=np.int32)
    for rank in range(n):
        root = int(order[rank])
        depth.fill(-1)
        depth[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            d = int(depth[u])
            covered = merge(label_ranks[root], label_dists[root],
                            label_ranks[u], label_dists[u])
            if covered < d:
                continue
            label_ranks[u].append(rank)
            label_dists[u].append(d)
            if covered == d and u != root:
                continue
            for v in graph.neighbors(u):
                v = int(v)
                if depth[v] < 0:
                    depth[v] = d + 1
                    queue.append(v)
    return order, label_ranks, label_dists


def index_from_lists(graph, order, label_ranks, label_dists):
    """A queryable ``PPLIndex`` over list-of-lists labels."""
    labels = MutableLabels(order, label_ranks, label_dists).to_flat()
    return PPLIndex(graph, order, labels)


def label_bfs(graph, root, is_landmark, label_column):
    """One labelled BFS from landmark ``root`` over an undirected
    graph: fills ``label_column`` (uint8, length ``|V|``) in place and
    returns the meta edges found as ``[(landmark_vertex, weight)]``."""
    csr = _csr_triple(graph.indptr, graph.indices)
    meta_edges = []
    for depth, vertices, _bits in qbs_batch_levels(
            csr, csr, np.array([root], dtype=np.int64), is_landmark):
        if depth == 0:
            continue
        label_column[vertices[~is_landmark[vertices]]] = depth
        meta_edges.extend((int(hit), depth)
                          for hit in vertices[is_landmark[vertices]])
    return meta_edges


def two_queue_labelled_bfs(indptr, indices, root, is_landmark, column):
    """Algorithm 2 over one orientation, two queues per level: fills
    ``column`` with the depths of labelled vertices and returns
    landmark hits as ``[(landmark_vertex, depth)]``."""
    visited = np.zeros(len(is_landmark), dtype=bool)
    visited[root] = True
    labelled = np.array([root], dtype=np.int32)
    silent = np.empty(0, dtype=np.int32)
    hits = []
    depth = 0
    while len(labelled) or len(silent):
        depth += 1
        fresh = expand_frontier(indptr, indices, labelled)
        fresh = np.unique(fresh[~visited[fresh]])
        visited[fresh] = True
        landmark_hits = fresh[is_landmark[fresh]]
        labelled = fresh[~is_landmark[fresh]]
        column[labelled] = depth
        hits.extend((int(hit), depth) for hit in landmark_hits)
        silent_fresh = expand_frontier(indptr, indices, silent)
        silent_fresh = np.unique(silent_fresh[~visited[silent_fresh]])
        visited[silent_fresh] = True
        silent = np.concatenate((landmark_hits, silent_fresh))
    return hits


def two_queue_scheme(graph, landmarks):
    """``(forward, backward, meta_arcs)`` of a dual-CSR view, one
    two-queue BFS per landmark and orientation."""
    n = graph.num_vertices
    position = np.full(n, -1, dtype=np.int32)
    position[landmarks] = np.arange(len(landmarks), dtype=np.int32)
    is_landmark = position >= 0
    forward = np.full((n, len(landmarks)), NO_LABEL, dtype=np.uint8)
    backward = np.full((n, len(landmarks)), NO_LABEL, dtype=np.uint8)
    meta = {}
    for i, root in enumerate(np.asarray(landmarks).tolist()):
        for hit, weight in two_queue_labelled_bfs(
                graph.out_indptr, graph.out_indices, root, is_landmark,
                forward[:, i]):
            assert meta.setdefault((i, int(position[hit])), weight) == weight
        for hit, weight in two_queue_labelled_bfs(
                graph.in_indptr, graph.in_indices, root, is_landmark,
                backward[:, i]):
            assert meta.setdefault((int(position[hit]), i), weight) == weight
    return forward, backward, meta


def resume_pruned_bfs_scalar(labels, neighbors, root_rank, start,
                             start_dist):
    """Per-vertex reference for ``incremental._resume_pruned_bfs``.

    Both walks label the identical entry set (duplicates in the scalar
    queue are pruned by the same ``known <= depth`` test that the
    frontier version's dedup removes).
    """
    root = int(labels.order[root_rank])
    queue = deque([(start, start_dist)])
    while queue:
        w, dw = queue.popleft()
        known = labels.distance(root, w)
        if known is not None and known <= dw:
            continue
        labels.set_entry(w, root_rank, dw)
        for z in neighbors(w):
            queue.append((int(z), dw + 1))


def touches_phantom_edge(labels, s, t, d, phantom):
    """True if some phantom edge lies on a label-shortest s-t path.

    Edge ``(a, b)`` is on one iff it is crossed by some shortest path,
    i.e. ``d(s,a) + 1 + d(b,t) = d`` in one of the two orientations.
    """
    to_s, to_t = {}, {}

    def d_s(x):
        if x not in to_s:
            to_s[x] = labels.distance(s, x)
        return to_s[x]

    def d_t(x):
        if x not in to_t:
            to_t[x] = labels.distance(x, t)
        return to_t[x]

    for a, b in phantom:
        dsa, dbt = d_s(a), d_t(b)
        if dsa is not None and dbt is not None and dsa + 1 + dbt == d:
            return True
        dsb, dat = d_s(b), d_t(a)
        if dsb is not None and dat is not None and dsb + 1 + dat == d:
            return True
    return False
