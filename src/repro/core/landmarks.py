"""Landmark selection strategies.

The paper (§6.1) selects the ``|R| = 20`` highest-degree vertices,
arguing that (1) removing hubs sparsifies the graph the most and
(2) hub distances approximate pair distances well [Potamias et al.].
Its future work (§8) proposes studying *other* selection strategies —
we implement several so the ablation benches can compare them.

``degree``, ``random`` and ``degree_weighted`` run on any dual-CSR view
(a digraph's degree is out- plus in-degree); ``coverage`` and
``far_apart`` walk undirected neighbourhoods and need a ``Graph``.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from .._util import check_random_state
from ..errors import IndexBuildError
from ..graph.csr import Graph
from ..graph.traversal import bfs_distances

__all__ = ["select_landmarks", "LANDMARK_STRATEGIES"]


def _degrees(graph) -> np.ndarray:
    """Degree over a dual-CSR view: out- plus in-degree on a digraph,
    the degree where both sides name one CSR."""
    degrees = np.diff(graph.out_indptr)
    if graph.out_indices is not graph.in_indices:
        degrees = degrees + np.diff(graph.in_indptr)
    return degrees


def _degree(graph, count: int, rng) -> np.ndarray:
    """Paper default: the ``count`` highest-degree vertices, ties
    broken by vertex id."""
    return np.argsort(-_degrees(graph), kind="stable")[:count]


def _random(graph, count: int, rng) -> np.ndarray:
    """Uniform random landmarks (ablation control)."""
    return rng.choice(graph.num_vertices, size=count,
                      replace=False).astype(np.int32)


def _degree_weighted(graph, count: int, rng) -> np.ndarray:
    """Sample proportionally to degree (randomized hub bias)."""
    degrees = _degrees(graph).astype(np.float64)
    total = degrees.sum()
    if total == 0:
        return _random(graph, count, rng)
    return rng.choice(graph.num_vertices, size=count, replace=False,
                      p=degrees / total).astype(np.int32)


def _coverage(graph: Graph, count: int, rng) -> np.ndarray:
    """Greedy 2-neighbourhood coverage (future-work-style strategy).

    Repeatedly pick the highest-degree vertex whose neighbourhood is
    not yet dominated by chosen landmarks, so landmarks spread out
    instead of clustering inside one hub community.
    """
    n = graph.num_vertices
    degrees = graph.degree()
    order = np.argsort(-degrees, kind="stable")
    covered = np.zeros(n, dtype=bool)
    chosen = []
    for v in order:
        if len(chosen) >= count:
            break
        v = int(v)
        if covered[v]:
            continue
        chosen.append(v)
        covered[v] = True
        covered[graph.neighbors(v)] = True
    # Fall back to plain degree order if domination exhausts the graph.
    for v in order:
        if len(chosen) >= count:
            break
        if int(v) not in chosen:
            chosen.append(int(v))
    return np.asarray(chosen[:count], dtype=np.int32)


def _far_apart(graph: Graph, count: int, rng) -> np.ndarray:
    """Farthest-point heuristic seeded at the max-degree vertex.

    Spreads landmarks across the graph (useful on grids / road-like
    networks, the paper's §8 target).
    """
    n = graph.num_vertices
    first = int(np.argmax(graph.degree()))
    chosen = [first]
    nearest = bfs_distances(graph, first).astype(np.int64)
    nearest[nearest < 0] = np.iinfo(np.int64).max  # unreachable = very far
    while len(chosen) < count:
        candidate = int(np.argmax(nearest))
        if nearest[candidate] <= 0:
            break  # everything already adjacent to a landmark
        chosen.append(candidate)
        dist = bfs_distances(graph, candidate).astype(np.int64)
        dist[dist < 0] = np.iinfo(np.int64).max
        np.minimum(nearest, dist, out=nearest)
    idx = 0
    order = np.argsort(-graph.degree(), kind="stable")
    while len(chosen) < count and idx < n:
        if int(order[idx]) not in chosen:
            chosen.append(int(order[idx]))
        idx += 1
    return np.asarray(chosen[:count], dtype=np.int32)


#: Strategies that run on any dual-CSR view, not only a ``Graph``.
_ANY_VIEW = {"degree", "random", "degree_weighted"}

LANDMARK_STRATEGIES: Dict[str, Callable] = {
    "degree": _degree,
    "random": _random,
    "degree_weighted": _degree_weighted,
    "coverage": _coverage,
    "far_apart": _far_apart,
}


def select_landmarks(graph, count: int, strategy: str = "degree",
                     seed=None) -> np.ndarray:
    """Pick ``count`` distinct landmark vertices.

    Parameters
    ----------
    graph:
        Input graph (a ``DiGraph`` too, for the strategies that
        support one).
    count:
        Number of landmarks (paper default 20). Clamped to ``|V|``.
    strategy:
        One of :data:`LANDMARK_STRATEGIES`.
    seed:
        Randomness for the stochastic strategies; ignored by
        deterministic ones.
    """
    if count < 1:
        raise IndexBuildError("at least one landmark is required")
    if graph.num_vertices == 0:
        raise IndexBuildError("cannot select landmarks on an empty graph")
    try:
        picker = LANDMARK_STRATEGIES[strategy]
    except KeyError:
        raise IndexBuildError(
            f"unknown landmark strategy {strategy!r}; options: "
            f"{sorted(LANDMARK_STRATEGIES)}"
        ) from None
    if strategy not in _ANY_VIEW and not isinstance(graph, Graph):
        raise IndexBuildError(
            f"landmark strategy {strategy!r} needs an undirected Graph; "
            f"on a {type(graph).__name__} use one of {sorted(_ANY_VIEW)}"
        )
    count = min(count, graph.num_vertices)
    rng = check_random_state(seed)
    landmarks = np.asarray(picker(graph, count, rng), dtype=np.int32)
    if len(np.unique(landmarks)) != len(landmarks):
        raise IndexBuildError(
            f"strategy {strategy!r} produced duplicate landmarks"
        )
    return landmarks
