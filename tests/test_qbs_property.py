"""Hypothesis property tests for the core invariants.

These generate arbitrary graphs (not just the corpus families) and
check the library's central contracts:

* QbS query == double-BFS oracle (Theorem 5.1, exactness);
* labelling determinism under landmark permutation (Lemma 5.2);
* sketch upper bound (Corollary 4.6);
* SPG structural invariants (level consistency, path counts).
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Graph, QbSIndex, bidirectional_spg, spg_oracle
from repro.core.labelling import build_labelling

SETTINGS = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs(draw, max_vertices=24):
    """Arbitrary undirected simple graph with >= 2 vertices."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), max_size=3 * n,
                          unique=True))
    return Graph.from_edges(edges, num_vertices=n)


@st.composite
def graph_query_landmarks(draw):
    """(graph, u, v, landmark array) tuples."""
    graph = draw(graphs())
    n = graph.num_vertices
    u = draw(st.integers(min_value=0, max_value=n - 1))
    v = draw(st.integers(min_value=0, max_value=n - 1))
    count = draw(st.integers(min_value=1, max_value=min(6, n)))
    landmarks = draw(
        st.lists(st.integers(min_value=0, max_value=n - 1),
                 min_size=count, max_size=count, unique=True)
    )
    return graph, u, v, np.asarray(landmarks, dtype=np.int32)


@given(case=graph_query_landmarks())
@settings(**SETTINGS)
def test_qbs_matches_oracle(case):
    """Theorem 5.1: exact answers on arbitrary graphs and landmarks."""
    graph, u, v, landmarks = case
    index = QbSIndex.build(graph, landmarks=landmarks)
    assert index.query(u, v) == spg_oracle(graph, u, v)


@given(case=graph_query_landmarks())
@settings(**SETTINGS)
def test_bibfs_matches_oracle(case):
    graph, u, v, _ = case
    assert bidirectional_spg(graph, u, v) == spg_oracle(graph, u, v)


@given(case=graph_query_landmarks(), data=st.data())
@settings(**SETTINGS)
def test_labelling_deterministic_under_permutation(case, data):
    """Lemma 5.2: content is a function of the landmark *set*."""
    graph, _, _, landmarks = case
    perm = data.draw(st.permutations(range(len(landmarks))))
    shuffled = landmarks[np.asarray(perm, dtype=np.int64)]
    a = build_labelling(graph, landmarks)
    b = build_labelling(graph, shuffled)
    for vertex in range(graph.num_vertices):
        assert dict(a.label_entries(vertex)) == \
            dict(b.label_entries(vertex))


@given(case=graph_query_landmarks())
@settings(**SETTINGS)
def test_sketch_upper_bound(case):
    """Corollary 4.6: d_top >= d_G(u, v) whenever defined."""
    graph, u, v, landmarks = case
    landmark_set = set(int(r) for r in landmarks)
    if u == v or u in landmark_set or v in landmark_set:
        return
    index = QbSIndex.build(graph, landmarks=landmarks)
    sketch = index.sketch(u, v)
    oracle = spg_oracle(graph, u, v)
    if sketch.d_top is not None and oracle.distance is not None:
        assert sketch.d_top >= oracle.distance


@given(case=graph_query_landmarks())
@settings(**SETTINGS)
def test_spg_structural_invariants(case):
    """Every SPG is a layered DAG between its endpoints."""
    graph, u, v, landmarks = case
    index = QbSIndex.build(graph, landmarks=landmarks)
    spg = index.query(u, v)
    if spg.distance in (None, 0):
        assert spg.num_edges == 0
        return
    level = spg.levels()
    # Endpoints at the extremes.
    assert level[spg.source] == 0
    assert level[spg.target] == spg.distance
    # Every edge connects consecutive levels, every edge is a real
    # graph edge, and every vertex lies on some shortest path.
    from repro.graph.traversal import bfs_distances

    dist_u = bfs_distances(graph, spg.source)
    dist_v = bfs_distances(graph, spg.target)
    for a, b in spg.edges:
        assert abs(level[a] - level[b]) == 1
        assert graph.has_edge(a, b)
    for x in spg.vertices:
        assert dist_u[x] + dist_v[x] == spg.distance
        assert level[x] == dist_u[x]
    assert spg.count_paths() >= 1


@given(case=graph_query_landmarks())
@settings(**SETTINGS)
def test_iter_paths_consistent_with_count(case):
    graph, u, v, landmarks = case
    index = QbSIndex.build(graph, landmarks=landmarks)
    spg = index.query(u, v)
    paths = list(spg.iter_paths(limit=500))
    if spg.count_paths() <= 500:
        assert len(paths) == spg.count_paths()
        for path in paths:
            assert len(path) == (spg.distance or 0) + 1
            assert path[0] == spg.source
            assert path[-1] == spg.target
