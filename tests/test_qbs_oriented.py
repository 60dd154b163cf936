"""One QbS over a dual-CSR view: the undirected and directed indexes
run the same labelling sweep, sketch and guided search, so they must
agree with each other, with both BFS oracles, and — on the label
matrices — entry for entry with a builder that shares no code with the
lockstep kernel."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import BiBFS, QbSIndex, bidirectional_spg, spg_oracle
from repro.core.labelling import build_labelling
from repro.core.search import SearchStats
from repro.directed import DiGraph, DirectedQbSIndex

from _corpus import (label_rng, random_digraph_corpus,
                     random_graph_corpus, sample_vertex_pairs,
                     shared_arrays)
from _reference_builders import two_queue_scheme

SETTINGS = dict(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def both_orientations(graph) -> DiGraph:
    edges = graph.edge_array()
    return DiGraph.from_arcs(np.vstack((edges, edges[:, ::-1])),
                             num_vertices=graph.num_vertices)


def assert_matches_oracle(index, graph, pairs):
    for u, v in pairs:
        expected = spg_oracle(graph, u, v)
        assert index.query(u, v) == expected, (u, v)
        assert index.distance(u, v) == expected.distance, (u, v)


# ----------------------------------------------------------------------
# (a) an undirected graph is the digraph of both orientations
# ----------------------------------------------------------------------

@pytest.mark.parametrize("label,graph",
                         list(random_graph_corpus(seed=300, count=15)))
def test_directed_index_on_symmetric_digraph_equals_undirected(label, graph):
    undirected = QbSIndex.build(graph, num_landmarks=3)
    directed = DirectedQbSIndex.build(both_orientations(graph),
                                      num_landmarks=3)
    assert directed.landmarks.tolist() == undirected.landmarks.tolist()
    pairs = sample_vertex_pairs(graph, 12, seed=17)
    pairs += [(int(r), v) for r, (_, v) in zip(undirected.landmarks, pairs)]
    for u, v in pairs:
        arcs = directed.query(u, v)
        edges = undirected.query(u, v)
        assert edges == spg_oracle(graph, u, v), f"{label} ({u},{v})"
        assert arcs.distance == edges.distance, f"{label} ({u},{v})"
        assert {(min(a, b), max(a, b)) for a, b in arcs.arcs} \
            == edges.edges, f"{label} ({u},{v})"
        assert directed.distance(u, v) == undirected.distance(u, v)


@pytest.mark.parametrize("label,graph",
                         list(random_graph_corpus(seed=320, count=10)))
@pytest.mark.parametrize("view", [shared_arrays, both_orientations])
def test_symmetric_digraph_answers_are_oriented_and_survive_state(
        view, label, graph):
    """A symmetric digraph keeps one label matrix and each meta edge
    once, but its answers are still *arcs*: a meta edge walked against
    its stored orientation must come out reversed. And `from_state`
    must land in the same regime whichever way the source was built —
    the once-stored meta edges of a shared-array build used to be
    re-read as one-way arcs (distances too long, SPGs too small)."""
    digraph = view(graph)
    built = DirectedQbSIndex.build(digraph, num_landmarks=4)
    assert built._labelling.symmetric == (view is shared_arrays)
    restored = DirectedQbSIndex.from_state(*built.to_state())
    assert restored._labelling.symmetric
    assert restored.graph.out_indices is restored.graph.in_indices
    assert all(i < j for i, j in restored._labelling.meta_edges)
    pairs = sample_vertex_pairs(graph, 40, seed=23)
    pairs += [(int(r), v) for r, (_, v) in zip(built.landmarks, pairs)]
    pairs += [(u, int(r)) for r, (u, _) in zip(built.landmarks, pairs)]
    assert_matches_oracle(built, digraph, pairs)
    assert_matches_oracle(restored, digraph, pairs)


# ----------------------------------------------------------------------
# (b) arbitrary digraphs against the double-BFS oracle
# ----------------------------------------------------------------------

@st.composite
def digraph_with_landmarks(draw):
    """Sparse arbitrary digraph (so one-way chains, unreachable pairs,
    several components and isolated vertices are all common) plus a
    landmark set of any size up to every vertex."""
    n = draw(st.integers(min_value=2, max_value=12))
    arcs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=2 * n))
    landmarks = draw(st.lists(st.integers(0, n - 1), min_size=1,
                              max_size=n, unique=True))
    return (DiGraph.from_arcs(arcs, num_vertices=n),
            np.asarray(landmarks, dtype=np.int32))


@given(case=digraph_with_landmarks())
@settings(**SETTINGS)
def test_directed_query_and_distance_match_oracle_on_all_pairs(case):
    graph, landmarks = case
    index = DirectedQbSIndex.build(graph, landmarks=landmarks)
    n = graph.num_vertices
    # Every ordered pair: u == v, landmark endpoints and pairs
    # reachable one way only are all in there.
    assert_matches_oracle(index, graph,
                          [(u, v) for u in range(n) for v in range(n)])


def test_one_way_chain():
    chain = DiGraph.from_arcs([(i, i + 1) for i in range(9)],
                              num_vertices=11)     # vertex 10 isolated
    index = DirectedQbSIndex.build(chain, landmarks=np.array([4, 10]))
    assert index.distance(0, 9) == 9
    assert index.distance(9, 0) is None
    assert index.query(2, 7).arcs == frozenset(
        (i, i + 1) for i in range(2, 7))
    assert_matches_oracle(index, chain,
                          [(u, v) for u in range(11) for v in range(11)])


def test_more_landmarks_than_one_lane_batch():
    rng = np.random.default_rng(23)
    graph = DiGraph.from_arcs(rng.integers(0, 120, size=(420, 2)),
                              num_vertices=120)
    index = DirectedQbSIndex.build(graph, num_landmarks=70)
    assert len(index.landmarks) == 70
    pairs = rng.integers(0, 120, size=(150, 2)).tolist()
    assert_matches_oracle(index, graph, pairs)
    reloaded = DirectedQbSIndex.from_state(*index.to_state())
    assert_matches_oracle(reloaded, graph, pairs[:40])


# ----------------------------------------------------------------------
# (c) the shared sweep against the scalar two-queue reference
# ----------------------------------------------------------------------

def assert_sweep_equals_two_queue(graph, landmarks):
    landmarks = np.asarray(landmarks, dtype=np.int32)
    labelling = build_labelling(graph, landmarks)
    forward, backward, meta_arcs = two_queue_scheme(graph, landmarks)
    assert np.array_equal(labelling.reverse_matrix, forward)
    assert np.array_equal(labelling.label_matrix, backward)
    assert labelling.meta_edges == meta_arcs
    return labelling


@pytest.mark.parametrize("label,graph",
                         list(random_digraph_corpus(seed=5, count=12)))
def test_sweep_equals_two_queue_reference(label, graph):
    rng = label_rng(label)
    count = int(rng.integers(1, graph.num_vertices))
    assert_sweep_equals_two_queue(
        graph, rng.choice(graph.num_vertices, size=count, replace=False))


def test_sweep_equals_two_queue_reference_past_64_landmarks():
    rng = np.random.default_rng(29)
    graph = DiGraph.from_arcs(rng.integers(0, 150, size=(600, 2)),
                              num_vertices=150)
    assert_sweep_equals_two_queue(
        graph, rng.choice(150, size=70, replace=False))


def test_dense_frontier_on_one_way_csr():
    """``_spread`` pulls dense levels from the transpose CSR and pushes
    sparse ones along the forward CSR; on a one-way graph the two CSRs
    differ, so a pull from the wrong one mislabels the whole level."""
    fan = 40
    arcs = [(0, 1 + i) for i in range(fan)]                 # root fans out
    arcs += [(1 + i, 1 + fan + i) for i in range(fan)]      # one-way spokes
    arcs += [(1 + fan + i, 1 + 2 * fan) for i in range(fan)]  # into a sink
    graph = DiGraph.from_arcs(arcs)
    # Level 1 from the root activates fan of 3 * fan arcs: over the
    # kernel's 1/16 dense threshold, in both orientations.
    assert 16 * graph.out_degree(0) >= graph.num_arcs
    assert 16 * graph.in_degree(1 + 2 * fan) >= graph.num_arcs
    labelling = assert_sweep_equals_two_queue(graph, [0, 1 + 2 * fan, 5])
    assert labelling.meta_edges[(0, 1)] == 3
    assert (1, 0) not in labelling.meta_edges


@pytest.mark.parametrize("label,graph",
                         list(random_graph_corpus(seed=310, count=10)))
def test_symmetric_digraph_sweeps_equal_the_undirected_one(label, graph):
    landmarks = np.arange(0, graph.num_vertices, 3, dtype=np.int32)
    undirected = build_labelling(graph, landmarks)
    assert undirected.symmetric
    directed = assert_sweep_equals_two_queue(both_orientations(graph),
                                             landmarks)
    assert not directed.symmetric
    assert np.array_equal(directed.label_matrix, directed.reverse_matrix)
    assert np.array_equal(directed.label_matrix, undirected.label_matrix)
    both_ways = {arc: w for (i, j), w in undirected.meta_edges.items()
                 for arc in ((i, j), (j, i))}
    assert directed.meta_edges == both_ways


# ----------------------------------------------------------------------
# (d) Bi-BFS is the guided search with nothing to guide it
# ----------------------------------------------------------------------

@pytest.mark.parametrize("label,graph",
                         list(random_graph_corpus(seed=320, count=10)))
def test_bibfs_entry_points_are_one_loop(label, graph):
    index = QbSIndex.build(graph, num_landmarks=2)
    baseline = BiBFS(graph)
    landmark = int(index.landmarks[0])
    for v in range(graph.num_vertices):
        if v == landmark:
            continue
        free = SearchStats()
        spg = bidirectional_spg(graph, landmark, v, free)
        via_family, family = baseline.query_with_stats(landmark, v)
        via_index, fallback = index.query_with_stats(landmark, v)
        assert spg == via_family == via_index, f"{label} ({landmark},{v})"
        assert free == family == fallback, f"{label} ({landmark},{v})"
        assert free.d_top is None and not free.used_recover
