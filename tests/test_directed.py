"""Directed extension: DiGraph substrate and DirectedQbSIndex."""

import numpy as np
import pytest

from repro import ShortestPathGraph, spg_oracle
from repro.directed import DiGraph, DirectedQbSIndex
from repro.errors import GraphValidationError, IndexBuildError, VertexError
from repro.graph import bfs_distances


def random_digraph(rng, n=None):
    n = n or int(rng.integers(4, 30))
    m = int(rng.integers(n, 4 * n))
    arcs = np.column_stack((rng.integers(0, n, m), rng.integers(0, n, m)))
    return DiGraph.from_arcs(arcs, num_vertices=n)


class TestDiGraph:
    def test_basic_structure(self):
        g = DiGraph.from_arcs([(0, 1), (1, 2), (2, 0)])
        assert g.num_vertices == 3
        assert g.num_arcs == 3
        assert list(g.successors(0)) == [1]
        assert list(g.predecessors(0)) == [2]

    def test_orientations_distinct(self):
        g = DiGraph.from_arcs([(0, 1), (1, 0)])
        assert g.num_arcs == 2
        assert g.has_arc(0, 1)
        assert g.has_arc(1, 0)

    def test_self_loops_dropped(self):
        g = DiGraph.from_arcs([(0, 0), (0, 1)])
        assert g.num_arcs == 1

    def test_duplicates_collapsed(self):
        g = DiGraph.from_arcs([(0, 1), (0, 1), (0, 1)])
        assert g.num_arcs == 1

    def test_degrees(self):
        g = DiGraph.from_arcs([(0, 1), (0, 2), (1, 2)])
        assert g.out_degree(0) == 2
        assert g.in_degree(2) == 2
        assert list(g.total_degree()) == [2, 2, 2]

    def test_reverse(self):
        g = DiGraph.from_arcs([(0, 1), (1, 2)])
        r = g.reverse()
        assert r.has_arc(1, 0)
        assert r.has_arc(2, 1)
        assert not r.has_arc(0, 1)

    def test_remove_vertices(self):
        g = DiGraph.from_arcs([(0, 1), (1, 2), (2, 3), (3, 0)])
        s = g.remove_vertices([1])
        assert s.num_vertices == 4
        assert not s.has_arc(0, 1)
        assert s.has_arc(2, 3)

    def test_empty(self):
        g = DiGraph.from_arcs([], num_vertices=3)
        assert g.num_vertices == 3
        assert g.num_arcs == 0

    def test_bad_shape(self):
        with pytest.raises(GraphValidationError):
            DiGraph.from_arcs(np.array([[0, 1, 2]]))

    def test_negative_ids(self):
        with pytest.raises(GraphValidationError):
            DiGraph.from_arcs([(0, -1)])

    def test_vertex_bounds(self):
        g = DiGraph.from_arcs([(0, 1)])
        with pytest.raises(VertexError):
            g.successors(5)

    def test_as_undirected_edges(self):
        g = DiGraph.from_arcs([(0, 1), (1, 0), (1, 2)])
        assert sorted(g.as_undirected_edges()) == [(0, 1), (1, 2)]


class TestDirectedBfs:
    def test_forward_vs_backward(self):
        g = DiGraph.from_arcs([(0, 1), (1, 2)])
        forward = bfs_distances(g, 0, forward=True)
        assert forward.tolist() == [0, 1, 2]
        backward = bfs_distances(g, 2, forward=False)
        assert backward.tolist() == [2, 1, 0]

    def test_unreachable(self):
        g = DiGraph.from_arcs([(0, 1)])
        dist = bfs_distances(g, 1, forward=True)
        assert dist[0] == -1


class TestDirectedSPG:
    def test_trivial_and_empty(self):
        assert ShortestPathGraph.trivial(3, directed=True).count_paths() == 1
        assert ShortestPathGraph.empty(0, 1, directed=True).count_paths() == 0

    def test_count_paths_diamond(self):
        spg = ShortestPathGraph(0, 3, 2, [(0, 1), (0, 2), (1, 3), (2, 3)],
                                directed=True)
        assert spg.count_paths() == 2
        assert spg.vertices == {0, 1, 2, 3}

    def test_orientation_preserved(self):
        spg = ShortestPathGraph(0, 1, 1, [(0, 1)], directed=True)
        assert (0, 1) in spg.arcs
        assert (1, 0) not in spg.arcs

    def test_invalid_arcs_rejected(self):
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            ShortestPathGraph(0, 0, 0, [(0, 1)], directed=True)


class TestDirectedOracle:
    def test_simple_chain(self):
        g = DiGraph.from_arcs([(0, 1), (1, 2)])
        spg = spg_oracle(g, 0, 2)
        assert spg.distance == 2
        assert spg.arcs == frozenset({(0, 1), (1, 2)})

    def test_direction_matters(self):
        g = DiGraph.from_arcs([(0, 1), (1, 2)])
        assert spg_oracle(g, 2, 0).distance is None

    def test_asymmetric_distances(self):
        # Cycle 0 -> 1 -> 2 -> 0: d(0,2) = 2 but d(2,0) = 1.
        g = DiGraph.from_arcs([(0, 1), (1, 2), (2, 0)])
        assert spg_oracle(g, 0, 2).distance == 2
        assert spg_oracle(g, 2, 0).distance == 1


class TestDirectedQbS:
    def test_differential_random(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            g = random_digraph(rng)
            n = g.num_vertices
            count = int(rng.integers(1, min(6, n)))
            index = DirectedQbSIndex.build(g, num_landmarks=count)
            for _ in range(10):
                u, v = int(rng.integers(n)), int(rng.integers(n))
                assert index.query(u, v) == spg_oracle(g, u, v)

    def test_asymmetric_queries(self):
        g = DiGraph.from_arcs([(0, 1), (1, 2), (2, 0), (0, 3), (3, 2)])
        index = DirectedQbSIndex.build(g, num_landmarks=2)
        for u in range(4):
            for v in range(4):
                assert index.query(u, v) == spg_oracle(g, u, v)

    def test_landmark_endpoint_fallback(self):
        rng = np.random.default_rng(11)
        g = random_digraph(rng, n=20)
        index = DirectedQbSIndex.build(g, num_landmarks=3)
        landmark = int(index.landmarks[0])
        for v in range(0, 20, 3):
            assert index.query(landmark, v) == \
                spg_oracle(g, landmark, v)

    def test_self_query(self):
        g = DiGraph.from_arcs([(0, 1)])
        index = DirectedQbSIndex.build(g, num_landmarks=1)
        assert index.query(0, 0).distance == 0

    def test_unreachable_query(self):
        g = DiGraph.from_arcs([(0, 1), (2, 1)])
        index = DirectedQbSIndex.build(g, num_landmarks=1)
        assert index.query(1, 0).distance is None

    def test_explicit_landmarks(self):
        g = DiGraph.from_arcs([(0, 1), (1, 2), (2, 3)])
        index = DirectedQbSIndex.build(
            g, landmarks=np.array([1], dtype=np.int32)
        )
        assert index.landmarks.tolist() == [1]
        assert index.query(0, 3).distance == 3

    def test_distance_method(self):
        rng = np.random.default_rng(13)
        g = random_digraph(rng, n=15)
        index = DirectedQbSIndex.build(g, num_landmarks=2)
        for u in range(15):
            for v in range(15):
                assert index.distance(u, v) == \
                    spg_oracle(g, u, v).distance

    def test_validation(self):
        g = DiGraph.from_arcs([(0, 1)])
        with pytest.raises(IndexBuildError):
            DirectedQbSIndex.build(g, num_landmarks=0)
        with pytest.raises(IndexBuildError):
            DirectedQbSIndex.build(
                g, landmarks=np.array([0, 0], dtype=np.int32)
            )
