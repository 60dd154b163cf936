"""Landmark selection strategy tests."""

import numpy as np
import pytest

from repro import IndexBuildError, select_landmarks
from repro.core.landmarks import LANDMARK_STRATEGIES
from repro.directed import DiGraph
from repro.graph import Graph, barabasi_albert, cycle_graph, grid_2d


@pytest.fixture
def hub_graph():
    return barabasi_albert(200, 2, seed=3)


class TestDegreeStrategy:
    def test_picks_hubs(self, hub_graph):
        landmarks = select_landmarks(hub_graph, 5, strategy="degree")
        degrees = hub_graph.degree()
        threshold = np.sort(degrees)[::-1][4]
        assert all(degrees[r] >= threshold for r in landmarks)

    def test_deterministic(self, hub_graph):
        a = select_landmarks(hub_graph, 5)
        b = select_landmarks(hub_graph, 5)
        assert np.array_equal(a, b)

    def test_tie_break_by_id(self):
        g = cycle_graph(8)
        assert list(select_landmarks(g, 3)) == [0, 1, 2]


class TestStochasticStrategies:
    @pytest.mark.parametrize("strategy",
                             ["random", "degree_weighted"])
    def test_seeded_determinism(self, hub_graph, strategy):
        a = select_landmarks(hub_graph, 6, strategy=strategy, seed=9)
        b = select_landmarks(hub_graph, 6, strategy=strategy, seed=9)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("strategy", sorted(LANDMARK_STRATEGIES))
    def test_all_strategies_return_distinct(self, hub_graph, strategy):
        landmarks = select_landmarks(hub_graph, 8, strategy=strategy,
                                     seed=1)
        assert len(landmarks) == 8
        assert len(np.unique(landmarks)) == 8

    def test_degree_weighted_prefers_hubs(self, hub_graph):
        degrees = hub_graph.degree()
        landmarks = select_landmarks(hub_graph, 10,
                                     strategy="degree_weighted", seed=2)
        assert degrees[landmarks].mean() > degrees.mean()


class TestCoverageAndFarApart:
    def test_coverage_spreads(self, hub_graph):
        landmarks = select_landmarks(hub_graph, 6, strategy="coverage")
        assert len(set(landmarks.tolist())) == 6

    def test_far_apart_on_grid(self):
        g = grid_2d(6, 6)
        landmarks = select_landmarks(g, 4, strategy="far_apart")
        assert len(set(landmarks.tolist())) == 4
        # Landmarks should not all be adjacent to each other.
        pairs = [(a, b) for i, a in enumerate(landmarks)
                 for b in landmarks[i + 1:]]
        assert any(not g.has_edge(int(a), int(b)) for a, b in pairs)


class TestValidation:
    def test_unknown_strategy(self, hub_graph):
        with pytest.raises(IndexBuildError):
            select_landmarks(hub_graph, 3, strategy="nonexistent")

    def test_zero_count(self, hub_graph):
        with pytest.raises(IndexBuildError):
            select_landmarks(hub_graph, 0)

    def test_empty_graph(self):
        with pytest.raises(IndexBuildError):
            select_landmarks(Graph.empty(0), 1)

    def test_count_clamped(self):
        g = cycle_graph(4)
        assert len(select_landmarks(g, 99)) == 4


class TestOnADigraph:
    @pytest.fixture
    def digraph(self):
        rng = np.random.default_rng(5)
        return DiGraph.from_arcs(rng.integers(0, 60, size=(200, 2)),
                                 num_vertices=60)

    def test_degree_is_out_plus_in_degree_ties_by_id(self, digraph):
        order = np.argsort(-digraph.total_degree(), kind="stable")
        assert select_landmarks(digraph, 7).tolist() == order[:7].tolist()

    def test_degree_picks_the_graphs_landmarks_on_shared_arrays(
            self, hub_graph):
        shared = DiGraph(hub_graph.indptr, hub_graph.indices,
                         hub_graph.indptr, hub_graph.indices)
        assert select_landmarks(shared, 9).tolist() \
            == select_landmarks(hub_graph, 9).tolist()

    @pytest.mark.parametrize("strategy", ["random", "degree_weighted"])
    def test_sampling_strategies_run(self, digraph, strategy):
        landmarks = select_landmarks(digraph, 6, strategy=strategy, seed=3)
        assert len(np.unique(landmarks)) == 6

    @pytest.mark.parametrize("strategy", ["coverage", "far_apart"])
    def test_undirected_strategies_refuse(self, digraph, strategy):
        with pytest.raises(IndexBuildError, match="needs an undirected"):
            select_landmarks(digraph, 3, strategy=strategy)
