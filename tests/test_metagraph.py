"""Meta-graph tests: distance preservation, meta SPGs, and Δ."""

import numpy as np
import pytest

from repro import spg_oracle
from repro._util import UNREACHED
from repro.core.labelling import build_labelling
from repro.core.metagraph import build_meta_graph
from repro.graph.traversal import bfs_distances

from _corpus import label_rng, random_graph_corpus

LANDMARKS = np.array([0, 1, 2], dtype=np.int32)


@pytest.fixture
def figure4_meta(figure4_graph):
    labelling = build_labelling(figure4_graph, LANDMARKS)
    return build_meta_graph(figure4_graph, labelling)


class TestDistancePreservation:
    """d_M(r, r') == d_G(r, r') — the property Eq. 3 relies on."""

    def test_figure4(self, figure4_graph, figure4_meta):
        for i in range(3):
            for j in range(3):
                a, b = int(LANDMARKS[i]), int(LANDMARKS[j])
                assert figure4_meta.dist[i, j] == \
                    bfs_distances(figure4_graph, a)[b]

    @pytest.mark.parametrize("label,graph",
                             list(random_graph_corpus(seed=51, count=12)))
    def test_random_graphs(self, label, graph):
        if graph.num_vertices < 5:
            pytest.skip("too small")
        rng = label_rng(label)
        count = int(rng.integers(2, min(6, graph.num_vertices)))
        landmarks = rng.choice(graph.num_vertices, size=count,
                               replace=False).astype(np.int32)
        labelling = build_labelling(graph, landmarks)
        meta = build_meta_graph(graph, labelling, precompute_delta=False)
        for i in range(count):
            dist = bfs_distances(graph, int(landmarks[i]))
            for j in range(count):
                expected = dist[landmarks[j]]
                got = meta.dist[i, j]
                if expected == UNREACHED:
                    assert not np.isfinite(got), f"{label} ({i},{j})"
                else:
                    assert got == expected, f"{label} ({i},{j})"


class TestMetaSpgEdges:
    def test_figure4_both_routes(self, figure4_meta):
        """d_M(1, 3) = 2 via the direct weight-2 edge AND via 1-2-3."""
        edges = set(figure4_meta.meta_spg_edges(0, 2))
        assert edges == {(0, 1), (1, 2), (0, 2)}

    def test_single_edge_route(self, figure4_meta):
        assert set(figure4_meta.meta_spg_edges(0, 1)) == {(0, 1)}

    def test_self_pair_empty(self, figure4_meta):
        assert figure4_meta.meta_spg_edges(1, 1) == []


class TestDelta:
    """Δ(a, b) must equal the oracle SPG between the landmarks,
    restricted to landmark-avoiding paths."""

    def expected_delta(self, graph, landmarks, i, j):
        others = [int(r) for k, r in enumerate(landmarks)
                  if k not in (i, j)]
        pruned = graph.remove_vertices(others)
        a, b = int(landmarks[i]), int(landmarks[j])
        full_d = bfs_distances(graph, a)[b]
        spg = spg_oracle(pruned, a, b)
        if spg.distance != full_d:
            return frozenset()  # no avoiding path at the true distance
        return spg.edges

    def test_figure4_delta(self, figure4_graph, figure4_meta):
        # Meta edge (0, 2) has weight 2 via paper path 1-4-3.
        assert figure4_meta.delta[(0, 2)] == frozenset({(0, 3), (2, 3)})
        # Weight-1 edges expand to themselves.
        assert figure4_meta.delta[(0, 1)] == frozenset({(0, 1)})
        assert figure4_meta.delta[(1, 2)] == frozenset({(1, 2)})

    @pytest.mark.parametrize("label,graph",
                             list(random_graph_corpus(seed=61, count=12)))
    def test_random_graphs(self, label, graph):
        if graph.num_vertices < 5:
            pytest.skip("too small")
        rng = label_rng(label)
        count = int(rng.integers(2, min(5, graph.num_vertices)))
        landmarks = rng.choice(graph.num_vertices, size=count,
                               replace=False).astype(np.int32)
        labelling = build_labelling(graph, landmarks)
        meta = build_meta_graph(graph, labelling, precompute_delta=True)
        for (i, j) in meta.edges:
            expected = self.expected_delta(graph, landmarks, i, j)
            assert meta.delta[(i, j)] == expected, f"{label}: edge {i},{j}"

    def test_precompute_flag(self, figure4_graph):
        labelling = build_labelling(figure4_graph, LANDMARKS)
        meta = build_meta_graph(figure4_graph, labelling,
                                precompute_delta=False)
        assert meta.delta == {}

    def test_delta_total_edges(self, figure4_meta):
        assert figure4_meta.delta_total_edges() == 4


class TestSizeAccounting:
    def test_meta_paper_size(self, figure4_meta):
        assert figure4_meta.paper_size_bytes() == 3 * 9

    def test_weight_lookup(self, figure4_meta):
        assert figure4_meta.weight(2, 0) == 2
