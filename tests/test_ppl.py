"""PPL tests: exactness of the sound variant, 2-hop path cover, and
the documented counterexample against the paper's Algorithm 1."""

import pytest

from repro import BudgetExceededError, Graph, spg_oracle
from repro._util import TimeBudget
from repro.baselines import PPLIndex

from _corpus import random_graph_corpus, sample_vertex_pairs
from _reference_builders import index_from_lists, paper_algorithm1_labels

#: A concrete graph (found by differential testing) on which the
#: paper's Algorithm 1 produces labels that violate the 2-hop path
#: cover: the pruned BFS from vertex 1 never discovers vertex 16 at its
#: true depth, so the query SPG(16, 19) silently loses the shortest
#: paths through vertex 7.
COUNTEREXAMPLE_EDGES = [
    (0, 2), (0, 3), (1, 2), (1, 5), (1, 7), (1, 10), (1, 19), (2, 3),
    (2, 4), (2, 6), (2, 9), (2, 10), (2, 12), (2, 18), (2, 22), (3, 4),
    (3, 17), (3, 18), (4, 5), (4, 6), (4, 8), (4, 11), (4, 12), (4, 13),
    (4, 15), (4, 22), (5, 20), (6, 7), (6, 8), (6, 11), (6, 14), (6, 16),
    (7, 9), (8, 14), (9, 15), (9, 16), (10, 13), (10, 19), (13, 17),
    (13, 20), (13, 21), (19, 21),
]


class TestPaperVariantUnsound:
    def test_paper_algorithm1_counterexample(self):
        """Algorithm 1 as printed loses shortest paths on this graph."""
        graph = Graph.from_edges(COUNTEREXAMPLE_EDGES)
        paper = index_from_lists(graph, *paper_algorithm1_labels(graph))
        want = spg_oracle(graph, 16, 19)
        got = paper.query(16, 19)
        assert got.distance == want.distance  # distances still exact
        missing = want.edges - got.edges
        assert missing, "expected the documented path-cover violation"
        assert (1, 7) in missing

    def test_sound_variant_fixes_counterexample(self):
        graph = Graph.from_edges(COUNTEREXAMPLE_EDGES)
        sound = PPLIndex.build(graph)
        assert sound.query(16, 19) == spg_oracle(graph, 16, 19)

    def test_unknown_variant_rejected(self):
        """One build path: no variant is selectable, the paper's
        included."""
        graph = Graph.from_edges([(0, 1)])
        with pytest.raises(TypeError):
            PPLIndex.build(graph, variant="paper")


class TestSoundExactness:
    @pytest.mark.parametrize("label,graph",
                             list(random_graph_corpus(seed=300, count=15)))
    def test_differential(self, label, graph):
        if graph.num_vertices < 2:
            pytest.skip("too small")
        index = PPLIndex.build(graph)
        for u, v in sample_vertex_pairs(graph, 10, seed=31):
            assert index.query(u, v) == spg_oracle(graph, u, v), \
                f"{label} ({u},{v})"

    @pytest.mark.parametrize("label,graph",
                             list(random_graph_corpus(seed=310, count=8)))
    def test_distances_exact(self, label, graph):
        if graph.num_vertices < 2:
            pytest.skip("too small")
        index = PPLIndex.build(graph)
        for u, v in sample_vertex_pairs(graph, 12, seed=33):
            expected = spg_oracle(graph, u, v).distance
            assert index.distance(u, v) == expected, f"{label} ({u},{v})"


class TestTwoHopPathCover:
    """Definition 3.2, verified against enumerated shortest paths."""

    @pytest.mark.parametrize("label,graph",
                             list(random_graph_corpus(seed=320, count=8)))
    def test_every_path_has_interior_common_landmark(self, label, graph):
        if graph.num_vertices < 3:
            pytest.skip("too small")
        index = PPLIndex.build(graph)
        labels = {v: dict(index.label_of(v))
                  for v in range(graph.num_vertices)}
        for u, v in sample_vertex_pairs(graph, 6, seed=35):
            oracle = spg_oracle(graph, u, v)
            if oracle.distance is None or oracle.distance < 2:
                continue
            for path in oracle.iter_paths(limit=60):
                interior = path[1:-1]
                covered = any(
                    r in labels[u] and r in labels[v]
                    and labels[u][r] + labels[v][r] == oracle.distance
                    for r in interior
                )
                assert covered, f"{label}: path {path} uncovered"


class TestConstructionBehaviour:
    def test_budget_dnf(self):
        from repro.graph import erdos_renyi

        graph = erdos_renyi(400, 0.05, seed=41)
        with pytest.raises(BudgetExceededError):
            PPLIndex.build(graph, budget=TimeBudget(1e-9, label="PPL"))

    def test_label_sizes_smaller_than_naive(self):
        from repro.graph import barabasi_albert

        graph = barabasi_albert(120, 2, seed=43)
        index = PPLIndex.build(graph)
        naive_entries = graph.num_vertices ** 2
        assert index.num_entries() < naive_entries / 3

    def test_order_is_degree_descending(self):
        graph = Graph.from_edges([(0, 1), (0, 2), (0, 3), (1, 2)])
        index = PPLIndex.build(graph)
        degrees = graph.degree()
        order = index.order
        assert all(degrees[order[i]] >= degrees[order[i + 1]]
                   for i in range(len(order) - 1))

    def test_paper_size_model(self):
        graph = Graph.from_edges([(0, 1), (1, 2)])
        index = PPLIndex.build(graph)
        assert index.paper_size_bytes() == index.num_entries() * 5


class TestQueryEdgeCases:
    def test_self(self):
        graph = Graph.from_edges([(0, 1)])
        index = PPLIndex.build(graph)
        assert index.query(0, 0).distance == 0

    def test_disconnected(self):
        graph = Graph.from_edges([(0, 1), (2, 3)])
        index = PPLIndex.build(graph)
        assert index.query(0, 3).distance is None
        assert index.distance(0, 3) is None

    def test_adjacent(self):
        graph = Graph.from_edges([(0, 1), (1, 2)])
        index = PPLIndex.build(graph)
        spg = index.query(0, 1)
        assert spg.edges == frozenset({(0, 1)})
