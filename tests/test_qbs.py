"""QbS index integration tests: the theorem-5.1 exactness guarantee."""

import numpy as np
import pytest

from repro import (
    Graph,
    IndexBuildError,
    QbSIndex,
    QueryError,
    VertexError,
    spg_oracle,
)
from repro.core.search import SearchStats
from repro.directed import DiGraph, DirectedQbSIndex
from repro.graph import erdos_renyi, grid_2d, star_overlay

from _corpus import label_rng, random_graph_corpus, sample_vertex_pairs, \
    shared_arrays


class TestExactness:
    """QbS must equal the oracle on every pair of every graph."""

    @pytest.mark.parametrize("label,graph",
                             list(random_graph_corpus(seed=100, count=25)))
    def test_differential_degree_landmarks(self, label, graph):
        if graph.num_vertices < 3:
            pytest.skip("too small")
        rng = label_rng(label)
        count = int(rng.integers(1, min(7, graph.num_vertices)))
        index = QbSIndex.build(graph, num_landmarks=count)
        for u, v in sample_vertex_pairs(graph, 12, seed=9):
            assert index.query(u, v) == spg_oracle(graph, u, v), \
                f"{label} ({u},{v}) R={count}"

    @pytest.mark.parametrize("label,graph",
                             list(random_graph_corpus(seed=200, count=15)))
    def test_differential_random_landmarks(self, label, graph):
        """Random landmarks stress the uncovered-pair code paths."""
        if graph.num_vertices < 3:
            pytest.skip("too small")
        index = QbSIndex.build(graph, num_landmarks=3, strategy="random",
                               seed=7)
        for u, v in sample_vertex_pairs(graph, 12, seed=13):
            assert index.query(u, v) == spg_oracle(graph, u, v), \
                f"{label} ({u},{v})"

    def test_landmark_endpoints(self):
        graph = erdos_renyi(40, 0.15, seed=3)
        index = QbSIndex.build(graph, num_landmarks=5)
        for landmark in index.landmarks:
            landmark = int(landmark)
            for v in (0, 17, 39, int(index.landmarks[0])):
                assert index.query(landmark, v) == \
                    spg_oracle(graph, landmark, v)

    def test_self_query(self):
        graph = erdos_renyi(10, 0.3, seed=1)
        index = QbSIndex.build(graph, num_landmarks=2)
        spg = index.query(4, 4)
        assert spg.distance == 0
        assert spg.num_edges == 0

    def test_disconnected_pair(self):
        graph = Graph.from_edges([(0, 1), (1, 2), (3, 4)], num_vertices=5)
        index = QbSIndex.build(graph, num_landmarks=2)
        assert index.query(0, 4).distance is None

    def test_all_pairs_small_graph(self, figure4_graph):
        """Exhaustive: every pair of the Figure 4 graph."""
        index = QbSIndex.build(figure4_graph, num_landmarks=3)
        n = figure4_graph.num_vertices
        for u in range(n):
            for v in range(n):
                assert index.query(u, v) == spg_oracle(figure4_graph, u, v)

    def test_hub_graph(self):
        """Hub-dominated graphs hit the recover search hardest."""
        base = erdos_renyi(120, 0.02, seed=5)
        graph = star_overlay(base, num_hubs=2, spokes_per_hub=60, seed=6)
        index = QbSIndex.build(graph, num_landmarks=4)
        for u, v in sample_vertex_pairs(graph, 40, seed=15):
            assert index.query(u, v) == spg_oracle(graph, u, v), (u, v)

    def test_grid_graph(self):
        """Large-diameter graphs exercise deep bidirectional searches
        and the exponential path counts of lattices."""
        graph = grid_2d(7, 7)
        index = QbSIndex.build(graph, num_landmarks=4)
        for u, v in [(0, 48), (0, 6), (21, 27), (3, 45)]:
            assert index.query(u, v) == spg_oracle(graph, u, v)

    def test_distance_method(self):
        graph = erdos_renyi(30, 0.2, seed=9)
        index = QbSIndex.build(graph, num_landmarks=3)
        for u, v in sample_vertex_pairs(graph, 10, seed=17):
            assert index.distance(u, v) == spg_oracle(graph, u, v).distance


class TestBuildOptions:
    def test_explicit_landmarks(self, figure4_graph):
        index = QbSIndex.build(figure4_graph,
                               landmarks=np.array([5, 9], dtype=np.int32))
        assert sorted(index.landmarks.tolist()) == [5, 9]

    def test_no_delta_precompute_still_exact(self):
        graph = erdos_renyi(50, 0.12, seed=13)
        lazy = QbSIndex.build(graph, num_landmarks=4,
                              precompute_delta=False)
        assert lazy.meta_graph.delta == {}
        for u, v in sample_vertex_pairs(graph, 15, seed=21):
            assert lazy.query(u, v) == spg_oracle(graph, u, v)

    def test_build_report_populated(self):
        graph = erdos_renyi(60, 0.1, seed=15)
        index = QbSIndex.build(graph, num_landmarks=5)
        report = index.report
        assert report.num_landmarks == 5
        assert report.total_seconds > 0
        assert report.label_size_bytes == 60 * 5
        assert report.delta_size_bytes == report.delta_edges * 8

    @pytest.mark.parametrize("view", [lambda g: g, shared_arrays],
                             ids=["qbs", "qbs-directed"])
    @pytest.mark.parametrize("landmarks", [
        [2 ** 32 + 2], [1.5], [True], [-1], [99], [3, 3], [],
    ], ids=repr)
    def test_explicit_landmarks_checked_before_the_cast(
            self, figure4_graph, view, landmarks):
        """A cast to int32 first made ``2**32 + 2`` landmark 2 and
        ``1.5`` or ``True`` landmark 1."""
        graph = view(figure4_graph)
        family = DirectedQbSIndex if isinstance(graph, DiGraph) \
            else QbSIndex
        with pytest.raises(IndexBuildError):
            family.build(graph, landmarks=np.array(landmarks))

    def test_too_many_landmarks_clamped(self):
        graph = erdos_renyi(10, 0.4, seed=17)
        index = QbSIndex.build(graph, num_landmarks=50)
        assert len(index.landmarks) == 10

    def test_zero_landmarks_rejected(self):
        graph = erdos_renyi(10, 0.4, seed=17)
        with pytest.raises(IndexBuildError):
            QbSIndex.build(graph, num_landmarks=0)

    def test_unknown_strategy_rejected(self):
        graph = erdos_renyi(10, 0.4, seed=17)
        with pytest.raises(IndexBuildError):
            QbSIndex.build(graph, strategy="psychic")

    def test_bad_vertex_query(self):
        graph = erdos_renyi(10, 0.4, seed=17)
        index = QbSIndex.build(graph, num_landmarks=2)
        with pytest.raises(VertexError):
            index.query(0, 99)

    def test_sparsified_graph_exposed(self):
        graph = erdos_renyi(30, 0.2, seed=19)
        index = QbSIndex.build(graph, num_landmarks=3)
        sparsified = index.sparsified_graph
        for landmark in index.landmarks:
            assert sparsified.degree(int(landmark)) == 0


class TestDirectedFamily:
    """``qbs-directed`` is this class over a ``DiGraph``, so it has
    what the undirected family has: search stats, the Eq. 4 budget
    switch and sketches."""

    @pytest.fixture
    def digraph(self):
        rng = np.random.default_rng(41)
        return DiGraph.from_arcs(rng.integers(0, 40, size=(120, 2)),
                                 num_vertices=40)

    def test_query_with_stats(self, digraph):
        index = DirectedQbSIndex.build(digraph, num_landmarks=3)
        landmarks = set(index.landmarks.tolist())
        traversed = 0
        for u, v in sample_vertex_pairs(digraph, 30, seed=43):
            if u == v or u in landmarks or v in landmarks:
                continue
            spg, stats = index.query_with_stats(u, v)
            assert spg == spg_oracle(digraph, u, v), (u, v)
            assert isinstance(stats, SearchStats)
            assert stats.d_top == index.sketch(u, v).d_top
            traversed += stats.edges_traversed
            unguided, _ = index.query_with_stats(u, v, use_budgets=False)
            assert unguided == spg, (u, v)
        assert traversed > 0

    def test_sketch_refuses_landmark_endpoints(self, digraph):
        index = DirectedQbSIndex.build(digraph, num_landmarks=3)
        landmark = int(index.landmarks[0])
        other = next(v for v in range(40)
                     if v not in index.landmarks.tolist())
        for u, v in ((landmark, other), (other, landmark)):
            with pytest.raises(QueryError, match="non-landmark"):
                index.sketch(u, v)

    def test_sketch_on_shared_arrays_equals_undirected(self):
        graph = erdos_renyi(50, 0.1, seed=47)
        undirected = QbSIndex.build(graph, num_landmarks=4)
        directed = DirectedQbSIndex.build(shared_arrays(graph),
                                          num_landmarks=4)
        assert directed.landmarks.tolist() == undirected.landmarks.tolist()
        landmarks = set(undirected.landmarks.tolist())
        pairs = [(u, v) for u, v in sample_vertex_pairs(graph, 60, seed=53)
                 if u not in landmarks and v not in landmarks]
        assert pairs
        for u, v in pairs:
            assert directed.sketch(u, v).d_top \
                == undirected.sketch(u, v).d_top, (u, v)


class TestSerialization:
    def test_save_load_round_trip(self, tmp_path):
        graph = erdos_renyi(60, 0.1, seed=23)
        index = QbSIndex.build(graph, num_landmarks=5)
        path = tmp_path / "index.idx"
        index.save(path)
        loaded = QbSIndex.load(path)
        assert np.array_equal(loaded.landmarks, index.landmarks)
        for u, v in sample_vertex_pairs(graph, 12, seed=25):
            assert loaded.query(u, v) == index.query(u, v)

    def test_save_writes_pickle_free_npz(self, tmp_path):
        """The archive is a plain npz readable with allow_pickle=False."""
        graph = erdos_renyi(30, 0.15, seed=29)
        path = tmp_path / "index.idx"
        QbSIndex.build(graph, num_landmarks=3).save(path)
        with open(path, "rb") as handle:
            assert handle.read(2) == b"PK"  # zip container, not pickle
        with np.load(path, allow_pickle=False) as archive:
            assert "label_matrix" in archive.files

    def test_load_refuses_legacy_pickle(self, tmp_path):
        """A pre-npz pickle file gets a clear rebuild error, and its
        bytes are never unpickled."""
        import pickle

        from repro.errors import IndexFormatError

        path = tmp_path / "legacy.pkl"
        with open(path, "wb") as handle:
            pickle.dump({"format": "repro-qbs-v1"}, handle,
                        protocol=pickle.HIGHEST_PROTOCOL)
        with pytest.raises(IndexFormatError, match="legacy pickle"):
            QbSIndex.load(path)

    def test_load_rejects_garbage(self, tmp_path):
        from repro.errors import IndexFormatError

        path = tmp_path / "bad.idx"
        path.write_bytes(b"definitely not an index")
        with pytest.raises(IndexFormatError):
            QbSIndex.load(path)

    def test_load_rejects_other_family(self, tmp_path):
        from repro.engine import build_index
        from repro.errors import IndexFormatError

        path = tmp_path / "ppl.idx"
        build_index(erdos_renyi(20, 0.2, seed=31), "ppl").save(path)
        with pytest.raises(IndexFormatError, match="not 'qbs'"):
            QbSIndex.load(path)
