"""Algorithm 4 (guided search) tests, anchored on Figure 6."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro import BiBFS, Graph, QbSIndex, bidirectional_spg, spg_oracle
from repro._util import UNREACHED
from repro.core.search import GuidedSearcher, SearchStats
from repro.directed import DiGraph, DirectedQbSIndex
from repro.graph import watts_strogatz

from _corpus import (label_rng, random_digraph_corpus, random_graph_corpus,
                     sample_vertex_pairs, shared_arrays)


@pytest.fixture
def figure4_index(figure4_graph):
    return QbSIndex.build(figure4_graph,
                          landmarks=np.array([0, 1, 2], dtype=np.int32))


class TestFigure6WalkThrough:
    """Example 4.8, end to end: the query SPG(6, 11) (0-indexed (5, 10))."""

    def test_answer_matches_figure6f(self, figure4_index):
        spg = figure4_index.query(5, 10)
        assert spg.distance == 5
        expected = {
            # G-minus part: 6-7-8-9-10-11 (paper ids).
            (5, 6), (6, 7), (7, 8), (8, 9), (9, 10),
            # Landmark route via (1,2): 6-1-2-9-10-11.
            (0, 5), (0, 1), (1, 8),
            # Landmark route via (1,3): 6-1-{2-3 | 4-3}-12-11.
            (1, 2), (0, 3), (2, 3), (2, 11), (10, 11),
        }
        assert spg.edges == frozenset(expected)

    def test_oracle_agrees(self, figure4_graph, figure4_index):
        assert figure4_index.query(5, 10) == spg_oracle(figure4_graph,
                                                        5, 10)

    def test_stats_record_both_stages(self, figure4_index):
        spg, stats = figure4_index.query_with_stats(5, 10)
        assert stats.d_top == 5
        assert stats.d_minus == 5      # frontiers meet at paper vertex 8
        assert stats.met
        assert stats.used_reverse
        assert stats.used_recover

    def test_search_depths(self, figure4_index):
        """The paper reports d_6 = 2 and d_11 = 3 before meeting; we
        check the equivalent observable: the searched distance."""
        spg, stats = figure4_index.query_with_stats(5, 10)
        assert stats.d_minus == 5


class TestStageSelection:
    """Eq. 5's three cases drive which stages run."""

    def test_reverse_only_when_gminus_shorter(self):
        # Landmark 0 sits on a detour; the direct path avoids it.
        g = Graph.from_edges([(1, 2), (2, 3),              # direct, len 2
                              (1, 0), (0, 4), (4, 3)])     # via lm, len 3
        index = QbSIndex.build(g, landmarks=np.array([0], dtype=np.int32))
        spg, stats = index.query_with_stats(1, 3)
        assert spg.distance == 2
        assert stats.used_reverse
        assert not stats.used_recover
        assert spg.edges == frozenset({(1, 2), (2, 3)})

    def test_recover_only_when_all_paths_through_landmark(self):
        g = Graph.from_edges([(1, 0), (0, 2)])  # star through landmark
        index = QbSIndex.build(g, landmarks=np.array([0], dtype=np.int32))
        spg, stats = index.query_with_stats(1, 2)
        assert spg.distance == 2
        assert stats.used_recover
        assert not stats.used_reverse
        assert spg.edges == frozenset({(0, 1), (0, 2)})

    def test_both_when_tied(self):
        g = Graph.from_edges([(1, 0), (0, 2),     # through landmark, len 2
                              (1, 3), (3, 2)])    # avoiding, len 2
        index = QbSIndex.build(g, landmarks=np.array([0], dtype=np.int32))
        spg, stats = index.query_with_stats(1, 2)
        assert spg.distance == 2
        assert stats.used_recover
        assert stats.used_reverse
        assert spg.edges == frozenset({(0, 1), (0, 2), (1, 3), (2, 3)})


class TestBidirectionalSpg:
    def test_adjacent(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        spg = bidirectional_spg(g, 0, 1)
        assert spg.distance == 1
        assert spg.edges == frozenset({(0, 1)})

    def test_self(self):
        g = Graph.from_edges([(0, 1)])
        assert bidirectional_spg(g, 1, 1).distance == 0

    def test_disconnected(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        assert bidirectional_spg(g, 0, 3).distance is None

    def test_stats_collected(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        stats = SearchStats()
        bidirectional_spg(g, 0, 3, stats)
        assert stats.met
        assert stats.edges_traversed > 0

    @pytest.mark.parametrize("label,graph",
                             list(random_graph_corpus(seed=81, count=15)))
    def test_differential(self, label, graph):
        if graph.num_vertices < 2:
            pytest.skip("too small")
        for u, v in sample_vertex_pairs(graph, 10, seed=5):
            assert bidirectional_spg(graph, u, v) == \
                spg_oracle(graph, u, v), f"{label} ({u},{v})"


class TestGuidanceAblation:
    """use_budgets=False must not change answers, only effort."""

    @pytest.mark.parametrize("label,graph",
                             list(random_graph_corpus(seed=91, count=8)))
    def test_same_answers(self, label, graph):
        if graph.num_vertices < 6:
            pytest.skip("too small")
        index = QbSIndex.build(graph, num_landmarks=3)
        for u, v in sample_vertex_pairs(graph, 8, seed=7):
            guided, _ = index.query_with_stats(u, v, use_budgets=True)
            unguided, _ = index.query_with_stats(u, v, use_budgets=False)
            assert guided == unguided, f"{label} ({u},{v})"


# ----------------------------------------------------------------------
# Searcher-owned scratch: clean after every query, safe under threads
# ----------------------------------------------------------------------

def two_copies(graph):
    """``graph`` beside a relabelled copy of itself: every pair across
    the copies is disconnected, so both search sides run dry."""
    n = graph.num_vertices
    tails = np.repeat(np.arange(n), np.diff(graph.out_indptr))
    arcs = np.column_stack((tails, graph.out_indices))
    arcs = np.vstack((arcs, arcs + n))
    if isinstance(graph, DiGraph):
        return DiGraph.from_arcs(arcs, num_vertices=2 * n)
    return Graph.from_edges(arcs, num_vertices=2 * n)


def build_qbs(graph, **params):
    family = DirectedQbSIndex if isinstance(graph, DiGraph) else QbSIndex
    return family.build(graph, **params)


def assert_scratch_clean(index):
    """Every searcher the index has made holds ``UNREACHED`` throughout."""
    for searcher in (index._searcher, index._fallback):
        if searcher is not None:
            scratch = searcher._scratch
            assert (scratch.depth_u == UNREACHED).all()
            assert (scratch.depth_v == UNREACHED).all()


class Boom(RuntimeError):
    pass


def boom(*args, **kwargs):
    raise Boom


SCRATCH_CORPUS = (list(random_graph_corpus(seed=101, count=10))
                  + list(random_digraph_corpus(seed=102, count=6)))


class TestScratchHygiene:
    """A query leaves the searcher's depth arrays all ``UNREACHED``,
    however it ends, and the next answer is the oracle's."""

    @pytest.mark.parametrize("label,graph", SCRATCH_CORPUS)
    def test_clean_after_every_query(self, label, graph, monkeypatch):
        graph = two_copies(graph)
        index = build_qbs(graph, num_landmarks=6)
        rng = label_rng(label)
        pairs = rng.integers(0, graph.num_vertices, size=(40, 2)).tolist()
        landmarks = index.landmarks.tolist()
        pairs += [(landmarks[0], v) for _, v in pairs[:4]]
        pairs += [(u, landmarks[-1]) for u, _ in pairs[:4]]
        disconnected = 0
        for u, v in pairs:
            expected = spg_oracle(graph, u, v)
            disconnected += expected.distance is None
            assert index.query(u, v) == expected, f"{label} ({u},{v})"
            assert_scratch_clean(index)
            assert index.distance(u, v) == expected.distance
            assert_scratch_clean(index)
            if isinstance(index, QbSIndex):
                unguided, _ = index.query_with_stats(u, v, use_budgets=False)
                assert unguided == expected, f"{label} ({u},{v})"
                assert_scratch_clean(index)
            # Raises wherever the recover stage runs.
            with monkeypatch.context() as patch:
                patch.setattr(GuidedSearcher, "_recover_search", boom)
                try:
                    index.query(u, v)
                except Boom:
                    pass
            assert_scratch_clean(index)
            assert index.query(u, v) == expected, f"{label} ({u},{v})"
        assert disconnected, label
        assert index._fallback is not None

    def test_clean_after_a_raise_in_recover(self, figure4_index,
                                            figure4_graph, monkeypatch):
        """Figure 6's query meets in G⁻ and recovers: it raises after
        both sides have explored."""
        with monkeypatch.context() as patch:
            patch.setattr(GuidedSearcher, "_recover_search", boom)
            with pytest.raises(Boom):
                figure4_index.query(5, 10)
        assert_scratch_clean(figure4_index)
        assert figure4_index.query(5, 10) == spg_oracle(figure4_graph,
                                                        5, 10)

    def test_busy_scratch_is_not_touched(self, figure4_graph):
        """A caller that finds the arrays lent out works in its own:
        the lent arrays hold garbage here, and the answer is exact."""
        index = QbSIndex.build(figure4_graph,
                               landmarks=np.array([0, 1, 2], dtype=np.int32))
        searcher = index._searcher
        scratch = searcher._scratch
        assert searcher._scratch_lock.acquire(blocking=False)
        try:
            scratch.depth_u[:] = scratch.depth_v[:] = 3
            assert index.query(5, 10) == spg_oracle(figure4_graph, 5, 10)
            assert index.distance(5, 10) == 5
            assert (scratch.depth_u == 3).all()
        finally:
            scratch.depth_u[:] = scratch.depth_v[:] = UNREACHED
            searcher._scratch_lock.release()
        assert index.query(5, 10) == spg_oracle(figure4_graph, 5, 10)
        assert_scratch_clean(index)

    @pytest.mark.parametrize("directed", [False, True],
                             ids=["Graph", "DiGraph"])
    def test_threads_share_one_index(self, directed):
        graph = watts_strogatz(300, 4, 0.1, seed=7)
        if directed:
            rng = np.random.default_rng(7)
            graph = DiGraph.from_arcs(rng.integers(0, 300, size=(900, 2)),
                                      num_vertices=300)
        index = build_qbs(graph, num_landmarks=6)
        pairs = sample_vertex_pairs(graph, 200, seed=11)
        pairs[:6] = [(int(r), v) for r, (_, v) in zip(index.landmarks,
                                                      pairs)]
        expected = [spg_oracle(graph, u, v) for u, v in pairs]
        errors = []

        def client(offset):
            try:
                for i in range(len(pairs)):
                    k = (i + 50 * offset) % len(pairs)
                    u, v = pairs[k]
                    assert index.query(u, v) == expected[k], (u, v)
                    assert index.distance(u, v) == expected[k].distance
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(t,))
                   for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[0]
        assert_scratch_clean(index)


class TestLandmarkDistancesSkipTheSpg:
    """``distance`` runs the bounded search alone: no reverse search
    and no ``ShortestPathGraph``, also on the unguided fallback."""

    @pytest.mark.parametrize("label,graph",
                             list(random_graph_corpus(seed=111, count=5)))
    def test_no_descend(self, label, graph, monkeypatch):
        qbs = QbSIndex.build(graph, num_landmarks=2)
        families = (BiBFS(graph), qbs,
                    DirectedQbSIndex.build(shared_arrays(graph),
                                           landmarks=qbs.landmarks))
        monkeypatch.setattr(GuidedSearcher, "_descend_depths", boom)
        landmark = int(qbs.landmarks[0])
        for v in range(graph.num_vertices):
            expected = spg_oracle(graph, landmark, v).distance
            for index in families:
                assert index.distance(landmark, v) == expected, \
                    f"{label} {type(index).__name__} ({landmark},{v})"
                assert index.distance(v, landmark) == expected


def test_query_allocates_o_visited_not_o_n():
    """The memory pin on searcher-owned scratch: on 100k vertices, a
    warmed ``query`` + ``distance`` of a nearby pair peaks below one
    int32 array over the vertices (one per-query depth array would
    already be that much)."""
    graph = watts_strogatz(100_000, 6, 0.02, seed=12)
    index = QbSIndex.build(graph, num_landmarks=20)
    landmarks = set(index.landmarks.tolist())
    pairs = [(u, u + 3) for u in range(1_000, 99_000, 9_973)
             if u not in landmarks and u + 3 not in landmarks]
    for u, v in pairs:
        index.query(u, v)
        index.distance(u, v)
    peaks = []
    tracemalloc.start()
    try:
        for u, v in pairs:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            index.query(u, v)
            index.distance(u, v)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert len(peaks) >= 5
    assert max(peaks) < 4 * graph.num_vertices, peaks
