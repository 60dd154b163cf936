"""The dynamic index's poisoning screen: one vectorized test for scalar
and batch queries alike.

``DynamicIndex._poisoned`` is pinned against the per-pair reference
``touches_phantom_edge`` (``_reference_builders.py``) on every ordered
pair, through random graphs and update streams, and the answers built
on it against the BFS oracle. The seams are the ``reduceat`` bug class:
empty label rows, isolated and disconnected endpoints, endpoints that
are phantom endpoints themselves, chunk edges, and a cached block that
must not outlive the labels or the phantom set it was built from.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro import Graph, build_index, load_index, spg_oracle
from repro._util import UNREACHED
from repro.baselines.oracle import distance_oracle
from repro.baselines.ppl import PPLIndex
from repro.graph import barabasi_albert, cycle_graph, erdos_renyi
from repro.graph.traversal import bfs_distances

from _corpus import sample_vertex_pairs
from _reference_builders import touches_phantom_edge


def all_pairs(n):
    return np.repeat(np.arange(n), n), np.tile(np.arange(n), n)


def label_distances(index, us, vs):
    labels = index._labels
    answers = (labels.distance(u, v) for u, v in zip(us.tolist(),
                                                    vs.tolist()))
    return np.array([UNREACHED if d is None else d for d in answers],
                    dtype=np.int32)


def reference_mask(index, us, vs, dist):
    return [d != UNREACHED and touches_phantom_edge(
        index._labels, u, v, d, index._phantom)
        for u, v, d in zip(us.tolist(), vs.tolist(), dist.tolist())]


def assert_screen_exact(index, us=None, vs=None):
    """The screen's mask equals the per-pair reference, and leaves the
    scratch all ``inf``."""
    if us is None:
        us, vs = all_pairs(index.num_vertices)
    dist = label_distances(index, us, vs)
    if index._phantom:
        assert index._poisoned(us, vs, dist).tolist() \
            == reference_mask(index, us, vs, dist)
    assert np.isinf(index._screen_scratch).all()


def oracle_matrix(graph):
    return np.stack([bfs_distances(graph, s)
                     for s in range(graph.num_vertices)])


def assert_answers_exact(index, spg_pairs=()):
    """``distance``, ``distance_many`` and ``query`` equal the oracle
    on the current graph."""
    graph = index.graph
    us, vs = all_pairs(graph.num_vertices)
    expected = [None if d == UNREACHED else d
                for d in oracle_matrix(graph)[us, vs].tolist()]
    assert index.distance_many(np.column_stack((us, vs))) == expected
    assert [index.distance(u, v)
            for u, v in zip(us.tolist(), vs.tolist())] == expected
    for u, v in spg_pairs:
        assert index.query(u, v) == spg_oracle(graph, u, v), (u, v)


def delete_edges(index, count, seed):
    edges = sorted(index.delta.edges())
    rng = np.random.default_rng(seed)
    for slot in rng.choice(len(edges), size=count, replace=False):
        assert index.remove_edge(*edges[int(slot)])


def two_components(n, seed):
    half = barabasi_albert(n, 2, seed=seed)
    edges = list(half.edges())
    return Graph.from_edges(edges + [(u + n, v + n) for u, v in edges],
                            num_vertices=2 * n)


def make_graph(kind, n, seed):
    if kind == "ba":
        return barabasi_albert(n, 2, seed=seed)
    if kind == "er-isolated":
        # Three trailing vertices no edge ever touches, beside whatever
        # the draw leaves isolated.
        return Graph.from_edges(list(erdos_renyi(n, 0.2, seed=seed).edges()),
                                num_vertices=n + 3)
    return two_components(n // 2, seed)


# ----------------------------------------------------------------------
# Differential property: screen == reference, answers == oracle
# ----------------------------------------------------------------------

class TestScreenProperty:
    def test_random_graphs_and_streams(self, tmp_path):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        path = tmp_path / "dyn.idx"
        ops = st.lists(st.tuples(
            st.sampled_from(("delete", "delete", "insert", "reinsert",
                             "rebuild", "reload")),
            st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)),
            min_size=1, max_size=6)

        @settings(max_examples=25, deadline=None)
        @given(st.sampled_from(("ba", "er-isolated", "two-components")),
               st.sampled_from(("ppl", "parent-ppl")),
               st.integers(8, 16), st.integers(0, 2 ** 32 - 1), ops)
        def run(kind, family, n, seed, stream):
            index = build_index(make_graph(kind, n, seed), "dynamic",
                                family=family, rebuild_threshold=0)
            for op, a, b in stream:
                if op == "delete":
                    edges = sorted(index.delta.edges())
                    if edges:
                        index.remove_edge(*edges[a % len(edges)])
                elif op == "insert":
                    u, v = a % index.num_vertices, b % index.num_vertices
                    if u != v:
                        index.insert_edge(u, v)
                elif op == "reinsert":
                    pending = sorted(index._phantom)
                    if pending:
                        index.insert_edge(*pending[a % len(pending)])
                elif op == "rebuild":
                    index.rebuild()
                else:
                    index.save(path)
                    index = load_index(path)
                # Every step screens through the block the step before
                # may have cached.
                assert_screen_exact(index)
            last = index.num_vertices - 1
            assert_answers_exact(index, [(0, last), (last, 0), (1, 2)])

        run()


# ----------------------------------------------------------------------
# Seams
# ----------------------------------------------------------------------

class TestScreenSeams:
    def test_empty_label_row_is_not_its_neighbours(self):
        """``reduceat`` over an empty row would return the next row's
        first entry; the block skips such rows and they answer
        ``inf``. (A real label is never empty: every vertex holds its
        own rank at distance 0.)"""
        index = build_index(cycle_graph(8), "dynamic", rebuild_threshold=0)
        index.remove_edge(2, 3)
        index.remove_edge(5, 6)
        labels = index._labels
        labels.ranks[3], labels.dists[3] = [], []
        block = index._screen_block()
        assert block.nonempty.tolist() == [True, False, True, True]
        ends = np.arange(8)
        merge = PPLIndex._query_distance_lists
        expected = [[merge(labels.ranks[e], labels.dists[e],
                           labels.ranks[p], labels.dists[p])
                     for p in (2, 3, 5, 6)] for e in range(8)]
        assert index._legs_to_phantoms(block, ends).tolist() == expected
        assert all(row[1] == np.inf for row in expected)

    def test_phantom_endpoint_isolated_by_its_deletions(self):
        graph = barabasi_albert(40, 2, seed=3)
        index = build_index(graph, "dynamic", rebuild_threshold=0)
        lonely = int(np.argmin(graph.degree()))
        for w in graph.neighbors(lonely).tolist():
            index.remove_edge(lonely, w)
        assert len(index.graph.neighbors(lonely)) == 0
        assert_screen_exact(index)
        assert_answers_exact(index, [(lonely, 0), (0, lonely)])
        assert index.distance(lonely, lonely) == 0

    def test_query_endpoint_is_a_phantom_endpoint(self):
        graph = barabasi_albert(50, 2, seed=5)
        index = build_index(graph, "dynamic", rebuild_threshold=0)
        delete_edges(index, 6, seed=5)
        ends = np.array(sorted({x for edge in index._phantom
                                for x in edge}))
        us = np.repeat(ends, 50)
        vs = np.tile(np.arange(50), len(ends))
        assert_screen_exact(index, us, vs)
        assert_screen_exact(index, vs, us)
        a, b = min(index._phantom)
        assert_answers_exact(index, [(a, b), (b, a)])

    def test_disconnected_pairs_are_never_screened(self):
        index = build_index(two_components(20, seed=7), "dynamic",
                            rebuild_threshold=0)
        delete_edges(index, 4, seed=7)
        us = np.arange(20).repeat(20)
        vs = np.tile(np.arange(20, 40), 20)
        dist = label_distances(index, us, vs)
        assert (dist == UNREACHED).all()
        assert not index._poisoned(us, vs, dist).any()
        assert index.distance_many(np.column_stack((us, vs))) \
            == [None] * len(us)

    def test_cut_edge_pair_is_poisoned_then_disconnected(self):
        index = build_index(Graph.from_edges([(0, 1), (1, 2), (2, 3)]),
                            "dynamic", rebuild_threshold=0)
        index.remove_edge(1, 2)
        us, vs = np.array([0, 3, 0]), np.array([3, 0, 1])
        assert index._poisoned(us, vs, label_distances(index, us, vs)
                               ).tolist() == [True, True, False]
        assert index.distance_many([(0, 3), (3, 0), (0, 1)]) \
            == [None, None, 1]

    def test_diagonal_pairs(self):
        index = build_index(cycle_graph(9), "dynamic", rebuild_threshold=0)
        index.remove_edge(0, 1)
        index.remove_edge(4, 5)
        diagonal = np.arange(9)
        assert not index._poisoned(diagonal, diagonal,
                                   np.zeros(9, dtype=np.int32)).any()
        assert index.distance_many([(v, v) for v in range(9)]) == [0] * 9
        assert [index.distance(v, v) for v in range(9)] == [0] * 9
        assert index.stats["validated_queries"] == 0

    def test_batch_larger_than_the_chunk_budget(self, monkeypatch):
        """A three-pair chunk: answers and mask must not depend on where
        the chunks fall, also with unscreened pairs between them."""
        import repro.dynamic.index as dynamic_index

        graph = two_components(40, seed=9)
        index = build_index(graph, "dynamic", rebuild_threshold=0)
        delete_edges(index, 8, seed=9)
        pairs = np.array(sample_vertex_pairs(graph, 120, seed=11))
        us, vs = pairs[:, 0], pairs[:, 1]
        dist = label_distances(index, us, vs)
        assert (dist == UNREACHED).any() and (dist != UNREACHED).any()
        mask = index._poisoned(us, vs, dist)
        answers = index.distance_many(pairs)
        monkeypatch.setattr(dynamic_index, "_SCREEN_ELEMS",
                            3 * len(index._phantom) + 1)
        assert index._poisoned(us, vs, dist).tolist() == mask.tolist()
        assert_screen_exact(index, us, vs)
        assert index.distance_many(pairs) == answers
        current = index.graph
        assert answers == [distance_oracle(current, u, v)
                           for u, v in pairs.tolist()]

    def test_reinserted_edge_is_no_longer_screened(self):
        """Re-inserting leaves the labels untouched, so only the
        phantom-set version tells the cached block it is stale."""
        index = build_index(cycle_graph(8), "dynamic", rebuild_threshold=0)
        index.remove_edge(1, 2)
        index.remove_edge(5, 6)
        us, vs = np.array([0]), np.array([3])
        dist = label_distances(index, us, vs)
        assert index._poisoned(us, vs, dist).tolist() == [True]
        repaired = index._labels.repaired_entries
        assert index.insert_edge(1, 2)
        assert index._labels.repaired_entries == repaired
        assert index._poisoned(us, vs, dist).tolist() == [False]
        validated = index.stats["validated_queries"]
        assert index.distance(0, 3) == 3
        assert index.stats["validated_queries"] == validated
        assert_screen_exact(index)
        assert_answers_exact(index, [(0, 3), (4, 7)])

    def test_rebuild_then_the_same_deletions(self):
        """After a rebuild the label counter starts over; the same
        number of deletions must not find the old block."""
        graph = barabasi_albert(60, 2, seed=13)
        index = build_index(graph, "dynamic", rebuild_threshold=0)
        delete_edges(index, 5, seed=13)
        assert_screen_exact(index)
        index.rebuild()
        assert index._labels.repaired_entries == 0
        delete_edges(index, 5, seed=14)
        assert_screen_exact(index)
        assert_answers_exact(index, [(0, 59), (7, 31)])


# ----------------------------------------------------------------------
# Concurrent readers share one scratch
# ----------------------------------------------------------------------

class TestScreenScratch:
    @pytest.fixture
    def index(self):
        index = build_index(barabasi_albert(300, 2, seed=17), "dynamic",
                            rebuild_threshold=0)
        delete_edges(index, 20, seed=17)
        return index

    def test_threads_share_one_index(self, index):
        """A wrong screen shows in the mask before the answers: a pair
        it flags in error still validates to the oracle's answer."""
        current = index.graph
        pairs = sample_vertex_pairs(current, 200, seed=19)
        expected = [distance_oracle(current, u, v) for u, v in pairs]
        us, vs = np.array(pairs).T
        dist = label_distances(index, us, vs)
        mask = reference_mask(index, us, vs, dist)
        assert any(mask)
        errors = []

        def client(offset):
            try:
                for i in range(len(pairs)):
                    k = (i + 50 * offset) % len(pairs)
                    assert index.distance(*pairs[k]) == expected[k], \
                        pairs[k]
                    assert index._poisoned(us[k:k + 1], vs[k:k + 1],
                                           dist[k:k + 1])[0] == mask[k]
                assert index._poisoned(us, vs, dist).tolist() == mask
                assert index.distance_many(pairs) == expected
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
        assert np.isinf(index._screen_scratch).all()
        assert index._screen_lock.acquire(blocking=False)
        index._screen_lock.release()

    def test_busy_scratch_is_not_touched(self, index):
        """A reader that finds the scratch lent out works in its own:
        the lent one holds garbage here, and the answers are exact."""
        current = index.graph
        pairs = sample_vertex_pairs(current, 40, seed=23)
        expected = [distance_oracle(current, u, v) for u, v in pairs]
        us, vs = np.array(pairs).T
        dist = label_distances(index, us, vs)
        scratch = index._screen_scratch
        assert index._screen_lock.acquire(blocking=False)
        try:
            scratch[:] = 0.0
            assert index._poisoned(us, vs, dist).tolist() \
                == reference_mask(index, us, vs, dist)
            assert [index.distance(u, v) for u, v in pairs] == expected
            assert index.distance_many(pairs) == expected
            assert (scratch == 0.0).all()
        finally:
            scratch[:] = np.inf
            index._screen_lock.release()
        assert index.distance_many(pairs) == expected
        assert np.isinf(scratch).all()
