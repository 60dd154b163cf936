"""Batched distances and symmetric keys: the bulk-path contract.

Property suite for the vectorized ``distance_many`` kernels and the
symmetric cache/dedup keys:

* for every registered undirected family, ``query(u, v) ==
  query(v, u)`` and ``distance_many(pairs)`` equals the scalar
  per-pair loop — including reversed and duplicate pairs — and both
  match the BFS oracle;
* reversed pairs hit the :class:`~repro.engine.session.QuerySession`
  LRU on undirected indexes, while the directed family keeps ordered
  keys;
* the session's bulk distance path dedupes, honours time budgets,
  and reports ``mean_executed_ms`` without cache-hit dilution.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Graph, spg_oracle
from repro._util import UNREACHED
from repro.baselines.oracle import distance_oracle
from repro.directed import DiGraph
from repro.engine import (
    PathIndex,
    QueryOptions,
    QuerySession,
    build_index,
)
from repro.engine.batch import (
    LabelArrays,
    finalize_distances,
    pairs_to_arrays,
    two_hop_distance_many,
)
from repro.errors import QueryError, VertexError
from repro.graph import barabasi_albert, erdos_renyi

from _corpus import random_graph_corpus, sample_vertex_pairs

#: Every undirected family with small-graph build params (mirrors the
#: engine conformance suite; new families are picked up there).
UNDIRECTED_METHODS = {
    "qbs": {"num_landmarks": 3},
    "ppl": {},
    "parent-ppl": {},
    "naive": {},
    "bibfs": {},
    "dynamic": {},
    "sharded": {"num_shards": 2},
}


def batch_with_reversals(graph, seed=0, count=40):
    """Sampled pairs plus their reversals, duplicates and diagonals."""
    pairs = sample_vertex_pairs(graph, count, seed=seed)
    pairs += [(v, u) for u, v in pairs[: count // 2]]
    pairs += pairs[: count // 4]
    pairs.append((0, 0))
    return pairs


# ----------------------------------------------------------------------
# distance_many == scalar loop == oracle, every undirected family
# ----------------------------------------------------------------------

class TestDistanceMany:
    @pytest.mark.parametrize("method", sorted(UNDIRECTED_METHODS))
    def test_matches_scalar_and_oracle(self, method):
        params = UNDIRECTED_METHODS[method]
        for label, graph in random_graph_corpus(seed=940, count=8):
            if graph.num_vertices < 4:
                continue
            index = build_index(graph, method, **params)
            pairs = batch_with_reversals(graph, seed=83)
            batched = index.distance_many(pairs)
            scalar = [index.distance(u, v) for u, v in pairs]
            assert batched == scalar, f"{method} {label}"
            for (u, v), value in zip(pairs, batched):
                assert value == distance_oracle(graph, u, v), \
                    f"{method} {label} ({u},{v})"

    @pytest.mark.parametrize("method", sorted(UNDIRECTED_METHODS))
    def test_query_is_symmetric(self, method):
        params = UNDIRECTED_METHODS[method]
        label, graph = next(iter(random_graph_corpus(seed=950, count=1)))
        index = build_index(graph, method, **params)
        for u, v in sample_vertex_pairs(graph, 10, seed=87):
            assert index.query(u, v) == index.query(v, u), \
                f"{method} {label} ({u},{v})"
            assert index.distance(u, v) == index.distance(v, u)

    def test_dynamic_after_mutations(self):
        """The kernel stays exact across phantom edges and inserts."""
        graph = barabasi_albert(120, 2, seed=41)
        index = build_index(graph, "dynamic", rebuild_threshold=0)
        rng = np.random.default_rng(43)
        edges = list(graph.edges())
        for position in rng.choice(len(edges), size=12, replace=False):
            index.remove_edge(*edges[int(position)])
        for _ in range(12):
            index.insert_edge(int(rng.integers(120)),
                              int(rng.integers(120)))
        current = index.graph
        pairs = batch_with_reversals(current, seed=89, count=60)
        batched = index.distance_many(pairs)
        assert batched == [index.distance(u, v) for u, v in pairs]
        for (u, v), value in zip(pairs, batched):
            assert value == distance_oracle(current, u, v)

    def test_empty_batch(self):
        index = build_index(erdos_renyi(10, 0.3, seed=3), "ppl")
        assert index.distance_many([]) == []

    def test_bad_vertex_rejected(self):
        index = build_index(erdos_renyi(10, 0.3, seed=3), "ppl")
        with pytest.raises(VertexError, match="out of range"):
            index.distance_many([(0, 1), (2, 10)])
        with pytest.raises(VertexError, match="out of range"):
            index.distance_many([(-1, 1)])

    def test_default_loop_used_by_uninstrumented_family(self):
        """bibfs has no kernel; the contract default must serve it."""
        graph = erdos_renyi(15, 0.3, seed=5)
        index = build_index(graph, "bibfs")
        assert type(index).distance_many is PathIndex.distance_many
        pairs = sample_vertex_pairs(graph, 8, seed=91)
        assert index.distance_many(pairs) == \
            [index.distance(u, v) for u, v in pairs]

    def test_hypothesis_two_hop_kernel_matches_merge(self):
        """Kernel == scalar merge-join on arbitrary sound labels."""
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        from repro.baselines.ppl import PPLIndex

        @settings(max_examples=30, deadline=None)
        @given(st.integers(0, 2 ** 32 - 1), st.integers(8, 40),
               st.integers(1, 4))
        def run(seed, n, m):
            graph = barabasi_albert(n, min(m, n - 1), seed=seed)
            index = build_index(graph, "ppl")
            rng = np.random.default_rng(seed)
            pairs = [(int(rng.integers(n)), int(rng.integers(n)))
                     for _ in range(30)]
            us, vs = pairs_to_arrays(pairs, n)
            labels = LabelArrays.from_lists(index._label_ranks,
                                            index._label_dists)
            best = two_hop_distance_many(labels, us, vs)
            assert finalize_distances(best) == \
                [PPLIndex.distance(index, u, v) for u, v in pairs]

        run()


# ----------------------------------------------------------------------
# Symmetric session cache keys (undirected) vs ordered keys (directed)
# ----------------------------------------------------------------------

class TestSymmetricKeys:
    @pytest.mark.parametrize("method", sorted(UNDIRECTED_METHODS))
    def test_reversed_pair_hits_cache(self, method):
        params = UNDIRECTED_METHODS[method]
        graph = erdos_renyi(25, 0.2, seed=7)
        index = build_index(graph, method, **params)
        assert not index.is_directed
        for mode in ("distance", "count-paths"):
            session = QuerySession(index, QueryOptions(mode=mode,
                                                       cache_size=16))
            first = session.query(4, 9)
            reversed_record = session.query(9, 4)
            assert not first.cached
            assert reversed_record.cached, f"{method} {mode}"
            assert reversed_record.value == first.value
            assert session.cache_hits_total == 1

    def test_spg_mode_keeps_orientation(self):
        """SPG answers are oriented, so spg-mode keys stay ordered —
        a reversed query gets its own (equal, but correctly oriented)
        object, never a flipped cache entry."""
        graph = erdos_renyi(25, 0.2, seed=7)
        index = build_index(graph, "ppl")
        session = QuerySession(index, QueryOptions(mode="spg",
                                                   cache_size=16))
        forward = session.query(4, 9)
        backward = session.query(9, 4)
        assert not backward.cached
        assert backward.value == forward.value  # endpoint-set equal
        assert forward.value.source == 4
        assert backward.value.source == 9
        assert session.query(9, 4).cached  # same orientation does hit

    def test_directed_family_keeps_ordered_keys(self):
        digraph = DiGraph.from_arcs(
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        index = build_index(digraph, "qbs-directed", num_landmarks=2)
        assert index.is_directed
        session = QuerySession(index, QueryOptions(mode="distance",
                                                   cache_size=16))
        assert not session.query(0, 2).cached
        # The reverse direction is a different query on a digraph.
        assert not session.query(2, 0).cached
        assert session.query(0, 2).cached
        assert session.query(0, 2).value == 1
        assert session.query(2, 0).value == 2

    def test_bulk_path_shares_cache_with_scalar_path(self):
        graph = erdos_renyi(25, 0.2, seed=11)
        index = build_index(graph, "ppl")
        session = QuerySession(index, QueryOptions(mode="distance",
                                                   cache_size=32))
        session.query(3, 8)
        records = session.query_many([(8, 3), (3, 8), (5, 6)])
        assert [r.cached for r in records] == [True, True, False]
        assert records[0].value == index.distance(3, 8)


# ----------------------------------------------------------------------
# Session bulk dispatch: budgets, reports, modes
# ----------------------------------------------------------------------

class TestBulkSession:
    @pytest.fixture()
    def index(self):
        return build_index(erdos_renyi(40, 0.12, seed=13), "ppl")

    def test_results_in_input_order(self, index):
        pairs = batch_with_reversals(index.graph, seed=95, count=30)
        report = QuerySession(index,
                              QueryOptions(mode="distance")).run(pairs)
        assert report.results == [index.distance(u, v)
                                  for u, v in pairs]
        assert not report.truncated

    def test_time_budget_truncates_bulk_batches(self, index):
        session = QuerySession(index, QueryOptions(
            mode="distance", time_budget=1e-9))
        report = session.run(sample_vertex_pairs(index.graph, 5000,
                                                 seed=97))
        assert report.truncated
        assert report.num_queries < 5000

    def test_mean_executed_ms_excludes_cache_hits(self, index):
        session = QuerySession(index, QueryOptions(mode="distance",
                                                   cache_size=64))
        pairs = sample_vertex_pairs(index.graph, 20, seed=99)
        session.run(pairs)  # warm the cache
        report = session.run(pairs)  # all hits
        assert report.cache_hits == report.num_queries
        assert report.mean_executed_ms() == 0.0
        stats = report.aggregate_stats()
        assert stats["executed_queries"] == 0
        assert stats["mean_executed_ms"] == 0.0
        cold = QuerySession(index, QueryOptions(mode="distance")) \
            .run(pairs)
        assert cold.aggregate_stats()["executed_queries"] > 0
        assert cold.mean_executed_ms() >= 0.0

    def test_query_many_rejects_unknown_mode(self, index):
        session = QuerySession(index)
        with pytest.raises(QueryError, match="unknown query mode"):
            session.query_many([(0, 1)], mode="teleport")

    def test_query_many_mode_override(self, index):
        session = QuerySession(index, QueryOptions(mode="distance"))
        (record,) = session.query_many([(0, 5)], mode="spg")
        assert record.value == spg_oracle(index.graph, 0, 5)
        assert record.mode == "spg"

    def test_non_distance_modes_loop(self, index):
        report = QuerySession(index, QueryOptions(mode="count-paths")) \
            .run([(0, 5), (5, 0)])
        oracle = spg_oracle(index.graph, 0, 5).count_paths()
        assert report.results == [oracle, oracle]


# ----------------------------------------------------------------------
# Kernel helpers
# ----------------------------------------------------------------------

class TestKernelHelpers:
    def test_pairs_to_arrays_shape_checked(self):
        with pytest.raises(QueryError, match="expects .u, v. pairs"):
            pairs_to_arrays([(1, 2, 3)], 10)

    def test_finalize_distances(self):
        dist = np.array([0, 3, UNREACHED], dtype=np.int32)
        boxed = finalize_distances(dist)
        assert boxed == [0, 3, None]
        assert [type(value) for value in boxed[:2]] == [int, int]

    def test_two_hop_diagonal_is_zero(self):
        graph = Graph.from_edges([(0, 1), (1, 2)])
        index = build_index(graph, "ppl")
        us, vs = pairs_to_arrays([(2, 2), (0, 0)], 3)
        labels = LabelArrays.from_lists(index._label_ranks,
                                        index._label_dists)
        best = two_hop_distance_many(labels, us, vs)
        assert finalize_distances(best) == [0, 0]
