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
    head_absent,
    pairs_to_arrays,
    two_hop_distance_many,
)
from repro.errors import QueryError, VertexError
from repro.graph import barabasi_albert, cycle_graph, erdos_renyi, \
    path_graph

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


def with_second_component(graph, size):
    """``graph`` beside a path of ``size`` more vertices."""
    n = graph.num_vertices
    edges = list(graph.edges()) + [(n + i, n + i + 1)
                                   for i in range(size - 1)]
    return Graph.from_edges(edges, num_vertices=n + size)


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
        """Kernel == scalar merge-join on arbitrary sound labels: at any
        head width (so the tail join runs too), on paths and cycles
        whose label distances pass 63 (a uint16 head), and with a
        second component (pairs across it share no rank)."""
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        from repro.baselines.ppl import PPLIndex

        shapes = {
            "hub": lambda n, m, seed: barabasi_albert(
                n, min(m, n - 1), seed=seed),
            "path": lambda n, m, seed: path_graph(4 * n),
            "cycle": lambda n, m, seed: cycle_graph(4 * n),
        }

        @settings(max_examples=40, deadline=None)
        @given(st.integers(0, 2 ** 32 - 1), st.integers(8, 40),
               st.integers(1, 4), st.sampled_from(sorted(shapes)),
               st.booleans(), st.data())
        def run(seed, n, m, shape, split, data):
            graph = shapes[shape](n, m, seed)
            if split:
                graph = with_second_component(graph, m + 1)
            n = graph.num_vertices
            index = build_index(graph, "ppl")
            flat = (index._label_ranks.offsets, index._label_ranks.flat,
                    index._label_dists.flat)
            rng = np.random.default_rng(seed)
            pairs = [(int(rng.integers(n)), int(rng.integers(n)))
                     for _ in range(30)]
            us, vs = pairs_to_arrays(pairs, n)
            expected = [PPLIndex.distance(index, u, v) for u, v in pairs]
            width = data.draw(st.integers(1, n), label="head_width")
            for labels in (LabelArrays.from_flat(*flat),
                           LabelArrays.from_flat(*flat, head_width=width)):
                best = two_hop_distance_many(labels, us, vs)
                assert finalize_distances(best) == expected

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
        with pytest.raises(QueryError, match="unknown query mode"):
            QuerySession(index, QueryOptions(mode="teleport"))

    def test_query_many_in_spg_mode(self, index):
        session = QuerySession(index, QueryOptions(mode="spg"))
        (record,) = session.query_many([(0, 5)])
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
        labels = LabelArrays.from_flat(index._label_ranks.offsets,
                                       index._label_ranks.flat,
                                       index._label_dists.flat)
        best = two_hop_distance_many(labels, us, vs)
        assert finalize_distances(best) == [0, 0]

    @pytest.mark.parametrize("max_dist, dtype, width", [
        (63, np.uint8, 1024),
        (64, np.uint16, 512),
        (16_383, np.uint16, 512),
        (16_384, np.uint32, 256),
    ])
    def test_head_dtype_is_the_narrowest_that_sums_two_distances(
            self, max_dist, dtype, width):
        """The head is the first unsigned dtype where two real entries
        sum below ``absent = iinfo.max // 2``; two entries at the
        largest distance still sum exactly, and absent entries read as
        no common rank. By default a row has one column per rank (3
        here); an explicit width — a 1 KiB row — is kept as given."""
        # Vertex 0: ranks 0 and 1; vertex 1: rank 1; vertex 2: none.
        flat = (np.array([0, 2, 3, 3]), np.array([0, 1, 1]),
                np.array([0, max_dist, max_dist], dtype=np.int32))
        us, vs = pairs_to_arrays([(0, 1), (1, 2), (0, 2), (2, 2)], 3)
        for head_width, row_bytes in ((None, 3 * np.dtype(dtype).itemsize),
                                      (width, 1024)):
            labels = LabelArrays.from_flat(*flat, head_width=head_width)
            assert labels.head.dtype == dtype
            assert labels.head.nbytes == 3 * row_bytes
            assert (labels.head[2] == head_absent(dtype)).all()
            assert finalize_distances(
                two_hop_distance_many(labels, us, vs)) \
                == [2 * max_dist, None, None, 0]

    @pytest.mark.parametrize("num_vertices, width", [
        (1, 1), (40, 40), (1023, 1023), (1024, 1024), (3000, 1024)])
    def test_default_head_width_never_exceeds_the_rank_count(
            self, num_vertices, width):
        """A column no rank reaches is never packed: the default row is
        1 KiB of uint8 ranks or the rank count, whichever is less."""
        labels = LabelArrays.from_flat(
            np.arange(num_vertices + 1), np.arange(num_vertices),
            np.zeros(num_vertices, dtype=np.int32))
        assert labels.head.shape == (num_vertices, width)
        assert len(labels.tail_ranks) == num_vertices - width

    def test_tail_join_matches_the_scalar_answers(self, tmp_path):
        """The tail join gathers both sides in one pass; on one-pair
        batches, ``u == v``, pairs across two components and a graph
        of fewer than 1,024 ranks — with tails in RAM (narrow heads)
        and mapped from a packed store — it answers as the scalar
        merge."""
        from repro.baselines.ppl import PPLIndex
        from repro.store import open_store_index, pack_index_store

        graph = with_second_component(barabasi_albert(300, 2, seed=11), 6)
        n = graph.num_vertices
        index = build_index(graph, "ppl")
        flat = (index._label_ranks.offsets, index._label_ranks.flat,
                index._label_dists.flat)
        pairs = sample_vertex_pairs(graph, 200, seed=13)
        pairs += [(5, 5), (n - 1, n - 1), (0, n - 1), (n - 2, 3),
                  (n - 6, n - 1)]
        expected = [PPLIndex.distance(index, u, v) for u, v in pairs]
        assert None in expected and 0 in expected
        batches = [pairs] + [[pair] for pair in pairs]
        kernels = [LabelArrays.from_flat(*flat, head_width=width)
                   for width in (None, 1, 4)]
        assert kernels[0].head_width == n
        for labels in kernels:
            got = []
            for batch in batches[1:]:
                got += finalize_distances(two_hop_distance_many(
                    labels, *pairs_to_arrays(batch, n)))
            assert got == expected
            assert finalize_distances(two_hop_distance_many(
                labels, *pairs_to_arrays(pairs, n))) == expected
        path = tmp_path / "tails.store"
        pack_index_store(index, path, head_width=4)
        store = open_store_index(path)
        try:
            assert store.distance_many(pairs) == expected
            assert [store.distance_many(batch)[0]
                    for batch in batches[1:]] == expected
        finally:
            store.close()

    def test_unsigned_head_answers_as_a_float_head(self):
        """A store's float32 head (``inf`` absent) and the in-RAM
        unsigned one answer alike — uint8 on a hub graph, uint16 on a
        long path beside a second component — at the in-RAM width and
        at one that leaves most entries to the tail."""
        from repro.store.index import _float_head

        for graph, dtype in (
                (barabasi_albert(400, 2, seed=7), np.uint8),
                (with_second_component(path_graph(300), 5), np.uint16)):
            index = build_index(graph, "ppl")
            flat = (index._label_ranks.offsets, index._label_ranks.flat,
                    index._label_dists.flat)
            pairs = sample_vertex_pairs(graph, 400, seed=3)
            pairs += [(0, graph.num_vertices - 1)]
            us, vs = pairs_to_arrays(pairs, graph.num_vertices)
            expected = [distance_oracle(graph, u, v) for u, v in pairs]
            for width in (None, 4):
                labels = LabelArrays.from_flat(*flat, head_width=width)
                assert labels.head.dtype == dtype
                as_float = LabelArrays(
                    _float_head(labels.head), labels.tail_offsets,
                    labels.tail_ranks, labels.tail_dists,
                    labels.num_ranks)
                for packed in (labels, as_float):
                    assert finalize_distances(two_hop_distance_many(
                        packed, us, vs)) == expected
