"""Engine tests: registry, conformance suite, persistence, sessions.

The conformance suite is the contract enforcer: every registered
method — current and future — is run through build -> distance /
query / query_many agreement against the BFS oracle, and through a
save/load round trip in the uniform persistence format. A new backend
registered with ``@register_index`` is picked up here automatically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Graph, spg_oracle
from repro.directed import DiGraph
from repro.engine import (
    BatchReport,
    PathIndex,
    QueryOptions,
    QuerySession,
    available_methods,
    build_index,
    get_index_class,
    load_index,
    peek_index,
    register_index,
    save_index,
)
from repro.errors import (
    IndexBuildError,
    IndexFormatError,
    QueryError,
    ReproError,
)

from _corpus import (
    random_digraph_corpus,
    random_graph_corpus,
    sample_vertex_pairs,
)

#: Every undirected family, with small-graph-appropriate build params.
UNDIRECTED_METHODS = {
    "qbs": {"num_landmarks": 3},
    "ppl": {},
    "parent-ppl": {},
    "naive": {},
    "bibfs": {},
    "dynamic": {},
    "sharded": {"num_shards": 2},
}

ALL_METHODS = ("bibfs", "dynamic", "naive", "parent-ppl", "ppl", "qbs",
               "qbs-directed", "sharded")


def small_corpus(seed=900, count=6):
    return [(label, graph)
            for label, graph in random_graph_corpus(seed=seed, count=count)
            if graph.num_vertices >= 4]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

class TestRegistry:
    def test_all_families_registered(self):
        assert set(ALL_METHODS) <= set(available_methods())

    def test_unknown_method_rejected(self):
        graph = Graph.from_edges([(0, 1)])
        with pytest.raises(ReproError, match="unknown index method"):
            build_index(graph, "no-such-index")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(IndexBuildError, match="already registered"):
            @register_index("qbs")
            class Impostor(get_index_class("bibfs")):
                pass

    def test_registration_requires_pathindex(self):
        with pytest.raises(IndexBuildError, match="PathIndex subclass"):
            register_index("rogue")(object)

    def test_graph_kind_checked(self):
        graph = Graph.from_edges([(0, 1)])
        digraph = DiGraph.from_arcs([(0, 1)])
        with pytest.raises(IndexBuildError, match="needs a DiGraph"):
            build_index(graph, "qbs-directed")
        with pytest.raises(IndexBuildError, match="needs a Graph"):
            build_index(digraph, "qbs")

    def test_aliases_resolve_to_canonical_name(self):
        assert get_index_class("qbs").method == "qbs"

    def test_bibfs_rejects_build_params(self):
        graph = Graph.from_edges([(0, 1)])
        with pytest.raises(IndexBuildError, match="no build parameters"):
            build_index(graph, "bibfs", num_landmarks=3)


# ----------------------------------------------------------------------
# Conformance: every family vs the oracle
# ----------------------------------------------------------------------

class TestConformance:
    @pytest.mark.parametrize("method", sorted(UNDIRECTED_METHODS))
    def test_oracle_agreement(self, method):
        params = UNDIRECTED_METHODS[method]
        for label, graph in small_corpus():
            index = build_index(graph, method, **params)
            assert isinstance(index, PathIndex)
            assert index.method == method
            pairs = sample_vertex_pairs(graph, 6, seed=73)
            batch = index.query_many(pairs)
            assert len(batch) == len(pairs)
            for (u, v), spg in zip(pairs, batch):
                oracle = spg_oracle(graph, u, v)
                assert spg == oracle, f"{method} {label} ({u},{v})"
                assert index.query(u, v) == oracle
                assert index.distance(u, v) == oracle.distance

    @pytest.mark.parametrize("method", sorted(UNDIRECTED_METHODS))
    def test_stats_and_size(self, method):
        graph = Graph.from_edges([(0, 1), (1, 2), (0, 3), (3, 2)])
        index = build_index(graph, method,
                            **({"num_landmarks": 2}
                               if method == "qbs" else {}))
        stats = index.stats
        assert stats["method"] == method
        assert stats["num_vertices"] == 4
        assert stats["num_edges"] == 4
        assert stats["size_bytes"] == index.size_bytes
        assert index.size_bytes >= 0

    def test_directed_oracle_agreement(self):
        for label, digraph in random_digraph_corpus(seed=910, count=5):
            index = build_index(digraph, "qbs-directed", num_landmarks=3)
            pairs = sample_vertex_pairs(digraph, 8, seed=77)
            for u, v in pairs:
                oracle = spg_oracle(digraph, u, v)
                assert index.query(u, v) == oracle, f"{label} ({u},{v})"
                assert index.distance(u, v) == oracle.distance

    def test_query_with_stats_contract(self):
        graph = Graph.from_edges([(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)])
        for method in sorted(UNDIRECTED_METHODS):
            index = build_index(graph, method,
                                **({"num_landmarks": 2}
                                   if method == "qbs" else {}))
            spg, stats = index.query_with_stats(0, 3)
            assert spg == spg_oracle(graph, 0, 3)
            # stats may be None (uninstrumented family) or SearchStats.
            if stats is not None:
                assert stats.edges_traversed >= 0


# ----------------------------------------------------------------------
# Persistence: uniform round trip for every family
# ----------------------------------------------------------------------

class TestPersistence:
    @pytest.mark.parametrize("method", sorted(UNDIRECTED_METHODS))
    def test_round_trip(self, method, tmp_path):
        params = UNDIRECTED_METHODS[method]
        label, graph = small_corpus(seed=920, count=3)[0]
        index = build_index(graph, method, **params)
        path = tmp_path / f"{method}.idx"
        index.save(path)
        loaded = load_index(path)
        assert type(loaded) is type(index)
        assert loaded.method == method
        assert loaded.size_bytes == index.size_bytes
        for u, v in sample_vertex_pairs(graph, 8, seed=79):
            assert loaded.query(u, v) == index.query(u, v)
            assert loaded.distance(u, v) == index.distance(u, v)

    def test_directed_round_trip(self, tmp_path):
        label, digraph = next(iter(random_digraph_corpus(seed=930)))
        index = build_index(digraph, "qbs-directed", num_landmarks=3)
        path = tmp_path / "directed.idx"
        index.save(path)
        loaded = load_index(path)
        assert type(loaded) is type(index)
        assert np.array_equal(loaded.landmarks, index.landmarks)
        for u, v in sample_vertex_pairs(digraph, 8, seed=81):
            assert loaded.query(u, v) == index.query(u, v)

    def test_peek_reads_header_without_loading(self, tmp_path):
        graph = Graph.from_edges([(0, 1), (1, 2)])
        path = tmp_path / "peek.idx"
        build_index(graph, "bibfs").save(path)
        header = peek_index(path)
        assert header["method"] == "bibfs"
        assert header["format"] == "repro-pathindex"

    def test_typed_load_rejects_other_family(self, tmp_path):
        graph = Graph.from_edges([(0, 1), (1, 2)])
        path = tmp_path / "typed.idx"
        build_index(graph, "bibfs").save(path)
        assert isinstance(PathIndex.load(path),
                          get_index_class("bibfs"))
        with pytest.raises(IndexFormatError, match="holds a 'bibfs'"):
            get_index_class("qbs").load(path)

    def test_load_rejects_truncated_archive(self, tmp_path):
        """Valid header but missing arrays -> IndexFormatError."""
        graph = Graph.from_edges([(0, 1), (1, 2)])
        index = build_index(graph, "qbs", num_landmarks=2)
        meta, arrays = index.to_state()
        del arrays["label_matrix"]
        import json

        header = json.dumps({"format": "repro-pathindex", "version": 1,
                             "method": "qbs", "state": meta})
        path = tmp_path / "truncated.idx"
        with open(path, "wb") as handle:
            np.savez_compressed(handle, __meta__=np.asarray(header),
                                **arrays)
        with pytest.raises(IndexFormatError, match="incomplete"):
            load_index(path)

    def test_load_rejects_invalid_csr(self, tmp_path):
        """A tampered adjacency array is rejected, not served."""
        graph = Graph.from_edges([(0, 1), (1, 2)])
        index = build_index(graph, "bibfs")
        meta, arrays = index.to_state()
        arrays["indices"] = arrays["indices"][:-1]  # break indptr[-1]
        import json

        header = json.dumps({"format": "repro-pathindex", "version": 1,
                             "method": "bibfs", "state": meta})
        path = tmp_path / "tampered.idx"
        with open(path, "wb") as handle:
            np.savez_compressed(handle, __meta__=np.asarray(header),
                                **arrays)
        with pytest.raises(IndexFormatError, match="incomplete"):
            load_index(path)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "garbage.idx"
        path.write_bytes(b"definitely not an index")
        with pytest.raises(IndexFormatError):
            load_index(path)

    def test_load_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, data=np.arange(3))
        with pytest.raises(IndexFormatError, match="not a repro"):
            load_index(path)

    def test_save_index_function_matches_method(self, tmp_path):
        graph = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
        index = build_index(graph, "naive")
        path = tmp_path / "naive.idx"
        save_index(index, path)
        assert load_index(path).query(0, 2) == index.query(0, 2)

    def test_format_is_pickle_free(self, tmp_path):
        """The archive loads with allow_pickle=False end to end."""
        graph = Graph.from_edges([(0, 1), (1, 2)])
        path = tmp_path / "qbs.idx"
        build_index(graph, "qbs", num_landmarks=2).save(path)
        with open(path, "rb") as handle:
            with np.load(handle, allow_pickle=False) as archive:
                assert "__meta__" in archive.files


# ----------------------------------------------------------------------
# QuerySession
# ----------------------------------------------------------------------

class TestQuerySession:
    @pytest.fixture
    def index(self):
        graph = Graph.from_edges(
            [(0, 1), (1, 2), (0, 3), (3, 2), (2, 4), (1, 4)]
        )
        return build_index(graph, "qbs", num_landmarks=2)

    def test_modes(self, index):
        graph = index.graph
        pairs = [(0, 2), (0, 4), (3, 4)]
        spg_report = QuerySession(index, QueryOptions(mode="spg")) \
            .run(pairs)
        distance_report = QuerySession(
            index, QueryOptions(mode="distance")).run(pairs)
        count_report = QuerySession(
            index, QueryOptions(mode="count-paths")).run(pairs)
        for (u, v), spg, d, count in zip(pairs, spg_report.results,
                                         distance_report.results,
                                         count_report.results):
            oracle = spg_oracle(graph, u, v)
            assert spg == oracle
            assert d == oracle.distance
            assert count == oracle.count_paths()

    def test_invalid_mode_rejected(self):
        with pytest.raises(QueryError, match="unknown query mode"):
            QueryOptions(mode="teleport")

    def test_lru_cache_hits_and_eviction(self, index):
        session = QuerySession(index, QueryOptions(mode="distance",
                                                   cache_size=2))
        # Sequential queries keep the classic LRU semantics.
        assert not session.query(0, 2).cached
        assert session.query(0, 2).cached
        session.query(0, 4)
        session.query(3, 4)  # evicts (0, 2)
        assert not session.query(0, 2).cached
        assert session.cache_len == 2
        session.clear_cache()
        assert session.cache_len == 0

    def test_bulk_distance_batch_dedupes_and_fills_cache(self, index):
        session = QuerySession(index, QueryOptions(mode="distance",
                                                   cache_size=8))
        report = session.run([(0, 2), (0, 2), (2, 0), (0, 4)])
        assert report.results == [index.distance(0, 2),
                                  index.distance(0, 2),
                                  index.distance(0, 2),
                                  index.distance(0, 4)]
        # One kernel pair per unique symmetric key; the duplicate and
        # the reversed pair are answered from the batch's dedup.
        assert [r.cached for r in report.records] == \
            [False, True, True, False]
        # Lifetime counters agree with the records: dedup answers
        # score as hits, exactly like the scalar path would have.
        assert session.cache_hits_total == 2
        assert session.cache_misses_total == 2
        follow_up = session.run([(2, 0)])
        assert follow_up.records[0].cached  # LRU hit across batches

    def test_static_families_report_version_zero(self, index):
        assert index.version == 0

    def test_cache_invalidated_by_index_mutation(self):
        """Satellite fix: cached answers must not survive updates.

        The cache key includes ``index.version``, so a mutation makes
        every previously cached entry unmatchable — the next query
        recomputes against the new graph instead of serving the old
        answer.
        """
        graph = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        index = build_index(graph, "dynamic")
        session = QuerySession(index, QueryOptions(mode="distance",
                                                   cache_size=8))
        assert session.query(0, 3).value == 3
        assert session.query(0, 3).cached  # warm
        index.insert_edge(0, 3)
        record = session.query(0, 3)
        assert not record.cached
        assert record.value == 1
        assert session.query(0, 3).cached  # warm again at new version
        index.remove_edge(0, 3)
        assert session.query(0, 3).value == 3

    def test_cached_results_identical(self, index):
        session = QuerySession(index, QueryOptions(cache_size=8))
        first = session.query(0, 4)
        second = session.query(0, 4)
        assert second.cached and not first.cached
        assert first.value == second.value

    def test_stats_aggregation(self, index):
        session = QuerySession(index, QueryOptions(collect_stats=True))
        report = session.run([(0, 4), (3, 4)])
        aggregate = report.aggregate_stats()
        assert aggregate["num_queries"] == 2
        assert aggregate["queries_with_stats"] == 2
        assert aggregate["edges_traversed"] >= 0

    def test_time_budget_truncates(self, index):
        session = QuerySession(index, QueryOptions(
            mode="distance", time_budget=1e-9))
        report = session.run([(0, 2)] * 50)
        assert report.truncated
        assert report.num_queries < 50

    def test_no_budget_runs_everything(self, index):
        report = QuerySession(index).run([(0, 2), (0, 4)])
        assert not report.truncated
        assert report.num_queries == 2

    def test_report_shape(self, index):
        report = QuerySession(index).run([])
        assert isinstance(report, BatchReport)
        assert report.results == []
        assert report.mean_query_ms() == 0.0

    def test_per_query_mode_override(self, index):
        session = QuerySession(index, QueryOptions(mode="distance"))
        record = session.query(0, 4, mode="count-paths")
        assert record.mode == "count-paths"
        assert record.value == spg_oracle(index.graph, 0, 4) \
            .count_paths()
        assert session.query(0, 4).mode == "distance"
        with pytest.raises(QueryError, match="unknown query mode"):
            session.query(0, 4, mode="teleport")

    def test_aggregate_stats_hit_rate_and_mode_counts(self, index):
        session = QuerySession(index, QueryOptions(mode="distance",
                                                   cache_size=8))
        report = BatchReport(mode="distance")
        for u, v, mode in [(0, 2, None), (0, 2, None),
                           (0, 4, "count-paths"), (0, 2, "distance")]:
            report.records.append(session.query(u, v, mode=mode))
        aggregate = report.aggregate_stats()
        assert aggregate["mode_counts"] == {"distance": 3,
                                            "count-paths": 1}
        assert aggregate["cache_hits"] == 2
        assert aggregate["cache_hit_rate"] == pytest.approx(0.5)
        # Session-lifetime counters agree with the batch.
        assert session.cache_hits_total == 2
        assert session.cache_misses_total == 2
        assert session.cache_hit_rate == pytest.approx(0.5)

    def test_empty_report_hit_rate_is_zero(self, index):
        aggregate = QuerySession(index).run([]).aggregate_stats()
        assert aggregate["cache_hit_rate"] == 0.0
        assert aggregate["mode_counts"] == {}

    def test_cache_is_thread_safe(self, index):
        """Satellite: hammer one cached session from many threads.

        Correctness bar: no lost updates, no exceptions, every thread
        sees the exact answers; the cache never exceeds its capacity.
        """
        import threading

        session = QuerySession(index, QueryOptions(mode="distance",
                                                   cache_size=4))
        graph = index.graph
        pairs = [(u, v) for u in range(graph.num_vertices)
                 for v in range(u + 1, graph.num_vertices)]
        expected = {pair: index.distance(*pair) for pair in pairs}
        failures = []

        def hammer(offset: int) -> None:
            for repeat in range(40):
                u, v = pairs[(offset + repeat) % len(pairs)]
                record = session.query(u, v)
                if record.value != expected[(u, v)]:
                    failures.append((u, v, record.value))
                if repeat % 5 == 0:
                    session.clear_cache()

        threads = [threading.Thread(target=hammer, args=(k,))
                   for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        assert session.cache_len <= 4
        assert session.cache_hits_total + session.cache_misses_total \
            == 8 * 40

    def test_session_works_for_every_family(self):
        graph = Graph.from_edges([(0, 1), (1, 2), (0, 3), (3, 2)])
        for method in sorted(UNDIRECTED_METHODS):
            index = build_index(graph, method,
                                **({"num_landmarks": 2}
                                   if method == "qbs" else {}))
            results = QuerySession(
                index, QueryOptions(mode="count-paths")).run(
                [(0, 2)]).results
            assert results == [2], method
