"""Dynamic subsystem tests: DeltaGraph, incremental maintenance,
update streams, and the update-correctness property suite.

The property tests are the update analog of the engine conformance
suite: random insert/delete/query streams are replayed against a
:class:`~repro.dynamic.DynamicIndex` and, at every checkpoint, its
answers are compared with a freshly rebuilt index *and* the BFS
oracle on the current snapshot — distances and full shortest path
graphs both.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Graph, build_index, load_index, spg_oracle
from repro.baselines.oracle import distance_oracle
from repro.dynamic import DeltaGraph, DynamicIndex
from repro.errors import (
    GraphFormatError,
    GraphValidationError,
    IndexBuildError,
    QueryError,
    ReproError,
    VertexError,
)
from repro.graph import barabasi_albert, cycle_graph, erdos_renyi
from repro.workloads import (
    UpdateOp,
    generate_update_stream,
    read_update_stream,
    write_update_stream,
)

from _corpus import random_graph_corpus, sample_vertex_pairs


def apply_stream(index: DynamicIndex, ops) -> None:
    for kind, u, v in ops:
        if kind == "insert":
            index.insert_edge(u, v)
        elif kind == "delete":
            index.remove_edge(u, v)


def assert_oracle_exact(index: DynamicIndex, pairs, context="") -> None:
    """Index answers equal a fresh rebuild and the BFS oracle."""
    snapshot = index.graph
    fresh = build_index(snapshot, "ppl")
    for u, v in pairs:
        expected = distance_oracle(snapshot, u, v)
        assert index.distance(u, v) == expected, (context, u, v)
        assert fresh.distance(u, v) == expected, (context, u, v)
        assert index.query(u, v) == spg_oracle(snapshot, u, v), \
            (context, u, v)


# ----------------------------------------------------------------------
# DeltaGraph
# ----------------------------------------------------------------------

class TestDeltaGraph:
    @pytest.fixture
    def delta(self):
        return DeltaGraph(Graph.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]))

    def test_starts_as_base(self, delta):
        assert delta.num_edges == 5
        assert delta.delta_size == 0
        assert delta.snapshot() is delta.base

    def test_insert_and_remove(self, delta):
        assert delta.insert_edge(0, 2)
        assert delta.has_edge(0, 2)
        assert delta.num_edges == 6
        assert delta.remove_edge(1, 3)
        assert not delta.has_edge(1, 3)
        assert delta.num_edges == 5
        assert delta.added_edges() == [(0, 2)]
        assert delta.removed_edges() == [(1, 3)]

    def test_noops_return_false(self, delta):
        assert not delta.insert_edge(0, 1)  # already a base edge
        assert not delta.remove_edge(0, 2)  # never existed
        delta.insert_edge(0, 2)
        assert not delta.insert_edge(2, 0)  # already added
        delta.remove_edge(0, 2)
        assert not delta.remove_edge(0, 2)  # already removed
        assert delta.delta_size == 0

    def test_removed_base_edge_revives(self, delta):
        delta.remove_edge(0, 1)
        assert not delta.has_edge(0, 1)
        assert delta.insert_edge(0, 1)
        assert delta.has_edge(0, 1)
        assert delta.delta_size == 0
        assert set(delta.edges()) == set(delta.base.edges())

    def test_neighbors_merged_and_sorted(self, delta):
        delta.insert_edge(0, 2)
        delta.remove_edge(0, 3)
        assert delta.neighbors(0).tolist() == [1, 2]
        assert delta.degree(0) == 2
        assert delta.degree().tolist() == [2, 3, 3, 2]

    def test_version_and_snapshot_cache(self, delta):
        version = delta.version
        first = delta.snapshot()
        assert delta.snapshot() is first  # cached between mutations
        delta.insert_edge(0, 2)
        assert delta.version == version + 1
        second = delta.snapshot()
        assert second is not first
        assert second.has_edge(0, 2)
        assert not delta.insert_edge(0, 2)  # no-op: version unchanged
        assert delta.version == version + 1

    def test_snapshot_matches_edges(self, delta):
        delta.insert_edge(0, 2)
        delta.remove_edge(2, 3)
        rebuilt = Graph.from_edges(delta.edges(),
                                   num_vertices=delta.num_vertices)
        assert delta.snapshot() == rebuilt
        assert np.array_equal(delta.edge_array(), rebuilt.edge_array())

    def test_snapshot_after_streams_matches_edges(self):
        """After insert / delete / re-insert streams the array-built
        snapshot is the graph of ``edges()``, byte for byte, and a
        frontier's neighbours are its vertices' rows."""
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        base = erdos_renyi(12, 0.3, seed=91)
        vertex = st.integers(min_value=0, max_value=base.num_vertices - 1)
        op = st.tuples(st.sampled_from(("insert", "remove")), vertex,
                       vertex).filter(lambda op: op[1] != op[2])

        @settings(max_examples=40, deadline=None)
        @given(st.lists(op, max_size=30),
               st.lists(vertex, min_size=1, max_size=6))
        def run(ops, frontier):
            delta = DeltaGraph(base)
            for kind, u, v in ops:
                getattr(delta, f"{kind}_edge")(u, v)
            expected = Graph.from_edges(list(delta.edges()),
                                        num_vertices=base.num_vertices)
            snapshot = delta.snapshot()
            for name in ("indptr", "indices"):
                got, want = getattr(snapshot, name), getattr(expected, name)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
            frontier = np.array(frontier, dtype=np.int64)
            assert sorted(delta.neighbors_many(frontier).tolist()) \
                == sorted(np.concatenate(
                    [delta.neighbors(v) for v in frontier]).tolist())

        run()

    def test_neighbors_many_keys_past_int32(self):
        """A frontier of neighbour ids is int32; packed keys of a
        50k-vertex graph overflow it unless widened."""
        delta = DeltaGraph(Graph.from_edges([(0, 49_999), (1, 49_999)],
                                            num_vertices=50_000))
        delta.remove_edge(0, 49_999)
        for dtype in (np.int32, np.int64):
            frontier = np.array([49_999], dtype=dtype)
            assert delta.neighbors_many(frontier).tolist() == [1]

    def test_traversal_and_oracle_run_on_overlay(self, delta):
        """The Graph adjacency surface works on a DeltaGraph as-is."""
        delta.insert_edge(0, 2)
        delta.remove_edge(1, 2)
        snapshot = delta.snapshot()
        assert spg_oracle(delta, 0, 2) == spg_oracle(snapshot, 0, 2)
        assert distance_oracle(delta, 1, 3) == \
            distance_oracle(snapshot, 1, 3)

    def test_self_loop_rejected(self, delta):
        with pytest.raises(GraphValidationError, match="self loop"):
            delta.insert_edge(2, 2)

    def test_vertex_range_checked(self, delta):
        with pytest.raises(VertexError):
            delta.insert_edge(0, 99)
        with pytest.raises(VertexError):
            delta.remove_edge(-1, 2)


# ----------------------------------------------------------------------
# Update streams
# ----------------------------------------------------------------------

class TestUpdateStreams:
    @pytest.fixture
    def graph(self):
        return erdos_renyi(25, 0.15, seed=4)

    def test_stream_valid_in_order(self, graph):
        ops = generate_update_stream(graph, 120, seed=9)
        assert len(ops) == 120
        edges = set(graph.edges())
        for kind, u, v in ops:
            edge = (u, v) if u < v else (v, u)
            if kind == "insert":
                assert edge not in edges
                edges.add(edge)
            elif kind == "delete":
                assert edge in edges
                edges.discard(edge)
            else:
                assert kind == "query" and u != v

    def test_seeded_determinism(self, graph):
        assert generate_update_stream(graph, 50, seed=3) == \
            generate_update_stream(graph, 50, seed=3)
        assert generate_update_stream(graph, 50, seed=3) != \
            generate_update_stream(graph, 50, seed=4)

    def test_mix_roughly_honoured(self, graph):
        ops = generate_update_stream(graph, 400, insert_frac=0.5,
                                     delete_frac=0.25, seed=1)
        kinds = [op.kind for op in ops]
        assert 0.4 < kinds.count("insert") / 400 < 0.6
        assert 0.15 < kinds.count("delete") / 400 < 0.35
        assert kinds.count("query") > 0

    def test_dense_graph_degrades_to_queries(self):
        from repro.graph import complete_graph

        ops = generate_update_stream(complete_graph(4), 30,
                                     insert_frac=1.0, delete_frac=0.0,
                                     seed=0)
        assert len(ops) == 30
        assert all(op.kind == "query" for op in ops)

    def test_bad_parameters_rejected(self, graph):
        with pytest.raises(ReproError, match="sum to"):
            generate_update_stream(graph, 10, insert_frac=0.8,
                                   delete_frac=0.4)
        with pytest.raises(ReproError, match="num_ops"):
            generate_update_stream(graph, -1)
        with pytest.raises(ReproError, match="two vertices"):
            generate_update_stream(Graph.empty(1), 5)

    def test_file_round_trip(self, graph, tmp_path):
        ops = generate_update_stream(graph, 40, seed=2)
        path = tmp_path / "ops.txt"
        write_update_stream(path, ops)
        assert read_update_stream(path) == ops

    def test_read_skips_comments_and_words(self, tmp_path):
        path = tmp_path / "ops.txt"
        path.write_text("# header\n\n+ 1 2\nquery 3 4\n- 5 6\n")
        assert read_update_stream(path) == [
            UpdateOp("insert", 1, 2),
            UpdateOp("query", 3, 4),
            UpdateOp("delete", 5, 6),
        ]

    def test_read_rejects_garbage(self, tmp_path):
        path = tmp_path / "ops.txt"
        path.write_text("+ 1\n")
        with pytest.raises(GraphFormatError, match="expected"):
            read_update_stream(path)
        path.write_text("? one two\n")
        with pytest.raises(GraphFormatError, match="integers"):
            read_update_stream(path)


# ----------------------------------------------------------------------
# DynamicIndex: construction surface
# ----------------------------------------------------------------------

class TestDynamicConstruction:
    def test_build_families(self):
        graph = cycle_graph(6)
        for family in ("ppl", "parent-ppl"):
            index = build_index(graph, "dynamic", family=family)
            assert index.family == family
            assert index.method == "dynamic"
            assert index.distance(0, 3) == 3

    def test_unknown_family_rejected(self):
        with pytest.raises(IndexBuildError, match="families"):
            build_index(cycle_graph(5), "dynamic", family="qbs")

    def test_paper_variant_rejected(self):
        """The label families build one (sound) way; no variant knob
        passes through the dynamic wrapper."""
        with pytest.raises(TypeError):
            build_index(cycle_graph(5), "dynamic", variant="paper")

    def test_from_static_promotion_copies_labels(self):
        graph = cycle_graph(8)
        static = build_index(graph, "ppl")
        before = [list(x) for x in static._label_ranks]
        dynamic = DynamicIndex.from_static(static)
        dynamic.insert_edge(0, 4)
        assert dynamic.distance(0, 4) == 1
        # the static index is untouched by the mutation
        assert static._label_ranks == before
        assert static.distance(0, 4) == 4

    def test_from_static_rejects_other_families(self):
        graph = cycle_graph(5)
        with pytest.raises(IndexBuildError, match="promote"):
            DynamicIndex.from_static(build_index(graph, "bibfs"))

    def test_batch_and_bad_op_kind(self):
        index = build_index(cycle_graph(6), "dynamic")
        summary = index.apply_batch([
            ("insert", 0, 2), ("+", 0, 3), ("delete", 0, 1),
            ("-", 0, 1),  # second delete of the same edge: no-op
        ])
        assert summary["applied"] == 3
        assert summary["noops"] == 1
        with pytest.raises(QueryError, match="unknown update operation"):
            index.apply_batch([("teleport", 0, 1)])


# ----------------------------------------------------------------------
# Incremental correctness: single-kind updates
# ----------------------------------------------------------------------

class TestInsertions:
    def test_inserts_stay_exact(self):
        rng = np.random.default_rng(42)
        for label, graph in list(random_graph_corpus(seed=50, count=8)):
            index = build_index(graph, "dynamic", rebuild_threshold=0)
            n = graph.num_vertices
            for step in range(8):
                u, v = _absent_pair(rng, index.graph)
                assert index.insert_edge(u, v)
                assert index.distance(u, v) == 1
            pairs = sample_vertex_pairs(graph, 12, seed=51)
            assert_oracle_exact(index, pairs, context=label)

    def test_bridge_insert_connects_components(self):
        graph = Graph.from_edges(
            [(0, 1), (1, 2), (3, 4), (4, 5)], num_vertices=6)
        index = build_index(graph, "dynamic")
        assert index.distance(0, 5) is None
        index.insert_edge(2, 3)
        assert index.distance(0, 5) == 5
        assert index.query(0, 5).edges == frozenset(
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])


class TestDeletions:
    def test_deletes_stay_exact(self):
        rng = np.random.default_rng(43)
        for label, graph in list(random_graph_corpus(seed=60, count=8)):
            if graph.num_edges < 6:
                continue
            index = build_index(graph, "dynamic", rebuild_threshold=0)
            edges = list(graph.edges())
            for slot in rng.choice(len(edges), size=4, replace=False):
                assert index.remove_edge(*edges[int(slot)])
            pairs = sample_vertex_pairs(graph, 12, seed=61)
            assert_oracle_exact(index, pairs, context=label)

    def test_cut_edge_disconnects(self):
        graph = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        index = build_index(graph, "dynamic")
        index.remove_edge(1, 2)
        assert index.distance(0, 3) is None
        assert index.query(0, 3).edges == frozenset()
        assert index.stats["fallback_queries"] >= 1

    def test_detour_after_deletion(self):
        index = build_index(cycle_graph(8), "dynamic")
        assert index.distance(0, 3) == 3
        index.remove_edge(1, 2)
        assert index.distance(0, 3) == 5  # the long way round
        assert index.query(0, 3) == spg_oracle(index.graph, 0, 3)


def _absent_pair(rng, graph):
    n = graph.num_vertices
    while True:
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v and not graph.has_edge(u, v):
            return u, v


# ----------------------------------------------------------------------
# The update-correctness property suite (mixed streams)
# ----------------------------------------------------------------------

class TestMixedStreamProperty:
    """Random mixed streams; oracle-exact at every checkpoint."""

    @pytest.mark.parametrize("family,graph_seed,stream_seed", [
        ("ppl", 70, 170),
        ("ppl", 71, 171),
        ("ppl", 72, 172),
        ("parent-ppl", 73, 173),
    ])
    def test_checkpointed_streams(self, family, graph_seed, stream_seed):
        graph = erdos_renyi(36, 0.09, seed=graph_seed)
        index = build_index(graph, "dynamic", family=family,
                            rebuild_threshold=0)
        current = DeltaGraph(graph)
        ops = generate_update_stream(graph, 60, insert_frac=0.4,
                                     delete_frac=0.3, seed=stream_seed)
        for step, (kind, u, v) in enumerate(ops):
            if kind == "insert":
                index.insert_edge(u, v)
                current.insert_edge(u, v)
            elif kind == "delete":
                index.remove_edge(u, v)
                current.remove_edge(u, v)
            else:
                snapshot = current.snapshot()
                assert index.distance(u, v) == \
                    distance_oracle(snapshot, u, v), (family, step)
                assert index.query(u, v) == \
                    spg_oracle(snapshot, u, v), (family, step)
            if step % 15 == 14:
                pairs = sample_vertex_pairs(graph, 10,
                                            seed=stream_seed + step)
                assert_oracle_exact(index, pairs,
                                    context=(family, step))
        assert index.graph == current.snapshot()

    def test_stream_with_auto_rebuilds(self):
        graph = barabasi_albert(40, 2, seed=80)
        index = build_index(graph, "dynamic", rebuild_threshold=9)
        ops = generate_update_stream(graph, 50, insert_frac=0.45,
                                     delete_frac=0.35, seed=81)
        apply_stream(index, ops)
        assert index.stats["rebuilds"] >= 3
        assert index.stats["phantom_edges"] < 9
        pairs = sample_vertex_pairs(graph, 15, seed=82)
        assert_oracle_exact(index, pairs, context="auto-rebuild")


class TestHypothesisStreams:
    """Arbitrary (even invalid) op sequences never break exactness."""

    def test_arbitrary_ops_stay_exact(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        base = erdos_renyi(14, 0.2, seed=90)
        n = base.num_vertices
        vertex = st.integers(min_value=0, max_value=n - 1)
        op = st.tuples(st.booleans(), vertex, vertex)

        @settings(max_examples=25, deadline=None)
        @given(st.lists(op, max_size=25))
        def run(ops):
            index = build_index(base, "dynamic", rebuild_threshold=0)
            for is_insert, u, v in ops:
                if u == v:
                    continue  # self loops are rejected by design
                if is_insert:
                    index.insert_edge(u, v)
                else:
                    index.remove_edge(u, v)
            snapshot = index.graph
            for u in range(n):
                dist = index.distance(0, u)
                assert dist == distance_oracle(snapshot, 0, u)
            assert index.query(0, n - 1) == spg_oracle(snapshot, 0, n - 1)

        run()


# ----------------------------------------------------------------------
# Policy, stats, versioning, persistence
# ----------------------------------------------------------------------

class TestPolicyAndStats:
    def test_threshold_triggers_rebuild(self):
        index = build_index(cycle_graph(10), "dynamic",
                            rebuild_threshold=3)
        index.insert_edge(0, 5)
        index.remove_edge(0, 1)
        assert index.stats["rebuilds"] == 0
        index.insert_edge(2, 7)  # third mutation
        stats = index.stats
        assert stats["rebuilds"] == 1
        assert stats["phantom_edges"] == 0
        assert stats["added_edges"] == 0
        assert stats["ops_since_rebuild"] == 0
        # the rebuilt base owns all surviving edges
        assert index.delta.base.has_edge(2, 7)
        assert not index.delta.base.has_edge(0, 1)

    def test_zero_threshold_never_rebuilds(self):
        index = build_index(cycle_graph(10), "dynamic",
                            rebuild_threshold=0)
        for step in range(8):
            index.insert_edge(step, (step + 3) % 10)
        assert index.stats["rebuilds"] == 0

    def test_negative_threshold_rejected(self):
        with pytest.raises(IndexBuildError, match=">= 0"):
            build_index(cycle_graph(5), "dynamic", rebuild_threshold=-1)

    def test_version_counts_applied_mutations_only(self):
        index = build_index(cycle_graph(6), "dynamic")
        assert index.version == 0
        index.insert_edge(0, 2)
        index.insert_edge(0, 2)  # no-op
        index.remove_edge(0, 2)
        assert index.version == 2
        assert index.stats["noops"] == 1

    def test_stats_shape(self):
        index = build_index(cycle_graph(6), "dynamic")
        stats = index.stats
        for key in ("method", "family", "base_edges", "added_edges",
                    "phantom_edges", "label_entries", "repaired_entries",
                    "inserts", "removes", "rebuilds", "version",
                    "validated_queries", "fallback_queries",
                    "rebuild_threshold"):
            assert key in stats, key
        assert stats["method"] == "dynamic"
        assert stats["size_bytes"] == index.size_bytes

    def test_stats_count_the_overlay(self):
        index = build_index(cycle_graph(8), "dynamic", rebuild_threshold=0)
        index.insert_edge(0, 4)
        index.remove_edge(1, 2)
        stats = index.stats
        assert index.delta._snapshot is None  # no snapshot materialised
        assert (stats["num_vertices"], stats["num_edges"]) == (8, 8)
        assert stats["num_edges"] == index.graph.num_edges


class TestDynamicPersistence:
    @pytest.mark.parametrize("family", ["ppl", "parent-ppl"])
    def test_round_trip_with_pending_delta(self, family, tmp_path):
        graph = erdos_renyi(24, 0.14, seed=95)
        index = build_index(graph, "dynamic", family=family,
                            rebuild_threshold=0)
        ops = generate_update_stream(graph, 25, insert_frac=0.45,
                                     delete_frac=0.35, seed=96)
        apply_stream(index, ops)
        path = tmp_path / "dyn.idx"
        index.save(path)
        loaded = load_index(path)
        assert type(loaded) is DynamicIndex
        assert loaded.family == family
        assert loaded.version == index.version
        assert loaded.stats == index.stats
        assert loaded.graph == index.graph
        pairs = sample_vertex_pairs(graph, 15, seed=97)
        for u, v in pairs:
            assert loaded.distance(u, v) == index.distance(u, v)
            assert loaded.query(u, v) == index.query(u, v)
        # the loaded copy keeps evolving correctly
        u, v = _absent_pair(np.random.default_rng(98), loaded.graph)
        loaded.insert_edge(u, v)
        assert_oracle_exact(loaded, pairs, context="after-load")
