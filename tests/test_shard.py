"""Sharded subsystem tests: partitioner, overlay, index, builder, CLI.

The exactness bar mirrors the engine conformance suite but goes
wider on the sharding axes: shard counts {2, 4, 8}, two inner
families, hash and BFS partitions, disconnected graphs, and save/load
round trips — distances *and* SPG edge sets against the BFS oracle
throughout.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Graph, ShardedIndex, build_index, load_index, spg_oracle
from repro.errors import (
    GraphFormatError,
    IndexBuildError,
    ReproError,
    VertexError,
)
from repro.graph import (
    barabasi_albert,
    grid_2d,
    stochastic_block,
    watts_strogatz,
)
from repro.shard import (
    PARTITION_METHODS,
    ParallelBuilder,
    Partition,
    load_partition,
    partition_graph,
    save_partition,
)

from _corpus import random_graph_corpus, sample_vertex_pairs


def shard_corpus(seed=940, count=8):
    return [(label, graph)
            for label, graph in random_graph_corpus(seed=seed,
                                                    count=count)
            if graph.num_vertices >= 4]


# ----------------------------------------------------------------------
# Partitioner
# ----------------------------------------------------------------------

class TestPartitioner:
    @pytest.mark.parametrize("method", PARTITION_METHODS)
    def test_assignment_covers_every_vertex(self, method):
        for label, graph in shard_corpus():
            partition = partition_graph(graph, 3, method=method)
            assert partition.num_vertices == graph.num_vertices
            assert (partition.assignment >= 0).all()
            assert (partition.assignment < partition.num_shards).all()
            assert partition.shard_sizes().sum() == graph.num_vertices

    def test_shard_count_clamped_to_vertices(self):
        graph = Graph.from_edges([(0, 1), (1, 2)])
        partition = partition_graph(graph, 10)
        assert partition.num_shards == 3
        assert sorted(partition.assignment.tolist()) == [0, 1, 2]

    def test_every_shard_nonempty(self):
        for label, graph in shard_corpus(seed=950):
            for k in (2, 4):
                partition = partition_graph(graph, k)
                assert (partition.shard_sizes() > 0).all(), label

    def test_hash_method_balances_exactly(self):
        graph = barabasi_albert(101, 2, seed=3)
        partition = partition_graph(graph, 4, method="hash")
        sizes = partition.shard_sizes()
        assert sizes.max() - sizes.min() <= 1

    def test_bfs_recovers_community_structure(self):
        graph = stochastic_block([50] * 4, 0.15, 0.002, seed=5)
        partition = partition_graph(graph, 4)
        report = partition.quality_report(graph)
        assert report["balance"] <= 1.3
        assert report["cut_fraction"] < 0.1

    def test_forest_partition_has_tiny_cut(self):
        tree = barabasi_albert(2000, 1, seed=11)
        partition = partition_graph(tree, 4)
        report = partition.quality_report(tree)
        assert report["balance"] <= 1.3
        assert report["edge_cut"] <= 32
        assert report["boundary_fraction"] < 0.05

    def test_boundary_consistent_with_cut(self):
        graph = grid_2d(6, 6)
        partition = partition_graph(graph, 4)
        mask = partition.boundary_mask(graph)
        # Every cut edge has both endpoints flagged as boundary.
        for u, v in graph.edges():
            if partition.assignment[u] != partition.assignment[v]:
                assert mask[u] and mask[v]
        assert mask.sum() == len(partition.boundary_vertices(graph))

    def test_quality_report_shape(self):
        graph = grid_2d(5, 5)
        report = partition_graph(graph, 2).quality_report(graph)
        for key in ("method", "num_shards", "shard_sizes", "balance",
                    "edge_cut", "cut_fraction", "boundary_vertices",
                    "boundary_fraction"):
            assert key in report

    def test_single_shard_partition(self):
        graph = grid_2d(4, 4)
        partition = partition_graph(graph, 1)
        assert partition.num_shards == 1
        assert partition.edge_cut(graph) == 0
        assert len(partition.boundary_vertices(graph)) == 0

    def test_rejects_bad_inputs(self):
        graph = Graph.from_edges([(0, 1)])
        with pytest.raises(ReproError, match="num_shards"):
            partition_graph(graph, 0)
        with pytest.raises(ReproError, match="unknown partition"):
            partition_graph(graph, 2, method="metis")
        with pytest.raises(ReproError, match="out of range"):
            Partition(assignment=np.array([0, 5], dtype=np.int32),
                      num_shards=2, method="bfs")

    def test_partition_map_round_trip(self, tmp_path):
        graph = watts_strogatz(40, 4, 0.2, seed=9)
        partition = partition_graph(graph, 4, seed=2)
        path = tmp_path / "map.npz"
        save_partition(partition, path)
        loaded = load_partition(path)
        assert loaded.num_shards == partition.num_shards
        assert loaded.method == partition.method
        assert np.array_equal(loaded.assignment, partition.assignment)
        with pytest.raises(GraphFormatError):
            bad = tmp_path / "bad.npz"
            np.savez(bad, stuff=np.arange(3))
            load_partition(bad)

    def test_deterministic_for_fixed_seed(self):
        graph = barabasi_albert(120, 2, seed=8)
        first = partition_graph(graph, 4, seed=3)
        second = partition_graph(graph, 4, seed=3)
        assert np.array_equal(first.assignment, second.assignment)


# ----------------------------------------------------------------------
# Oracle exactness across the sharding axes
# ----------------------------------------------------------------------

class TestShardedExactness:
    @pytest.mark.parametrize("num_shards", [2, 4, 8])
    @pytest.mark.parametrize("inner", ["ppl", "qbs"])
    def test_oracle_exact_distances_and_spgs(self, num_shards, inner):
        params = {"num_landmarks": 3} if inner == "qbs" else {}
        for label, graph in shard_corpus():
            index = build_index(graph, "sharded",
                                num_shards=num_shards, inner=inner,
                                **params)
            for u, v in sample_vertex_pairs(graph, 8, seed=83):
                oracle = spg_oracle(graph, u, v)
                tag = f"{label} k={num_shards} {inner} ({u},{v})"
                assert index.distance(u, v) == oracle.distance, tag
                assert index.query(u, v) == oracle, tag

    def test_hash_partition_stays_exact(self):
        graph = barabasi_albert(60, 2, seed=21)
        index = build_index(graph, "sharded", num_shards=3,
                            inner="ppl", partition_method="hash")
        for u, v in sample_vertex_pairs(graph, 20, seed=87):
            assert index.query(u, v) == spg_oracle(graph, u, v)

    def test_disconnected_graph_and_shards(self):
        # Two components; shards end up internally disconnected too.
        edges = [(0, 1), (1, 2), (2, 3), (3, 0),
                 (10, 11), (11, 12), (12, 13)]
        graph = Graph.from_edges(edges, num_vertices=14)
        index = build_index(graph, "sharded", num_shards=4)
        assert index.distance(0, 2) == 2
        assert index.distance(0, 11) is None
        assert index.query(0, 11).distance is None
        assert index.query(10, 13) == spg_oracle(graph, 10, 13)

    def test_query_many_and_trivial_pairs(self):
        graph = grid_2d(5, 5)
        index = build_index(graph, "sharded", num_shards=4)
        pairs = [(0, 24), (7, 7), (3, 21)]
        answers = index.query_many(pairs)
        for (u, v), spg in zip(pairs, answers):
            assert spg == spg_oracle(graph, u, v)
        assert index.query(7, 7).distance == 0

    def test_vertex_validation(self):
        graph = grid_2d(3, 3)
        index = build_index(graph, "sharded", num_shards=2)
        with pytest.raises(VertexError):
            index.distance(0, 99)
        with pytest.raises(VertexError):
            index.query(-1, 0)


# ----------------------------------------------------------------------
# Index surface: stats, sizes, build validation
# ----------------------------------------------------------------------

class TestShardedIndexSurface:
    @pytest.fixture(scope="class")
    def index(self):
        graph = stochastic_block([30] * 4, 0.2, 0.01, seed=6)
        return build_index(graph, "sharded", num_shards=4,
                           inner="ppl")

    def test_stats_shape(self, index):
        stats = index.stats
        assert stats["method"] == "sharded"
        assert stats["inner"] == "ppl"
        assert stats["num_shards"] == 4
        assert len(stats["shard_size_bytes"]) == 4
        assert stats["max_shard_size_bytes"] \
            == max(stats["shard_size_bytes"])
        assert stats["boundary_vertices"] == index.overlay.num_boundary
        assert stats["size_bytes"] == index.size_bytes

    def test_size_accounts_for_every_piece(self, index):
        assert index.size_bytes >= sum(index.shard_size_bytes)
        assert max(index.shard_size_bytes) < index.size_bytes

    def test_per_shard_memory_below_monolithic(self, index):
        monolithic = build_index(index.graph, "ppl")
        assert max(index.shard_size_bytes) < monolithic.size_bytes

    def test_build_outcomes_reported(self, index):
        outcomes = index.build_outcomes
        assert outcomes is not None and len(outcomes) == 4
        for outcome in outcomes:
            assert outcome.seconds >= 0.0
            assert outcome.size_bytes > 0
        assert index.build_wall_seconds is not None

    def test_version_is_static(self, index):
        assert index.version == 0

    def test_rejects_directed_and_nested_inner(self):
        graph = grid_2d(3, 3)
        with pytest.raises(IndexBuildError, match="directed"):
            build_index(graph, "sharded", inner="qbs-directed")
        with pytest.raises(IndexBuildError, match="nest"):
            build_index(graph, "sharded", inner="sharded")

    def test_inner_params_pass_through(self):
        graph = grid_2d(4, 4)
        index = build_index(graph, "sharded", num_shards=2,
                            inner="qbs", num_landmarks=2)
        assert index.inner_method == "qbs"
        for shard in index.shard_indexes:
            assert shard.report.num_landmarks <= 2


# ----------------------------------------------------------------------
# Parallel builder
# ----------------------------------------------------------------------

class TestParallelBuilder:
    @pytest.mark.timeout(120)
    def test_parallel_build_matches_inline(self):
        graph = watts_strogatz(120, 4, 0.1, seed=13)
        inline = build_index(graph, "sharded", num_shards=4,
                             inner="ppl", workers=1)
        pooled = build_index(graph, "sharded", num_shards=4,
                             inner="ppl", workers=2)
        assert np.array_equal(pooled.partition.assignment,
                              inline.partition.assignment)
        assert np.array_equal(pooled.overlay.dist,
                              inline.overlay.dist)
        for u, v in sample_vertex_pairs(graph, 15, seed=91):
            assert pooled.distance(u, v) == inline.distance(u, v)
            assert pooled.query(u, v) == inline.query(u, v)

    def test_rejects_bad_worker_count(self):
        with pytest.raises(IndexBuildError, match="num_workers"):
            ParallelBuilder(num_workers=0)


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------

class TestShardedPersistence:
    @pytest.mark.parametrize("inner", ["ppl", "qbs"])
    def test_round_trip(self, inner, tmp_path):
        params = {"num_landmarks": 3} if inner == "qbs" else {}
        graph = barabasi_albert(70, 2, seed=17)
        index = build_index(graph, "sharded", num_shards=3,
                            inner=inner, **params)
        path = tmp_path / f"sharded-{inner}.idx"
        index.save(path)
        loaded = load_index(path)
        assert isinstance(loaded, ShardedIndex)
        assert loaded.inner_method == inner
        assert loaded.size_bytes == index.size_bytes
        assert np.array_equal(loaded.partition.assignment,
                              index.partition.assignment)
        for u, v in sample_vertex_pairs(graph, 12, seed=93):
            assert loaded.distance(u, v) == index.distance(u, v)
            assert loaded.query(u, v) == index.query(u, v)

    def test_round_trip_preserves_outcomes(self, tmp_path):
        graph = grid_2d(5, 5)
        index = build_index(graph, "sharded", num_shards=2)
        path = tmp_path / "grid.idx"
        index.save(path)
        loaded = load_index(path)
        assert loaded.build_outcomes is not None
        assert [o.shard for o in loaded.build_outcomes] == [0, 1]

    def test_corrupt_archive_rejected(self, tmp_path):
        import json

        from repro.errors import IndexFormatError

        graph = grid_2d(4, 4)
        index = build_index(graph, "sharded", num_shards=2)
        meta, arrays = index.to_state()
        # Drop one shard's arrays: the loader must refuse, not serve.
        arrays = {name: array for name, array in arrays.items()
                  if not name.startswith("shard1__")}
        header = json.dumps({"format": "repro-pathindex", "version": 1,
                             "method": "sharded", "state": meta})
        path = tmp_path / "corrupt.idx"
        with open(path, "wb") as handle:
            np.savez_compressed(handle, __meta__=np.asarray(header),
                                **arrays)
        with pytest.raises(IndexFormatError, match="incomplete"):
            load_index(path)


# ----------------------------------------------------------------------
# Serving: sharded snapshots through the existing worker pool
# ----------------------------------------------------------------------

class TestShardedServing:
    @pytest.mark.timeout(120)
    def test_serves_through_worker_pool(self):
        """A sharded snapshot ships to fork workers unchanged: the
        uniform to_state/from_state contract is all the pool needs."""
        from repro import QueryOptions
        from repro.serving import QueryService

        graph = stochastic_block([25] * 4, 0.2, 0.01, seed=6)
        index = build_index(graph, "sharded", num_shards=4,
                            inner="ppl")
        with QueryService(index, num_workers=2,
                          options=QueryOptions(mode="distance")) as service:
            pairs = sample_vertex_pairs(graph, 25, seed=95)
            answers = service.query_many(pairs)
        for (u, v), answer in zip(pairs, answers):
            assert answer.value == spg_oracle(graph, u, v).distance


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestShardCLI:
    def test_partition_command_reports_and_saves(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "map.npz"
        code = main(["partition", "--dataset", "douban",
                     "--shards", "4", "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "edge_cut" in captured
        assert "balance" in captured
        partition = load_partition(out)
        assert partition.num_shards == 4

    def test_build_sharded_with_shards_flag(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "douban.idx"
        code = main(["build", "--method", "sharded", "--dataset",
                     "douban", "--out", str(out), "--shards", "3",
                     "--param", "inner=qbs",
                     "--param", "num_landmarks=4"])
        assert code == 0
        index = load_index(out)
        assert isinstance(index, ShardedIndex)
        assert index.partition.num_shards == 3
        assert index.inner_method == "qbs"
        code = main(["query", "--index", str(out), "--random", "5",
                     "--mode", "distance"])
        assert code == 0

    def test_build_from_partition_file(self, tmp_path):
        from repro.cli import main

        part = tmp_path / "map.npz"
        out = tmp_path / "douban.idx"
        assert main(["partition", "--dataset", "douban", "--shards",
                     "2", "--out", str(part)]) == 0
        assert main(["build", "--method", "sharded", "--dataset",
                     "douban", "--out", str(out),
                     "--partition-file", str(part),
                     "--param", "inner=qbs",
                     "--param", "num_landmarks=4"]) == 0
        index = load_index(out)
        assert index.partition.num_shards == 2

    def test_shards_flag_rejected_for_other_methods(self, capsys):
        from repro.cli import main

        code = main(["build", "--method", "ppl", "--dataset",
                     "douban", "--out", "/tmp/nope.idx",
                     "--shards", "2"])
        assert code == 2
        assert "--shards" in capsys.readouterr().err
