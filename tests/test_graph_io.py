"""Graph IO: edge-list text and npz binary round trips."""

import io
import os

import numpy as np
import pytest

from repro import Graph, GraphFormatError
from repro.graph import load_npz, read_edge_list, save_npz, write_edge_list
from repro.graph.generators import erdos_renyi
from repro.graph.io import parse_edge_lines
from repro.shard import load_partition, partition_graph, save_partition


class TestParseEdgeLines:
    def test_basic(self):
        assert list(parse_edge_lines(["0 1", "1 2"])) == [(0, 1), (1, 2)]

    def test_comments_skipped(self):
        lines = ["# header", "% konect", "// note", "0 1"]
        assert list(parse_edge_lines(lines)) == [(0, 1)]

    def test_blank_lines_skipped(self):
        assert list(parse_edge_lines(["", "  ", "0 1"])) == [(0, 1)]

    def test_extra_columns_ignored(self):
        assert list(parse_edge_lines(["0 1 3.5 1234567"])) == [(0, 1)]

    def test_tabs(self):
        assert list(parse_edge_lines(["0\t1"])) == [(0, 1)]

    def test_single_column_raises(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            list(parse_edge_lines(["42"]))

    def test_non_integer_raises(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            list(parse_edge_lines(["0 1", "a b"]))


class TestEdgeListFiles:
    def test_round_trip(self, tmp_path):
        g = erdos_renyi(40, 0.2, seed=1)
        path = tmp_path / "graph.txt"
        write_edge_list(g, path)
        assert read_edge_list(path) == g

    def test_round_trip_without_header(self, tmp_path):
        g = Graph.from_edges([(0, 1), (1, 2)])
        path = tmp_path / "graph.txt"
        write_edge_list(g, path, header=False)
        content = path.read_text()
        assert not content.startswith("#")
        assert read_edge_list(path) == g

    def test_read_from_file_object(self):
        handle = io.StringIO("0 1\n1 2\n")
        g = read_edge_list(handle)
        assert g.num_edges == 2

    def test_read_directed_input_symmetrizes(self, tmp_path):
        path = tmp_path / "directed.txt"
        path.write_text("0 1\n1 0\n1 2\n")
        g = read_edge_list(path)
        assert g.num_edges == 2

    def test_read_rejects_bad_argument(self):
        with pytest.raises(GraphFormatError):
            read_edge_list(12345)

    def test_num_vertices_override(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        g = read_edge_list(path, num_vertices=7)
        assert g.num_vertices == 7


class TestNpz:
    def test_round_trip(self, tmp_path):
        g = erdos_renyi(60, 0.15, seed=2)
        path = tmp_path / "graph.npz"
        save_npz(g, path)
        assert load_npz(path) == g

    def test_empty_graph_round_trip(self, tmp_path):
        g = Graph.empty(5)
        path = tmp_path / "empty.npz"
        save_npz(g, path)
        loaded = load_npz(path)
        assert loaded.num_vertices == 5
        assert loaded.num_edges == 0

    def test_rejects_foreign_npz(self, tmp_path):
        import numpy as np

        path = tmp_path / "foreign.npz"
        np.savez_compressed(path, data=np.arange(3))
        with pytest.raises(GraphFormatError):
            load_npz(path)


def _graph_case():
    return (save_npz, load_npz,
            [erdos_renyi(40, 0.2, seed=seed) for seed in (1, 2)],
            lambda g: (g.indptr.tolist(), g.indices.tolist()))


def _partition_case():
    graph = erdos_renyi(40, 0.2, seed=1)
    return (save_partition, load_partition,
            [partition_graph(graph, 3, method=method)
             for method in ("bfs", "hash")],
            lambda p: (p.num_shards, p.method, p.assignment.tolist()))


@pytest.mark.parametrize("case", [_graph_case, _partition_case])
class TestTaggedNpzFiles:
    """The graph archive and the partition map: one writer, one
    reader, the same promises."""

    def test_bare_name_is_taken_literally(self, case, tmp_path):
        save, load, (first, _), key = case()
        path = tmp_path / "x.part"
        save(first, path)
        assert os.listdir(tmp_path) == ["x.part"]
        assert key(load(path)) == key(first)

    def test_half_a_file_and_no_file_are_format_errors(self, case,
                                                       tmp_path):
        save, load, (first, _), _ = case()
        path = tmp_path / "whole.npz"
        save(first, path)
        data = path.read_bytes()
        half = tmp_path / "half.npz"
        for cut in (len(data) // 2, len(data) - 40):
            half.write_bytes(data[:cut])
            with pytest.raises(GraphFormatError, match="half.npz"):
                load(half)
        with pytest.raises(GraphFormatError, match="missing.npz"):
            load(tmp_path / "missing.npz")

    def test_failed_write_leaves_the_previous_file(self, case, tmp_path,
                                                   monkeypatch):
        save, load, (first, second), key = case()
        path = tmp_path / "kept.npz"
        save(first, path)

        def disk_full(handle, **arrays):
            handle.write(b"PK\x03\x04 half an archive")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(np, "savez_compressed", disk_full)
        with pytest.raises(OSError, match="No space left"):
            save(second, path)
        monkeypatch.undo()
        assert os.listdir(tmp_path) == ["kept.npz"]
        assert key(load(path)) == key(first)
        save(second, path)
        assert key(load(path)) == key(second)


class TestGzipEdgeLists:
    """Satellite: gzip-compressed SNAP-style edge lists."""

    def test_round_trip_gz(self, tmp_path):
        g = erdos_renyi(50, 0.15, seed=7)
        path = tmp_path / "graph.txt.gz"
        write_edge_list(g, path)
        import gzip

        with gzip.open(path, "rt", encoding="utf-8") as handle:
            assert handle.readline().startswith("#")
        assert read_edge_list(path) == g

    def test_reads_hand_written_snap_gz(self, tmp_path):
        import gzip

        path = tmp_path / "snap.txt.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("# Directed graph: example\n"
                         "# Nodes: 4 Edges: 5\n"
                         "0\t1\n1\t0\n1\t2\n2\t3\n0\t1\n")
        g = read_edge_list(path)
        # Duplicates and both orientations collapse to one edge each.
        assert g.num_edges == 3
        assert g.has_edge(0, 1) and g.has_edge(1, 2) and g.has_edge(2, 3)

    def test_plain_text_still_works(self, tmp_path):
        g = Graph.from_edges([(0, 1), (1, 2)])
        path = tmp_path / "plain.txt"
        write_edge_list(g, path)
        assert read_edge_list(path) == g


class TestSnapReader:
    """Satellite: arbitrary non-contiguous ids via read_snap_edge_list."""

    def test_compacts_sparse_ids(self, tmp_path):
        from repro.graph import read_snap_edge_list

        path = tmp_path / "sparse.txt"
        path.write_text("# comment\n1000000 7\n7 42\n42 1000000\n")
        g, ids = read_snap_edge_list(path)
        assert g.num_vertices == 3
        assert ids.tolist() == [7, 42, 1000000]
        assert g.num_edges == 3

    def test_gz_with_dedup_round_trip(self, tmp_path):
        import gzip

        import numpy as np

        from repro.graph import read_snap_edge_list

        path = tmp_path / "weird.txt.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("# SNAP-style dump, shuffled sparse ids\n")
            handle.write("900 30\n30 900\n900 30\n")
            handle.write("30 512\n512 17\n17 17\n")  # self loop dropped
        g, ids = read_snap_edge_list(path)
        assert ids.tolist() == [17, 30, 512, 900]
        assert g.num_edges == 3  # (30,900), (30,512), (512,17)
        # Round trip: write compact, re-read, identical structure.
        out = tmp_path / "round.txt.gz"
        write_edge_list(g, out)
        assert read_edge_list(out) == g
        # The id mapping inverts via searchsorted.
        assert int(np.searchsorted(ids, 512)) == 2

    def test_empty_and_errors(self, tmp_path):
        from repro.graph import read_snap_edge_list

        path = tmp_path / "empty.txt"
        path.write_text("# nothing but comments\n")
        g, ids = read_snap_edge_list(path)
        assert g.num_vertices == 0 and len(ids) == 0
        bad = tmp_path / "neg.txt"
        bad.write_text("-1 2\n")
        with pytest.raises(GraphFormatError, match="non-negative"):
            read_snap_edge_list(bad)
        with pytest.raises(GraphFormatError, match="expects a path"):
            read_snap_edge_list(12345)
