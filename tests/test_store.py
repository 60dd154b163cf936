"""Tests for the out-of-core label store (:mod:`repro.store`).

Covers the container format (pack / open round-trips, crash-safe
writes, magic detection), the block-granular page cache (LRU
eviction, pinning, counters), the store-backed index families
(exactness against the fully-resident originals on every query
surface), the loader integration (``load_index`` on a packed store),
the CLI subcommands, and serving the label families from a
``directory=`` on a disk.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import Graph, load_index
from repro.engine import build_index, describe_index, peek_index, save_index
from repro.engine.session import QueryOptions
from repro.errors import IndexFormatError
from repro.store import (
    CachedArray,
    LabelStore,
    PageCache,
    is_store_file,
    map_store_arrays,
    open_store_index,
    pack_index_store,
    write_store,
)

from _corpus import FIGURE4_EDGES

STORE_FAMILIES = ("ppl", "parent-ppl")


def random_graph(n: int, seed: int) -> Graph:
    from repro.graph import barabasi_albert

    return barabasi_albert(n, 2, seed=seed)


def _packed(tmp_path, method, *, graph=None, name="packed.store",
            **pack_kwargs):
    """Build, save, pack: returns ``(original_index, store_path)``."""
    if graph is None:
        graph = random_graph(90, seed=5)
    index = build_index(graph, method=method)
    npz = tmp_path / "original.idx"
    save_index(index, npz)
    store_path = tmp_path / name
    pack_index_store(npz, store_path, **pack_kwargs)
    return index, store_path


# ----------------------------------------------------------------------
# Page cache
# ----------------------------------------------------------------------

class TestPageCache:
    def test_hit_miss_counters(self):
        cache = PageCache(budget_bytes=1 << 20, block_bytes=512)
        loads = []

        def loader():
            loads.append(1)
            return np.zeros(64, dtype=np.int64)

        cache.get("a", loader)
        cache.get("a", loader)
        cache.get("a", loader)
        assert len(loads) == 1
        stats = cache.stats()
        assert stats["misses"] == 1 and stats["hits"] == 2
        assert stats["hit_rate"] == pytest.approx(2 / 3)

    def test_lru_eviction_order(self):
        # Budget for exactly two 512-byte blocks.
        cache = PageCache(budget_bytes=1024, block_bytes=512)
        block = lambda: np.zeros(64, dtype=np.int64)  # noqa: E731
        cache.get("a", block)
        cache.get("b", block)
        cache.get("a", block)        # refresh "a": "b" is now oldest
        cache.get("c", block)        # evicts "b"
        misses = cache.stats()["misses"]
        cache.get("a", block)        # still resident
        assert cache.stats()["misses"] == misses
        cache.get("b", block)        # was evicted: a fresh miss
        assert cache.stats()["misses"] == misses + 1
        assert cache.stats()["evictions"] >= 1

    def test_pinned_blocks_never_evicted(self):
        cache = PageCache(budget_bytes=1024, block_bytes=512)
        block = lambda: np.zeros(64, dtype=np.int64)  # noqa: E731
        cache.pin("hub", block)
        for i in range(10):          # churn far past the budget
            cache.get(f"k{i}", block)
        misses = cache.stats()["misses"]
        cache.get("hub", block)
        assert cache.stats()["misses"] == misses
        assert cache.stats()["pinned_hits"] >= 1
        assert cache.pinned_bytes == 512

    def test_resident_bytes_respect_budget(self):
        cache = PageCache(budget_bytes=2048, block_bytes=512)
        for i in range(20):
            cache.get(i, lambda: np.zeros(64, dtype=np.int64))
        assert cache.resident_bytes <= 2048


class TestCachedArray:
    def _array(self, data, block_bytes=512, budget=1 << 20):
        data = np.asarray(data)
        cache = PageCache(budget_bytes=budget, block_bytes=block_bytes)

        def fetch(lo, hi):
            return data[lo:hi].copy()

        return CachedArray("x", len(data), data.dtype, fetch,
                           cache), data

    def test_scalar_and_slice_reads(self):
        wrapped, data = self._array(np.arange(1000, dtype=np.int64))
        assert wrapped[0] == 0 and wrapped[999] == 999
        assert wrapped[-1] == 999
        np.testing.assert_array_equal(wrapped[10:900], data[10:900])
        np.testing.assert_array_equal(wrapped[:], data)

    def test_fancy_indexing_matches_numpy(self):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 1 << 40, 5000).astype(np.int64)
        wrapped, _ = self._array(data, block_bytes=512)
        selector = rng.integers(0, 5000, 700)
        np.testing.assert_array_equal(wrapped[selector], data[selector])

    def test_correct_under_heavy_eviction(self):
        # Budget of two blocks over a 5000-element array: every read
        # pattern still returns exact values.
        data = np.arange(5000, dtype=np.int64) * 7
        wrapped, _ = self._array(data, block_bytes=512, budget=1024)
        rng = np.random.default_rng(9)
        selector = rng.integers(0, 5000, 2000)
        np.testing.assert_array_equal(wrapped[selector], data[selector])
        assert wrapped._cache.stats()["evictions"] > 0


# ----------------------------------------------------------------------
# Container format
# ----------------------------------------------------------------------

class TestContainerFormat:
    def test_write_open_round_trip(self, tmp_path):
        path = tmp_path / "t.store"
        hot = np.arange(10, dtype=np.int64)
        cold = np.arange(100, dtype=np.float64)
        write_store(path, method="ppl", state={"k": 1},
                    arrays={"hot_a": hot, "cold_a": cold},
                    hot=("hot_a",), source_arrays=("hot_a", "cold_a"))
        assert is_store_file(path)
        with LabelStore.open(path) as store:
            np.testing.assert_array_equal(store.array("hot_a"), hot)
            np.testing.assert_array_equal(store.array("cold_a")[:],
                                          cold)
            assert store.state == {"k": 1}
            assert store.hot_bytes == hot.nbytes
            assert store.cold_bytes == cold.nbytes

    def test_map_store_arrays_shares_one_read_only_mapping(self,
                                                           tmp_path):
        """The whole-file reader: every array, hot or cold, 2-D or
        empty, as a read-only view that outlives the path."""
        path = tmp_path / "t.store"
        arrays = {"matrix": np.arange(12, dtype=np.uint8).reshape(3, 4),
                  "flat": np.arange(1000, dtype=np.int64) * 3,
                  "empty": np.zeros((0, 2), dtype=np.int32)}
        write_store(path, method="ppl", state={"k": [1, 2]},
                    arrays=arrays, hot=("matrix", "empty"),
                    source_arrays=arrays)
        header, mapped = map_store_arrays(path)
        os.unlink(path)
        assert header["state"] == {"k": [1, 2]}
        assert list(mapped) == list(arrays)
        for name, array in arrays.items():
            view = mapped[name]
            assert view.dtype == array.dtype
            assert view.shape == array.shape
            np.testing.assert_array_equal(view, array)
            assert not view.flags.writeable
            assert not view.flags.owndata
            assert type(view) is np.ndarray
        with pytest.raises(IndexFormatError, match="cannot read"):
            map_store_arrays(path)

    @pytest.mark.parametrize("field,value", [
        ("shape", [11]), ("nbytes", 72), ("offset", -4096),
        ("dtype", "no-such-dtype"), ("shape", ["ten"])])
    def test_inconsistent_array_spec_rejected(self, tmp_path, field,
                                              value):
        """Readers size their views from dtype and shape: a header
        whose spec disagrees with itself must fail as a format error,
        not as a numpy error out of `frombuffer`."""
        import json

        path = tmp_path / "t.store"
        write_store(path, method="ppl", state={},
                    arrays={"a": np.arange(10, dtype=np.int64)},
                    hot=("a",), source_arrays=("a",))
        raw = path.read_bytes()
        length = int.from_bytes(raw[8:16], "little")
        header = json.loads(raw[16:16 + length])
        header["arrays"][0][field] = value
        # The header is padded to a page, so there is room to grow.
        encoded = json.dumps(header).encode("utf-8")
        assert 16 + len(encoded) <= 4096
        path.write_bytes(raw[:8] + len(encoded).to_bytes(8, "little")
                         + encoded.ljust(4096 - 16, b"\x00")
                         + raw[4096:])
        for reader in (map_store_arrays, LabelStore.open):
            with pytest.raises(IndexFormatError, match="malformed"):
                reader(path)

    def test_not_a_store(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"definitely not a store")
        assert not is_store_file(path)
        with pytest.raises(IndexFormatError):
            LabelStore.open(path)

    def test_crash_safe_write_leaves_no_temp(self, tmp_path):
        # An object-dtype array is rejected *after* the temp file is
        # created; the failed write must clean it up and leave the
        # destination untouched.
        path = tmp_path / "t.store"
        with pytest.raises(IndexFormatError):
            write_store(path, method="ppl", state={},
                        arrays={"bad": np.array([object()])},
                        hot=(), source_arrays=("bad",))
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_unknown_array_name_rejected(self, tmp_path):
        _, store_path = _packed(tmp_path, "ppl")
        with LabelStore.open(store_path) as store:
            with pytest.raises(IndexFormatError, match="no array"):
                store.array("nonexistent")

    def test_reads_after_close_fail(self, tmp_path):
        _, store_path = _packed(tmp_path, "ppl")
        store = LabelStore.open(store_path, io="pread")
        cold = store.array("label_ranks")
        store.close()
        with pytest.raises(IndexFormatError, match="closed"):
            cold[len(cold) - 1]


# ----------------------------------------------------------------------
# Store-backed indexes: exactness on every query surface
# ----------------------------------------------------------------------

class TestStoreIndexExactness:
    @pytest.mark.parametrize("method", STORE_FAMILIES)
    @pytest.mark.parametrize("io", ("mmap", "pread"))
    def test_matches_resident_index(self, tmp_path, method, io):
        original, store_path = _packed(tmp_path, method,
                                       head_width=4, hot_rows=8)
        with open_store_index(store_path, io=io,
                              cache_bytes=1 << 16,
                              block_bytes=1 << 12) as index:
            assert index.method == method
            assert index.num_vertices == original.num_vertices
            assert index.num_entries() == original.num_entries()
            rng = np.random.default_rng(0)
            n = original.num_vertices
            pairs = [(int(u), int(v))
                     for u, v in rng.integers(0, n, (150, 2))]
            assert index.distance_many(pairs) == \
                original.distance_many(pairs)
            for u, v in pairs[:30]:
                assert index.distance(u, v) == original.distance(u, v)
                mine = index.query(u, v)
                theirs = original.query(u, v)
                assert mine.distance == theirs.distance
                assert mine.edges == theirs.edges
            stats = index.store_stats()
            assert stats["hits"] + stats["misses"] \
                + stats["pinned_hits"] > 0

    @pytest.mark.parametrize("method", STORE_FAMILIES)
    def test_exact_under_tiny_cache(self, tmp_path, method):
        # A cache of a few blocks forces constant eviction; answers
        # must not change.
        original, store_path = _packed(tmp_path, method, head_width=2)
        with open_store_index(store_path, io="pread",
                              cache_bytes=2048,
                              block_bytes=512) as index:
            rng = np.random.default_rng(1)
            n = original.num_vertices
            pairs = [(int(u), int(v))
                     for u, v in rng.integers(0, n, (200, 2))]
            assert index.distance_many(pairs) == \
                original.distance_many(pairs)
            assert index.store_stats()["evictions"] > 0

    def test_paper_example_spg(self, tmp_path):
        graph = Graph.from_edges(FIGURE4_EDGES)
        original, store_path = _packed(tmp_path, "parent-ppl",
                                       graph=graph)
        with open_store_index(store_path) as index:
            spg = index.query(5, 10)
            assert spg.distance == original.query(5, 10).distance
            assert spg.edges == original.query(5, 10).edges

    def test_pack_from_live_index(self, tmp_path):
        graph = random_graph(60, seed=2)
        index = build_index(graph, method="ppl")
        store_path = tmp_path / "live.store"
        pack_index_store(index, store_path)
        with open_store_index(store_path) as opened:
            pairs = [(0, 5), (3, 40), (10, 59)]
            assert opened.distance_many(pairs) == \
                index.distance_many(pairs)

    def test_non_label_family_rejected(self, tmp_path):
        graph = random_graph(40, seed=4)
        index = build_index(graph, method="bibfs")
        with pytest.raises(IndexFormatError, match="ppl"):
            pack_index_store(index, tmp_path / "no.store")

    def test_hub_rows_are_pinned(self, tmp_path):
        _, store_path = _packed(tmp_path, "ppl", head_width=2)
        with open_store_index(store_path, hot_rows=16,
                              cache_bytes=1 << 16,
                              block_bytes=512) as index:
            stats = index.store_stats()
            assert stats["pinned_bytes"] > 0


# ----------------------------------------------------------------------
# Loader integration
# ----------------------------------------------------------------------

class TestLoaderIntegration:
    def test_load_index_dispatches_to_store(self, tmp_path):
        original, store_path = _packed(tmp_path, "ppl")
        index = load_index(store_path)
        try:
            assert index.method == "ppl"
            assert index.distance(0, 10) == original.distance(0, 10)
            assert hasattr(index, "label_store")
        finally:
            index.close()

    def test_peek_and_describe_store(self, tmp_path):
        _, store_path = _packed(tmp_path, "parent-ppl")
        header = peek_index(store_path)
        assert header["format"] == "repro-labelstore"
        assert header["method"] == "parent-ppl"
        description = describe_index(store_path)
        assert description["kind"] == "store"
        tiers = {spec["name"]: spec["tier"]
                 for spec in description["arrays"]}
        assert tiers["head"] == "hot"
        assert tiers["tail_ranks"] == "cold"
        assert tiers["parents"] == "cold"

    def test_describe_npz_reads_no_payload(self, tmp_path):
        graph = random_graph(30, seed=1)
        index = build_index(graph, method="ppl")
        npz = tmp_path / "a.idx"
        save_index(index, npz)
        description = describe_index(npz)
        assert description["kind"] == "npz"
        names = {spec["name"] for spec in description["arrays"]}
        assert "label_ranks" in names and "__meta__" not in names

    def test_save_index_leaves_no_temp_on_success(self, tmp_path):
        graph = random_graph(30, seed=1)
        index = build_index(graph, method="ppl")
        npz = tmp_path / "a.idx"
        save_index(index, npz)
        assert [p.name for p in tmp_path.iterdir()] == ["a.idx"]
        # Overwrite in place: still exactly one file, still loadable.
        save_index(index, npz)
        assert [p.name for p in tmp_path.iterdir()] == ["a.idx"]
        assert load_index(npz).num_vertices == 30


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestCli:
    def _build(self, tmp_path, capsys):
        from repro.cli import main

        npz = tmp_path / "cli.idx"
        assert main(["build", "--method", "ppl", "--dataset",
                     "douban", "--out", str(npz)]) == 0
        capsys.readouterr()
        return npz

    def test_inspect_and_store_commands(self, tmp_path, capsys):
        from repro.cli import main

        npz = self._build(tmp_path, capsys)
        assert main(["inspect", str(npz)]) == 0
        out = capsys.readouterr().out
        assert "repro-pathindex" in out and "label_ranks" in out

        store_path = tmp_path / "cli.store"
        assert main(["store", "pack", "--index", str(npz), "--out",
                     str(store_path), "--head-width", "8"]) == 0
        out = capsys.readouterr().out
        assert "hot" in out and "cold" in out

        assert main(["store", "inspect", str(store_path)]) == 0
        out = capsys.readouterr().out
        assert "repro-labelstore" in out

        # The generic query command serves straight off the store.
        assert main(["query", "--index", str(store_path),
                     "--random", "4", "--mode", "distance"]) == 0

    def test_store_inspect_rejects_npz(self, tmp_path, capsys):
        from repro.cli import main

        npz = self._build(tmp_path, capsys)
        assert main(["store", "inspect", str(npz)]) == 2
        assert "not a packed store" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Serving the label families from a directory on a disk
# ----------------------------------------------------------------------

class TestServingFromDirectory:
    """An index bigger than RAM is served from a ``directory=`` on a
    disk: each epoch is one mapped file there, batch-kernel arrays
    included, whose pages are the OS page cache the fleet shares."""

    @pytest.mark.parametrize("method", STORE_FAMILIES)
    def test_answers_like_the_source(self, method, tmp_path):
        from repro.serving import QueryService

        graph = random_graph(120, seed=6)
        index = build_index(graph, method=method)
        rng = np.random.default_rng(2)
        pairs = [(int(u), int(v))
                 for u, v in rng.integers(0, 120, (80, 2))]
        with QueryService(index, num_workers=2, directory=tmp_path,
                          options=QueryOptions(mode="distance")
                          ) as service:
            assert [path.name for path in tmp_path.iterdir()] \
                == ["snapshot-000000.store"]
            answers = service.query_many(pairs)
            assert [a.value for a in answers] == \
                index.distance_many(pairs)
            assert {a.epoch for a in answers} == {0}
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("method", STORE_FAMILIES)
    def test_retirement_keeps_two_files(self, method, tmp_path):
        from repro.serving.snapshot import SnapshotManager

        graph = random_graph(50, seed=8)
        index = build_index(graph, method=method)
        with SnapshotManager(index, directory=tmp_path) as manager:
            for _ in range(4):
                manager.publish()
            stores = sorted(p.name for p in tmp_path.iterdir())
            # keep=2: older snapshots were unlinked.
            assert stores == ["snapshot-000002.store",
                              "snapshot-000003.store"]
            assert all(is_store_file(tmp_path / name)
                       for name in stores)
