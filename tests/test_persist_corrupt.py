"""Corruption robustness of the persistence layer.

Every index family's saved archive is truncated and byte-flipped at
seeded random offsets, and the loaders must raise
:class:`~repro.errors.IndexFormatError` — never a raw ``zipfile`` /
``zlib`` / ``struct`` / OS error, and never a silently partial index.
The packed label-store container gets the same treatment through
:meth:`LabelStore.open`, and its hot arrays — the ones every query
reads first — are checked at open as the archives' label CSRs are.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import Graph, load_index
from repro.engine import build_index, peek_index, read_index_state, \
    save_index
from repro.engine.persist import FORMAT_NAME, FORMAT_VERSION
from repro.errors import IndexFormatError
from repro.graph import barabasi_albert
from repro.baselines.ppl import PPLIndex
from repro.store import LabelStore, map_store_arrays, open_store_index, \
    pack_index_store, write_store

from _corpus import random_graph_corpus

#: Every undirected family, with small-graph-appropriate build params.
FAMILIES = {
    "qbs": {"num_landmarks": 3},
    "ppl": {},
    "parent-ppl": {},
    "naive": {},
    "bibfs": {},
    "dynamic": {},
    "sharded": {"num_shards": 2},
}

#: Truncation points per archive, as fractions of the file size.
#: 0.0 (empty file) and near-1.0 (one lost tail block) bracket the
#: seeded random cuts in between.
_CUT_FRACTIONS = (0.0, 0.33, 0.71, 0.97)


def _test_graph() -> Graph:
    for _, graph in random_graph_corpus(seed=402, count=8):
        if graph.num_vertices >= 12:
            return graph
    raise AssertionError("corpus produced no usable graph")


def _cut_offsets(size: int, seed: int):
    rng = np.random.default_rng(seed)
    offsets = {int(size * fraction) for fraction in _CUT_FRACTIONS}
    offsets.update(int(o) for o in rng.integers(1, max(2, size), 4))
    return sorted(o for o in offsets if o < size)


def _assert_only_index_format_error(opener, path) -> None:
    """``opener(path)`` must raise IndexFormatError and nothing else."""
    with pytest.raises(IndexFormatError):
        opener(path)


class TestTruncatedArchives:
    @pytest.mark.parametrize("method", sorted(FAMILIES))
    def test_every_family_fails_loudly(self, method, tmp_path):
        index = build_index(_test_graph(), method, **FAMILIES[method])
        path = tmp_path / f"{method}.idx"
        save_index(index, path)
        payload = path.read_bytes()
        assert load_index(path).method == method  # sanity: intact loads
        truncated = tmp_path / f"{method}.trunc"
        # Seeded per family name, stably across processes (the builtin
        # hash() is randomized per interpreter run).
        for offset in _cut_offsets(len(payload),
                                   seed=sum(method.encode()) % 997):
            truncated.write_bytes(payload[:offset])
            _assert_only_index_format_error(load_index, truncated)
            _assert_only_index_format_error(peek_index, truncated)

    def test_flipped_bytes_never_partial(self, tmp_path):
        # Bit rot inside the compressed stream: either the CRC layer
        # or the format layer must catch it as IndexFormatError (a
        # lucky flip that leaves the archive consistent may load, but
        # must load completely).
        index = build_index(_test_graph(), "ppl")
        path = tmp_path / "ppl.idx"
        save_index(index, path)
        payload = bytearray(path.read_bytes())
        rng = np.random.default_rng(11)
        corrupt = tmp_path / "ppl.flip"
        for _ in range(6):
            mutated = bytearray(payload)
            position = int(rng.integers(64, len(mutated)))
            mutated[position] ^= 0xFF
            corrupt.write_bytes(bytes(mutated))
            try:
                loaded = load_index(corrupt)
            except IndexFormatError:
                continue
            assert loaded.num_vertices == index.num_vertices
            assert loaded.num_entries() == index.num_entries()

    def test_empty_and_garbage_files(self, tmp_path):
        empty = tmp_path / "empty.idx"
        empty.write_bytes(b"")
        _assert_only_index_format_error(load_index, empty)
        garbage = tmp_path / "garbage.idx"
        garbage.write_bytes(bytes(range(256)) * 16)
        _assert_only_index_format_error(load_index, garbage)

    def test_legacy_pickle_refused(self, tmp_path):
        legacy = tmp_path / "legacy.idx"
        legacy.write_bytes(b"\x80\x04\x95deadbeef")
        with pytest.raises(IndexFormatError, match="pickle"):
            load_index(legacy)


# ----------------------------------------------------------------------
# Label CSRs that decode but do not add up
# ----------------------------------------------------------------------

def _first_row_of_two(offsets):
    return int(offsets[np.flatnonzero(np.diff(offsets) >= 2)[0]])


def _swap(name, i, j):
    def corrupt(arrays):
        arrays[name][[i, j]] = arrays[name][[j, i]]
    return corrupt


def _set(name, position, value):
    def corrupt(arrays):
        arrays[name][position] = value
    return corrupt


def _unsort_a_row(arrays):
    at = _first_row_of_two(arrays["label_offsets"])
    _swap("label_ranks", at, at + 1)(arrays)


def _drop_last_dist(arrays):
    arrays["label_dists"] = arrays["label_dists"][:-1]


#: Each edit leaves an archive that decodes but answers wrong (or
#: raises mid-query) if it loads.
LABEL_CORRUPTIONS = {
    "offsets-swapped": _swap("label_offsets", 10, 11),
    "offsets-not-from-zero": _set("label_offsets", 0, 1),
    "offsets-short-of-entries": _set("label_offsets", -1, 0),
    "dists-shorter-than-ranks": _drop_last_dist,
    "rank-out-of-range": _set("label_ranks", 5, 10 ** 6),
    "rank-negative": _set("label_ranks", 5, -1),
    "row-unsorted": _unsort_a_row,
    "dist-negative": _set("label_dists", 3, -1),
}

PARENT_CORRUPTIONS = {
    "parent-offsets-swapped": _swap("parent_offsets", 10, 11),
    "parent-offsets-overrun": _set("parent_offsets", -1, 10 ** 6),
    "parent-out-of-range": _set("parents", 0, 10 ** 6),
}

#: Archive name -> (method, build params): the label families and the
#: dynamic family over each.
LABEL_ARCHIVES = {
    "ppl": ("ppl", {}),
    "parent-ppl": ("parent-ppl", {}),
    "dynamic": ("dynamic", {}),
    "dynamic-parent-ppl": ("dynamic", {"family": "parent-ppl"}),
}


def _write_archive(path, method, state, arrays) -> None:
    header = json.dumps({"format": FORMAT_NAME, "version": FORMAT_VERSION,
                         "method": method, "state": state})
    with open(path, "wb") as handle:
        np.savez(handle, __meta__=np.asarray(header), **arrays)


def _corrupted_archive(tmp_path, archive, corruption):
    method, params = LABEL_ARCHIVES[archive]
    index = build_index(barabasi_albert(60, 2, seed=5), method, **params)
    if method == "dynamic":
        index.insert_edge(0, 59)
        index.remove_edge(*sorted(index.delta.edges())[7])
    good, bad = tmp_path / "good.idx", tmp_path / "bad.idx"
    save_index(index, good)
    _, state, arrays = read_index_state(good)
    _write_archive(bad, method, state, arrays)
    assert load_index(bad).method == method  # sanity: the writer is sound
    corruption(arrays)
    _write_archive(bad, method, state, arrays)
    return bad


class TestInconsistentLabelArrays:
    @pytest.mark.parametrize("corruption", sorted(LABEL_CORRUPTIONS))
    @pytest.mark.parametrize("archive", sorted(LABEL_ARCHIVES))
    def test_label_csr_checked_on_load(self, archive, corruption,
                                       tmp_path):
        bad = _corrupted_archive(tmp_path, archive,
                                 LABEL_CORRUPTIONS[corruption])
        _assert_only_index_format_error(load_index, bad)

    @pytest.mark.parametrize("corruption", sorted(PARENT_CORRUPTIONS))
    @pytest.mark.parametrize("archive", ["parent-ppl", "dynamic-parent-ppl"])
    def test_parent_csr_checked_on_load(self, archive, corruption,
                                        tmp_path):
        bad = _corrupted_archive(tmp_path, archive,
                                 PARENT_CORRUPTIONS[corruption])
        _assert_only_index_format_error(load_index, bad)


# ----------------------------------------------------------------------
# QbS label arrays that decode but do not add up
# ----------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "data" / "golden"

#: The golden QbS archives, each with the label matrices its loader
#: reads (a symmetric digraph's ``forward`` repeats ``backward`` and is
#: not read).
QBS_MATRICES = [("qbs.idx", "label_matrix"),
                ("qbs-directed-shared.idx", "backward"),
                ("qbs-directed-split.idx", "backward"),
                ("qbs-directed-split.idx", "forward")]


def _repeat_landmark(arrays, matrix):
    arrays["landmarks"][:] = arrays["landmarks"][0]


def _landmark_past_n(arrays, matrix):
    arrays["landmarks"][-1] = len(arrays[matrix])


def _float_landmarks(arrays, matrix):
    arrays["landmarks"] = arrays["landmarks"] + 0.5


def _drop_matrix_row(arrays, matrix):
    arrays[matrix] = arrays[matrix][:-1]


def _drop_matrix_column(arrays, matrix):
    arrays[matrix] = arrays[matrix][:, :-1]


def _label_a_landmark(arrays, matrix):
    arrays[matrix][arrays["landmarks"][1], 0] = 1


def _meta_key_past_r(arrays, matrix):
    arrays["meta_key"][0, 1] = len(arrays["landmarks"])


def _any_matrix(corrupt):
    return lambda arrays, matrix: corrupt(arrays)


#: Each edit of ``(arrays, matrix name)`` leaves an archive that loads
#: and answers wrong without the check: one repeated landmark in golden
#: ``qbs.idx`` gets 616 of its 1,936 SPGs wrong.
QBS_CORRUPTIONS = {
    "landmarks-repeated": _repeat_landmark,
    "landmark-out-of-range": _landmark_past_n,
    "landmarks-not-integer": _float_landmarks,
    "matrix-row-missing": _drop_matrix_row,
    "matrix-column-missing": _drop_matrix_column,
    "landmark-row-labelled": _label_a_landmark,
    "meta-key-out-of-range": _meta_key_past_r,
    "meta-key-negative": _any_matrix(_set("meta_key", (0, 0), -1)),
    "meta-weight-zero": _any_matrix(_set("meta_weight", 0, 0)),
}


def _shift_delta_len(step):
    def corrupt(arrays):
        arrays["delta_len"][0] += step
    return corrupt


def _delta_vertex_past_n(arrays):
    arrays["delta_edges"][0, 1] = len(arrays["label_matrix"])


DELTA_CORRUPTIONS = {
    "delta-len-long": _shift_delta_len(1),
    "delta-len-short": _shift_delta_len(-1),
    "delta-vertex-out-of-range": _delta_vertex_past_n,
    "delta-vertex-negative": _set("delta_edges", (0, 0), -1),
}


def _golden_rewritten(tmp_path, name, corruption):
    method, state, arrays = read_index_state(GOLDEN / name)
    arrays = {key: np.array(array) for key, array in arrays.items()}
    bad = tmp_path / name
    _write_archive(bad, method, state, arrays)
    assert load_index(bad).method == method  # sanity: the writer is sound
    corruption(arrays)
    _write_archive(bad, method, state, arrays)
    return bad


class TestInconsistentQbSArrays:
    @pytest.mark.parametrize("corruption", sorted(QBS_CORRUPTIONS))
    @pytest.mark.parametrize("name,matrix", QBS_MATRICES)
    def test_labels_checked_on_load(self, name, matrix, corruption,
                                    tmp_path):
        edit = QBS_CORRUPTIONS[corruption]
        bad = _golden_rewritten(tmp_path, name,
                                lambda arrays: edit(arrays, matrix))
        _assert_only_index_format_error(load_index, bad)

    @pytest.mark.parametrize("corruption", sorted(DELTA_CORRUPTIONS))
    def test_delta_checked_on_load(self, corruption, tmp_path):
        bad = _golden_rewritten(tmp_path, "qbs.idx",
                                DELTA_CORRUPTIONS[corruption])
        _assert_only_index_format_error(load_index, bad)


class TestTruncatedStores:
    @pytest.mark.parametrize("method", ("ppl", "parent-ppl"))
    def test_truncated_store_fails_loudly(self, method, tmp_path):
        index = build_index(_test_graph(), method)
        store_path = tmp_path / f"{method}.store"
        pack_index_store(index, store_path, head_width=4)
        payload = store_path.read_bytes()
        LabelStore.open(store_path).close()  # sanity: intact opens
        truncated = tmp_path / f"{method}.trunc"
        for offset in _cut_offsets(len(payload), seed=31):
            truncated.write_bytes(payload[:offset])
            _assert_only_index_format_error(LabelStore.open, truncated)
            _assert_only_index_format_error(load_index, truncated)

    def test_header_bitrot_fails_loudly(self, tmp_path):
        index = build_index(_test_graph(), "ppl")
        store_path = tmp_path / "ppl.store"
        pack_index_store(index, store_path)
        payload = bytearray(store_path.read_bytes())
        corrupt = tmp_path / "ppl.rot"
        # Mangle the JSON header (bytes 16..) so it no longer parses.
        mutated = bytearray(payload)
        mutated[20:24] = b"\x00\x00\x00\x00"
        corrupt.write_bytes(bytes(mutated))
        _assert_only_index_format_error(LabelStore.open, corrupt)

    def test_pread_catches_truncation_after_open(self, tmp_path):
        # A store truncated *between* the header and an array read —
        # the header validation covers declared sizes, so model this
        # by rewriting the file shorter after open. The pread backend
        # must turn the short read into IndexFormatError.
        index = build_index(_test_graph(), "ppl")
        store_path = tmp_path / "ppl.store"
        pack_index_store(index, store_path)
        store = LabelStore.open(store_path, io="pread")
        try:
            cold = store.array("label_ranks")
            with open(store_path, "r+b") as handle:
                handle.truncate(store_path.stat().st_size // 2)
            store.cache.clear()
            with pytest.raises(IndexFormatError, match="truncated"):
                for start in range(0, len(cold), 4096):
                    cold[start]
        finally:
            store.close()


# ----------------------------------------------------------------------
# Packed stores whose hot arrays decode but do not add up
# ----------------------------------------------------------------------

def _swap_first_rise(name):
    """Swap the first two entries of ``name`` that differ."""
    def corrupt(arrays):
        at = int(np.flatnonzero(np.diff(arrays[name]))[0])
        _swap(name, at, at + 1)(arrays)
    return corrupt


def _drop_last(name):
    def corrupt(arrays):
        arrays[name] = arrays[name][:-1]
    return corrupt


def _integer_head(arrays):
    """A signed-integer head: its absent entries read as distance 0."""
    head = arrays["head"]
    arrays["head"] = np.where(np.isinf(head), 0, head).astype(np.int32)


#: Each edit leaves a store whose header and payload extents are sound,
#: but which answers wrong (or fails deep in numpy) if it opens.
STORE_CORRUPTIONS = {
    "label-offsets-swapped": _swap("label_offsets", 10, 11),
    "tail-offsets-swapped": _swap_first_rise("tail_offsets"),
    "tail-offsets-short-of-entries": _set("tail_offsets", -1, 0),
    "order-short": _drop_last("order"),
    "head-row-missing": _drop_last("head"),
    "head-signed-integers": _integer_head,
}


def _rewrite_store(path, header, arrays) -> None:
    write_store(path, method=header["method"], state=header["state"],
                arrays=arrays,
                hot=[spec["name"] for spec in header["arrays"]
                     if spec["tier"] == "hot"],
                source_arrays=header["source_arrays"],
                extra={key: header[key] for key in (
                    "head_width", "hot_rows", "label_entries",
                    "num_vertices")})


class TestInconsistentStoreArrays:
    @pytest.mark.parametrize("corruption", sorted(STORE_CORRUPTIONS))
    @pytest.mark.parametrize("name", ["ppl.store", "parent-ppl.store"])
    def test_hot_arrays_checked_on_open(self, name, corruption,
                                        tmp_path):
        header, mapped = map_store_arrays(GOLDEN / name)
        arrays = {key: np.array(array) for key, array in mapped.items()}
        bad = tmp_path / name
        _rewrite_store(bad, header, arrays)
        # Sanity: the rewriter restates the golden file byte for byte.
        assert bad.read_bytes() == (GOLDEN / name).read_bytes()
        STORE_CORRUPTIONS[corruption](arrays)
        _rewrite_store(bad, header, arrays)
        _assert_only_index_format_error(open_store_index, bad)
        _assert_only_index_format_error(load_index, bad)

    @pytest.mark.parametrize("corruption", sorted(STORE_CORRUPTIONS))
    def test_snapshot_kernel_arrays_checked(self, corruption):
        """A serving snapshot's kernel arrays go through the same
        check when ``from_state`` wraps them."""
        _, mapped = map_store_arrays(GOLDEN / "ppl.store")
        arrays = {key: np.array(array) for key, array in mapped.items()}
        assert PPLIndex.from_state({}, arrays).method == "ppl"
        STORE_CORRUPTIONS[corruption](arrays)
        with pytest.raises(IndexFormatError):
            PPLIndex.from_state({}, arrays)
