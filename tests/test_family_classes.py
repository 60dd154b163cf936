"""One class per index family.

Every registered method is exactly one class, defined (and registered)
in the family's own module: a build, an npz load and — for the label
families — a packed-store open all hand back that class, and its
``to_state`` layout is the fixed point archives and stores written by
earlier versions rely on — the ones checked in under
``tests/data/golden`` among them.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import IndexBuildError, IndexFormatError, available_methods, \
    build_index, load_index
from repro.baselines import BiBFS, NaiveLabelling, ParentPPLIndex, \
    PPLIndex, distance_oracle, spg_oracle
from repro.core import QbSIndex
from repro.directed import DirectedQbSIndex
from repro.dynamic import DynamicIndex
from repro.engine import get_index_class, read_index_state
from repro.graph import erdos_renyi
from repro.shard import ShardedIndex
from repro.store import open_store_index, pack_index_store

from _corpus import sample_vertex_pairs, shared_arrays

FAMILY_CLASSES = {
    "qbs": (QbSIndex, "repro.core.qbs"),
    "ppl": (PPLIndex, "repro.baselines.ppl"),
    "parent-ppl": (ParentPPLIndex, "repro.baselines.parent_ppl"),
    "naive": (NaiveLabelling, "repro.baselines.naive"),
    "bibfs": (BiBFS, "repro.baselines.bibfs"),
    "qbs-directed": (DirectedQbSIndex, "repro.directed.qbs"),
    "dynamic": (DynamicIndex, "repro.dynamic.index"),
    "sharded": (ShardedIndex, "repro.shard.index"),
}

GRAPH_CSR = {"indptr": np.int64, "indices": np.int32}
PPL_STATE = {**GRAPH_CSR, "order": np.int64, "label_offsets": np.int64,
             "label_ranks": np.int64, "label_dists": np.int32}

#: ``to_state`` array names (in order) and dtypes, per static family.
PINNED_STATE = {
    "ppl": PPL_STATE,
    "parent-ppl": {**PPL_STATE, "parent_offsets": np.int64,
                   "parents": np.int32},
    "qbs": {**GRAPH_CSR, "landmarks": np.int32, "label_matrix": np.uint8,
            "meta_key": np.int32, "meta_weight": np.int32,
            "delta_key": np.int32, "delta_len": np.int64,
            "delta_edges": np.int32},
    "naive": {**GRAPH_CSR, "matrix": np.int32},
    "bibfs": GRAPH_CSR,
    "qbs-directed": {"out_indptr": np.int64, "out_indices": np.int32,
                     "landmarks": np.int32, "forward": np.uint8,
                     "backward": np.uint8, "meta_key": np.int32,
                     "meta_weight": np.int32},
}


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(60, 0.08, seed=11)


def _build(graph, method):
    if get_index_class(method).directed:
        graph = shared_arrays(graph)
    return build_index(graph, method)


def test_registry_is_the_eight_family_classes():
    assert set(available_methods()) == set(FAMILY_CLASSES)
    for method, (cls, module) in FAMILY_CLASSES.items():
        assert get_index_class(method) is cls
        assert cls.__module__ == module
        assert cls.method == method


def test_parent_ppl_extends_ppl():
    assert issubclass(ParentPPLIndex, PPLIndex)


@pytest.mark.parametrize("method", sorted(FAMILY_CLASSES))
def test_build_and_load_return_the_family_class(graph, method, tmp_path):
    cls = FAMILY_CLASSES[method][0]
    index = _build(graph, method)
    assert type(index) is cls
    index.save(tmp_path / "saved.idx")
    assert type(load_index(tmp_path / "saved.idx")) is cls
    assert type(cls.load(tmp_path / "saved.idx")) is cls


@pytest.mark.parametrize("method", ["ppl", "parent-ppl"])
def test_store_open_returns_the_family_class(graph, method, tmp_path):
    pack_index_store(_build(graph, method), tmp_path / "packed.store")
    with open_store_index(tmp_path / "packed.store") as index:
        assert type(index) is FAMILY_CLASSES[method][0]
        assert index.label_store is not None


def test_typed_load_tells_ppl_from_parent_ppl(graph, tmp_path):
    """``ParentPPLIndex`` is-a ``PPLIndex``; typed loads still refuse
    the other family's archive."""
    _build(graph, "parent-ppl").save(tmp_path / "parent.idx")
    with pytest.raises(IndexFormatError, match="holds a 'parent-ppl'"):
        PPLIndex.load(tmp_path / "parent.idx")


def test_engine_import_alone_registers_every_family():
    """Families register from their own modules; importing the engine
    package must not trip over the cycle that creates."""
    code = ("import repro.engine as e; "
            "print(','.join(e.available_methods()))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip().split(",") == sorted(FAMILY_CLASSES)


@pytest.mark.parametrize("method", sorted(PINNED_STATE))
def test_to_state_layout_is_pinned(graph, method):
    _, arrays = _build(graph, method).to_state()
    pinned = PINNED_STATE[method]
    assert list(arrays) == list(pinned)
    assert {name: array.dtype for name, array in arrays.items()} \
        == {name: np.dtype(dtype) for name, dtype in pinned.items()}


@pytest.mark.parametrize("method", ["ppl", "parent-ppl"])
@pytest.mark.parametrize("io", ["mmap", "pread"])
def test_store_backed_index_promotes_to_dynamic(graph, method, io,
                                                tmp_path):
    pack_index_store(_build(graph, method), tmp_path / "packed.store")
    pairs = sample_vertex_pairs(graph, 40, seed=3)
    with open_store_index(tmp_path / "packed.store", io=io) as index:
        try:
            dynamic = DynamicIndex.from_static(index)
        except IndexBuildError:
            return
        assert dynamic.family == method
    # The promoted copy owns its labels: it outlives the closed store.
    expected = [distance_oracle(graph, u, v) for u, v in pairs]
    assert dynamic.distance_many(pairs) == expected
    assert [dynamic.distance(u, v) for u, v in pairs] == expected


# ----------------------------------------------------------------------
# Golden archives: the formats as a checked contract
# ----------------------------------------------------------------------

#: Archives of <= 50-vertex graphs, written once by the commit before
#: the ``PathIndex`` front door moved into ``engine/base.py`` and never
#: regenerated: a layout change has to bump the header version and add
#: a reader arm (or a typed refusal), it cannot re-save these.
GOLDEN = Path(__file__).parent / "data" / "golden"

GOLDEN_ARCHIVES = {
    "qbs.idx": "qbs", "ppl.idx": "ppl", "parent-ppl.idx": "parent-ppl",
    "naive.idx": "naive", "bibfs.idx": "bibfs", "dynamic.idx": "dynamic",
    "sharded.idx": "sharded",
    "qbs-directed-shared.idx": "qbs-directed",
    "qbs-directed-split.idx": "qbs-directed",
    "ppl.store": "ppl", "parent-ppl.store": "parent-ppl",
}


def _assert_oracle_exact(index, count=50):
    graph = index.graph
    assert graph.num_vertices <= 50
    pairs = sample_vertex_pairs(graph, count, seed=19)
    truth = [spg_oracle(graph, u, v) for u, v in pairs]
    assert [index.query(u, v) for u, v in pairs] == truth
    assert [index.distance(u, v) for u, v in pairs] \
        == index.distance_many(pairs) \
        == [spg.distance for spg in truth]


def test_golden_directory_is_exactly_the_catalogue():
    assert sorted(path.name for path in GOLDEN.iterdir()) \
        == sorted(GOLDEN_ARCHIVES)


@pytest.mark.parametrize("name", sorted(
    name for name in GOLDEN_ARCHIVES if name.endswith(".idx")))
def test_golden_archive_loads_answers_and_restates(name):
    method, state, arrays = read_index_state(GOLDEN / name)
    index = load_index(GOLDEN / name)
    assert method == index.method == GOLDEN_ARCHIVES[name]
    assert type(index) is FAMILY_CLASSES[method][0]
    # npz members carry timestamps: compare the arrays, not the files
    # (and before asking anything: ``dynamic`` counts its queries).
    restated, rearrays = index.to_state()
    assert restated == state
    assert list(rearrays) == list(arrays)
    for key, array in arrays.items():
        again = np.asarray(rearrays[key])
        assert (again.dtype, again.shape) == (array.dtype, array.shape), key
        assert again.tobytes() == array.tobytes(), key
    _assert_oracle_exact(index)


@pytest.mark.parametrize("method", ["ppl", "parent-ppl"])
def test_golden_store_opens_answers_and_repacks(method, tmp_path):
    golden = GOLDEN / f"{method}.store"
    with open_store_index(golden) as index:
        assert type(index) is FAMILY_CLASSES[method][0]
        _assert_oracle_exact(index)
        pack_index_store(index, tmp_path / "again.store")
    assert (tmp_path / "again.store").read_bytes() == golden.read_bytes()
    # The store and the archive of the same index restate each other.
    pack_index_store(GOLDEN / f"{method}.idx", tmp_path / "from-idx.store")
    assert (tmp_path / "from-idx.store").read_bytes() \
        == golden.read_bytes()
