"""End-to-end integration on the workload stand-ins.

Slower than unit tests (each builds a real index) but still seconds:
spot-check exactness and the documented structural regimes on
representative datasets from each group.
"""

import pytest

from repro import BiBFS, QbSIndex, spg_oracle
from repro.analysis import pair_coverage
from repro.workloads import load_dataset, sample_pairs

REPRESENTATIVES = ("douban", "youtube", "friendster")


@pytest.mark.parametrize("name", REPRESENTATIVES)
def test_qbs_exact_on_dataset(name):
    graph = load_dataset(name)
    index = QbSIndex.build(graph, num_landmarks=20)
    for u, v in sample_pairs(graph, 15, seed=41):
        assert index.query(u, v) == spg_oracle(graph, u, v), (name, u, v)


@pytest.mark.parametrize("name", REPRESENTATIVES)
def test_bibfs_exact_on_dataset(name):
    graph = load_dataset(name)
    baseline = BiBFS(graph)
    for u, v in sample_pairs(graph, 10, seed=43):
        assert baseline.query(u, v) == spg_oracle(graph, u, v), (name, u, v)


def test_coverage_regimes_hold():
    """The Figure 8 extremes, as a cheap integration check."""
    pairs_hub = sample_pairs(load_dataset("youtube"), 60, seed=45)
    pairs_even = sample_pairs(load_dataset("friendster"), 60, seed=45)
    hub = QbSIndex.build(load_dataset("youtube"), num_landmarks=20)
    even = QbSIndex.build(load_dataset("friendster"), num_landmarks=20)
    assert pair_coverage(hub, pairs_hub).covered_ratio > 0.8
    assert pair_coverage(even, pairs_even).covered_ratio < 0.4


def test_save_load_on_dataset(tmp_path):
    graph = load_dataset("douban")
    index = QbSIndex.build(graph, num_landmarks=20)
    path = tmp_path / "douban.qbs"
    index.save(path)
    loaded = QbSIndex.load(path)
    for u, v in sample_pairs(graph, 8, seed=47):
        assert loaded.query(u, v) == index.query(u, v)


def test_distance_fastpath_on_dataset():
    graph = load_dataset("youtube")
    index = QbSIndex.build(graph, num_landmarks=20)
    for u, v in sample_pairs(graph, 20, seed=49):
        assert index.distance(u, v) == index.query(u, v).distance
