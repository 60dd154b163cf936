"""Table 2 (left) — labelling construction time.

Benchmarks QbS construction on the timed subset, and PPL/ParentPPL on
the smallest stand-in. The assertions pin
the paper's qualitative result: QbS builds orders of magnitude faster
than the PPL family, which hits DNF walls as graphs grow.
"""

import pytest

from repro import QbSIndex
from repro._util import Stopwatch, TimeBudget
from repro.baselines import ParentPPLIndex, PPLIndex
from repro.errors import BudgetExceededError
from repro.workloads import load_dataset

from _bench import NUM_LANDMARKS, timed_datasets


@pytest.mark.parametrize("name", timed_datasets())
def test_qbs_construction(benchmark, name):
    graph = load_dataset(name)
    index = benchmark.pedantic(
        QbSIndex.build, args=(graph,),
        kwargs={"num_landmarks": NUM_LANDMARKS},
        rounds=3, iterations=1,
    )
    assert len(index.landmarks) == NUM_LANDMARKS


def test_ppl_construction_small(benchmark):
    graph = load_dataset("douban")
    index = benchmark.pedantic(
        PPLIndex.build, args=(graph,), rounds=1, iterations=1,
    )
    assert index.num_entries() > 0


def test_parent_ppl_construction_small(benchmark):
    graph = load_dataset("douban")
    index = benchmark.pedantic(
        ParentPPLIndex.build, args=(graph,), rounds=1, iterations=1,
    )
    assert index.num_parent_slots() > 0


def test_qbs_orders_of_magnitude_faster_than_ppl():
    """The Table 2 headline: 2-4 orders of magnitude on construction."""
    graph = load_dataset("douban")
    with Stopwatch() as sw_qbs:
        QbSIndex.build(graph, num_landmarks=NUM_LANDMARKS)
    with Stopwatch() as sw_ppl:
        PPLIndex.build(graph)
    assert sw_ppl.elapsed > 10 * sw_qbs.elapsed


def test_ppl_hits_dnf_wall_on_large_dataset():
    """The paper's DNF entries: PPL cannot build the big stand-ins
    within a budget that is generous for QbS."""
    graph = load_dataset("twitter")
    with Stopwatch() as sw_qbs:
        QbSIndex.build(graph, num_landmarks=NUM_LANDMARKS)
    budget = TimeBudget(max(2.0, 4 * sw_qbs.elapsed), label="PPL")
    with pytest.raises(BudgetExceededError):
        PPLIndex.build(graph, budget=budget)
