"""Batch-distance kernel benchmark — vectorized vs the scalar loop.

The acceptance experiment for the vectorized ``distance_many``
subsystem on a 10k-vertex Barabási–Albert graph:

1. **Throughput** — the ``ppl`` family's batched kernel (one dense
   gather + min-reduction for the whole batch) must clear **>= 3x**
   the throughput of the same pairs answered through the scalar
   per-pair loop. The ``qbs``, ``dynamic`` and ``sharded`` kernels
   are timed and recorded alongside (qbs resolves only
   provably-tight sketch bounds vectorized and falls back to guided
   search for the rest, so its ratio is workload-dependent).
2. **Exactness** — on >= 300 sampled pairs per family the batched
   answers must show **0 mismatches** against the BFS oracle.

Alongside the assertions the module writes
``benchmarks/out/BENCH_batch.json`` (CI uploads it as an artifact).
"""

import pytest

from repro import build_index
from repro._util import Stopwatch
from repro.baselines.oracle import distance_oracle
from repro.dynamic import DynamicIndex
from repro.graph import barabasi_albert
from repro.workloads import generate_update_stream, sample_pairs

from _bench import write_artifact

#: >= 10k vertices, per the subsystem's acceptance experiment.
GRAPH_N = 10_000
GRAPH_M = 2
GRAPH_SEED = 7

#: Pairs per timing run and per oracle audit.
TIMED_PAIRS = 4_000
ORACLE_PAIRS = 300

#: The asserted floor: vectorized >= 3x the scalar loop (ppl).
SPEEDUP_FLOOR = 3.0

#: Gathered across tests, dumped by the final writer test.
_RESULTS = {}


@pytest.fixture(scope="module")
def bench_graph():
    return barabasi_albert(GRAPH_N, GRAPH_M, seed=GRAPH_SEED)


@pytest.fixture(scope="module")
def bench_pairs(bench_graph):
    return sample_pairs(bench_graph, TIMED_PAIRS, seed=13)


@pytest.fixture(scope="module")
def ppl_index(bench_graph):
    with Stopwatch() as sw:
        index = build_index(bench_graph, "ppl")
    _RESULTS.setdefault("build", {})["ppl_seconds"] = sw.elapsed
    return index


def _time_both(index, pairs):
    """(scalar answers, vectorized answers, per-mode throughput).

    The first kernel call is timed separately as ``prime_seconds`` —
    it includes the one-time flat-label packing that is cached on the
    index for its whole lifetime (the steady state every subsequent
    batch sees).
    """
    with Stopwatch() as sw_scalar:
        scalar = [index.distance(u, v) for u, v in pairs]
    with Stopwatch() as sw_prime:
        index.distance_many(pairs[:1])
    with Stopwatch() as sw_vector:
        vector = index.distance_many(pairs)
    return scalar, vector, {
        "pairs": len(pairs),
        "scalar_seconds": sw_scalar.elapsed,
        "prime_seconds": sw_prime.elapsed,
        "vectorized_seconds": sw_vector.elapsed,
        "scalar_qps": len(pairs) / sw_scalar.elapsed,
        "vectorized_qps": len(pairs) / sw_vector.elapsed,
        "speedup": sw_scalar.elapsed / sw_vector.elapsed,
    }


def _oracle_audit(graph, index, pairs):
    """Mismatch count of ``distance_many`` vs the BFS oracle."""
    answers = index.distance_many(pairs)
    return sum(1 for (u, v), value in zip(pairs, answers)
               if value != distance_oracle(graph, u, v))


@pytest.mark.timeout(900)
def test_ppl_kernel_speedup_and_exactness(bench_graph, ppl_index,
                                          bench_pairs):
    scalar, vector, timing = _time_both(ppl_index, bench_pairs)
    assert vector == scalar
    mismatches = _oracle_audit(bench_graph, ppl_index,
                               bench_pairs[:ORACLE_PAIRS])
    timing["oracle_pairs"] = ORACLE_PAIRS
    timing["oracle_mismatches"] = mismatches
    _RESULTS["ppl"] = timing
    assert mismatches == 0
    assert timing["speedup"] >= SPEEDUP_FLOOR, (
        f"vectorized ppl kernel is only {timing['speedup']:.2f}x the "
        f"scalar loop (floor {SPEEDUP_FLOOR}x)")


@pytest.mark.timeout(900)
def test_qbs_kernel_recorded(bench_graph, bench_pairs):
    with Stopwatch() as sw:
        index = build_index(bench_graph, "qbs", num_landmarks=20)
    _RESULTS.setdefault("build", {})["qbs_seconds"] = sw.elapsed
    pairs = bench_pairs[:1_000]
    scalar, vector, timing = _time_both(index, pairs)
    assert vector == scalar
    mismatches = _oracle_audit(bench_graph, index,
                               pairs[:ORACLE_PAIRS])
    timing["oracle_pairs"] = ORACLE_PAIRS
    timing["oracle_mismatches"] = mismatches
    _RESULTS["qbs"] = timing
    assert mismatches == 0


@pytest.mark.timeout(900)
def test_dynamic_kernel_under_mutations(bench_graph, ppl_index,
                                        bench_pairs):
    index = DynamicIndex.from_static(ppl_index, rebuild_threshold=0)
    operations = [op for op in generate_update_stream(
        bench_graph, 60, insert_frac=0.5, delete_frac=0.5, seed=17)
        if op.kind != "query"]
    index.apply_batch([(op.kind, op.u, op.v) for op in operations])
    current = index.graph
    pairs = bench_pairs[:1_500]
    scalar, vector, timing = _time_both(index, pairs)
    assert vector == scalar
    mismatches = sum(
        1 for (u, v), value in zip(pairs[:ORACLE_PAIRS],
                                   vector[:ORACLE_PAIRS])
        if value != distance_oracle(current, u, v))
    timing["oracle_pairs"] = ORACLE_PAIRS
    timing["oracle_mismatches"] = mismatches
    timing["phantom_edges"] = index.stats["phantom_edges"]
    _RESULTS["dynamic"] = timing
    assert mismatches == 0


@pytest.mark.timeout(900)
def test_sharded_kernel_recorded():
    # Sharding's home turf is a community graph (a BA graph has no
    # small cut, so its boundary — and every boundary-relay query —
    # is pathologically large; see benchmarks/test_partition.py).
    from repro.graph import stochastic_block
    from repro.graph.generators import largest_connected_component

    graph = largest_connected_component(
        stochastic_block([1_500] * 4, 0.0053, 0.000022, seed=31))
    with Stopwatch() as sw:
        index = build_index(graph, "sharded", num_shards=4,
                            inner="ppl")
    _RESULTS.setdefault("build", {})["sharded_seconds"] = sw.elapsed
    pairs = sample_pairs(graph, 800, seed=19)
    scalar, vector, timing = _time_both(index, pairs)
    assert vector == scalar
    mismatches = _oracle_audit(graph, index, pairs[:ORACLE_PAIRS])
    timing["oracle_pairs"] = ORACLE_PAIRS
    timing["oracle_mismatches"] = mismatches
    _RESULTS["sharded"] = timing
    assert mismatches == 0


@pytest.mark.timeout(120)
def test_write_bench_json():
    """Writer test: runs last, persists everything gathered above."""
    assert "ppl" in _RESULTS, "timing tests did not run"
    payload = {
        "graph": {"kind": "barabasi-albert", "num_vertices": GRAPH_N,
                  "m": GRAPH_M, "seed": GRAPH_SEED},
        "speedup_floor": SPEEDUP_FLOOR,
        **_RESULTS,
    }
    write_artifact("BENCH_batch.json", payload)
