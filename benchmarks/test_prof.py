"""Continuous-profiling benchmark — sampling must be ~free and honest.

Two acceptance numbers for :mod:`repro.obs.profiler`, written to
``benchmarks/out/BENCH_prof.json`` (CI uploads it as an artifact):

1. **Overhead** — the ``ppl`` batch-kernel query path (1024-pair
   ``query_many`` batches, cache off) with a ``SamplingProfiler``
   running at the default rate must stay within **5%** of the same
   path with no profiler. Reps alternate enabled/disabled so thermal
   and allocator drift cancel; the compared statistic is the per-side
   minimum — scheduler noise only ever inflates a rep, so the min is
   the cleanest estimate of the true cost on a shared CI box, and the
   sampler's real overhead is paid in every rep including the min.
2. **Attribution** — while a cross-shard query workload runs under an
   active profiler, at least **80%** of the collected samples must
   contain a frame under ``repro/`` — the profiler points at the
   engine, not at interpreter plumbing. (``fraction_in`` matches the
   full stack, so numpy leaves reached *from* repro count.)
"""

import statistics
import time

import numpy as np
import pytest

from repro import QueryOptions, build_index
from repro.engine.session import QuerySession
from repro.graph import barabasi_albert, stochastic_block
from repro.obs.profiler import DEFAULT_HZ, SamplingProfiler
from repro.workloads import sample_pairs

from _bench import write_artifact

GRAPH_N = 4_000
GRAPH_M = 2
GRAPH_SEED = 11

BATCH_PAIRS = 1_024
#: Alternating profiled/unprofiled reps. Each rep times several
#: consecutive batches so the profiled window (~tens of ms) spans
#: multiple 67 Hz sampler ticks — a single ~4 ms batch would usually
#: see zero samples and prove nothing.
REPS_PER_SIDE = 15
BATCHES_PER_REP = 5
OVERHEAD_LIMIT = 0.05

#: Attribution workload: planted communities force cross-shard work.
SBM_SIZES = (700, 700, 700)
SBM_P_IN = 0.01
SBM_P_OUT = 0.001
ATTRIBUTION_FLOOR = 0.80
#: Keep querying at least this long so the sampler gets a fair look.
ATTRIBUTION_SECONDS = 2.0
MIN_SAMPLES = 40

_RESULTS = {}


@pytest.fixture(scope="module")
def ppl_index():
    graph = barabasi_albert(GRAPH_N, GRAPH_M, seed=GRAPH_SEED)
    return build_index(graph, "ppl")


def _time_batches(index, pairs) -> float:
    """One rep: fresh session, several cache-less kernel batches,
    wall seconds."""
    session = QuerySession(index, QueryOptions(mode="distance",
                                               cache_size=0))
    start = time.perf_counter()
    for _ in range(BATCHES_PER_REP):
        session.query_many(pairs)
    return time.perf_counter() - start


@pytest.mark.timeout(900)
def test_profiler_overhead_within_five_percent(ppl_index):
    pairs = sample_pairs(ppl_index.graph, BATCH_PAIRS, seed=3)
    # Warm both paths (numpy pools, label pages) before timing.
    _time_batches(ppl_index, pairs)
    enabled, disabled = [], []
    samples = 0
    for _ in range(REPS_PER_SIDE):
        with SamplingProfiler(DEFAULT_HZ) as profiler:
            enabled.append(_time_batches(ppl_index, pairs))
        samples += profiler.sample_count
        disabled.append(_time_batches(ppl_index, pairs))
    enabled_best = min(enabled)
    disabled_best = min(disabled)
    overhead = enabled_best / disabled_best - 1.0
    # The profiled side really was sampled.
    assert samples > 0
    _RESULTS["overhead"] = {
        "batch_pairs": BATCH_PAIRS,
        "reps_per_side": REPS_PER_SIDE,
        "batches_per_rep": BATCHES_PER_REP,
        "hz": DEFAULT_HZ,
        "samples": samples,
        "enabled_best_ms": enabled_best * 1e3,
        "disabled_best_ms": disabled_best * 1e3,
        "enabled_p50_ms": statistics.median(enabled) * 1e3,
        "disabled_p50_ms": statistics.median(disabled) * 1e3,
        "overhead_fraction": overhead,
        "limit_fraction": OVERHEAD_LIMIT,
    }
    assert overhead <= OVERHEAD_LIMIT, (
        f"profiled batch path is {overhead * 100:.2f}% slower than "
        f"the unprofiled baseline (limit {OVERHEAD_LIMIT * 100:.0f}%)")


@pytest.mark.timeout(900)
def test_cross_shard_samples_attributed_to_repro():
    graph = stochastic_block(SBM_SIZES, SBM_P_IN, SBM_P_OUT, seed=5)
    index = build_index(graph, "sharded",
                        num_shards=len(SBM_SIZES), inner="ppl")
    shard = index.partition.assignment
    rng = np.random.default_rng(7)
    pairs = []
    while len(pairs) < 64:
        u, v = (int(x) for x in rng.integers(0, graph.num_vertices, 2))
        if shard[u] != shard[v]:
            pairs.append((u, v))
    session = QuerySession(index, QueryOptions(mode="distance",
                                               cache_size=0))
    # Warm once so imports and first-touch pages are off the clock.
    for u, v in pairs:
        session.query(u, v)
    deadline = time.perf_counter() + ATTRIBUTION_SECONDS
    with SamplingProfiler(DEFAULT_HZ) as profiler:
        while (time.perf_counter() < deadline
               or profiler.sample_count < MIN_SAMPLES):
            for u, v in pairs:
                session.query(u, v)
    fraction = profiler.fraction_in("repro/")
    _RESULTS["attribution"] = {
        "graph": {"kind": "stochastic-block", "sizes": list(SBM_SIZES),
                  "p_in": SBM_P_IN, "p_out": SBM_P_OUT},
        "pairs": len(pairs),
        "samples": profiler.sample_count,
        "repro_fraction": fraction,
        "floor": ATTRIBUTION_FLOOR,
        "top": profiler.top(5),
    }
    assert profiler.sample_count >= MIN_SAMPLES
    assert fraction >= ATTRIBUTION_FLOOR, (
        f"only {fraction * 100:.1f}% of samples touch repro/ frames "
        f"(floor {ATTRIBUTION_FLOOR * 100:.0f}%)")


@pytest.mark.timeout(120)
def test_write_bench_json():
    """Writer test: runs last, persists everything gathered above."""
    assert "overhead" in _RESULTS, "the overhead benchmark did not run"
    assert "attribution" in _RESULTS
    payload = {
        "graph": {"kind": "barabasi-albert", "num_vertices": GRAPH_N,
                  "m": GRAPH_M, "seed": GRAPH_SEED},
        **_RESULTS,
    }
    write_artifact("BENCH_prof.json", payload)
