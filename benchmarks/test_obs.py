"""Observability overhead benchmark — instrumentation must be ~free.

Two acceptance numbers for the :mod:`repro.obs` subsystem, written to
``benchmarks/out/BENCH_obs.json`` (CI uploads it as an artifact):

1. **Overhead** — the ``ppl`` batch-kernel query path (1024-pair
   ``query_many`` batches, cache off, tracing off) with the default
   enabled registry must run within **5%** of the same path under a
   disabled registry (``MetricsRegistry(enabled=False)``, whose
   instruments are shared no-ops). Reps alternate enabled/disabled so
   thermal and allocator drift cancel; the compared statistic is the
   per-side minimum — scheduler noise only ever inflates a rep, so
   the min is the cleanest estimate on a shared CI box, and real
   instrumentation cost is paid in every rep including the min.
2. **Stage coverage** — a cross-shard distance query on a sharded
   index traced at rate 1.0 must produce a span tree whose direct
   stages sum to within **10%** of the end-to-end latency (the
   ``repro trace`` acceptance number), carrying the per-stage
   breakdown (scalar dispatch, boundary gather, relay min-plus).
3. **Trace overhead** — the serving path (multi-worker
   ``QueryService`` bursts) traced at rate 1.0 — context shipped to
   workers, spans shipped home, stitching — must run within **5%**
   of the same path untraced.
4. **Stitched coverage** — cross-shard bursts through a four-worker
   fleet at rate 1.0 must stitch into single-rooted trees whose
   worker stage spans cover **≥95%** of worker batch wall time; the
   traces export to ``benchmarks/out/TRACE_cross_shard.json`` (valid
   Chrome trace-event JSON, CI uploads it for Perfetto).
"""

import statistics
import time

import numpy as np
import pytest

from repro import QueryOptions, build_index
from repro.engine.session import QuerySession
from repro.graph import barabasi_albert, stochastic_block
from repro.obs import MetricsRegistry, get_registry, set_registry
from repro.obs.trace import stage_totals
from repro.workloads import sample_pairs

from _bench import write_artifact

GRAPH_N = 4_000
GRAPH_M = 2
GRAPH_SEED = 11

BATCH_PAIRS = 1_024
#: Alternating enabled/disabled reps (each timed over one batch).
REPS_PER_SIDE = 15
OVERHEAD_LIMIT = 0.05

#: Sharded stage-coverage workload: three planted communities.
SBM_SIZES = (900, 900, 900)
SBM_P_IN = 0.01
SBM_P_OUT = 0.001
COVERAGE_PAIRS = 9
COVERAGE_LIMIT = 0.10

#: Serving-path trace overhead: alternating traced/untraced bursts.
TRACE_BURST_PAIRS = 512
TRACE_REPS_PER_SIDE = 10
TRACE_OVERHEAD_LIMIT = 0.05

#: Fleet stitched-trace coverage: worker spans vs worker wall time.
FLEET_WORKERS = 4
FLEET_BURSTS = 6
FLEET_BURST_PAIRS = 64
STITCH_COVERAGE_FLOOR = 0.95

_RESULTS = {}


@pytest.fixture(scope="module")
def ppl_index():
    graph = barabasi_albert(GRAPH_N, GRAPH_M, seed=GRAPH_SEED)
    return build_index(graph, "ppl")


def _time_batch(index, pairs) -> float:
    """One rep: fresh session (instruments bound to the registry that
    is current *now*), one cache-less kernel batch, wall seconds."""
    session = QuerySession(index, QueryOptions(mode="distance",
                                               cache_size=0))
    start = time.perf_counter()
    session.query_many(pairs)
    return time.perf_counter() - start


@pytest.mark.timeout(900)
def test_overhead_within_five_percent(ppl_index):
    pairs = sample_pairs(ppl_index.graph, BATCH_PAIRS, seed=3)
    enabled_registry = MetricsRegistry()
    disabled_registry = MetricsRegistry(enabled=False)
    previous = set_registry(enabled_registry)
    enabled, disabled = [], []
    try:
        # Warm both paths (numpy pools, label pages) before timing.
        _time_batch(ppl_index, pairs)
        set_registry(disabled_registry)
        _time_batch(ppl_index, pairs)
        for _ in range(REPS_PER_SIDE):
            set_registry(enabled_registry)
            enabled.append(_time_batch(ppl_index, pairs))
            set_registry(disabled_registry)
            disabled.append(_time_batch(ppl_index, pairs))
    finally:
        set_registry(previous)
    enabled_best = min(enabled)
    disabled_best = min(disabled)
    overhead = enabled_best / disabled_best - 1.0
    # The enabled side really did record: one histogram observation
    # and one counter bump per batch.
    counters = enabled_registry.snapshot()["counters"]
    assert counters["session_queries_total{mode=distance}"] == \
        BATCH_PAIRS * (REPS_PER_SIDE + 1)
    assert disabled_registry.render_prometheus().strip() == ""
    _RESULTS["overhead"] = {
        "batch_pairs": BATCH_PAIRS,
        "reps_per_side": REPS_PER_SIDE,
        "enabled_best_ms": enabled_best * 1e3,
        "disabled_best_ms": disabled_best * 1e3,
        "enabled_p50_ms": statistics.median(enabled) * 1e3,
        "disabled_p50_ms": statistics.median(disabled) * 1e3,
        "overhead_fraction": overhead,
        "limit_fraction": OVERHEAD_LIMIT,
    }
    assert overhead <= OVERHEAD_LIMIT, (
        f"instrumented batch path is {overhead * 100:.2f}% slower "
        f"than the disabled-registry baseline "
        f"(limit {OVERHEAD_LIMIT * 100:.0f}%)")


@pytest.mark.timeout(900)
def test_cross_shard_stage_breakdown(tmp_path):
    graph = stochastic_block(SBM_SIZES, SBM_P_IN, SBM_P_OUT, seed=5)
    index = build_index(graph, "sharded",
                        num_shards=len(SBM_SIZES), inner="ppl")
    shard = index.partition.assignment
    rng = np.random.default_rng(7)
    pairs = []
    while len(pairs) < COVERAGE_PAIRS:
        u, v = (int(x) for x in rng.integers(0, graph.num_vertices, 2))
        if shard[u] != shard[v]:
            pairs.append((u, v))
    session = QuerySession(index, QueryOptions(
        mode="distance", cache_size=0, trace_sample=1.0))
    # Warm the whole path once per pair so the measured traces see
    # steady-state stage costs, then trace each pair.
    for u, v in pairs:
        session.query(u, v)
    coverages, stage_ms = [], {}
    for u, v in pairs:
        session.query(u, v)
        root = session.last_trace
        covered = sum(child.elapsed for child in root.children)
        coverages.append(covered / root.elapsed)
        for name, seconds in stage_totals(root).items():
            stage_ms.setdefault(name, []).append(seconds * 1e3)
    coverage_p50 = statistics.median(coverages)
    assert {"session.scalar", "shard.boundary",
            "shard.relay"} <= set(stage_ms)
    stage_seconds = get_registry().snapshot()["histograms"]
    assert stage_seconds[
        "stage_seconds{stage=shard.relay}"]["count"] >= len(pairs)
    _RESULTS["stage_coverage"] = {
        "graph": {"kind": "stochastic-block", "sizes": list(SBM_SIZES),
                  "p_in": SBM_P_IN, "p_out": SBM_P_OUT},
        "pairs": len(pairs),
        "coverage_p50": coverage_p50,
        "coverage_min": min(coverages),
        "limit_fraction": COVERAGE_LIMIT,
        "stage_ms_p50": {name: statistics.median(values)
                         for name, values in sorted(stage_ms.items())},
    }
    assert 1.0 - coverage_p50 <= COVERAGE_LIMIT, (
        f"stage sum covers only {coverage_p50 * 100:.1f}% of the "
        f"end-to-end latency (must be within "
        f"{COVERAGE_LIMIT * 100:.0f}%)")


@pytest.mark.timeout(900)
def test_trace_overhead_within_five_percent(ppl_index):
    """Fleet tracing at rate 1.0 — TraceContext on every dispatched
    batch, worker span records shipped home, batcher-side stitching —
    must cost at most 5% against the untraced serving path."""
    from repro.serving import QueryService

    pairs = sample_pairs(ppl_index.graph, TRACE_BURST_PAIRS, seed=13)
    traced, untraced = [], []
    with QueryService(ppl_index, num_workers=2,
                      options=QueryOptions(mode="distance",
                                           cache_size=0)) as service:
        def _rep(rate):
            service.set_trace_rate(rate)
            start = time.perf_counter()
            service.query_many(pairs, timeout=120.0)
            return time.perf_counter() - start

        _rep(1.0)  # warm both paths (workers, shm pages, buffers)
        _rep(0.0)
        for _ in range(TRACE_REPS_PER_SIDE):
            traced.append(_rep(1.0))
            untraced.append(_rep(0.0))
        stitched = service.trace_buffer_stats()["added_total"]
    traced_best = min(traced)
    untraced_best = min(untraced)
    overhead = traced_best / untraced_best - 1.0
    # The traced side really did stitch: at least one trace per
    # traced burst (bursts chunk into one or more batches each).
    assert stitched >= TRACE_REPS_PER_SIDE + 1
    _RESULTS["trace_overhead"] = {
        "burst_pairs": TRACE_BURST_PAIRS,
        "reps_per_side": TRACE_REPS_PER_SIDE,
        "traced_best_ms": traced_best * 1e3,
        "untraced_best_ms": untraced_best * 1e3,
        "traced_p50_ms": statistics.median(traced) * 1e3,
        "untraced_p50_ms": statistics.median(untraced) * 1e3,
        "trace_overhead_fraction": overhead,
        "limit_fraction": TRACE_OVERHEAD_LIMIT,
    }
    assert overhead <= TRACE_OVERHEAD_LIMIT, (
        f"tracing the serving path costs {overhead * 100:.2f}% "
        f"(limit {TRACE_OVERHEAD_LIMIT * 100:.0f}%)")


@pytest.mark.timeout(900)
def test_cross_shard_stitched_trace_coverage():
    """Cross-shard bursts through a four-worker fleet stitch into
    single-rooted trees whose worker stage spans cover >=95% of the
    worker batch wall time; the export is schema-valid Chrome JSON."""
    from repro.obs import chrome_trace, validate_chrome_trace
    from repro.serving import QueryService

    graph = stochastic_block(SBM_SIZES, SBM_P_IN, SBM_P_OUT, seed=5)
    index = build_index(graph, "sharded",
                        num_shards=len(SBM_SIZES), inner="ppl")
    shard = index.partition.assignment
    rng = np.random.default_rng(17)
    pairs = []
    while len(pairs) < FLEET_BURSTS * FLEET_BURST_PAIRS:
        u, v = (int(x) for x in rng.integers(0, graph.num_vertices, 2))
        if shard[u] != shard[v]:
            pairs.append((u, v))
    with QueryService(index, num_workers=FLEET_WORKERS,
                      options=QueryOptions(mode="distance",
                                           cache_size=0)) as service:
        # Warm every worker before measuring coverage.
        service.query_many(pairs[:FLEET_BURST_PAIRS], timeout=120.0)
        service.set_trace_rate(1.0)
        for i in range(FLEET_BURSTS):
            burst = pairs[i * FLEET_BURST_PAIRS:
                          (i + 1) * FLEET_BURST_PAIRS]
            service.query_many(burst, timeout=120.0)
        traces = service.traces(limit=1000)
    assert traces, "rate 1.0 stitched nothing"
    coverages = []
    worker_procs = set()
    for trace in traces:
        by_id = {r["span"]: r for r in trace.spans}
        roots = [r for r in trace.spans if r["parent"] is None]
        assert len(roots) == 1, trace.spans
        assert all(r["parent"] in by_id for r in trace.spans
                   if r["parent"] is not None), trace.spans
        for record in trace.spans:
            if record["name"] != "serving.batch":
                continue
            worker_procs.add(record["proc"])
            covered = sum(r["dur"] for r in trace.spans
                          if r["parent"] == record["span"])
            if record["dur"] > 0:
                coverages.append(covered / record["dur"])
    assert len(worker_procs) >= 2, (
        f"bursts never spread across the fleet: {worker_procs}")
    coverage_p50 = statistics.median(coverages)
    payload = chrome_trace(traces)
    problems = validate_chrome_trace(payload)
    assert problems == [], problems
    write_artifact("TRACE_cross_shard.json", payload)
    _RESULTS["fleet_trace"] = {
        "workers": FLEET_WORKERS,
        "bursts": FLEET_BURSTS,
        "burst_pairs": FLEET_BURST_PAIRS,
        "stitched_traces": len(traces),
        "worker_processes": sorted(worker_procs),
        "stitch_coverage_p50": coverage_p50,
        "stitch_coverage_min": min(coverages),
        "floor_fraction": STITCH_COVERAGE_FLOOR,
        "trace_events": len(payload["traceEvents"]),
    }
    assert coverage_p50 >= STITCH_COVERAGE_FLOOR, (
        f"worker stage spans cover only {coverage_p50 * 100:.1f}% "
        f"of worker batch wall time "
        f"(floor {STITCH_COVERAGE_FLOOR * 100:.0f}%)")


@pytest.mark.timeout(120)
def test_write_bench_json():
    """Writer test: runs last, persists everything gathered above."""
    assert "overhead" in _RESULTS, "the overhead benchmark did not run"
    assert "stage_coverage" in _RESULTS
    assert "trace_overhead" in _RESULTS
    assert "fleet_trace" in _RESULTS
    payload = {
        "graph": {"kind": "barabasi-albert", "num_vertices": GRAPH_N,
                  "m": GRAPH_M, "seed": GRAPH_SEED},
        **_RESULTS,
    }
    write_artifact("BENCH_obs.json", payload)
