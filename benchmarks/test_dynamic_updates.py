"""Dynamic subsystem benchmark — incremental updates vs rebuild-per-update.

The acceptance experiment for the dynamic subsystem on a >= 10k-vertex
generated graph: build the PPL labels once, promote to a
:class:`~repro.dynamic.DynamicIndex`, replay a 50/50 insert/delete
stream, and compare the amortized per-mutation latency with what a
build-once deployment pays — a full rebuild per update. Alongside the
assertions, the module writes the machine-readable artifact
``benchmarks/out/BENCH_dynamic.json`` (build time, amortized update
latency, per-family query latency, exactness check).
"""

import json
import time

import pytest

from repro import QueryOptions, QuerySession, build_index
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

NUM_OPS = 300
QUERY_PAIRS = 150

#: Gathered across tests, dumped by the final writer test.
_RESULTS = {}


@pytest.fixture(scope="module")
def bench_graph():
    return barabasi_albert(GRAPH_N, GRAPH_M, seed=GRAPH_SEED)


@pytest.fixture(scope="module")
def static_ppl(bench_graph):
    """(index, build_seconds) — the rebuild-per-update unit cost."""
    with Stopwatch() as sw:
        index = build_index(bench_graph, "ppl")
    _RESULTS["build"] = {
        "family": "ppl",
        "build_seconds": sw.elapsed,
        "label_entries": index.num_entries(),
    }
    return index, sw.elapsed


@pytest.fixture(scope="module")
def updated_dynamic(bench_graph, static_ppl):
    """(dynamic index, per-kind latency lists) after the mixed stream."""
    index, _ = static_ppl
    dynamic = DynamicIndex.from_static(index)
    ops = generate_update_stream(bench_graph, NUM_OPS,
                                 insert_frac=0.5, delete_frac=0.5,
                                 seed=11)
    latencies = {"insert": [], "delete": []}
    for kind, u, v in ops:
        with Stopwatch() as sw:
            if kind == "insert":
                dynamic.insert_edge(u, v)
            else:
                dynamic.remove_edge(u, v)
        latencies[kind].append(sw.elapsed)
    stats = dynamic.stats
    mutations = sum(len(times) for times in latencies.values())
    total = sum(sum(times) for times in latencies.values())
    _RESULTS["updates"] = {
        "ops": mutations,
        "inserts": len(latencies["insert"]),
        "deletes": len(latencies["delete"]),
        "amortized_ms": total / mutations * 1000.0,
        "insert_ms": (sum(latencies["insert"])
                      / max(1, len(latencies["insert"])) * 1000.0),
        "delete_ms": (sum(latencies["delete"])
                      / max(1, len(latencies["delete"])) * 1000.0),
        "rebuilds": stats["rebuilds"],
        "repaired_entries": stats["repaired_entries"],
        "phantom_edges": stats["phantom_edges"],
    }
    return dynamic, latencies


def test_incremental_updates_beat_rebuild_per_update(static_ppl,
                                                     updated_dynamic):
    """Acceptance: amortized incremental update >= 10x faster than
    rebuilding the index for every edge change."""
    _, build_seconds = static_ppl
    _, latencies = updated_dynamic
    mutations = sum(len(times) for times in latencies.values())
    amortized = sum(sum(times) for times in latencies.values()) / mutations
    speedup = build_seconds / amortized
    _RESULTS["rebuild_per_update"] = {
        "rebuild_seconds": build_seconds,
        "amortized_update_seconds": amortized,
        "speedup": speedup,
    }
    assert mutations == NUM_OPS
    assert speedup >= 10.0, (
        f"incremental updates only {speedup:.1f}x faster than "
        f"rebuild-per-update"
    )


def test_answers_oracle_exact_after_stream(updated_dynamic):
    """Acceptance: the evolved index answers stay oracle-exact."""
    dynamic, _ = updated_dynamic
    snapshot = dynamic.graph
    pairs = sample_pairs(snapshot, 40, seed=23)
    mismatches = [
        (u, v) for u, v in pairs
        if dynamic.distance(u, v) != distance_oracle(snapshot, u, v)
    ]
    _RESULTS["exactness"] = {
        "checked_pairs": len(pairs),
        "mismatches": len(mismatches),
    }
    assert not mismatches


def test_query_latency_per_family(bench_graph, static_ppl,
                                  updated_dynamic):
    """Distance-query latency of the dynamic index next to the static
    families (static ones on the pre-update graph, dynamic and the
    online baseline on the evolved snapshot)."""
    dynamic, _ = updated_dynamic
    snapshot = dynamic.graph
    pairs = sample_pairs(snapshot, QUERY_PAIRS, seed=29)
    contenders = {
        "dynamic": dynamic,
        "ppl": static_ppl[0],
        "qbs": build_index(snapshot, "qbs", num_landmarks=20),
        "bibfs": build_index(snapshot, "bibfs"),
    }
    per_family = {}
    for family, index in contenders.items():
        report = QuerySession(index, QueryOptions(mode="distance")) \
            .run(pairs)
        per_family[family] = report.mean_query_ms()
    _RESULTS["query_latency_ms"] = per_family
    assert all(latency > 0 for latency in per_family.values())


def test_write_bench_json(bench_graph):
    """Dump the gathered measurements (runs last in this module)."""
    required = ("build", "updates", "rebuild_per_update", "exactness",
                "query_latency_ms")
    missing = [key for key in required if key not in _RESULTS]
    assert not missing, f"earlier benchmarks did not run: {missing}"
    payload = {
        "benchmark": "dynamic-updates",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                      time.gmtime()),
        "graph": {
            "generator": "barabasi_albert",
            "num_vertices": bench_graph.num_vertices,
            "num_edges": bench_graph.num_edges,
            "m": GRAPH_M,
            "seed": GRAPH_SEED,
        },
        **_RESULTS,
    }
    written = write_artifact("BENCH_dynamic.json", payload)
    assert json.loads(written.read_text())["rebuild_per_update"][
        "speedup"] >= 10.0
