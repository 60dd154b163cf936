"""Construction-kernel benchmark — array-native build vs scalar loops.

The acceptance experiment for the bit-parallel construction core
(:mod:`repro.core.build_kernels`) on a 100k-vertex Barabási–Albert
graph: time the frontier-at-a-time 64-root kernel build, estimate the
historical per-root scalar build from a sampled subset of roots (the
full scalar build takes tens of minutes at this size), and assert the
kernel is at least 5x faster. Alongside, the module measures the
root-batch pool scaling, the dynamic insert-repair speedup of the
frontier resume over the deque resume, checks 300 query pairs against
the BFS oracle, and dumps ``benchmarks/out/BENCH_build.json``.
"""

import json
import multiprocessing
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import build_index
from repro._util import Stopwatch
from repro.dynamic import DynamicIndex
from repro.dynamic import index as dynamic_index
from repro.graph import barabasi_albert
from repro.graph.traversal import bfs_distances
from repro.obs import get_registry
from repro.workloads import sample_pairs

from _bench import write_artifact

# The scalar references live with the tier-1 tests that pin against them.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from _reference_builders import (  # noqa: E402
    restricted_distances,
    repair_insert_scalar,
)

#: The tentpole experiment size; scalar PPL needed ~27s at a tenth of
#: this scale, so the scalar side is estimated from sampled roots.
GRAPH_N = 100_000
GRAPH_M = 2
GRAPH_SEED = 13

#: Roots sampled (evenly across ranks) to estimate the scalar build.
SCALAR_SAMPLE_ROOTS = 96

ORACLE_PAIRS = 300

#: Dynamic insert-repair comparison scale.
REPAIR_N = 10_000
REPAIR_EDGES = 40

_RESULTS = {}


@pytest.fixture(scope="module")
def bench_graph():
    return barabasi_albert(GRAPH_N, GRAPH_M, seed=GRAPH_SEED)


@pytest.fixture(scope="module")
def kernel_build(bench_graph):
    """(index, build_seconds) for the bit-parallel kernel build."""
    counter = get_registry().counter(
        "build_roots_processed_total",
        help="Landmark roots swept by the construction kernels.")
    before = counter.value
    with Stopwatch() as sw:
        index = build_index(bench_graph, "ppl")
    _RESULTS["kernel_build"] = {
        "build_seconds": sw.elapsed,
        "label_entries": index.num_entries(),
        "roots_counted": counter.value - before,
    }
    return index, sw.elapsed


@pytest.mark.timeout(1800)
def test_kernel_beats_scalar_5x(bench_graph, kernel_build):
    """Acceptance: >= 5x over the per-root scalar construction.

    The scalar estimate times the two BFS sweeps (full + restricted)
    the historical builder ran per root, on ``SCALAR_SAMPLE_ROOTS``
    ranks spread evenly across the order, extrapolated to all roots.
    It *under*-counts the scalar build (no per-entry Python appends),
    so the asserted speedup is conservative.
    """
    _, kernel_seconds = kernel_build
    graph = bench_graph
    n = graph.num_vertices
    order = np.argsort(-graph.degree(), kind="stable").astype(np.int64)
    rank_of = np.empty(n, dtype=np.int64)
    rank_of[order] = np.arange(n)
    sampled = np.linspace(0, n - 1, SCALAR_SAMPLE_ROOTS).astype(np.int64)
    full = np.empty(n, dtype=np.int32)
    restricted = np.empty(n, dtype=np.int32)
    with Stopwatch() as sw:
        for rank in sampled.tolist():
            root = int(order[rank])
            bfs_distances(graph, root, out=full)
            restricted_distances(graph.indptr, graph.indices, root,
                                 rank_of > rank, out=restricted)
    scalar_estimate = sw.elapsed / len(sampled) * n
    speedup = scalar_estimate / kernel_seconds
    _RESULTS["scalar_estimate"] = {
        "sampled_roots": len(sampled),
        "sample_seconds": sw.elapsed,
        "estimated_build_seconds": scalar_estimate,
        "kernel_speedup": speedup,
    }
    assert speedup >= 5.0, (
        f"kernel build only {speedup:.1f}x faster than the scalar "
        f"estimate ({kernel_seconds:.1f}s vs ~{scalar_estimate:.0f}s)")


@pytest.mark.timeout(1800)
def test_root_batch_pool_scaling(bench_graph, kernel_build):
    """Root batches fan out over a process pool; record the scaling.

    The wall-clock assertion only fires on boxes with >= 4 cores —
    on smaller machines (CI runners are often 1-2 cores) pool overhead
    legitimately wins and the numbers are recorded, not gated.
    """
    _, serial_seconds = kernel_build
    with Stopwatch() as sw:
        parallel = build_index(bench_graph, "ppl", jobs=2)
    ratio = serial_seconds / sw.elapsed
    _RESULTS["pool_scaling"] = {
        "jobs": 2,
        "parallel_seconds": sw.elapsed,
        "parallel_speedup": ratio,
        "cpu_count": multiprocessing.cpu_count(),
    }
    assert parallel.num_entries() == \
        _RESULTS["kernel_build"]["label_entries"]
    if multiprocessing.cpu_count() >= 4:
        assert ratio >= 1.2, (
            f"jobs=2 build only {ratio:.2f}x over serial on a "
            f"{multiprocessing.cpu_count()}-core box")


def test_roots_counter_wired(kernel_build):
    """Satellite check: the kernels feed the roots-processed counter."""
    assert _RESULTS["kernel_build"]["roots_counted"] >= GRAPH_N


@pytest.mark.timeout(1800)
def test_oracle_exactness(bench_graph, kernel_build):
    index, _ = kernel_build
    pairs = sample_pairs(bench_graph, ORACLE_PAIRS, seed=17)
    answers = index.distance_many(pairs)
    mismatches = 0
    for (u, v), got in zip(pairs, answers):
        expected = int(bfs_distances(bench_graph, u)[v])
        if (got if got is not None else -1) != expected:
            mismatches += 1
    _RESULTS["exactness"] = {
        "checked_pairs": len(pairs),
        "mismatches": mismatches,
    }
    assert mismatches == 0


@pytest.mark.timeout(900)
def test_insert_repair_frontier_vs_scalar():
    """Dynamic repair rides the same frontier shape; time it against
    the unscreened deque repair."""
    graph = barabasi_albert(REPAIR_N, GRAPH_M, seed=23)
    base = build_index(graph, "ppl")
    rng = np.random.default_rng(29)
    present = set(map(tuple, np.sort(graph.edge_array(), axis=1)
                      .tolist()))
    edges = []
    while len(edges) < REPAIR_EDGES:
        u = int(rng.integers(REPAIR_N))
        v = int(rng.integers(REPAIR_N))
        if u != v and (min(u, v), max(u, v)) not in present:
            edges.append((u, v))
            present.add((min(u, v), max(u, v)))

    timings = {}
    snapshots = {}
    original = dynamic_index.repair_insert
    for mode, repair in (("frontier", original),
                         ("scalar", repair_insert_scalar)):
        dynamic = DynamicIndex.from_static(base)
        dynamic_index.repair_insert = repair
        try:
            with Stopwatch() as sw:
                for a, b in edges:
                    dynamic.insert_edge(a, b)
        finally:
            dynamic_index.repair_insert = original
        timings[mode] = sw.elapsed
        snapshots[mode] = {name: array.tobytes() for name, array
                           in dynamic.to_state()[1].items()}
    assert snapshots["frontier"] == snapshots["scalar"]
    speedup = timings["scalar"] / timings["frontier"]
    _RESULTS["insert_repair"] = {
        "edges": len(edges),
        "frontier_seconds": timings["frontier"],
        "scalar_seconds": timings["scalar"],
        "repair_speedup": speedup,
    }
    assert speedup > 1.0, (
        f"frontier repair not faster than the deque repair "
        f"({timings['frontier']:.3f}s vs {timings['scalar']:.3f}s)")


def test_write_bench_json(bench_graph):
    """Dump the gathered measurements (runs last in this module)."""
    required = ("kernel_build", "scalar_estimate", "pool_scaling",
                "exactness", "insert_repair")
    missing = [key for key in required if key not in _RESULTS]
    assert not missing, f"earlier benchmarks did not run: {missing}"
    payload = {
        "benchmark": "build-kernels",
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
    written = write_artifact("BENCH_build.json", payload)
    assert json.loads(written.read_text())["scalar_estimate"][
        "kernel_speedup"] >= 5.0
