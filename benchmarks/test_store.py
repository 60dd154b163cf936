"""Out-of-core label store benchmark — bigger-than-budget serving.

The acceptance experiment for the :mod:`repro.store` subsystem on a
9k-vertex Barabási–Albert graph whose ``ppl`` labelling is packed
with a narrow hot head so the **cold tier alone exceeds the resident
budget**:

1. **Capacity** — the packed store's cold bytes must exceed
   ``RESIDENT_BUDGET`` (the store genuinely holds more label data
   than the serving process is allowed to keep resident).
2. **Budget** — a fresh subprocess serving the full query mix through
   the store (``io="pread"`` so resident-set accounting is exact — a
   memory map's faulted pages land in the process RSS even though
   they are reclaimable) must keep its **peak RSS delta under the
   budget**, page cache capped well below it.
3. **Exactness** — the out-of-core answers must match the fully
   resident index on every pair, and a BFS-oracle audit of the mix
   must show **0 mismatches**.
4. **Telemetry** — hot-tier hit rate and cold-read scalar latency
   p50/p99 are recorded against the fully resident baseline.

Alongside the assertions the module writes
``benchmarks/out/BENCH_store.json`` (CI uploads it as an artifact).
"""

import json
import subprocess
import sys

import pytest

from repro import build_index
from repro._util import Stopwatch
from repro.baselines.oracle import distance_oracle
from repro.engine import save_index
from repro.graph import barabasi_albert
from repro.store import pack_index_store
from repro.workloads import sample_pairs

from _bench import write_artifact

GRAPH_N = 9_000
GRAPH_M = 2
GRAPH_SEED = 7

#: Query mix served out-of-core, answered in outer chunks so the
#: batch kernel's transient gather buffers stay small.
MIX_PAIRS = 4_000
CHUNK_PAIRS = 256
#: Per-pair scalar queries timed for the cold-read latency profile.
SCALAR_PAIRS = 200
ORACLE_PAIRS = 300

#: The serving child may grow its RSS by at most this much.
RESIDENT_BUDGET = 12 * 2**20
#: Page-cache budget of the out-of-core child (well under the RSS
#: budget: the rest is hot tier, chunk transients, allocator slack).
CACHE_BYTES = 2 * 2**20
BLOCK_BYTES = 64 * 2**10
#: Narrow dense head, so most label mass lands in the cold tier.
HEAD_WIDTH = 16
HOT_ROWS = 32

_RESULTS = {}

#: Child process body: serve the job's query mix and report answers,
#: peak-RSS delta (measured from after-imports, so only the index and
#: the serving itself count), and scalar latency percentiles. Runs in
#: a fresh interpreter so ``ru_maxrss`` — a lifetime high-water mark —
#: reflects this workload and nothing else.
_CHILD = r"""
import json, sys, time

import numpy as np

from repro.engine.persist import load_index
from repro.store import open_store_index

def _status(field):
    # /proc metrics are per-exec (unlike ru_maxrss, which survives
    # exec and would report the pytest parent's peak at fork time).
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) * 1024
    return 0

def peak_bytes():
    return _status("VmHWM")

def reset_peak():
    # Reset the high-water mark so the peak reflects serving, not the
    # interpreter's import transient. Best-effort (needs /proc write
    # permission); without it the import peak is the floor.
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass

job = json.load(open(sys.argv[1]))
pairs = [tuple(p) for p in job["pairs"]]
scalar_pairs = [tuple(p) for p in job["scalar_pairs"]]
reset_peak()
baseline = _status("VmRSS")

if job["kind"] == "store":
    index = open_store_index(job["path"], io="pread",
                             cache_bytes=job["cache_bytes"],
                             block_bytes=job["block_bytes"])
else:
    index = load_index(job["path"])

answers = []
start = time.perf_counter()
for lo in range(0, len(pairs), job["chunk"]):
    answers.extend(index.distance_many(pairs[lo:lo + job["chunk"]]))
serve_seconds = time.perf_counter() - start

scalar_ms = []
for u, v in scalar_pairs:
    t0 = time.perf_counter()
    index.distance(u, v)
    scalar_ms.append((time.perf_counter() - t0) * 1e3)

result = {
    "rss_delta_bytes": peak_bytes() - baseline,
    "answers": answers,
    "serve_seconds": serve_seconds,
    "mix_qps": len(pairs) / serve_seconds,
    "scalar_ms_p50": float(np.percentile(scalar_ms, 50)),
    "scalar_ms_p99": float(np.percentile(scalar_ms, 99)),
}
if job["kind"] == "store":
    result["store_stats"] = index.store_stats()
json.dump(result, open(sys.argv[2], "w"))
"""


@pytest.fixture(scope="module")
def bench_graph():
    return barabasi_albert(GRAPH_N, GRAPH_M, seed=GRAPH_SEED)


@pytest.fixture(scope="module")
def packed(bench_graph, tmp_path_factory):
    """Build + save + pack once; returns paths and the live index."""
    directory = tmp_path_factory.mktemp("store-bench")
    with Stopwatch() as sw_build:
        index = build_index(bench_graph, "ppl")
    npz = directory / "bench.idx"
    save_index(index, npz)
    store = directory / "bench.store"
    with Stopwatch() as sw_pack:
        header = pack_index_store(npz, store, head_width=HEAD_WIDTH,
                                  hot_rows=HOT_ROWS)
    hot = sum(spec["nbytes"] for spec in header["arrays"]
              if spec["tier"] == "hot")
    cold = sum(spec["nbytes"] for spec in header["arrays"]
               if spec["tier"] == "cold")
    _RESULTS["pack"] = {
        "build_seconds": sw_build.elapsed,
        "pack_seconds": sw_pack.elapsed,
        "label_entries": header["label_entries"],
        "hot_bytes": hot,
        "cold_bytes": cold,
        "store_file_bytes": store.stat().st_size,
        "npz_file_bytes": npz.stat().st_size,
    }
    return {"index": index, "npz": npz, "store": store}


def _run_child(kind, path, pairs, scalar_pairs, directory):
    job = directory / f"{kind}.job.json"
    out = directory / f"{kind}.result.json"
    job.write_text(json.dumps({
        "kind": kind,
        "path": str(path),
        "pairs": [list(p) for p in pairs],
        "scalar_pairs": [list(p) for p in scalar_pairs],
        "chunk": CHUNK_PAIRS,
        "cache_bytes": CACHE_BYTES,
        "block_bytes": BLOCK_BYTES,
    }))
    completed = subprocess.run(
        [sys.executable, "-c", _CHILD, str(job), str(out)],
        capture_output=True, text=True, timeout=600)
    assert completed.returncode == 0, (
        f"{kind} child failed:\n{completed.stderr[-2000:]}")
    return json.loads(out.read_text())


@pytest.mark.timeout(900)
def test_store_serves_mix_under_resident_budget(bench_graph, packed,
                                                tmp_path):
    index = packed["index"]
    pairs = sample_pairs(bench_graph, MIX_PAIRS, seed=13)
    scalar_pairs = sample_pairs(bench_graph, SCALAR_PAIRS, seed=29)

    # Capacity: the cold tier alone exceeds the resident budget —
    # serving this store fully materialized would be impossible under
    # the budget by construction.
    cold = _RESULTS["pack"]["cold_bytes"]
    assert cold > RESIDENT_BUDGET, (
        f"cold tier {cold} B does not exceed the "
        f"{RESIDENT_BUDGET} B budget; grow the graph")

    store_run = _run_child("store", packed["store"], pairs,
                           scalar_pairs, tmp_path)
    resident_run = _run_child("resident", packed["npz"], pairs,
                              scalar_pairs, tmp_path)

    # Exactness: the out-of-core child answers every pair exactly as
    # the fully resident index does, and the mix is oracle-audited.
    expected = index.distance_many(pairs)
    assert store_run["answers"] == expected
    assert resident_run["answers"] == expected
    mismatches = sum(
        1 for (u, v), value in zip(pairs[:ORACLE_PAIRS],
                                   expected[:ORACLE_PAIRS])
        if value != distance_oracle(bench_graph, u, v))
    assert mismatches == 0

    # Budget: the serving child stayed within the resident budget
    # while the resident baseline (by construction) could not have.
    store_delta = store_run["rss_delta_bytes"]
    assert store_delta < RESIDENT_BUDGET, (
        f"out-of-core child grew RSS by {store_delta} B "
        f"(budget {RESIDENT_BUDGET} B)")

    stats = store_run["store_stats"]
    assert stats["resident_bytes"] < RESIDENT_BUDGET
    touches = stats["hits"] + stats["misses"] + stats["pinned_hits"]
    assert touches > 0

    _RESULTS["mix"] = {
        "pairs": len(pairs),
        "chunk": CHUNK_PAIRS,
        "oracle_pairs": ORACLE_PAIRS,
        "oracle_mismatches": mismatches,
        "resident_budget_bytes": RESIDENT_BUDGET,
        "cache_bytes": CACHE_BYTES,
        "block_bytes": BLOCK_BYTES,
        "store_rss_delta_bytes": store_delta,
        "resident_rss_delta_bytes": resident_run["rss_delta_bytes"],
        "store_mix_qps": store_run["mix_qps"],
        "resident_mix_qps": resident_run["mix_qps"],
        "hot_tier_hit_rate": stats["hit_rate"],
        "hot_fraction": stats["hot_fraction"],
        "cache_evictions": stats["evictions"],
        "cold_scalar_ms_p50": store_run["scalar_ms_p50"],
        "cold_scalar_ms_p99": store_run["scalar_ms_p99"],
        "resident_scalar_ms_p50": resident_run["scalar_ms_p50"],
        "resident_scalar_ms_p99": resident_run["scalar_ms_p99"],
    }


@pytest.mark.timeout(120)
def test_write_bench_json():
    """Writer test: runs last, persists everything gathered above."""
    assert "mix" in _RESULTS, "the serving benchmark did not run"
    payload = {
        "graph": {"kind": "barabasi-albert", "num_vertices": GRAPH_N,
                  "m": GRAPH_M, "seed": GRAPH_SEED},
        "head_width": HEAD_WIDTH,
        "hot_rows": HOT_ROWS,
        **_RESULTS,
    }
    write_artifact("BENCH_store.json", payload)
