"""The seven named workloads: seeded graph spec + pair/op stream.

Each generator below is one workload.  Its docstring's first line is
the workload's *why* (mirrored in ``BENCHMARK.json``).  The same
``seed`` gives byte-identical inputs (``Inputs.digest`` is printed in
every run header), and ``seed`` changes nothing but the pair and op
streams.  The program under test only ever sees the generated graph
and pair lists.

``tiny=True`` shrinks every graph to <= 2k vertices for ``--selftest``;
all other parameters stay the same so the same code paths run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.graph import Graph, barabasi_albert, watts_strogatz
from repro.workloads import generate_update_stream, sample_pairs_hotspot

#: Pairs checked against an independent answer, per workload.
CHECK_PAIRS = 300
#: Graphs are part of a workload's definition, like a dataset: one
#: fixed seed.  ``--seed`` draws the pair and op streams, so index
#: size and build work repeat exactly from run to run.
GRAPH_SEED = 12


@dataclass
class Inputs:
    """Everything a scenario may read; nothing here is timed."""

    seed: int
    #: Regenerates the graph (timed as ``graph.generate`` in set-up).
    make_graph: Callable[[], object]
    #: ``(k, 2)`` int64 query pairs, walked cyclically by the load.
    pairs: np.ndarray
    #: ``CHECK_PAIRS`` uniform pairs for the oracle check.
    check_pairs: np.ndarray
    #: Workload knobs the scenario reads (batch size, clients, ...).
    params: Dict[str, object]
    #: Update stream (``dynamic_mixed`` only).
    ops: List[tuple] = field(default_factory=list)
    #: sha256 prefix of pairs + check pairs + ops (the graph's digest is
    #: taken from the first set-up and printed beside it).
    digest: str = ""


def uniform_pairs(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` uniform pairs with distinct endpoints, vectorised."""
    u = rng.integers(0, n, size=count)
    v = rng.integers(0, n - 1, size=count)
    v += v >= u
    return np.column_stack((u, v)).astype(np.int64)


def digest(*arrays, extra: str = "") -> str:
    """Short sha256 over array bytes (and an optional repr)."""
    sha = hashlib.sha256(extra.encode())
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()[:16]


def _finish(seed: int, make_graph, n: int, pairs, params,
            ops: Optional[list] = None) -> Inputs:
    check = uniform_pairs(n, CHECK_PAIRS, np.random.default_rng([seed, 99]))
    return Inputs(seed, make_graph, pairs, check, params, ops or [],
                  digest(pairs, check, extra=repr(ops or [])))


def _uniform(seed, make_graph, n, count, params) -> Inputs:
    pairs = uniform_pairs(n, count, np.random.default_rng([seed, 1]))
    return _finish(seed, make_graph, n, pairs, params)


def qbs_spg_hub(seed: int, tiny: bool = False) -> Inputs:
    """paper's experiment on a hub graph: landmarks catch most paths, so sketch + recover search do the work

    ``barabasi_albert(50_000, 3)``, QbS with 20 landmarks, 8,000
    uniform pairs, scalar ``index.query(u, v)`` on one thread; serving,
    store and batch layers do nothing.
    """
    n = 2_000 if tiny else 50_000
    return _uniform(seed,
                    lambda: barabasi_albert(n, 3, seed=GRAPH_SEED), n,
                    400 if tiny else 8_000, {"landmarks": 20})


def qbs_spg_lattice(seed: int, tiny: bool = False) -> Inputs:
    """same QbS call on a lattice: landmarks capture little, so guided bi-BFS and reverse search dominate

    ``watts_strogatz(50_000, 6, 0.02)``, same index and call as
    ``qbs_spg_hub``, 8,000 uniform pairs.  A guided-search rewrite
    must win here and not move ``qbs_spg_hub``.
    """
    n = 2_000 if tiny else 50_000
    return _uniform(seed,
                    lambda: watts_strogatz(n, 6, 0.02, seed=GRAPH_SEED), n,
                    400 if tiny else 8_000, {"landmarks": 20})


def _ppl_graph(tiny: bool):
    n = 1_500 if tiny else 10_000
    return (lambda: barabasi_albert(n, 2, seed=GRAPH_SEED)), n


def ppl_distance_batch(seed: int, tiny: bool = False) -> Inputs:
    """512-pair distance_many batches on resident ppl labels: isolates engine.batch, and set-up is the ppl build

    ``barabasi_albert(10_000, 2)``, ``build_index(g, "ppl")``, 600
    batches of 512 uniform pairs walked cyclically; op = one pair for
    throughput, one batch for latency.  ``setup_s`` is dominated by
    ``core.build_kernels``, so construction changes claim it here.
    """
    batch = 512
    return _uniform(seed, *_ppl_graph(tiny),
                    batch * (40 if tiny else 600), {"batch": batch})


def store_cold_uniform(seed: int, tiny: bool = False) -> Inputs:
    """same labels packed to a store with a cache >= 30x smaller than the cold tier: block faults do the work

    Same graph and index as ``ppl_distance_batch``, packed with
    ``pack_index_store(head_width=16, hot_rows=32)`` and reopened with
    ``io="mmap"``, 64 KiB blocks and a 512 KiB cache (tiny: 8 and 32 KiB);
    batches of 256 uniform pairs.  Its fits-in-memory twin is
    ``ppl_distance_batch``.
    """
    batch = 256
    return _uniform(seed, *_ppl_graph(tiny),
                    batch * (40 if tiny else 600),
                    {"batch": batch, "head_width": 16, "hot_rows": 32,
                     "block_bytes": 8 << 10 if tiny else 64 << 10,
                     "cache_bytes": 32 << 10 if tiny else 512 << 10})


def dynamic_mixed(seed: int, tiny: bool = False) -> Inputs:
    """8% inserts and 4% deletes beside 88% distance queries on one dynamic index: repair and screening compete

    ``barabasi_albert(10_000, 2)``, ``build_index(g, "dynamic",
    family="ppl", rebuild_threshold=500)``.  The update history is
    fixed, like the graph: 100 deletes applied in set-up (so the timed
    phase starts with phantom edges to screen and drifts little), then
    a ``generate_update_stream`` whose query slots ``seed`` fills.  A
    fixed number of ops per second of run length is applied one by
    one, so every run walks the same index states; every 50th query is
    checked against the BFS oracle of the graph *at that moment*.
    Slow ops (inserts, BFS fallbacks) are ~9% of the stream, so p95
    lies well inside them and not on their edge, where it moved 20%.
    """
    n = 1_000 if tiny else 10_000
    count = 600 if tiny else 3_000
    make_graph = lambda: barabasi_albert(n, 2, seed=GRAPH_SEED)  # noqa: E731
    graph = make_graph()
    aging = generate_update_stream(
        graph, 20 if tiny else 100, insert_frac=0.0, delete_frac=1.0,
        seed=np.random.default_rng([GRAPH_SEED, 4]))
    gone = {(u, v) for _, u, v in aging}
    aged = Graph.from_edges([e for e in graph.edges() if e not in gone],
                            num_vertices=n)
    history = generate_update_stream(
        aged, count, insert_frac=0.08, delete_frac=0.04,
        seed=np.random.default_rng([GRAPH_SEED, 2]))
    pairs = uniform_pairs(n, count, np.random.default_rng([seed, 2]))
    ops = [(kind, int(pairs[i, 0]), int(pairs[i, 1])) if kind == "query"
           else (kind, u, v) for i, (kind, u, v) in enumerate(history)]
    return _finish(seed, make_graph, n, pairs,
                   {"rebuild_threshold": 500, "check_every": 50,
                    "aging": [tuple(op) for op in aging],
                    "ops_per_second": 125}, ops=ops)


def http_closed_hotspot(seed: int, tiny: bool = False) -> Inputs:
    """the front door with hot keys: one pair per POST /query, so http, batcher delay and worker IPC are the latency

    ``barabasi_albert(5_000, 2)`` ppl saved to npz and served by a
    ``python -m repro serve`` subprocess; 8 keep-alive connections in
    a closed loop over ``sample_pairs_hotspot(hot_fraction=0.85,
    num_hot_pairs=32)``.  Kernel changes must not move this workload.
    """
    n = 1_000 if tiny else 5_000
    make_graph = lambda: barabasi_albert(n, 2, seed=GRAPH_SEED)  # noqa: E731
    graph = make_graph()
    pairs = np.array(sample_pairs_hotspot(
        graph, 400 if tiny else 4_000,
        seed=np.random.default_rng([seed, 3]),
        hot_fraction=0.85, num_hot_pairs=32), dtype=np.int64)
    return _finish(seed, make_graph, n, pairs,
                   {"clients": 8, "warmup_per_client": 5,
                    "timeout_s": 10.0})


def service_open_uniform(seed: int, tiny: bool = False) -> Inputs:
    """uniform pairs through an in-process QueryService on an open-loop schedule: queueing, batch size and IPC show

    Same graph as ``ppl_distance_batch`` in ``QueryService(
    mode="distance", cache_size=4096)``; one sender thread submits at
    a fixed 500 req/s via ``service.submit`` with done-callbacks, each
    request timed from its *due* time; uniform pairs, so no dedup and
    no cache hits.  The traced run adds a saturation phase.
    """
    return _uniform(seed, *_ppl_graph(tiny),
                    4_000 if tiny else 60_000,
                    {"rate": 500, "chunk": 512, "window": 8,
                     "saturate_s": 0.6 if tiny else 3.0, "timeout_s": 10.0})


#: Name -> generator, in the order runs and tables use.
WORKLOADS: Dict[str, Callable[..., Inputs]] = {
    fn.__name__: fn for fn in (
        qbs_spg_hub, qbs_spg_lattice, ppl_distance_batch,
        store_cold_uniform, dynamic_mixed, http_closed_hotspot,
        service_open_uniform)
}


def why(name: str) -> str:
    """The workload's one-line reason, as ``BENCHMARK.json`` records it."""
    return WORKLOADS[name].__doc__.strip().splitlines()[0]
