"""Shared test corpus: paper example graphs, random-graph helpers and
the three handles serving tests need on a worker fleet.

This module is imported by test modules directly (``from _corpus
import ...``) instead of living in ``conftest.py``. Test helpers must
not be imported *from* a conftest module: with both ``tests/`` and
``benchmarks/`` on ``sys.path`` the module name ``conftest`` is
ambiguous, and whichever suite pytest touches first wins — which is
exactly the collection error this file fixes.
"""

from __future__ import annotations

import contextlib
import os
import signal
import zlib

import numpy as np

from repro import Graph
from repro.directed import DiGraph
from repro.graph import (
    barabasi_albert,
    erdos_renyi,
    grid_2d,
    powerlaw_cluster,
    watts_strogatz,
)
from repro.serving import BatchResponse

# ----------------------------------------------------------------------
# The paper's running examples
# ----------------------------------------------------------------------

#: Figure 3(a): 7 vertices (paper ids 1..7 -> 0..6). Query SPG(3, 7)
#: (here SPG(2, 6)) has the multi-path answer discussed in §3.
FIGURE3_EDGES = [
    (0, 1), (0, 2),          # 1-2, 1-3
    (1, 3), (1, 4), (1, 5),  # 2-4, 2-5, 2-6
    (2, 3),                  # 3-4
    (4, 5), (4, 6),          # 5-6, 5-7
]

#: Figure 4(a): 14 vertices (paper ids 1..14 -> 0..13), landmarks
#: {1, 2, 3} -> {0, 1, 2}. Reconstructed so that the paper's
#: Figure 4(b) meta-graph, the Figure 4(c) labelling table and the
#: entire Figure 6 walk-through for SPG(6, 11) (here SPG(5, 10)) all
#: hold exactly — including the frontier sets P6 = {5,7,8,14},
#: P11 = {10,12,9,8}, the meeting vertex 8 and Z = {(12,3),(9,2),(6,1)}.
FIGURE4_EDGES = [
    (0, 1), (1, 2),                    # landmark chain 1-2, 2-3
    (0, 3), (2, 3),                    # the 1-4-3 avoiding path
    (0, 4), (0, 5), (4, 5),            # 1-5, 1-6, 5-6
    (5, 6), (6, 7), (1, 7),            # 6-7, 7-8, 2-8
    (7, 8), (1, 8),                    # 8-9, 2-9
    (8, 9), (9, 10), (10, 11), (2, 11),  # 9-10, 10-11, 11-12, 3-12
    (2, 12), (12, 13), (4, 13),        # 3-13, 13-14, 5-14
]

#: Figure 4(c), zero-indexed: vertex -> {landmark vertex: distance}.
FIGURE4_LABELS = {
    3: {0: 1, 2: 1},     # L(4)  = (1,1)(3,1)
    4: {0: 1, 2: 3},     # L(5)  = (1,1)(3,3)
    5: {0: 1},           # L(6)  = (1,1)
    6: {0: 2, 1: 2},     # L(7)  = (1,2)(2,2)
    7: {1: 1},           # L(8)  = (2,1)
    8: {1: 1},           # L(9)  = (2,1)
    9: {1: 2, 2: 3},     # L(10) = (2,2)(3,3)
    10: {1: 3, 2: 2},    # L(11) = (2,3)(3,2)
    11: {2: 1},          # L(12) = (3,1)
    12: {0: 3, 2: 1},    # L(13) = (1,3)(3,1)
    13: {0: 2, 2: 2},    # L(14) = (1,2)(3,2)
}

#: Figure 4(b), zero-indexed landmark *vertices*: edge -> weight.
FIGURE4_META = {(0, 1): 1, (1, 2): 1, (0, 2): 2}


# ----------------------------------------------------------------------
# Random graph corpus for differential tests
# ----------------------------------------------------------------------

def random_graph_corpus(seed: int = 0, count: int = 40):
    """A deterministic mixed bag of graph shapes for exhaustive
    differential testing. Yields ``(label, Graph)``."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        kind = i % 5
        n = int(rng.integers(5, 36))
        if kind == 0:
            yield f"er-{i}", erdos_renyi(n, float(rng.uniform(0.05, 0.45)),
                                         seed=rng)
        elif kind == 1:
            m = int(rng.integers(1, min(4, n - 1)))
            yield f"ba-{i}", barabasi_albert(n, m, seed=rng)
        elif kind == 2:
            yield f"grid-{i}", grid_2d(int(rng.integers(2, 6)),
                                       int(rng.integers(2, 6)))
        elif kind == 3:
            k = 4 if n > 5 else 2
            yield f"ws-{i}", watts_strogatz(n, k, 0.3, seed=rng)
        else:
            m = int(rng.integers(1, min(3, n - 1)))
            yield f"plc-{i}", powerlaw_cluster(n, m, 0.5, seed=rng)


def label_rng(label: str) -> np.random.Generator:
    """A generator seeded by a corpus label. ``crc32``, not ``hash()``:
    string hashes are salted per interpreter, and a test that draws
    different landmarks on every run cannot be reproduced."""
    return np.random.default_rng(zlib.crc32(label.encode()))


def random_digraph_corpus(seed: int = 0, count: int = 10):
    """Deterministic random directed graphs. Yields ``(label, DiGraph)``."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(6, 30))
        num_arcs = int(rng.integers(n, 4 * n))
        arcs = rng.integers(0, n, size=(num_arcs, 2))
        yield f"rd-{i}", DiGraph.from_arcs(arcs, num_vertices=n)


def sample_vertex_pairs(graph: Graph, count: int, seed: int = 0):
    """Deterministic vertex pairs including possible u == v draws."""
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    return [(int(rng.integers(n)), int(rng.integers(n)))
            for _ in range(count)]


def shared_arrays(graph: Graph) -> DiGraph:
    """Both orientations of ``graph`` as ONE CSR named twice — what
    ``repro build --method qbs-directed`` makes of an undirected
    stand-in, and what the shared QbS code recognises as symmetric."""
    return DiGraph(graph.indptr, graph.indices,
                   graph.indptr, graph.indices)


# ----------------------------------------------------------------------
# Serving: a busy worker without a clock, and what the collector saw
# ----------------------------------------------------------------------

@contextlib.contextmanager
def frozen_workers(service, *slots):
    """SIGSTOP these workers of a ``QueryService`` for the block. A
    frozen worker keeps whatever batch it holds (or is handed) for
    exactly as long as the test needs, on any machine."""
    processes = [service._pool._processes[slot] for slot in slots]
    for process in processes:
        os.kill(process.pid, signal.SIGSTOP)
    try:
        yield
    finally:
        for process in processes:
            if process.is_alive():
                os.kill(process.pid, signal.SIGCONT)


@contextlib.contextmanager
def retired_handles(service, attempts):
    """Hand the next ``attempts`` dispatches of a ``QueryService`` a
    handle to an epoch whose file is gone — what a batch that loses a
    hot-swap race carries — so the worker answers each with an error."""
    pool, left = service._pool, [attempts]
    submit = pool.submit

    def retiring(message, slot=None):
        if left[0]:
            left[0] -= 1
            handle = message.handle
            message = message._replace(handle=handle._replace(
                epoch=handle.epoch + 1000, ref=handle.ref + ".retired"))
        return submit(message, slot)

    pool.submit = retiring
    try:
        yield
    finally:
        del pool.submit


@contextlib.contextmanager
def recorded_responses(service):
    """The batch responses the service's collector receives during the
    block, in order, as a list that fills while it runs."""
    pool, seen = service._pool, []
    receive = pool.get_response

    def recording(timeout=None):
        message = receive(timeout)
        if isinstance(message, BatchResponse):
            seen.append(message)
        return message

    pool.get_response = recording
    try:
        # The collector is still inside an unrecorded call, which may
        # swallow one response: cycle it before anything is counted.
        while not seen:
            service.query(0, 0)
        seen.clear()
        yield seen
    finally:
        del pool.get_response
