"""Shared fixtures for the benchmark suite.

Each benchmark module regenerates one table or figure of the paper on
the synthetic stand-ins. Session-scoped fixtures share built indices
across modules so the suite's wall-time goes into the measured
operations, not setup.

Constants and plain helpers live in ``_bench.py``; benchmark modules
import them with ``from _bench import ...`` (never from ``conftest``,
which is an ambiguous module name across suites). Indexes are built
through the :mod:`repro.engine` registry — the benchmarks measure
whatever the canonical construction path produces.
"""

from __future__ import annotations

import pytest

from repro.engine import build_index
from repro.workloads import load_dataset, sample_pairs

from _bench import BENCH_PAIRS, NUM_LANDMARKS, timed_datasets


@pytest.fixture(scope="session")
def graphs():
    """name -> Graph for the timed subset."""
    return {name: load_dataset(name) for name in timed_datasets()}


@pytest.fixture(scope="session")
def indices(graphs):
    """name -> built QbS index (|R| = 20) for the timed subset."""
    return {name: build_index(graph, "qbs", num_landmarks=NUM_LANDMARKS)
            for name, graph in graphs.items()}


@pytest.fixture(scope="session")
def bibfs(graphs):
    return {name: build_index(graph, "bibfs")
            for name, graph in graphs.items()}


@pytest.fixture(scope="session")
def workloads(graphs):
    """name -> seeded query pairs."""
    return {name: sample_pairs(graph, BENCH_PAIRS, seed=11)
            for name, graph in graphs.items()}
