"""Shared fixtures for the test suite.

Reusable constants and helper functions live in ``_corpus.py`` (an
importable plain module); this file holds only pytest fixtures. Test
modules must import helpers with ``from _corpus import ...`` — never
``from conftest import ...`` — so that this conftest and the one in
``benchmarks/`` can never shadow each other.
"""

from __future__ import annotations

import glob
import os
import tempfile
import time

import pytest

from repro import Graph
from repro.graph import cycle_graph, grid_2d, path_graph

from _corpus import FIGURE3_EDGES, FIGURE4_EDGES

# ----------------------------------------------------------------------
# Nothing outlives the session
# ----------------------------------------------------------------------

def _snapshot_entries():
    """Snapshot directories under the two roots the serving layer
    derives for itself (``tempfile.gettempdir()`` re-reads the global a
    test may have patched and restored)."""
    return {path for root in ("/dev/shm", tempfile.gettempdir())
            for path in glob.glob(os.path.join(root, "repro-serving-*"))}


def _live_children():
    """``{pid: command}`` of this process's running children."""
    children = {}
    for stat_path in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat_path) as handle:
                command, _, rest = handle.read().rpartition(")")
        except OSError:  # raced an exit
            continue
        state, parent = rest.split()[:2]
        if int(parent) == os.getpid() and state != "Z":
            children[int(stat_path.split("/")[2])] = command
    return children


@pytest.fixture(scope="session", autouse=True)
def _nothing_outlives_the_session():
    """Fail the run if a test left a snapshot directory or a running
    child process behind — `QueryService.close()` is checked for this
    test by test; this catches the test that forgot to close."""
    before = _snapshot_entries()
    yield
    deadline = time.monotonic() + 5.0
    while True:  # an exiting child may need a moment
        children = _live_children()
        if not children or time.monotonic() > deadline:
            break
        time.sleep(0.1)
    leaked = sorted(_snapshot_entries() - before)
    assert not leaked, f"snapshot directories left behind: {leaked}"
    assert not children, f"child processes still running: {children}"

# ----------------------------------------------------------------------
# The paper's running examples
# ----------------------------------------------------------------------

@pytest.fixture
def figure3_graph() -> Graph:
    return Graph.from_edges(FIGURE3_EDGES)


@pytest.fixture
def figure4_graph() -> Graph:
    return Graph.from_edges(FIGURE4_EDGES)


# ----------------------------------------------------------------------
# Standard small graphs
# ----------------------------------------------------------------------

@pytest.fixture
def triangle() -> Graph:
    return Graph.from_edges([(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def square() -> Graph:
    """4-cycle: two shortest paths between opposite corners."""
    return cycle_graph(4)


@pytest.fixture
def path5() -> Graph:
    return path_graph(5)


@pytest.fixture
def two_components() -> Graph:
    """Two disjoint triangles (vertices 0-2 and 3-5)."""
    return Graph.from_edges(
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    )


@pytest.fixture
def grid4x4() -> Graph:
    return grid_2d(4, 4)
