"""Shared constants and helpers for the benchmark suite.

Importable plain module (``from _bench import ...``) so that benchmark
modules never import from ``conftest`` — the module name ``conftest``
is ambiguous whenever both ``tests/`` and ``benchmarks/`` are on
``sys.path``.

Dataset scope: cheap experiments (statistics, sizes) run on all twelve
stand-ins; timing-heavy ones use a representative subset covering the
paper's regimes — small (douban), clustered (dblp), hub-dominated
(youtube, twitter, clueweb09) and even-degree (friendster). Set
``REPRO_BENCH_FULL=1`` to run everything on all twelve.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.workloads import dataset_names

#: Paper default |R| (§6.1).
NUM_LANDMARKS = 20

#: Representative subset for timing-heavy experiments.
TIMED_DATASETS = ("douban", "dblp", "youtube", "twitter", "friendster",
                  "clueweb09")

#: Query workload size per dataset for benchmarks.
BENCH_PAIRS = 120


def timed_datasets():
    if os.environ.get("REPRO_BENCH_FULL"):
        return tuple(dataset_names())
    return TIMED_DATASETS


def all_datasets():
    return tuple(dataset_names())


#: Where the stack suites drop their JSON / trace artifacts. The
#: directory is git-ignored, so a number read from it was produced by
#: this checkout's own run (CI uploads it per suite).
OUT_DIR = Path(__file__).resolve().parent / "out"


def write_artifact(name: str, payload: Any) -> Path:
    """Dump one suite artifact as sorted, indented JSON under ``out/``."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
