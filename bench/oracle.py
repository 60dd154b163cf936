"""Answer checks against independent implementations.

Nothing here runs inside a timed phase.  Distances are compared with
a plain BFS (``distance_oracle``); SPG edge sets with the index-free
``bibfs`` family, and a subset again with the double-BFS
``spg_oracle`` so the two references also check each other.
"""

from __future__ import annotations

import sys
from typing import Iterable, Sequence

from repro import build_index
from repro.baselines import distance_oracle, spg_oracle

#: SPG answers re-checked against the double-BFS oracle.
SPG_ORACLE_PAIRS = 20


def _report(kind: str, u: int, v: int, got, expected) -> None:
    print(f"bench: {kind} mismatch on ({u}, {v}): got {got!r}, "
          f"expected {expected!r}", file=sys.stderr)


def wrong_distances(graph, pairs: Iterable[Sequence[int]],
                    answers: Iterable) -> int:
    """How many ``answers`` differ from the BFS distance on ``graph``."""
    wrong = 0
    for (u, v), got in zip(pairs, answers):
        expected = distance_oracle(graph, int(u), int(v))
        if got != expected:
            wrong += 1
            _report("distance", u, v, got, expected)
    return wrong


def wrong_spgs(graph, pairs: Sequence[Sequence[int]], answers: Sequence
               ) -> int:
    """How many SPG ``answers`` differ from bibfs (and the oracle)."""
    reference = build_index(graph, "bibfs")
    wrong = 0
    for slot, ((u, v), got) in enumerate(zip(pairs, answers)):
        u, v = int(u), int(v)
        expected = reference.query(u, v)
        ok = (got.distance == expected.distance
              and got.edges == expected.edges)
        if ok and slot < SPG_ORACLE_PAIRS:
            truth = spg_oracle(graph, u, v)
            ok = (got.distance == truth.distance
                  and got.edges == truth.edges)
        if not ok:
            wrong += 1
            _report("spg", u, v, (got.distance, len(got.edges)),
                    (expected.distance, len(expected.edges)))
    return wrong
