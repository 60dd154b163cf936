"""Directed-graph extension of Query-by-Sketch (paper §2 claim)."""

from .digraph import DiGraph
from .qbs import DirectedQbSIndex

__all__ = [
    "DiGraph",
    "DirectedQbSIndex",
]
