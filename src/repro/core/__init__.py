"""QbS core: the paper's contribution (labelling, sketching, searching)."""

from .labelling import PathLabelling, build_labelling
from .landmarks import LANDMARK_STRATEGIES, select_landmarks
from .metagraph import MetaGraph, build_meta_graph
from .qbs import BuildReport, QbSIndex
from .search import GuidedSearcher, SearchStats, bidirectional_spg
from .sketch import Sketch, compute_sketch
from .spg import ShortestPathGraph

__all__ = [
    "QbSIndex",
    "BuildReport",
    "ShortestPathGraph",
    "PathLabelling",
    "build_labelling",
    "MetaGraph",
    "build_meta_graph",
    "Sketch",
    "compute_sketch",
    "GuidedSearcher",
    "SearchStats",
    "bidirectional_spg",
    "select_landmarks",
    "LANDMARK_STRATEGIES",
]
