"""Applications of shortest path graphs (the paper's motivation).

The introduction motivates SPG queries with three problem families;
each has a dedicated module here:

* :mod:`~repro.applications.interdiction` — Shortest Path Network
  Interdiction (critical edges/vertices);
* :mod:`~repro.applications.rerouting` — Shortest Path Rerouting
  (single-swap reconfiguration sequences);
* :mod:`~repro.applications.common_links` — Shortest Path Common
  Links and Figure-1-style tie-strength profiles.
"""

from .common_links import TieProfile, common_links, common_vertices, \
    tie_profile
from .interdiction import (
    InterdictionReport,
    analyze_interdiction,
    vertex_path_counts,
)
from .rerouting import (
    is_shortest_path_of,
    reconfiguration_components,
    rerouting_sequence,
    single_swap_neighbors,
)

__all__ = [
    "analyze_interdiction",
    "InterdictionReport",
    "vertex_path_counts",
    "rerouting_sequence",
    "single_swap_neighbors",
    "reconfiguration_components",
    "is_shortest_path_of",
    "common_links",
    "common_vertices",
    "tie_profile",
    "TieProfile",
]
