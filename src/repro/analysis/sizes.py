"""Size accounting under the paper's cost models (Tables 1 & 3, Fig 9).

The paper counts bytes with explicit conventions:

* graphs: 8 bytes per stored arc (Table 1's ``|G|``);
* QbS labels: ``|R| * 8`` bits per vertex (§6.1);
* QbS Δ: the precomputed inter-landmark shortest path graphs;
* meta-graph: negligible (< 0.01 MB even at ``|R| = 100``);
* PPL labels: 32-bit landmark + 8-bit distance per entry;
* ParentPPL: PPL plus 32 bits per stored parent.

These helpers return byte counts under those models so the harness can
print rows directly comparable with the paper's tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from ..core.qbs import QbSIndex
from ..graph.csr import Graph
from ..graph.ops import average_distance_estimate, degree_statistics

__all__ = ["QbSSizeReport", "qbs_size_report", "dataset_statistics"]


@dataclass
class QbSSizeReport:
    """Table 3 row for QbS: size(L) and size(Δ) plus the meta-graph."""

    label_bytes: int
    delta_bytes: int
    meta_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.label_bytes + self.delta_bytes + self.meta_bytes


def qbs_size_report(index: QbSIndex) -> QbSSizeReport:
    """Size accounting for a built QbS index."""
    return QbSSizeReport(
        label_bytes=index.labelling.paper_size_bytes(),
        delta_bytes=index.meta_graph.delta_total_edges() * 8,
        meta_bytes=index.meta_graph.paper_size_bytes(),
    )


def dataset_statistics(graph: Graph, seed: int = 0,
                       avg_dist_sources: int = 24) -> dict:
    """One Table 1 row for a graph.

    ``|E_un|`` equals ``|E|`` here because the canonical in-memory form
    is already undirected and deduplicated (the paper's preprocessing).
    """
    stats = degree_statistics(graph)
    return {
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "num_edges_undirected": graph.num_edges,
        "max_degree": stats["max"],
        "avg_degree": stats["mean"],
        "avg_distance": average_distance_estimate(
            graph, num_sources=avg_dist_sources, seed=seed
        ),
        "size_bytes": graph.paper_size_bytes(),
    }
