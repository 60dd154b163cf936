"""Analysis helpers feeding the paper's figures and tables."""

from .coverage import CoverageReport, pair_coverage
from .distances import (
    DistanceHistogram,
    distance_distribution,
    pair_distances,
)
from .sizes import (
    QbSSizeReport,
    dataset_statistics,
    qbs_size_report,
)

__all__ = [
    "pair_coverage",
    "CoverageReport",
    "distance_distribution",
    "pair_distances",
    "DistanceHistogram",
    "qbs_size_report",
    "QbSSizeReport",
    "dataset_statistics",
]
