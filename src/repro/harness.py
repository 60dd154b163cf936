"""Experiment harness: regenerate every table and figure of the paper.

Each ``run_*`` function reproduces one experiment on the synthetic
dataset stand-ins and returns a list of row dictionaries shaped like
the paper's tables; :func:`format_rows` renders them as an aligned
text table. The CLI (``python -m repro``) and the benchmark suite are
thin wrappers around these functions; see README.md for how the
experiments map to the paper's tables and figures.

All indexes are constructed through the :mod:`repro.engine` registry
(``build_index``) and all timing loops run through
:class:`~repro.engine.session.QuerySession`, so the harness measures
exactly the canonical API every other consumer uses.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ._util import Stopwatch, TimeBudget, format_bytes, format_seconds
from .analysis import (
    dataset_statistics,
    distance_distribution,
    pair_coverage,
    qbs_size_report,
)
from .engine import QueryOptions, QuerySession, build_index
from .errors import BudgetExceededError
from .workloads import (
    dataset_names,
    default_num_pairs,
    load_dataset,
    sample_pairs,
    small_dataset_names,
)

__all__ = [
    "run_table1",
    "run_table2_construction",
    "run_table2_query",
    "run_table3",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_fig10",
    "run_fig11",
    "run_remarks_traversal",
    "run_dynamic",
    "format_rows",
    "DEFAULT_LANDMARKS",
    "LANDMARK_SWEEP",
]

#: The paper's default landmark count (§6.1).
DEFAULT_LANDMARKS = 20

#: Figures 8-11 sweep 20..100; Figures 10-11 start at 5.
LANDMARK_SWEEP = (20, 40, 60, 80, 100)
CONSTRUCTION_SWEEP = (5, 10, 15, 20, 40, 60, 80, 100)

#: Budgets standing in for the paper's 24-hour DNF wall, scaled to
#: laptop stand-ins.
PPL_BUDGET_SECONDS = 60.0
PARENT_PPL_BUDGET_SECONDS = 60.0


def _datasets(names: Optional[Iterable[str]]) -> List[str]:
    return list(names) if names is not None else dataset_names()


def _workload(graph, num_pairs: Optional[int], seed: int = 11):
    count = num_pairs if num_pairs is not None else default_num_pairs(graph)
    return sample_pairs(graph, count, seed=seed)


# ----------------------------------------------------------------------
# Table 1 — dataset statistics
# ----------------------------------------------------------------------

def run_table1(names: Optional[Iterable[str]] = None) -> List[Dict]:
    """Table 1: per-dataset statistics of the stand-ins."""
    rows = []
    from .workloads import DATASETS

    for name in _datasets(names):
        spec = DATASETS[name]
        graph = load_dataset(name)
        stats = dataset_statistics(graph, seed=7)
        rows.append({
            "dataset": name,
            "type": spec.network_type,
            "paper_scale": f"{spec.paper_vertices}/{spec.paper_edges}",
            "|V|": stats["num_vertices"],
            "|E|": stats["num_edges"],
            "max_deg": stats["max_degree"],
            "avg_deg": round(stats["avg_degree"], 2),
            "avg_dist": round(stats["avg_distance"], 2),
            "|G|": format_bytes(stats["size_bytes"]),
        })
    return rows


# ----------------------------------------------------------------------
# Table 2 — construction and query time
# ----------------------------------------------------------------------

def run_table2_construction(names: Optional[Iterable[str]] = None,
                            num_landmarks: int = DEFAULT_LANDMARKS,
                            ppl_budget: float = PPL_BUDGET_SECONDS,
                            parent_budget: float = PARENT_PPL_BUDGET_SECONDS
                            ) -> List[Dict]:
    """Table 2 (left): labelling construction time per method.

    PPL/ParentPPL run only on the small stand-ins and under a time
    budget; exceeding it is reported as DNF — the laptop-scale
    equivalent of the paper's >24h and out-of-memory walls.
    """
    rows = []
    small = set(small_dataset_names())
    for name in _datasets(names):
        graph = load_dataset(name)
        with Stopwatch() as sw_qbs:
            build_index(graph, "qbs", num_landmarks=num_landmarks)
        row = {
            "dataset": name,
            "qbs": format_seconds(sw_qbs.elapsed),
            "qbs_seconds": sw_qbs.elapsed,
        }
        row["ppl"], row["ppl_seconds"] = _timed_build(
            lambda budget: build_index(graph, "ppl", budget=budget),
            ppl_budget if name in small else 0.5,
        )
        row["parent_ppl"], row["parent_ppl_seconds"] = _timed_build(
            lambda budget: build_index(graph, "parent-ppl",
                                       budget=budget),
            parent_budget if name in small else 0.5,
        )
        rows.append(row)
    return rows


def _timed_build(builder, budget_seconds: float):
    budget = TimeBudget(budget_seconds, label="construction")
    try:
        with Stopwatch() as sw:
            builder(budget)
    except BudgetExceededError as exc:
        return ("OOE" if exc.kind == "memory" else "DNF"), None
    except MemoryError:
        return "OOE", None
    return format_seconds(sw.elapsed), sw.elapsed


def run_table2_query(names: Optional[Iterable[str]] = None,
                     num_landmarks: int = DEFAULT_LANDMARKS,
                     num_pairs: Optional[int] = None,
                     ppl_budget: float = PPL_BUDGET_SECONDS) -> List[Dict]:
    """Table 2 (right): mean query time per method.

    QbS and Bi-BFS run everywhere; PPL/ParentPPL only where their
    construction finishes (as in the paper).
    """
    rows = []
    small = set(small_dataset_names())
    for name in _datasets(names):
        graph = load_dataset(name)
        pairs = _workload(graph, num_pairs)
        index = build_index(graph, "qbs", num_landmarks=num_landmarks)
        bibfs = build_index(graph, "bibfs")
        row = {"dataset": name}
        row["qbs_ms"] = _mean_query_ms(index, pairs)
        row["bibfs_ms"] = _mean_query_ms(bibfs, pairs)
        row["ppl_ms"] = row["parent_ppl_ms"] = None
        if name in small:
            try:
                budget = TimeBudget(ppl_budget, label="PPL construction")
                ppl = build_index(graph, "ppl", budget=budget)
                row["ppl_ms"] = _mean_query_ms(ppl, pairs)
            except BudgetExceededError:
                pass
            try:
                budget = TimeBudget(ppl_budget,
                                    label="ParentPPL construction")
                parent = build_index(graph, "parent-ppl", budget=budget)
                row["parent_ppl_ms"] = _mean_query_ms(parent, pairs)
            except (BudgetExceededError, MemoryError):
                pass
        row["speedup_vs_bibfs"] = round(
            row["bibfs_ms"] / row["qbs_ms"], 1
        ) if row["qbs_ms"] else None
        rows.append(row)
    return rows


def _mean_query_ms(index, pairs) -> float:
    """Mean SPG-mode query time over ``pairs`` via a QuerySession."""
    session = QuerySession(index, QueryOptions(mode="spg"))
    return session.run(pairs).mean_query_ms()


# ----------------------------------------------------------------------
# Table 3 — labelling sizes
# ----------------------------------------------------------------------

def run_table3(names: Optional[Iterable[str]] = None,
               num_landmarks: int = DEFAULT_LANDMARKS,
               ppl_budget: float = PPL_BUDGET_SECONDS) -> List[Dict]:
    """Table 3: size(L) and size(Δ) for QbS vs PPL/ParentPPL labels."""
    rows = []
    small = set(small_dataset_names())
    for name in _datasets(names):
        graph = load_dataset(name)
        index = build_index(graph, "qbs", num_landmarks=num_landmarks)
        report = qbs_size_report(index)
        row = {
            "dataset": name,
            "qbs_L": format_bytes(report.label_bytes),
            "qbs_delta": format_bytes(report.delta_bytes),
            "qbs_L_bytes": report.label_bytes,
            "qbs_delta_bytes": report.delta_bytes,
            "graph_bytes": graph.paper_size_bytes(),
            "ppl": None,
            "parent_ppl": None,
        }
        if name in small:
            try:
                ppl = build_index(
                    graph, "ppl",
                    budget=TimeBudget(ppl_budget, label="PPL"),
                )
                row["ppl"] = format_bytes(ppl.size_bytes)
                row["ppl_bytes"] = ppl.size_bytes
                parent = build_index(
                    graph, "parent-ppl",
                    budget=TimeBudget(ppl_budget, label="ParentPPL"),
                )
                row["parent_ppl"] = format_bytes(parent.size_bytes)
                row["parent_ppl_bytes"] = parent.size_bytes
            except (BudgetExceededError, MemoryError):
                pass
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Figure 7 — distance distributions
# ----------------------------------------------------------------------

def run_fig7(names: Optional[Iterable[str]] = None,
             num_pairs: Optional[int] = None) -> List[Dict]:
    """Figure 7: distance distribution of sampled pairs per dataset."""
    rows = []
    for name in _datasets(names):
        graph = load_dataset(name)
        pairs = _workload(graph, num_pairs)
        hist = distance_distribution(graph, pairs)
        rows.append({
            "dataset": name,
            "mode": hist.mode(),
            "mean": round(hist.mean(), 2),
            "max": hist.max_distance(),
            "fractions": {d: round(f, 4) for d, f in
                          hist.fractions().items()},
        })
    return rows


# ----------------------------------------------------------------------
# Figure 8 — pair coverage vs landmarks
# ----------------------------------------------------------------------

def run_fig8(names: Optional[Iterable[str]] = None,
             landmark_counts: Sequence[int] = LANDMARK_SWEEP,
             num_pairs: Optional[int] = None) -> List[Dict]:
    """Figure 8: case (i)/(ii) coverage ratios across landmark counts."""
    rows = []
    for name in _datasets(names):
        graph = load_dataset(name)
        pairs = _workload(graph, num_pairs)
        for count in landmark_counts:
            index = build_index(graph, "qbs", num_landmarks=count)
            report = pair_coverage(index, pairs)
            rows.append({
                "dataset": name,
                "landmarks": count,
                "full_ratio": round(report.full_ratio, 4),
                "partial_ratio": round(report.partial_ratio, 4),
                "covered_ratio": round(report.covered_ratio, 4),
            })
    return rows


# ----------------------------------------------------------------------
# Figure 9 — labelling size vs landmarks
# ----------------------------------------------------------------------

def run_fig9(names: Optional[Iterable[str]] = None,
             landmark_counts: Sequence[int] = LANDMARK_SWEEP) -> List[Dict]:
    """Figure 9: QbS labelling size growth with the landmark count."""
    rows = []
    for name in _datasets(names):
        graph = load_dataset(name)
        for count in landmark_counts:
            index = build_index(graph, "qbs", num_landmarks=count)
            report = qbs_size_report(index)
            rows.append({
                "dataset": name,
                "landmarks": count,
                "label_bytes": report.label_bytes,
                "delta_bytes": report.delta_bytes,
                "meta_bytes": report.meta_bytes,
                "total": format_bytes(report.total_bytes),
            })
    return rows


# ----------------------------------------------------------------------
# Figures 10 & 11 — construction / query time vs landmarks
# ----------------------------------------------------------------------

def run_fig10(names: Optional[Iterable[str]] = None,
              landmark_counts: Sequence[int] = CONSTRUCTION_SWEEP
              ) -> List[Dict]:
    """Figure 10: construction time growth (expected: linear in |R|)."""
    rows = []
    for name in _datasets(names):
        graph = load_dataset(name)
        for count in landmark_counts:
            with Stopwatch() as sw:
                build_index(graph, "qbs", num_landmarks=count)
            rows.append({
                "dataset": name,
                "landmarks": count,
                "seconds": sw.elapsed,
                "time": format_seconds(sw.elapsed),
            })
    return rows


def run_fig11(names: Optional[Iterable[str]] = None,
              landmark_counts: Sequence[int] = CONSTRUCTION_SWEEP,
              num_pairs: Optional[int] = None) -> List[Dict]:
    """Figure 11: mean query time across landmark counts."""
    rows = []
    for name in _datasets(names):
        graph = load_dataset(name)
        pairs = _workload(graph, num_pairs)
        for count in landmark_counts:
            index = build_index(graph, "qbs", num_landmarks=count)
            rows.append({
                "dataset": name,
                "landmarks": count,
                "query_ms": _mean_query_ms(index, pairs),
            })
    return rows


# ----------------------------------------------------------------------
# §6.5 remarks — edge-traversal savings
# ----------------------------------------------------------------------

def run_remarks_traversal(names: Optional[Iterable[str]] = None,
                          num_landmarks: int = DEFAULT_LANDMARKS,
                          num_pairs: Optional[int] = None) -> List[Dict]:
    """§6.5: edges traversed by QbS vs Bi-BFS on the same workload."""
    rows = []
    options = QueryOptions(mode="spg", collect_stats=True)
    for name in _datasets(names):
        graph = load_dataset(name)
        pairs = _workload(graph, num_pairs)
        index = build_index(graph, "qbs", num_landmarks=num_landmarks)
        bibfs = build_index(graph, "bibfs")
        qbs_edges = QuerySession(index, options).run(pairs) \
            .aggregate_stats()["edges_traversed"]
        bibfs_edges = QuerySession(bibfs, options).run(pairs) \
            .aggregate_stats()["edges_traversed"]
        saving = 1.0 - qbs_edges / bibfs_edges if bibfs_edges else 0.0
        rows.append({
            "dataset": name,
            "qbs_edges": qbs_edges,
            "bibfs_edges": bibfs_edges,
            "edges_saved": f"{saving:.1%}",
        })
    return rows


# ----------------------------------------------------------------------
# Dynamic updates — incremental maintenance vs rebuild-per-update
# ----------------------------------------------------------------------

def run_dynamic(names: Optional[Iterable[str]] = None,
                num_ops: Optional[int] = None,
                seed: int = 17) -> List[Dict]:
    """Amortized update cost of the dynamic subsystem per dataset.

    Builds the label family once, promotes it to a
    :class:`~repro.dynamic.DynamicIndex`, replays a seeded mixed
    insert/delete/query stream, and reports amortized per-mutation
    latency against the build-once cost a rebuild-per-update
    deployment would pay for every single edge change. Every query in
    the stream is answered by the dynamic index (through a
    :class:`QuerySession`, exercising version-keyed caching).

    Defaults to the small stand-ins — label construction is all-pairs
    work, so the large stand-ins belong to ``pytest benchmarks``.
    """
    from .dynamic import DynamicIndex
    from .workloads import generate_update_stream

    rows = []
    for name in (list(names) if names is not None
                 else small_dataset_names()):
        graph = load_dataset(name)
        with Stopwatch() as build_sw:
            static = build_index(graph, "ppl")
        index = DynamicIndex.from_static(static)
        count = num_ops if num_ops is not None \
            else min(200, max(40, graph.num_edges // 10))
        ops = generate_update_stream(graph, count, seed=seed)
        session = QuerySession(index, QueryOptions(mode="distance",
                                                   cache_size=256))
        mutations = 0
        update_seconds = 0.0
        query_records = []
        for kind, u, v in ops:
            if kind == "query":
                query_records.append(session.query(u, v))
                continue
            with Stopwatch() as sw:
                if kind == "insert":
                    index.insert_edge(u, v)
                else:
                    index.remove_edge(u, v)
            mutations += 1
            update_seconds += sw.elapsed
        stats = index.stats
        update_ms = (update_seconds / mutations * 1000.0
                     if mutations else 0.0)
        query_ms = (sum(r.seconds for r in query_records)
                    / len(query_records) * 1000.0
                    if query_records else 0.0)
        speedup = (build_sw.elapsed / (update_seconds / mutations)
                   if update_seconds and mutations else float("inf"))
        rows.append({
            "dataset": name,
            "|V|": graph.num_vertices,
            "|E|": graph.num_edges,
            "build": format_seconds(build_sw.elapsed),
            "build_seconds": build_sw.elapsed,
            "ops": len(ops),
            "mutations": mutations,
            "update_ms": update_ms,
            "query_ms": query_ms,
            "rebuilds": stats["rebuilds"],
            "fallbacks": stats["fallback_queries"],
            "speedup_vs_rebuild": f"{speedup:.0f}x",
        })
    return rows


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

def format_rows(rows: List[Dict], columns: Optional[Sequence[str]] = None
                ) -> str:
    """Render row dictionaries as an aligned text table."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = [key for key in rows[0]
                   if not key.endswith(("_bytes", "_seconds"))
                   and key != "fractions"]
    cells = [[_render(row.get(col)) for col in columns] for row in rows]
    widths = [max(len(col), *(len(line[i]) for line in cells))
              for i, col in enumerate(columns)]
    header = "  ".join(col.ljust(widths[i])
                       for i, col in enumerate(columns))
    separator = "  ".join("-" * widths[i] for i in range(len(columns)))
    body = "\n".join("  ".join(line[i].ljust(widths[i])
                               for i in range(len(columns)))
                     for line in cells)
    return "\n".join((header, separator, body))


def _render(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
