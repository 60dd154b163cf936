"""Observability layer: metrics, traces, profiles, resources.

See :mod:`repro.obs.registry` for the metrics model (counters, gauges,
numpy-backed histograms, fork-aware deltas, Prometheus rendering) and
:mod:`repro.obs.trace` for span-based tracing with a zero-cost
untraced path, cross-process trace contexts, the stitched-trace buffer
with tail retention and Chrome trace-event export for Perfetto.
Everything instruments against the process default registry
(:func:`get_registry`); swap it with :func:`set_registry` (e.g. a
``MetricsRegistry(enabled=False)`` to measure uninstrumented
baselines).

On top of the registry sit the continuous-profiling pieces:
:mod:`repro.obs.profiler` (folded-stack sampling profiler) and
:mod:`repro.obs.resources` (RSS / fd / GC telemetry — its scrape-time
collector and GC hook are installed on the default registry at
import).

The fleet-facing layer: :mod:`repro.obs.slo` (declarative objectives
scored with multi-window burn rates) and :mod:`repro.obs.audit`
(continuous oracle auditing of served answers).
"""

from .audit import OracleAuditor
from .profiler import (
    SamplingProfiler,
    active_profiler,
    attach_profile,
    collect_profile,
    merge_folded,
    render_folded,
    top_frames,
)
from .registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    build_info,
    get_registry,
    install_build_info,
    register_page_cache,
    set_registry,
)
from .slo import DEFAULT_SLO_CONFIG, Objective, SloEngine, \
    parse_slo_config
from .resources import (
    install_gc_telemetry,
    register_resource_collector,
    resource_snapshot,
)
from .slowlog import SLOWLOG, log_slow_query
from .trace import (
    Span,
    StitchedTrace,
    TraceBuffer,
    TraceContext,
    TraceSampler,
    chrome_trace,
    current_add,
    format_span_tree,
    span,
    span_records,
    stage_breakdown,
    stage_totals,
    start_trace,
    trace_from_context,
    validate_chrome_trace,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "register_page_cache",
    "SLOWLOG",
    "log_slow_query",
    "SamplingProfiler",
    "active_profiler",
    "attach_profile",
    "collect_profile",
    "merge_folded",
    "render_folded",
    "top_frames",
    "resource_snapshot",
    "register_resource_collector",
    "install_gc_telemetry",
    "Span",
    "TraceSampler",
    "start_trace",
    "span",
    "current_add",
    "format_span_tree",
    "stage_totals",
    "stage_breakdown",
    "build_info",
    "install_build_info",
    "TraceContext",
    "StitchedTrace",
    "TraceBuffer",
    "trace_from_context",
    "span_records",
    "chrome_trace",
    "validate_chrome_trace",
    "Objective",
    "SloEngine",
    "parse_slo_config",
    "DEFAULT_SLO_CONFIG",
    "OracleAuditor",
]

# Resource telemetry is on by default: the scrape-time collector costs
# nothing between scrapes, and the GC hook costs two timestamps per
# collection. Forked serving workers inherit both; worker GC series
# ride home in the ordinary metrics deltas.
register_resource_collector(get_registry())
install_gc_telemetry()
