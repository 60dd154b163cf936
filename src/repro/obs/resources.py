"""Resource telemetry: RSS, peak RSS, open fds, GC pauses.

The registry's counters say how much *work* the process did; this
module says what the work *cost the machine* — the numbers the PR-6
out-of-core bench reads by hand from ``/proc`` (VmRSS / VmHWM), made
into standing scrape-time series, plus garbage-collector pause
telemetry (a GC pause in a serving worker is a latency cliff the
stage histograms cannot explain).

Three pieces:

* :func:`resource_snapshot` — a picklable point-in-time dict (pid,
  RSS, peak RSS, open fds, plus the GC collection counts of the
  calling process). Given another process's pid it reads that
  process's ``/proc`` entries instead: a serving parent reads each
  live worker's this way when ``stats()`` or ``GET /metrics`` asks,
  so the fleet's memory footprint costs the workers nothing;
* :func:`register_resource_collector` — a scrape-time collector for a
  :class:`~repro.obs.registry.MetricsRegistry`: ``GET /metrics``
  picks up ``process_resident_bytes`` / ``process_peak_resident_bytes``
  / ``process_open_fds`` without any periodic poller (collectors run
  only when a scrape happens, matching the page-cache pattern);
* :func:`install_gc_telemetry` — a ``gc.callbacks`` hook timing every
  collection into the ``gc_pause_seconds`` histogram and counting
  ``gc_collections_total{generation=g}`` / ``gc_collected_total``.
  CPython runs collections on the thread that triggered allocation,
  serially, so one module-level start timestamp is race-free. A
  collection that fires while the triggering thread is already inside
  a registry/instrument critical section is *dropped* rather than
  recorded (:func:`repro.obs.registry.in_critical_section`) — the
  locks are non-reentrant and re-entering would self-deadlock.

Everything degrades gracefully off Linux: ``/proc`` readers return
empty dicts / ``-1`` and the series simply don't publish.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Any, Dict, Optional

from .registry import MetricsRegistry, get_registry, in_critical_section

__all__ = [
    "read_proc_status", "open_fd_count", "resource_snapshot",
    "register_resource_collector", "install_gc_telemetry",
    "uninstall_gc_telemetry",
]

#: ``/proc/<pid>/status`` fields worth exporting, with their meaning:
#: VmRSS = current resident set, VmHWM = peak resident set ("high
#: water mark" — the PR-6 bench methodology), Threads = thread count.
_STATUS_FIELDS = {"VmRSS": "rss_bytes", "VmHWM": "peak_rss_bytes",
                  "Threads": "threads"}


def read_proc_status(pid: str = "self") -> Dict[str, int]:
    """Parse ``/proc/<pid>/status`` into bytes-valued fields.

    Returns ``{}`` where ``/proc`` is unavailable (non-Linux) — every
    consumer treats missing keys as "don't publish".
    """
    out: Dict[str, int] = {}
    try:
        with open(f"/proc/{pid}/status", "r") as handle:
            for line in handle:
                key, _, rest = line.partition(":")
                name = _STATUS_FIELDS.get(key)
                if name is None:
                    continue
                parts = rest.split()
                if not parts:
                    continue
                value = int(parts[0])
                if len(parts) > 1 and parts[1] == "kB":
                    value *= 1024
                out[name] = value
    except OSError:
        return {}
    return out


def open_fd_count(pid: str = "self") -> int:
    """Open file descriptors of process ``pid`` (``-1`` off Linux or
    once the process is gone)."""
    try:
        return len(os.listdir(f"/proc/{pid}/fd"))
    except OSError:
        return -1


def resource_snapshot(pid: Optional[int] = None) -> Dict[str, Any]:
    """Point-in-time resource dict of this process, or of the process
    ``pid`` (picklable; see module docstring). GC counts are only
    readable from inside a process, so only the own-process snapshot
    carries them."""
    target = "self" if pid is None else str(pid)
    snapshot: Dict[str, Any] = {
        "pid": os.getpid() if pid is None else pid}
    snapshot.update(read_proc_status(target))
    fds = open_fd_count(target)
    if fds >= 0:
        snapshot["open_fds"] = fds
    if pid is None:
        snapshot["gc_pending"] = sum(gc.get_count())
        snapshot["gc_collections"] = sum(
            generation["collections"] for generation in gc.get_stats())
    return snapshot


def register_resource_collector(
        registry: Optional[MetricsRegistry] = None) -> None:
    """Add the process-resource scrape-time collector to a registry."""
    registry = registry if registry is not None else get_registry()
    registry.register_collector(_resource_collector)


def _resource_collector():
    samples = []
    status = read_proc_status()
    if "rss_bytes" in status:
        samples.append(("gauge", "process_resident_bytes", {},
                        status["rss_bytes"]))
    if "peak_rss_bytes" in status:
        samples.append(("gauge", "process_peak_resident_bytes", {},
                        status["peak_rss_bytes"]))
    if "threads" in status:
        samples.append(("gauge", "process_threads", {},
                        status["threads"]))
    fds = open_fd_count()
    if fds >= 0:
        samples.append(("gauge", "process_open_fds", {}, fds))
    return samples


# ----------------------------------------------------------------------
# GC pause telemetry
# ----------------------------------------------------------------------

#: Start timestamp of the collection in progress. Collections are
#: serialized by the interpreter, so a single slot suffices.
_gc_started: Optional[float] = None
_gc_installed = False

#: Pause buckets: GC pauses live in the 10us..1s decade, below the
#: default latency buckets' useful resolution.
_GC_PAUSE_BUCKETS = (1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3,
                     1e-2, 5e-2, 0.1, 0.5, 1.0)


def _gc_callback(phase: str, info: Dict[str, Any]) -> None:
    global _gc_started
    if phase == "start":
        _gc_started = time.perf_counter()
        return
    started, _gc_started = _gc_started, None
    # A collection can trigger at any allocation point — including
    # inside a registry or instrument critical section on *this*
    # thread, whose locks are non-reentrant. Recording would
    # self-deadlock there, so drop the sample instead; the next
    # collection reports as usual.
    if in_critical_section():
        return
    # The hook reads the *current* registry per event, so tests that
    # install a fresh registry see their own GC series; instruments
    # are cached inside the registry, making this two dict hits.
    registry = get_registry()
    registry.counter(
        "gc_collections_total",
        help="Garbage collections observed, by generation.",
        generation=info.get("generation", -1)).inc()
    collected = info.get("collected", 0)
    if collected:
        registry.counter(
            "gc_collected_total",
            help="Objects reclaimed by the garbage collector.").inc(
            collected)
    if started is not None:
        registry.histogram(
            "gc_pause_seconds", buckets=_GC_PAUSE_BUCKETS,
            help="Stop-the-world garbage-collection pause time."
        ).observe(time.perf_counter() - started)


def install_gc_telemetry() -> bool:
    """Install the GC pause hook (idempotent); ``True`` if newly added.

    Installed once per process at :mod:`repro.obs` import; forked
    serving workers inherit the hook, and their pause observations
    ride home in the ordinary metrics deltas.
    """
    global _gc_installed
    if _gc_installed:
        return False
    gc.callbacks.append(_gc_callback)
    _gc_installed = True
    return True


def uninstall_gc_telemetry() -> None:
    """Remove the GC hook (tests that must not see foreign pauses)."""
    global _gc_installed, _gc_started
    try:
        gc.callbacks.remove(_gc_callback)
    except ValueError:
        pass
    _gc_installed = False
    _gc_started = None
