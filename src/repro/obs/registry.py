"""Process-local metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` per process is the intended shape (the
module-level default from :func:`get_registry`); every subsystem
registers its series there, so one scrape — Prometheus text via
:meth:`MetricsRegistry.render_prometheus`, or a nested dict via
:meth:`MetricsRegistry.snapshot` — sees the whole stack: session
caches, batch kernels, shard relays, store page faults, build phases
and the serving tier.

Design constraints, in order:

* **lock-cheap hot path** — instrument handles are cached by the
  caller once (``self._m_hits = registry.counter(...)``) so an
  increment is one small-lock ``+=``; creating/looking up instruments
  takes the registry lock, incrementing takes only the instrument's
  own lock;
* **numpy-backed histograms** — fixed cumulative-style buckets with an
  ``int64`` count vector; a batch of observations lands as one
  ``np.add.at`` (:meth:`Histogram.observe_many`), so instrumenting a
  4k-pair kernel call costs one vector op, not 4k Python calls;
* **fork-aware** — a forked serving worker inherits the parent's
  counts; :meth:`MetricsRegistry.flush_deltas` returns (and re-bases
  on) the increments since the previous flush, so a worker that
  discards its first flush at startup ships *exactly* its own work
  back to the parent, once, and :meth:`MetricsRegistry.merge` folds
  those deltas in — no double counting across respawns;
* **scrape-time collectors** — objects that already keep their own
  counters (the store page caches) register a collector callable
  instead of paying per-access registry traffic; collectors run only
  when a scrape happens.

Disabling: a registry built with ``enabled=False`` hands out shared
no-op instruments, which is what the overhead benchmark compares
against (``repro.obs.set_registry``).
"""

from __future__ import annotations

import functools
import platform
import threading
import time
import weakref
from bisect import bisect_left
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "get_registry", "set_registry", "DEFAULT_LATENCY_BUCKETS",
    "format_sample", "build_info", "install_build_info",
]

#: Default histogram buckets for latencies in seconds: 5us .. 10s.
DEFAULT_LATENCY_BUCKETS = (
    5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Label set as a hashable, order-independent key component.
_Labels = Tuple[Tuple[str, str], ...]

#: Per-thread nesting depth of metric critical sections. In-process
#: hooks that can fire at *arbitrary allocation points* — the
#: ``gc.callbacks`` pause hook — must check
#: :func:`in_critical_section` and drop their sample when it is set:
#: registry and instrument locks are non-reentrant, and metric code
#: allocates while holding them, so a GC landing inside a locked
#: section would self-deadlock the thread if its callback touched the
#: registry again (observed as a single-thread futex wait).
#:
#: Only the *registry* lock and the scrape/flush/merge surfaces mark
#: the depth; the per-instrument ``inc``/``observe`` hot path keeps a
#: bare C lock (the overhead budget is 5% on a 1024-inc batch). That
#: is sufficient: the hook only touches ``gc_*`` instruments, and the
#: only code paths that lock *those* are the hook itself (collections
#: are serialized, so it never interrupts itself) and the marked
#: scrape/flush/merge loops.


class _Tls(threading.local):
    depth = 0


_tls = _Tls()


class _ObsLock:
    """``threading.Lock`` that tracks this thread's nesting depth.

    Depth is raised *before* acquiring and lowered *after* releasing,
    so every race errs toward :func:`in_critical_section` reading
    ``True`` — a hook drops one sample instead of deadlocking.
    """

    __slots__ = ("_lock",)

    def __init__(self) -> None:
        self._lock = threading.Lock()

    def __enter__(self) -> "_ObsLock":
        _tls.depth += 1
        self._lock.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self._lock.release()
        _tls.depth -= 1


class _CriticalMark:
    """Raises the thread's critical depth without taking any lock.

    Wraps the scrape/flush/merge bodies, whose instrument-lock
    sections the GC hook must not re-enter.
    """

    __slots__ = ()

    def __enter__(self) -> None:
        _tls.depth += 1

    def __exit__(self, *exc: object) -> None:
        _tls.depth -= 1


_CRITICAL = _CriticalMark()


def in_critical_section() -> bool:
    """True while this thread is inside a metric critical section."""
    return _tls.depth > 0


def _label_key(labels: Dict[str, Any]) -> _Labels:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_value(value: float) -> str:
    """Prometheus sample value: integers without a trailing ``.0``."""
    if value == float("inf"):
        return "+Inf"
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def format_sample(name: str, labels: Dict[str, Any],
                  value: float) -> str:
    """One Prometheus text-format sample line."""
    if labels:
        rendered = ",".join(
            f'{k}="{v}"' for k, v in _label_key(labels))
        return f"{name}{{{rendered}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


class Counter:
    """Monotonic float counter with flush-delta bookkeeping.

    Every change marks the counter in ``dirty`` — its registry's set
    of instruments touched since the last flush — after the value
    moves, so a flush racing an increment either takes it or leaves
    the counter marked.
    """

    __slots__ = ("name", "labels", "_lock", "_value", "_flushed",
                 "_dirty")

    def __init__(self, name: str, labels: _Labels,
                 dirty: Optional[set] = None) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0
        self._flushed = 0.0
        self._dirty = dirty if dirty is not None else set()

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount
            self._dirty.add(self)

    @property
    def value(self) -> float:
        return self._value

    def _take_delta(self) -> float:
        with self._lock:
            delta = self._value - self._flushed
            self._flushed = self._value
            return delta


class Gauge:
    """Point-in-time value; process-local (gauges never ship deltas)."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: _Labels) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram over a numpy ``int64`` count vector.

    ``buckets`` are the inclusive upper bounds (``le``); one implicit
    ``+Inf`` bucket catches the tail. Counts are *per bucket* in
    storage and cumulated only at render time, which keeps
    :meth:`observe_many` a single ``np.add.at``. Every change marks
    the histogram in ``dirty``, as for :class:`Counter`.
    """

    __slots__ = ("name", "labels", "buckets", "_lock", "_counts",
                 "_sum", "_flushed_counts", "_flushed_sum", "_dirty")

    def __init__(self, name: str, labels: _Labels,
                 buckets: Tuple[float, ...],
                 dirty: Optional[set] = None) -> None:
        self.name = name
        self.labels = labels
        self.buckets = tuple(float(b) for b in buckets)
        if list(self.buckets) != sorted(self.buckets) \
                or len(set(self.buckets)) != len(self.buckets):
            raise ValueError(
                f"histogram {name!r} buckets must be strictly "
                f"increasing")
        self._lock = threading.Lock()
        self._counts = np.zeros(len(self.buckets) + 1, dtype=np.int64)
        self._sum = 0.0
        self._flushed_counts = np.zeros_like(self._counts)
        self._flushed_sum = 0.0
        self._dirty = dirty if dirty is not None else set()

    def observe(self, value: float) -> None:
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._dirty.add(self)

    def observe_many(self, values) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        indexes = np.searchsorted(self.buckets, values, side="left")
        with self._lock:
            np.add.at(self._counts, indexes, 1)
            self._sum += float(values.sum())
            self._dirty.add(self)

    # -- reads ----------------------------------------------------------

    @property
    def count(self) -> int:
        return int(self._counts.sum())

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate (0 on empty)."""
        with _CRITICAL, self._lock:
            counts = self._counts.copy()
        total = int(counts.sum())
        if total == 0:
            return 0.0
        target = q * total
        cumulative = np.cumsum(counts)
        index = int(np.searchsorted(cumulative, target, side="left"))
        if index >= len(self.buckets):
            return self.buckets[-1] if self.buckets else 0.0
        lo = self.buckets[index - 1] if index > 0 else 0.0
        hi = self.buckets[index]
        below = int(cumulative[index - 1]) if index > 0 else 0
        inside = int(counts[index])
        if inside == 0:
            return hi
        return lo + (hi - lo) * (target - below) / inside

    def bucket_counts(self) -> Tuple[Tuple[float, ...], List[int],
                                     float]:
        """Consistent ``(bucket_bounds, per_bucket_counts, sum)`` read.

        ``per_bucket_counts`` has one extra trailing entry for the
        implicit ``+Inf`` bucket. This is the read surface the SLO
        engine samples — good/bad counting needs the raw per-bucket
        vector, not the interpolated quantile.
        """
        with _CRITICAL, self._lock:
            counts = self._counts.copy()
            total = self._sum
        return self.buckets, [int(c) for c in counts], total

    def _take_delta(self) -> Optional[Dict[str, Any]]:
        with self._lock:
            counts = self._counts - self._flushed_counts
            total = self._sum - self._flushed_sum
            if not counts.any() and total == 0.0:
                return None
            self._flushed_counts = self._counts.copy()
            self._flushed_sum = self._sum
            return {"buckets": list(self.buckets),
                    "counts": counts.tolist(), "sum": float(total)}

    def _merge_delta(self, delta: Dict[str, Any]) -> None:
        counts = np.asarray(delta["counts"], dtype=np.int64)
        with self._lock:
            if len(counts) != len(self._counts):
                raise ValueError(
                    f"histogram {self.name!r} delta has "
                    f"{len(counts)} buckets, registry has "
                    f"{len(self._counts)}")
            self._counts += counts
            self._sum += float(delta["sum"])
            self._dirty.add(self)


class _Noop:
    """Shared do-nothing instrument for a disabled registry."""

    __slots__ = ()
    name = "noop"
    labels: _Labels = ()
    buckets: Tuple[float, ...] = ()
    value = 0.0
    count = 0
    sum = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0


_NOOP = _Noop()

#: Collector signature: yields ``(kind, name, labels, value)`` samples
#: where ``kind`` is ``"counter"`` or ``"gauge"``.
_Collector = Callable[[], Iterable[Tuple[str, str, Dict[str, Any],
                                         float]]]


class MetricsRegistry:
    """Instrument factory plus scrape, flush and merge surfaces."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = _ObsLock()
        self._counters: Dict[Tuple[str, _Labels], Counter] = {}
        self._gauges: Dict[Tuple[str, _Labels], Gauge] = {}
        self._histograms: Dict[Tuple[str, _Labels], Histogram] = {}
        self._help: Dict[str, str] = {}
        self._collectors: List[_Collector] = []
        #: Counters and histograms changed since the last flush: a
        #: value differs from its flushed baseline only while its
        #: instrument is in here, so a flush visits what changed.
        self._dirty: set = set()

    # -- instrument factories ------------------------------------------

    def counter(self, name: str, help: str = "",
                **labels: Any) -> Counter:
        if not self.enabled:
            return _NOOP  # type: ignore[return-value]
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._counters.get(key)
            if instrument is None:
                instrument = Counter(name, key[1], self._dirty)
                self._counters[key] = instrument
            if help:
                self._help.setdefault(name, help)
            return instrument

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        if not self.enabled:
            return _NOOP  # type: ignore[return-value]
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._gauges.get(key)
            if instrument is None:
                instrument = Gauge(name, key[1])
                self._gauges[key] = instrument
            if help:
                self._help.setdefault(name, help)
            return instrument

    def histogram(self, name: str,
                  buckets: Optional[Tuple[float, ...]] = None,
                  help: str = "", **labels: Any) -> Histogram:
        if not self.enabled:
            return _NOOP  # type: ignore[return-value]
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._histograms.get(key)
            if instrument is None:
                instrument = Histogram(
                    name, key[1],
                    tuple(buckets) if buckets is not None
                    else DEFAULT_LATENCY_BUCKETS, self._dirty)
                self._histograms[key] = instrument
            if help:
                self._help.setdefault(name, help)
            return instrument

    def register_collector(self, collector: _Collector) -> None:
        """Add a scrape-time sample source (see module docstring)."""
        with self._lock:
            self._collectors.append(collector)

    # -- scraping -------------------------------------------------------

    def _collected(self) -> List[Tuple[str, str, Dict[str, Any], float]]:
        with self._lock:
            collectors = list(self._collectors)
        samples = []
        for collector in collectors:
            samples.extend(collector())
        return samples

    def snapshot(self) -> Dict[str, Any]:
        """Nested dict view: ``{"counters": {...}, ...}``.

        Counter/gauge keys are ``name`` or ``name{k=v,...}``;
        histograms map to ``{count, sum, p50, p99}`` summaries. The
        serving ``stats()`` dicts and the CLI ``stats`` command both
        print this.
        """
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        out: Dict[str, Any] = {"counters": {}, "gauges": {},
                               "histograms": {}}
        with _CRITICAL:
            for c in counters:
                out["counters"][_flat_key(c.name, c.labels)] = c.value
            for g in gauges:
                out["gauges"][_flat_key(g.name, g.labels)] = g.value
            for h in histograms:
                out["histograms"][_flat_key(h.name, h.labels)] = {
                    "count": h.count,
                    "sum": h.sum,
                    "p50": h.quantile(0.5),
                    "p99": h.quantile(0.99),
                }
            for kind, name, labels, value in self._collected():
                bucket = "counters" if kind == "counter" else "gauges"
                out[bucket][_flat_key(name, _label_key(labels))] = value
        return out

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
            help_text = dict(self._help)
        lines: List[str] = []
        seen_types: Dict[str, str] = {}

        def _head(name: str, kind: str) -> None:
            if seen_types.get(name) == kind:
                return
            seen_types[name] = kind
            if name in help_text:
                lines.append(f"# HELP {name} {help_text[name]}")
            lines.append(f"# TYPE {name} {kind}")

        with _CRITICAL:
            for c in sorted(counters, key=lambda i: (i.name, i.labels)):
                _head(c.name, "counter")
                lines.append(
                    format_sample(c.name, dict(c.labels), c.value))
            for g in sorted(gauges, key=lambda i: (i.name, i.labels)):
                _head(g.name, "gauge")
                lines.append(
                    format_sample(g.name, dict(g.labels), g.value))
            for h in sorted(histograms,
                            key=lambda i: (i.name, i.labels)):
                _head(h.name, "histogram")
                with h._lock:
                    counts = h._counts.copy()
                    total = h._sum
                cumulative = 0
                for bound, bucket_count in zip(h.buckets, counts):
                    cumulative += int(bucket_count)
                    labels = dict(h.labels)
                    labels["le"] = _format_value(bound)
                    lines.append(format_sample(
                        f"{h.name}_bucket", labels, cumulative))
                labels = dict(h.labels)
                labels["le"] = "+Inf"
                cumulative += int(counts[-1])
                lines.append(format_sample(f"{h.name}_bucket", labels,
                                           cumulative))
                lines.append(format_sample(f"{h.name}_sum",
                                           dict(h.labels), total))
                lines.append(format_sample(f"{h.name}_count",
                                           dict(h.labels), cumulative))
            for kind, name, labels, value in sorted(
                    self._collected(),
                    key=lambda s: (s[1], _label_key(s[2]))):
                _head(name, "counter" if kind == "counter" else "gauge")
                lines.append(format_sample(name, labels, value))
        return "\n".join(lines) + "\n"

    # -- fork transport -------------------------------------------------

    def flush_deltas(self) -> Dict[str, Any]:
        """Increments since the previous flush, re-basing the baseline.

        The returned dict is picklable (plain containers only) and
        feeds :meth:`merge` on the receiving side. A forked worker
        inherits the parent's absolute counts, so it must discard its
        *first* flush at startup — after that, every flush carries
        exactly the work done since the one before, once. Only the
        instruments marked dirty since the previous flush are visited
        (the fork inherits the marks with the counts).
        """
        dirty = self._dirty
        counter_deltas = {}
        histogram_deltas = {}
        with _CRITICAL:
            for instrument in dirty.copy():
                # Unmark, then take: a change landing in between is
                # taken now or marks the instrument again.
                dirty.discard(instrument)
                delta = instrument._take_delta()
                if not delta:
                    continue
                key = (instrument.name, instrument.labels)
                if isinstance(instrument, Counter):
                    counter_deltas[key] = delta
                else:
                    histogram_deltas[key] = delta
        deltas: Dict[str, Any] = {}
        if counter_deltas:
            deltas["counters"] = counter_deltas
        if histogram_deltas:
            deltas["histograms"] = histogram_deltas
        return deltas

    def merge(self, deltas: Optional[Dict[str, Any]]) -> None:
        """Fold a :meth:`flush_deltas` payload into this registry."""
        if not deltas or not self.enabled:
            return
        with _CRITICAL:
            for (name, labels), delta in deltas.get("counters",
                                                    {}).items():
                self.counter(name, **dict(labels)).inc(delta)
            for (name, labels), delta in deltas.get("histograms",
                                                    {}).items():
                histogram = self.histogram(
                    name, buckets=tuple(delta["buckets"]),
                    **dict(labels))
                histogram._merge_delta(delta)


def _flat_key(name: str, labels: _Labels) -> str:
    if not labels:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


# ----------------------------------------------------------------------
# Module-level default registry and the page-cache collector hookup
# ----------------------------------------------------------------------

_default_registry = MetricsRegistry()
_registry_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process's default registry (what instrumented code uses)."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry; returns the previous one.

    The overhead benchmark installs a ``MetricsRegistry(enabled=False)``
    to measure the uninstrumented baseline, then restores.
    """
    global _default_registry
    with _registry_lock:
        previous = _default_registry
        _default_registry = registry
    return previous


#: Live page caches (weak — a closed store's cache must not linger).
_page_caches: "weakref.WeakSet" = weakref.WeakSet()


def register_page_cache(cache) -> None:
    """Track a :class:`~repro.store.cache.PageCache` for scraping.

    Registration is weak and costs nothing on the cache's hot path:
    the cache keeps its plain attribute counters, and the default
    registry's scrape sums them over all live caches into the
    ``store_page_cache_*`` series — so ``GET /metrics`` agrees with
    the ``stats()`` dicts without per-access registry traffic.
    """
    _page_caches.add(cache)


def _page_cache_collector():
    caches = list(_page_caches)
    if not caches:
        return []
    sums = {"hits": 0, "misses": 0, "evictions": 0, "pinned_hits": 0}
    resident = 0
    for cache in caches:
        sums["hits"] += cache.hits
        sums["misses"] += cache.misses
        sums["evictions"] += cache.evictions
        sums["pinned_hits"] += cache.pinned_hits
        resident += cache.resident_bytes
    return [
        ("counter", "store_page_cache_hits_total", {}, sums["hits"]),
        ("counter", "store_page_cache_misses_total", {},
         sums["misses"]),
        ("counter", "store_page_cache_evictions_total", {},
         sums["evictions"]),
        ("counter", "store_page_cache_pinned_hits_total", {},
         sums["pinned_hits"]),
        ("gauge", "store_page_cache_resident_bytes", {}, resident),
        ("gauge", "store_page_caches", {}, len(caches)),
    ]


_default_registry.register_collector(_page_cache_collector)


# ----------------------------------------------------------------------
# Build-info / uptime collector
# ----------------------------------------------------------------------

_process_start_mono = time.monotonic()


def _read_git_sha() -> str:
    """Best-effort short git sha by walking up to a ``.git`` dir.

    Reads ``HEAD`` and resolves one level of ``ref:`` indirection via
    the loose ref file or ``packed-refs`` — no subprocess, so scrapes
    stay cheap and the sandbox-friendly path works in CI checkouts.
    Returns ``"-"`` outside a git checkout.
    """
    try:
        here = Path(__file__).resolve()
        for base in (*here.parents, Path.cwd()):
            git_dir = base / ".git"
            head = git_dir / "HEAD"
            if not head.is_file():
                continue
            text = head.read_text().strip()
            if not text.startswith("ref:"):
                return text[:12]
            ref = text.split(None, 1)[1]
            loose = git_dir / ref
            if loose.is_file():
                return loose.read_text().strip()[:12]
            packed = git_dir / "packed-refs"
            if packed.is_file():
                for line in packed.read_text().splitlines():
                    if line.endswith(ref) and not line.startswith("#"):
                        return line.split()[0][:12]
            return "-"
    except OSError:
        pass
    return "-"


@functools.lru_cache(maxsize=1)
def build_info() -> Dict[str, str]:
    """Static build identity: package version, git sha, python."""
    try:
        from importlib.metadata import version
        pkg_version = version("repro-qbs")
    except Exception:
        pkg_version = "unknown"
    return {
        "version": pkg_version,
        "git_sha": _read_git_sha(),
        "python": platform.python_version(),
    }


def _build_info_collector():
    return [
        ("gauge", "repro_build_info", build_info(), 1.0),
        ("gauge", "service_uptime_seconds", {},
         time.monotonic() - _process_start_mono),
    ]


def install_build_info(registry: MetricsRegistry) -> None:
    """Register the ``repro_build_info`` info-style metric (constant
    value 1, identity in the labels) and the ``service_uptime_seconds``
    gauge on ``registry``."""
    registry.register_collector(_build_info_collector)


install_build_info(_default_registry)
