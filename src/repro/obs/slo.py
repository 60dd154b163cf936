"""Service-level objectives evaluated from the metrics registry.

An :class:`Objective` declares what "good" means for one aspect of the
serving tier; the :class:`SloEngine` periodically samples the registry
and scores each objective with the **multi-window burn-rate** method:

* the *error budget* is ``1 - target`` (a 99% latency target leaves a
  1% budget of slow requests);
* over each sliding window, the *burn rate* is the fraction of bad
  events in that window divided by the budget — burn 1.0 means the
  budget is being consumed exactly as fast as it accrues, burn 10
  means ten times too fast;
* an objective **breaches** only when the burn rate exceeds 1.0 in
  *every* configured window (default 60s and 300s) — the short window
  makes alerts fast, the long window keeps a one-batch blip from
  paging anyone.

Three objective kinds cover the serving tier:

``latency``
    Good events are histogram observations at or under ``threshold``
    seconds (counted from bucket bounds — the threshold should sit on
    a bucket boundary; if it does not, the next lower bound is used,
    which errs strict). Source: any registry histogram plus labels,
    e.g. ``session_query_seconds{mode=distance}``.
``ratio``
    Bad over total from counters, e.g. failed vs answered requests,
    or audit mismatches vs audited answers — the correctness SLO that
    turns "oracle-exact" into a monitored invariant.
``value``
    An instantaneous reading from a registered provider compared to
    ``threshold`` (epoch staleness). No windows: breach is "now".

Every evaluation also publishes ``slo_burn_rate{slo=,window=}`` and
``slo_budget_remaining{slo=}`` gauges so the scrape surface shows the
same numbers ``GET /slo`` and ``repro slo status`` report.
"""

from __future__ import annotations

import bisect
import threading
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional

from .registry import MetricsRegistry, get_registry

__all__ = [
    "Objective", "SloEngine", "parse_slo_config", "DEFAULT_SLO_CONFIG",
]

#: Sliding evaluation windows in seconds (short alerts fast, long
#: filters blips). Overridable per engine.
DEFAULT_WINDOWS = (60.0, 300.0)

KINDS = ("latency", "ratio", "value")


class Objective(NamedTuple):
    """One declarative objective (see module docstring for kinds)."""

    name: str
    kind: str
    #: Fraction of events that must be good (latency/ratio kinds).
    target: float = 0.99
    #: Latency bound in seconds (latency) or value bound (value).
    threshold: float = 0.0
    #: Registry histogram name (latency kind).
    histogram: Optional[str] = None
    #: Histogram labels (latency kind), e.g. ``{"mode": "distance"}``.
    labels: Optional[Dict[str, str]] = None
    #: Counter names (ratio kind).
    bad_counter: Optional[str] = None
    total_counters: Optional[tuple] = None
    #: Provider key (value kind) resolved via the engine registry.
    provider: Optional[str] = None
    description: str = ""

    @property
    def budget(self) -> float:
        return max(1e-12, 1.0 - self.target)


#: Default serving objectives. Latency thresholds sit on histogram
#: bucket bounds (50ms / 250ms); the error-rate and correctness SLOs
#: run off serving/audit counters; staleness reads the snapshot
#: manager through a provider.
DEFAULT_SLO_CONFIG: List[Dict[str, Any]] = [
    {"name": "latency-distance", "kind": "latency", "target": 0.99,
     "threshold_ms": 50.0, "histogram": "session_query_seconds",
     "labels": {"mode": "distance"},
     "description": "99% of distance queries under 50ms"},
    {"name": "latency-spg", "kind": "latency", "target": 0.99,
     "threshold_ms": 250.0, "histogram": "session_query_seconds",
     "labels": {"mode": "spg"},
     "description": "99% of SPG queries under 250ms"},
    {"name": "error-rate", "kind": "ratio", "target": 0.999,
     "bad": "serving_failed_total",
     "total": ["serving_answered_total", "serving_failed_total"],
     "description": "99.9% of requests answered without error"},
    {"name": "staleness", "kind": "value", "threshold_s": 30.0,
     "provider": "snapshot_staleness_seconds",
     "description": "published snapshot at most 30s behind source"},
    {"name": "correctness", "kind": "ratio", "target": 0.999,
     "bad": "audit_mismatch_total", "total": ["audit_checked_total"],
     "description": "99.9% of audited answers oracle-exact"},
]


def parse_slo_config(config: List[Dict[str, Any]]) -> List[Objective]:
    """Validate a list of objective dicts into :class:`Objective` s.

    Raises ``ValueError`` on unknown kinds, missing fields, or targets
    outside ``(0, 1)`` — config mistakes should fail service startup,
    not silently score nothing.
    """
    if not isinstance(config, list):
        raise ValueError("SLO config must be a list of objectives")
    objectives: List[Objective] = []
    seen = set()
    for i, raw in enumerate(config):
        if not isinstance(raw, dict):
            raise ValueError(f"SLO config entry {i} is not an object")
        name = raw.get("name")
        if not name or not isinstance(name, str):
            raise ValueError(f"SLO config entry {i} needs a 'name'")
        if name in seen:
            raise ValueError(f"duplicate SLO name {name!r}")
        seen.add(name)
        kind = raw.get("kind")
        if kind not in KINDS:
            raise ValueError(
                f"SLO {name!r}: kind must be one of {KINDS}, "
                f"got {kind!r}")
        target = float(raw.get("target", 0.99))
        if kind != "value" and not 0.0 < target < 1.0:
            raise ValueError(
                f"SLO {name!r}: target must be in (0, 1), got {target}")
        if kind == "latency":
            histogram = raw.get("histogram")
            if not histogram:
                raise ValueError(
                    f"SLO {name!r}: latency kind needs 'histogram'")
            if "threshold_ms" not in raw:
                raise ValueError(
                    f"SLO {name!r}: latency kind needs 'threshold_ms'")
            objectives.append(Objective(
                name=name, kind=kind, target=target,
                threshold=float(raw["threshold_ms"]) / 1e3,
                histogram=histogram,
                labels=dict(raw.get("labels") or {}),
                description=raw.get("description", "")))
        elif kind == "ratio":
            bad = raw.get("bad")
            total = raw.get("total")
            if not bad or not total:
                raise ValueError(
                    f"SLO {name!r}: ratio kind needs 'bad' and "
                    f"'total' counter names")
            objectives.append(Objective(
                name=name, kind=kind, target=target,
                bad_counter=bad, total_counters=tuple(total),
                description=raw.get("description", "")))
        else:  # value
            if "threshold_s" not in raw or "provider" not in raw:
                raise ValueError(
                    f"SLO {name!r}: value kind needs 'threshold_s' "
                    f"and 'provider'")
            objectives.append(Objective(
                name=name, kind=kind,
                threshold=float(raw["threshold_s"]),
                provider=raw["provider"],
                description=raw.get("description", "")))
    return objectives


class _Sample(NamedTuple):
    """Registry state for one objective at one instant."""

    ts: float
    good: float
    bad: float


def _split_good_bad(histogram, threshold: float):
    """(good, bad) observation counts with good = at or under the
    threshold's bucket bound (strict when the threshold falls between
    bounds)."""
    buckets, counts, _ = histogram.bucket_counts()
    split = bisect.bisect_right(buckets, threshold)
    good = sum(counts[:split])
    total = sum(counts)
    return float(good), float(total - good)


class SloEngine:
    """Scores objectives against a registry over sliding windows.

    ``evaluate()`` is cheap (a few counter/histogram reads per
    objective) and is called from the scrape path and the status
    endpoints; the engine keeps a bounded history of per-objective
    samples from which window deltas are computed, so it needs no
    background thread of its own.
    """

    #: Keep enough samples to cover the longest window at a 1s
    #: evaluation cadence, with slack.
    _HISTORY = 1024

    def __init__(self, objectives: Optional[List[Objective]] = None,
                 registry: Optional[MetricsRegistry] = None,
                 windows: tuple = DEFAULT_WINDOWS) -> None:
        if objectives is None:
            objectives = parse_slo_config(DEFAULT_SLO_CONFIG)
        if not windows:
            raise ValueError("SLO engine needs at least one window")
        self.objectives = list(objectives)
        self.windows = tuple(sorted(float(w) for w in windows))
        self._registry = registry if registry is not None \
            else get_registry()
        self._providers: Dict[str, Callable[[], float]] = {}
        self._lock = threading.Lock()
        self._history: Dict[str, List[_Sample]] = {
            o.name: [] for o in self.objectives}
        # Baseline sample: budget accounting starts at engine
        # construction, not at process start, so a service's SLOs are
        # not charged for whatever ran before serving began.
        self._baseline = {o.name: self._read(o)
                          for o in self.objectives}

    def register_provider(self, key: str,
                          fn: Callable[[], float]) -> None:
        """Wire a ``value``-kind source (e.g. snapshot staleness)."""
        self._providers[key] = fn

    # -- reading the registry ------------------------------------------

    def _read(self, objective: Objective) -> _Sample:
        now = time.monotonic()
        if objective.kind == "latency":
            histogram = self._registry.histogram(
                objective.histogram, **(objective.labels or {}))
            good, bad = _split_good_bad(histogram, objective.threshold)
            return _Sample(now, good, bad)
        if objective.kind == "ratio":
            bad = self._registry.counter(objective.bad_counter).value
            total = sum(self._registry.counter(name).value
                        for name in objective.total_counters)
            return _Sample(now, max(0.0, total - bad), bad)
        provider = self._providers.get(objective.provider)
        value = provider() if provider is not None else 0.0
        return _Sample(now, 0.0, float(value))

    def _window_rates(self, objective: Objective,
                      history: List[_Sample],
                      current: _Sample) -> Dict[float, float]:
        """Burn rate per window from the sample history."""
        rates: Dict[float, float] = {}
        for window in self.windows:
            cutoff = current.ts - window
            base = self._baseline[objective.name]
            for sample in history:
                if sample.ts >= cutoff:
                    break
                base = sample
            good = current.good - base.good
            bad = current.bad - base.bad
            total = good + bad
            ratio = bad / total if total > 0 else 0.0
            rates[window] = ratio / objective.budget
        return rates

    # -- evaluation -----------------------------------------------------

    def evaluate(self) -> Dict[str, Any]:
        """Score every objective now; publish gauges; return a report.

        The report maps objective name to ``{kind, description,
        target, breached, burn_rates, budget_remaining, good, bad,
        value}`` and carries a top-level ``breached`` flag —
        ``repro slo status`` turns that flag into its exit code.
        """
        report: Dict[str, Any] = {"objectives": {}, "breached": False,
                                  "windows": list(self.windows)}
        for objective in self.objectives:
            current = self._read(objective)
            if objective.kind == "value":
                value = current.bad
                breached = value > objective.threshold
                entry = {
                    "kind": objective.kind,
                    "description": objective.description,
                    "threshold": objective.threshold,
                    "value": value,
                    "breached": breached,
                    "budget_remaining":
                        0.0 if breached else 1.0,
                }
                self._registry.gauge(
                    "slo_budget_remaining", slo=objective.name).set(
                    entry["budget_remaining"])
            else:
                with self._lock:
                    history = self._history[objective.name]
                    rates = self._window_rates(objective, history,
                                               current)
                    history.append(current)
                    if len(history) > self._HISTORY:
                        del history[:len(history) - self._HISTORY]
                base = self._baseline[objective.name]
                good = current.good - base.good
                bad = current.bad - base.bad
                total = good + bad
                lifetime_ratio = bad / total if total > 0 else 0.0
                budget_remaining = min(1.0, max(
                    0.0, 1.0 - lifetime_ratio / objective.budget))
                breached = bool(rates) and all(
                    rate > 1.0 for rate in rates.values())
                entry = {
                    "kind": objective.kind,
                    "description": objective.description,
                    "target": objective.target,
                    "good": good,
                    "bad": bad,
                    "burn_rates": {f"{int(w)}s": rate
                                   for w, rate in rates.items()},
                    "budget_remaining": budget_remaining,
                    "breached": breached,
                }
                for window, rate in rates.items():
                    self._registry.gauge(
                        "slo_burn_rate", slo=objective.name,
                        window=f"{int(window)}s").set(rate)
                self._registry.gauge(
                    "slo_budget_remaining", slo=objective.name).set(
                    budget_remaining)
            report["objectives"][objective.name] = entry
            report["breached"] = report["breached"] or breached
        return report
