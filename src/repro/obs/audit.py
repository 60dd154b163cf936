"""Continuous oracle auditing of served distance answers.

The serving tier's headline claim is *oracle-exact distances*; tests
assert it offline, but a live fleet can drift (a stale snapshot, a
corrupted snapshot file, a store bug under concurrency). The
:class:`OracleAuditor` turns the claim into a monitored invariant:

* the Batcher offers every resolved ``distance`` answer to the
  auditor; a deterministic sampler keeps ``rate`` of them and drops
  the rest before any work happens — the serving hot path pays one
  accumulator add and (for kept answers) one deque append;
* a daemon thread drains the queue, fetches the graph *as of the
  answer's epoch* from the SnapshotManager's retained history
  (``graph_at``), recomputes the distance with the BFS oracle, and
  compares;
* results feed ``audit_checked_total`` / ``audit_mismatch_total``
  (plus ``audit_skipped_total`` for answers whose epoch has aged out
  of history and ``audit_dropped_total`` for queue overflow), which
  the ``correctness`` SLO scores — a single mismatch burns 99.9%
  budget fast enough to flip ``repro slo status`` nonzero.

Auditing at-epoch matters: under an update stream, a correct answer
from epoch N looks wrong against epoch N+1's graph. The per-epoch
check never false-positives on staleness — that is the separate
``staleness`` SLO's job.
"""

from __future__ import annotations

import collections
import threading
import time
from typing import Any, Callable, Dict, NamedTuple

from .registry import get_registry

__all__ = ["OracleAuditor"]

#: How an audit item and the oracle spell "unreachable" (a served
#: ``None``).
_UNREACHABLE = float("inf")


class _AuditItem(NamedTuple):
    u: int
    v: int
    value: float
    epoch: int


class OracleAuditor:
    """Background sampler re-checking served answers against BFS.

    ``graph_provider(epoch)`` must return the graph snapshot for that
    epoch (the service wires ``SnapshotManager.graph_at``) and may
    raise when the epoch has aged out — those answers are counted as
    skipped, not failed.
    """

    def __init__(self, graph_provider: Callable[[int], Any], *,
                 rate: float = 0.05, max_queue: int = 1024,
                 registry=None) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(
                f"audit rate must be in [0, 1], got {rate}")
        self.rate = float(rate)
        self._graph_provider = graph_provider
        registry = registry if registry is not None else get_registry()
        self._m_checked = registry.counter(
            "audit_checked_total",
            help="Served answers re-checked against the BFS oracle")
        self._m_mismatch = registry.counter(
            "audit_mismatch_total",
            help="Audited answers that disagreed with the oracle")
        self._m_skipped = registry.counter(
            "audit_skipped_total",
            help="Audits skipped (epoch aged out of snapshot history)")
        self._m_dropped = registry.counter(
            "audit_dropped_total",
            help="Sampled answers dropped due to a full audit queue")
        self._accum = 0.0
        self._lock = threading.Lock()
        self._queue: "collections.deque[_AuditItem]" = \
            collections.deque(maxlen=max_queue)
        self._wakeup = threading.Event()
        self._closed = False
        self._inflight = False
        self._thread = threading.Thread(
            target=self._run, name="oracle-auditor", daemon=True)
        self._thread.start()

    # -- hot path (called from the Batcher's collector thread) ---------

    def offer(self, u: int, v: int, mode: str, value: Any,
              epoch: int) -> None:
        """Maybe enqueue one served answer for auditing.

        Only ``distance`` answers are auditable; sampling is the same
        deterministic accumulator the tracer uses, so a 5% rate audits
        exactly every 20th answer.
        """
        if mode != "distance" or self._closed or self.rate <= 0.0:
            return
        with self._lock:
            self._accum += self.rate
            if self._accum < 1.0:
                return
            self._accum -= 1.0
            if len(self._queue) == self._queue.maxlen:
                self._m_dropped.inc()
                return
            self._queue.append(_AuditItem(
                int(u), int(v),
                _UNREACHABLE if value is None else float(value),
                int(epoch)))
        self._wakeup.set()

    # -- background thread ---------------------------------------------

    def _run(self) -> None:
        while True:
            self._wakeup.wait()
            if self._closed:
                return
            while True:
                with self._lock:
                    if not self._queue:
                        self._wakeup.clear()
                        break
                    item = self._queue.popleft()
                    self._inflight = True
                try:
                    self._check(item)
                finally:
                    with self._lock:
                        self._inflight = False

    def _check(self, item: _AuditItem) -> None:
        # Imported here, not at module scope: repro.baselines pulls in
        # repro.core, which itself imports repro.obs — a module-level
        # import would be circular.
        from ..baselines import distance_oracle

        try:
            graph = self._graph_provider(item.epoch)
        except Exception:
            self._m_skipped.inc()
            return
        expected = distance_oracle(graph, item.u, item.v)
        expected = _UNREACHABLE if expected is None else float(expected)
        self._m_checked.inc()
        if item.value != expected:
            self._m_mismatch.inc()

    # -- management ----------------------------------------------------

    def flush(self, timeout: float = 5.0) -> bool:
        """Block until the queue drains (tests); True on success."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if not self._queue and not self._inflight:
                    return True
            time.sleep(0.01)
        return False

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            pending = len(self._queue)
        return {
            "rate": self.rate,
            "pending": pending,
            "checked": self._m_checked.value,
            "mismatches": self._m_mismatch.value,
            "skipped": self._m_skipped.value,
            "dropped": self._m_dropped.value,
        }

    def close(self) -> None:
        self._closed = True
        self._wakeup.set()
        self._thread.join(timeout=5.0)
