"""Closed-loop load generation and latency/throughput reporting.

The serving benchmarks need a driver that behaves like real clients,
not like a batch script: N concurrent clients, each issuing one
request, waiting for its answer, and immediately issuing the next
(a *closed loop* — offered load adapts to service capacity, so the
measurement can't outrun the system and report fantasy throughput).

:func:`run_closed_loop` drives any submit-shaped callable (usually
``service.submit``) with a pair workload from
:mod:`repro.workloads.queries` and returns a :class:`LoadReport`:
throughput, latency percentiles (p50/p90/p99), error counts, and the
per-epoch answer log needed for oracle exactness audits while the
graph is mutating underneath the service.

Closed-loop throughput is bounded by ``num_clients / latency`` — it
measures what N patient clients *experience*, not what the service
can absorb. :func:`run_burst` measures the latter: clients submit
their whole slice as fast as the admission controller lets them and
only then collect the answers, so every worker is always busy, what
waits behind them leaves in full batches, and the pool runs hot. Use
``run_burst`` for capacity numbers and ``run_closed_loop`` for latency
numbers; ``benchmarks/test_serving.py`` records both.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .._util import Stopwatch
from ..errors import ServiceOverloadedError, ServingError

__all__ = ["LoadReport", "run_closed_loop", "run_burst", "percentile"]


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) of pre-sorted values, interpolated."""
    if not sorted_values:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ServingError("quantile must be within [0, 1]")
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = position - low
    return (sorted_values[low] * (1.0 - fraction)
            + sorted_values[high] * fraction)


@dataclass
class LoadReport:
    """Outcome of one closed-loop run."""

    requests: int = 0
    answered: int = 0
    errors: int = 0
    elapsed: float = 0.0
    num_clients: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    #: ``(u, v, value, epoch)`` per answered request, input order per
    #: client; feeds the per-epoch oracle audit.
    answers: List[Tuple[int, int, Any, int]] = field(
        default_factory=list)
    error_messages: List[str] = field(default_factory=list)

    @property
    def throughput_qps(self) -> float:
        return self.answered / self.elapsed if self.elapsed > 0 else 0.0

    def summary(self) -> Dict[str, float]:
        """The numbers a benchmark artifact records."""
        ordered = sorted(self.latencies_ms)
        return {
            "requests": self.requests,
            "answered": self.answered,
            "errors": self.errors,
            "num_clients": self.num_clients,
            "elapsed_seconds": self.elapsed,
            "throughput_qps": self.throughput_qps,
            "latency_p50_ms": percentile(ordered, 0.50),
            "latency_p90_ms": percentile(ordered, 0.90),
            "latency_p99_ms": percentile(ordered, 0.99),
            "latency_max_ms": ordered[-1] if ordered else 0.0,
        }

    def format(self) -> str:
        """Human-readable one-paragraph latency report."""
        s = self.summary()
        return (
            f"{self.answered}/{self.requests} answered "
            f"({self.errors} errors) in {self.elapsed:.2f}s "
            f"with {self.num_clients} clients — "
            f"{s['throughput_qps']:.0f} req/s, latency "
            f"p50 {s['latency_p50_ms']:.2f}ms / "
            f"p90 {s['latency_p90_ms']:.2f}ms / "
            f"p99 {s['latency_p99_ms']:.2f}ms"
        )


def run_closed_loop(submit: Callable[..., Any],
                    pairs: Sequence[Tuple[int, int]], *,
                    mode: Optional[str] = None,
                    num_clients: int = 4,
                    timeout: float = 30.0) -> LoadReport:
    """Drive ``submit(u, v, mode) -> Future`` with N closed-loop clients.

    The workload is split round-robin across clients; each client
    waits for every answer before sending its next request. Failures
    (overload rejections, expired budgets, bad pairs) are counted and
    their messages kept, never raised — a load test measures them.
    """
    if num_clients < 1:
        raise ServingError("num_clients must be >= 1")
    report = LoadReport(num_clients=num_clients)
    report.requests = len(pairs)
    lock = threading.Lock()

    def client(worker_slice: Sequence[Tuple[int, int]]) -> None:
        local_latencies: List[float] = []
        local_answers: List[Tuple[int, int, Any, int]] = []
        local_errors: List[str] = []
        for u, v in worker_slice:
            with Stopwatch() as sw:
                try:
                    answer = submit(u, v, mode).result(timeout=timeout)
                except Exception as exc:
                    local_errors.append(f"({u},{v}): "
                                        f"{type(exc).__name__}: {exc}")
                    continue
            local_latencies.append(sw.elapsed * 1000.0)
            local_answers.append((u, v, answer.value, answer.epoch))
        with lock:
            report.latencies_ms.extend(local_latencies)
            report.answers.extend(local_answers)
            report.error_messages.extend(local_errors)

    slices = [list(pairs[i::num_clients]) for i in range(num_clients)]
    threads = [threading.Thread(target=client, args=(s,), daemon=True,
                                name=f"repro-loadgen-{i}")
               for i, s in enumerate(slices) if s]
    with Stopwatch() as sw:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    report.elapsed = sw.elapsed
    report.answered = len(report.answers)
    report.errors = len(report.error_messages)
    return report


def run_burst(submit: Callable[..., Any],
              pairs: Sequence[Tuple[int, int]], *,
              mode: Optional[str] = None,
              num_clients: int = 4,
              timeout: float = 60.0,
              submit_many: Optional[Callable[..., Any]] = None,
              chunk_size: int = 512) -> LoadReport:
    """Saturation driver: submit everything first, collect after.

    Each client fires its whole slice into the service back to back
    (backing off briefly on admission-control rejections), then waits
    for the answers. Pass the service's ``submit_many`` to admit in
    ``chunk_size`` bulk chunks — the peak-capacity configuration,
    since per-request admission overhead is what a saturated
    front-end spends most of its time on. Per-request latency here
    includes queueing — use :func:`run_closed_loop` for
    latency-shaped numbers; this one is for peak throughput.
    """
    if num_clients < 1:
        raise ServingError("num_clients must be >= 1")
    if chunk_size < 1:
        raise ServingError("chunk_size must be >= 1")
    report = LoadReport(num_clients=num_clients)
    report.requests = len(pairs)
    lock = threading.Lock()

    def client(worker_slice: Sequence[Tuple[int, int]]) -> None:
        import time as _time

        submitted: List[Tuple[int, int, Any, float]] = []
        local_errors: List[str] = []
        if submit_many is not None:
            position = 0
            size = chunk_size
            while position < len(worker_slice):
                chunk = worker_slice[position:position + size]
                started = _time.perf_counter()
                try:
                    futures = submit_many(chunk, mode)
                except ServiceOverloadedError:
                    if size > 1:
                        # Bulk admission is all-or-nothing; an
                        # oversized chunk would be rejected forever,
                        # so shrink until it fits the pending window.
                        size = max(1, size // 2)
                    else:
                        _time.sleep(0.001)  # genuine overload
                    continue
                except ServingError as exc:
                    local_errors.extend(
                        f"({u},{v}): {exc}" for u, v in chunk)
                    position += len(chunk)
                    continue
                submitted.extend(
                    (u, v, future, started)
                    for (u, v), future in zip(chunk, futures))
                position += len(chunk)
        else:
            for u, v in worker_slice:
                while True:
                    started = _time.perf_counter()
                    try:
                        future = submit(u, v, mode)
                    except ServiceOverloadedError:
                        _time.sleep(0.001)  # overloaded: back off
                        continue
                    except ServingError as exc:
                        local_errors.append(f"({u},{v}): {exc}")
                        break
                    submitted.append((u, v, future, started))
                    break
        local_latencies: List[float] = []
        local_answers: List[Tuple[int, int, Any, int]] = []
        for u, v, future, started in submitted:
            try:
                answer = future.result(timeout=timeout)
            except Exception as exc:
                local_errors.append(f"({u},{v}): "
                                    f"{type(exc).__name__}: {exc}")
                continue
            local_latencies.append(
                (_time.perf_counter() - started) * 1000.0)
            local_answers.append((u, v, answer.value, answer.epoch))
        with lock:
            report.latencies_ms.extend(local_latencies)
            report.answers.extend(local_answers)
            report.error_messages.extend(local_errors)

    slices = [list(pairs[i::num_clients]) for i in range(num_clients)]
    threads = [threading.Thread(target=client, args=(s,), daemon=True,
                                name=f"repro-burst-{i}")
               for i, s in enumerate(slices) if s]
    with Stopwatch() as sw:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    report.elapsed = sw.elapsed
    report.answered = len(report.answers)
    report.errors = len(report.error_messages)
    return report
