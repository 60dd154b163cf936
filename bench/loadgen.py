"""Load generators: closed loop, HTTP clients, open loop, saturation.

All load comes from the one bench process.  Every generator divides
its run into ``SLICES`` equal time slices (one second each at the
driver's run length): a latency percentile is the lower quartile over
slices of each slice's percentile, and in a traced run spans are on
and off in alternation (by slice; by 100 ms window in ``closed_loop``),
so the same run yields traced and untraced throughput and latency
always comes from the untraced part.

Why the lower quartile: the shared host's neighbours only ever add to
a slice's latency, for seconds at a time, and in a busy spell most
slices of a run carry some of it (per-second p95 of the open loop read
3.1-3.3 ms in quiet seconds and 3.5-4.6 ms, up to 115 ms, in disturbed
ones; the median over slices then moved 37% between runs).  The quiet
quarter of the run is the program's own latency; a change that slows
the program slows those slices too.

The host this runs on flips between speed states ~25% apart every
few seconds (same CPU share, different speed), which no amount of
repetition inside a 12 s run averages out.  ``closed_loop`` therefore
interleaves a fixed calibration kernel with the ops (about every two
milliseconds of work) and scales the op times of each 100 ms window
by how fast that kernel ran inside it: times read as "at reference
host speed".  The HTTP and open-loop generators do not: their
latencies are set by timers (delayed ACK, the batcher's
``max_delay``), not by CPU speed.

Closed loop: the next op starts only after the previous one completes
(callers that wait for a reply).  Open loop: ops are sent on a fixed
schedule whatever the service does (independent users); each is timed
from when it was *due*, and the generator's own lateness is reported
so a slow generator is not mistaken for a slow service.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from bench.metrics import lower_quartile, median, percentile

SLICES = 12
_now = time.perf_counter


@dataclass
class Timed:
    """What a timed phase measured."""

    #: Per slice: ops completed, seconds spanned, whether spans were on.
    slice_ops: List[float] = field(default_factory=list)
    slice_seconds: List[float] = field(default_factory=list)
    slice_traced: List[bool] = field(default_factory=list)
    #: ``(slice, item index, latency in seconds)``, untraced slices only.
    samples: List[tuple] = field(default_factory=list)
    #: Generator lateness samples in seconds.
    lags: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Whatever the scenario wants to check afterwards.
    answers: list = field(default_factory=list)

    def throughput(self, traced: bool = False) -> float:
        """Ops per second over the slices with spans on/off."""
        chosen = [(ops, seconds) for ops, seconds, is_traced
                  in zip(self.slice_ops, self.slice_seconds,
                         self.slice_traced) if is_traced == traced]
        seconds = sum(seconds for _, seconds in chosen)
        return sum(ops for ops, _ in chosen) / seconds if seconds else 0.0

    def latency_us(self, q: float) -> float:
        """Lower quartile over slices of each slice's ``q`` percentile,
        in us (see the module docstring)."""
        by_slice: dict = {}
        for k, _, seconds in self.samples:
            by_slice.setdefault(k, []).append(seconds)
        return lower_quartile([percentile(values, q)
                               for values in by_slice.values()]) * 1e6

    def lag_p99_ms(self) -> float:
        return percentile(self.lags, 0.99) * 1e3 if self.lags else 0.0


class Calibrator:
    """A fixed piece of CPU work: its duration reads the host's speed.

    One pass is a little of each kind of work the measured program
    does — interpreter bytecode, a numpy sort + gather, and a 400 KB
    allocate-and-fill like a BFS depth array — so that whatever the
    host's current state slows, the kernel feels it too.
    """

    #: Seconds one timed pass takes in the host's common (slower) state
    #: on the 2-core box the baseline was measured on.
    REFERENCE_SECONDS = 50e-6

    def __init__(self) -> None:
        self._array = np.random.default_rng(0).integers(0, 1 << 16, 1 << 11)
        self.sink = 0

    def _kernel(self) -> None:
        total = 0
        for i in range(300):
            total += i * i % 7
        ordered = np.sort(self._array)
        filled = np.full(100_000, 7, dtype=np.int32)
        self.sink = (total + int(self._array[ordered % len(ordered)].sum())
                     + int(filled[::4096].sum()))

    def __call__(self) -> float:
        """Seconds of one pass, after an untimed pass that reloads the
        caches the measured program has just evicted."""
        self._kernel()
        start = _now()
        self._kernel()
        return _now() - start

    @classmethod
    def slowness(cls, passes: Sequence[float]) -> float:
        """1.0 = reference speed, 1.2 = 20% slower.  The median pass:
        one pass that was preempted must not read as a slow host."""
        return median(passes) / cls.REFERENCE_SECONDS

    def factor(self, rounds: int = 40) -> float:
        """Host slowness right now."""
        return self.slowness([self() for _ in range(rounds)])


def _spans_on(tracer, k: int) -> bool:
    """Odd slices (windows, in ``closed_loop``) of a traced run carry
    spans."""
    return tracer is not None and bool(k & 1)


def _note_failure(error: BaseException) -> None:
    print(f"bench: op failed: {type(error).__name__}: {error}",
          file=sys.stderr)


#: Work seconds between two calibration calls in ``closed_loop``.
CALIBRATE_EVERY = 2e-3
#: The host's slowness is re-read once per this many seconds of a run:
#: long enough for ~50 calibration calls, short against a speed state.
CALIBRATION_WINDOW = 0.1


def closed_loop(items: Sequence, call: Callable, seconds: float, *,
                tracer=None, span: str = "op", weight: int = 1,
                cycle: bool = True,
                after: Optional[Callable] = None) -> Timed:
    """One thread calls ``call(item)`` back to back for ``seconds``.

    ``weight`` is how many ops one call completes (a batch of pairs).
    ``after(index, item, result)`` runs with the clock stopped — it is
    where answers are checked — and returns how many ops it found
    wrong.  With ``cycle=False`` the loop also ends when ``items`` do.
    Times are scaled to the reference host speed (see the module
    docstring); calibration time is not part of any op.
    """
    calibrate = Calibrator()
    windows = max(SLICES, int(round(seconds / CALIBRATION_WINDOW)))
    per_slice = windows // SLICES
    windows = per_slice * SLICES
    window_len = seconds / windows
    passes: List[List[float]] = [[] for _ in range(windows)]
    samples: List[List[tuple]] = [[] for _ in range(windows)]
    timed = Timed()
    paused = since_cal = 0.0
    total = len(items)
    index = 0
    t0 = previous_end = _now()
    while cycle or index < total:
        start = _now()
        w = int((start - t0 - paused) / window_len)
        if w >= windows:
            break
        item = items[index % total]
        result = None
        try:
            if _spans_on(tracer, w):
                with tracer.span(span, op=index):
                    result = call(item)
            else:
                result = call(item)
        except Exception as error:  # an op's failure is a data point
            timed.failed += weight
            _note_failure(error)
        end = _now()
        samples[w].append((index, end - start))
        timed.lags.append(start - previous_end)
        since_cal += end - start
        if since_cal >= CALIBRATE_EVERY or not passes[w]:
            passes[w].append(calibrate())
            since_cal = 0.0
        if after is not None:
            timed.failed += after(index, item, result)
        # Calibration and checks happen with the clock stopped.
        previous_end = _now()
        paused += previous_end - end
        index += 1
    for k in range(SLICES):
        # In a traced run the odd *windows* carry spans, so both kinds
        # of window see the same stretch of the run.
        totals = {False: [0, 0.0], True: [0, 0.0]}
        for w in range(k * per_slice, (k + 1) * per_slice):
            if not samples[w]:
                continue
            is_traced = _spans_on(tracer, w)
            slowness = Calibrator.slowness(passes[w])
            totals[is_traced][0] += weight * len(samples[w])
            totals[is_traced][1] += sum(
                seconds for _, seconds in samples[w]) / slowness
            if not is_traced:
                timed.samples.extend((k, i, seconds / slowness)
                                     for i, seconds in samples[w])
        for is_traced, (ops, work) in totals.items():
            if ops:
                timed.slice_ops.append(ops)
                timed.slice_seconds.append(work)
                timed.slice_traced.append(is_traced)
    timed.attempted = weight * index
    return timed


# ----------------------------------------------------------------------
# HTTP closed loop
# ----------------------------------------------------------------------

class HttpClient:
    """One keep-alive connection posting one pair per request."""

    def __init__(self, port: int, timeout: float) -> None:
        self.port = port
        self.timeout = timeout
        self.conn: Optional[http.client.HTTPConnection] = None
        self.connect_seconds = 0.0
        self.bytes = 0

    def connect(self) -> None:
        self.close()
        start = _now()
        self.conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                               timeout=self.timeout)
        self.conn.connect()
        self.connect_seconds = _now() - start

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    def get(self, path: str) -> bytes:
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {path} -> {response.status}")
        return body

    def _send(self, body: str) -> None:
        self.conn.request("POST", "/query", body=body,
                          headers={"Content-Type": "application/json"})

    def _receive(self):
        response = self.conn.getresponse()
        return response.status, response.read()

    def post(self, body: str):
        """``POST /query`` with a JSON body; ``(status, reply bytes)``."""
        self._send(body)
        return self._receive()

    def query(self, u: int, v: int, tracer=None, op=None):
        """One pair through ``POST /query``; ``(status, value)``."""
        body = json.dumps({"u": int(u), "v": int(v)})
        if tracer is None:
            status, data = self.post(body)
        else:
            with tracer.span("http.request", op=op):
                with tracer.span("http.send"):
                    self._send(body)
                with tracer.span("http.wait"):
                    status, data = self._receive()
        self.bytes += len(body) + len(data)
        value = None
        if status == 200:
            value = json.loads(data)["results"][0]["value"]
        return status, value


def http_closed_loop(clients: List[HttpClient], pairs, seconds: float,
                     tracer=None) -> Timed:
    """Each client thread posts its share of ``pairs`` back to back.

    A request that times out or errors counts as failed and the client
    reconnects, so one bad request never hangs the run.
    """
    slice_len = seconds / SLICES
    t0 = _now() + 0.05
    records: List[list] = [[] for _ in clients]

    def drive(slot: int, client: HttpClient) -> None:
        out = records[slot]
        index = slot
        while True:
            start = _now()
            k = int((start - t0) / slice_len)
            if k >= SLICES:
                return
            if k < 0:
                time.sleep(t0 - start)
                continue
            u, v = pairs[index % len(pairs)]
            try:
                status, value = client.query(
                    u, v, tracer if _spans_on(tracer, k) else None, index)
            except (OSError, http.client.HTTPException, ValueError,
                    KeyError) as error:
                _note_failure(error)
                status, value = 0, None
                try:
                    client.connect()
                except OSError:
                    return
            out.append((k, start, _now(), index, status, value))
            index += len(clients)

    threads = [threading.Thread(target=drive, args=(slot, client),
                                name=f"bench-http-{slot}")
               for slot, client in enumerate(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + 2 * clients[0].timeout + 5)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("an HTTP client thread did not finish")

    timed = Timed()
    for k in range(SLICES):
        rows = [row for out in records for row in out if row[0] == k]
        is_traced = _spans_on(tracer, k)
        # Rate between the slice's first and last completion, so the
        # value is not quantised to whole requests per slice.
        ends = sorted(row[2] for row in rows if row[4] == 200)
        timed.slice_ops.append(max(0, len(ends) - 1))
        timed.slice_seconds.append(ends[-1] - ends[0] if ends else 0.0)
        timed.slice_traced.append(is_traced)
        if not is_traced:
            timed.samples.extend((k, index, end - start)
                                 for _, start, end, index, *_ in rows)
    for out in records:
        # A closed-loop client is "late" by the gap between one reply
        # and its next request.
        timed.lags.extend(b[1] - a[2] for a, b in zip(out, out[1:]))
        timed.answers.extend((index, status, value)
                             for *_, index, status, value in out)
    timed.attempted = len(timed.answers)
    timed.failed = sum(1 for _, status, _ in timed.answers if status != 200)
    return timed


# ----------------------------------------------------------------------
# In-process service: open loop and saturation
# ----------------------------------------------------------------------

def open_loop(submit: Callable, pairs, rate: float, seconds: float,
              timeout: float, tracer=None) -> Timed:
    """Send ``submit(u, v)`` at ``rate``/s for ``seconds``.

    Latency runs from the request's due time to its done-callback, so
    the wait a stall imposes on later requests is counted.
    """
    total = int(rate * seconds)
    slice_len = seconds / SLICES
    done: List[Optional[float]] = [None] * total
    futures = []
    timed = Timed()

    def make_callback(index: int):
        def callback(_future) -> None:
            done[index] = _now()
        return callback

    t0 = _now() + 0.05
    for index in range(total):
        due = t0 + index / rate
        now = _now()
        while now < due:
            time.sleep(due - now)
            now = _now()
        timed.lags.append(now - due)
        u, v = pairs[index % len(pairs)]
        try:
            if _spans_on(tracer, int((due - t0) / slice_len)):
                with tracer.span("serving.submit", op=index):
                    future = submit(int(u), int(v))
            else:
                future = submit(int(u), int(v))
            future.add_done_callback(make_callback(index))
        except Exception as error:  # refusal at admission = failed op
            _note_failure(error)
            future = None
        futures.append(future)

    deadline = _now() + timeout
    finishes: List[List[float]] = [[] for _ in range(SLICES)]
    for index, future in enumerate(futures):
        value = None
        if future is not None:
            try:
                value = future.result(max(0.0, deadline - _now())).value
            except Exception as error:  # timeout, expiry, worker error
                _note_failure(error)
                future = None
        if future is None:
            timed.failed += 1
            continue
        due = t0 + index / rate
        k = min(SLICES - 1, int((due - t0) / slice_len))
        finished = done[index] if done[index] is not None else _now()
        finishes[k].append(finished)
        if _spans_on(tracer, k):
            tracer.add("serving.request", due, finished, op=index)
        else:
            timed.samples.append((k, index, finished - due))
        timed.answers.append((index % len(pairs), value))
    timed.attempted = total
    for k, ends in enumerate(finishes):
        # Achieved rate between the slice's first and last completion.
        timed.slice_ops.append(max(0, len(ends) - 1))
        timed.slice_seconds.append(max(ends) - min(ends) if ends else 0.0)
        timed.slice_traced.append(_spans_on(tracer, k))
    return timed


def saturate(submit_many: Callable, chunks: Sequence[list], window: int,
             seconds: float, timeout: float, windows: int) -> Timed:
    """Keep ``window`` of the equal-sized ``chunks`` admitted for ``seconds``.

    Answers come back as ``(slot in the concatenated chunks, value)``
    and are counted in ``windows`` time windows; ``throughput()`` is
    answers per second between each window's first and last collection
    (a rate that is not quantised to whole chunks per window).
    """
    window_len = seconds / windows
    counts = [0] * windows
    first: List[Optional[float]] = [None] * windows
    last = [0.0] * windows
    timed = Timed()
    inflight: deque = deque()
    chunk = len(chunks[0])
    cursor = 0
    t0 = _now()

    def collect() -> None:
        base, futures = inflight.popleft()
        for offset, future in enumerate(futures):
            try:
                value = future.result(timeout).value
            except Exception as error:  # timeout, expiry, worker error
                _note_failure(error)
                timed.failed += 1
                continue
            timed.answers.append((base + offset, value))
        now = _now()
        k = int((now - t0) / window_len)
        if k < windows:
            if first[k] is None:
                first[k] = now
            else:
                counts[k] += len(futures)
            last[k] = now

    while _now() - t0 < seconds:
        slot = cursor % len(chunks)
        try:
            futures = submit_many(chunks[slot])
        except Exception as error:  # refusal at admission = failed ops
            _note_failure(error)
            timed.failed += chunk
            futures = []
        timed.attempted += chunk
        inflight.append((slot * chunk, futures))
        cursor += 1
        if len(inflight) >= window:
            collect()
    while inflight:
        collect()
    for k in range(windows):
        timed.slice_ops.append(counts[k])
        timed.slice_seconds.append(last[k] - first[k] if first[k] else 0.0)
        timed.slice_traced.append(False)
    return timed
