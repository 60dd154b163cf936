"""One scenario per workload: set-up, timed phase, checks, layers.

A scenario touches the program only through its public API
(``repro.build_index``, ``QuerySession``, ``QueryService``,
``repro.store``, ``python -m repro serve``) and times the calls into
each layer from outside.  ``setup`` is re-runnable — the driver runs
it several times and reports the median as ``setup_s`` — and
``teardown`` releases everything ``setup`` opened.  ``layers`` runs
only in a traced run and does the extra per-layer measurements.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List

import numpy as np

from repro import QueryOptions, QuerySession, build_index, load_index
from repro.serving import QueryService
from repro.store import open_store_index, pack_index_store
from repro.workloads import sample_pairs_hotspot

from bench import loadgen, oracle
from bench.loadgen import Timed
from bench.metrics import Recorder, median, percentile
from bench.tracer import Tracer
from bench.workloads import Inputs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_now = time.perf_counter


class Context:
    """What the driver hands every scenario."""

    def __init__(self, tracer: Tracer, rec: Recorder, workdir: str,
                 workers: int, seconds: float, tracing: bool) -> None:
        self.tracer = tracer
        self.rec = rec
        self.workdir = workdir
        self.workers = workers
        self.seconds = seconds
        #: The tracer to hand load generators (``None`` = untraced run).
        self.op_tracer = tracer if tracing else None


def _rate(call, batches) -> float:
    """Pairs per second of ``call(batch)`` over ``batches``."""
    start = _now()
    for batch in batches:
        call(batch)
    return sum(len(batch) for batch in batches) / (_now() - start)


def _p50_us(call, pairs) -> float:
    """Median microseconds of ``call(u, v)`` over ``pairs``."""
    samples = []
    for u, v in pairs:
        start = _now()
        call(u, v)
        samples.append(_now() - start)
    return percentile(samples, 0.5) * 1e6


class Scenario:
    """Base: holds inputs and context, names the common steps."""

    def __init__(self, inputs: Inputs, ctx: Context) -> None:
        self.inputs = inputs
        self.ctx = ctx
        self.params = inputs.params
        self.pairs: List[list] = inputs.pairs.tolist()
        self.check_pairs: List[list] = inputs.check_pairs.tolist()
        self.graph = None
        self.index = None

    def span(self, name: str):
        return self.ctx.tracer.span(name)

    def span_median(self, name: str) -> float:
        return median(self.ctx.tracer.durations(name))

    def generate(self):
        with self.span("graph.generate"):
            self.graph = self.inputs.make_graph()
        return self.graph

    def build(self, method: str, span: str, **params):
        with self.span(span):
            self.index = build_index(self.graph, method, **params)
        return self.index

    def batches(self, size: int) -> List[np.ndarray]:
        pairs = self.inputs.pairs
        return [pairs[i:i + size] for i in range(0, len(pairs), size)]

    # -- the steps the driver calls ------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        self.index = None

    def timed(self) -> Timed:
        raise NotImplementedError

    def check(self) -> int:
        """Wrong answers among ``check_pairs`` (all are attempted)."""
        raise NotImplementedError

    def index_mb(self) -> float:
        return self.index.size_bytes / 1e6

    def layers(self, timed: Timed) -> None:
        raise NotImplementedError


# ----------------------------------------------------------------------
# 1-2. QbS shortest-path-graph queries
# ----------------------------------------------------------------------

class QbsSpg(Scenario):
    def setup(self) -> None:
        self.generate()
        self.build("qbs", "core.qbs_build",
                   num_landmarks=self.params["landmarks"])
        with self.span("warmup"):
            for u, v in self.pairs[:20]:
                self.index.query(u, v)

    def timed(self) -> Timed:
        query = self.index.query
        return loadgen.closed_loop(
            self.pairs, lambda pair: query(pair[0], pair[1]),
            self.ctx.seconds, tracer=self.ctx.op_tracer, span="core.query")

    def check(self) -> int:
        answers = [self.index.query(u, v) for u, v in self.check_pairs]
        return oracle.wrong_spgs(self.graph, self.check_pairs, answers)

    def layers(self, timed: Timed) -> None:
        rec, index = self.ctx.rec, self.index
        landmarks = set(index.landmarks.tolist())
        sample = [(u, v) for u, v in self.pairs[:300]
                  if u not in landmarks and v not in landmarks]
        sketch_us = _p50_us(index.sketch, sample)
        results = [index.query_with_stats(u, v) for u, v in sample]
        count = len(results)
        rec.layer("core.qbs_build_s", self.span_median("core.qbs_build"))
        rec.layer("core.sketch_p50_us", sketch_us)
        rec.layer("core.search_p50_us", timed.latency_us(0.50) - sketch_us)
        rec.layer("core.dtop_tight_share",
                  sum(st.d_top == spg.distance for spg, st in results)
                  / count)
        rec.layer("core.edges_traversed_per_query",
                  sum(st.edges_traversed for _, st in results) / count)
        rec.layer("core.reverse_share",
                  sum(st.used_reverse for _, st in results) / count)
        rec.layer("core.recover_share",
                  sum(st.used_recover for _, st in results) / count)
        rec.layer("core.spg_edges_per_query",
                  sum(len(spg.edges) for spg, _ in results) / count)


# ----------------------------------------------------------------------
# 3. Resident ppl batches
# ----------------------------------------------------------------------

class PplBatch(Scenario):
    def setup(self) -> None:
        self.generate()
        self.build("ppl", "build.ppl")
        self.work = self.batches(self.params["batch"])
        with self.span("batch.first_call"):
            self.index.distance_many(self.work[0])

    def timed(self) -> Timed:
        return loadgen.closed_loop(
            self.work, self.index.distance_many, self.ctx.seconds,
            tracer=self.ctx.op_tracer, span="engine.distance_many",
            weight=self.params["batch"])

    def check(self) -> int:
        answers = self.index.distance_many(self.inputs.check_pairs)
        return oracle.wrong_distances(self.graph, self.check_pairs, answers)

    def layers(self, timed: Timed) -> None:
        rec, graph = self.ctx.rec, self.graph
        jobs = os.cpu_count() or 1
        start = _now()
        build_index(graph, "ppl", jobs=1)
        jobs1 = _now() - start
        start = _now()
        build_index(graph, "ppl", jobs=jobs)
        jobs_n = _now() - start
        rec.layer("build.ppl_jobs1_s", jobs1)
        rec.layer("build.ppl_jobsN_s", jobs_n)
        rec.layer("build.pool_speedup", jobs1 / jobs_n)
        rec.layer("build.roots_per_s", graph.num_vertices / jobs1)
        rec.layer("build.label_entries", self.index.stats["label_entries"])
        rec.layer("batch.first_call_s", self.span_median("batch.first_call"))

        def scalar_rate(index, pairs) -> float:
            distance = index.distance
            return _rate(lambda batch: [distance(u, v) for u, v in batch],
                         [pairs])

        kernel = timed.throughput()
        scalar = scalar_rate(self.index, self.pairs[:2_000])
        rec.layer("batch.ppl_pairs_per_s", kernel)
        rec.layer("batch.ppl_scalar_pairs_per_s", scalar)
        rec.layer("batch.ppl_kernel_speedup", kernel / scalar)
        qbs = build_index(graph, "qbs", num_landmarks=20)
        qbs.distance_many(self.work[0])
        qbs_kernel = _rate(qbs.distance_many, self.work[:8])
        rec.layer("batch.qbs_pairs_per_s", qbs_kernel)
        rec.layer("batch.qbs_kernel_speedup",
                  qbs_kernel / scalar_rate(qbs, self.pairs[:1_000]))


# ----------------------------------------------------------------------
# 4. Packed store, cache far smaller than the cold tier
# ----------------------------------------------------------------------

class StoreCold(Scenario):
    store = None

    def setup(self) -> None:
        self.generate()
        self.resident = self.build("ppl", "build.ppl")
        self.path = os.path.join(self.ctx.workdir, "labels.store")
        with self.span("store.pack"):
            pack_index_store(self.resident, self.path,
                             head_width=self.params["head_width"],
                             hot_rows=self.params["hot_rows"])
        with self.span("store.open"):
            self.store = self._open("mmap")
        if self.store.store_stats()["cold_bytes"] \
                < 30 * self.params["cache_bytes"]:
            raise RuntimeError("store cold tier is not >= 30x the cache")
        self.work = self.batches(self.params["batch"])
        with self.span("warmup"):
            self.store.distance_many(self.work[0])

    def _open(self, io: str):
        return open_store_index(self.path, io=io,
                                cache_bytes=self.params["cache_bytes"],
                                block_bytes=self.params["block_bytes"])

    def teardown(self) -> None:
        if self.store is not None:
            self.store.close()
            self.store = None
            os.remove(self.path)
        self.resident = self.index = None

    def index_mb(self) -> float:
        return os.path.getsize(self.path) / 1e6

    def timed(self) -> Timed:
        self.before = self.store.store_stats()
        timed = loadgen.closed_loop(
            self.work, self.store.distance_many, self.ctx.seconds,
            tracer=self.ctx.op_tracer, span="store.distance_many",
            weight=self.params["batch"])
        self.after = self.store.store_stats()
        return timed

    def check(self) -> int:
        answers = self.store.distance_many(self.inputs.check_pairs)
        return oracle.wrong_distances(self.graph, self.check_pairs, answers)

    def layers(self, timed: Timed) -> None:
        rec = self.ctx.rec
        delta = {key: self.after[key] - self.before[key]
                 for key in ("hits", "misses", "evictions", "pinned_hits")}
        touches = delta["hits"] + delta["pinned_hits"] + delta["misses"]
        rec.layer("store.pack_s", self.span_median("store.pack"))
        rec.layer("store.open_s", self.span_median("store.open"))
        rec.layer("store.file_mb", self.index_mb())
        rec.layer("store.cache_hit_rate",
                  (delta["hits"] + delta["pinned_hits"]) / touches)
        rec.layer("store.misses_per_pair", delta["misses"] / timed.attempted)
        rec.layer("store.evictions_per_pair",
                  delta["evictions"] / timed.attempted)
        sample = self.work[:30]
        pread = self._open("pread")
        try:
            pread.distance_many(sample[0])
            rec.layer("store.pread_pairs_per_s",
                      _rate(pread.distance_many, sample))
        finally:
            pread.close()
        rec.layer("store.vs_resident_ratio",
                  timed.throughput()
                  / _rate(self.resident.distance_many, sample))


# ----------------------------------------------------------------------
# 5. Updates beside reads
# ----------------------------------------------------------------------

class DynamicMixed(Scenario):
    def setup(self) -> None:
        self.generate()
        self.build("dynamic", "dynamic.build", family="ppl",
                   rebuild_threshold=self.params["rebuild_threshold"])
        with self.span("dynamic.aging"):
            self.index.apply_batch(self.params["aging"])
        # A fixed op count, not a deadline: every run ends in the same
        # index state whatever the host's speed.
        self.ops = self.inputs.ops[:max(1, int(
            self.ctx.seconds * self.params["ops_per_second"]))]
        with self.span("warmup"):
            for u, v in self.check_pairs[:20]:
                self.index.distance(u, v)

    def timed(self) -> Timed:
        index, graph_of = self.index, lambda: self.index.graph
        calls = {"insert": index.insert_edge, "delete": index.remove_edge,
                 "query": index.distance}
        ops = self.ops
        every = self.params["check_every"]
        queries = [0]

        def after(_index, op, result) -> int:
            kind, u, v = op
            if kind != "query":
                return 0
            queries[0] += 1
            if queries[0] % every:
                return 0
            # The oracle runs on the graph as it is at this op.
            return oracle.wrong_distances(graph_of(), [(u, v)], [result])

        self.before = dict(index.stats)
        timed = loadgen.closed_loop(
            ops, lambda op: calls[op[0]](op[1], op[2]),
            2 * self.ctx.seconds, tracer=self.ctx.op_tracer,
            span="dynamic.op", cycle=False, after=after)
        self.after = dict(index.stats)
        # Percentiles are over all stream ops: p50 is a query, p99 sits
        # among the inserts and BFS fallbacks.  The per-kind split is a
        # layer metric.
        self.by_kind: Dict[str, List[float]] = {kind: [] for kind in calls}
        for _, slot, seconds in timed.samples:
            self.by_kind[ops[slot][0]].append(seconds)
        return timed

    def check(self) -> int:
        answers = [self.index.distance(u, v) for u, v in self.check_pairs]
        return oracle.wrong_distances(self.index.graph, self.check_pairs,
                                      answers)

    def layers(self, timed: Timed) -> None:
        rec, by_kind = self.ctx.rec, self.by_kind
        delta = {key: self.after[key] - self.before[key]
                 for key in ("repaired_entries", "inserts", "rebuilds",
                             "validated_queries", "fallback_queries")}
        # stats count every query of the phase, traced slices too.
        queries = sum(1 for kind, *_ in self.ops[:timed.attempted]
                      if kind == "query")
        rec.layer("dynamic.insert_p50_ms",
                  percentile(by_kind["insert"], 0.5) * 1e3)
        rec.layer("dynamic.insert_p99_ms",
                  percentile(by_kind["insert"], 0.99) * 1e3)
        rec.layer("dynamic.delete_p50_us",
                  percentile(by_kind["delete"], 0.5) * 1e6)
        rec.layer("dynamic.query_p50_us",
                  percentile(by_kind["query"], 0.5) * 1e6)
        rec.layer("dynamic.repaired_entries_per_insert",
                  delta["repaired_entries"] / max(1, delta["inserts"]))
        rec.layer("dynamic.validated_share",
                  delta["validated_queries"] / queries)
        rec.layer("dynamic.fallback_share",
                  delta["fallback_queries"] / queries)
        rec.layer("dynamic.rebuilds", delta["rebuilds"])
        rec.layer("dynamic.batch_pairs_per_s",
                  _rate(self.index.distance_many,
                        [self.inputs.check_pairs] * 3))


# ----------------------------------------------------------------------
# 6-7. Served paths
# ----------------------------------------------------------------------

def _service(index, workers: int) -> QueryService:
    return QueryService(index, num_workers=workers,
                        options=QueryOptions(mode="distance",
                                             cache_size=4096))


def _queue_wait(metrics_text: str) -> Dict[str, float]:
    """``serving_queue_wait_seconds`` sum and count from /metrics text."""
    found = {"sum": 0.0, "count": 0.0}
    for line in metrics_text.splitlines():
        for key in found:
            if line.startswith(f"serving_queue_wait_seconds_{key} "):
                found[key] = float(line.split()[-1])
    return found


class Served(Scenario):
    """What the HTTP and in-process serving scenarios share."""

    def served_layers(self) -> float:
        """Batcher, pool and session metrics from the counters ``timed``
        read before and after; returns ``session.scalar_query_us``."""
        rec, index, workers = self.ctx.rec, self.index, self.ctx.workers
        wait_before, wait_after = self.wait_before, self.wait_after
        delta = {key: self.after[key] - self.before[key] for key in (
            "submitted", "deduplicated", "batches", "rejected",
            "worker_seconds", "worker_cache_hits", "worker_deaths")}
        keys = max(1, delta["submitted"] - delta["deduplicated"])
        waited = wait_after["count"] - wait_before["count"]
        rec.layer("serving.start_s", self.span_median("serving.start"))
        rec.layer("batcher.mean_batch_size",
                  keys / max(1, delta["batches"]))
        rec.layer("batcher.dedup_share",
                  delta["deduplicated"] / max(1, delta["submitted"]))
        rec.layer("batcher.queue_wait_mean_ms",
                  (wait_after["sum"] - wait_before["sum"]) * 1e3
                  / max(1.0, waited))
        rec.layer("batcher.rejected", delta["rejected"])
        rec.layer("pool.worker_busy_share",
                  delta["worker_seconds"] / (self.ctx.seconds * workers))
        rec.layer("pool.worker_cache_hit_rate",
                  delta["worker_cache_hits"] / keys)
        rec.layer("pool.respawns", delta["worker_deaths"])

        # engine.session, on the same index the service answers from.
        sample = self.pairs[:300]
        batches = [self.pairs[i:i + 256]
                   for i in range(0, min(len(self.pairs), 256 * 20), 256)]
        plain = QuerySession(index, QueryOptions(mode="distance"))
        kernel_rate = _rate(index.distance_many, batches)
        session_rate = _rate(plain.query_many, batches)
        scalar_us = _p50_us(plain.query, sample)
        rec.layer("session.pairs_per_s", session_rate)
        rec.layer("session.added_us_per_pair",
                  1e6 / session_rate - 1e6 / kernel_rate)
        rec.layer("session.scalar_query_us", scalar_us)
        cached = QuerySession(index, QueryOptions(mode="distance",
                                                  cache_size=4096))
        hot = sample_pairs_hotspot(self.graph, 2_000, seed=self.inputs.seed,
                                   hot_fraction=0.85, num_hot_pairs=32)
        for start in range(0, len(hot), 256):
            cached.query_many(hot[start:start + 256])
        rec.layer("session.cache_hit_rate", cached.cache_hit_rate)
        return scalar_us

    def inproc_p50_us(self, service: QueryService) -> float:
        for u, v in self.pairs[:20]:
            service.query(u, v)
        return _p50_us(lambda u, v: service.query(u, v, timeout=10.0),
                       self.pairs[:300])

    def wrong_served(self, answers) -> int:
        """Served ``(pair slot, value)`` answers that differ from the
        resident kernel (itself oracle-checked in ``check``)."""
        slots = sorted({slot for slot, _ in answers})
        expected = dict(zip(slots, self.index.distance_many(
            self.inputs.pairs[slots])))
        return sum(1 for slot, value in answers if value != expected[slot])


class HttpClosed(Served):
    process = None

    def setup(self) -> None:
        ctx = self.ctx
        self.generate()
        self.build("ppl", "build.ppl")
        self.path = os.path.join(ctx.workdir, "served.npz")
        with self.span("persist.save"):
            self.index.save(self.path)
        with self.span("serving.start"):
            self._start_server()
        timeout = self.params["timeout_s"]
        self.control = loadgen.HttpClient(self.port, timeout)
        self.clients = [loadgen.HttpClient(self.port, timeout)
                        for _ in range(self.params["clients"])]
        with self.span("http.connect"):
            self.control.connect()
            for client in self.clients:
                client.connect()
        with self.span("warmup"):
            self._each_client(lambda client, slot: [
                client.query(*self.pairs[(slot + i) % len(self.pairs)])
                for i in range(self.params["warmup_per_client"])])

    def _each_client(self, work) -> None:
        threads = [threading.Thread(target=work, args=(client, slot))
                   for slot, client in enumerate(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)

    def _start_server(self) -> None:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]
        log_path = os.path.join(self.ctx.workdir, "server.log")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        with open(log_path, "wb") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--index",
                 self.path, "--mode", "distance", "--workers",
                 str(self.ctx.workers), "--port", str(self.port)],
                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
                start_new_session=True)
        deadline = _now() + 60
        while _now() < deadline:
            with open(log_path, "rb") as log:
                if b"listening on" in log.read():
                    return
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        with open(log_path, "r", errors="replace") as log:
            raise RuntimeError(f"server did not start:\n{log.read()}")

    def teardown(self) -> None:
        for client in getattr(self, "clients", []) + [
                getattr(self, "control", None)]:
            if client is not None:
                client.close()
        self.clients = []
        if self.process is not None:
            # The server owns worker processes: signal its whole group.
            try:
                os.killpg(self.process.pid, signal.SIGTERM)
                self.process.wait(10)
            except subprocess.TimeoutExpired:
                os.killpg(self.process.pid, signal.SIGKILL)
                self.process.wait(10)
            except ProcessLookupError:
                self.process.wait(10)
            self.process = None
        self.index = None

    def index_mb(self) -> float:
        return os.path.getsize(self.path) / 1e6

    def _stats(self) -> dict:
        return json.loads(self.control.get("/stats"))

    def _wait(self) -> dict:
        return _queue_wait(self.control.get("/metrics").decode())

    def timed(self) -> Timed:
        self.before, self.wait_before = self._stats(), self._wait()
        for client in self.clients:
            client.bytes = 0
        timed = loadgen.http_closed_loop(
            self.clients, self.pairs, self.ctx.seconds, self.ctx.op_tracer)
        self.after, self.wait_after = self._stats(), self._wait()
        # Every served answer: status (counted by the load generator)
        # and value.
        served = [(slot % len(self.pairs), value)
                  for slot, status, value in timed.answers if status == 200]
        timed.failed += self.wrong_served(served)
        return timed

    def check(self) -> int:
        status, data = self.control.post(
            json.dumps({"pairs": self.check_pairs}))
        if status != 200:
            return len(self.check_pairs)
        answers = [row["value"] for row in json.loads(data)["results"]]
        return oracle.wrong_distances(self.graph, self.check_pairs, answers)

    def layers(self, timed: Timed) -> None:
        rec, index = self.ctx.rec, self.index
        scalar_us = self.served_layers()
        rec.layer("persist.save_s", self.span_median("persist.save"))
        start = _now()
        load_index(self.path)
        rec.layer("persist.load_s", _now() - start)
        rec.layer("persist.file_mb", self.index_mb())
        rec.layer("http.connect_ms", median(
            client.connect_seconds for client in self.clients) * 1e3)
        rec.layer("http.bytes_per_request",
                  sum(client.bytes for client in self.clients)
                  / max(1, timed.attempted))
        # The served-path ladder: each rung is a p50 on the same pairs.
        session = QuerySession(index, QueryOptions(mode="distance"))
        kernel_us = _p50_us(lambda u, v: index.distance_many([(u, v)]),
                            self.pairs[:300])
        session_us = _p50_us(lambda u, v: session.query_many([(u, v)]),
                             self.pairs[:300])
        with _service(index, self.ctx.workers) as service:
            inproc_us = self.inproc_p50_us(service)
        rec.layer("ladder.kernel_p50_us", kernel_us)
        rec.layer("ladder.session_added_p50_us", session_us - kernel_us)
        rec.layer("ladder.service_added_p50_us", inproc_us - session_us)
        rec.layer("serving.inproc_p50_us", inproc_us)
        rec.layer("serving.inproc_added_p50_us", inproc_us - scalar_us)
        rec.layer("serving.http_added_p50_us", timed.latency_us(0.50) - inproc_us)


class ServiceOpen(Served):
    service = None

    def setup(self) -> None:
        self.generate()
        self.build("ppl", "build.ppl")
        with self.span("serving.start"):
            self.service = _service(self.index, self.ctx.workers)
        with self.span("warmup"):
            for u, v in self.check_pairs[:50]:
                self.service.query(u, v, timeout=10.0)

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None
        self.index = None

    def timed(self) -> Timed:
        params, service, ctx = self.params, self.service, self.ctx
        self.before = service.stats()
        self.wait_before = _queue_wait(service.metrics_text())
        timed = loadgen.open_loop(
            service.submit, self.pairs, params["rate"], ctx.seconds,
            params["timeout_s"], ctx.op_tracer)
        self.after = service.stats()
        self.wait_after = _queue_wait(service.metrics_text())
        timed.failed += self.wrong_served(timed.answers)
        return timed

    def check(self) -> int:
        answers = [answer.value for answer in self.service.query_many(
            self.check_pairs, timeout=30.0)]
        return oracle.wrong_distances(self.graph, self.check_pairs, answers)

    def layers(self, timed: Timed) -> None:
        rec = self.ctx.rec
        scalar_us = self.served_layers()
        inproc_us = self.inproc_p50_us(self.service)
        rec.layer("serving.inproc_p50_us", inproc_us)
        rec.layer("serving.inproc_added_p50_us", inproc_us - scalar_us)
        # Saturation: 512-pair chunks through submit_many, 8 in flight.
        # Too unsteady on a 2-core box to bound end to end (the bench
        # process, not the worker, is the bottleneck), so it is a layer
        # metric, taken over 6 half-second windows.
        chunk = self.params["chunk"]
        chunks = [self.pairs[i:i + chunk]
                  for i in range(0, len(self.pairs) - chunk + 1, chunk)]
        full = loadgen.saturate(
            self.service.submit_many, chunks, self.params["window"],
            self.params["saturate_s"], self.params["timeout_s"], windows=6)
        if full.failed or self.wrong_served(full.answers):
            raise RuntimeError("saturation phase returned wrong answers")
        rec.layer("serving.saturation_qps", full.throughput())


SCENARIOS = {
    "qbs_spg_hub": QbsSpg,
    "qbs_spg_lattice": QbsSpg,
    "ppl_distance_batch": PplBatch,
    "store_cold_uniform": StoreCold,
    "dynamic_mixed": DynamicMixed,
    "http_closed_hotspot": HttpClosed,
    "service_open_uniform": ServiceOpen,
}
