"""Serving subsystem tests: snapshots, pool, batcher, service, HTTP.

Every test that spawns worker processes carries a ``timeout`` mark so
a hung worker fails the test fast (enforced when ``pytest-timeout``
is installed — the CI path) instead of wedging the whole suite.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import tempfile
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import Graph, QueryOptions, build_index, spg_oracle
from repro.baselines.oracle import distance_oracle
from repro.directed import DiGraph
from repro.engine import available_methods, get_index_class
from repro.errors import (
    RequestExpiredError,
    ServiceOverloadedError,
    ServingError,
    VertexError,
)
from repro.graph import barabasi_albert
from repro.serving import (
    BatchMessage,
    BatchResponse,
    QueryService,
    SnapshotManager,
    WorkerPool,
    make_server,
    materialize_snapshot,
    run_closed_loop,
)
from repro.workloads import sample_pairs

from _corpus import sample_vertex_pairs

#: Build params that keep every family fast on the small test graphs.
_BUILD_PARAMS = {
    "qbs": {"num_landmarks": 3},
    "qbs-directed": {"num_landmarks": 3},
}


def _small_graph(seed=5, n=120) -> Graph:
    return barabasi_albert(n, 2, seed=seed)


def _build(method, graph):
    return build_index(graph, method, **_BUILD_PARAMS.get(method, {}))


@pytest.fixture(scope="module")
def served_graph() -> Graph:
    return _small_graph(seed=9, n=200)


# ----------------------------------------------------------------------
# Snapshot persistence: every family through the serving snapshot path
# ----------------------------------------------------------------------

class TestSnapshotPersistence:
    """Satellite: save -> load_index -> identical answers, per family.

    The ``file`` store is exactly the uniform persistence format, so
    this doubles as a round-trip conformance check for every
    registered family, driven through the serving machinery rather
    than the persistence API directly. The ``shm`` store exercises the
    shared-memory packing of the same ``to_state`` decomposition.
    """

    @pytest.mark.parametrize("method", sorted(available_methods()))
    @pytest.mark.parametrize("store", ["file", "shm"])
    def test_round_trip_identical_answers(self, method, store,
                                          tmp_path):
        if get_index_class(method).directed:
            graph = DiGraph.from_arcs(
                [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3), (3, 0)])
        else:
            graph = _small_graph(seed=31, n=60)
        index = _build(method, graph)
        manager = SnapshotManager(index, store=store,
                                  directory=tmp_path)
        try:
            snapshot = manager.publish()
            replica = materialize_snapshot(snapshot.handle)
            assert type(replica) is type(index)
            pairs = sample_vertex_pairs(graph, 10, seed=41)
            for u, v in pairs:
                assert replica.distance(u, v) == index.distance(u, v)
                assert replica.query(u, v) == index.query(u, v)
        finally:
            manager.close()

    def test_shm_segment_retired_after_close(self):
        graph = _small_graph(seed=34, n=40)
        manager = SnapshotManager(_build("ppl", graph), store="shm")
        handle = manager.publish().handle
        manager.close()
        with pytest.raises(ServingError, match="gone"):
            materialize_snapshot(handle)


class TestSnapshotManager:
    def test_publish_if_changed_keyed_on_version(self):
        graph = _small_graph(seed=35, n=50)
        index = build_index(graph, "dynamic")
        manager = SnapshotManager(index, store="shm")
        try:
            first = manager.publish()
            assert manager.publish_if_changed() is None
            index.insert_edge(0, 49)
            second = manager.publish_if_changed()
            assert second is not None
            assert second.handle.epoch == first.handle.epoch + 1
            assert second.handle.version == index.version
        finally:
            manager.close()

    def test_audit_history_bounded(self, tmp_path):
        """Per-epoch graphs are dropped beyond the audit window."""
        graph = _small_graph(seed=38, n=40)
        index = build_index(graph, "dynamic")
        manager = SnapshotManager(index, store="file",
                                  directory=tmp_path, keep=2,
                                  audit_history=3)
        try:
            for step in range(6):
                index.insert_edge(step, 30 + step)
                manager.publish()
            assert manager.epochs == [3, 4, 5]
            with pytest.raises(ServingError, match="no snapshot"):
                manager.graph_at(0)
            assert manager.graph_at(5).num_edges \
                == index.graph.num_edges
        finally:
            manager.close()

    def test_audit_history_must_cover_keep(self):
        index = _build("ppl", _small_graph(seed=39, n=30))
        with pytest.raises(ServingError, match="audit_history"):
            SnapshotManager(index, audit_history=1)

    def test_graphs_survive_retirement(self, tmp_path):
        graph = _small_graph(seed=36, n=50)
        index = build_index(graph, "dynamic")
        manager = SnapshotManager(index, store="file",
                                  directory=tmp_path, keep=2)
        try:
            for step in range(4):
                index.insert_edge(step, 40 + step)
                manager.publish()
            assert manager.epochs == [0, 1, 2, 3]
            # Epoch-0 storage is retired, but its graph is auditable.
            assert manager.graph_at(0).num_vertices == 50
            with pytest.raises(ServingError, match="no snapshot"):
                manager.graph_at(99)
        finally:
            manager.close()

    def test_rejects_unknown_store_and_tiny_keep(self):
        index = _build("ppl", _small_graph(seed=37, n=30))
        with pytest.raises(ServingError, match="unknown snapshot"):
            SnapshotManager(index, store="carrier-pigeon")
        with pytest.raises(ServingError, match="keep"):
            SnapshotManager(index, keep=1)


# ----------------------------------------------------------------------
# The service: pool + batcher end to end
# ----------------------------------------------------------------------

@pytest.mark.timeout(120)
class TestQueryService:
    @pytest.fixture(scope="class")
    def service(self, served_graph):
        index = build_index(served_graph, "ppl")
        with QueryService(index, num_workers=2,
                          options=QueryOptions(mode="distance",
                                               cache_size=256),
                          max_delay=0.001) as service:
            yield service

    def test_answers_match_oracle(self, service, served_graph):
        pairs = sample_pairs(served_graph, 30, seed=51)
        answers = service.query_many(pairs)
        for (u, v), answer in zip(pairs, answers):
            assert answer.value == distance_oracle(served_graph, u, v)
            assert answer.epoch == 0

    def test_modes_through_the_pool(self, service, served_graph):
        u, v = sample_pairs(served_graph, 1, seed=53)[0]
        oracle = spg_oracle(served_graph, u, v)
        assert service.query(u, v, mode="spg").value == oracle
        assert service.query(u, v, mode="count-paths").value \
            == oracle.count_paths()
        assert service.query(u, v, mode="distance").value \
            == oracle.distance

    def test_deduplication_counted(self, service, served_graph):
        before = service.stats()["deduplicated"]
        futures = [service.submit(3, 77) for _ in range(40)]
        values = {future.result(timeout=30).value
                  for future in futures}
        assert len(values) == 1
        assert service.stats()["deduplicated"] >= before + 30

    def test_reversed_pairs_deduplicated(self, service, served_graph):
        """On an undirected index (v, u) coalesces with (u, v)."""
        before = service.stats()["deduplicated"]
        futures = service.submit_many([(5, 91), (91, 5)] * 20)
        values = {future.result(timeout=30).value
                  for future in futures}
        assert len(values) == 1
        assert next(iter(values)) == distance_oracle(served_graph,
                                                     5, 91)
        # One submit_many burst lands in one accumulating batch, so
        # all 40 requests share a single symmetric key.
        assert service.stats()["deduplicated"] >= before + 39

    def test_vertex_validated_at_admission(self, service):
        with pytest.raises(VertexError, match="out of range"):
            service.submit(0, 10_000)

    def test_mode_validated_at_admission(self, service):
        from repro.errors import QueryError

        with pytest.raises(QueryError, match="unknown query mode"):
            service.submit(0, 1, mode="teleport")
        with pytest.raises(QueryError, match="unknown query mode"):
            service.submit_many([(0, 1)], mode="teleport")

    def test_burst_chunks_shrink_below_pending_limit(self,
                                                     served_graph):
        """run_burst must not livelock when its chunk exceeds the
        admission window — chunks shrink until they fit."""
        from repro.serving import run_burst

        index = build_index(served_graph, "ppl")
        with QueryService(index, num_workers=1,
                          options=QueryOptions(mode="distance"),
                          max_pending=16, max_batch=8,
                          max_delay=0.001) as service:
            pairs = sample_pairs(served_graph, 60, seed=59)
            report = run_burst(service.submit, pairs, num_clients=2,
                               submit_many=service.submit_many,
                               chunk_size=64)
            assert report.answered == 60
            assert report.errors == 0

    def test_closed_loop_load(self, service, served_graph):
        pairs = sample_pairs(served_graph, 120, seed=57)
        report = run_closed_loop(service.submit, pairs,
                                 num_clients=4)
        assert report.answered == 120
        assert report.errors == 0
        assert report.throughput_qps > 0
        summary = report.summary()
        assert summary["latency_p50_ms"] <= summary["latency_p99_ms"]
        for u, v, value, _epoch in report.answers[:10]:
            assert value == distance_oracle(served_graph, u, v)

    def test_stats_shape(self, service):
        stats = service.stats()
        for key in ("submitted", "answered", "deduplicated", "batches",
                    "rejected", "expired", "pending", "num_workers",
                    "alive_workers", "epoch", "method", "store"):
            assert key in stats
        assert stats["alive_workers"] == 2


@pytest.mark.timeout(120)
class TestAdmissionControl:
    def test_queue_depth_rejection(self, served_graph):
        index = build_index(served_graph, "ppl")
        with QueryService(index, num_workers=1,
                          options=QueryOptions(mode="distance"),
                          max_pending=5, max_batch=4,
                          max_delay=0.5) as service:
            accepted, rejected = [], 0
            for k in range(30):
                try:
                    accepted.append(service.submit(0, 1 + k % 150))
                except ServiceOverloadedError:
                    rejected += 1
            assert rejected > 0
            assert service.stats()["rejected"] == rejected
            done = [f.result(timeout=30) for f in accepted]
            assert all(a.value is not None for a in done)

    def test_time_budget_expiry(self, served_graph):
        index = build_index(served_graph, "ppl")
        # A budget far below the batching delay: every request is
        # already expired when its batch is formed.
        with QueryService(index, num_workers=1,
                          options=QueryOptions(mode="distance",
                                               time_budget=1e-4),
                          max_batch=64, max_delay=0.05) as service:
            futures = [service.submit(0, 1 + k) for k in range(8)]
            outcomes = []
            for future in futures:
                try:
                    future.result(timeout=30)
                    outcomes.append("answered")
                except RequestExpiredError:
                    outcomes.append("expired")
            assert "expired" in outcomes
            assert service.stats()["expired"] >= 1


@pytest.mark.timeout(120)
class TestHotSwap:
    def test_updates_swap_and_stay_exact(self):
        graph = _small_graph(seed=61, n=150)
        index = build_index(graph, "dynamic")
        with QueryService(index, num_workers=2,
                          options=QueryOptions(mode="distance",
                                               cache_size=64),
                          max_delay=0.001) as service:
            pairs = sample_pairs(graph, 12, seed=63)
            for u, v in pairs:
                assert service.query(u, v).value \
                    == distance_oracle(graph, u, v)
            outcome = service.apply_updates(
                [("insert", 0, 149), ("delete", *next(graph.edges()))])
            assert outcome["applied"] == 2
            assert outcome["epoch"] == 1
            evolved = index.graph
            for u, v in pairs + [(0, 149)]:
                answer = service.query(u, v)
                assert answer.epoch == 1
                assert answer.value == distance_oracle(evolved, u, v)
            # The pre-swap epoch is still auditable.
            assert service.graph_at(0).num_edges == graph.num_edges

    def test_refresh_without_changes_is_noop(self, served_graph):
        index = build_index(served_graph, "ppl")
        with QueryService(index, num_workers=1) as service:
            assert service.refresh() is None
            assert service.epoch == 0
            assert service.refresh(force=True) is not None
            assert service.epoch == 1

    def test_immutable_source_rejects_updates(self, served_graph):
        index = build_index(served_graph, "ppl")
        with QueryService(index, num_workers=1) as service:
            with pytest.raises(ServingError, match="immutable"):
                service.apply_updates([("insert", 0, 1)])


@pytest.mark.timeout(120)
class TestServiceLifecycle:
    def test_closed_service_refuses_queries(self, served_graph):
        index = build_index(served_graph, "ppl")
        service = QueryService(index, num_workers=1)
        service.query(0, 1)
        service.close()
        with pytest.raises(ServingError, match="closed"):
            service.submit(0, 1)
        service.close()  # idempotent

    def test_dead_worker_respawned_and_service_heals(self,
                                                     served_graph):
        """A killed worker must not wedge the service: the collector
        respawns it, re-dispatches in-flight batches, and answers
        keep flowing (and keep being exact)."""
        index = build_index(served_graph, "ppl")
        with QueryService(index, num_workers=2,
                          options=QueryOptions(mode="distance"),
                          max_delay=0.001) as service:
            assert service.query(0, 1).value \
                == distance_oracle(served_graph, 0, 1)
            victim = service._pool._processes[0]
            victim.kill()
            victim.join(timeout=10)
            pairs = sample_pairs(served_graph, 25, seed=91)
            answers = service.query_many(pairs, timeout=60)
            for (u, v), answer in zip(pairs, answers):
                assert answer.value == distance_oracle(served_graph,
                                                       u, v)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                stats = service.stats()
                if stats["alive_workers"] == 2:
                    break
                time.sleep(0.05)
            assert stats["worker_deaths"] >= 1
            assert service.stats()["alive_workers"] == 2

    def test_worker_killed_mid_response_spares_its_siblings(self):
        """A worker SIGKILLed while blocked half-way through sending a
        response must cost only its own channel: the sibling's next
        answer still arrives. (On a response queue shared by all
        workers the victim dies holding the queue's write lock and
        leaves a torn frame behind; nothing is ever received again.)
        """
        graph = _small_graph(seed=3, n=400)
        manager = SnapshotManager(build_index(graph, "ppl"))
        handle = manager.publish().handle
        pool = WorkerPool(num_workers=2)
        answered = []

        def kill_respawn_ask():
            victim = pool._processes[0]
            victim.kill()
            victim.join(timeout=10)
            assert pool.respawn(handle) == [0]
            pool.submit(BatchMessage(1, handle, "distance", ((0, 1),)))
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                response = pool.get_response(timeout=0.5)
                if (isinstance(response, BatchResponse)
                        and response.batch_id == 1):
                    answered.append(response)
                    return

        try:
            pool.start(handle)
            # ~250 KB of pickled SPGs against a 64 KiB pipe, and nobody
            # reading: worker 0 computes for well under a second, then
            # blocks mid-send.
            pool.submit(BatchMessage(
                0, handle, "spg", tuple(sample_pairs(graph, 3000,
                                                     seed=1))))
            time.sleep(2.5)
            # Round-robin hands batch 1 to worker 1, the sibling. The
            # thread is the hang guard: a wedged `get_response` ignores
            # its own timeout.
            guard = threading.Thread(target=kill_respawn_ask,
                                     daemon=True)
            guard.start()
            guard.join(timeout=45)
            assert not guard.is_alive(), "get_response never returned"
            assert [r.worker_id for r in answered] == [1]
            assert answered[0].values == [distance_oracle(graph, 0, 1)]
        finally:
            pool.close()
            manager.close()

    @pytest.mark.parametrize("store", ["shm", "file", "mmap"])
    def test_close_leaves_nothing_behind(self, store, tmp_path,
                                         monkeypatch):
        """After ``close()``: no child process, no serving or queue
        feeder thread, no shm segment, no snapshot temp directory."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        graph = _small_graph(seed=13, n=80)
        index = build_index(graph, "ppl")
        shm = "/dev/shm" if os.path.isdir("/dev/shm") else None
        segments = set(os.listdir(shm)) if shm else set()
        children = set(multiprocessing.active_children())
        threads = set(threading.enumerate())
        with QueryService(index, num_workers=2, store=store,
                          options=QueryOptions(mode="distance"),
                          max_delay=0.001) as service:
            pairs = sample_pairs(graph, 20, seed=5)
            for (u, v), answer in zip(pairs,
                                      service.query_many(pairs)):
                assert answer.value == distance_oracle(graph, u, v)
        assert set(multiprocessing.active_children()) <= children
        assert [thread.name for thread in threading.enumerate()
                if thread not in threads
                and (thread.name.startswith("repro-serving-")
                     or thread.name == "QueueFeederThread")] == []
        if shm:
            assert set(os.listdir(shm)) <= segments
        assert list(tmp_path.iterdir()) == []

    def test_file_store_service(self, served_graph, tmp_path):
        index = build_index(served_graph, "ppl")
        with QueryService(index, num_workers=1, store="file",
                          directory=tmp_path,
                          options=QueryOptions(mode="distance")
                          ) as service:
            u, v = sample_pairs(served_graph, 1, seed=67)[0]
            assert service.query(u, v).value \
                == distance_oracle(served_graph, u, v)


# ----------------------------------------------------------------------
# HTTP front-end
# ----------------------------------------------------------------------

@pytest.mark.timeout(120)
class TestHTTP:
    @pytest.fixture(scope="class")
    def endpoint(self):
        graph = _small_graph(seed=71, n=150)
        index = build_index(graph, "dynamic")
        with QueryService(index, num_workers=2,
                          options=QueryOptions(mode="distance",
                                               cache_size=64),
                          max_delay=0.001) as service:
            server = make_server(service)
            server.serve_in_background()
            host, port = server.server_address[:2]
            try:
                yield f"http://{host}:{port}", graph
            finally:
                server.shutdown()
                server.server_close()

    def _post(self, base, path, payload):
        request = urllib.request.Request(
            base + path, data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request, timeout=30) as reply:
                return reply.status, json.loads(reply.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_healthz_and_stats(self, endpoint):
        base, _graph = endpoint
        with urllib.request.urlopen(base + "/healthz",
                                    timeout=30) as reply:
            assert reply.status == 200
            health = json.loads(reply.read())
        assert health["ok"] and health["workers"] == 2
        # The probe is a real readiness report, not a constant body.
        assert health["alive_workers"] == 2
        assert health["dead_workers"] == 0
        assert health["epoch"] == 0
        assert health["method"] == "dynamic"
        assert health["pending"] >= 0
        assert health["inflight_batches"] >= 0
        with urllib.request.urlopen(base + "/stats",
                                    timeout=30) as reply:
            stats = json.loads(reply.read())
        assert stats["alive_workers"] == 2

    def test_healthz_is_503_after_close(self):
        graph = _small_graph(seed=73, n=130)
        service = QueryService(build_index(graph, "ppl"),
                               num_workers=1, max_delay=0.001)
        server = make_server(service)
        server.serve_in_background()
        host, port = server.server_address[:2]
        try:
            service.close()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://{host}:{port}/healthz", timeout=30)
            assert excinfo.value.code == 503
            assert not json.loads(excinfo.value.read())["ok"]
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_query_single_and_batch(self, endpoint):
        base, graph = endpoint
        status, payload = self._post(base, "/query",
                                     {"u": 0, "v": 140})
        assert status == 200
        assert payload["results"][0]["value"] \
            == distance_oracle(graph, 0, 140)
        status, payload = self._post(
            base, "/query",
            {"pairs": [[0, 140], [3, 9]], "mode": "spg"})
        assert status == 200
        rendered = payload["results"][0]["value"]
        oracle = spg_oracle(graph, 0, 140)
        assert rendered["distance"] == oracle.distance
        assert len(rendered["edges"]) == oracle.num_edges

    def test_update_then_query_new_epoch(self, endpoint):
        base, _graph = endpoint
        status, outcome = self._post(
            base, "/update", {"ops": [["insert", 0, 149]]})
        assert status == 200 and outcome["applied"] == 1
        status, payload = self._post(base, "/query",
                                     {"u": 0, "v": 149})
        assert status == 200
        result = payload["results"][0]
        assert result["value"] == 1
        assert result["epoch"] == outcome["epoch"]

    def test_error_mapping(self, endpoint):
        base, _graph = endpoint
        assert self._post(base, "/query", {"u": 0})[0] == 400
        assert self._post(base, "/query",
                          {"u": 0, "v": 10_000})[0] == 400
        assert self._post(base, "/query",
                          {"u": 0, "v": 1,
                           "mode": "teleport"})[0] == 400
        assert self._post(base, "/nope", {"x": 1})[0] == 404
        status, _ = self._post(base, "/update", {"ops": []})
        assert status == 400

    def test_update_on_immutable_source_is_409(self):
        graph = _small_graph(seed=77, n=60)
        with QueryService(_build("ppl", graph), num_workers=1,
                          options=QueryOptions(mode="distance")
                          ) as service:
            server = make_server(service)
            server.serve_in_background()
            host, port = server.server_address[:2]
            try:
                status, payload = self._post(
                    f"http://{host}:{port}", "/update",
                    {"ops": [["insert", 0, 1]]})
            finally:
                server.shutdown()
                server.server_close()
        assert status == 409
        assert "immutable" in payload["error"]

    def test_concurrent_http_clients(self, endpoint):
        base, graph = endpoint
        pairs = sample_pairs(graph, 40, seed=73)
        failures = []

        def client(slice_pairs):
            for u, v in slice_pairs:
                status, payload = self._post(base, "/query",
                                             {"u": u, "v": v})
                if status != 200:
                    failures.append((u, v, status))

        threads = [threading.Thread(target=client,
                                    args=(pairs[i::4],))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures


@pytest.mark.timeout(120)
class TestHTTPErrorPaths:
    """Satellite: malformed JSON, unknown mode, overload -> 503."""

    @pytest.fixture(scope="class")
    def tight_endpoint(self):
        """A service whose admission control trips deterministically."""
        graph = _small_graph(seed=81, n=80)
        index = _build("ppl", graph)
        with QueryService(index, num_workers=1,
                          options=QueryOptions(mode="distance"),
                          max_delay=0.001, max_pending=4) as service:
            server = make_server(service)
            server.serve_in_background()
            host, port = server.server_address[:2]
            try:
                yield f"http://{host}:{port}"
            finally:
                server.shutdown()
                server.server_close()

    def _post_raw(self, base, path, body: bytes):
        request = urllib.request.Request(
            base + path, data=body,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request, timeout=30) as reply:
                return reply.status, json.loads(reply.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_malformed_json_body_is_400(self, tight_endpoint):
        status, payload = self._post_raw(tight_endpoint, "/query",
                                         b"{not json at all")
        assert status == 400
        assert "bad request" in payload["error"]
        status, payload = self._post_raw(tight_endpoint, "/query",
                                         b"[1, 2, 3]")
        assert status == 400
        assert "JSON object" in payload["error"]
        status, payload = self._post_raw(tight_endpoint, "/query", b"")
        assert status == 400
        assert "empty request body" in payload["error"]

    def test_unknown_query_mode_is_400(self, tight_endpoint):
        status, payload = self._post_raw(
            tight_endpoint, "/query",
            json.dumps({"u": 0, "v": 1,
                        "mode": "teleport"}).encode())
        assert status == 400
        assert "unknown query mode" in payload["error"]

    def test_overload_maps_to_503_with_retry_payload(self,
                                                     tight_endpoint):
        """A burst beyond max_pending is rejected whole: the bulk
        admission pass raises ServiceOverloadedError before anything
        is enqueued, and the front-end answers 503 + retry flag."""
        burst = [[u, (u + 1) % 80] for u in range(64)]
        status, payload = self._post_raw(
            tight_endpoint, "/query",
            json.dumps({"pairs": burst}).encode())
        assert status == 503
        assert payload["retry"] is True
        assert "does not fit" in payload["error"]
        # The service recovers: a fitting request still answers.
        status, payload = self._post_raw(
            tight_endpoint, "/query",
            json.dumps({"u": 0, "v": 1}).encode())
        assert status == 200


@pytest.mark.timeout(180)
class TestServeSignalHandling:
    """Satellite: SIGINT/SIGTERM leave no orphaned worker processes."""

    @pytest.mark.parametrize("signame", ["SIGINT", "SIGTERM"])
    def test_signal_shuts_down_cleanly(self, signame, tmp_path):
        import os
        import signal
        import subprocess
        import sys

        index_path = tmp_path / "serve.idx"
        _build("ppl", _small_graph(seed=83, n=50)).save(index_path)
        env = dict(os.environ)
        repo_src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = repo_src + os.pathsep + \
            env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve",
             "--index", str(index_path), "--workers", "2",
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env)
        try:
            for _ in range(200):
                line = process.stdout.readline()
                assert line, "server exited before listening"
                if "listening on" in line:
                    break
            else:
                pytest.fail("server never reported listening")
            process.send_signal(getattr(signal, signame))
            output, _ = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, output
        assert "shutting down" in output
        assert "draining batcher and stopping workers" in output
