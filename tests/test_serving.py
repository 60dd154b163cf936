"""Serving subsystem tests: snapshots, pool, batcher, service, HTTP.

Every test that spawns worker processes carries a ``timeout`` mark so
a hung worker fails the test fast (enforced when ``pytest-timeout``
is installed — the CI path) instead of wedging the whole suite.
"""

from __future__ import annotations

import concurrent.futures
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import Graph, QueryOptions, build_index, load_index, spg_oracle
from repro.baselines.oracle import distance_oracle
from repro.directed import DiGraph
from repro.engine import available_methods
from repro.errors import (
    RequestExpiredError,
    ServiceOverloadedError,
    ServingError,
    VertexError,
)
from repro.graph import barabasi_albert
from repro.obs import get_registry
from repro.serving import (
    Batcher,
    BatchMessage,
    BatchResponse,
    PairError,
    QueryService,
    SnapshotManager,
    WorkerPool,
    make_server,
    materialize_snapshot,
    run_closed_loop,
)
from repro.serving import snapshot as snapshot_module
from repro.store import STORE_METHODS, map_store_arrays, open_store_index, \
    pack_index_store
from repro.workloads import sample_pairs

from _corpus import (
    frozen_workers,
    recorded_responses,
    retired_handles,
    sample_vertex_pairs,
    shared_arrays,
)

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
# Round-trip matrix: every family across every boundary its state crosses
# ----------------------------------------------------------------------

def _two_component_graph() -> Graph:
    """A BA graph plus a short path and an isolated vertex, so the
    pairs include unreachable ones."""
    hub = _small_graph(seed=31, n=60)
    return Graph.from_edges(list(hub.edges()) + [(60, 61), (61, 62)],
                            num_vertices=64)


def _one_way_digraph() -> DiGraph:
    rng = np.random.default_rng(32)
    return DiGraph.from_arcs(rng.integers(0, 50, size=(140, 2)),
                             num_vertices=52)


def _round_trip_source(case):
    """The built index of one matrix row, and the graph it answers
    over."""
    if case == "qbs-directed":
        graph = _one_way_digraph()
    elif case == "qbs-directed-shared":
        graph = shared_arrays(_two_component_graph())
    else:
        graph = _two_component_graph()
    index = _build(case.replace("-shared", ""), graph)
    if case == "dynamic":
        # Non-empty `added` / `phantom` state.
        index.insert_edge(3, 62)
        index.remove_edge(*next(graph.edges()))
    return index, index.graph


def _oracle(graph, u, v):
    """``(distance, shortest path graph)`` by plain BFS."""
    if isinstance(graph, DiGraph):
        spg = spg_oracle(graph, u, v)
        return spg.distance, spg
    return distance_oracle(graph, u, v), spg_oracle(graph, u, v)


def _round_trip_pairs(index, graph, count=200):
    pairs = sample_vertex_pairs(graph, count, seed=41)
    landmarks = getattr(index, "landmarks", None)
    if landmarks is not None:
        # Landmark endpoints take the unguided path: as the first end,
        # as the second, as both.
        marks = [int(r) for r in landmarks]
        for k, r in enumerate(marks):
            u, v = pairs[3 * k]
            pairs[3 * k:3 * k + 3] = [
                (r, v), (u, r), (r, marks[(k + 1) % len(marks)])]
    return pairs


_ROUND_TRIP_CASES = sorted(available_methods()) + ["qbs-directed-shared"]

#: ``(boundary, case)``; only the label families pack into a store.
_ROUND_TRIPS = [(boundary, case)
                for boundary in ("state", "file", "snapshot")
                for case in _ROUND_TRIP_CASES] \
    + [("store", method) for method in STORE_METHODS]


class TestSnapshotPersistence:
    """State -> boundary -> ``from_state`` gives BFS-oracle answers.

    One row per registered family (``qbs-directed`` twice: one-way arcs
    and a shared-array symmetric ``DiGraph``), one column per boundary
    the ``to_state`` decomposition crosses:

    ``state``     ``cls.from_state(*index.to_state())``, nothing
                  between;
    ``file``      ``save`` -> ``load_index`` of the npz archive;
    ``snapshot``  ``SnapshotManager.publish`` ->
                  ``materialize_snapshot``, the replica queried after
                  the manager is closed and the file unlinked;
    ``store``     ``pack_index_store`` -> ``open_store_index`` (label
                  families only).

    The replica is compared with the oracle, not with its source: an
    answer both get wrong is still wrong.
    """

    @pytest.mark.parametrize(
        "boundary,case", _ROUND_TRIPS,
        ids=[f"{boundary}-{case}" for boundary, case in _ROUND_TRIPS])
    def test_round_trip_identical_answers(self, boundary, case,
                                          tmp_path):
        index, graph = _round_trip_source(case)
        if boundary == "state":
            replica = type(index).from_state(*index.to_state())
        elif boundary == "file":
            index.save(tmp_path / "index.idx")
            replica = load_index(tmp_path / "index.idx")
        elif boundary == "store":
            pack_index_store(index, tmp_path / "index.store")
            replica = open_store_index(tmp_path / "index.store")
        else:
            with SnapshotManager(index, directory=tmp_path) as manager:
                replica = materialize_snapshot(manager.publish().handle)
            assert list(tmp_path.iterdir()) == []
        assert type(replica) is type(index)
        wrong = []
        for u, v in _round_trip_pairs(index, graph):
            distance, spg = _oracle(graph, u, v)
            if replica.distance(u, v) != distance:
                wrong.append(("distance", u, v))
            if replica.query(u, v) != spg:
                wrong.append(("query", u, v))
        assert wrong == []

    def test_retired_epoch_is_unlinked_under_a_live_replica(self):
        """Retiring an epoch unlinks its file. A replica materialized
        before that keeps its mapping and its answers; a handle that
        arrives afterwards fails with the typed error the batcher
        retries on."""
        graph = _small_graph(seed=34, n=40)
        pairs = sample_vertex_pairs(graph, 50, seed=42)
        with SnapshotManager(_build("ppl", graph), keep=2) as manager:
            first = manager.publish().handle
            replica = materialize_snapshot(first)
            directory = os.path.dirname(first.ref)
            manager.publish()
            assert os.path.exists(first.ref)
            manager.publish()
            assert not os.path.exists(first.ref)
            assert len(os.listdir(directory)) == 2
            with pytest.raises(ServingError, match="retired"):
                materialize_snapshot(first)
            for u, v in pairs:
                assert replica.distance(u, v) \
                    == distance_oracle(graph, u, v)
            last = manager.current.handle
        assert not os.path.exists(directory)
        with pytest.raises(ServingError, match="retired"):
            materialize_snapshot(last)
        assert replica.distance(*pairs[0]) \
            == distance_oracle(graph, *pairs[0])

    @staticmethod
    def _assert_mapped_views(arrays):
        for name, array in arrays.items():
            assert not array.flags.writeable, name
            assert not array.flags.owndata, name
            root = array
            while root.base is not None \
                    and not isinstance(root, np.memmap):
                root = root.base
            assert isinstance(root, np.memmap), name

    @pytest.mark.parametrize("method", STORE_METHODS)
    def test_replica_arrays_are_views_of_the_one_mapping(self, method):
        """A worker fleet holds one copy of the labels: what
        ``from_state`` gets are read-only views into the mapped file,
        and the index keeps them as they are — the batch kernel's
        packed labels too, which the worker never builds itself."""
        graph = _small_graph(seed=33, n=80)
        source = _build(method, graph)
        with SnapshotManager(source) as manager:
            replica = materialize_snapshot(manager.publish().handle)
        arrays = replica.to_state()[1]
        assert set(arrays) == set(source.to_state()[1])
        self._assert_mapped_views(arrays)
        kernel = replica._batch_labels
        self._assert_mapped_views({
            "head": kernel.head, "tail_offsets": kernel.tail_offsets,
            "tail_ranks": kernel.tail_ranks,
            "tail_dists": kernel.tail_dists})
        pairs = sample_vertex_pairs(graph, 200, seed=43)
        assert replica.distance_many(pairs) == source.distance_many(pairs)
        assert replica._batch_labels is kernel

    def test_bibfs_epoch_holds_its_state_arrays_only(self):
        """A family with no derived arrays publishes its ``to_state``
        arrays, nothing more."""
        source = _build("bibfs", _small_graph(seed=33, n=80))
        with SnapshotManager(source) as manager:
            handle = manager.publish().handle
            header, arrays = map_store_arrays(handle.ref)
            replica = materialize_snapshot(handle)
        assert header["method"] == "bibfs"
        assert set(arrays) == set(source.to_state()[1])
        self._assert_mapped_views(replica.to_state()[1])

    def test_default_directories(self, tmp_path, monkeypatch):
        """Unset, `directory` is derived: a snapshot file is mapped
        whole, so it goes to tmpfs when there is one, else to the temp
        dir."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        index = _build("ppl", _small_graph(seed=33, n=40))
        shm_root = snapshot_module._SHM_ROOT
        has_shm = os.path.isdir(shm_root) and os.access(shm_root,
                                                        os.W_OK)
        for root, on_tmpfs in ((shm_root, has_shm),
                               (str(tmp_path / "no-tmpfs"), False)):
            monkeypatch.setattr(snapshot_module, "_SHM_ROOT", root)
            with SnapshotManager(index) as manager:
                path = manager.publish().handle.ref
                parent = os.path.dirname(os.path.dirname(path))
                assert parent == (root if on_tmpfs else str(tmp_path))
                assert os.path.basename(os.path.dirname(path)) \
                    .startswith("repro-serving-")
            assert not os.path.exists(os.path.dirname(path))


class TestSnapshotManager:
    def test_publish_if_changed_keyed_on_version(self):
        graph = _small_graph(seed=35, n=50)
        index = build_index(graph, "dynamic")
        manager = SnapshotManager(index)
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
        manager = SnapshotManager(index, directory=tmp_path, keep=2,
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
        manager = SnapshotManager(index, directory=tmp_path, keep=2)
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

    def test_rejects_tiny_keep(self):
        index = _build("ppl", _small_graph(seed=37, n=30))
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
                                               cache_size=256)) as service:
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
        futures = service.submit_many([(3, 77)] * 40)
        values = {future.result(timeout=30).value
                  for future in futures}
        assert values == {distance_oracle(served_graph, 3, 77)}
        # One burst is enqueued whole before anything leaves: one key,
        # 39 duplicates, under any dispatch policy.
        assert service.stats()["deduplicated"] == before + 39

    def test_reversed_pairs_deduplicated(self, service, served_graph):
        """On an undirected index (v, u) coalesces with (u, v)."""
        before = service.stats()["deduplicated"]
        futures = service.submit_many([(5, 91), (91, 5)] * 20)
        values = {future.result(timeout=30).value
                  for future in futures}
        assert len(values) == 1
        assert next(iter(values)) == distance_oracle(served_graph,
                                                     5, 91)
        # One submit_many burst lands in one open batch, so all 40
        # requests share a single symmetric key.
        assert service.stats()["deduplicated"] == before + 39

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
                          max_pending=16, max_batch=8) as service:
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
                    "alive_workers", "epoch", "method"):
            assert key in stats
        assert stats["alive_workers"] == 2


@pytest.mark.timeout(120)
class TestAdmissionControl:
    def test_queue_depth_rejection(self, served_graph):
        index = build_index(served_graph, "ppl")
        with QueryService(index, num_workers=1,
                          options=QueryOptions(mode="distance"),
                          max_pending=5, max_batch=4) as service:
            # The worker cannot answer, so what is pending stays
            # pending: the limit trips on the count, not on a race.
            with frozen_workers(service, 0):
                accepted = service.submit_many(
                    [(0, 1 + k) for k in range(5)])
                with pytest.raises(ServiceOverloadedError,
                                   match="5 requests pending"):
                    service.submit(0, 7)
                with pytest.raises(ServiceOverloadedError,
                                   match="does not fit"):
                    service.submit_many([(0, 8), (0, 9)])
                assert service.stats()["rejected"] == 3
                assert service.stats()["pending"] == 5
            for k, future in enumerate(accepted):
                assert future.result(timeout=30).value \
                    == distance_oracle(served_graph, 0, 1 + k)
            assert service.query(0, 7).value \
                == distance_oracle(served_graph, 0, 7)

    def test_time_budget_expiry(self, served_graph):
        index = build_index(served_graph, "ppl")
        # A budget far below one worker round trip: the first request
        # leaves at once and is answered too late, the rest are
        # already expired when their batch's turn comes.
        with QueryService(index, num_workers=1,
                          options=QueryOptions(mode="distance",
                                               time_budget=1e-4),
                          max_batch=64) as service:
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
                                               cache_size=64)) as service:
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

    def test_twenty_hot_swaps_stay_exact(self):
        """Every swap is a new file the two workers map and an old one
        unlinked under them; each answer is the BFS answer on the graph
        of the epoch it names, and no batch has to be retried."""
        graph = _small_graph(seed=62, n=120)
        index = build_index(graph, "dynamic")
        pairs = sample_pairs(graph, 16, seed=64)
        edges = list(graph.edges())
        with QueryService(index, num_workers=2,
                          options=QueryOptions(mode="distance")) as service:
            for step in range(20):
                op = ("insert", step, 119 - step) if step % 3 \
                    else ("delete", *edges[step])
                outcome = service.apply_updates([op])
                assert outcome["epoch"] == step + 1
                for (u, v), answer in zip(pairs,
                                          service.query_many(pairs)):
                    assert answer.epoch == step + 1
                    assert answer.value == distance_oracle(
                        service.graph_at(answer.epoch), u, v)
            stats = service.stats()
            assert stats["retries"] == 0
            assert stats["worker_deaths"] == 0
            assert stats["alive_workers"] == 2

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
                          options=QueryOptions(mode="distance")) as service:
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

    def test_dead_workers_pipe_stays_open_until_respawn(self):
        """Reading EOF on a dead worker's pipe does not close the
        parent end: a sender may be writing to it at that moment (it
        sends under the batcher's lock, not the receiver's), and a
        closed descriptor's number is soon reused by a socket. The end
        is closed once ``respawn`` has swapped it out of its slot."""
        graph = _small_graph(seed=3, n=40)
        manager = SnapshotManager(build_index(graph, "ppl"))
        handle = manager.publish().handle
        pool = WorkerPool(num_workers=1)
        try:
            pool.start(handle)
            old = pool._pipes[0]
            process = pool._processes[0]
            process.kill()
            process.join(timeout=10)
            deadline = time.monotonic() + 20
            while old in pool._readers:
                assert time.monotonic() < deadline, "EOF never read"
                assert pool.get_response(timeout=0.5) is None
            assert not old.closed
            # The worker died idle: the send fails quietly.
            assert pool.submit(BatchMessage(
                0, handle, "distance", ((0, 1),))) == 0
            assert pool.respawn(handle) == [0]
            assert pool._pipes[0] is not old
            assert old.closed
            ready = pool.get_response(timeout=30)
            assert ready is not None and ready.error is None
            pool.submit(BatchMessage(1, handle, "distance", ((0, 1),)))
            response = pool.get_response(timeout=30)
            assert response.values == [distance_oracle(graph, 0, 1)]
        finally:
            pool.close()
            manager.close()

    def test_bad_pair_fails_alone_in_every_mode(self):
        """A pair the index refuses (admission normally stops it) costs
        only its own slot: a distance batch falls back from the one
        kernel call to pair-by-pair answers, and spg / count-paths
        batches are answered pair by pair anyway."""
        graph = _small_graph(seed=3, n=40)
        manager = SnapshotManager(build_index(graph, "ppl"))
        handle = manager.publish().handle
        pool = WorkerPool(num_workers=1)
        try:
            pool.start(handle)
            for batch_id, mode in enumerate(
                    ("distance", "spg", "count-paths")):
                pool.submit(BatchMessage(batch_id, handle, mode,
                                         ((0, 5), (0, 99), (5, 9))))
                response = pool.get_response(timeout=30)
                assert response.error is None
                spgs = [spg_oracle(graph, 0, 5), spg_oracle(graph, 5, 9)]
                expected = {
                    "distance": [spg.distance for spg in spgs],
                    "spg": spgs,
                    "count-paths": [spg.count_paths() for spg in spgs],
                }[mode]
                assert response.values[::2] == expected
                assert isinstance(response.values[1], PairError)
                assert "99" in response.values[1].message
        finally:
            pool.close()
            manager.close()

    def test_worker_killed_mid_response_spares_its_siblings(self):
        """A worker SIGKILLed while blocked half-way through sending a
        response must cost only its own pipe: the sibling's next
        answer still arrives. (On a response queue shared by all
        workers the victim dies holding the queue's write lock and
        leaves a torn frame behind; nothing is ever received again.)
        """
        graph = _small_graph(seed=3, n=400)
        manager = SnapshotManager(build_index(graph, "ppl"))
        handle = manager.publish().handle
        pool = WorkerPool(num_workers=2)
        answered = []

        def kill_respawn_ask(victim):
            process = pool._processes[victim]
            process.kill()
            process.join(timeout=10)
            assert pool.respawn(handle) == [victim]
            # The replacement is not idle before it reports ready, so
            # this goes to the sibling.
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
            # ~250 KB of pickled SPGs against the pipe's buffer, and
            # nobody reading: the worker computes for well under a
            # second, then blocks mid-send.
            victim = pool.submit(BatchMessage(
                0, handle, "spg", tuple(sample_pairs(graph, 3000,
                                                     seed=1))))
            time.sleep(2.5)
            # The thread is the hang guard: a wedged `get_response`
            # ignores its own timeout.
            guard = threading.Thread(target=kill_respawn_ask,
                                     args=(victim,), daemon=True)
            guard.start()
            guard.join(timeout=45)
            assert not guard.is_alive(), "get_response never returned"
            # A live sibling answered — whichever slot that is.
            assert [r.worker_id for r in answered] == [1 - victim]
            assert answered[0].values == [distance_oracle(graph, 0, 1)]
        finally:
            pool.close()
            manager.close()

    def test_close_leaves_nothing_behind(self, tmp_path, monkeypatch):
        """After ``close()``: no child process, no serving thread (and
        while it runs, the collector is the only one), nothing new
        under /dev/shm or the temp dir."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        graph = _small_graph(seed=13, n=80)
        index = build_index(graph, "ppl")
        shm = "/dev/shm" if os.path.isdir("/dev/shm") else None
        segments = set(os.listdir(shm)) if shm else set()
        children = set(multiprocessing.active_children())
        threads = set(threading.enumerate())
        with QueryService(index, num_workers=2,
                          options=QueryOptions(mode="distance")) as service:
            pairs = sample_pairs(graph, 20, seed=5)
            for (u, v), answer in zip(pairs,
                                      service.query_many(pairs)):
                assert answer.value == distance_oracle(graph, u, v)
            # One parent-side thread for any number of workers: no
            # dispatcher timer, no per-worker queue feeder.
            assert [thread.name for thread in threading.enumerate()
                    if thread not in threads] \
                == ["repro-serving-collector"]
        assert set(multiprocessing.active_children()) <= children
        assert [thread.name for thread in threading.enumerate()
                if thread not in threads
                and (thread.name.startswith("repro-serving-")
                     or thread.name == "QueueFeederThread")] == []
        if shm:
            assert set(os.listdir(shm)) <= segments
        assert list(tmp_path.iterdir()) == []

    def test_directory_places_the_snapshot_files(self, served_graph,
                                                 tmp_path):
        """`directory=` is the deployment path: the epochs' files land
        there, `close()` removes them and leaves the directory, which
        the service did not create."""
        index = build_index(served_graph, "ppl")
        with QueryService(index, num_workers=1, directory=tmp_path,
                          options=QueryOptions(mode="distance")
                          ) as service:
            assert service.refresh(force=True) is not None
            assert sorted(path.name for path in tmp_path.iterdir()) \
                == ["snapshot-000000.store", "snapshot-000001.store"]
            u, v = sample_pairs(served_graph, 1, seed=67)[0]
            answer = service.query(u, v)
            assert answer.epoch == 1
            assert answer.value == distance_oracle(served_graph, u, v)
        assert tmp_path.is_dir() and list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# Dispatch: idle worker -> send, otherwise wait and coalesce
# ----------------------------------------------------------------------

#: The removed knob's spellings, assembled so a grep for them over the
#: tree comes back empty.
_DELAY_KWARG = "max_" + "delay"
_DELAY_FLAG = "--delay" + "-ms"


def _queue_wait():
    """``(sum, count)`` of ``serving_queue_wait_seconds`` so far."""
    waits = get_registry().snapshot()["histograms"][
        "serving_queue_wait_seconds"]
    return waits["sum"], waits["count"]


def _await(condition, timeout=30.0):
    """Poll ``condition`` until it holds; fail after ``timeout``."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def _await_deaths(service, count):
    """Wait until the service's pool has recorded ``count`` deaths."""
    _await(lambda: service._pool.deaths >= count)
    assert service._pool.deaths == count


@pytest.mark.timeout(180)
class TestDispatch:
    def _service(self, graph, num_workers, **kwargs):
        return QueryService(build_index(graph, "ppl"),
                            num_workers=num_workers,
                            options=QueryOptions(mode="distance"),
                            **kwargs)

    def test_lone_request_leaves_at_once(self, served_graph):
        """An idle service adds no wait: every sequential query is its
        own batch, dispatched inside the `submit` that admitted it."""
        pairs = sample_pairs(served_graph, 200, seed=101)
        with self._service(served_graph, 1) as service:
            service.query(0, 1)
            batches = service.stats()["batches"]
            waited, count = _queue_wait()
            for u, v in pairs:
                assert service.query(u, v).value \
                    == distance_oracle(served_graph, u, v)
            assert service.stats()["batches"] == batches + 200
            waited_now, count_now = _queue_wait()
            assert count_now == count + 200
            assert (waited_now - waited) / 200 < 0.2e-3

    def test_back_pressure_makes_the_batch(self, served_graph):
        """While the only worker is held, requests submitted one by one
        wait in one open batch — deduplicated — and leave together the
        moment it frees."""
        pairs = sorted({tuple(sorted(pair)) for pair in
                        sample_pairs(served_graph, 80, seed=103)})[:50]
        with self._service(served_graph, 1) as service:
            with frozen_workers(service, 0):
                holder = service.submit(0, 1)
                before = service.stats()
                assert before["inflight_batches"] == 1
                futures = [service.submit(u, v)
                           for u, v in pairs + [pairs[7][::-1]]]
                held = service.stats()
                assert held["pending"] == 52
                assert held["inflight_batches"] == 1
                assert held["batches"] == before["batches"]
            for (u, v), future in zip(pairs + [pairs[7]], futures):
                assert future.result(timeout=30).value \
                    == distance_oracle(served_graph, u, v)
            assert holder.result(timeout=30).value \
                == distance_oracle(served_graph, 0, 1)
            after = service.stats()
            assert after["batches"] == before["batches"] + 1
            assert after["deduplicated"] == before["deduplicated"] + 1

    def test_default_mode_by_name_or_by_none_is_one_batch(
            self, served_graph):
        """`submit(u, v)` and `submit(u, v, "distance")` on a distance
        service are the same request: queued behind a busy worker they
        share a batch and one computation. (Keyed on the raw `None`
        they left as two batches, answered twice.)"""
        with self._service(served_graph, 1) as service:
            with frozen_workers(service, 0):
                holder = service.submit(0, 1)
                before = service.stats()
                unnamed = service.submit(5, 9)
                named = service.submit(5, 9, "distance")
                reversed_ = service.submit(9, 5, mode="distance")
            answers = [future.result(timeout=30).value
                       for future in (unnamed, named, reversed_)]
            assert answers == [distance_oracle(served_graph, 5, 9)] * 3
            holder.result(timeout=30)
            after = service.stats()
            assert after["batches"] == before["batches"] + 1
            assert after["deduplicated"] == before["deduplicated"] + 2

    def test_busy_worker_does_not_block_the_idle_one(self):
        """Head-of-line: one worker held by a full `spg` batch must not
        delay a lone request while its sibling sits idle. (With a
        request queue per worker, filled blind, every second one waits
        out the held batch.)"""
        graph = _small_graph(seed=17, n=300)
        bursts = [sample_pairs(graph, 32, seed=seed)
                  for seed in (105, 107)]
        lone = sample_pairs(graph, 20, seed=109)
        with self._service(graph, 2, max_batch=32) as service:
            for u, v in lone[:4]:  # both workers warm
                service.query(u, v)
            with frozen_workers(service, 0):
                # Two full batches, one per worker; worker 0 keeps its
                # one, worker 1 answers and goes idle.
                spg = [service.submit_many(burst, mode="spg")
                       for burst in bursts]
                done, _ = concurrent.futures.wait(
                    spg[0] + spg[1], timeout=30,
                    return_when=concurrent.futures.FIRST_COMPLETED)
                assert done
                for u, v in lone:
                    assert service.query(u, v, timeout=10).value \
                        == distance_oracle(graph, u, v)
                held = [future for future in spg[0] + spg[1]
                        if not future.done()]
                assert len(held) == 32
                assert service.stats()["inflight_batches"] == 1
            for burst, futures in zip(bursts, spg):
                for (u, v), future in zip(burst, futures):
                    assert future.result(timeout=30).value \
                        == spg_oracle(graph, u, v)
            assert service.stats()["worker_deaths"] == 0

    def test_death_costs_only_the_victims_batch(self, served_graph):
        """Both workers hold a batch, one is SIGKILLed: its batch is
        re-dispatched, the sibling's is left alone and answered once.
        The death is observed through the pool's own record — a second
        ``join`` here would race the pool's reaper."""
        mine = sample_pairs(served_graph, 7, seed=111)
        theirs = sample_pairs(served_graph, 11, seed=113)
        with self._service(served_graph, 2) as service:
            for u, v in mine[:4]:
                service.query(u, v)
            with recorded_responses(service) as seen:
                with frozen_workers(service, 0, 1):
                    futures = [service.submit_many(mine),
                               service.submit_many(theirs)]
                    assert service.stats()["inflight_batches"] == 2
                    service._pool._processes[0].kill()
                    _await_deaths(service, 1)
                for pairs, burst in zip((mine, theirs), futures):
                    for (u, v), future in zip(pairs, burst):
                        assert future.result(timeout=60).value \
                            == distance_oracle(served_graph, u, v)
                assert service._batcher.drain(timeout=30)
            stats = service.stats()
            assert stats["worker_deaths"] == 1
            assert stats["retries"] == 0
            assert sorted(len(response.values)
                          for response in seen) == [7, 11]

    def test_death_under_metrics_scrapes(self, served_graph):
        """A worker SIGKILLed while another thread scrapes ``/metrics``
        in a loop — the scrape reads the alive-workers gauge, which
        used to reap workers itself — costs only its batch: that batch
        is answered by the replacement while the sibling still holds
        its own, and every scrape succeeds."""
        mine = sample_pairs(served_graph, 7, seed=115)
        theirs = sample_pairs(served_graph, 11, seed=117)
        with self._service(served_graph, 2) as service:
            server = make_server(service)
            server.serve_in_background()
            host, port = server.server_address[:2]
            stop, scrapes, errors = threading.Event(), [], []

            def scrape():
                while not stop.is_set():
                    try:
                        with urllib.request.urlopen(
                                f"http://{host}:{port}/metrics",
                                timeout=30) as reply:
                            scrapes.append(reply.status)
                    except Exception as exc:  # reported below
                        errors.append(repr(exc))

            scraper = threading.Thread(target=scrape, daemon=True)
            try:
                for u, v in mine[:4]:
                    service.query(u, v)
                scraper.start()
                with frozen_workers(service, 0, 1):
                    futures = [service.submit_many(mine),
                               service.submit_many(theirs)]
                    assert service.stats()["inflight_batches"] == 2
                    key = tuple(sorted(mine[0]))
                    (victim,) = [
                        slot for slot, batch
                        in service._batcher._inflight.items()
                        if key in batch.entries]
                    scraped = len(scrapes)
                    service._pool._processes[victim].kill()
                    for (u, v), future in zip(mine, futures[0]):
                        assert future.result(timeout=60).value \
                            == distance_oracle(served_graph, u, v)
                    assert not any(f.done() for f in futures[1])
                    _await(lambda: len(scrapes) > scraped + 2)
                for (u, v), future in zip(theirs, futures[1]):
                    assert future.result(timeout=60).value \
                        == distance_oracle(served_graph, u, v)
            finally:
                stop.set()
                scraper.join(timeout=30)
                server.shutdown()
                server.server_close()
            stats = service.stats()
        assert not scraper.is_alive()
        assert errors == []
        assert set(scrapes) == {200}
        assert stats["worker_deaths"] == 1
        assert stats["alive_workers"] == 2

    def test_a_worker_never_holds_two_batches(self, served_graph):
        """The invariant that lets the sender use a bare pipe under the
        batcher's lock: through a saturating burst of `max_batch`-sized
        messages, batches in flight never outnumber the workers."""
        n = served_graph.num_vertices
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        depths, stop = [], threading.Event()
        with self._service(served_graph, 2, max_batch=4096,
                           max_pending=len(pairs)) as service:

            def watch():
                while not stop.is_set():
                    health = service.health()
                    depths.append((health["inflight_batches"],
                                   health["alive_workers"]))

            watcher = threading.Thread(target=watch, daemon=True)
            watcher.start()
            try:
                futures = [future for start in range(0, len(pairs), 2500)
                           for future in service.submit_many(
                               pairs[start:start + 2500])]
                answers = [future.result(timeout=120).value
                           for future in futures]
            finally:
                stop.set()
                watcher.join(timeout=30)
            stats = service.stats()
        assert not watcher.is_alive()
        sample = range(0, len(pairs), 97)
        assert [answers[k] for k in sample] == [
            distance_oracle(served_graph, *pairs[k]) for k in sample]
        assert stats["batches"] >= len(pairs) // 4096
        assert max(depth for depth, _ in depths) == 2
        assert all(depth <= alive for depth, alive in depths)

    def test_the_delay_knob_is_gone(self, served_graph):
        """Nothing to tune: the option is unknown to the service, the
        batcher and the command line alike."""
        from repro.cli import main

        index = build_index(served_graph, "ppl")
        with pytest.raises(TypeError, match=_DELAY_KWARG):
            QueryService(index, num_workers=1, **{_DELAY_KWARG: 0.002})
        with pytest.raises(TypeError, match=_DELAY_KWARG):
            Batcher(None, None, **{_DELAY_KWARG: 0.002})
        with pytest.raises(SystemExit) as rejected:
            main(["serve", "--dataset", "douban", "--smoke", "10",
                  _DELAY_FLAG, "2"])
        assert rejected.value.code == 2


# ----------------------------------------------------------------------
# The front result cache: a hot key of the current epoch never leaves
# the batcher
# ----------------------------------------------------------------------

_RESOURCE_GAUGES = ("serving_worker_resident_bytes",
                    "serving_worker_peak_resident_bytes",
                    "serving_worker_open_fds")


@pytest.mark.timeout(120)
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="worker resources are read from /proc")
class TestWorkerResources:
    """The parent reads each live worker's ``/proc`` entries when
    ``stats()`` or ``/metrics`` asks; no worker reports its own."""

    def _service(self, graph):
        return QueryService(build_index(graph, "ppl"), num_workers=2,
                            options=QueryOptions(mode="distance"))

    def test_every_live_worker_reports_before_its_first_batch(
            self, served_graph):
        with self._service(served_graph) as service:
            workers = service.stats()["resources"]["workers"]
            assert service.stats()["batches"] == 0
            assert sorted(workers) == [0, 1]
            for slot, snapshot in workers.items():
                assert snapshot["pid"] == service._pool._processes[slot].pid
                assert snapshot["rss_bytes"] > 0
                assert snapshot["peak_rss_bytes"] >= snapshot["rss_bytes"]
                assert snapshot["open_fds"] > 0

    def test_respawned_worker_reports_its_new_pid(self, served_graph):
        with self._service(served_graph) as service:
            old = service.stats()["resources"]["workers"][0]["pid"]
            os.kill(old, signal.SIGKILL)
            _await_deaths(service, 1)
            _await(lambda: service.stats()["alive_workers"] == 2)
            workers = service.stats()["resources"]["workers"]
            assert sorted(workers) == [0, 1]
            assert workers[0]["pid"] != old
            assert workers[0]["pid"] == service._pool._processes[0].pid
            assert workers[0]["rss_bytes"] > 0
            assert service.query(0, 1).value \
                == distance_oracle(served_graph, 0, 1)

    def test_worker_gone_from_proc_is_left_out(self, served_graph,
                                               monkeypatch):
        """A worker that exited before any reaper saw it has no
        ``/proc`` entry to read, and reports nothing rather than a
        bare pid."""
        gone = subprocess.Popen([sys.executable, "-c", "pass"])
        gone.wait()
        with self._service(served_graph) as service:
            live = service._pool.worker_pids()
            monkeypatch.setattr(service._pool, "worker_pids",
                                lambda: {**live, 2: gone.pid})
            workers = service.stats()["resources"]["workers"]
        assert sorted(workers) == [0, 1]

    def test_metrics_carry_one_gauge_per_worker(self, served_graph):
        with self._service(served_graph) as service:
            lines = service.metrics_text().splitlines()
        for name in _RESOURCE_GAUGES:
            assert f"# TYPE {name} gauge" in lines
            for slot in (0, 1):
                (sample,) = [line for line in lines if line.startswith(
                    f'{name}{{worker="{slot}"}} ')]
                assert float(sample.rpartition(" ")[2]) > 0


@pytest.mark.timeout(120)
class TestFrontCache:
    def _service(self, index, cache_size=8, **kwargs):
        return QueryService(index, num_workers=1,
                            options=QueryOptions(mode="distance",
                                                 cache_size=cache_size),
                            **kwargs)

    @pytest.fixture(scope="class")
    def service(self, served_graph):
        with self._service(build_index(served_graph, "ppl")) as service:
            yield service

    @staticmethod
    def _hits_series(service):
        """``serving_cache_hits_total`` as ``/metrics`` renders it."""
        (line,) = [line for line in service.metrics_text().splitlines()
                   if line.startswith("serving_cache_hits_total ")]
        return float(line.split()[1])

    def test_repeated_key_is_answered_without_a_batch(self, service,
                                                      served_graph):
        first = service.query(3, 77)
        before = service.stats()
        series = self._hits_series(service)
        again = service.submit(3, 77)
        assert again.done()  # resolved inside the admission
        assert again.result() == first \
            == (distance_oracle(served_graph, 3, 77), 0)
        after = service.stats()
        assert after["batches"] == before["batches"]
        assert after["cache_hits"] == before["cache_hits"] + 1
        assert after["answered"] == before["answered"] + 1
        assert after["submitted"] == before["submitted"] + 1
        assert after["pending"] == 0
        assert after["worker_cache_hits"] == 0
        assert self._hits_series(service) == series + 1

    def test_reversed_distance_hits_but_reversed_spg_does_not(
            self, service, served_graph):
        service.query(5, 91)
        before = service.stats()
        assert service.query(91, 5).value \
            == distance_oracle(served_graph, 5, 91)
        hit = service.stats()
        assert hit["cache_hits"] == before["cache_hits"] + 1
        assert hit["batches"] == before["batches"]
        assert service.query(5, 91, mode="spg").value \
            == spg_oracle(served_graph, 5, 91)
        reversed_spg = service.query(91, 5, mode="spg").value
        assert (reversed_spg.source, reversed_spg.target) == (91, 5)
        assert reversed_spg == spg_oracle(served_graph, 91, 5)
        after = service.stats()
        assert after["cache_hits"] == hit["cache_hits"]
        assert after["batches"] == hit["batches"] + 2

    def test_lru_holds_at_most_cache_size_answers(self, service,
                                                  served_graph):
        pairs = sorted({tuple(sorted(pair)) for pair in sample_pairs(
            served_graph, 60, seed=121)})[:30]
        for u, v in pairs:
            service.query(u, v)
            assert len(service._batcher._cache) <= 8
        assert len(service._batcher._cache) == 8
        before = service.stats()
        service.query(*pairs[-1])  # the newest answer stays
        service.query(*pairs[0])  # the oldest went
        after = service.stats()
        assert after["cache_hits"] == before["cache_hits"] + 1
        assert after["batches"] == before["batches"] + 1

    def test_burst_of_hits_is_answered_while_the_queue_is_full(
            self, served_graph):
        pairs = sorted({tuple(sorted(pair)) for pair in sample_pairs(
            served_graph, 20, seed=123)})[:5]
        with self._service(build_index(served_graph, "ppl"),
                           max_pending=4) as service:
            hot = service.query(*pairs[0])
            with frozen_workers(service, 0):
                held = service.submit_many(pairs[1:])
                assert service.stats()["pending"] == 4
                with pytest.raises(ServiceOverloadedError):
                    service.submit(0, 1)
                hits = service.submit_many([pairs[0]] * 10)
                assert all(future.done() for future in hits)
                assert [future.result() for future in hits] == [hot] * 10
                assert service.stats()["pending"] == 4
            for (u, v), future in zip(pairs[1:], held):
                assert future.result(timeout=30).value \
                    == distance_oracle(served_graph, u, v)

    def test_cache_size_zero_caches_nothing(self, served_graph):
        with self._service(build_index(served_graph, "ppl"),
                           cache_size=0) as service:
            service.query(3, 77)
            before = service.stats()
            assert service.query(3, 77).value \
                == distance_oracle(served_graph, 3, 77)
            after = service.stats()
            assert after["batches"] == before["batches"] + 1
            assert after["cache_hits"] == 0
            assert len(service._batcher._cache) == 0

    def test_publish_clears_the_cache(self):
        """After an update the pair is answered at the new epoch with
        the new graph's distance, never the cached epoch-0 answer."""
        graph = _small_graph(seed=125, n=120)
        u, v = next((u, v) for u, v in sample_pairs(graph, 50, seed=127)
                    if distance_oracle(graph, u, v) > 2)
        with self._service(build_index(graph, "dynamic")) as service:
            assert service.query(u, v) == (distance_oracle(graph, u, v), 0)
            assert service.query(u, v).epoch == 0  # a hit
            assert service.stats()["cache_hits"] == 1
            assert service.apply_updates([("insert", u, v)])["epoch"] == 1
            evolved = service.source.graph
            assert service.query(u, v) == (1, 1)
            assert distance_oracle(evolved, u, v) == 1
            assert service.query(v, u) == (1, 1)  # a hit at epoch 1
            assert service.stats()["cache_hits"] == 2

    def test_audit_tap_sees_hits(self, served_graph):
        with self._service(build_index(served_graph, "ppl"),
                           audit_rate=1.0) as service:
            seen = []
            offer = service.auditor.offer
            service._batcher.set_answer_hook(
                lambda *answer: (seen.append(answer), offer(*answer)))
            before = service.audit_stats()
            first = service.query(3, 77)
            service.query(77, 3)
            assert service.stats()["cache_hits"] == 1
            assert seen == [(3, 77, "distance", first.value, 0)] * 2
            assert service.auditor.flush()
            audit = service.audit_stats()
            assert audit["checked"] == before["checked"] + 2
            assert audit["mismatches"] == before["mismatches"]


# ----------------------------------------------------------------------
# A batch whose worker answers with an error: one retry, then failure
# ----------------------------------------------------------------------

@pytest.mark.timeout(120)
class TestBatchRetry:
    @pytest.fixture
    def service(self, served_graph):
        with QueryService(build_index(served_graph, "ppl"),
                          num_workers=1,
                          options=QueryOptions(mode="distance",
                                               cache_size=0)) as service:
            service.query(0, 1)
            yield service

    def _burst(self, graph):
        pairs = sorted({tuple(sorted(pair)) for pair in
                        sample_pairs(graph, 40, seed=211)})[:20]
        return pairs + [pairs[3][::-1]]  # one deduplicated future

    def test_one_error_is_retried_and_answered(self, service,
                                               served_graph):
        pairs = self._burst(served_graph)
        before = service.stats()
        with retired_handles(service, 1):
            futures = service.submit_many(pairs)
            values = [f.result(timeout=30).value for f in futures]
        assert values == [distance_oracle(served_graph, u, v)
                          for u, v in pairs]
        after = service.stats()
        assert after["retries"] == before["retries"] + 1
        assert after["batches"] == before["batches"] + 1
        assert after["failed"] == before["failed"]
        assert after["answered"] == before["answered"] + len(pairs)
        assert after["pending"] == 0
        assert after["inflight_batches"] == 0

    def test_two_errors_fail_every_future(self, service, served_graph):
        pairs = self._burst(served_graph)
        service.set_trace_rate(1.0)
        before = service.stats()
        with retired_handles(service, 2):
            futures = service.submit_many(pairs)
            for future in futures:
                with pytest.raises(ServingError,
                                   match="batch failed in worker"):
                    future.result(timeout=30)
        after = service.stats()
        assert after["retries"] == before["retries"] + 1
        assert after["failed"] == before["failed"] + len(pairs)
        assert after["answered"] == before["answered"]
        assert after["pending"] == 0
        assert after["inflight_batches"] == 0
        (trace,) = service.traces(errors_only=True)
        (root,) = [r for r in trace.spans if r["parent"] is None]
        assert "retired" in root["attrs"]["error"]
        # The worker is none the worse: the next batch is answered.
        u, v = pairs[0]
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
                                               cache_size=64)) as service:
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
                               num_workers=1)
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

    def test_non_integer_ids_are_refused_not_truncated(self, endpoint):
        """``{"u": 1.9, "v": 3}`` was ``200 {"u": 1, ...}``: ``int()``
        truncated the float (and parsed a string) on the way in."""
        base, _graph = endpoint
        for bad in (1.9, 2.0, "3", None, [1]):
            for payload in ({"u": bad, "v": 3}, {"u": 3, "v": bad},
                            {"pairs": [[0, 1], [bad, 3]]}):
                status, reply = self._post(base, "/query", payload)
                assert status == 400, (payload, reply)
                assert "bad request" in reply["error"]
            status, reply = self._post(
                base, "/update", {"ops": [["insert", 1, bad]]})
            assert status == 400, (bad, reply)
        status, reply = self._post(base, "/query", {"u": True, "v": 3})
        assert status == 200
        assert reply["results"][0] == self._post(
            base, "/query", {"u": 1, "v": 3})[1]["results"][0]

    @staticmethod
    def _connection(base):
        import http.client

        host, port = base[len("http://"):].split(":")
        return http.client.HTTPConnection(host, int(port), timeout=30)

    @staticmethod
    def _exchange(connection, method, path, payload=None):
        """One request on a kept-alive connection: ``(status, body)``,
        with the body's length checked against ``Content-Length``."""
        body = None if payload is None else json.dumps(payload)
        connection.request(method, path, body=body)
        reply = connection.getresponse()
        raw = reply.read()
        assert len(raw) == int(reply.getheader("Content-Length"))
        assert reply.getheader("Connection") is None
        return reply.status, raw

    def test_keep_alive_replies_do_not_wait_for_delayed_ack(self,
                                                            endpoint):
        """Headers and body written as two segments with Nagle on made
        every reply wait for the client's delayed ACK: ~44 ms each, so
        these 50 requests took ~2.2 s on one connection."""
        base, graph = endpoint
        pairs = sample_pairs(graph, 40, seed=79)
        _, burst = self._post(base, "/query", {"pairs": pairs})
        connection = self._connection(base)
        try:
            self._exchange(connection, "GET", "/healthz")
            sock = connection.sock
            start = time.perf_counter()
            for k, (u, v) in enumerate(pairs):
                status, raw = self._exchange(connection, "POST", "/query",
                                             {"u": u, "v": v})
                assert status == 200
                assert json.loads(raw)["results"] == [burst["results"][k]]
                if k % 4 == 0:
                    status, _ = self._exchange(connection, "GET",
                                               "/healthz")
                    assert status == 200
            elapsed = time.perf_counter() - start
            assert connection.sock is sock
        finally:
            connection.close()
        assert elapsed < 1.0, f"50 keep-alive requests took {elapsed:.2f} s"

    def test_reply_larger_than_write_buffer_arrives_whole(self, endpoint):
        base, _graph = endpoint
        pairs = [[u % 150, (7 * u + 3) % 150] for u in range(2000)]
        connection = self._connection(base)
        try:
            status, raw = self._exchange(connection, "POST", "/query",
                                         {"pairs": pairs})
            assert status == 200 and len(raw) > 64 * 1024
            results = json.loads(raw)["results"]
            assert [[r["u"], r["v"]] for r in results] == pairs
            first = self._post(base, "/query", {"pairs": pairs[:50]})[1]
            assert results[:50] == first["results"]
            status, raw = self._exchange(connection, "GET", "/metrics")
            assert status == 200 and len(raw) > 8192
            assert raw.decode("utf-8").endswith("\n")
        finally:
            connection.close()

    def test_unsupported_method_is_a_prompt_501_then_close(self, endpoint):
        """``send_error`` replies are flushed too: the whole 501 arrives
        and the server closes the connection, without waiting on the
        client."""
        import socket

        base, _graph = endpoint
        host, port = base[len("http://"):].split(":")
        body = b'{"u": 0, "v": 1}'
        start = time.perf_counter()
        with socket.create_connection((host, int(port)),
                                      timeout=10) as sock:
            sock.sendall(b"PUT /query HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: %d\r\n\r\n%s"
                         % (len(body), body))
            received = b""
            while chunk := sock.recv(65536):
                received += chunk
        elapsed = time.perf_counter() - start
        head, _, page = received.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0].startswith("HTTP/1.1 501 ")
        headers = dict(line.split(": ", 1) for line in lines[1:])
        assert headers["Connection"] == "close"
        assert int(headers["Content-Length"]) == len(page)
        assert b"501" in page
        assert elapsed < 1.0

    def test_get_and_post_alternate_on_one_connection(self, endpoint):
        base, _graph = endpoint
        connection = self._connection(base)
        try:
            self._exchange(connection, "GET", "/healthz")
            sock = connection.sock
            for u in range(10):
                status, raw = self._exchange(connection, "GET", "/stats")
                assert status == 200 and "submitted" in json.loads(raw)
                status, raw = self._exchange(connection, "POST", "/query",
                                             {"u": u, "v": 140})
                assert status == 200
                assert json.loads(raw)["results"][0]["u"] == u
                status, raw = self._exchange(connection, "GET", "/metrics")
                assert status == 200 and b"# TYPE" in raw
                status, raw = self._exchange(connection, "POST", "/query",
                                             {"u": u})
                assert status == 400 and "error" in json.loads(raw)
            assert connection.sock is sock
        finally:
            connection.close()

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
                          max_pending=4) as service:
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


    @pytest.mark.parametrize("case", ["unknown-path", "oversize",
                                      "non-ascii-length"])
    def test_connection_reusable_after_unread_body(self, tight_endpoint,
                                                   case):
        """A reply that leaves the request body unread must end the
        keep-alive connection: otherwise the leftover bytes are parsed
        as the next request line, and the next (valid) request on the
        same client connection is answered 400 with an HTML page.
        ``Content-Length: ²`` passes ``str.isdigit`` but not ``int``."""
        import http.client

        host, port = tight_endpoint[len("http://"):].split(":")
        connection = http.client.HTTPConnection(host, int(port),
                                                timeout=30)
        try:
            if case == "unknown-path":
                connection.request("POST", "/nope", body=b'{"x": 1}')
                expected = 404
            elif case == "non-ascii-length":
                connection.putrequest("POST", "/query")
                connection.putheader("Content-Length", "²")
                connection.endheaders()
                connection.send(b'{"u": 0, "v": 1}')
                expected = 400
            else:
                # Declare more than the limit, send only a little of
                # it: the server must answer from the headers alone.
                connection.putrequest("POST", "/query")
                connection.putheader("Content-Length",
                                     str(64 * 1024 * 1024))
                connection.endheaders()
                connection.send(b"x" * 1024)
                expected = 400
            reply = connection.getresponse()
            assert reply.status == expected
            assert reply.getheader("Connection") == "close"
            assert "error" in json.loads(reply.read())
            connection.request("POST", "/query",
                               body=json.dumps({"u": 0, "v": 1}))
            reply = connection.getresponse()
            assert reply.status == 200, reply.read()
            assert json.loads(reply.read())["results"][0]["value"] \
                == distance_oracle(_small_graph(seed=81, n=80), 0, 1)
        finally:
            connection.close()

    def test_answered_requests_keep_the_connection(self,
                                                   tight_endpoint):
        """The close is for unread bodies only: a 400 whose body was
        read, and a 200, leave the socket open for the next request."""
        import http.client

        host, port = tight_endpoint[len("http://"):].split(":")
        connection = http.client.HTTPConnection(host, int(port),
                                                timeout=30)
        try:
            for body, expected in ((b"{not json", 400),
                                   (b'{"u": 0, "v": 1}', 200),
                                   (b'{"u": 0, "v": 2}', 200)):
                connection.request("POST", "/query", body=body)
                reply = connection.getresponse()
                reply.read()
                assert reply.status == expected
                assert reply.getheader("Connection") is None
                assert connection.sock is not None
        finally:
            connection.close()


@pytest.mark.timeout(180)
class TestServeSignalHandling:
    """Satellite: SIGINT/SIGTERM leave no orphaned worker processes,
    and a SIGKILL leaves nothing the next server does not clean up."""

    @staticmethod
    def _listening_server(tmp_path):
        """``repro serve`` over a small index with two workers, as a
        child process that has printed its readiness line."""
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
                    return process
            pytest.fail("server never reported listening")
        except BaseException:
            process.kill()
            process.communicate()
            raise

    @pytest.mark.parametrize("signame", ["SIGINT", "SIGTERM"])
    def test_signal_shuts_down_cleanly(self, signame, tmp_path):
        import signal

        process = self._listening_server(tmp_path)
        try:
            process.send_signal(getattr(signal, signame))
            output, _ = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, output
        assert "shutting down" in output
        assert "draining batcher and stopping workers" in output

    def test_sigkill_takes_the_workers_and_the_next_server_sweeps(
            self, tmp_path):
        """A SIGKILLed server can run no cleanup. Its workers exit on
        their own — the parent's end of their pipes closed with it, and
        no sibling holds a copy — and the snapshot directory it leaves
        is removed by the next manager to create one beside it."""
        import glob
        import shutil
        import signal

        def running(pid):
            try:
                with open(f"/proc/{pid}/stat") as handle:
                    return handle.read().rpartition(")")[2].split()[0] \
                        != "Z"
            except OSError:
                return False

        process = self._listening_server(tmp_path)
        roots = ("/dev/shm", tempfile.gettempdir())
        pattern = f"repro-serving-{process.pid}-*"
        workers = []
        try:
            workers += [
                int(path.split("/")[2])
                for path in glob.glob("/proc/[0-9]*/stat")
                if open(path).read().rpartition(")")[2].split()[1]
                == str(process.pid)]
            assert len(workers) == 2
            # Not `communicate`: a surviving worker holds the stdout
            # pipe open, and the read would never end.
            process.kill()
            process.wait(timeout=60)
            deadline = time.monotonic() + 5.0
            while any(map(running, workers)) \
                    and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(running, workers)), \
                "workers outlived their SIGKILLed server"
            left = [path for root in roots
                    for path in glob.glob(os.path.join(root, pattern))]
            assert len(left) == 1 and os.listdir(left[0])
            with SnapshotManager(_build("bibfs", _small_graph(n=10)),
                                 directory=None) as manager:
                manager.publish()
                assert os.path.dirname(os.path.dirname(
                    manager.current.handle.ref)) \
                    == os.path.dirname(left[0])
            assert not os.path.exists(left[0])
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=60)
            process.stdout.close()
            for pid in workers:
                if running(pid):
                    os.kill(pid, signal.SIGKILL)
            for root in roots:
                for path in glob.glob(os.path.join(root, pattern)):
                    shutil.rmtree(path, ignore_errors=True)

    def test_sweep_takes_dead_owners_only(self, tmp_path, monkeypatch):
        """Beside its own directory a manager removes those named for
        a process that no longer exists, and no others."""
        import subprocess
        import sys

        from repro.serving import snapshot

        monkeypatch.setattr(snapshot, "_SHM_ROOT", str(tmp_path))
        gone = subprocess.Popen([sys.executable, "-c", "pass"])
        gone.wait(timeout=60)
        alive = subprocess.Popen(
            [sys.executable, "-c", "import sys; sys.stdin.read()"],
            stdin=subprocess.PIPE)
        try:
            planted = {}
            for name, owner in (("dead", gone.pid), ("live", alive.pid)):
                planted[name] = tmp_path / f"repro-serving-{owner}-abc123"
                planted[name].mkdir()
                (planted[name] / "snapshot-000000.store").write_bytes(
                    b"x")
            unowned = tmp_path / "repro-serving-abc123"
            unowned.mkdir()
            with SnapshotManager(_build("bibfs", _small_graph(n=10))) \
                    as manager:
                manager.publish()
                assert str(tmp_path) in manager.current.handle.ref
                assert not planted["dead"].exists()
                assert planted["live"].is_dir()
                assert unowned.is_dir()
        finally:
            alive.communicate(b"", timeout=60)
