"""Observability tests: registry, tracing, slowlog, serving wiring.

The exactness tests install a fresh :class:`MetricsRegistry` as the
process default so counts are attributable to the test's own work;
the serving tests additionally exercise the fork transport (worker
deltas merged by the batcher) and the Prometheus text endpoint.
"""

from __future__ import annotations

import json
import logging
import re
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import Graph, QueryOptions, build_index
from repro.engine.session import QuerySession
from repro.graph import barabasi_albert
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    TraceSampler,
    format_span_tree,
    log_slow_query,
    set_registry,
    span,
    stage_totals,
    start_trace,
)
from repro.obs.registry import _page_cache_collector, _page_caches
from repro.serving import QueryService, make_server
from repro.store.cache import PageCache

from _corpus import (
    frozen_workers,
    recorded_responses,
    sample_vertex_pairs,
)


@pytest.fixture()
def fresh_registry():
    """A clean process-default registry, restored on exit."""
    registry = MetricsRegistry()
    registry.register_collector(_page_cache_collector)
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


def _small_graph(seed=5, n=120) -> Graph:
    return barabasi_albert(n, 2, seed=seed)


# ----------------------------------------------------------------------
# Prometheus text-format validation (stdlib-only parser)
# ----------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"          # metric name
    r"(?:\{([^}]*)\})?"                       # optional label set
    r" (\+Inf|-?[0-9.eE+-]+)$")               # value
_LABEL_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"$')


def parse_prometheus(text: str):
    """Validate exposition text; returns ``{name{labels}: value}``.

    Checks the structural invariants a real scraper relies on: every
    non-comment line is a well-formed sample, every sample's family
    has a ``# TYPE``, histogram bucket counts are monotone in ``le``
    and the ``+Inf`` bucket equals ``_count``.
    """
    samples = {}
    typed = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            typed[name] = kind
            continue
        if line.startswith("#"):
            assert line.startswith("# HELP "), line
            continue
        match = _SAMPLE_RE.match(line)
        assert match, f"malformed sample line: {line!r}"
        name, labels, value = match.groups()
        for pair in (labels.split(",") if labels else ()):
            assert _LABEL_RE.match(pair), \
                f"malformed label {pair!r} in {line!r}"
        family = re.sub(r"_(bucket|sum|count)$", "", name)
        assert name in typed or family in typed, \
            f"sample {name!r} has no # TYPE"
        key = f"{name}{{{labels}}}" if labels else name
        assert key not in samples, f"duplicate sample {key!r}"
        samples[key] = float(value) if value != "+Inf" else value
    # Histogram invariants: cumulative buckets, +Inf == _count.
    for key, value in samples.items():
        if "_bucket{" not in key or 'le="+Inf"' not in key:
            continue
        base = key.split("_bucket{", 1)[0]
        labels = key.split("_bucket{", 1)[1].rstrip("}")
        rest = ",".join(p for p in labels.split(",")
                        if not p.startswith("le="))
        count_key = f"{base}_count{{{rest}}}" if rest \
            else f"{base}_count"
        assert samples[count_key] == value
    return samples


# ----------------------------------------------------------------------
# Registry unit behavior
# ----------------------------------------------------------------------

class TestRegistry:
    def test_counter_gauge_histogram_roundtrip(self, fresh_registry):
        registry = fresh_registry
        hits = registry.counter("t_hits_total", help="Test counter.")
        hits.inc()
        hits.inc(3)
        assert hits.value == 4
        depth = registry.gauge("t_depth")
        depth.set(7)
        depth.inc(-2)
        assert depth.value == 5
        lat = registry.histogram("t_seconds", buckets=(0.1, 1.0))
        lat.observe(0.05)
        lat.observe_many([0.5, 0.5, 5.0])
        assert lat.count == 4
        assert lat.sum == pytest.approx(6.05)
        assert 0.1 <= lat.quantile(0.5) <= 1.0

    def test_scalar_observe_places_like_the_vector_form(self):
        """`observe` bisects the bucket tuple, `observe_many` calls
        `np.searchsorted`; a value lands in the same bucket either way —
        on a bound, just past one, between two, and at infinity."""
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        @given(bounds=st.lists(
            st.floats(min_value=1e-9, max_value=1e6, allow_nan=False),
            min_size=1, max_size=12, unique=True).map(sorted),
            interior=st.lists(
                st.floats(min_value=0.0, max_value=2e6, allow_nan=False),
                max_size=12))
        @settings(max_examples=60, deadline=None)
        def check(bounds, interior):
            values = [*bounds,
                      *(np.nextafter(b, np.inf) for b in bounds),
                      *interior, 0.0, float("inf")]
            one_by_one = MetricsRegistry().histogram("t", buckets=bounds)
            at_once = MetricsRegistry().histogram("t", buckets=bounds)
            for value in values:
                one_by_one.observe(value)
            at_once.observe_many(values)
            assert one_by_one.bucket_counts()[:2] \
                == at_once.bucket_counts()[:2]

        check()

    def test_same_name_same_labels_is_same_instrument(
            self, fresh_registry):
        a = fresh_registry.counter("t_total", mode="spg")
        b = fresh_registry.counter("t_total", mode="spg")
        c = fresh_registry.counter("t_total", mode="distance")
        assert a is b and a is not c

    def test_disabled_registry_hands_out_noops(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("t_total")
        counter.inc(10)
        assert counter.value == 0
        assert registry.counter("other") is counter
        registry.histogram("t_seconds").observe_many(np.ones(64))
        assert registry.render_prometheus().strip() == ""

    def test_render_is_parseable(self, fresh_registry):
        fresh_registry.counter("t_total", help="A counter.",
                               mode="spg").inc(2)
        fresh_registry.gauge("t_now").set(1.5)
        hist = fresh_registry.histogram(
            "t_seconds", buckets=DEFAULT_LATENCY_BUCKETS)
        hist.observe_many([1e-4, 2e-3, 0.5])
        samples = parse_prometheus(fresh_registry.render_prometheus())
        assert samples['t_total{mode="spg"}'] == 2
        assert samples["t_now"] == 1.5
        assert samples["t_seconds_count"] == 3

    def test_flush_merge_exactness(self, fresh_registry):
        source = MetricsRegistry()
        source.counter("t_total").inc(5)
        source.histogram("t_seconds").observe_many([0.1, 0.2])
        first = source.flush_deltas()
        # The delta payload must survive pickling (queue transport).
        import pickle

        first = pickle.loads(pickle.dumps(first))
        fresh_registry.merge(first)
        # Nothing new: the second flush is empty, merging it is a
        # no-op — this is what prevents double counting.
        assert source.flush_deltas() == {}
        source.counter("t_total").inc(2)
        fresh_registry.merge(source.flush_deltas())
        assert fresh_registry.counter("t_total").value == 7
        assert fresh_registry.histogram("t_seconds").count == 2

    def test_collector_runs_at_scrape_time(self, fresh_registry):
        calls = []

        def collector():
            calls.append(1)
            return [("gauge", "t_live", {}, 3.0)]

        fresh_registry.register_collector(collector)
        assert not calls
        samples = parse_prometheus(fresh_registry.render_prometheus())
        assert samples["t_live"] == 3 and calls


class TestTraceSampler:
    def test_deterministic_accumulator(self):
        sampler = TraceSampler(0.25)
        fired = [sampler.should_sample() for _ in range(8)]
        assert fired == [False, False, False, True] * 2
        assert TraceSampler(1.0).should_sample()
        assert not TraceSampler(0.0).should_sample()
        with pytest.raises(ValueError):
            TraceSampler(1.5)


class TestTracing:
    def test_span_is_noop_outside_trace(self, fresh_registry):
        with span("t.stage") as open_span:
            open_span.add("page_faults")
        assert not fresh_registry.snapshot()["histograms"]

    def test_nested_spans_feed_stage_histograms(self, fresh_registry):
        with start_trace("t", u=1) as root:
            with span("t.outer"):
                with span("t.inner", d=3):
                    pass
        assert [c.name for c in root.children] == ["t.outer"]
        assert root.children[0].children[0].attrs == {"d": 3}
        totals = stage_totals(root)
        assert set(totals) == {"t.outer", "t.inner"}
        histograms = fresh_registry.snapshot()["histograms"]
        assert histograms["stage_seconds{stage=t.outer}"]["count"] == 1
        # The root is the envelope, not a stage.
        assert "stage_seconds{stage=t}" not in histograms
        rendered = format_span_tree(root)
        assert "t.inner" in rendered and "% covered" in rendered


# ----------------------------------------------------------------------
# Query-path instrumentation
# ----------------------------------------------------------------------

class TestSessionInstrumentation:
    def test_cache_counters_match_session(self, fresh_registry):
        index = build_index(_small_graph(seed=11, n=80), "ppl")
        session = QuerySession(index, QueryOptions(
            mode="distance", cache_size=64))
        pairs = sample_vertex_pairs(index.graph, 12, seed=3)
        for u, v in pairs:
            session.query(u, v)
        for u, v in pairs:
            session.query(u, v)
        counters = fresh_registry.snapshot()["counters"]
        assert counters["session_cache_hits_total"] == \
            session.cache_hits_total
        assert counters["session_queries_total{mode=distance}"] == 24

    def test_cross_shard_trace_carries_every_stage(
            self, fresh_registry):
        graph = _small_graph(seed=13, n=160)
        index = build_index(graph, "sharded", num_shards=3,
                            inner="ppl")
        shard = index.partition.assignment
        u = 0
        v = int(np.nonzero(shard != shard[u])[0][0])
        session = QuerySession(index, QueryOptions(
            mode="distance", cache_size=8, trace_sample=1.0))
        session.query(u, v)
        root = session.last_trace
        assert root is not None and root.attrs["mode"] == "distance"
        totals = stage_totals(root)
        # Dispatch, cache lookup, and the cross-shard assembly hops.
        assert {"session.cache", "session.scalar", "shard.boundary",
                "shard.relay"} <= set(totals)
        # A cached re-query is answered inside session.cache only.
        session.query(u, v)
        assert "shard.relay" not in stage_totals(session.last_trace)

    def test_bulk_kernel_trace(self, fresh_registry):
        index = build_index(_small_graph(seed=17, n=100), "ppl")
        session = QuerySession(index, QueryOptions(
            mode="distance", cache_size=32, trace_sample=1.0))
        pairs = sample_vertex_pairs(index.graph, 16, seed=5)
        session.query_many(pairs)
        totals = stage_totals(session.last_trace)
        assert {"session.cache", "session.kernel"} <= set(totals)

    def test_page_faults_attach_to_open_span(self, tmp_path,
                                             fresh_registry):
        from repro.engine import load_index
        from repro.store import pack_index_store

        index = build_index(_small_graph(seed=19, n=90), "ppl")
        saved = tmp_path / "t.idx"
        packed = tmp_path / "t.store"
        index.save(saved)
        pack_index_store(saved, packed, head_width=4, hot_rows=4)
        store_index = load_index(packed)
        session = QuerySession(store_index, QueryOptions(
            mode="distance", trace_sample=1.0))
        pairs = sample_vertex_pairs(index.graph, 8, seed=7)
        session.query_many(pairs)
        root = session.last_trace

        def fault_count(span_obj):
            return span_obj.counts.get("page_faults", 0) + sum(
                fault_count(child) for child in span_obj.children)

        assert fault_count(root) == store_index.store_stats()["misses"]


class TestPageCacheRegistryAgreement:
    def test_collector_sums_live_caches(self, fresh_registry):
        import gc

        gc.collect()  # drop caches leaked by earlier tests
        cache = PageCache(budget_bytes=1 << 16, block_bytes=512)
        block = np.zeros(128, dtype=np.uint8)
        cache.get(("a", 0), lambda: block)   # miss
        cache.get(("a", 0), lambda: block)   # hit
        cache.pin(("p", 0), lambda: block)
        cache.get(("p", 0), lambda: block)   # pinned hit
        counters = fresh_registry.snapshot()["counters"]
        expected = {
            "store_page_cache_hits_total":
                sum(c.hits for c in list(_page_caches)),
            "store_page_cache_misses_total":
                sum(c.misses for c in list(_page_caches)),
            "store_page_cache_pinned_hits_total":
                sum(c.pinned_hits for c in list(_page_caches)),
        }
        for key, value in expected.items():
            assert counters[key] == value
        assert cache.hits == 1 and cache.misses == 1
        assert cache.pinned_hits == 1
        gauges = fresh_registry.snapshot()["gauges"]
        assert gauges["store_page_cache_resident_bytes"] >= \
            cache.resident_bytes


class TestSlowlog:
    def test_slow_query_logged_with_stages(self, caplog,
                                           fresh_registry):
        index = build_index(_small_graph(seed=23, n=60), "ppl")
        session = QuerySession(index, QueryOptions(
            mode="distance", trace_sample=1.0, slow_query_ms=0.0))
        with caplog.at_level(logging.WARNING, logger="repro.slowlog"):
            session.query(1, 17)
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        assert message.startswith("slow_query trace=")
        assert "u=1 v=17 mode=distance" in message
        assert "stages=" in message and "session.scalar" in message

    def test_fast_queries_not_logged(self, caplog, fresh_registry):
        index = build_index(_small_graph(seed=23, n=60), "ppl")
        session = QuerySession(index, QueryOptions(
            mode="distance", slow_query_ms=10_000.0))
        with caplog.at_level(logging.WARNING, logger="repro.slowlog"):
            session.query(1, 17)
        assert not caplog.records

    def test_untraced_slow_query_logs_envelope(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.slowlog"):
            log_slow_query(3, 4, "spg", 12.5, 5.0, root=None)
        message = caplog.records[0].getMessage()
        assert "trace=-" in message and "stages=-" in message


# ----------------------------------------------------------------------
# Serving: fork transport, /metrics endpoint, stats aliases
# ----------------------------------------------------------------------

@pytest.mark.timeout(120)
class TestServingObservability:
    def test_worker_deltas_merge_exactly_across_respawns(
            self, fresh_registry):
        index = build_index(_small_graph(seed=29, n=150), "ppl")
        with QueryService(index, num_workers=2,
                          options=QueryOptions(mode="distance",
                                               cache_size=64)) as service:
            first = sample_vertex_pairs(index.graph, 40, seed=1)
            service.query_many(first)
            service._batcher.drain()
            # Kill one worker at idle: no batch is in flight, so no
            # re-dispatch — the only effect is a respawn whose fresh
            # worker must discard its inherited counter baseline.
            service._pool._processes[0].terminate()
            deadline = time.monotonic() + 30
            while service.stats()["worker_deaths"] < 1:
                assert time.monotonic() < deadline, "respawn not seen"
                time.sleep(0.05)
            second = sample_vertex_pairs(index.graph, 30, seed=2)
            service.query_many(second)
            service._batcher.drain()
            # Deltas arrive with responses; drain() guarantees the
            # last response was collected (and merged) already.
            counters = fresh_registry.snapshot()["counters"]
            expected = len(first) + len(second)
            assert counters[
                "session_queries_total{mode=distance}"] == expected
            assert counters["serving_worker_respawns_total"] == \
                service.stats()["worker_deaths"]

    def test_respawn_emits_structured_warning(self, caplog,
                                              fresh_registry):
        index = build_index(_small_graph(seed=31, n=100), "ppl")
        with QueryService(index, num_workers=1,
                          options=QueryOptions(mode="distance")) as service:
            service.query(0, 5)
            service._batcher.drain()
            with caplog.at_level(logging.WARNING,
                                 logger="repro.serving"):
                service._pool._processes[0].terminate()
                deadline = time.monotonic() + 30
                while service.stats()["worker_deaths"] < 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.05)
            messages = [r.getMessage() for r in caplog.records]
            assert any(m.startswith("worker_respawn workers=0")
                       for m in messages)
            # And the service still answers.
            assert service.query(0, 7).value == index.distance(0, 7)

    def test_stats_keys_are_registry_derived(self, fresh_registry):
        index = build_index(_small_graph(seed=37, n=100), "ppl")
        with QueryService(index, num_workers=1,
                          options=QueryOptions(mode="distance")) as service:
            service.query_many(
                sample_vertex_pairs(index.graph, 10, seed=3))
            stats = service.stats()
            counters = fresh_registry.snapshot()["counters"]
            assert stats["submitted"] == 10
            assert counters["serving_submitted_total"] == 10
            assert stats["answered"] == \
                counters["serving_answered_total"]
            # Legacy alias keys all present.
            for key in ("submitted", "answered", "failed",
                        "deduplicated", "rejected", "expired",
                        "batches", "retries", "worker_seconds",
                        "worker_cache_hits", "worker_deaths",
                        "pending", "inflight_batches"):
                assert key in stats


@pytest.mark.timeout(180)
class TestMetricsEndpoint:
    @pytest.fixture(scope="class")
    def endpoint(self):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        graph = _small_graph(seed=41, n=150)
        index = build_index(graph, "dynamic")
        try:
            with QueryService(index, num_workers=2,
                              options=QueryOptions(mode="distance",
                                                   cache_size=64)) as service:
                server = make_server(service)
                server.serve_in_background()
                host, port = server.server_address[:2]
                try:
                    yield f"http://{host}:{port}", service, graph
                finally:
                    server.shutdown()
                    server.server_close()
        finally:
            set_registry(previous)

    def _post(self, base, path, payload):
        request = urllib.request.Request(
            base + path, data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request, timeout=30) as reply:
                return reply.status, json.loads(reply.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_metrics_after_mixed_run(self, endpoint):
        base, service, graph = endpoint
        # Trace every batch so stage series populate through the
        # fork transport.
        assert self._post(base, "/trace", {"rate": 1.0}) == \
            (200, {"rate": 1.0})
        pairs = [[1, 30], [2, 40], [3, 50]]
        status, _ = self._post(base, "/query",
                               {"pairs": pairs, "mode": "distance"})
        assert status == 200
        status, _ = self._post(base, "/query",
                               {"u": 1, "v": 30, "mode": "spg"})
        assert status == 200
        status, _ = self._post(
            base, "/update",
            {"ops": [["insert", 0, max(0, graph.num_vertices - 1)]]})
        assert status == 200
        service._batcher.drain()
        with urllib.request.urlopen(base + "/metrics",
                                    timeout=30) as reply:
            assert reply.status == 200
            assert reply.headers["Content-Type"].startswith(
                "text/plain")
            text = reply.read().decode("utf-8")
        samples = parse_prometheus(text)
        assert samples["serving_submitted_total"] >= 4
        assert samples['session_queries_total{mode="distance"}'] >= 3
        assert samples['session_queries_total{mode="spg"}'] >= 1
        assert samples["dynamic_inserts_total"] >= 1
        assert samples["snapshot_publishes_total"] >= 2
        assert samples["serving_workers"] == 2
        assert samples["serving_epoch"] == service.epoch
        # Sampled batches shipped stage observations back.
        stage_counts = [v for k, v in samples.items()
                        if k.startswith("stage_seconds_count")]
        assert stage_counts and sum(stage_counts) > 0
        # /stats and /metrics agree.
        with urllib.request.urlopen(base + "/stats",
                                    timeout=30) as reply:
            stats = json.loads(reply.read())
        assert stats["submitted"] == samples["serving_submitted_total"]
        assert stats["answered"] == samples["serving_answered_total"]

    def test_trace_knob_round_trip(self, endpoint):
        base, service, _ = endpoint
        assert self._post(base, "/trace", {"rate": 0.5}) == \
            (200, {"rate": 0.5})
        with urllib.request.urlopen(base + "/trace",
                                    timeout=30) as reply:
            assert json.loads(reply.read()) == {"rate": 0.5}
        assert service.trace_rate == 0.5
        assert self._post(base, "/trace", {"rate": 2.0})[0] == 400
        assert self._post(base, "/trace", {"rate": "x"})[0] == 400
        self._post(base, "/trace", {"rate": 0.0})


# ----------------------------------------------------------------------
# CLI commands
# ----------------------------------------------------------------------

class TestCLI:
    @pytest.fixture(scope="class")
    def saved_index(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("obs") / "cli.idx"
        index = build_index(_small_graph(seed=43, n=140), "sharded",
                            num_shards=3, inner="ppl")
        index.save(path)
        return path, index

    def test_stats_command(self, saved_index, capsys, fresh_registry):
        from repro.cli import main

        path, _ = saved_index
        assert main(["stats", "--index", str(path), "--random", "20",
                     "--mode", "distance"]) == 0
        out = capsys.readouterr().out
        assert "session_queries_total{mode=distance}" in out
        assert "session_query_seconds" in out
        assert "20 distance queries" in out

    def test_trace_command(self, saved_index, capsys, fresh_registry):
        from repro.cli import main

        path, index = saved_index
        shard = index.partition.assignment
        u = 0
        v = int(np.nonzero(shard != shard[u])[0][0])
        assert main(["trace", str(u), str(v),
                     "--index", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("trace ")
        assert "shard." in out and "% covered" in out
        match = re.search(r"stage sum ([0-9.]+) ms / end-to-end "
                          r"([0-9.]+) ms", out)
        assert match is not None
        covered, total = float(match.group(1)), float(match.group(2))
        assert covered <= total * 1.001
        assert f"distance({u}, {v}) = " in out

    def test_trace_rejects_bad_vertex(self, saved_index, capsys,
                                      fresh_registry):
        from repro.cli import main

        path, _ = saved_index
        assert main(["trace", "0", "999999",
                     "--index", str(path)]) == 2
        assert "out of range" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Queue-wait accounting (batcher-side slow-query visibility)
# ----------------------------------------------------------------------

@pytest.mark.timeout(120)
class TestQueueWait:
    def test_histogram_and_slowlog_stage(self, caplog, fresh_registry):
        graph = _small_graph(seed=29, n=140)
        index = build_index(graph, "ppl")
        with caplog.at_level(logging.WARNING, logger="repro.slowlog"):
            with QueryService(index, num_workers=1,
                              options=QueryOptions(
                                  mode="distance", slow_query_ms=0.0)
                              ) as service:
                pairs = sample_vertex_pairs(graph, 8, seed=31)
                service.query_many(pairs, timeout=60)
                service._batcher.drain()
                snapshot = fresh_registry.snapshot()["histograms"]
        waits = snapshot["serving_queue_wait_seconds"]
        # Every admitted key waited in the dispatch queue once.
        assert waits["count"] >= len(set(map(tuple, map(sorted, pairs))))
        assert waits["sum"] >= 0.0
        # With slow_query_ms=0 every answer logs, and the batcher's
        # envelope carries the stages no worker trace can see.
        batcher_rows = [r.getMessage() for r in caplog.records
                        if "queue.wait" in r.getMessage()]
        assert batcher_rows
        assert "batch.worker" in batcher_rows[0]
        assert "mode=distance" in batcher_rows[0]

    def test_no_slowlog_when_disabled(self, caplog, fresh_registry):
        graph = _small_graph(seed=29, n=140)
        index = build_index(graph, "ppl")
        with caplog.at_level(logging.WARNING, logger="repro.slowlog"):
            with QueryService(index, num_workers=1,
                              options=QueryOptions(mode="distance")
                              ) as service:
                service.query(0, 5)
        assert not [r for r in caplog.records
                    if "queue.wait" in r.getMessage()]


# ----------------------------------------------------------------------
# /profile endpoint and worker-fleet profiling
# ----------------------------------------------------------------------

@pytest.mark.timeout(300)
class TestProfileEndpoint:
    @pytest.fixture(scope="class")
    def endpoint(self):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        graph = _small_graph(seed=43, n=200)
        index = build_index(graph, "ppl")
        try:
            with QueryService(index, num_workers=2,
                              options=QueryOptions(mode="distance")
                              ) as service:
                server = make_server(service)
                server.serve_in_background()
                host, port = server.server_address[:2]
                try:
                    yield f"http://{host}:{port}", service, graph
                finally:
                    server.shutdown()
                    server.server_close()
        finally:
            set_registry(previous)

    def test_local_profile_text_and_json(self, endpoint):
        base, service, graph = endpoint
        stop = threading.Event()

        def pump():
            pairs = sample_vertex_pairs(graph, 16, seed=47)
            while not stop.is_set():
                service.query_many(pairs, timeout=60)

        pumper = threading.Thread(target=pump,
                                                daemon=True)
        pumper.start()
        try:
            with urllib.request.urlopen(
                    base + "/profile?seconds=0.5&workers=0",
                    timeout=60) as reply:
                assert reply.status == 200
                assert reply.headers["Content-Type"].startswith(
                    "text/plain")
                text = reply.read().decode("utf-8")
            for line in text.splitlines():
                stack, _, count = line.rpartition(" ")
                assert stack and int(count) > 0
            with urllib.request.urlopen(
                    base + "/profile?seconds=0.5&workers=1&hz=97"
                           "&format=json", timeout=60) as reply:
                payload = json.loads(reply.read())
        finally:
            stop.set()
            pumper.join(timeout=30)
        assert payload["seconds"] == 0.5
        assert payload["hz"] == 97.0
        assert payload["workers"] is True
        assert payload["samples"] == \
            sum(payload["folded"].values()) >= 1
        assert payload["top"]
        # Worker samples attribute to real frames, and the fleet
        # accumulator was drained by the take.
        assert service.worker_profile() == {}

    def test_profile_param_validation(self, endpoint):
        base, _service, _graph = endpoint
        for query in ("seconds=0", "seconds=1000", "seconds=x",
                      "hz=0", "hz=2000", "hz=x"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"{base}/profile?{query}", timeout=30)
            assert excinfo.value.code == 400

    def test_service_profile_hz_knob(self, endpoint):
        _base, service, _graph = endpoint
        assert service.profile_hz == 0.0
        service.set_profile_hz(50.0)
        assert service.profile_hz == 50.0
        service.set_profile_hz(0.0)
        with pytest.raises(Exception):
            service.set_profile_hz(-1.0)

    def test_nudge_is_addressed_to_each_worker(self, endpoint):
        """One worker busy, the nudge still reaches the other — and
        the busy one gets its own when it frees, not a second helping
        for its sibling."""
        _base, service, _graph = endpoint
        with recorded_responses(service) as seen:
            with frozen_workers(service, 0):
                # Longest idle first: whichever worker takes the first
                # of two lone requests, the frozen one ends up holding
                # one.
                requests = [service.submit(0, 5), service.submit(0, 6)]
                nudges = service._batcher.nudge_workers()
                assert len(nudges) == 2
                nudges[1].result(timeout=30)
                assert [r.worker_id for r in seen] == [1, 1]
                assert not nudges[0].done()
                # The bounded wait `profile(workers=True)` ends with
                # gives up on the held worker instead of hanging.
                service._nudge_workers(timeout=0.2)
            nudges[0].result(timeout=30)
            assert service._batcher.drain(timeout=30)
        # A lone request each; the free worker answered both rounds of
        # nudges, the held one its two owed nudges as one batch.
        assert sorted(r.worker_id for r in seen) == [0, 0, 1, 1, 1]
        for request in requests:
            request.result(timeout=30)


# ----------------------------------------------------------------------
# Concurrent scrapes under churn (hot-swap + worker death)
# ----------------------------------------------------------------------

@pytest.mark.timeout(300)
class TestConcurrentScrape:
    def test_metrics_stay_consistent_under_churn(self, fresh_registry):
        """Threads hammer ``GET /metrics`` while the service hot-swaps
        snapshots and a worker is killed and respawned: every scrape
        must parse, and monotonic ``_total`` counters never decrease
        scrape-over-scrape."""
        graph = _small_graph(seed=53, n=160)
        index = build_index(graph, "dynamic")
        with QueryService(index, num_workers=2,
                          options=QueryOptions(mode="distance")) as service:
            server = make_server(service)
            server.serve_in_background()
            host, port = server.server_address[:2]
            base = f"http://{host}:{port}"
            stop = threading.Event()
            errors = []
            regressions = []

            def scraper():
                last: dict = {}
                while not stop.is_set():
                    try:
                        with urllib.request.urlopen(
                                base + "/metrics", timeout=30) as r:
                            samples = parse_prometheus(
                                r.read().decode("utf-8"))
                    except Exception as exc:  # noqa: BLE001
                        errors.append(repr(exc))
                        return
                    for key, value in samples.items():
                        name = key.split("{", 1)[0]
                        if not name.endswith("_total"):
                            continue
                        if key in last and value < last[key]:
                            regressions.append(
                                (key, last[key], value))
                        last[key] = value

            threads = [threading.Thread(
                target=scraper, daemon=True) for _ in range(3)]
            for thread in threads:
                thread.start()
            try:
                pairs = sample_vertex_pairs(graph, 12, seed=59)
                edges = iter(graph.edges())
                for round_no in range(4):
                    service.query_many(pairs, timeout=60)
                    service.apply_updates(
                        [("insert", round_no,
                          graph.num_vertices - 1 - round_no),
                         ("delete", *next(edges))])
                # Kill a worker mid-hammer; the collector respawns
                # it and scrapes keep succeeding throughout.
                victim = service._pool._processes[0]
                victim.kill()
                victim.join(timeout=10)
                service.query_many(pairs, timeout=60)
                deadline = time.time() + 30
                while time.time() < deadline:
                    if service.stats()["alive_workers"] == 2:
                        break
                    time.sleep(0.05)
                service.query_many(pairs, timeout=60)
                service._batcher.drain()
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30)
                server.shutdown()
                server.server_close()
            assert not errors, f"scrapes failed under churn: {errors}"
            assert not regressions, (
                f"monotonic counters decreased: {regressions[:5]}")
            assert service.stats()["worker_deaths"] >= 1
