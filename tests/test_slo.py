"""SLO engine, continuous oracle auditing, and the slo-gate CLI.

Unit coverage of the multi-window burn-rate arithmetic against an
isolated registry, the config parser's failure modes, the auditor's
sampling and at-epoch checking, then the acceptance-style paths: a
five-epoch update stream audited end to end with zero mismatches and
a 100% correctness budget, and the ``repro slo status`` gate flipping
its exit code when a live service is handed slow requests or a wrong
answer through the intakes real traffic uses.
"""

from __future__ import annotations

import time

import pytest

from repro import QueryOptions, build_index
from repro.baselines.oracle import distance_oracle
from repro.cli import main
from repro.graph import Graph, barabasi_albert
from repro.obs import (
    DEFAULT_SLO_CONFIG,
    MetricsRegistry,
    OracleAuditor,
    SloEngine,
    get_registry,
    parse_slo_config,
    set_registry,
)
from repro.serving import QueryService, make_server
from repro.workloads import sample_pairs


def _graph(seed=61, n=150):
    return barabasi_albert(n, 2, seed=seed)


#: The default objectives plus one on the batcher's own end-to-end
#: histogram, which lives in the serving process. The 1 s bound is far
#: above anything a healthy test fleet produces.
_SERVICE_SLO_CONFIG = DEFAULT_SLO_CONFIG + [
    {"name": "latency-request", "kind": "latency", "target": 0.99,
     "threshold_ms": 1000.0, "histogram": "serving_request_seconds"},
]


def _audited_service(graph):
    return QueryService(build_index(graph, "ppl"), num_workers=1,
                        options=QueryOptions(mode="distance",
                                             cache_size=0),
                        audit_rate=1.0,
                        slo_config=_SERVICE_SLO_CONFIG)


def _offer_wrong_answers(service, graph, pairs):
    """Hand the auditor off-by-one distances through ``offer`` — the
    hook the batcher calls for every resolved answer."""
    for u, v in pairs:
        service.auditor.offer(u, v, "distance",
                              distance_oracle(graph, u, v) + 1,
                              service.epoch)
    assert service.auditor.flush()


def _observe_slow_requests(count=50, seconds=5.0):
    """Slow observations into the series the batcher records every
    resolved request in."""
    histogram = get_registry().histogram("serving_request_seconds")
    for _ in range(count):
        histogram.observe(seconds)


def _latency_engine(registry, threshold_ms=50.0, target=0.9):
    objectives = parse_slo_config([
        {"name": "lat", "kind": "latency", "target": target,
         "threshold_ms": threshold_ms,
         "histogram": "test_latency_seconds"},
    ])
    return SloEngine(objectives, registry=registry)


# ----------------------------------------------------------------------
# Engine arithmetic
# ----------------------------------------------------------------------

class TestSloEngine:
    def test_latency_objective_clean_and_breached(self):
        registry = MetricsRegistry()
        engine = _latency_engine(registry, threshold_ms=50.0,
                                 target=0.9)
        histogram = registry.histogram("test_latency_seconds")
        for _ in range(20):
            histogram.observe(0.001)
        report = engine.evaluate()
        entry = report["objectives"]["lat"]
        assert not entry["breached"]
        assert entry["good"] == 20.0 and entry["bad"] == 0.0
        assert entry["budget_remaining"] == pytest.approx(1.0)
        # Now blow the budget: 50% of observations over threshold
        # against a 10% budget is burn rate 5 in every window.
        for _ in range(20):
            histogram.observe(1.0)
        report = engine.evaluate()
        entry = report["objectives"]["lat"]
        assert entry["breached"] and report["breached"]
        assert all(rate > 1.0
                   for rate in entry["burn_rates"].values())
        assert entry["budget_remaining"] == 0.0

    def test_threshold_on_bucket_bound_counts_as_good(self):
        registry = MetricsRegistry()
        engine = _latency_engine(registry, threshold_ms=50.0,
                                 target=0.5)
        histogram = registry.histogram("test_latency_seconds")
        # 50ms is a default bucket bound: an observation exactly at
        # the threshold must score good, not bad.
        histogram.observe(0.05)
        entry = engine.evaluate()["objectives"]["lat"]
        assert entry["good"] == 1.0 and entry["bad"] == 0.0

    def test_ratio_objective_from_counters(self):
        registry = MetricsRegistry()
        objectives = parse_slo_config([
            {"name": "errors", "kind": "ratio", "target": 0.9,
             "bad": "test_failed_total",
             "total": ["test_ok_total", "test_failed_total"]},
        ])
        engine = SloEngine(objectives, registry=registry)
        registry.counter("test_ok_total").inc(98)
        registry.counter("test_failed_total").inc(2)
        entry = engine.evaluate()["objectives"]["errors"]
        assert not entry["breached"]
        assert entry["bad"] == 2.0
        registry.counter("test_failed_total").inc(48)
        entry = engine.evaluate()["objectives"]["errors"]
        assert entry["breached"]

    def test_value_objective_reads_provider(self):
        registry = MetricsRegistry()
        objectives = parse_slo_config([
            {"name": "staleness", "kind": "value",
             "threshold_s": 30.0, "provider": "lag"},
        ])
        engine = SloEngine(objectives, registry=registry)
        lag = {"value": 0.0}
        engine.register_provider("lag", lambda: lag["value"])
        entry = engine.evaluate()["objectives"]["staleness"]
        assert not entry["breached"]
        assert entry["budget_remaining"] == 1.0
        lag["value"] = 120.0
        report = engine.evaluate()
        entry = report["objectives"]["staleness"]
        assert entry["breached"] and report["breached"]
        assert entry["value"] == 120.0

    def test_baseline_excludes_preexisting_badness(self):
        """Budget accounting starts at engine construction: counts
        accumulated before the service began must not charge it."""
        registry = MetricsRegistry()
        histogram = registry.histogram("test_latency_seconds")
        for _ in range(50):
            histogram.observe(5.0)  # all bad, before the engine
        engine = _latency_engine(registry, target=0.9)
        entry = engine.evaluate()["objectives"]["lat"]
        assert not entry["breached"]
        assert entry["good"] == 0.0 and entry["bad"] == 0.0

    def test_evaluate_publishes_gauges(self):
        registry = MetricsRegistry()
        engine = _latency_engine(registry)
        engine.evaluate()
        snap = registry.snapshot()["gauges"]
        assert "slo_budget_remaining{slo=lat}" in snap
        assert "slo_burn_rate{slo=lat,window=60s}" in snap

    @pytest.mark.parametrize("config", [
        "not a list",
        [{"kind": "latency"}],                       # no name
        [{"name": "x", "kind": "nope"}],             # bad kind
        [{"name": "x", "kind": "latency",
          "target": 1.5, "threshold_ms": 1,
          "histogram": "h"}],                        # target out of range
        [{"name": "x", "kind": "latency"}],          # missing histogram
        [{"name": "x", "kind": "ratio"}],            # missing counters
        [{"name": "x", "kind": "value"}],            # missing provider
        [{"name": "x", "kind": "ratio", "bad": "b", "total": ["t"]},
         {"name": "x", "kind": "ratio", "bad": "b",
          "total": ["t"]}],                          # duplicate name
    ])
    def test_parse_rejects_bad_config(self, config):
        with pytest.raises(ValueError):
            parse_slo_config(config)


# ----------------------------------------------------------------------
# Oracle auditor
# ----------------------------------------------------------------------

class TestOracleAuditor:
    def test_audits_served_answers_at_epoch(self):
        graph = _graph(seed=3, n=80)
        registry = MetricsRegistry()
        auditor = OracleAuditor(lambda epoch: graph, rate=1.0,
                                registry=registry)
        try:
            pairs = sample_pairs(graph, 10, seed=5)
            for u, v in pairs:
                auditor.offer(u, v, "distance",
                              distance_oracle(graph, u, v), 0)
            assert auditor.flush()
            stats = auditor.stats()
            assert stats["checked"] == 10
            assert stats["mismatches"] == 0
        finally:
            auditor.close()

    def test_wrong_answer_counts_as_mismatch(self):
        graph = _graph(seed=7, n=80)
        registry = MetricsRegistry()
        auditor = OracleAuditor(lambda epoch: graph, rate=1.0,
                                registry=registry)
        try:
            truth = distance_oracle(graph, 0, 9)
            auditor.offer(0, 9, "distance", truth + 1, 0)
            assert auditor.flush()
            assert auditor.stats()["mismatches"] == 1
        finally:
            auditor.close()

    def test_sampling_rate_is_deterministic(self):
        graph = _graph(seed=9, n=80)
        registry = MetricsRegistry()
        auditor = OracleAuditor(lambda epoch: graph, rate=0.25,
                                registry=registry)
        try:
            for _ in range(100):
                auditor.offer(0, 1,
                              "distance",
                              distance_oracle(graph, 0, 1), 0)
            assert auditor.flush()
            assert auditor.stats()["checked"] == 25
        finally:
            auditor.close()

    def test_non_distance_and_aged_epochs_are_skipped(self):
        graph = _graph(seed=11, n=80)
        registry = MetricsRegistry()

        def provider(epoch):
            if epoch != 0:
                raise KeyError(epoch)
            return graph

        auditor = OracleAuditor(provider, rate=1.0,
                                registry=registry)
        try:
            auditor.offer(0, 1, "spg", object(), 0)
            auditor.offer(0, 1, "distance", 1.0, 99)  # aged out
            assert auditor.flush()
            stats = auditor.stats()
            assert stats["checked"] == 0
            assert stats["skipped"] == 1
        finally:
            auditor.close()

    def test_rate_validated(self):
        with pytest.raises(ValueError):
            OracleAuditor(lambda epoch: None, rate=1.5)


# ----------------------------------------------------------------------
# Acceptance: audited update stream through a live fleet
# ----------------------------------------------------------------------

@pytest.mark.timeout(180)
class TestAuditedFleet:
    def test_five_epoch_stream_audits_clean(self):
        """Five epochs of edge insertions with queries between them:
        every audited answer matches the oracle *for its epoch*, the
        correctness SLO keeps 100% budget, nothing is skipped."""
        graph = _graph(seed=13, n=120)
        index = build_index(graph, "dynamic")
        with QueryService(index, num_workers=2,
                          options=QueryOptions(mode="distance",
                                               cache_size=0),
                          audit_rate=1.0) as service:
            rim = graph.num_vertices - 1
            for epoch in range(5):
                for u, v in sample_pairs(graph, 8, seed=epoch):
                    service.query(u, v)
                # Audit promptly: the per-epoch graphs stay within
                # the snapshot audit window regardless.
                assert service.auditor.flush()
                service.apply_updates(
                    [("insert", epoch, rim - epoch)])
            for u, v in sample_pairs(graph, 8, seed=99):
                service.query(u, v)
            assert service.auditor.flush()
            stats = service.audit_stats()
            report = service.slo_status()
        assert stats["checked"] >= 40
        assert stats["mismatches"] == 0
        assert stats["skipped"] == 0
        correctness = report["objectives"]["correctness"]
        assert not correctness["breached"]
        assert correctness["budget_remaining"] == pytest.approx(1.0)

    def test_disconnected_answer_is_audited(self):
        """A served ``None`` (no path) is checked like any distance:
        it matches the oracle's "unreachable" instead of being lost
        after the sampler spent its slot."""
        graph = Graph.from_edges([(0, 1), (1, 2), (3, 4)],
                                 num_vertices=5)
        previous = set_registry(MetricsRegistry())
        try:
            with QueryService(build_index(graph, "ppl"), num_workers=1,
                              options=QueryOptions(mode="distance"),
                              audit_rate=1.0) as service:
                assert service.query(0, 3).value is None
                assert service.query(0, 2).value == 2
                assert service.auditor.flush()
                stats = service.audit_stats()
        finally:
            set_registry(previous)
        assert stats["checked"] == 2
        assert stats["mismatches"] == 0

    def test_default_latency_objectives_score_served_traffic(self):
        """Workers time every index call into the per-mode series the
        default latency objectives read, so distance and spg traffic
        served by a default-config fleet is scored, not passed over."""
        graph = _graph(seed=23, n=120)
        pairs = sample_pairs(graph, 6, seed=29)
        previous = set_registry(MetricsRegistry())
        try:
            with QueryService(build_index(graph, "ppl"), num_workers=1,
                              options=QueryOptions(mode="distance")
                              ) as service:
                service.query_many(pairs)
                service.query_many(pairs, mode="spg")
                report = service.slo_status()
                counters = get_registry().snapshot()["counters"]
        finally:
            set_registry(previous)
        for name in ("latency-distance", "latency-spg"):
            entry = report["objectives"][name]
            assert entry["good"] + entry["bad"] > 0, name
        for mode in ("distance", "spg"):
            assert counters[f"session_queries_total{{mode={mode}}}"] > 0

    def test_wrong_answer_breaches_correctness(self):
        graph = _graph(seed=17, n=120)
        with _audited_service(graph) as service:
            pairs = sample_pairs(graph, 10, seed=19)
            for u, v in pairs:
                service.query(u, v)
            _offer_wrong_answers(service, graph, pairs[:2])
            report = service.slo_status()
        correctness = report["objectives"]["correctness"]
        assert correctness["breached"] and report["breached"]
        assert correctness["bad"] == 2.0
        assert correctness["good"] == 10.0

    def test_slow_requests_breach_latency(self):
        graph = _graph(seed=17, n=120)
        with _audited_service(graph) as service:
            for u, v in sample_pairs(graph, 10, seed=19):
                service.query(u, v)
            clean = service.slo_status()
            _observe_slow_requests()
            report = service.slo_status()
        assert not clean["breached"]
        latency = report["objectives"]["latency-request"]
        assert latency["breached"] and report["breached"]
        assert latency["bad"] == 50.0 and latency["good"] == 10.0


# ----------------------------------------------------------------------
# CLI gate: repro slo status
# ----------------------------------------------------------------------

@pytest.mark.timeout(180)
class TestSloCli:
    @pytest.fixture()
    def index_path(self, tmp_path):
        path = tmp_path / "slo.idx"
        graph = _graph(seed=23, n=120)
        build_index(graph, "ppl").save(path)
        return str(path)

    def test_clean_fleet_exits_zero(self, index_path, capsys):
        code = main(["slo", "status", "--index", index_path,
                     "--random", "20", "--workers", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "slo status: ok" in out
        assert "correctness" in out

    @pytest.fixture()
    def served(self):
        """A live audited service behind an in-test HTTP endpoint."""
        graph = _graph(seed=23, n=120)
        with _audited_service(graph) as service:
            server = make_server(service)
            server.serve_in_background()
            host, port = server.server_address[:2]
            try:
                pairs = sample_pairs(graph, 10, seed=31)
                for u, v in pairs:
                    service.query(u, v)
                assert service.auditor.flush()
                yield service, graph, pairs, f"http://{host}:{port}"
            finally:
                server.shutdown()
                server.server_close()

    def test_url_wrong_answer_exits_nonzero(self, served, capsys):
        service, graph, pairs, url = served
        assert main(["slo", "status", "--url", url]) == 0
        assert "slo status: ok" in capsys.readouterr().out
        _offer_wrong_answers(service, graph, pairs[:2])
        assert main(["slo", "status", "--url", url]) == 1
        out = capsys.readouterr().out
        assert "correctness" in out and "BREACHED" in out

    def test_url_slow_requests_exit_nonzero(self, served, capsys):
        _service, _graph, _pairs, url = served
        assert main(["slo", "status", "--url", url]) == 0
        capsys.readouterr()
        _observe_slow_requests()
        assert main(["slo", "status", "--url", url]) == 1
        out = capsys.readouterr().out
        assert "latency-request" in out and "BREACHED" in out

    def test_needs_exactly_one_source(self, index_path):
        assert main(["slo", "status"]) == 2
        assert main(["slo", "status", "--index", index_path,
                     "--url", "http://127.0.0.1:1"]) == 2


# ----------------------------------------------------------------------
# Staleness provider
# ----------------------------------------------------------------------

class TestStaleness:
    def test_in_sync_snapshot_reports_zero(self):
        graph = _graph(seed=29, n=100)
        index = build_index(graph, "dynamic")
        with QueryService(index, num_workers=1,
                          options=QueryOptions(mode="distance")
                          ) as service:
            assert service._snapshots.staleness_seconds() == 0.0
            # A published update leaves source and snapshot at the
            # same version again: still zero.
            service.apply_updates([("insert", 0, 99)])
            time.sleep(0.01)
            assert service._snapshots.staleness_seconds() == 0.0
