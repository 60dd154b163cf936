"""Fleet-wide distributed tracing: stitching, export, endpoints.

Covers the cross-process pipeline end to end:

* unit level — span-record flattening, the :class:`TraceBuffer`'s
  tail-based retention, Chrome trace-event export and its validator;
* integration — a live multi-worker :class:`QueryService` at trace
  rate 1.0 produces stitched traces whose parent links all resolve
  into a single tree rooted at the batcher's request envelope, with
  worker-side stage spans attached under it;
* fault injection — a worker killed mid-stream must not leave
  orphaned spans: every retained trace still parses into one tree,
  and the span count stays consistent with the metrics the same
  batches reported;
* the ``GET /traces`` endpoint (chrome + summary formats, shared
  query-param validation) and the ``repro trace export`` /
  ``repro trace validate`` CLI forms.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro import QueryOptions, build_index
from repro.cli import main
from repro.graph import barabasi_albert
from repro.obs import (
    StitchedTrace,
    TraceBuffer,
    TraceContext,
    chrome_trace,
    span,
    span_records,
    trace_from_context,
    validate_chrome_trace,
)
from repro.serving import QueryService, make_server
from repro.workloads import sample_pairs


def _graph(seed=17, n=150):
    return barabasi_albert(n, 2, seed=seed)


def _trace(trace_id="t1", ms=1.0, error=False, spans=None):
    return StitchedTrace(
        trace_id=trace_id,
        spans=spans if spans is not None else [],
        ts=1000.0,
        duration=ms / 1000.0,
        error=error,
    )


def _tree_check(trace):
    """Return (roots, orphans) for one stitched trace's span list."""
    ids = {record["span"] for record in trace.spans}
    roots = [r for r in trace.spans if r["parent"] is None]
    orphans = [r for r in trace.spans
               if r["parent"] is not None and r["parent"] not in ids]
    return roots, orphans


# ----------------------------------------------------------------------
# Span records
# ----------------------------------------------------------------------

class TestSpanRecords:
    def test_none_root_flattens_to_none(self):
        assert span_records(None) is None

    def test_records_keep_parent_links_and_process(self):
        context = TraceContext("trace-1", "parent-span")
        with trace_from_context(context, "outer", batch=7) as root:
            with span("inner"):
                time.sleep(0.001)
        records = span_records(root, process="worker-3")
        assert len(records) == 2
        outer, inner = records
        assert outer["trace"] == "trace-1"
        assert outer["parent"] == "parent-span"
        assert inner["parent"] == outer["span"]
        assert all(r["proc"] == "worker-3" for r in records)
        assert outer["attrs"]["batch"] == 7
        assert inner["dur"] > 0.0
        # Wall-clock timestamps: comparable across processes.
        assert abs(outer["ts"] - time.time()) < 60.0

    def test_adopted_trace_id_propagates_to_children(self):
        context = TraceContext("fleet-trace", "remote-root")
        with trace_from_context(context, "outer") as root:
            with span("child"):
                pass
        records = span_records(root)
        assert {r["trace"] for r in records} == {"fleet-trace"}


# ----------------------------------------------------------------------
# TraceBuffer tail retention
# ----------------------------------------------------------------------

class TestTraceBuffer:
    def test_evicts_boring_traces_first(self):
        buffer = TraceBuffer(capacity=3, slow_ms=50.0)
        buffer.add(_trace("slow", ms=80.0))
        buffer.add(_trace("boring-1", ms=1.0))
        buffer.add(_trace("error", ms=1.0, error=True))
        buffer.add(_trace("boring-2", ms=1.0))
        kept = {t.trace_id for t in buffer.traces()}
        # One boring trace had to go; the slow and error traces are
        # tail-retained even though they are older.
        assert "slow" in kept and "error" in kept
        assert kept & {"boring-1", "boring-2"}
        assert len(kept) == 3
        stats = buffer.stats()
        assert stats["added_total"] == 4
        assert stats["evicted_total"] == 1

    def test_evicts_oldest_when_everything_is_retained(self):
        buffer = TraceBuffer(capacity=2, slow_ms=10.0)
        buffer.add(_trace("a", ms=20.0))
        buffer.add(_trace("b", ms=20.0))
        buffer.add(_trace("c", ms=20.0))
        assert {t.trace_id for t in buffer.traces()} == {"b", "c"}

    def test_filters_newest_first(self):
        buffer = TraceBuffer(capacity=8)
        buffer.add(_trace("fast", ms=1.0))
        buffer.add(_trace("slow", ms=200.0))
        buffer.add(_trace("bad", ms=2.0, error=True))
        assert [t.trace_id for t in buffer.traces()] == \
            ["bad", "slow", "fast"]
        assert [t.trace_id for t in buffer.traces(min_ms=100.0)] == \
            ["slow"]
        assert [t.trace_id for t in buffer.traces(errors_only=True)] \
            == ["bad"]
        assert [t.trace_id for t in buffer.traces(limit=1)] == ["bad"]


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------

class TestChromeExport:
    def _spans(self):
        return [
            {"trace": "t", "span": "s1", "parent": None,
             "name": "serving.request", "ts": 100.0, "dur": 0.05,
             "proc": "batcher", "attrs": {"mode": "distance"}},
            {"trace": "t", "span": "s2", "parent": "s1",
             "name": "serving.batch", "ts": 100.01, "dur": 0.03,
             "proc": "worker-0"},
        ]

    def test_export_shape_and_validation(self):
        payload = chrome_trace([_trace("t", ms=50.0,
                                       spans=self._spans())])
        assert validate_chrome_trace(payload) == []
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert {m["args"]["name"] for m in metas} == \
            {"batcher", "worker-0"}
        assert len(spans) == 2
        by_name = {e["name"]: e for e in spans}
        request = by_name["serving.request"]
        batch = by_name["serving.batch"]
        # Distinct synthetic pids per process, microsecond units.
        assert request["pid"] != batch["pid"]
        assert request["dur"] == pytest.approx(0.05 * 1e6)
        assert batch["args"]["parent_span_id"] == "s1"
        assert request["args"]["mode"] == "distance"

    def test_validator_catches_malformed_payloads(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) != []
        assert validate_chrome_trace({"traceEvents": {}}) != []
        bad_event = {"traceEvents": [{"ph": "X", "name": "x",
                                      "pid": 1, "tid": 1,
                                      "ts": -5.0, "dur": 1.0}]}
        assert any("ts" in p for p in
                   validate_chrome_trace(bad_event))
        no_dur = {"traceEvents": [{"ph": "X", "name": "x", "pid": 1,
                                   "tid": 1, "ts": 1.0}]}
        assert validate_chrome_trace(no_dur) != []
        ok = {"traceEvents": [{"ph": "X", "name": "x", "pid": 1,
                               "tid": 1, "ts": 1.0, "dur": 0.0}]}
        assert validate_chrome_trace(ok) == []


# ----------------------------------------------------------------------
# Live fleet: stitched traces through a multi-worker service
# ----------------------------------------------------------------------

@pytest.mark.timeout(120)
class TestStitchedFleet:
    def test_cross_worker_traces_form_single_trees(self):
        graph = _graph(seed=23, n=200)
        index = build_index(graph, "ppl")
        with QueryService(index, num_workers=2,
                          options=QueryOptions(mode="distance",
                                               cache_size=0)) as service:
            service.set_trace_rate(1.0)
            pairs = sample_pairs(graph, 12, seed=3)
            for u, v in pairs:
                service.query(u, v)
            traces = service.traces(limit=100)
        assert traces, "trace rate 1.0 produced no stitched traces"
        worker_procs = set()
        for trace in traces:
            roots, orphans = _tree_check(trace)
            assert len(roots) == 1, trace.spans
            assert orphans == [], trace.spans
            assert roots[0]["name"] == "serving.request"
            names = {r["name"] for r in trace.spans}
            assert "queue.wait" in names
            assert "serving.batch" in names
            worker_procs |= {r["proc"] for r in trace.spans
                             if r["proc"] != "batcher"}
            # Worker spans nest under the batcher's envelope: the
            # serving.batch span's parent is the root's span id.
            batch_spans = [r for r in trace.spans
                           if r["name"] == "serving.batch"]
            assert all(r["parent"] == roots[0]["span"]
                       for r in batch_spans)
        assert worker_procs, "no worker-side spans were shipped home"
        payload = chrome_trace(traces)
        assert validate_chrome_trace(payload) == []

    def test_killed_worker_leaves_no_orphaned_spans(self):
        """Satellite: traces survive a worker death mid-batch.

        The batch that died is re-dispatched with its original trace
        context, so its stitched trace must still parse into one tree
        — and at rate 1.0 every dispatched batch resolves into exactly
        one stitched trace, so the buffer's trace count must agree
        with the batcher's ``batches`` counter (duplicate responses
        merge metrics but never stitch twice).
        """
        graph = _graph(seed=29, n=200)
        index = build_index(graph, "ppl")
        with QueryService(index, num_workers=2,
                          options=QueryOptions(mode="distance",
                                               cache_size=0)) as service:
            service.set_trace_rate(1.0)
            assert service.query(0, 1) is not None
            victim = service._pool._processes[0]
            victim.kill()
            victim.join(timeout=10)
            pairs = sample_pairs(graph, 20, seed=31)
            answers = service.query_many(pairs, timeout=60)
            assert len(answers) == len(pairs)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if service.stats()["alive_workers"] == 2:
                    break
                time.sleep(0.05)
            stats = service.stats()
            assert stats["worker_deaths"] >= 1
            traces = service.traces(limit=1000)
        assert traces
        for trace in traces:
            roots, orphans = _tree_check(trace)
            assert len(roots) == 1, trace.spans
            assert orphans == [], trace.spans
            assert any(r["name"] == "serving.batch"
                       for r in trace.spans), trace.spans
        assert len(traces) == stats["batches"], \
            (len(traces), stats["batches"])


# ----------------------------------------------------------------------
# GET /traces endpoint
# ----------------------------------------------------------------------

@pytest.mark.timeout(120)
class TestTracesEndpoint:
    @pytest.fixture(scope="class")
    def endpoint(self):
        graph = _graph(seed=41, n=150)
        index = build_index(graph, "ppl")
        with QueryService(index, num_workers=2,
                          options=QueryOptions(mode="distance",
                                               cache_size=0)) as service:
            service.set_trace_rate(1.0)
            server = make_server(service)
            server.serve_in_background()
            host, port = server.server_address[:2]
            base = f"http://{host}:{port}"
            for u, v in sample_pairs(graph, 6, seed=43):
                service.query(u, v)
            try:
                yield base
            finally:
                server.shutdown()
                server.server_close()

    def _get(self, url):
        try:
            with urllib.request.urlopen(url, timeout=30) as reply:
                return reply.status, json.loads(reply.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_chrome_format_is_valid(self, endpoint):
        status, payload = self._get(f"{endpoint}/traces")
        assert status == 200
        assert validate_chrome_trace(payload) == []
        assert any(e["ph"] == "X"
                   for e in payload["traceEvents"])

    def test_summary_format(self, endpoint):
        status, payload = self._get(
            f"{endpoint}/traces?format=summary&limit=3")
        assert status == 200
        assert payload["buffer"]["added_total"] >= 1
        assert 1 <= len(payload["traces"]) <= 3
        entry = payload["traces"][0]
        assert {"trace_id", "duration_ms", "error", "mode",
                "spans"} <= set(entry)

    @pytest.mark.parametrize("query", [
        "limit=0", "limit=5000", "limit=x",
        "min_ms=-1", "min_ms=x", "format=perfetto",
    ])
    def test_param_validation_is_400(self, endpoint, query):
        status, payload = self._get(f"{endpoint}/traces?{query}")
        assert status == 400
        assert payload["error"].startswith("bad request: ")

    def test_slo_endpoint_shares_parser(self, endpoint):
        status, payload = self._get(f"{endpoint}/slo")
        assert status == 200
        assert payload["breached"] is False
        assert "latency-distance" in payload["objectives"]


# ----------------------------------------------------------------------
# CLI: repro trace export / validate
# ----------------------------------------------------------------------

@pytest.mark.timeout(120)
class TestTraceCli:
    def test_export_then_validate(self, tmp_path, capsys):
        graph = _graph(seed=47, n=150)
        index = build_index(graph, "ppl")
        with QueryService(index, num_workers=2,
                          options=QueryOptions(mode="distance",
                                               cache_size=0)) as service:
            service.set_trace_rate(1.0)
            server = make_server(service)
            server.serve_in_background()
            host, port = server.server_address[:2]
            for u, v in sample_pairs(graph, 4, seed=53):
                service.query(u, v)
            out = tmp_path / "fleet.json"
            try:
                code = main(["trace", "export",
                             "--url", f"http://{host}:{port}",
                             "--out", str(out)])
            finally:
                server.shutdown()
                server.server_close()
        assert code == 0
        payload = json.loads(out.read_text())
        assert validate_chrome_trace(payload) == []
        assert main(["trace", "validate", str(out)]) == 0
        assert "conform" in capsys.readouterr().out

    def test_validate_rejects_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [
            {"ph": "X", "name": "x", "pid": 1, "tid": 1,
             "ts": 1.0}]}))
        assert main(["trace", "validate", str(bad)]) == 1
        assert "invalid" in capsys.readouterr().err
        garbage = tmp_path / "garbage.json"
        garbage.write_text("not json {")
        assert main(["trace", "validate", str(garbage)]) == 1
        assert main(["trace", "validate",
                     str(tmp_path / "missing.json")]) == 2

    def test_vertex_form_still_validates_arguments(self, tmp_path):
        # Non-action strings must be integers...
        assert main(["trace", "zero", "five",
                     "--index", "nope.idx"]) == 2
        # ...and the vertex form still requires --index and v.
        assert main(["trace", "0", "5"]) == 2
        assert main(["trace", "0", "--index", "nope.idx"]) == 2
