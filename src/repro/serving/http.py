"""HTTP front-end: a stdlib JSON endpoint over a `QueryService`.

`ThreadingHTTPServer` handles connection concurrency; every handler
thread funnels into the service's batcher, so wire-level parallelism
becomes batched, deduplicated worker traffic. No framework, no
dependency — ``http.server`` plus ``json``.

Endpoints:

``GET /healthz``
    Readiness probe: ``{"ok": true, "epoch": N, "workers": M,
    "alive_workers": M, "dead_workers": 0, "pending": Q, ...}`` with
    status 200 while at least one worker is alive, 503 otherwise —
    load balancers can eject a replica whose worker fleet died
    without parsing the body.
``GET /stats``
    The service's counters (submitted/answered/deduplicated/...,
    pool and snapshot gauges). When the service runs ``store="mmap"``
    the reply carries a ``"label_store"`` sub-object with the
    fleet-aggregated out-of-core store counters: page-cache hits /
    misses / evictions, resident bytes, and the hot-tier fraction.
    The counters are read from the metrics registry, so this endpoint
    and ``/metrics`` agree by construction.
``GET /metrics``
    Prometheus text exposition (``text/plain; version=0.0.4``): every
    registry series — session caches, kernel/scalar dispatch, shard
    relays, store page faults, build phases, the serving tier — plus
    service gauges (pending requests, alive workers, epoch).
``GET /trace`` / ``POST /trace``
    Read / set the per-batch trace sampling rate: body
    ``{"rate": 0.25}``, reply ``{"rate": 0.25}``. Sampled batches
    populate the ``stage_seconds{stage=...}`` histograms.
``GET /profile?seconds=N``
    Run the sampling profiler for ``N`` seconds (default 2, capped at
    120) and return folded stacks — ``path:func;path:func count``
    lines, pipe them straight into ``flamegraph.pl`` or speedscope.
    ``&hz=H`` tunes the sampling rate, ``&workers=1`` profiles the
    worker fleet through the batch channel instead of the front-end
    process, ``&format=json`` wraps the counts in JSON with a
    hottest-frames roll-up.
``GET /traces``
    Stitched cross-process traces from the batcher's buffer.
    ``?format=chrome`` (default) returns Chrome trace-event JSON that
    opens directly in Perfetto / ``chrome://tracing``;
    ``?format=summary`` returns one JSON row per trace (id, duration,
    mode, span count). ``&limit=N`` (1–1000, default 50),
    ``&min_ms=T`` and ``&errors=1`` filter.
``GET /slo``
    Evaluate every service-level objective now: per-objective
    multi-window burn rates, remaining error budget and breach
    verdicts, plus a top-level ``breached`` flag (what
    ``repro slo status`` exits nonzero on).
``POST /query``
    Body ``{"u": 1, "v": 2, "mode": "distance"}`` for one query, or
    ``{"pairs": [[1, 2], [3, 4]], "mode": "spg"}`` for a burst.
    Answers ``{"results": [{"u", "v", "value", "epoch"}, ...]}``;
    ``mode`` defaults to the service's session mode. Distances and
    path counts are JSON numbers; shortest path graphs are rendered
    as ``{"distance": d, "edges": [[a, b], ...]}``.
``POST /update``
    Body ``{"ops": [["insert", u, v], ["delete", u, v]], "refresh":
    true}`` — applies edge updates to a mutable source index and (by
    default) hot-swaps a fresh snapshot. 409 for immutable sources.

Error mapping: 400 malformed input, 404 unknown path, 409 immutable
source, 503 admission control (queue full — retry later), 504 time
budget expired.

Connections are keep-alive, except that a reply sent without reading
the request body (``POST`` to an unknown path, a body over the size
limit or of no declared length) carries ``Connection: close``: the
unread bytes would otherwise be parsed as the next request.

Every reply leaves in one write on a ``TCP_NODELAY`` socket: status
line, headers and body collect in the buffered ``wfile``, which the
stdlib flushes once after each request (and on close, after a
``send_error``). Written as two segments with Nagle on, the body
waited for the client's delayed ACK of the headers — ~40 ms on Linux,
per reply, on every keep-alive connection.

Only replies with status >= 400 and handler errors are logged (to
stderr); ``/metrics`` and the slow-query log keep the rest.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import TimeoutError as FutureTimeoutError
from operator import index as _as_int
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Tuple
from urllib.parse import parse_qs, urlsplit

from ..errors import (
    ImmutableIndexError,
    QueryError,
    RequestExpiredError,
    ReproError,
    ServiceOverloadedError,
    VertexError,
)
from ..obs.profiler import DEFAULT_HZ, render_folded, top_frames
from .service import QueryService

__all__ = ["ServingHTTPServer", "make_server", "render_value"]

#: Largest accepted request body, in bytes (a burst of ~100k pairs).
_MAX_BODY = 4 * 1024 * 1024

#: Seconds a handler thread waits for one answer before replying 504.
_QUERY_TIMEOUT = 30.0


# ----------------------------------------------------------------------
# Shared query-parameter parsing
# ----------------------------------------------------------------------

def _bool_param(raw: str) -> bool:
    return raw.lower() not in ("", "0", "false", "no")


class _Param:
    """Declarative spec for one query parameter.

    ``cast`` converts the raw string; ``lo``/``hi`` bound numeric
    values (inclusive unless ``lo_open``); ``choices`` whitelists
    enums. Every endpoint parses through :func:`_parse_params`, so
    every malformed parameter produces the same 400 JSON payload
    (``{"error": "bad request: ..."}``) instead of whatever a
    hand-rolled copy happened to say.
    """

    __slots__ = ("name", "cast", "default", "lo", "hi", "lo_open",
                 "choices")

    def __init__(self, name, cast, default, lo=None, hi=None,
                 lo_open=False, choices=None):
        self.name = name
        self.cast = cast
        self.default = default
        self.lo = lo
        self.hi = hi
        self.lo_open = lo_open
        self.choices = choices


class _ParamError(ValueError):
    """A query parameter failed validation (mapped to 400)."""


def _parse_params(params: Dict[str, List[str]],
                  spec: List[_Param]) -> Dict[str, Any]:
    """Parse/validate query params against a spec (see :class:`_Param`).

    Unknown parameters are ignored (standard HTTP behaviour); missing
    ones take their default. All failures raise :class:`_ParamError`
    with a message naming the parameter and its accepted range.
    """
    out: Dict[str, Any] = {}
    for param in spec:
        raw_values = params.get(param.name)
        if not raw_values:
            out[param.name] = param.default
            continue
        raw = raw_values[0]
        try:
            value = param.cast(raw)
        except (ValueError, TypeError):
            kind = {int: "an integer", float: "a number"}.get(
                param.cast, "valid")
            raise _ParamError(
                f"'{param.name}' must be {kind}, got {raw!r}"
            ) from None
        if param.choices is not None and value not in param.choices:
            raise _ParamError(
                f"'{param.name}' must be one of "
                f"{'/'.join(map(str, param.choices))}, got {raw!r}")
        too_low = param.lo is not None and (
            value <= param.lo if param.lo_open else value < param.lo)
        too_high = param.hi is not None and value > param.hi
        if too_low or too_high:
            left = "(" if param.lo_open else "["
            lo = param.lo if param.lo is not None else 0
            if param.hi is not None:
                accepted = f"in {left}{lo:g}, {param.hi:g}]"
            else:
                accepted = f"{'>' if param.lo_open else '>='} {lo:g}"
            raise _ParamError(f"'{param.name}' must be {accepted}, "
                              f"got {raw!r}")
        out[param.name] = value
    return out


def render_value(value: Any) -> Any:
    """JSON-render one query answer (distance, count, or SPG).

    A directed SPG goes out as its oriented ``"arcs"``, an undirected
    one as normalized ``"edges"``.
    """
    if value is None or isinstance(value, (int, float)):
        return value
    key, pairs = (("arcs", value.arcs) if value.directed
                  else ("edges", value.edges))
    return {"distance": value.distance,
            key: sorted([a, b] for a, b in pairs)}


class _Handler(BaseHTTPRequestHandler):
    """Request handler bound to a service via the server instance."""

    server: "ServingHTTPServer"
    protocol_version = "HTTP/1.1"
    # One segment per reply: a buffered wfile (flushed by
    # handle_one_request / finish) on a socket with Nagle off.
    wbufsize = -1
    disable_nagle_algorithm = True

    # -- plumbing -------------------------------------------------------

    def log_request(self, code="-", size="-") -> None:
        if isinstance(code, int) and code >= 400:
            super().log_request(code, size)

    def _reply(self, status: int, payload,
               content_type: str = "application/json") -> None:
        """Buffer one response; a ``str`` payload goes out as is."""
        if not isinstance(payload, str):
            payload = json.dumps(payload)
        body = payload.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> Dict[str, Any]:
        declared = self.headers.get("Content-Length", "0")
        # ASCII only: "²".isdigit() holds, and int() then raises
        # before the connection is marked to close.
        length = (int(declared)
                  if declared.isascii() and declared.isdigit() else None)
        if length is None or length > _MAX_BODY:
            # Left unread, the body would be parsed as the next
            # request line: this reply is the connection's last.
            self.close_connection = True
            raise ValueError(f"request body over {_MAX_BODY} bytes, or "
                             f"of no declared length")
        if length == 0:
            raise ValueError("empty request body")
        raw = self.rfile.read(length)
        payload = json.loads(raw.decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    # -- routes ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        service = self.server.service
        parts = urlsplit(self.path)
        if parts.path == "/healthz":
            health = service.health()
            self._reply(200 if health.get("ok") else 503, health)
        elif parts.path == "/stats":
            self._reply(200, service.stats())
        elif parts.path == "/metrics":
            self._reply(200, service.metrics_text(),
                        "text/plain; version=0.0.4; charset=utf-8")
        elif parts.path == "/trace":
            self._reply(200, {"rate": service.trace_rate})
        elif parts.path == "/profile":
            self._get(self._do_profile, parts.query)
        elif parts.path == "/traces":
            self._get(self._do_traces, parts.query)
        elif parts.path == "/slo":
            self._get(self._do_slo, parts.query)
        else:
            self._reply(404, {"error": f"unknown path {self.path!r}"})

    def _get(self, route, query: str) -> None:
        """Run a GET route with the shared param-error mapping."""
        try:
            route(parse_qs(query))
        except _ParamError as exc:
            self._reply(400, {"error": f"bad request: {exc}"})
        except ReproError as exc:
            self._reply(500, {"error": str(exc)})

    #: Longest accepted ``/profile`` window — the handler thread
    #: blocks for the duration, so cap it well under any sane LB
    #: timeout.
    _MAX_PROFILE_SECONDS = 120.0

    _PROFILE_PARAMS = [
        _Param("seconds", float, 2.0, lo=0.0, lo_open=True,
               hi=_MAX_PROFILE_SECONDS),
        _Param("hz", float, DEFAULT_HZ, lo=0.0, lo_open=True, hi=1000),
        _Param("workers", _bool_param, False),
        _Param("format", str, "folded", choices=("folded", "json")),
    ]

    def _do_profile(self, params: Dict[str, List[str]]) -> None:
        parsed = _parse_params(params, self._PROFILE_PARAMS)
        counts = self.server.service.profile(
            parsed["seconds"], parsed["hz"],
            workers=parsed["workers"])
        if parsed["format"] == "json":
            self._reply(200, {
                "seconds": parsed["seconds"], "hz": parsed["hz"],
                "workers": parsed["workers"],
                "samples": sum(counts.values()),
                "folded": counts,
                "top": top_frames(counts, 10),
            })
        else:
            self._reply(200, render_folded(counts),
                        "text/plain; charset=utf-8")

    _TRACES_PARAMS = [
        _Param("limit", int, 50, lo=1, hi=1000),
        _Param("min_ms", float, 0.0, lo=0.0),
        _Param("errors", _bool_param, False),
        _Param("format", str, "chrome", choices=("chrome", "summary")),
    ]

    def _do_traces(self, params: Dict[str, List[str]]) -> None:
        parsed = _parse_params(params, self._TRACES_PARAMS)
        service = self.server.service
        if parsed["format"] == "chrome":
            self._reply(200, service.traces_chrome(
                limit=parsed["limit"], min_ms=parsed["min_ms"],
                errors_only=parsed["errors"]))
            return
        traces = service.traces(
            limit=parsed["limit"], min_ms=parsed["min_ms"],
            errors_only=parsed["errors"])
        self._reply(200, {
            "buffer": service.trace_buffer_stats(),
            "traces": [{
                "trace_id": trace.trace_id,
                "ts": trace.ts,
                "duration_ms": trace.duration_ms,
                "error": trace.error,
                "mode": trace.mode,
                "pairs": trace.pairs,
                "spans": len(trace.spans),
            } for trace in traces],
        })

    def _do_slo(self, params: Dict[str, List[str]]) -> None:
        self._reply(200, self.server.service.slo_status())

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        if self.path == "/query":
            self._handle(self._do_query)
        elif self.path == "/update":
            self._handle(self._do_update)
        elif self.path == "/trace":
            self._handle(self._do_trace)
        else:
            self.close_connection = True  # body unread: see _read_json
            self._reply(404, {"error": f"unknown path {self.path!r}"})

    def _handle(self, route) -> None:
        try:
            status, payload = route(self._read_json())
        except (ValueError, KeyError, TypeError, VertexError,
                QueryError) as exc:
            status, payload = 400, {"error": f"bad request: {exc}"}
        except ServiceOverloadedError as exc:
            status, payload = 503, {"error": str(exc), "retry": True}
        except ImmutableIndexError as exc:
            status, payload = 409, {"error": str(exc)}
        except (RequestExpiredError, FutureTimeoutError) as exc:
            status, payload = 504, {"error": str(exc)
                                    or "query timed out"}
        except ReproError as exc:
            status, payload = 500, {"error": str(exc)}
        self._reply(status, payload)

    def _do_query(self, payload: Dict[str, Any]
                  ) -> Tuple[int, Dict[str, Any]]:
        service = self.server.service
        mode = payload.get("mode")
        pairs = _extract_pairs(payload)
        # Bulk admission: one admission-control pass for the whole
        # request, and no half-admitted burst left behind on a 503.
        futures = service.submit_many(pairs, mode)
        results: List[Dict[str, Any]] = []
        for (u, v), future in zip(pairs, futures):
            answer = future.result(timeout=_QUERY_TIMEOUT)
            results.append({"u": u, "v": v,
                            "value": render_value(answer.value),
                            "epoch": answer.epoch})
        return 200, {"results": results}

    def _do_update(self, payload: Dict[str, Any]
                   ) -> Tuple[int, Dict[str, Any]]:
        service = self.server.service
        ops = payload.get("ops")
        if not isinstance(ops, list) or not ops:
            raise ValueError("'ops' must be a non-empty list of "
                             "[kind, u, v] entries")
        parsed = []
        for op in ops:
            if not isinstance(op, (list, tuple)) or len(op) != 3:
                raise ValueError(f"malformed op {op!r}")
            kind, u, v = op
            parsed.append((str(kind), _as_int(u), _as_int(v)))
        outcome = service.apply_updates(
            parsed, refresh=bool(payload.get("refresh", True)))
        return 200, dict(outcome)

    def _do_trace(self, payload: Dict[str, Any]
                  ) -> Tuple[int, Dict[str, Any]]:
        service = self.server.service
        rate = payload.get("rate")
        if not isinstance(rate, (int, float)) \
                or isinstance(rate, bool):
            raise ValueError("'rate' must be a number in [0, 1]")
        return 200, {"rate": service.set_trace_rate(float(rate))}


def _extract_pairs(payload: Dict[str, Any]) -> List[Tuple[int, int]]:
    """The request's pairs as ints (the reply echoes them): a JSON
    number that is not an integer is refused, as at the index's front
    door, never truncated. The range is the service's to check."""
    if "pairs" in payload:
        pairs = payload["pairs"]
        if not isinstance(pairs, list) or not pairs:
            raise ValueError("'pairs' must be a non-empty list")
    else:
        pairs = [(payload["u"], payload["v"])]
    return [(_as_int(u), _as_int(v)) for u, v in pairs]


class ServingHTTPServer(ThreadingHTTPServer):
    """A `ThreadingHTTPServer` bound to one `QueryService`."""

    daemon_threads = True

    def __init__(self, address, service: QueryService) -> None:
        self.service = service
        super().__init__(address, _Handler)

    def serve_in_background(self) -> threading.Thread:
        """Run ``serve_forever`` on a daemon thread (tests, examples)."""
        thread = threading.Thread(target=self.serve_forever,
                                  daemon=True,
                                  name="repro-serving-http")
        thread.start()
        return thread


def make_server(service: QueryService, host: str = "127.0.0.1",
                port: int = 0) -> ServingHTTPServer:
    """Bind (but do not start) the JSON endpoint for ``service``.

    ``port=0`` picks a free ephemeral port; the bound address is at
    ``server.server_address``.
    """
    return ServingHTTPServer((host, port), service)
