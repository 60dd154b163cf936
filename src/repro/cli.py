"""``python -m repro <command>`` (installed: ``repro <command>``); what
each command does is in its ``--help`` and README's CLI section.

The CLI is a table of commands and nothing else: a :class:`Command` is
``(name, help, configure(parser), run(args) -> int)``, the tables are
grouped per subsystem in :data:`COMMAND_TABLES` (a nested group such as
``store pack`` is a table of the same shape) and :func:`main` is
``args.run(args)``. A ``run`` imports its subsystem when called, so
removing a subsystem is removing its section here and its name there.

Every flag is declared once, in ``_FLAGS``, its domain being its
argparse ``type=``. A value outside it — like any ``ReproError`` a
command raises — is ``error: ...`` on stderr and exit status 2.
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import json
import os
import sys
from functools import partial
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional

from . import harness
from .engine import (QueryOptions, QuerySession, available_methods,
                     build_index, get_index_class, load_index)
from .engine.session import QUERY_MODES
from .errors import IndexFormatError, ReproError
from .shard import PARTITION_METHODS


class Command(NamedTuple):
    """One row of a command table."""

    name: str
    help: str
    configure: Callable[[argparse.ArgumentParser], None]
    #: ``None`` for a group, whose nested table's commands run instead.
    run: Optional[Callable[[argparse.Namespace], int]]


class _CommandParser(argparse.ArgumentParser):
    """A command's parser: misuse is a :class:`ReproError` for
    :func:`main` to report, like every other failure of the command."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ReproError(message)


def _add_commands(parser, tables, dest: str, metavar: str) -> None:
    commands = parser.add_subparsers(dest=dest, required=True,
                                     metavar=metavar,
                                     parser_class=_CommandParser)
    for table in tables:
        for command in table:
            sub = commands.add_parser(command.name, help=command.help)
            command.configure(sub)
            if command.run is not None:
                sub.set_defaults(run=command.run)


def _group(name: str, help: str, *table: Command) -> Command:
    """A command whose actions are the commands of a nested table."""
    return Command(name, help, partial(
        _add_commands, tables=(table,), dest=f"{name}_action",
        metavar="action"), None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the QbS paper's tables and figures on "
                    "synthetic stand-ins, or build, query and serve "
                    "indexes through the engine registry.",
    )
    _add_commands(parser, COMMAND_TABLES, "experiment", "command")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# -- Flag domains (argparse ``type=`` callables) -----------------------

def _number(cast, accepts, kind: str, what: str):
    """``type=`` for a ``cast`` number that ``accepts`` admits; the
    message calls it ``kind`` ``what`` ("a positive" "pair count")."""
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or not accepts(value):
            raise argparse.ArgumentTypeError(
                f"needs {kind} {what}, got {text!r}")
        return value
    return parse


positive_int = partial(_number, int, lambda n: n > 0, "a positive")
non_negative_int = partial(_number, int, lambda n: n >= 0,
                           "a non-negative")
positive_float = partial(_number, float, lambda x: x > 0, "a positive")
unit_interval = partial(_number, float, lambda x: 0.0 <= x <= 1.0,
                        "a [0, 1]")
port = _number(int, lambda n: 0 <= n <= 65535, "a 0-65535", "port")


def key_value(text: str):
    """``KEY=VALUE`` -> ``(key, value)``: dashes in the key become
    underscores, the value is parsed as JSON or kept as a string."""
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(
            f"needs KEY=VALUE, got {text!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.replace("-", "_"), value


def readable_file(text: str) -> str:
    if not (os.path.isfile(text) and os.access(text, os.R_OK)):
        raise argparse.ArgumentTypeError(f"cannot read file {text!r}")
    return text


def writable_path(text: str) -> str:
    parent = os.path.dirname(os.path.abspath(text))
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        raise argparse.ArgumentTypeError(
            f"cannot write {text!r}: {parent} is not a writable "
            f"directory")
    return text


# -- Flags, and the one way a command opens its index and workload -----

#: Every flag, declared once: ``--<key>`` unless ``flags`` says
#: otherwise. First the shared ones, then each section's own.
_FLAGS = {
    "index": dict(help="saved index: build output or a packed store"),
    "dataset": dict(help="stand-in dataset to build over"),
    "family": dict(flags=("--method",), choices=available_methods(),
                   help="registered index family"),
    "param": dict(action="append", type=key_value, metavar="KEY=VALUE",
                  help="build parameter, JSON value (repeatable)"),
    "shards": dict(type=positive_int("shard count"), metavar="N",
                   help="number of shards (build: sharded method only)"),
    "out": dict(type=writable_path, metavar="FILE",
                help="file to write the command's result to"),
    "path": dict(flags=("path",), type=readable_file,
                 help="the file to read"),
    "mode": dict(choices=QUERY_MODES, help="what to compute per pair"),
    "random": dict(type=positive_int("pair count"), metavar="N",
                   help="run N sampled random pairs"),
    "seed": dict(type=int, help="seed for whatever the command samples"),
    "cache": dict(type=non_negative_int("cache size"),
                  help="LRU result cache size (serve: one cache in "
                       "front of the workers)"),
    "budget": dict(type=positive_float("time budget"),
                   help="seconds before truncating (serve: per request)"),
    "workers": dict(type=positive_int("worker count"),
                    help="worker processes (serve: min(cores, 8))"),
    "audit_rate": dict(type=unit_interval("audit rate"), metavar="R",
                       help="share of distance answers audited"),
    "url": dict(help="base URL of a running server"),
    # the experiments', stored under the runners' own parameter names
    # so a runner is handed exactly the given flags its signature names
    "names": dict(flags=("--datasets",), dest="names", nargs="+",
                  help="restrict to these stand-ins (default: all)"),
    "num_pairs": dict(flags=("--pairs",), dest="num_pairs",
                      type=positive_int("pair count"),
                      help="query pairs per dataset (default: by size)"),
    "landmark_counts": dict(flags=("--landmarks",), nargs="+",
                            dest="landmark_counts",
                            type=positive_int("landmark count"),
                            help="landmark counts for sweep experiments"),
    "num_ops": dict(flags=("--ops",), dest="num_ops",
                    type=positive_int("op count"),
                    help="update-stream length (dynamic experiment)"),
    # build / query
    "partition_file": dict(type=readable_file,
                           help="partition command's output (sharded)"),
    "jobs": dict(type=positive_int("job count"), metavar="N",
                 help="worker processes for a label-family or sharded "
                      "build (default: serial, measured faster)"),
    "pair": dict(action="append", nargs=2, type=int, metavar=("U", "V"),
                 help="explicit query pair (repeatable; or --random)"),
    # update
    "stream": dict(type=readable_file,
                   help="op file: '+ U V' / '- U V' / '? U V' per line"),
    "random_ops": dict(type=positive_int("op count"), metavar="N",
                       help="a seeded N-op mixed stream, not --stream"),
    "threshold": dict(type=non_negative_int("mutation count"),
                      help="mutations before a rebuild (0: never)"),
    # serve
    "dynamic": dict(action="store_true",
                    help="promote to a dynamic index, for POST /update"),
    "batch": dict(type=positive_int("batch size"),
                  help="max distinct pairs per worker batch"),
    "queue_depth": dict(type=positive_int("pending limit"),
                        help="admission-control pending limit"),
    "host": dict(help="bind address for the HTTP endpoint"),
    "port": dict(type=port, help="bind port (0 picks a free one)"),
    "smoke": dict(type=positive_int("request count"), metavar="N",
                  help="no HTTP: time N hot-key requests, report, exit"),
    "trace_rate": dict(type=unit_interval("trace rate"), metavar="R",
                       help="per-batch trace sampling rate"),
    "slow_ms": dict(type=float, metavar="MS",
                    help="log queries slower than MS to repro.slowlog"),
    # stats / trace / slo / profile
    "u": dict(flags=("u",),
              help="source vertex, or the action 'export' (fetch Chrome "
                   "trace JSON from --url) or 'validate' (check a file)"),
    "v": dict(flags=("v",), nargs="?",
              help="target vertex (or the file for 'validate')"),
    "limit": dict(type=int, metavar="N", help="max traces to export"),
    "seconds": dict(type=positive_float("window length"),
                    help="profiling window"),
    "hz": dict(type=positive_float("sampling rate"),
               help="sampling rate (default: 67)"),
    "top": dict(type=non_negative_int("row count"), metavar="N",
                help="hottest-frames rows to print (0: none)"),
    "count": dict(flags=("-n", "--count"), type=positive_int("row count"),
                  help="rows to print"),
    # store pack
    "head_width": dict(type=positive_int("column count"), metavar="W",
                       help="head columns pinned in RAM (default 32)"),
    "hot_rows": dict(type=non_negative_int("row count"), metavar="N",
                     help="hub label rows pinned at open (default 32)"),
    # partition
    "partitioner": dict(flags=("--method",), choices=PARTITION_METHODS,
                        help="partitioning method"),
}


def _flags(parser, **defaults) -> None:
    """Add the ``_FLAGS`` that ``defaults`` names, with those defaults;
    ``...`` for a flag the command cannot run without."""
    for key, default in defaults.items():
        spec = dict(_FLAGS[key])
        flags = spec.pop("flags", ("--" + key.replace("_", "-"),))
        if default is not ...:
            spec["default"] = default
        elif flags[0].startswith("-"):
            spec["required"] = True
        parser.add_argument(*flags, **spec)


def _open_index(args):
    """The index a command names: the one saved at ``--index``, else
    (``serve``) one built over the ``--dataset`` stand-in."""
    if args.index is not None:
        return load_index(args.index)
    from .workloads import load_dataset

    if get_index_class(args.method).directed:
        raise ReproError(
            f"the stand-ins are undirected; {args.method!r} is directed")
    return build_index(load_dataset(args.dataset), args.method,
                       **dict(args.param))


def _as_dynamic(index, threshold: Optional[int] = None):
    """``index`` as a dynamic one: itself, a label family promoted in
    place, or any other family rebuilt as ppl labels over its graph."""
    from .dynamic import DYNAMIC_FAMILIES, DynamicIndex

    if isinstance(index, DynamicIndex):
        if threshold is not None:
            index.rebuild_threshold = threshold
        return index
    if index.directed:
        raise ReproError(
            "the dynamic subsystem maintains undirected indexes; "
            f"{index.method!r} is directed")
    if index.method in DYNAMIC_FAMILIES:
        print(f"promoted to a dynamic index over {index.method!r} labels")
        return DynamicIndex.from_static(index,
                                        rebuild_threshold=threshold)
    print(f"promoted to a dynamic index by rebuilding {index.method!r} "
          f"as ppl labels over the same graph")
    return DynamicIndex.build(index.graph, rebuild_threshold=threshold)


def _open_workload(args, pairs=None, index=None, **policy):
    """``(index, pairs, session)``: ``index`` or the one ``args`` names,
    ``pairs`` or ``--random`` of them sampled under ``--seed``, and a
    session answering in ``--mode`` under ``policy`` (further
    :class:`QueryOptions` fields)."""
    if index is None:
        index = _open_index(args)
    if pairs is None:
        from .workloads import sample_pairs

        pairs = sample_pairs(index.graph, args.random, seed=args.seed)
    session = QuerySession(index, QueryOptions(mode=args.mode, **policy))
    return index, pairs, session


def _print_mapping(mapping) -> None:
    print(harness.format_rows([{"key": key, "value": value}
                               for key, value in mapping.items()]))


def _render_value(value) -> str:
    if isinstance(value, int):
        return str(value)
    if value is None or value.distance is None:
        return "unreachable"
    return f"d={value.distance} |E|={value.num_edges}"


# -- EXPERIMENTS: the paper's tables and figures -----------------------

_RUNNERS = {
    "table1": harness.run_table1,
    "table2-construction": harness.run_table2_construction,
    "table2-query": harness.run_table2_query,
    "table3": harness.run_table3,
    "fig7": harness.run_fig7,
    "fig8": harness.run_fig8,
    "fig9": harness.run_fig9,
    "fig10": harness.run_fig10,
    "fig11": harness.run_fig11,
    "remarks": harness.run_remarks_traversal,
    "dynamic": harness.run_dynamic,
}

def _run_experiment(args) -> int:
    runner = _RUNNERS[args.experiment]
    takes = inspect.signature(runner).parameters
    given = {name: value for name, value in vars(args).items()
             if name in takes and value is not None}
    print(harness.format_rows(runner(**given)))
    return 0


EXPERIMENTS = tuple(
    Command(name, f"regenerate {name} on the stand-ins",
            partial(_flags, names=None, num_pairs=None,
                    landmark_counts=None, num_ops=None),
            _run_experiment)
    for name in sorted(_RUNNERS))


# -- ENGINE: build / query / inspect -----------------------------------

def _run_build(args) -> int:
    from .directed import DiGraph
    from .workloads import load_dataset

    graph = load_dataset(args.dataset)
    params = dict(args.param)
    sharded = args.method == "sharded"
    if args.jobs is not None:
        if not (sharded
                or args.method in {"ppl", "parent-ppl", "dynamic"}):
            raise ReproError(
                "--jobs only applies to the label families "
                "(ppl, parent-ppl, dynamic) and sharded builds")
        params.setdefault("jobs", args.jobs)
    if args.shards is not None and args.partition_file is not None:
        raise ReproError("give --shards or --partition-file, not both")
    for flag, value in (("--shards", args.shards),
                        ("--partition-file", args.partition_file)):
        if value is not None and not sharded:
            raise ReproError(f"{flag} only applies to --method sharded")
    if args.shards is not None:
        params["num_shards"] = args.shards
    if args.partition_file is not None:
        from .shard import ShardedIndex, load_partition

        index = ShardedIndex.from_partition(
            graph, load_partition(args.partition_file), **params)
    else:
        if get_index_class(args.method).directed:
            # The stand-ins are undirected; serve directed methods the
            # symmetric orientation (every edge becomes two arcs).
            graph = DiGraph(graph.indptr, graph.indices,
                            graph.indptr, graph.indices)
        index = build_index(graph, args.method, **params)
    index.save(args.out)
    _print_mapping(index.stats)
    print(f"saved {args.method} index for {args.dataset!r} "
          f"to {args.out}")
    return 0


def _run_query(args) -> int:
    if not args.pair and args.random is None:
        raise ReproError("give --pair U V (repeatable) or --random N")
    _, pairs, session = _open_workload(
        args, args.pair, time_budget=args.budget, collect_stats=True,
        cache_size=args.cache)
    report = session.run(pairs)
    print(harness.format_rows([{
        "u": record.u, "v": record.v,
        args.mode: _render_value(record.value),
        "ms": record.seconds * 1e3,
        "cached": "yes" if record.cached else "-",
    } for record in report.records]))
    aggregate = report.aggregate_stats()
    summary = (f"{aggregate['num_queries']} queries in "
               f"{aggregate['elapsed_seconds'] * 1e3:.2f}ms "
               f"(mean {aggregate['mean_query_ms']:.3f}ms, "
               f"{aggregate['cache_hits']} cache hits)")
    if report.truncated:
        summary += " [truncated by --budget]"
    print(summary)
    return 0


def _print_description(path, description: dict) -> None:
    arrays = description["arrays"]
    print(harness.format_rows([{
        "array": spec["name"], "dtype": spec["dtype"],
        "shape": "x".join(str(d) for d in spec["shape"]),
        "bytes": spec["nbytes"], "tier": spec.get("tier", "-"),
    } for spec in arrays]))
    logical = sum(spec["nbytes"] for spec in arrays)
    print(f"{path}: {description['format']} v{description['version']} "
          f"({description['kind']}), method={description['method']!r}, "
          f"{len(arrays)} arrays, {logical} logical bytes, "
          f"{description['file_bytes']} on disk")


def _run_inspect(args, only: Optional[str] = None) -> int:
    from .engine import describe_index

    description = describe_index(args.path)
    if only not in (None, description["kind"]):
        raise IndexFormatError(
            f"{args.path}: not a packed {only} (a "
            f"{description['kind']} index; use 'repro inspect', or "
            f"pack it with 'repro store pack')")
    _print_description(args.path, description)
    return 0


ENGINE = (
    Command("build", "build an index via the registry and save it",
            partial(_flags, family="qbs", dataset=..., param=[], out=...,
                    shards=None, partition_file=None, jobs=None),
            _run_build),
    Command("query", "load a saved index and answer a query batch",
            partial(_flags, index=..., mode="spg", pair=None,
                    random=None, seed=0, cache=0, budget=None),
            _run_query),
    Command("inspect", "print a saved index's layout without loading it",
            partial(_flags, path=...), _run_inspect),
)


# -- DYNAMIC: update ---------------------------------------------------

def _run_update(args) -> int:
    from .workloads import generate_update_stream, read_update_stream

    if (args.stream is None) == (args.random_ops is None):
        raise ReproError("give exactly one of --stream or --random-ops")
    index = _as_dynamic(_open_index(args), args.threshold)
    _, _, session = _open_workload(args, (), index, cache_size=256)
    if args.stream is not None:
        ops = read_update_stream(args.stream)
    else:
        ops = generate_update_stream(index.graph, args.random_ops,
                                     seed=args.seed)
    rows = []
    for op in ops:
        kind, u, v = op
        if kind == "query":
            record = session.query(u, v)
            value, ms = _render_value(record.value), record.seconds * 1e3
        else:
            changed = (index.insert_edge(u, v) if kind == "insert"
                       else index.remove_edge(u, v))
            value, ms = "applied" if changed else "no-op", None
        rows.append({"op": op.symbol, "u": u, "v": v, args.mode: value,
                     "ms": ms})
    print(harness.format_rows(rows))
    stats = index.stats
    print(f"{stats['inserts']} inserts, {stats['removes']} removes, "
          f"{stats['noops']} no-ops, {stats['rebuilds']} rebuilds; "
          f"now |V|={stats['num_vertices']} |E|={stats['num_edges']} "
          f"({stats['phantom_edges']} phantom)")
    if args.out is not None:
        index.save(args.out)
        print(f"saved updated dynamic index to {args.out}")
    return 0


DYNAMIC = (
    Command("update", "replay an edge-update stream against an index",
            partial(_flags, index=..., stream=None, random_ops=None,
                    seed=0, mode="distance", threshold=None, out=None),
            _run_update),
)


# -- SERVING: serve ----------------------------------------------------

def _serve_flags(parser) -> None:
    parser.description = (
        "Serve queries over HTTP from worker processes that hold one "
        "batch each: a request leaves for a worker the moment one is "
        "idle, and waits (coalescing, deduplicated) only while none is.")
    _flags(parser.add_mutually_exclusive_group(required=True),
           dataset=None, index=None)
    _flags(parser, family="ppl", param=[], dynamic=False, workers=None,
           mode="distance", cache=4096, budget=None, batch=256,
           queue_depth=10_000, host="127.0.0.1", port=8080,
           smoke=None, seed=0, trace_rate=0.0, slow_ms=None,
           audit_rate=0.0)


def _run_serve(args) -> int:
    import signal
    import threading

    from .serving import QueryService, make_server, run_closed_loop
    from .workloads import sample_pairs_hotspot

    index = _open_index(args)
    if args.dynamic:
        index = _as_dynamic(index)
    options = QueryOptions(mode=args.mode, cache_size=args.cache,
                           time_budget=args.budget,
                           slow_query_ms=args.slow_ms)
    with QueryService(index, num_workers=args.workers, options=options,
                      max_batch=args.batch,
                      max_pending=args.queue_depth,
                      audit_rate=args.audit_rate) as service:
        if args.trace_rate:
            service.set_trace_rate(args.trace_rate)
        stats = service.stats()
        print(f"serving {stats['method']!r} index "
              f"(|V|={index.graph.num_vertices}) with "
              f"{stats['num_workers']} workers, mode={args.mode}")
        if args.smoke is not None:
            report = run_closed_loop(service.submit, sample_pairs_hotspot(
                index.graph, args.smoke, seed=args.seed), num_clients=8)
            print(report.format())
            stats = service.stats()
            print(f"batches: {stats['batches']}, deduplicated: "
                  f"{stats['deduplicated']}, cache hits: "
                  f"{stats['cache_hits']}, epoch: {stats['epoch']}")
            return 0
        server = make_server(service, host=args.host, port=args.port)
        host, bound = server.server_address[:2]
        # SIGINT/SIGTERM end the wait below — a bare SIGTERM would skip
        # all cleanup and orphan the workers mid-batch. The handlers go
        # in before the readiness line: a supervisor that signals the
        # moment it sees "listening" must hit the graceful path.
        stop = threading.Event()

        def graceful(signum, frame):
            print(f"\nreceived {signal.Signals(signum).name}, "
                  f"shutting down", flush=True)
            stop.set()

        previous = {signum: signal.signal(signum, graceful)
                    for signum in (signal.SIGINT, signal.SIGTERM)}
        server.serve_in_background()
        print(f"listening on http://{host}:{bound} "
              f"(POST /query, POST /update, GET /stats, GET /metrics, "
              f"GET/POST /trace, GET /traces, GET /slo, GET /profile, "
              f"GET /healthz; Ctrl-C to stop)", flush=True)
        try:
            stop.wait()
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            server.shutdown()
            server.server_close()
        print("draining batcher and stopping workers")
        # Leaving the ``with`` drains the batcher and joins (or
        # terminates) the workers — no orphaned processes.
    return 0


SERVING = (
    Command("serve", "serve queries concurrently over HTTP",
            _serve_flags, _run_serve),
)


# -- OBS: stats / trace / slo / profile --------------------------------

def _run_stats(args) -> int:
    from .obs import get_registry

    index, pairs, session = _open_workload(
        args, cache_size=args.cache, collect_stats=True)
    report = session.run(pairs)
    snap = get_registry().snapshot()
    print(harness.format_rows([
        {"kind": kind, "series": name, "value": value}
        for kind in ("counter", "gauge")
        for name, value in sorted(snap[kind + "s"].items())]))
    histograms = [{
        "histogram": name, "count": summary["count"],
        "p50_ms": summary["p50"] * 1e3, "p99_ms": summary["p99"] * 1e3,
        "sum_ms": summary["sum"] * 1e3,
    } for name, summary in sorted(snap["histograms"].items())
        if summary["count"]]
    if histograms:
        print(harness.format_rows(histograms))
    aggregate = report.aggregate_stats()
    print(f"{aggregate['num_queries']} {args.mode} queries in "
          f"{aggregate['elapsed_seconds'] * 1e3:.2f}ms against "
          f"{index.method!r}; the same series are served on "
          f"GET /metrics under 'repro serve'")
    return 0


def _run_trace(args) -> int:
    from .obs import format_span_tree

    if args.u == "export":
        return _run_trace_export(args)
    if args.u == "validate":
        return _run_trace_validate(args)
    try:
        u, v = int(args.u), int(args.v)
    except (TypeError, ValueError):
        raise ReproError(
            f"trace needs two integer vertices (or the 'export' / "
            f"'validate' actions), got {args.u!r} {args.v!r}")
    if args.index is None:
        raise ReproError("--index is required to trace a query")
    index, _, session = _open_workload(args, [(u, v)], trace_sample=1.0)
    # Cache off, sampling 1.0: the first query warms lazy state (page
    # faults, allocator pools), the second is the steady state printed.
    session.query(u, v)
    record = session.query(u, v)
    print(format_span_tree(session.last_trace))
    print(f"{args.mode}({u}, {v}) = "
          f"{_render_value(record.value)} on {index.method!r}")
    return 0


def _fetch_json(url: str, timeout: float = 10.0):
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return json.loads(resp.read().decode("utf-8"))
    except (urllib.error.URLError, OSError, ValueError) as exc:
        raise ReproError(f"fetching {url} failed: {exc}")


def _trace_problems(payload) -> int:
    """Print why ``payload`` is no Chrome trace; 1 if it is not."""
    from .obs import validate_chrome_trace

    problems = validate_chrome_trace(payload)
    for problem in problems:
        print(f"invalid: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _run_trace_export(args) -> int:
    limit = max(1, min(args.limit, 1000))
    payload = _fetch_json(f"{args.url.rstrip('/')}/traces?format=chrome"
                          f"&limit={limit}")
    if _trace_problems(payload):
        return 1
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {len(payload.get('traceEvents', []))} trace "
              f"events to {args.out}; open it at "
              f"https://ui.perfetto.dev or chrome://tracing")
    else:
        print(text)
    return 0


def _run_trace_validate(args) -> int:
    if args.v is None:
        raise ReproError("trace validate needs a file path")
    try:
        payload = json.loads(Path(args.v).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ReproError(f"cannot read trace file: {exc}")
    except ValueError as exc:
        print(f"invalid: not JSON ({exc})", file=sys.stderr)
        return 1
    if _trace_problems(payload):
        return 1
    events = payload.get("traceEvents", [])
    spans = sum(1 for event in events if event.get("ph") == "X")
    print(f"ok: {len(events)} events ({spans} spans) conform to the "
          f"Chrome trace-event schema")
    return 0


def _run_slo_status(args) -> int:
    if (args.url is None) == (args.index is None):
        raise ReproError("slo status needs exactly one of --url or "
                         "--index")
    if args.url is not None:
        report = _fetch_json(f"{args.url.rstrip('/')}/slo")
    else:  # drive a short-lived fleet against --index and score it
        from .serving import QueryService

        index, pairs, session = _open_workload(args)
        with QueryService(index, num_workers=args.workers,
                          options=session.options,
                          audit_rate=args.audit_rate) as service:
            for u, v in pairs:
                service.submit(u, v, args.mode).result(timeout=60.0)
            if service.auditor is not None:
                service.auditor.flush()
            report = service.slo_status()
    rows = []
    for name, entry in sorted(report.get("objectives", {}).items()):
        burn = entry.get("burn_rates") or {}
        worst = max(burn.values()) if burn else float(
            entry.get("value", 0.0) or 0.0)
        left = float(entry.get("budget_remaining", 1.0))
        rows.append({
            "objective": name, "kind": entry.get("kind", "?"),
            "status": "BREACHED" if entry.get("breached") else "ok",
            "burn_or_value": round(worst, 4),
            "budget_left": round(left, 4)})
    print(harness.format_rows(rows))
    verdict = "BREACHED" if report.get("breached") else "ok"
    print(f"slo status: {verdict} over windows "
          f"{report.get('windows', [])}")
    return 1 if report.get("breached") else 0


def _print_top_frames(counts: dict, count: int, total: int) -> None:
    from .obs.profiler import top_frames

    print(harness.format_rows([
        {"frame": frame, "samples": samples,
         "share": f"{samples / max(1, total):.1%}"}
        for frame, samples in top_frames(counts, count)]))


def _run_profile_run(args) -> int:
    import time

    from .obs.profiler import DEFAULT_HZ, SamplingProfiler, render_folded

    index, pairs, session = _open_workload(args, cache_size=args.cache)
    hz = args.hz if args.hz is not None else DEFAULT_HZ
    profiler = SamplingProfiler(hz)
    deadline = time.monotonic() + args.seconds
    with profiler:
        # Cycle the pairs until the window closes, checking the clock
        # per query so a slow sweep cannot overrun it.
        for queries, (u, v) in enumerate(itertools.cycle(pairs)):
            if time.monotonic() >= deadline:
                break
            session.query(u, v)
    counts = profiler.folded()
    folded = render_folded(counts)
    if args.out is not None:
        # render_folded already ends with a newline when non-empty.
        Path(args.out).write_text(folded)
        print(f"wrote {len(counts)} folded stacks "
              f"({profiler.sample_count} samples) to {args.out}")
    else:
        print(folded)
    if args.top and counts:
        _print_top_frames(counts, args.top, profiler.sample_count)
    print(f"{queries} {args.mode} queries in {args.seconds:.1f}s "
          f"window, {profiler.sample_count} samples at {hz:g} Hz on "
          f"{index.method!r}")
    return 0


def _run_profile_top(args) -> int:
    counts: dict = {}
    with open(args.path, "r", errors="replace") as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            stack, _, count = line.rpartition(" ")
            if not stack or not count.isdigit():
                raise ReproError(
                    f"{args.path}:{line_no}: not a folded-stack "
                    f"line (expected 'frames... count')")
            counts[stack] = counts.get(stack, 0) + int(count)
    total = sum(counts.values())
    _print_top_frames(counts, args.count, total)
    print(f"{total} samples over {len(counts)} distinct stacks")
    return 0


OBS = (
    Command("stats", "run a query batch, print the metrics it produced",
            partial(_flags, index=..., mode="distance", random=200,
                    seed=0, cache=256),
            _run_stats),
    Command("trace", "trace one query; or export / validate fleet traces",
            partial(_flags, u=..., v=None, index=None, mode="distance",
                    url="http://127.0.0.1:8080", out=None, limit=50),
            _run_trace),
    _group("slo", "evaluate service-level objectives",
           Command("status", "print the SLO report; exit 1 on a breach",
                   partial(_flags, url=None, index=None, random=200,
                           mode="distance", seed=0, workers=2,
                           audit_rate=1.0), _run_slo_status)),
    _group("profile", "profile a workload, or roll up folded stacks",
           Command("run", "profile a query workload into folded stacks",
                   partial(_flags, index=..., mode="distance",
                           random=200, seed=0, cache=0, seconds=2.0,
                           hz=None, out=None, top=10),
                   _run_profile_run),
           Command("top", "print a folded-stack file's hottest frames",
                   partial(_flags, path=..., count=15), _run_profile_top)),
)


# -- STORE: packed out-of-core label stores ----------------------------

def _run_store_pack(args) -> int:
    from .engine import describe_index
    from .store import pack_index_store

    tiers = {"head_width": args.head_width, "hot_rows": args.hot_rows}
    header = pack_index_store(args.index, args.out, **{
        key: value for key, value in tiers.items() if value is not None})
    description = describe_index(args.out)
    _print_description(args.out, description)
    hot, cold = (sum(spec["nbytes"] for spec in description["arrays"]
                     if spec.get("tier") == tier)
                 for tier in ("hot", "cold"))
    print(f"packed {header['method']!r} index from {args.index} to "
          f"{args.out} (hot tier {hot} B in RAM at open, cold tier "
          f"{cold} B faulted on demand)")
    return 0


STORE = (
    _group("store", "manage packed out-of-core label stores",
           Command("pack", "pack a saved ppl/parent-ppl index for mmap",
                   partial(_flags, index=..., out=..., head_width=None,
                           hot_rows=None), _run_store_pack),
           Command("inspect", "print a packed store's tier layout",
                   partial(_flags, path=...),
                   partial(_run_inspect, only="store"))),
)


# -- SHARD: partition (sharded indexes build through ``build``) --------

def _run_partition(args) -> int:
    from .shard import partition_graph, save_partition
    from .workloads import load_dataset

    graph = load_dataset(args.dataset)
    partition = partition_graph(graph, args.shards,
                                method=args.method, seed=args.seed)
    _print_mapping(partition.quality_report(graph))
    if args.out is not None:
        save_partition(partition, args.out)
        print(f"saved {partition.num_shards}-shard partition map for "
              f"{args.dataset!r} to {args.out}")
    return 0


SHARD = (
    Command("partition", "partition a stand-in and report quality",
            partial(_flags, dataset=..., shards=4, partitioner="bfs",
                    seed=0, out=None),
            _run_partition),
)


#: Every command, one table per subsystem.
COMMAND_TABLES = (EXPERIMENTS, ENGINE, DYNAMIC, SERVING, OBS, STORE, SHARD)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
