"""Command-line entry point: ``python -m repro <command>``.

Three kinds of commands:

* **experiment runners** — regenerate one of the paper's tables or
  figures on the synthetic stand-ins and print it::

      python -m repro table1
      python -m repro table2-query --datasets douban dblp --pairs 100
      python -m repro fig8 --landmarks 20 60 100

* **build** — construct any registered index family over a stand-in
  through the :mod:`repro.engine` registry and persist it in the
  uniform npz format::

      python -m repro build --method qbs --dataset douban \\
          --out douban.idx --param num_landmarks=20

* **query** — load a saved index and answer a batch through a
  :class:`~repro.engine.session.QuerySession`::

      python -m repro query --index douban.idx --random 20 \\
          --mode count-paths --cache 256

* **update** — replay an edge-update stream (insertions, deletions,
  interleaved queries) against a saved index through the dynamic
  subsystem, answering queries as the graph evolves::

      python -m repro update --index douban.idx --stream ops.txt \\
          --out douban-v2.idx
      python -m repro update --index douban.idx --random-ops 50

  A non-dynamic index is promoted on the fly (``ppl``/``parent-ppl``
  promote in place; other families trigger a one-off label build).

* **serve** — run the concurrent serving subsystem over a stand-in or
  a saved index: a worker-pool + batching
  :class:`~repro.serving.service.QueryService` behind a JSON
  HTTP endpoint (or a local smoke load with ``--smoke``)::

      python -m repro serve --dataset douban --workers 4 --port 8080
      python -m repro serve --index douban.idx --dynamic --smoke 2000

  A request goes to a worker as soon as one is idle and waits —
  coalescing with the others waiting, ``--batch`` pairs per message at
  most — only while all are busy; there is no batching delay to set.
  ``--dynamic`` promotes the index so ``POST /update`` can mutate the
  graph behind hot-swapped snapshots. A snapshot is one file all
  workers map read-only; ``--store`` picks what it holds (``shm``:
  every state array, any family; ``mmap``: the packed out-of-core
  label store, ``ppl``/``parent-ppl``). SIGINT/SIGTERM shut the server
  down gracefully: the batcher drains and the worker pool is joined
  (or terminated), so no orphaned worker processes survive Ctrl-C.

* **stats** — run a query batch against a saved index and print the
  metrics registry (counters, gauges, histogram summaries) the run
  populated — the CLI view of what ``GET /metrics`` exposes::

      python -m repro stats --index douban.idx --random 200 \\
          --mode distance

* **trace** — answer one query under a sampled trace and print the
  span tree: per-stage wall times (session cache, kernel vs scalar
  dispatch, shard local/boundary/relay hops, store page faults) plus
  the stage-sum-vs-end-to-end coverage line::

      python -m repro trace 17 42 --index douban.idx

* **inspect** — print a saved index's header and array layout
  without loading it (works on npz archives and packed stores)::

      python -m repro inspect douban.idx
      python -m repro inspect douban.store

* **store** — manage packed out-of-core label stores
  (:mod:`repro.store`): ``pack`` converts a saved ``ppl`` /
  ``parent-ppl`` npz archive into the memmap-servable ``REPROSTR``
  container, ``inspect`` prints its tier layout::

      python -m repro store pack --index douban.idx \\
          --out douban.store --head-width 32 --hot-rows 64
      python -m repro store inspect douban.store

  A packed store loads through the ordinary ``query``/``serve``
  commands (``--index douban.store``) with the cold label tail
  faulted from disk on demand; ``serve --store mmap`` packs the
  snapshot itself so workers share one on-disk copy.

* **profile** — run a query workload under the folded-stack sampling
  profiler and print/save flamegraph-compatible output, or roll up an
  existing folded file::

      python -m repro profile run --index douban.idx --seconds 3 \\
          --out douban.folded
      python -m repro profile top douban.folded -n 20

* **partition** — partition a stand-in and print the quality report
  (edge cut, balance, boundary fraction), optionally saving the
  partition map for a later sharded build::

      python -m repro partition --dataset douban --shards 4
      python -m repro partition --dataset douban --shards 8 \\
          --method hash --out douban.part.npz

  Sharded indexes build through the ordinary ``build`` command::

      python -m repro build --method sharded --shards 4 \\
          --dataset douban --out douban.idx --param inner=ppl
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Set

from . import harness
from .shard import PARTITION_METHODS
from .engine import (
    QueryOptions,
    QuerySession,
    available_methods,
    build_index,
    get_index_class,
    load_index,
)
from .engine.session import QUERY_MODES
from .errors import ReproError

_EXPERIMENTS = {
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the QbS paper's tables and figures on "
                    "synthetic dataset stand-ins, or build and query "
                    "indexes through the engine registry.",
    )
    commands = parser.add_subparsers(dest="experiment", required=True,
                                     metavar="command")

    experiment_flags = argparse.ArgumentParser(add_help=False)
    experiment_flags.add_argument(
        "--datasets", nargs="+", default=None,
        help="restrict to these stand-ins (default: all twelve)")
    experiment_flags.add_argument(
        "--pairs", type=int, default=None,
        help="query pairs per dataset (default: scaled to graph size)")
    experiment_flags.add_argument(
        "--landmarks", nargs="+", type=int, default=None,
        help="landmark counts for sweep experiments")
    experiment_flags.add_argument(
        "--ops", type=int, default=None,
        help="update-stream length for the dynamic experiment")
    for name in sorted(_EXPERIMENTS):
        commands.add_parser(
            name, parents=[experiment_flags],
            help=f"regenerate {name} on the stand-ins")

    build_cmd = commands.add_parser(
        "build", help="build an index via the registry and save it")
    build_cmd.add_argument("--method", default="qbs",
                           choices=available_methods(),
                           help="registered index family")
    build_cmd.add_argument("--dataset", required=True,
                           help="stand-in dataset to index")
    build_cmd.add_argument("--out", required=True,
                           help="output path (uniform npz format)")
    build_cmd.add_argument("--param", action="append", default=[],
                           metavar="KEY=VALUE",
                           help="build parameter, e.g. num_landmarks=20 "
                                "(JSON values; repeatable)")
    build_cmd.add_argument("--shards", type=int, default=None,
                           metavar="N",
                           help="shard count for --method sharded "
                                "(shorthand for --param num_shards=N)")
    build_cmd.add_argument("--partition-file", default=None,
                           help="partition map from the partition "
                                "command (sharded method only)")
    build_cmd.add_argument("--jobs", type=int, default=None,
                           metavar="N",
                           help="worker processes for the label "
                                "families' root-batch loop (ppl, "
                                "parent-ppl, dynamic; default: the "
                                "serial loop, which the bench "
                                "measures faster than the pool); "
                                "sharded builds pass it to the shard "
                                "pool's inner builds")

    query_cmd = commands.add_parser(
        "query", help="load a saved index and answer a query batch")
    query_cmd.add_argument("--index", required=True,
                           help="path written by the build command")
    query_cmd.add_argument("--mode", default="spg", choices=QUERY_MODES,
                           help="what to compute per pair")
    query_cmd.add_argument("--pair", action="append", nargs=2, type=int,
                           default=None, metavar=("U", "V"),
                           help="explicit query pair (repeatable)")
    query_cmd.add_argument("--random", type=int, default=None,
                           metavar="N",
                           help="sample N random pairs instead")
    query_cmd.add_argument("--seed", type=int, default=0,
                           help="seed for --random sampling")
    query_cmd.add_argument("--cache", type=int, default=0,
                           help="LRU result cache size (0: off)")
    query_cmd.add_argument("--budget", type=float, default=None,
                           help="wall-clock seconds before truncating")

    update_cmd = commands.add_parser(
        "update", help="replay an edge-update stream against an index")
    update_cmd.add_argument("--index", required=True,
                            help="path written by the build command")
    update_cmd.add_argument("--stream", default=None,
                            help="op file: '+ U V' / '- U V' / '? U V' "
                                 "per line")
    update_cmd.add_argument("--random-ops", type=int, default=None,
                            metavar="N",
                            help="generate a seeded N-op mixed stream "
                                 "instead of --stream")
    update_cmd.add_argument("--seed", type=int, default=0,
                            help="seed for --random-ops generation")
    update_cmd.add_argument("--mode", default="distance",
                            choices=QUERY_MODES,
                            help="what '?' query ops compute")
    update_cmd.add_argument("--threshold", type=int, default=None,
                            help="rebuild after this many mutations "
                                 "(0: never)")
    update_cmd.add_argument("--out", default=None,
                            help="save the updated index here")

    serve_cmd = commands.add_parser(
        "serve", help="serve queries concurrently over HTTP",
        description="Serve queries over HTTP from worker processes "
                    "that hold one batch each. A request goes to a "
                    "worker the moment one is idle; while all are "
                    "busy, requests wait and leave together "
                    "(deduplicated, --batch pairs a message at most) "
                    "when one frees.")
    source = serve_cmd.add_mutually_exclusive_group(required=True)
    source.add_argument("--dataset", default=None,
                        help="stand-in dataset to build and serve")
    source.add_argument("--index", default=None,
                        help="saved index to serve (build command "
                             "output)")
    serve_cmd.add_argument("--method", default="ppl",
                           choices=available_methods(),
                           help="index family for --dataset "
                                "(default: ppl)")
    serve_cmd.add_argument("--param", action="append", default=[],
                           metavar="KEY=VALUE",
                           help="build parameter for --dataset "
                                "(JSON values; repeatable)")
    serve_cmd.add_argument("--dynamic", action="store_true",
                           help="promote to a dynamic index so POST "
                                "/update can mutate the graph")
    serve_cmd.add_argument("--workers", type=int, default=None,
                           help="worker processes (default: cores, "
                                "capped at 8)")
    serve_cmd.add_argument("--mode", default="distance",
                           choices=QUERY_MODES,
                           help="default per-query computation")
    serve_cmd.add_argument("--cache", type=int, default=4096,
                           help="per-worker LRU result cache size")
    serve_cmd.add_argument("--budget", type=float, default=None,
                           help="per-request time budget in seconds")
    serve_cmd.add_argument("--batch", type=int, default=256,
                           help="max distinct pairs per worker batch "
                                "(requests coalesce only while no "
                                "worker is idle)")
    serve_cmd.add_argument("--queue-depth", type=int, default=10_000,
                           help="admission-control pending limit")
    serve_cmd.add_argument("--store", default="shm",
                           choices=("shm", "mmap"),
                           help="what a snapshot file holds: shm = "
                                "every state array, mapped whole from "
                                "/dev/shm (any family); mmap = the "
                                "packed out-of-core label store on "
                                "disk (ppl/parent-ppl)")
    serve_cmd.add_argument("--host", default="127.0.0.1",
                           help="bind address for the HTTP endpoint")
    serve_cmd.add_argument("--port", type=int, default=8080,
                           help="bind port (0 picks a free one)")
    serve_cmd.add_argument("--smoke", type=int, default=None,
                           metavar="N",
                           help="skip HTTP: fire N hot-key requests "
                                "through the service, print the "
                                "latency report, exit")
    serve_cmd.add_argument("--seed", type=int, default=0,
                           help="seed for the --smoke workload")
    serve_cmd.add_argument("--trace-rate", type=float, default=0.0,
                           metavar="R",
                           help="per-batch trace sampling rate in "
                                "[0, 1]; sampled batches populate the "
                                "stage_seconds series on GET /metrics "
                                "(adjustable at runtime via POST "
                                "/trace)")
    serve_cmd.add_argument("--slow-ms", type=float, default=None,
                           metavar="MS",
                           help="log queries slower than MS through "
                                "the repro.slowlog logger (trace id + "
                                "per-stage breakdown when sampled)")
    serve_cmd.add_argument("--audit-rate", type=float, default=0.0,
                           metavar="R",
                           help="fraction of served distance answers "
                                "to re-check against the per-epoch "
                                "BFS oracle in a background thread "
                                "(feeds audit_* counters and the "
                                "correctness SLO; 0 disables)")

    stats_cmd = commands.add_parser(
        "stats", help="run a query batch and print the metrics "
                      "registry it populated")
    stats_cmd.add_argument("--index", required=True,
                           help="path written by the build command")
    stats_cmd.add_argument("--mode", default="distance",
                           choices=QUERY_MODES,
                           help="what to compute per pair")
    stats_cmd.add_argument("--random", type=int, default=200,
                           metavar="N",
                           help="random query pairs to run "
                                "(default: 200)")
    stats_cmd.add_argument("--seed", type=int, default=0,
                           help="seed for pair sampling")
    stats_cmd.add_argument("--cache", type=int, default=256,
                           help="LRU result cache size (0: off)")

    trace_cmd = commands.add_parser(
        "trace", help="answer one query under a trace and print the "
                      "span tree; or export/validate fleet traces")
    trace_cmd.add_argument("u",
                           help="source vertex, or the action "
                                "'export' (fetch Chrome trace JSON "
                                "from a running server, open it in "
                                "Perfetto) or 'validate FILE' (check "
                                "a trace file against the Chrome "
                                "trace-event schema)")
    trace_cmd.add_argument("v", nargs="?", default=None,
                           help="target vertex (or the file for "
                                "'validate')")
    trace_cmd.add_argument("--index", default=None,
                           help="path written by the build command "
                                "(required for the vertex form)")
    trace_cmd.add_argument("--mode", default="distance",
                           choices=QUERY_MODES,
                           help="what to compute (default: distance)")
    trace_cmd.add_argument("--url", default="http://127.0.0.1:8080",
                           help="server base URL for 'export' "
                                "(default: http://127.0.0.1:8080)")
    trace_cmd.add_argument("--out", default=None, metavar="FILE",
                           help="write exported trace JSON here "
                                "instead of stdout")
    trace_cmd.add_argument("--limit", type=int, default=50,
                           metavar="N",
                           help="max stitched traces to export "
                                "(default: 50)")

    slo_cmd = commands.add_parser(
        "slo", help="evaluate service-level objectives")
    slo_actions = slo_cmd.add_subparsers(dest="slo_action",
                                         required=True,
                                         metavar="action")
    slo_status = slo_actions.add_parser(
        "status", help="print the SLO report; exit 1 when any "
                       "objective is breached")
    slo_status.add_argument("--url", default=None,
                            help="fetch the report from a running "
                                 "server's GET /slo instead of "
                                 "self-hosting a service")
    slo_status.add_argument("--index", default=None,
                            help="saved index to self-host a fleet "
                                 "against (alternative to --url)")
    slo_status.add_argument("--random", type=int, default=200,
                            metavar="N",
                            help="query pairs to drive through the "
                                 "self-hosted fleet (default: 200)")
    slo_status.add_argument("--mode", default="distance",
                            choices=QUERY_MODES,
                            help="query mode (default: distance)")
    slo_status.add_argument("--seed", type=int, default=0,
                            help="seed for pair sampling")
    slo_status.add_argument("--workers", type=int, default=2,
                            help="fleet size for --index mode "
                                 "(default: 2)")
    slo_status.add_argument("--audit-rate", type=float, default=1.0,
                            metavar="R",
                            help="oracle audit rate in --index mode "
                                 "(default: 1.0)")

    inspect_cmd = commands.add_parser(
        "inspect", help="print a saved index's header and array "
                        "layout without loading it")
    inspect_cmd.add_argument("path",
                             help="saved index (npz archive or packed "
                                  "store)")

    store_cmd = commands.add_parser(
        "store", help="manage packed out-of-core label stores")
    store_actions = store_cmd.add_subparsers(dest="store_action",
                                             required=True,
                                             metavar="action")
    pack_cmd = store_actions.add_parser(
        "pack", help="pack a saved ppl/parent-ppl index into the "
                     "memmap-servable container")
    pack_cmd.add_argument("--index", required=True,
                          help="saved index (build command output)")
    pack_cmd.add_argument("--out", required=True,
                          help="output path for the packed store")
    pack_cmd.add_argument("--head-width", type=int, default=None,
                          metavar="W",
                          help="dense head columns pinned in RAM "
                               "(default: 32)")
    pack_cmd.add_argument("--hot-rows", type=int, default=None,
                          metavar="N",
                          help="highest-rank hub label rows pinned at "
                               "open (default: 32)")
    pack_cmd.add_argument("--page-bytes", type=int, default=None,
                          help="payload alignment (power of two, "
                               "default: 4096)")
    store_inspect_cmd = store_actions.add_parser(
        "inspect", help="print a packed store's tier layout")
    store_inspect_cmd.add_argument("path", help="packed store file")

    profile_cmd = commands.add_parser(
        "profile", help="sampling profiler: run a workload under the "
                        "profiler, or roll up a folded-stack file")
    profile_actions = profile_cmd.add_subparsers(
        dest="profile_action", required=True, metavar="action")
    profile_run_cmd = profile_actions.add_parser(
        "run", help="answer a query workload under the sampling "
                    "profiler and emit folded stacks")
    profile_run_cmd.add_argument("--index", required=True,
                                 help="path written by the build "
                                      "command")
    profile_run_cmd.add_argument("--mode", default="distance",
                                 choices=QUERY_MODES,
                                 help="what to compute per pair")
    profile_run_cmd.add_argument("--random", type=int, default=200,
                                 metavar="N",
                                 help="random pairs cycled for the "
                                      "duration (default: 200)")
    profile_run_cmd.add_argument("--seed", type=int, default=0,
                                 help="seed for pair sampling")
    profile_run_cmd.add_argument("--cache", type=int, default=0,
                                 help="LRU result cache size (default "
                                      "off, so the profile shows real "
                                      "query work)")
    profile_run_cmd.add_argument("--seconds", type=float, default=2.0,
                                 help="profiling window (default: 2)")
    profile_run_cmd.add_argument("--hz", type=float, default=None,
                                 help="sampling rate (default: 67)")
    profile_run_cmd.add_argument("--out", default=None,
                                 help="write folded stacks here "
                                      "(flamegraph.pl / speedscope "
                                      "input) instead of stdout")
    profile_run_cmd.add_argument("--top", type=int, default=10,
                                 metavar="N",
                                 help="hottest-frames rows to print "
                                      "(0: none)")
    profile_top_cmd = profile_actions.add_parser(
        "top", help="print the hottest frames of a folded-stack file")
    profile_top_cmd.add_argument("path",
                                 help="folded-stack file (profile run "
                                      "--out, or GET /profile output)")
    profile_top_cmd.add_argument("-n", "--count", type=int, default=15,
                                 help="rows to print (default: 15)")

    partition_cmd = commands.add_parser(
        "partition", help="partition a stand-in and report quality")
    partition_cmd.add_argument("--dataset", required=True,
                               help="stand-in dataset to partition")
    partition_cmd.add_argument("--shards", type=int, default=4,
                               help="number of shards (default: 4)")
    partition_cmd.add_argument("--method", default="bfs",
                               choices=PARTITION_METHODS,
                               help="partitioning method")
    partition_cmd.add_argument("--seed", type=int, default=0,
                               help="seed for BFS-growth tie-breaking")
    partition_cmd.add_argument("--out", default=None,
                               help="save the partition map (npz) for "
                                    "build --partition-file")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.experiment == "build":
        return _run_build(args)
    if args.experiment == "query":
        return _run_query(args)
    if args.experiment == "update":
        return _run_update(args)
    if args.experiment == "serve":
        return _run_serve(args)
    if args.experiment == "stats":
        return _run_stats(args)
    if args.experiment == "trace":
        return _run_trace(args)
    if args.experiment == "slo":
        return _run_slo(args)
    if args.experiment == "inspect":
        return _run_inspect(args)
    if args.experiment == "store":
        return _run_store(args)
    if args.experiment == "profile":
        return _run_profile(args)
    if args.experiment == "partition":
        return _run_partition(args)
    runner = _EXPERIMENTS[args.experiment]
    accepted = _accepts(runner)
    kwargs = {}
    if args.datasets is not None:
        kwargs["names"] = args.datasets
    if args.pairs is not None and "pairs" in accepted:
        kwargs["num_pairs"] = args.pairs
    if args.landmarks is not None and "landmarks" in accepted:
        kwargs["landmark_counts"] = args.landmarks
    if args.ops is not None and "ops" in accepted:
        kwargs["num_ops"] = args.ops
    rows = runner(**kwargs)
    print(harness.format_rows(rows))
    return 0


def _accepts(runner) -> Set[str]:
    """Map a runner signature to the set of CLI flags it understands.

    Returned as a *set* so membership tests are exact — a space-joined
    string matched with substring ``in`` would silently accept any
    flag whose name is a substring of another.
    """
    import inspect

    params = inspect.signature(runner).parameters
    accepted = set()
    if "num_pairs" in params:
        accepted.add("pairs")
    if "landmark_counts" in params:
        accepted.add("landmarks")
    if "num_ops" in params:
        accepted.add("ops")
    return accepted


# ----------------------------------------------------------------------
# build / query subcommands
# ----------------------------------------------------------------------

def _parse_params(items: List[str]) -> dict:
    """``KEY=VALUE`` pairs -> kwargs; values parsed as JSON or kept
    as strings, dashes in keys normalized to underscores."""
    params = {}
    for item in items:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ReproError(
                f"--param needs KEY=VALUE, got {item!r}"
            )
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        params[key.replace("-", "_")] = value
    return params


def _run_build(args) -> int:
    from .directed import DiGraph
    from .workloads import load_dataset

    graph = load_dataset(args.dataset)
    params = _parse_params(args.param)
    sharded = args.method == "sharded"
    jobs_methods = {"ppl", "parent-ppl", "dynamic"}
    if args.jobs is not None:
        if args.jobs < 1:
            raise ReproError("--jobs must be >= 1")
        if not (sharded or args.method in jobs_methods):
            raise ReproError(
                "--jobs only applies to the label families "
                "(ppl, parent-ppl, dynamic) and sharded builds")
        params.setdefault("jobs", args.jobs)
    if args.shards is not None and args.partition_file is not None:
        raise ReproError("give --shards or --partition-file, not both")
    if args.shards is not None:
        if not sharded:
            raise ReproError("--shards only applies to --method sharded")
        params["num_shards"] = args.shards
    if args.partition_file is not None:
        if not sharded:
            raise ReproError(
                "--partition-file only applies to --method sharded")
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
    rows = [{"key": key, "value": value}
            for key, value in index.stats.items()]
    print(harness.format_rows(rows, columns=("key", "value")))
    print(f"saved {args.method} index for {args.dataset!r} "
          f"to {args.out}")
    return 0


def _run_query(args) -> int:
    index = load_index(args.index)
    if args.pair:
        pairs = [tuple(pair) for pair in args.pair]
    elif args.random is not None:
        if args.random <= 0:
            raise ReproError("--random needs a positive pair count")
        from .workloads import sample_pairs

        pairs = sample_pairs(index.graph, args.random, seed=args.seed)
    else:
        raise ReproError("give --pair U V (repeatable) or --random N")
    session = QuerySession(index, QueryOptions(
        mode=args.mode,
        time_budget=args.budget,
        collect_stats=True,
        cache_size=args.cache,
    ))
    report = session.run(pairs)
    rows = [{
        "u": record.u,
        "v": record.v,
        args.mode: _render_value(record.value),
        "ms": record.seconds * 1000.0,
        "cached": "yes" if record.cached else "-",
    } for record in report.records]
    print(harness.format_rows(rows))
    aggregate = report.aggregate_stats()
    summary = (f"{aggregate['num_queries']} queries in "
               f"{aggregate['elapsed_seconds'] * 1000.0:.2f}ms "
               f"(mean {aggregate['mean_query_ms']:.3f}ms, "
               f"{aggregate['cache_hits']} cache hits)")
    if report.truncated:
        summary += " [truncated by --budget]"
    print(summary)
    return 0


def _run_update(args) -> int:
    from .dynamic import DYNAMIC_FAMILIES, DynamicIndex
    from .workloads import generate_update_stream, read_update_stream

    if (args.stream is None) == (args.random_ops is None):
        raise ReproError("give exactly one of --stream or --random-ops")
    index = load_index(args.index)
    if index.directed:
        raise ReproError(
            "the dynamic subsystem maintains undirected indexes; "
            f"{index.method!r} is directed"
        )
    if isinstance(index, DynamicIndex):
        if args.threshold is not None:
            index.rebuild_threshold = args.threshold
    elif index.method in DYNAMIC_FAMILIES:
        index = DynamicIndex.from_static(
            index, rebuild_threshold=args.threshold)
        print(f"promoted {index.family!r} index to dynamic")
    else:
        print(f"rebuilding {index.method!r} index as dynamic (ppl "
              f"labels over the same graph)")
        index = DynamicIndex.build(
            index.graph, rebuild_threshold=args.threshold)

    if args.stream is not None:
        ops = read_update_stream(args.stream)
    else:
        if args.random_ops <= 0:
            raise ReproError("--random-ops needs a positive op count")
        ops = generate_update_stream(index.graph, args.random_ops,
                                     seed=args.seed)
    session = QuerySession(index, QueryOptions(mode=args.mode,
                                               cache_size=256))
    rows = []
    for op in ops:
        kind, u, v = op
        if kind == "query":
            record = session.query(u, v)
            rows.append({"op": op.symbol, "u": u, "v": v,
                         args.mode: _render_value(record.value),
                         "ms": record.seconds * 1000.0})
        else:
            changed = (index.insert_edge(u, v) if kind == "insert"
                       else index.remove_edge(u, v))
            rows.append({"op": op.symbol, "u": u, "v": v,
                         args.mode: "applied" if changed else "no-op",
                         "ms": None})
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


def _run_serve(args) -> int:
    from .serving import QueryService, make_server, run_closed_loop
    from .workloads import sample_pairs_hotspot

    if args.smoke is not None and args.smoke <= 0:
        raise ReproError("--smoke needs a positive request count")
    index = _load_serving_index(args)
    options = QueryOptions(mode=args.mode, cache_size=args.cache,
                           time_budget=args.budget,
                           slow_query_ms=args.slow_ms)
    with QueryService(index,
                      num_workers=args.workers,
                      options=options,
                      store=args.store,
                      max_batch=args.batch,
                      max_pending=args.queue_depth,
                      audit_rate=args.audit_rate) as service:
        if args.trace_rate:
            service.set_trace_rate(args.trace_rate)
        stats = service.stats()
        print(f"serving {stats['method']!r} index "
              f"(|V|={index.graph.num_vertices}) with "
              f"{stats['num_workers']} workers, "
              f"store={stats['store']}, mode={args.mode}")
        if args.smoke is not None:
            pairs = sample_pairs_hotspot(index.graph, args.smoke,
                                         seed=args.seed)
            report = run_closed_loop(service.submit, pairs,
                                     num_clients=8)
            print(report.format())
            stats = service.stats()
            print(f"batches: {stats['batches']}, deduplicated: "
                  f"{stats['deduplicated']}, epoch: {stats['epoch']}")
            return 0
        server = make_server(service, host=args.host, port=args.port,
                             verbose=True)
        host, port = server.server_address[:2]
        # The readiness line prints inside, *after* the signal
        # handlers are installed — a supervisor that signals the
        # moment it sees "listening" must hit the graceful path.
        _serve_until_signalled(
            server,
            f"listening on http://{host}:{port} "
            f"(POST /query, POST /update, GET /stats, GET /metrics, "
            f"GET/POST /trace, GET /traces, GET /slo, GET /profile, "
            f"GET /healthz; Ctrl-C to stop)")
        print("draining batcher and stopping workers")
        # Falling out of the ``with`` closes the service: the batcher
        # drains its in-flight batches and the worker pool is joined
        # (terminated if a worker hangs) — no orphaned processes.
    return 0


def _serve_until_signalled(server, ready_message: str) -> None:
    """Run the HTTP loop until SIGINT/SIGTERM, then stop it cleanly.

    A bare SIGTERM would kill the process without running any cleanup,
    leaving the pool's worker processes orphaned mid-batch; a SIGINT
    raises KeyboardInterrupt at an arbitrary point in the serving
    loop. Both are mapped to an orderly ``server.shutdown()`` instead.
    The call must come from another thread: the handler runs on the
    main thread, which is inside ``serve_forever`` — shutting down
    in-line would deadlock waiting for its own loop to exit.
    """
    import signal
    import threading

    def _graceful(signum, frame):
        print(f"\nreceived {signal.Signals(signum).name}, "
              f"shutting down", flush=True)
        threading.Thread(target=server.shutdown, daemon=True,
                         name="repro-serving-shutdown").start()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _graceful)
        except (ValueError, OSError):  # pragma: no cover - non-main
            pass
    print(ready_message, flush=True)
    try:
        server.serve_forever()
    finally:
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass
        server.server_close()


def _run_stats(args) -> int:
    from .obs import get_registry
    from .workloads import sample_pairs

    if args.random <= 0:
        raise ReproError("--random needs a positive pair count")
    index = load_index(args.index)
    pairs = sample_pairs(index.graph, args.random, seed=args.seed)
    session = QuerySession(index, QueryOptions(
        mode=args.mode,
        cache_size=args.cache,
        collect_stats=True,
    ))
    report = session.run(pairs)
    snap = get_registry().snapshot()
    rows = [{"kind": "counter", "series": name, "value": value}
            for name, value in sorted(snap["counters"].items())]
    rows += [{"kind": "gauge", "series": name, "value": value}
             for name, value in sorted(snap["gauges"].items())]
    print(harness.format_rows(rows, columns=("kind", "series",
                                             "value")))
    histogram_rows = [{
        "histogram": name,
        "count": summary["count"],
        "p50_ms": summary["p50"] * 1000.0,
        "p99_ms": summary["p99"] * 1000.0,
        "sum_ms": summary["sum"] * 1000.0,
    } for name, summary in sorted(snap["histograms"].items())
        if summary["count"]]
    if histogram_rows:
        print(harness.format_rows(
            histogram_rows,
            columns=("histogram", "count", "p50_ms", "p99_ms",
                     "sum_ms")))
    aggregate = report.aggregate_stats()
    print(f"{aggregate['num_queries']} {args.mode} queries in "
          f"{aggregate['elapsed_seconds'] * 1000.0:.2f}ms against "
          f"{index.method!r}; the same series are served on "
          f"GET /metrics under 'repro serve'")
    return 0


def _run_trace(args) -> int:
    from .obs import format_span_tree

    if args.u == "export":
        return _run_trace_export(args)
    if args.u == "validate":
        return _run_trace_validate(args)
    if args.index is None:
        raise ReproError("--index is required to trace a query")
    if args.v is None:
        raise ReproError("trace needs both a source and a target "
                         "vertex")
    try:
        u, v = int(args.u), int(args.v)
    except ValueError:
        raise ReproError(
            f"vertices must be integers (or use the 'export' / "
            f"'validate' actions), got {args.u!r} {args.v!r}")
    args.u, args.v = u, v
    index = load_index(args.index)
    num_vertices = index.graph.num_vertices
    for vertex in (args.u, args.v):
        if not 0 <= vertex < num_vertices:
            raise ReproError(
                f"vertex {vertex} out of range "
                f"[0, {num_vertices})")
    # Cache off, sampling 1.0: the second query is the printed trace;
    # the first warms lazy state (page faults, allocator pools) so the
    # tree reflects steady-state stage costs.
    session = QuerySession(index, QueryOptions(
        mode=args.mode, cache_size=0, trace_sample=1.0))
    session.query(args.u, args.v)
    record = session.query(args.u, args.v)
    root = session.last_trace
    if root is None:  # pragma: no cover - sampling 1.0 always traces
        raise ReproError("query produced no trace")
    print(format_span_tree(root))
    print(f"{args.mode}({args.u}, {args.v}) = "
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


def _run_trace_export(args) -> int:
    from .obs import validate_chrome_trace

    base = args.url.rstrip("/")
    limit = max(1, min(int(args.limit), 1000))
    payload = _fetch_json(f"{base}/traces?format=chrome"
                          f"&limit={limit}")
    problems = validate_chrome_trace(payload)
    if problems:
        for problem in problems:
            print(f"invalid: {problem}", file=sys.stderr)
        return 1
    text = json.dumps(payload, indent=2, sort_keys=True)
    events = len(payload.get("traceEvents", []))
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {events} trace events to {args.out}; open it "
              f"at https://ui.perfetto.dev or chrome://tracing")
    else:
        print(text)
    return 0


def _run_trace_validate(args) -> int:
    from .obs import validate_chrome_trace

    if args.v is None:
        raise ReproError("trace validate needs a file path")
    path = Path(args.v)
    if not path.exists():
        raise ReproError(f"no such trace file: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        print(f"invalid: not JSON ({exc})", file=sys.stderr)
        return 1
    problems = validate_chrome_trace(payload)
    if problems:
        for problem in problems:
            print(f"invalid: {problem}", file=sys.stderr)
        return 1
    events = payload.get("traceEvents", [])
    spans = sum(1 for event in events if event.get("ph") == "X")
    print(f"ok: {len(events)} events ({spans} spans) conform to the "
          f"Chrome trace-event schema")
    return 0


def _run_slo(args) -> int:
    if args.slo_action != "status":  # pragma: no cover - argparse
        raise ReproError(f"unknown slo action {args.slo_action!r}")
    if (args.url is None) == (args.index is None):
        raise ReproError("slo status needs exactly one of --url or "
                         "--index")
    if args.url is not None:
        report = _fetch_json(f"{args.url.rstrip('/')}/slo")
    else:
        report = _slo_self_hosted_report(args)
    _print_slo_report(report)
    return 1 if report.get("breached") else 0


def _slo_self_hosted_report(args) -> dict:
    """Drive a short-lived fleet against ``--index`` and score it."""
    from .serving import QueryService
    from .workloads import sample_pairs

    if args.random <= 0:
        raise ReproError("--random needs a positive pair count")
    index = load_index(args.index)
    pairs = sample_pairs(index.graph, args.random, seed=args.seed)
    options = QueryOptions(mode=args.mode, cache_size=0)
    with QueryService(index, num_workers=args.workers,
                      options=options,
                      audit_rate=args.audit_rate) as service:
        for u, v in pairs:
            service.submit(u, v, mode=args.mode).result(timeout=60.0)
        if service.auditor is not None:
            service.auditor.flush()
        return service.slo_status()


def _print_slo_report(report: dict) -> None:
    rows = []
    for name, entry in sorted(report.get("objectives", {}).items()):
        burn = entry.get("burn_rates") or {}
        worst = max(burn.values()) if burn else float(
            entry.get("value", 0.0) or 0.0)
        rows.append({
            "objective": name,
            "kind": entry.get("kind", "?"),
            "status": "BREACHED" if entry.get("breached") else "ok",
            "burn_or_value": round(worst, 4),
            "budget_left": round(
                float(entry.get("budget_remaining", 1.0)), 4),
        })
    print(harness.format_rows(rows, columns=(
        "objective", "kind", "status", "burn_or_value",
        "budget_left")))
    verdict = "BREACHED" if report.get("breached") else "ok"
    print(f"slo status: {verdict} over windows "
          f"{report.get('windows', [])}")


def _run_inspect(args) -> int:
    from .engine import describe_index

    description = describe_index(args.path)
    _print_description(args.path, description)
    return 0


def _run_store(args) -> int:
    if args.store_action == "pack":
        return _run_store_pack(args)
    return _run_store_inspect(args)


def _run_store_pack(args) -> int:
    from .store import (
        DEFAULT_HEAD_WIDTH,
        DEFAULT_HOT_ROWS,
        DEFAULT_PAGE_BYTES,
        pack_index_store,
    )
    from .engine import describe_index

    header = pack_index_store(
        args.index, args.out,
        head_width=(args.head_width if args.head_width is not None
                    else DEFAULT_HEAD_WIDTH),
        hot_rows=(args.hot_rows if args.hot_rows is not None
                  else DEFAULT_HOT_ROWS),
        page_bytes=(args.page_bytes if args.page_bytes is not None
                    else DEFAULT_PAGE_BYTES))
    description = describe_index(args.out)
    _print_description(args.out, description)
    hot = sum(spec["nbytes"] for spec in description["arrays"]
              if spec.get("tier") == "hot")
    cold = sum(spec["nbytes"] for spec in description["arrays"]
               if spec.get("tier") == "cold")
    print(f"packed {header['method']!r} index from {args.index} to "
          f"{args.out} (hot tier {hot} B in RAM at open, cold tier "
          f"{cold} B faulted on demand)")
    return 0


def _run_store_inspect(args) -> int:
    from .engine import describe_index
    from .errors import IndexFormatError

    description = describe_index(args.path)
    if description["kind"] != "store":
        raise IndexFormatError(
            f"{args.path}: not a packed store (a "
            f"{description['kind']} index; use 'repro inspect', or "
            f"pack it with 'repro store pack')")
    _print_description(args.path, description)
    return 0


def _print_description(path, description: dict) -> None:
    rows = [{
        "array": spec["name"],
        "dtype": spec["dtype"],
        "shape": "x".join(str(d) for d in spec["shape"]),
        "bytes": spec["nbytes"],
        "tier": spec.get("tier", "-"),
    } for spec in description["arrays"]]
    print(harness.format_rows(
        rows, columns=("array", "dtype", "shape", "bytes", "tier")))
    logical = sum(spec["nbytes"] for spec in description["arrays"])
    print(f"{path}: {description['format']} v{description['version']} "
          f"({description['kind']}), method={description['method']!r}, "
          f"{len(description['arrays'])} arrays, {logical} logical "
          f"bytes, {description['file_bytes']} on disk")


def _run_profile(args) -> int:
    if args.profile_action == "top":
        return _run_profile_top(args)
    return _run_profile_run(args)


def _run_profile_run(args) -> int:
    import time

    from .obs.profiler import (
        DEFAULT_HZ,
        SamplingProfiler,
        render_folded,
        top_frames,
    )
    from .workloads import sample_pairs

    if args.random <= 0:
        raise ReproError("--random needs a positive pair count")
    if args.seconds <= 0:
        raise ReproError("--seconds must be positive")
    index = load_index(args.index)
    pairs = sample_pairs(index.graph, args.random, seed=args.seed)
    session = QuerySession(index, QueryOptions(
        mode=args.mode, cache_size=args.cache))
    hz = args.hz if args.hz is not None else DEFAULT_HZ
    profiler = SamplingProfiler(hz)
    deadline = time.monotonic() + args.seconds
    queries = 0
    with profiler:
        # Cycle the sampled pairs until the window closes; the
        # deadline is checked per query so one slow pair cannot
        # overrun the window by a whole sweep.
        while time.monotonic() < deadline:
            for u, v in pairs:
                session.query(u, v)
                queries += 1
                if time.monotonic() >= deadline:
                    break
    counts = profiler.folded()
    folded = render_folded(counts)
    if args.out is not None:
        # render_folded already ends with a newline when non-empty.
        with open(args.out, "w") as handle:
            handle.write(folded)
        print(f"wrote {len(counts)} folded stacks "
              f"({profiler.sample_count} samples) to {args.out}")
    else:
        print(folded)
    if args.top:
        rows = [{"frame": frame, "samples": count,
                 "share": f"{count / max(1, profiler.sample_count):.1%}"}
                for frame, count in top_frames(counts, args.top)]
        if rows:
            print(harness.format_rows(
                rows, columns=("frame", "samples", "share")))
    print(f"{queries} {args.mode} queries in {args.seconds:.1f}s "
          f"window, {profiler.sample_count} samples at {hz:g} Hz on "
          f"{index.method!r}")
    return 0


def _run_profile_top(args) -> int:
    from .obs.profiler import top_frames

    counts: dict = {}
    try:
        with open(args.path, "r") as handle:
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
    except OSError as exc:
        raise ReproError(f"cannot read folded stacks: {exc}")
    total = sum(counts.values())
    rows = [{"frame": frame, "samples": count,
             "share": f"{count / max(1, total):.1%}"}
            for frame, count in top_frames(counts, args.count)]
    print(harness.format_rows(rows,
                              columns=("frame", "samples", "share")))
    print(f"{total} samples over {len(counts)} distinct stacks")
    return 0


def _run_partition(args) -> int:
    from .shard import partition_graph, save_partition
    from .workloads import load_dataset

    if args.shards < 1:
        raise ReproError("--shards must be >= 1")
    graph = load_dataset(args.dataset)
    partition = partition_graph(graph, args.shards,
                                method=args.method, seed=args.seed)
    report = partition.quality_report(graph)
    rows = [{"key": key, "value": value}
            for key, value in report.items()]
    print(harness.format_rows(rows, columns=("key", "value")))
    if args.out is not None:
        save_partition(partition, args.out)
        print(f"saved {partition.num_shards}-shard partition map for "
              f"{args.dataset!r} to {args.out}")
    return 0


def _load_serving_index(args):
    """Resolve the serve command's source index (build or load)."""
    from .dynamic import DYNAMIC_FAMILIES, DynamicIndex

    if args.index is not None:
        index = load_index(args.index)
    else:
        from .workloads import load_dataset

        graph = load_dataset(args.dataset)
        if get_index_class(args.method).directed:
            raise ReproError(
                "the serving subsystem serves undirected stand-ins; "
                f"{args.method!r} is directed"
            )
        index = build_index(graph, args.method,
                            **_parse_params(args.param))
    if args.dynamic and not isinstance(index, DynamicIndex):
        if index.directed:
            raise ReproError("--dynamic requires an undirected index")
        if index.method in DYNAMIC_FAMILIES:
            index = DynamicIndex.from_static(index)
        else:
            index = DynamicIndex.build(index.graph)
        print(f"promoted to a dynamic index over {index.family!r} "
              f"labels")
    return index


def _render_value(value) -> str:
    if value is None:
        return "unreachable"
    if isinstance(value, int):
        return str(value)
    if value.distance is None:
        return "unreachable"
    return f"d={value.distance} |E|={value.num_edges}"


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
