#!/usr/bin/env python3
"""The benchmark's one command.

    python3 bench/run.py                       every workload, end to end
    python3 bench/run.py --trace               ... plus the traced runs
    python3 bench/run.py --workload NAME       one workload
    python3 bench/run.py --repeat 5 --check    spreads against the bounds
    python3 bench/run.py --selftest            tiny graphs, catalogue check

(``PYTHONPATH=src python -m bench.run`` is the same program.)  The
driver's form is ``--workload NAME --seed N --seconds S --trace 0|1``:
it prints every metric by name with its unit, checks the answers, and
ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is non-zero when an answer was wrong, an
op failed, or the run broke the metric catalogue.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "bench", "out")
DEFAULT_SEED = 12
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def _bootstrap() -> None:
    """Put the repo and its ``src`` on the path; refuse to run without
    the program under test."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"bench: no program to measure: {src}/repro is missing",
              file=sys.stderr)
        raise SystemExit(2)
    for path in (src, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def workers() -> int:
    """Serving workloads use ``W = max(1, nproc - 1)`` workers."""
    return max(1, (os.cpu_count() or 1) - 1)


def adopt_orphans() -> None:
    """Make this process the reaper of all its descendants.

    The service's shared-memory snapshots start multiprocessing's
    resource tracker, here and inside the HTTP server; a tracker ends
    only once its parent is gone, and would then belong to init.  As a
    subreaper this process inherits it instead and can wait for it.
    """
    import ctypes

    pr_set_child_subreaper = 36
    ctypes.CDLL(None).prctl(pr_set_child_subreaper, 1, 0, 0, 0)


def reap_children(patience: float = 10.0) -> None:
    """Wait until every process this run started has ended; after
    ``patience`` seconds, kill what is left."""
    from multiprocessing import resource_tracker

    from bench.metrics import descendants

    # Our own tracker waits for this process to close its pipe.
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    deadline = time.monotonic() + patience
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for pid in descendants(os.getpid()):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:  # its own parent reaped it
                    pass
        time.sleep(0.01)


def machine_header(seed: int) -> dict:
    """Provenance of a result: enough to compare two files honestly."""
    import numpy

    sha = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        probe = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        if probe.returncode == 0:
            sha = probe.stdout.strip()
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "W": workers(), "seed": seed}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, repeats: int = SETUP_REPEATS) -> dict:
    """One run of one workload, in this process."""
    from bench.loadgen import Calibrator
    from bench.metrics import Recorder, median, peak_rss_mb
    from bench.scenarios import SCENARIOS, Context
    from bench.tracer import Tracer
    from bench.workloads import CHECK_PAIRS, WORKLOADS, digest

    inputs = WORKLOADS[name](seed, tiny)
    tracer, rec = Tracer(), Recorder(name, trace)
    workdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    # Anything the program spills to a temp dir stays in the checkout.
    os.environ["TMPDIR"] = workdir
    scenario = SCENARIOS[name](
        inputs, Context(tracer, rec, workdir, workers(), seconds, trace))
    setups = []
    calibrate = Calibrator()
    try:
        for attempt in range(repeats):
            if attempt:
                scenario.teardown()
            # Set-up time reads at reference host speed, like op times:
            # the host's slowness is sampled just before and after.
            slowness = calibrate.factor()
            start = time.perf_counter()
            scenario.setup()
            elapsed = time.perf_counter() - start
            slowness = (slowness + calibrate.factor()) / 2
            setups.append(elapsed / slowness)
        graph = scenario.graph
        header = dict(machine_header(seed), workload=name, seconds=seconds,
                      trace=int(trace), inputs=inputs.digest,
                      graph=digest(graph.indptr, graph.indices))
        print("# " + " ".join(f"{k}={v}" for k, v in header.items()),
              flush=True)

        rec.put("index_mb", scenario.index_mb())
        # What set-up allocated (index, pair lists) is not garbage: keep
        # the collector from re-walking it in the middle of timed ops.
        gc.collect()
        gc.freeze()
        setup_spans = len(tracer)
        timed = scenario.timed()
        op_spans = len(tracer) - setup_spans
        rec.put("peak_rss_mb", peak_rss_mb())
        rec.put("setup_s", median(setups))
        rec.put("throughput_ops_s", timed.throughput())
        rec.put("latency_p50_us", timed.latency_us(0.50))
        rec.put("latency_p95_us", timed.latency_us(0.95))
        failed = timed.failed + scenario.check()
        if trace:
            # Comparing traced with untraced throughput would be simpler,
            # but one 80 ms insert landing on either side moves that by
            # more than all the spans cost.
            traced_seconds = sum(
                seconds for seconds, is_traced
                in zip(timed.slice_seconds, timed.slice_traced) if is_traced)
            rec.layer("graph.generate_s",
                      median(tracer.durations("graph.generate")))
            rec.layer("loadgen.latency_p99_us", timed.latency_us(0.99))
            rec.layer("loadgen.lag_p99_ms", timed.lag_p99_ms())
            rec.layer("loadgen.sent", timed.attempted)
            rec.layer("obs.trace_overhead_fraction",
                      op_spans * tracer.span_cost() / traced_seconds
                      if traced_seconds else 0.0)
            rec.layer("obs.spans", op_spans)
            scenario.layers(timed)
            header["self_seconds"] = tracer.self_seconds()
            tracer.write(os.path.join(OUT, f"trace_{name}.json"), header)
    finally:
        gc.unfreeze()
        try:
            scenario.teardown()
        finally:
            reap_children()
            shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": failed == 0,
              "attempted": timed.attempted + CHECK_PAIRS,
              "failed": failed, "metrics": rec.finish()}
    suffix = "_trace" if trace else ""
    with open(os.path.join(OUT, f"result_{name}{suffix}.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"header": header, **result}, handle, indent=1)
    return result


def print_metrics(name: str, result: dict) -> None:
    for metric, entry in result["metrics"].items():
        print(f"{name:22s} {metric:38s} {entry['value']:>16.6g} "
              f"{entry['unit']}")
    print(f"{name:22s} {'attempted':38s} {result['attempted']:>16d} count")
    print(f"{name:22s} {'failed':38s} {result['failed']:>16d} count",
          flush=True)


def run_child(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One run in its own process, so peak RSS is that workload's own."""
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = child.stdout.strip().splitlines()
    print("\n".join(lines[:-1]), flush=True)
    if child.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{name}: run exited with {child.returncode}")
    return json.loads(lines[-1])


def run_all(names, seed: int, seconds: float, trace: int) -> int:
    results = {}
    for name in names:
        for mode in range(trace + 1):
            key = name + ("#trace" if mode else "")
            results[key] = run_child(name, seed, seconds, mode)
    bad = [key for key, result in results.items() if not result["correct"]]
    print(json.dumps({"correct": not bad, "incorrect": bad,
                      "results": results}))
    return 1 if bad else 0


def run_repeat(names, seed: int, seconds: float, sets: int,
               check: bool) -> int:
    """``sets`` full sets, each with another seed as the driver does;
    prints median, quartiles and spread of every metric by its bound."""
    import statistics

    from bench.metrics import END_TO_END, spread

    values: dict = {}
    for offset in range(sets):
        for name in names:
            result = run_child(name, seed + offset, seconds, 0)
            if not result["correct"]:
                print(f"{name}: incorrect run at seed {seed + offset}")
                return 1
            for metric, entry in result["metrics"].items():
                values.setdefault((name, metric), []).append(entry["value"])
    over = 0
    print(f"{'workload':22s} {'metric':18s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>8s} {'bound':>6s}")
    bounds = {metric: bound for metric, _, _, bound in END_TO_END}
    for (name, metric), series in values.items():
        q1, _, q3 = statistics.quantiles(series, n=4)
        wide = spread(series)
        # setup_s is bounded on its median only, not on its spread.
        flag = ""
        if wide > bounds[metric] and metric != "setup_s":
            over += 1
            flag = "  OVER"
        print(f"{name:22s} {metric:18s} {statistics.median(series):12.5g} "
              f"{q1:12.5g} {q3:12.5g} {wide:8.4f} {bounds[metric]:6.2f}"
              f"{flag}")
    return 1 if check and over else 0


def selftest(seed: int) -> int:
    """Tiny graphs, every workload, both modes: the catalogue, the
    manifest and the trace files must agree with the code."""
    from repro.obs import validate_chrome_trace

    from bench.metrics import END_TO_END, PER_LAYER, manifest
    from bench.workloads import WORKLOADS

    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        if json.load(f) != manifest():
            problems.append("BENCHMARK.json differs from bench.metrics."
                            "manifest(); run --manifest and commit it")
    for name in WORKLOADS:
        for trace, table in ((False, END_TO_END), (True, PER_LAYER)):
            result = run_workload(name, seed, 0.8, trace, tiny=True,
                                  repeats=1)
            print_metrics(name, result)
            declared = [row[0] for row in table]
            if list(result["metrics"]) != declared:
                problems.append(f"{name}: emitted names differ from the "
                                f"catalogue (trace={trace})")
            if any(not entry["unit"] for entry in result["metrics"].values()):
                problems.append(f"{name}: a metric has no unit")
            if not result["correct"]:
                problems.append(f"{name}: {result['failed']} ops failed")
        with open(os.path.join(OUT, f"trace_{name}.json"),
                  encoding="utf-8") as f:
            problems += [f"{name}: trace: {p}"
                         for p in validate_chrome_trace(json.load(f))]
    for problem in problems:
        print("selftest:", problem)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: traced run, per-layer "
                        "metrics and bench/out/trace_<workload>.json")
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="N sets (seed, seed+1, ...) and their spreads")
    parser.add_argument("--check", action="store_true",
                        help="with --repeat: fail if a spread is over "
                        "its bound")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--manifest", action="store_true",
                        help="print BENCHMARK.json as the code defines it")
    args = parser.parse_args(argv)

    _bootstrap()
    from bench.metrics import RUN_SECONDS, manifest
    from bench.workloads import WORKLOADS

    # A killed run must still stop its server and workers.
    adopt_orphans()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(OUT, exist_ok=True)
    seconds = args.seconds if args.seconds is not None else RUN_SECONDS
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    names = [args.workload] if args.workload else list(WORKLOADS)

    if args.manifest:
        print(json.dumps(manifest(), indent=2))
        return 0
    if args.selftest:
        return selftest(args.seed)
    if args.repeat:
        return run_repeat(names, args.seed, seconds, args.repeat, args.check)
    if args.workload is None:
        return run_all(names, args.seed, seconds, args.trace)
    result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    print_metrics(args.workload, result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
