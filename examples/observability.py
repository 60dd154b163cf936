"""Observability: metrics, traces, and a slow-query log in serving.

Run with::

    python examples/observability.py

Scenario: a sharded index is serving skewed (zipf-like hot-key)
traffic and you want to know where the time goes — not on average,
but per stage: session cache, kernel dispatch, per-shard local
answers, boundary gathers, cross-shard relays. The walk-through
serves a sharded index behind the HTTP front-end, turns on per-batch
trace sampling, drives a hot-key load, scrapes ``GET /metrics``
(Prometheus text), and prints the top-3 slowest stages from the
``stage_seconds`` histograms the sampled traces populated.
"""

import json
import re
import urllib.request

from repro import QueryOptions, build_index
from repro.graph import stochastic_block
from repro.serving import QueryService, make_server, run_burst
from repro.workloads import sample_pairs_hotspot


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A community-structured graph and a sharded index over it —
    #    cross-community queries must hop shards, which is exactly
    #    what the stage breakdown makes visible.
    # ------------------------------------------------------------------
    graph = stochastic_block((400, 400, 400), 0.015, 0.001, seed=3)
    index = build_index(graph, "sharded", num_shards=3, inner="ppl")
    print(f"graph: {graph}")
    print(f"index: 3 shards, {index.stats['boundary_vertices']} "
          f"boundary vertices, edge cut {index.stats['edge_cut']}")

    with QueryService(index, num_workers=2,
                      options=QueryOptions(mode="distance",
                                           cache_size=512),
                      max_batch=128) as service:
        server = make_server(service)
        server.serve_in_background()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        print(f"listening on {base}")

        def post(path: str, payload: dict) -> dict:
            request = urllib.request.Request(
                base + path,
                data=json.dumps(payload).encode("utf-8"),
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request) as reply:
                return json.loads(reply.read())

        # --------------------------------------------------------------
        # 2. Turn on trace sampling through the HTTP knob: every 4th
        #    batch runs under a trace in its worker, and the per-stage
        #    wall times ride back to the parent registry with the
        #    batch response.
        # --------------------------------------------------------------
        print(f"trace sampling: {post('/trace', {'rate': 0.25})}")

        # --------------------------------------------------------------
        # 3. Zipf-style load: most requests hit a small hot set (the
        #    batcher deduplicates those while they wait, and answers
        #    them from its result cache once computed), the rest
        #    scatter.
        # --------------------------------------------------------------
        reads = sample_pairs_hotspot(graph, 2000, seed=9,
                                     hot_fraction=0.8,
                                     num_hot_pairs=32)
        report = run_burst(service.submit, reads, num_clients=8,
                           submit_many=service.submit_many,
                           chunk_size=64)
        print(f"\nlatency report: {report.format()}")

        # --------------------------------------------------------------
        # 4. Scrape GET /metrics — plain Prometheus text, the same
        #    series `repro stats` prints and stats() aliases.
        # --------------------------------------------------------------
        with urllib.request.urlopen(base + "/metrics") as reply:
            text = reply.read().decode("utf-8")
        wanted = ("serving_submitted_total", "serving_answered_total",
                  "serving_deduplicated_total",
                  "serving_cache_hits_total", "serving_epoch")
        print("\nscraped /metrics samples:")
        for line in text.splitlines():
            if line.startswith(wanted):
                print(f"  {line}")

        # --------------------------------------------------------------
        # 5. Top-3 slowest stages, computed from the stage_seconds
        #    histograms the sampled traces populated: per stage, the
        #    scraped _sum over _count is the mean wall time.
        # --------------------------------------------------------------
        sums = dict(re.findall(
            r'stage_seconds_sum\{stage="([^"]+)"\} ([0-9.e+-]+)',
            text))
        counts = dict(re.findall(
            r'stage_seconds_count\{stage="([^"]+)"\} ([0-9.e+-]+)',
            text))
        means = sorted(
            ((float(sums[stage]) / float(counts[stage]), stage)
             for stage in sums if float(counts[stage])),
            reverse=True)
        print("\ntop-3 slowest stages (mean per sampled occurrence):")
        for mean_seconds, stage in means[:3]:
            print(f"  {stage:<18} {mean_seconds * 1e3:8.3f} ms "
                  f"(x{int(float(counts[stage]))})")

        stats = service.stats()
        print(f"\nstats() aliases agree with /metrics: "
              f"submitted={stats['submitted']}, "
              f"answered={stats['answered']}, "
              f"deduplicated={stats['deduplicated']}")

        server.shutdown()
        server.server_close()


if __name__ == "__main__":
    main()
