"""Concurrent serving: a query service under live mixed traffic.

Run with::

    python examples/serving.py

Scenario: the index answers shortest-path queries in microseconds —
now it has to do that for many clients at once, over HTTP, while the
graph keeps changing. The walk-through starts a
:class:`~repro.serving.service.QueryService` (worker processes +
request batching + snapshot hot-swaps) on a generated graph, puts a
JSON HTTP endpoint in front of it, fires a mixed read/update workload,
and prints the latency report.
"""

import json
import threading
import urllib.request

from repro import QueryOptions, build_index
from repro.baselines.oracle import distance_oracle
from repro.graph import barabasi_albert
from repro.serving import QueryService, make_server, run_burst
from repro.workloads import generate_update_stream, sample_pairs_hotspot


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A generated social-style graph and a dynamic index over it
    #    (dynamic, so the service can keep absorbing edge updates).
    # ------------------------------------------------------------------
    graph = barabasi_albert(800, 2, seed=21)
    index = build_index(graph, "dynamic")
    print(f"graph: {graph}")

    # ------------------------------------------------------------------
    # 2. The serving stack: 2 worker processes answering from one
    #    mapped snapshot file they share, requests coalesced and
    #    deduplicated into batches, per-worker result caches.
    # ------------------------------------------------------------------
    with QueryService(index, num_workers=2,
                      options=QueryOptions(mode="distance",
                                           cache_size=1024),
                      max_batch=128) as service:
        print(f"service: {service.num_workers} workers, "
              f"epoch {service.epoch}, store "
              f"{service.stats()['store']}")

        # --------------------------------------------------------------
        # 3. An HTTP front-end on an ephemeral port. Any JSON client
        #    works; here urllib plays that role.
        # --------------------------------------------------------------
        server = make_server(service)
        server.serve_in_background()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        print(f"listening on {base}")

        with urllib.request.urlopen(base + "/healthz") as reply:
            print(f"healthz: {json.loads(reply.read())}")

        def post(path: str, payload: dict) -> dict:
            request = urllib.request.Request(
                base + path,
                data=json.dumps(payload).encode("utf-8"),
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request) as reply:
                return json.loads(reply.read())

        answer = post("/query", {"u": 0, "v": 750})["results"][0]
        print(f"d(0, 750) = {answer['value']} "
              f"(served at epoch {answer['epoch']})")

        # --------------------------------------------------------------
        # 4. Mixed read/update traffic: an updater thread pushes edge
        #    changes through POST /update (each hot-swapping a fresh
        #    snapshot), while read clients drive bursts of hot-key
        #    traffic through the *bulk* path — submit_many admits a
        #    whole burst in one pass, the batcher deduplicates it
        #    (symmetric keys: (v, u) coalesces with (u, v) on this
        #    undirected graph), and each worker answers its batch
        #    with a single vectorized distance_many kernel call.
        # --------------------------------------------------------------
        updates = [op for op in generate_update_stream(
            graph, 60, insert_frac=0.5, delete_frac=0.5, seed=5)
            if op.kind != "query"]

        def updater() -> None:
            for start in range(0, len(updates), 8):
                chunk = [[kind, u, v] for kind, u, v
                         in updates[start:start + 8]]
                post("/update", {"ops": chunk})

        reads = sample_pairs_hotspot(graph, 1500, seed=9,
                                     hot_fraction=0.8,
                                     num_hot_pairs=24)
        # Half the hot traffic arrives reversed; symmetric dedup keys
        # make it coalesce with the forward direction anyway.
        reads = [(v, u) if i % 2 else (u, v)
                 for i, (u, v) in enumerate(reads)]
        update_thread = threading.Thread(target=updater)
        update_thread.start()
        report = run_burst(service.submit, reads, num_clients=8,
                           submit_many=service.submit_many,
                           chunk_size=128)
        update_thread.join()

        # --------------------------------------------------------------
        # 5. The latency report, and proof the answers stayed exact
        #    per epoch while the graph changed underneath.
        # --------------------------------------------------------------
        print(f"\nlatency report: {report.format()}")
        stats = service.stats()
        print(f"batches: {stats['batches']}, deduplicated: "
              f"{stats['deduplicated']}, final epoch: "
              f"{stats['epoch']}")

        epochs_seen = sorted({epoch for *_rest, epoch
                              in report.answers})
        checked = 0
        for u, v, value, epoch in report.answers[::25]:
            assert value == distance_oracle(service.graph_at(epoch),
                                            u, v)
            checked += 1
        print(f"answers spanned epochs {epochs_seen}; {checked} "
              f"spot-checks against the BFS oracle of their own "
              f"epoch's graph all passed")

        server.shutdown()
        server.server_close()


if __name__ == "__main__":
    main()
