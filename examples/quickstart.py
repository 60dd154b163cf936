"""Quickstart: build a QbS index and answer shortest-path-graph queries.

Run with::

    python examples/quickstart.py

Walks the full public API on a small social-style network: graph
construction, index building, queries, result inspection, and a
cross-check against the online baselines.
"""

import os
import tempfile

from repro import (
    Graph,
    QueryOptions,
    QuerySession,
    available_methods,
    build_index,
    load_index,
    spg_oracle,
)
from repro.graph import barabasi_albert


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Build a graph. Any iterable of (u, v) pairs works; here we use
    #    the paper's Figure 4 example graph (1-indexed in the paper,
    #    0-indexed here).
    # ------------------------------------------------------------------
    figure4_edges = [
        (0, 3), (0, 4), (0, 5), (0, 13), (0, 1),
        (1, 6), (1, 7), (1, 8), (1, 9), (1, 10),
        (2, 3), (2, 11), (2, 12), (2, 13),
        (3, 12), (4, 5), (5, 13), (6, 7),
        (8, 10), (9, 11), (10, 11),
    ]
    graph = Graph.from_edges(figure4_edges)
    print(f"graph: {graph}")

    # ------------------------------------------------------------------
    # 2. Build the index through the engine registry. Every index
    #    family is a string-keyed method ("qbs" is the paper's);
    #    num_landmarks=20 is the paper's default, this toy graph gets
    #    3. Landmarks default to the highest-degree vertices.
    # ------------------------------------------------------------------
    print(f"registered index methods: {available_methods()}")
    index = build_index(graph, method="qbs", num_landmarks=3)
    print(f"landmarks: {sorted(int(r) for r in index.landmarks)}")
    print(f"meta-graph edges: {index.meta_graph.edges}")
    print(f"construction took {index.report.total_seconds * 1e3:.2f} ms")

    # ------------------------------------------------------------------
    # 3. Query. The result is a ShortestPathGraph: exactly the union of
    #    all shortest paths between the endpoints.
    # ------------------------------------------------------------------
    u, v = 6, 12
    spg = index.query(u, v)
    print(f"\nSPG({u}, {v}):")
    print(f"  distance      = {spg.distance}")
    print(f"  edges         = {sorted(spg.edges)}")
    print(f"  #paths        = {spg.count_paths()}")
    print(f"  sample paths  = {list(spg.iter_paths(limit=4))}")
    print(f"  critical edges= {sorted(spg.critical_edges())}")

    # ------------------------------------------------------------------
    # 4. Cross-check against the online baselines — always identical.
    # ------------------------------------------------------------------
    assert spg == spg_oracle(graph, u, v)
    assert spg == build_index(graph, "bibfs").query(u, v)
    print("\ncross-check vs BFS oracle and Bi-BFS: OK")

    # ------------------------------------------------------------------
    # 5. Persist and reload: every family round-trips through one
    #    self-describing npz format; the loader dispatches on the
    #    method recorded in the file.
    # ------------------------------------------------------------------
    handle, path = tempfile.mkstemp(suffix=".idx")
    os.close(handle)
    index.save(path)
    reloaded = load_index(path)
    assert reloaded.query(u, v) == spg
    print(f"saved + reloaded index ({reloaded.method}, "
          f"{os.path.getsize(path)} bytes on disk)")
    os.unlink(path)

    # ------------------------------------------------------------------
    # 6. Batch queries through a session: pick a mode, add an LRU
    #    cache, collect search statistics.
    # ------------------------------------------------------------------
    session = QuerySession(index, QueryOptions(
        mode="count-paths", cache_size=64, collect_stats=True))
    batch = session.run([(6, 12), (0, 9), (6, 12), (4, 11)])
    print(f"batch results (path counts): {batch.results}")
    print(f"  mean query time: {batch.mean_query_ms():.3f} ms, "
          f"cache hits: {batch.cache_hits}")

    # ------------------------------------------------------------------
    # 7. Scale up: a 3,000-vertex hub-dominated graph.
    # ------------------------------------------------------------------
    big = barabasi_albert(3000, m=3, seed=42)
    index = build_index(big, "qbs", num_landmarks=20)
    report = index.report
    print(f"\nbig graph: {big}")
    print(f"construction: {report.total_seconds * 1e3:.1f} ms "
          f"(labelling {report.labelling_seconds * 1e3:.1f} ms)")
    spg = index.query(100, 2500)
    print(f"SPG(100, 2500): distance={spg.distance}, "
          f"edges={spg.num_edges}, paths={spg.count_paths()}")


if __name__ == "__main__":
    main()
