"""Directed QbS on a web-style graph.

The paper notes (§2) that QbS "can be easily extended to directed ...
graphs"; `repro.directed` is that extension. On the web, links are
directed: the set of shortest *click paths* from page A to page B is
not the same as from B to A. This example builds a synthetic
hyperlink graph, indexes it with :class:`DirectedQbSIndex`, and shows
asymmetric shortest-path structure.

Run with::

    python examples/directed_web_graph.py
"""

import numpy as np

from repro import build_index, spg_oracle
from repro.directed import DiGraph


def make_web_graph(num_pages=4000, seed=17):
    """Preferential-attachment hyperlink graph: new pages link to
    popular pages; popular pages occasionally link back."""
    rng = np.random.default_rng(seed)
    arcs = []
    popularity = [0, 1]
    arcs.append((1, 0))
    for page in range(2, num_pages):
        num_links = 1 + int(rng.integers(4))
        for _ in range(num_links):
            target = popularity[int(rng.integers(len(popularity)))]
            if target != page:
                arcs.append((page, target))
                popularity.append(target)
        popularity.append(page)
        # Occasional back-link from an established page.
        if rng.random() < 0.3:
            source = popularity[int(rng.integers(len(popularity)))]
            if source != page:
                arcs.append((source, page))
    return DiGraph.from_arcs(arcs, num_vertices=num_pages)


def main() -> None:
    graph = make_web_graph()
    print(f"hyperlink graph: {graph}")

    index = build_index(graph, "qbs-directed", num_landmarks=20)
    print(f"landmarks (most-linked pages): "
          f"{sorted(int(r) for r in index.landmarks)[:10]} ...")

    shown = 0
    for u in range(50, graph.num_vertices, 97):
        v = (u * 31 + 7) % graph.num_vertices
        forward = index.query(u, v)
        backward = index.query(v, u)
        if forward.distance is None and backward.distance is None:
            continue
        shown += 1
        print(f"\npages {u} -> {v}:")
        for label, spg in (("forward", forward), ("backward", backward)):
            if spg.distance is None:
                print(f"  {label:8}: unreachable")
            else:
                print(f"  {label:8}: distance={spg.distance}, "
                      f"{spg.count_paths()} shortest click paths, "
                      f"{spg.num_edges} arcs in the SPG")
        # Exactness check against the double-BFS oracle.
        assert forward == spg_oracle(graph, u, v)
        assert backward == spg_oracle(graph, v, u)
        if shown == 5:
            break

    print("\nall answers verified against the directed BFS oracle")


if __name__ == "__main__":
    main()
