"""Mutable graph overlay: a frozen CSR base plus an edge delta.

Every graph in this library is an immutable CSR :class:`~repro.graph.
csr.Graph` — the right substrate for index construction, but a dead
end for serving live traffic where edges arrive and disappear
continuously. :class:`DeltaGraph` layers a mutable overlay on top of a
frozen base:

* ``added``   — edges present now but absent from the base;
* ``removed`` — base edges deleted from the current view.

The overlay answers the same adjacency surface as :class:`Graph`
(``num_vertices`` / ``num_edges`` / ``degree`` / ``neighbors`` /
``has_edge`` / ``edges`` / ``edge_array`` / ``_check_vertex``), so
per-vertex traversal code runs on either unchanged. Whole-graph
kernels that want raw CSR arrays (``indptr`` / ``indices``) are served
by a **lazily materialized snapshot**: the first access after a
mutation rebuilds a frozen :class:`Graph` of the current view and
caches it until the next mutation, so bursts of reads between
mutations pay the materialization once. ``spg_oracle`` and the BFS
kernels therefore accept a ``DeltaGraph`` directly.

The vertex universe is fixed by the base graph — dynamic maintenance
of the label families (the consumer of this class) keys every array by
vertex id. Grow the id space up front (build the base with a larger
``num_vertices``) when vertices must appear over time.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from ..errors import GraphValidationError
from ..graph.csr import Graph

__all__ = ["DeltaGraph", "normalize_edge"]

Edge = Tuple[int, int]


def normalize_edge(u: int, v: int) -> Edge:
    """Canonical undirected form ``(min, max)``."""
    return (u, v) if u <= v else (v, u)


class DeltaGraph:
    """A mutable view of a frozen CSR base graph.

    Mutations (:meth:`insert_edge` / :meth:`remove_edge`) are O(degree)
    and bump :attr:`version`; reads see the current view. The class
    models the *current* graph only — bookkeeping about what an index
    has or has not absorbed belongs to the index layered on top.
    """

    def __init__(self, base: Graph) -> None:
        self._base = base
        self._added: Dict[int, Set[int]] = {}
        self._removed_adj: Dict[int, Set[int]] = {}
        self._removed: Set[Edge] = set()
        self._num_added = 0
        self._version = 0
        self._snapshot: Optional[Graph] = None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert_edge(self, u: int, v: int) -> bool:
        """Add the undirected edge ``{u, v}`` to the current view.

        Returns ``False`` (a no-op) when the edge is already present;
        re-inserting a removed base edge revives it. Self loops are
        rejected — the substrate stores simple graphs only.
        """
        self._check_endpoints(u, v)
        edge = normalize_edge(u, v)
        if edge in self._removed:
            self._removed.discard(edge)
            self._removed_adj[edge[0]].discard(edge[1])
            self._removed_adj[edge[1]].discard(edge[0])
            self._mutated()
            return True
        if self.has_edge(u, v):
            return False
        self._added.setdefault(edge[0], set()).add(edge[1])
        self._added.setdefault(edge[1], set()).add(edge[0])
        self._num_added += 1
        self._mutated()
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        """Delete the undirected edge ``{u, v}`` from the current view.

        Returns ``False`` (a no-op) when the edge is not present.
        """
        self._check_endpoints(u, v)
        edge = normalize_edge(u, v)
        added_row = self._added.get(edge[0])
        if added_row is not None and edge[1] in added_row:
            added_row.discard(edge[1])
            self._added[edge[1]].discard(edge[0])
            self._num_added -= 1
            self._mutated()
            return True
        if edge not in self._removed and self._base.has_edge(u, v):
            self._removed.add(edge)
            self._removed_adj.setdefault(edge[0], set()).add(edge[1])
            self._removed_adj.setdefault(edge[1], set()).add(edge[0])
            self._mutated()
            return True
        return False

    def _mutated(self) -> None:
        self._version += 1
        self._snapshot = None

    def _check_endpoints(self, u: int, v: int) -> None:
        self._base._check_vertex(u)
        self._base._check_vertex(v)
        if u == v:
            raise GraphValidationError(
                f"cannot mutate self loop ({u}, {v}): the substrate "
                f"stores simple graphs"
            )

    # ------------------------------------------------------------------
    # Adjacency surface (Graph-compatible)
    # ------------------------------------------------------------------

    @property
    def base(self) -> Graph:
        """The frozen CSR graph under the overlay."""
        return self._base

    @property
    def version(self) -> int:
        """Mutation counter; bumps on every applied insert/remove."""
        return self._version

    @property
    def num_vertices(self) -> int:
        return self._base.num_vertices

    @property
    def num_edges(self) -> int:
        return self._base.num_edges + self._num_added - len(self._removed)

    @property
    def num_directed_edges(self) -> int:
        return 2 * self.num_edges

    def degree(self, v: Optional[int] = None):
        if v is None:
            return np.asarray([self.degree(u)
                               for u in range(self.num_vertices)],
                              dtype=np.int64)
        return len(self.neighbors(v))

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbour ids of ``v`` in the current view."""
        row = self._base.neighbors(v)
        removed = self._removed_adj.get(v)
        added = self._added.get(v)
        if not removed and not added:
            return row
        if removed:
            row = row[~np.isin(row, np.fromiter(removed, dtype=np.int32,
                                                count=len(removed)))]
        if added:
            extra = np.fromiter(added, dtype=np.int32, count=len(added))
            row = np.concatenate((row, extra))
            row.sort()
        return row

    def has_edge(self, u: int, v: int) -> bool:
        self._base._check_vertex(u)
        self._base._check_vertex(v)
        edge = normalize_edge(u, v)
        if edge in self._removed:
            return False
        row = self._added.get(edge[0])
        if row is not None and edge[1] in row:
            return True
        return self._base.has_edge(u, v)

    def edges(self) -> Iterator[Edge]:
        """Iterate current undirected edges as ``(u, v)``, ``u < v``."""
        for u, v in self._base.edges():
            if (u, v) not in self._removed:
                yield u, v
        for u in sorted(self._added):
            for v in sorted(self._added[u]):
                if u < v:
                    yield u, v

    def edge_array(self) -> np.ndarray:
        return self.snapshot().edge_array()

    def added_edges(self) -> List[Edge]:
        """Current non-base edges, sorted."""
        return sorted((u, v) for u, row in self._added.items()
                      for v in row if u < v)

    def removed_edges(self) -> List[Edge]:
        """Base edges deleted from the current view, sorted."""
        return sorted(self._removed)

    @property
    def delta_size(self) -> int:
        """Edges by which the view differs from the base."""
        return self._num_added + len(self._removed)

    def _check_vertex(self, v: int) -> None:
        self._base._check_vertex(v)

    # ------------------------------------------------------------------
    # Materialization (raw-CSR consumers: BFS kernels, oracle, build)
    # ------------------------------------------------------------------

    def snapshot(self) -> Graph:
        """The current view as a frozen CSR :class:`Graph`.

        Cached between mutations; O(|V| + |E|) to rebuild after one.
        """
        if self._snapshot is None:
            if self.delta_size == 0:
                self._snapshot = self._base
            else:
                self._snapshot = Graph.from_edges(
                    self.edges(), num_vertices=self.num_vertices)
        return self._snapshot

    @property
    def indptr(self) -> np.ndarray:
        """Row pointers of the materialized snapshot (see above)."""
        return self.snapshot().indptr

    @property
    def indices(self) -> np.ndarray:
        """Adjacency array of the materialized snapshot (see above)."""
        return self.snapshot().indices

    # The dual-CSR names, as on ``Graph``: one CSR serves both sides.
    out_indptr = in_indptr = indptr
    out_indices = in_indices = indices

    def __repr__(self) -> str:
        return (f"DeltaGraph(num_vertices={self.num_vertices}, "
                f"num_edges={self.num_edges}, "
                f"added={self._num_added}, removed={len(self._removed)})")
