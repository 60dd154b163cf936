"""The query answer type: a shortest path graph (SPG).

Definition 2.2 of the paper: for vertices ``u`` and ``v`` of ``G``, the
SPG ``G_uv`` is the subgraph whose edge set is the union of the edges
of *all* shortest ``u``–``v`` paths (and whose vertex set is the union
of their vertices). :class:`ShortestPathGraph` is the value returned by
every query method in this library — QbS, all baselines and the
directed index — so results are directly comparable.

An SPG is a DAG levelled by ``d(source, ·)`` whose every edge joins
consecutive levels, so each edge's orientation is implied by the
source and one stored edge set serves undirected and directed answers:
``directed`` only says whether ``(source, target)`` is an ordered
pair, and ``arcs`` is the oriented view either way.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..errors import QueryError

__all__ = ["ShortestPathGraph"]

Edge = Tuple[int, int]


def _normalize(u: int, v: int) -> Edge:
    return (u, v) if u <= v else (v, u)


class ShortestPathGraph:
    """Immutable shortest path graph between ``source`` and ``target``.

    ``distance`` is ``None`` when the endpoints are disconnected (the
    edge set is then empty); ``0`` when ``source == target``.
    ``directed`` marks the answer to a directed ``source -> target``
    query: its endpoints are ordered, so it never equals the SPG of
    the reverse pair (nor any undirected SPG).
    """

    __slots__ = ("source", "target", "distance", "directed", "_edges",
                 "_adjacency")

    def __init__(self, source: int, target: int,
                 distance: Optional[int],
                 edges, directed: bool = False) -> None:
        self.source = int(source)
        self.target = int(target)
        self.distance = None if distance is None else int(distance)
        self.directed = bool(directed)
        normalized = frozenset(_normalize(int(a), int(b)) for a, b in edges)
        if self.distance in (None, 0) and normalized:
            raise QueryError(
                "an SPG with no path (or a trivial one) cannot have edges"
            )
        self._edges: FrozenSet[Edge] = normalized
        self._adjacency: Optional[Dict[int, List[int]]] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls, source: int, target: int,
              directed: bool = False) -> "ShortestPathGraph":
        """SPG for a disconnected pair."""
        return cls(source, target, None, (), directed)

    @classmethod
    def trivial(cls, vertex: int,
                directed: bool = False) -> "ShortestPathGraph":
        """SPG for ``u == v`` (a single vertex, no edges)."""
        return cls(vertex, vertex, 0, (), directed)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    @property
    def edges(self) -> FrozenSet[Edge]:
        """Frozen set of undirected edges, normalized ``(min, max)``."""
        return self._edges

    @property
    def arcs(self) -> FrozenSet[Edge]:
        """The edges oriented ``(tail, head)`` from ``source`` towards
        ``target`` — the arc set of a directed answer."""
        return frozenset(self.dag_edges())

    @property
    def vertices(self) -> Set[int]:
        """All vertices on at least one shortest path (endpoints always)."""
        result = {self.source, self.target}
        for a, b in self._edges:
            result.add(a)
            result.add(b)
        return result

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def is_connected_pair(self) -> bool:
        return self.distance is not None

    def _adj(self) -> Dict[int, List[int]]:
        if self._adjacency is None:
            adjacency: Dict[int, List[int]] = defaultdict(list)
            for a, b in self._edges:
                adjacency[a].append(b)
                adjacency[b].append(a)
            for neighbours in adjacency.values():
                neighbours.sort()
            self._adjacency = dict(adjacency)
        return self._adjacency

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------

    def levels(self) -> Dict[int, int]:
        """BFS levels from ``source`` within the SPG.

        In a valid SPG every vertex sits at its exact ``d(source, x)``
        level, and every edge joins consecutive levels; the validation
        helpers rely on this.
        """
        if not self._edges:
            return {self.source: 0}
        level = {self.source: 0}
        queue = deque([self.source])
        adjacency = self._adj()
        while queue:
            x = queue.popleft()
            for y in adjacency.get(x, ()):
                if y not in level:
                    level[y] = level[x] + 1
                    queue.append(y)
        return level

    def dag_edges(self) -> Iterator[Tuple[int, int]]:
        """Edges oriented from ``source`` towards ``target``."""
        level = self.levels()
        for a, b in self._edges:
            if level[a] + 1 == level[b]:
                yield a, b
            else:
                yield b, a

    def count_paths(self) -> int:
        """Number of distinct shortest paths (exact, DP over the DAG).

        This is the quantity Figure 1 of the paper motivates: pairs at
        equal distance are distinguished by *how many* shortest paths
        join them.
        """
        if self.distance is None:
            return 0
        if self.distance == 0:
            return 1
        level = self.levels()
        ways = defaultdict(int)
        ways[self.source] = 1
        order = sorted(level, key=level.get)
        adjacency = self._adj()
        for x in order:
            for y in adjacency.get(x, ()):
                if level[y] == level[x] + 1:
                    ways[y] += ways[x]
        return ways[self.target]

    def iter_paths(self, limit: Optional[int] = None):
        """Enumerate shortest paths as vertex tuples (DFS over the DAG).

        ``limit`` caps the enumeration; SPGs can encode exponentially
        many paths in linear space, which is exactly why the paper
        refuses to enumerate.
        """
        if self.distance is None:
            return
        if self.distance == 0:
            yield (self.source,)
            return
        level = self.levels()
        adjacency = self._adj()
        produced = 0
        stack: List[Tuple[int, Tuple[int, ...]]] = [(self.source,
                                                     (self.source,))]
        while stack:
            x, path = stack.pop()
            if x == self.target:
                yield path
                produced += 1
                if limit is not None and produced >= limit:
                    return
                continue
            for y in adjacency.get(x, ()):
                if level.get(y) == level[x] + 1:
                    stack.append((y, path + (y,)))

    def edge_betweenness(self) -> Dict[Edge, int]:
        """Number of shortest paths crossing each SPG edge.

        An edge crossed by *every* shortest path is a critical link
        (Shortest Path Common Links problem from the introduction).
        """
        total = self.count_paths()
        if total == 0:
            return {}
        level = self.levels()
        adjacency = self._adj()
        forward = defaultdict(int)
        forward[self.source] = 1
        for x in sorted(level, key=level.get):
            for y in adjacency.get(x, ()):
                if level[y] == level[x] + 1:
                    forward[y] += forward[x]
        backward = defaultdict(int)
        backward[self.target] = 1
        for x in sorted(level, key=level.get, reverse=True):
            for y in adjacency.get(x, ()):
                if level[y] == level[x] - 1:
                    backward[y] += backward[x]
        result: Dict[Edge, int] = {}
        for a, b in self._edges:
            lo, hi = (a, b) if level[a] < level[b] else (b, a)
            result[_normalize(a, b)] = forward[lo] * backward[hi]
        return result

    def critical_edges(self) -> Set[Edge]:
        """Edges lying on every shortest path (common links)."""
        total = self.count_paths()
        return {edge for edge, paths in self.edge_betweenness().items()
                if paths == total and total > 0}

    # ------------------------------------------------------------------
    # Comparisons
    # ------------------------------------------------------------------

    def _key(self):
        """What ``==`` compares; the pair is ordered when directed."""
        pair = (self.source, self.target)
        return (pair if self.directed else frozenset(pair),
                self.distance, self._edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShortestPathGraph):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"ShortestPathGraph({self.source} "
                f"{'->' if self.directed else '~'} {self.target}, "
                f"distance={self.distance}, edges={len(self._edges)})")
