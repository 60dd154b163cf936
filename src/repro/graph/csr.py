"""Immutable compressed-sparse-row (CSR) graph.

This is the substrate every other subsystem builds on. A
:class:`Graph` stores an unweighted, undirected simple graph as two
numpy arrays:

* ``indptr``  — ``int64`` array of length ``n + 1``; the neighbours of
  vertex ``v`` live in ``indices[indptr[v]:indptr[v + 1]]``.
* ``indices`` — ``int32`` array of length ``2 * m`` (each undirected
  edge appears in both endpoint rows), sorted within each row.

The paper treats all twelve datasets as undirected (Table 1 reports
``|E_un|``), so the canonical in-memory form here is undirected and
deduplicated; directed inputs are symmetrized by the builder.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..errors import GraphValidationError, VertexError

__all__ = ["Graph"]


class Graph:
    """Unweighted undirected simple graph in CSR form.

    Instances are immutable: all mutation-style operations return new
    graphs. Construct via :meth:`from_edges` /
    :func:`repro.graph.builder.build_graph`, or from raw CSR arrays
    when they are already validated.
    """

    __slots__ = ("_indptr", "_indices")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, *,
                 validate: bool = True) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int32)
        if validate:
            _validate_csr(indptr, indices)
        self._indptr = indptr
        self._indices = indices
        self._indptr.setflags(write=False)
        self._indices.setflags(write=False)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(cls, edges: Iterable[Tuple[int, int]],
                   num_vertices: Optional[int] = None) -> "Graph":
        """Build a graph from an iterable of ``(u, v)`` pairs.

        Self loops are dropped and parallel edges collapsed; the pairs
        may mention each edge in either or both orientations. When
        ``num_vertices`` is omitted it is inferred as ``max id + 1``.
        """
        from .builder import build_graph

        return build_graph(edges, num_vertices=num_vertices)

    @classmethod
    def empty(cls, num_vertices: int) -> "Graph":
        """An edgeless graph on ``num_vertices`` vertices."""
        if num_vertices < 0:
            raise GraphValidationError("num_vertices must be >= 0")
        return cls(np.zeros(num_vertices + 1, dtype=np.int64),
                   np.empty(0, dtype=np.int32), validate=False)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def indptr(self) -> np.ndarray:
        """Row-pointer array (read-only view)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """Concatenated adjacency array (read-only view)."""
        return self._indices

    # The dual-CSR view the QbS pipeline is written against
    # (``DiGraph`` stores the two sides separately). An undirected
    # graph's successors are its predecessors, so both sides name the
    # one CSR — ``out_indices is in_indices`` is how shared code sees
    # that a graph is symmetric.
    out_indptr = in_indptr = indptr
    out_indices = in_indices = indices

    @property
    def num_vertices(self) -> int:
        return len(self._indptr) - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return len(self._indices) // 2

    @property
    def num_directed_edges(self) -> int:
        """Number of stored arcs (twice :attr:`num_edges`)."""
        return len(self._indices)

    def degree(self, v: Optional[int] = None):
        """Degree of ``v``, or the full degree array when ``v is None``."""
        if v is None:
            return np.diff(self._indptr)
        self._check_vertex(v)
        return int(self._indptr[v + 1] - self._indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbour ids of ``v`` (read-only array view)."""
        self._check_vertex(v)
        return self._indices[self._indptr[v]:self._indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """True iff the undirected edge ``{u, v}`` exists."""
        self._check_vertex(u)
        self._check_vertex(v)
        row = self.neighbors(u)
        pos = np.searchsorted(row, v)
        return bool(pos < len(row) and row[pos] == v)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate undirected edges as ``(u, v)`` with ``u < v``."""
        for u in range(self.num_vertices):
            for v in self.neighbors(u):
                if u < v:
                    yield u, int(v)

    def edge_array(self) -> np.ndarray:
        """All undirected edges as an ``(m, 2)`` array with ``u < v`` rows."""
        n = self.num_vertices
        src = np.repeat(np.arange(n, dtype=np.int32),
                        np.diff(self._indptr))
        mask = src < self._indices
        return np.column_stack((src[mask], self._indices[mask]))

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------

    def remove_vertices(self, vertices: Sequence[int]) -> "Graph":
        """Graph with ``vertices`` (and their incident edges) removed.

        Vertex ids are preserved — removed vertices remain as isolated
        ids so labels and depth arrays stay aligned with the original
        graph. This is exactly the sparsified graph ``G⁻ = G[V \\ R]``
        of Section 4.3 in the paper.
        """
        n = self.num_vertices
        drop = np.zeros(n, dtype=bool)
        vertex_array = np.asarray(list(vertices), dtype=np.int64)
        if len(vertex_array) and (vertex_array.min() < 0
                                  or vertex_array.max() >= n):
            bad = vertex_array[(vertex_array < 0) | (vertex_array >= n)][0]
            raise VertexError(int(bad), n)
        drop[vertex_array] = True

        keep_arc = ~drop[self._indices]
        src = np.repeat(np.arange(n, dtype=np.int32),
                        np.diff(self._indptr))
        keep_arc &= ~drop[src]

        new_indices = self._indices[keep_arc]
        counts = np.bincount(src[keep_arc], minlength=n)
        new_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=new_indptr[1:])
        return Graph(new_indptr, new_indices, validate=False)

    def subgraph_edges(self, edges: Iterable[Tuple[int, int]]) -> "Graph":
        """Graph on the same vertex set containing only ``edges``."""
        from .builder import build_graph

        return build_graph(edges, num_vertices=self.num_vertices)

    # ------------------------------------------------------------------
    # Size accounting (paper Table 1 column |G|)
    # ------------------------------------------------------------------

    def nbytes(self) -> int:
        """Bytes of the CSR arrays actually held in memory."""
        return int(self._indptr.nbytes + self._indices.nbytes)

    def paper_size_bytes(self) -> int:
        """Size under the paper's model: 8 bytes per stored arc.

        Table 1 reports ``|G|`` as "each edge appearing in the adjacency
        lists and being represented by 8 bytes".
        """
        return 8 * self.num_directed_edges

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.num_vertices:
            raise VertexError(v, self.num_vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (np.array_equal(self._indptr, other._indptr)
                and np.array_equal(self._indices, other._indices))

    def __hash__(self) -> int:  # pragma: no cover - identity hashing
        return object.__hash__(self)

    def __repr__(self) -> str:
        return (f"Graph(num_vertices={self.num_vertices}, "
                f"num_edges={self.num_edges})")


def _validate_csr(indptr: np.ndarray, indices: np.ndarray) -> None:
    """Check CSR structural invariants, raising GraphValidationError."""
    if indptr.ndim != 1 or len(indptr) < 1:
        raise GraphValidationError("indptr must be a 1-D array of length >= 1")
    if indptr[0] != 0:
        raise GraphValidationError("indptr must start at 0")
    if indptr[-1] != len(indices):
        raise GraphValidationError(
            f"indptr[-1] ({indptr[-1]}) must equal len(indices) "
            f"({len(indices)})"
        )
    if np.any(np.diff(indptr) < 0):
        raise GraphValidationError("indptr must be non-decreasing")
    n = len(indptr) - 1
    if len(indices) and (indices.min() < 0 or indices.max() >= n):
        raise GraphValidationError("adjacency index out of range")
    if len(indices) == 0:
        return
    # Rows must be strictly sorted (no duplicates) and self-loop free.
    # Vectorized: adjacent differences must be positive except where the
    # pair straddles a row boundary.
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    if np.any(indices == src):
        raise GraphValidationError("graph contains a self loop")
    if len(indices) > 1:
        same_row = src[1:] == src[:-1]
        bad = same_row & (np.diff(indices.astype(np.int64)) <= 0)
        if np.any(bad):
            raise GraphValidationError(
                "adjacency rows must be strictly sorted (duplicate edge?)"
            )
