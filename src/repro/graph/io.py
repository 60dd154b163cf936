"""Reading and writing graphs.

Two formats are supported:

* **Edge-list text** — the format SNAP / KONECT datasets ship in: one
  edge per line, whitespace separated, ``#`` or ``%`` comment lines
  ignored. Directed inputs are symmetrized on load, matching the
  paper's treatment (Table 1's ``|E_un|``). Paths ending in ``.gz``
  are transparently gzip-compressed on both read and write — SNAP
  distributes its large networks exactly this way (``*.txt.gz``).
  For raw downloads with arbitrary, non-contiguous vertex ids,
  :func:`read_snap_edge_list` compacts the ids to ``0..n-1`` and
  returns the original-id mapping; duplicate edges (including both
  orientations) collapse to one.
* **NPZ binary** — compressed numpy container with the CSR arrays;
  loads in milliseconds and round-trips exactly. Written atomically
  under exactly the name given; anything that is not such a file —
  missing, truncated, foreign — is a :class:`GraphFormatError`.
"""

from __future__ import annotations

import gzip
import io
import os
import struct
import zipfile
import zlib
from typing import Iterator, List, Sequence, Tuple, Union

import numpy as np

from .._util import atomic_write
from ..errors import GraphFormatError
from .builder import build_graph
from .csr import Graph

__all__ = [
    "read_edge_list",
    "read_snap_edge_list",
    "write_edge_list",
    "save_npz",
    "load_npz",
    "parse_edge_lines",
]

PathLike = Union[str, "os.PathLike[str]"]

_COMMENT_PREFIXES = ("#", "%", "//")

#: What ``np.load`` and reading its members raise on a file that is
#: not a whole npz: missing, foreign, or cut short (the last three come
#: from a truncated member as it decompresses).
NPZ_READ_ERRORS = (zipfile.BadZipFile, OSError, ValueError, EOFError,
                   struct.error, zlib.error)


def _open_text(path: PathLike, mode: str):
    """Open a text file, transparently gzip-decoding ``*.gz`` paths."""
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def parse_edge_lines(lines) -> Iterator[Tuple[int, int]]:
    """Yield ``(u, v)`` pairs from edge-list lines.

    Blank lines and comment lines are skipped; extra columns (weights,
    timestamps — KONECT files carry them) are ignored.
    """
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith(_COMMENT_PREFIXES):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise GraphFormatError(
                f"line {line_number}: expected at least two columns, "
                f"got {line!r}"
            )
        try:
            yield int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(
                f"line {line_number}: non-integer vertex id in {line!r}"
            ) from exc


def read_edge_list(path_or_file, num_vertices=None) -> Graph:
    """Load an edge-list file (path, file object, or text) as a graph.

    Paths ending in ``.gz`` are decompressed on the fly. Vertex ids
    are taken literally (``num_vertices`` defaults to ``max id + 1``);
    use :func:`read_snap_edge_list` for raw downloads whose ids are
    sparse or non-contiguous.
    """
    if isinstance(path_or_file, (str, os.PathLike)):
        with _open_text(path_or_file, "r") as handle:
            edges = list(parse_edge_lines(handle))
    elif isinstance(path_or_file, io.TextIOBase):
        edges = list(parse_edge_lines(path_or_file))
    else:
        raise GraphFormatError(
            "read_edge_list expects a path or a text file object"
        )
    return build_graph(edges, num_vertices=num_vertices)


def read_snap_edge_list(path_or_file) -> Tuple[Graph, np.ndarray]:
    """Load a SNAP-style edge list, compacting arbitrary vertex ids.

    SNAP downloads use the original dataset ids — non-contiguous,
    often enormous (a 4M-vertex graph can mention id 4294967295).
    Loading those literally would allocate ``max id + 1`` CSR rows, so
    this reader relabels: ids are mapped to ``0..n-1`` in ascending
    original-id order. Duplicate edges — including the same edge in
    both orientations, common in symmetrized dumps — collapse to one,
    and self loops are dropped (both via the standard builder).

    Returns ``(graph, original_ids)`` where ``original_ids[local]``
    is the id the input used (sorted ascending, so
    ``np.searchsorted(original_ids, raw_id)`` inverts the mapping).
    """
    if isinstance(path_or_file, (str, os.PathLike)):
        with _open_text(path_or_file, "r") as handle:
            edges = list(parse_edge_lines(handle))
    elif isinstance(path_or_file, io.TextIOBase):
        edges = list(parse_edge_lines(path_or_file))
    else:
        raise GraphFormatError(
            "read_snap_edge_list expects a path or a text file object"
        )
    if not edges:
        return Graph.empty(0), np.zeros(0, dtype=np.int64)
    array = np.asarray(edges, dtype=np.int64)
    if array.min() < 0:
        raise GraphFormatError("vertex ids must be non-negative")
    original_ids, compact = np.unique(array, return_inverse=True)
    compact = compact.reshape(array.shape)
    graph = build_graph(compact, num_vertices=len(original_ids))
    return graph, original_ids


def write_edge_list(graph: Graph, path: PathLike, *,
                    header: bool = True) -> None:
    """Write the graph as ``u v`` lines (one per undirected edge).

    Paths ending in ``.gz`` are gzip-compressed, matching what
    :func:`read_edge_list` accepts.
    """
    with _open_text(path, "w") as handle:
        if header:
            handle.write(
                f"# undirected graph: {graph.num_vertices} vertices, "
                f"{graph.num_edges} edges\n"
            )
        for u, v in graph.edges():
            handle.write(f"{u} {v}\n")


def write_tagged_npz(path: PathLike, tag: str, **arrays) -> None:
    """Write ``arrays`` and a ``format`` tag as one compressed npz,
    atomically and under exactly ``path`` (the partition map's writer
    too)."""
    with atomic_write(path) as handle:
        np.savez_compressed(handle, format=np.asarray([tag]), **arrays)


def read_tagged_npz(path: PathLike, tag: str, names: Sequence[str],
                    what: str) -> List[np.ndarray]:
    """The ``names`` arrays of a :func:`write_tagged_npz` file; a
    missing, truncated or foreign one, a missing array and a wrong
    tag are all :class:`GraphFormatError`."""
    try:
        with open(path, "rb") as handle, \
                np.load(handle, allow_pickle=False) as data:
            found = str(data["format"][0])
            arrays = [data[name] for name in names]
    except KeyError as exc:
        raise GraphFormatError(
            f"{path}: missing array {exc} — not a {what} file"
        ) from exc
    except NPZ_READ_ERRORS as exc:
        raise GraphFormatError(
            f"{path}: not a {what} file ({exc})"
        ) from exc
    if found != tag:
        raise GraphFormatError(f"{path}: unknown format tag {found!r}")
    return arrays


def save_npz(graph: Graph, path: PathLike) -> None:
    """Serialize the CSR arrays into a compressed ``.npz`` container."""
    write_tagged_npz(path, "repro-csr-v1",
                     indptr=graph.indptr, indices=graph.indices)


def load_npz(path: PathLike) -> Graph:
    """Load a graph previously written by :func:`save_npz`."""
    indptr, indices = read_tagged_npz(
        path, "repro-csr-v1", ("indptr", "indices"), "repro graph")
    return Graph(indptr, indices, validate=True)
