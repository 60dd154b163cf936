"""Uniform index persistence: one npz/json format for every family.

A saved index is a single compressed ``.npz`` archive whose
``__meta__`` entry is a JSON header::

    {"format": "repro-pathindex", "version": 1,
     "method": "<registry key>", "state": {...family metadata...}}

and whose remaining entries are the family's numpy arrays (from
``PathIndex.to_state``). Properties of the format:

* **self-describing** — ``load_index`` reads the method name from the
  header and dispatches through the registry, so one loader serves
  every family, including ones registered after this module shipped;
* **pickle-free** — written and read with ``allow_pickle=False``;
  unlike the historical QbS pickle files, archives cannot execute
  code on load and are portable across Python versions;
* **inspectable** — ``peek_index(path)`` returns the header without
  reconstructing the index, and ``describe_index(path)`` additionally
  lists every array's name/dtype/shape without reading array data;
* **crash-safe** — ``save_index`` writes to a same-directory
  temporary file and ``os.replace``\\ s it into place, so a crash
  mid-write can never leave a torn archive behind the final name.

Out-of-core stores: ``load_index`` also accepts the packed
``REPROSTR`` container written by
:func:`repro.store.pack_index_store` (detected by magic) and returns
a store-backed index that faults labels in on demand.
"""

from __future__ import annotations

import json
import os
import zipfile
from typing import Any, Dict, Optional, Tuple

import numpy as np

from .._util import atomic_write
from ..errors import GraphValidationError, IndexFormatError
from ..graph.csr import Graph
from ..graph.io import NPZ_READ_ERRORS
from .base import PathIndex
from .batch import HEAD_DTYPES, LabelArrays
from .registry import get_index_class

__all__ = ["save_index", "load_index", "peek_index", "describe_index",
           "read_index_state", "FORMAT_NAME", "FORMAT_VERSION",
           "graph_arrays", "graph_from_arrays", "pack_pairs",
           "unpack_pairs"]

FORMAT_NAME = "repro-pathindex"
FORMAT_VERSION = 1

#: Reserved archive entry holding the JSON header.
_META_KEY = "__meta__"


# ----------------------------------------------------------------------
# State encoding shared by the families' to_state / from_state
# ----------------------------------------------------------------------

def graph_arrays(graph: Graph) -> Dict[str, np.ndarray]:
    return {"indptr": graph.indptr, "indices": graph.indices}


def graph_from_arrays(arrays: Dict[str, np.ndarray]) -> Graph:
    # Validate on load: archives may be truncated or hand-edited, and
    # an inconsistent CSR would otherwise surface as silently wrong
    # answers deep inside a BFS.
    return Graph(arrays["indptr"], arrays["indices"], validate=True)


def label_arrays_from_state(arrays: Dict[str, np.ndarray],
                            dtypes: Dict[str, Any],
                            num_vertices: int) -> Dict[str, np.ndarray]:
    """``order`` plus a label family's flat CSR arrays (``dtypes``: its
    ``LABEL_ARRAYS``), cast and checked in one vectorized pass. A CSR
    off by one swap answers wrong distances instead of failing, so one
    that does not add up raises :class:`IndexFormatError` here."""
    labels = {name: np.asarray(arrays[name], dtype=dtype)
              for name, dtype in {"order": np.int64, **dtypes}.items()}
    ranks, dists = labels["label_ranks"], labels["label_dists"]
    offsets = labels["label_offsets"]
    _check_csr("label_offsets", offsets, num_vertices, len(ranks))
    # Each step within a row rises; a step onto a row start is free.
    rises = np.diff(ranks) > 0
    starts = offsets[1:-1]
    rises[starts[(starts > 0) & (starts < len(ranks))] - 1] = True
    if len(labels["order"]) != num_vertices or len(dists) != len(ranks) \
            or not rises.all() or not within(ranks, num_vertices) \
            or not within(dists, np.inf):
        raise IndexFormatError(
            "label arrays do not add up: one distance per rank, ranks "
            "in [0, n) and ascending within a row, distances >= 0")
    if "parents" in labels:
        _check_csr("parent_offsets", labels["parent_offsets"], len(ranks),
                   len(labels["parents"]))
        if not within(labels["parents"], num_vertices):
            raise IndexFormatError("parents hold a vertex outside [0, n)")
    return labels


#: The batch kernel's :class:`~repro.engine.batch.LabelArrays`, by the
#: array names a packed store and a snapshot file hold them under.
KERNEL_ARRAYS = ("head", "tail_offsets", "tail_ranks", "tail_dists")


def kernel_arrays_from_state(arrays, num_vertices: int
                             ) -> Optional[LabelArrays]:
    """The batch kernel's labels over ``arrays`` as they are (views of
    a mapping, or a store's block-cached cold arrays), or ``None``
    when the state carries no kernel arrays.

    Only the hot arrays are checked — ``order``, the ``label_offsets``
    and ``tail_offsets`` CSRs and the ``head`` rows and dtype, O(|V|) —
    never a cold entry: a swapped offset or a head of another dtype
    answers wrong distances, or fails deep in numpy, instead of
    refusing the file, so one that does not add up raises
    :class:`IndexFormatError` here.
    """
    if "head" not in arrays:
        return None
    head, tail_ranks = arrays["head"], arrays["tail_ranks"]
    _check_csr("label_offsets", np.asarray(arrays["label_offsets"]),
               num_vertices, len(arrays["label_ranks"]))
    _check_csr("tail_offsets", np.asarray(arrays["tail_offsets"]),
               num_vertices, len(tail_ranks))
    if len(arrays["order"]) != num_vertices \
            or len(arrays["tail_dists"]) != len(tail_ranks) \
            or head.ndim != 2 or head.shape[0] != num_vertices:
        raise IndexFormatError(
            "kernel arrays do not add up: one order entry and one head "
            "row per vertex, one tail distance per tail rank")
    if head.dtype not in HEAD_DTYPES:
        raise IndexFormatError(
            f"kernel head is {head.dtype.name}; the batch kernel reads "
            f"a float32 or a uint8 / uint16 / uint32 head")
    return LabelArrays(head, arrays["tail_offsets"], tail_ranks,
                       arrays["tail_dists"], num_ranks=num_vertices)


def _check_csr(name: str, offsets: np.ndarray, rows: int,
               total: int) -> None:
    if len(offsets) != rows + 1 or offsets[0] != 0 \
            or offsets[-1] != total or (np.diff(offsets) < 0).any():
        raise IndexFormatError(
            f"{name} is not a CSR of {rows} rows over {total} entries")


def within(values: np.ndarray, bound) -> bool:
    """Whether every value lies in ``[0, bound)`` (an empty array
    does)."""
    return not len(values) or (values.min() >= 0 and values.max() < bound)


def pack_pairs(mapping: Dict[Tuple[int, int], int]
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Encode a ``(i, j) -> weight`` mapping as key/value arrays."""
    keys = sorted(mapping)
    if not keys:
        return (np.zeros((0, 2), dtype=np.int32),
                np.zeros(0, dtype=np.int32))
    return (np.asarray(keys, dtype=np.int32),
            np.asarray([mapping[k] for k in keys], dtype=np.int32))


def unpack_pairs(key_array: np.ndarray,
                 value_array: np.ndarray) -> Dict[Tuple[int, int], int]:
    return {(int(i), int(j)): int(w)
            for (i, j), w in zip(key_array.tolist(),
                                 value_array.tolist())}


def save_index(index: PathIndex, path) -> None:
    """Write ``index`` to ``path`` in the uniform format, atomically
    (:func:`~repro._util.atomic_write`: the previous file or the
    complete new one, never a truncated archive; the name is taken
    literally)."""
    meta, arrays = index.to_state()
    if _META_KEY in arrays:
        raise IndexFormatError(
            f"array name {_META_KEY!r} is reserved for the header"
        )
    header = json.dumps({
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "method": index.method,
        "state": meta,
    })
    try:
        with atomic_write(path) as handle:
            np.savez_compressed(handle,
                                **{_META_KEY: np.asarray(header)},
                                **arrays)
    except OSError as exc:
        raise IndexFormatError(
            f"{path}: cannot write index archive ({exc})"
        ) from exc


def _read_archive(path, with_arrays: bool):
    """Open a saved index, returning ``(header, arrays_or_None)``.

    All I/O and structural failures are normalized to
    :class:`IndexFormatError` here, so :func:`peek_index` and
    :func:`load_index` cannot drift apart in what they accept. The
    except tuple includes the decompression-layer errors a *truncated*
    member raises (``zlib.error``, ``struct.error``, ``EOFError``) —
    a partially copied archive must fail loudly, never yield a
    partial index.
    """
    try:
        with open(path, "rb") as handle:
            if handle.read(1) == b"\x80":
                # A pickle opcode, not a zip archive: the retired
                # pre-engine pickle format. Never unpickle it.
                raise IndexFormatError(
                    f"{path}: legacy pickle-format index; this format "
                    f"is no longer read (unpickling untrusted bytes "
                    f"can execute code) — rebuild the index and save "
                    f"it again in the npz format"
                )
            handle.seek(0)
            with np.load(handle, allow_pickle=False) as archive:
                if _META_KEY not in archive.files:
                    raise IndexFormatError(
                        f"{path}: no {_META_KEY} entry; not a repro "
                        f"index file"
                    )
                header = _check_header(path, str(archive[_META_KEY][()]))
                arrays = None
                if with_arrays:
                    arrays = {name: archive[name]
                              for name in archive.files
                              if name != _META_KEY}
    except NPZ_READ_ERRORS as exc:
        raise IndexFormatError(
            f"{path}: not a repro index archive ({exc})"
        ) from exc
    return header, arrays


def peek_index(path) -> Dict[str, Any]:
    """Read and validate the JSON header of a saved index.

    Works on both formats: npz archives return the ``repro-pathindex``
    header, packed label stores the ``repro-labelstore`` one (which
    additionally carries the array specs and tier assignments).
    """
    if _is_store(path):
        from ..store import read_store_header

        header, _ = read_store_header(path)
        return header
    header, _ = _read_archive(path, with_arrays=False)
    return header


def read_index_state(path) -> Tuple[str, Dict[str, Any],
                                    Dict[str, np.ndarray]]:
    """Read an npz archive's raw ``(method, state, arrays)``.

    The decomposed form of :func:`load_index` — for consumers that
    repack the arrays (e.g. ``repro store pack``) and must not pay
    for reconstructing per-vertex Python structures.
    """
    header, arrays = _read_archive(path, with_arrays=True)
    return header["method"], header.get("state", {}), arrays


def load_index(path) -> PathIndex:
    """Load a saved index of any registered family.

    ``path`` may be an npz archive (fully materialized on load) or a
    packed label store (opened out-of-core: hot tier in RAM, cold
    labels faulted per query); the two are told apart by magic.
    """
    if _is_store(path):
        from ..store import open_store_index

        return open_store_index(path)
    header, arrays = _read_archive(path, with_arrays=True)
    try:
        cls = get_index_class(header["method"])
    except Exception as exc:
        raise IndexFormatError(
            f"{path}: saved method {header['method']!r} has no "
            f"registered implementation"
        ) from exc
    try:
        return cls.from_state(header.get("state", {}), arrays)
    except IndexFormatError:
        raise
    except (KeyError, IndexError, ValueError, TypeError,
            GraphValidationError) as exc:
        raise IndexFormatError(
            f"{path}: {header['method']!r} archive is incomplete or "
            f"corrupt ({exc!r})"
        ) from exc


def describe_index(path) -> Dict[str, Any]:
    """Describe a saved index without loading it.

    Returns the header fields plus one entry per stored array
    (name / dtype / shape / logical bytes; packed stores add the
    tier), and the on-disk size. Array *data* is never read: npz
    member headers are parsed straight out of the zip directory,
    store specs come from the container header.
    """
    size = _file_size(path)
    if _is_store(path):
        from ..store import read_store_header

        header, _ = read_store_header(path)
        arrays = [{
            "name": spec["name"],
            "dtype": spec["dtype"],
            "shape": tuple(spec["shape"]),
            "nbytes": int(spec["nbytes"]),
            "tier": spec["tier"],
        } for spec in header["arrays"]]
        return {
            "kind": "store",
            "format": header["format"],
            "version": header["version"],
            "method": header["method"],
            "state": header.get("state", {}),
            "file_bytes": size,
            "page_bytes": header["page_bytes"],
            "arrays": arrays,
        }
    header, _ = _read_archive(path, with_arrays=False)
    arrays = []
    try:
        with zipfile.ZipFile(os.fspath(path)) as archive:
            for info in archive.infolist():
                name = info.filename
                if name.endswith(".npy"):
                    name = name[:-4]
                if name == _META_KEY:
                    continue
                with archive.open(info) as member:
                    version = np.lib.format.read_magic(member)
                    if version[0] == 1:
                        shape, _, dtype = \
                            np.lib.format.read_array_header_1_0(member)
                    else:
                        shape, _, dtype = \
                            np.lib.format.read_array_header_2_0(member)
                arrays.append({
                    "name": name,
                    "dtype": dtype.str,
                    "shape": tuple(shape),
                    "nbytes": int(np.prod(shape, dtype=np.int64)
                                  * dtype.itemsize),
                })
    except NPZ_READ_ERRORS as exc:
        raise IndexFormatError(
            f"{path}: cannot describe archive ({exc})"
        ) from exc
    return {
        "kind": "npz",
        "format": header["format"],
        "version": header["version"],
        "method": header["method"],
        "state": header.get("state", {}),
        "file_bytes": size,
        "arrays": arrays,
    }


def _is_store(path) -> bool:
    from ..store import is_store_file

    return is_store_file(path)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError as exc:
        raise IndexFormatError(
            f"{path}: cannot stat index file ({exc})"
        ) from exc


def _check_header(path, raw: str) -> Dict[str, Any]:
    try:
        header = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise IndexFormatError(
            f"{path}: malformed index header"
        ) from exc
    if not isinstance(header, dict) \
            or header.get("format") != FORMAT_NAME:
        raise IndexFormatError(f"{path}: not a repro index file")
    if header.get("version") != FORMAT_VERSION:
        raise IndexFormatError(
            f"{path}: format version {header.get('version')!r} is not "
            f"supported (expected {FORMAT_VERSION})"
        )
    if not isinstance(header.get("method"), str):
        raise IndexFormatError(f"{path}: header is missing the method")
    return header
