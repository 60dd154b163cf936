"""The packed label-store container format.

A packed store is a single file holding page-aligned, *uncompressed*
numpy arrays — the layout :mod:`numpy.memmap` wants and the
compressed npz persistence format (:mod:`repro.engine.persist`)
cannot provide. Layout::

    [8-byte magic "REPROSTR"]
    [8-byte little-endian header length H]
    [H bytes of JSON header]
    [zero padding to the next page boundary]
    [array payloads, each starting on a page boundary]

The JSON header is self-describing::

    {"format": "repro-labelstore", "version": 1,
     "method": "<registry key>", "state": {...family metadata...},
     "page_bytes": 4096,
     "source_arrays": [...names that reconstruct the family...],
     "arrays": [{"name", "dtype", "shape", "offset", "nbytes",
                 "tier": "hot" | "cold"}, ...]}

``offset`` is relative to the payload base, which both sides compute
as ``align(16 + H, page_bytes)`` — the header never has to contain a
value that depends on its own length. ``tier`` records the packing
policy: ``hot`` arrays are pinned in RAM when the store is opened,
``cold`` arrays stay on disk and are faulted block-by-block through
the :class:`~repro.store.cache.PageCache`.

Writes are crash-safe: the store is written to a same-directory
temporary file, fsynced, and :func:`os.replace`'d into place, so a
crash mid-write can never leave a torn container behind the final
name.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, Mapping, Tuple

import numpy as np

from .._util import atomic_write
from ..errors import IndexFormatError

__all__ = ["STORE_MAGIC", "STORE_FORMAT", "STORE_VERSION",
           "DEFAULT_PAGE_BYTES", "is_store_file", "write_store",
           "read_store_header", "spec_array", "map_store_arrays"]

#: First 8 bytes of every packed store.
STORE_MAGIC = b"REPROSTR"

STORE_FORMAT = "repro-labelstore"
STORE_VERSION = 1

#: Default payload alignment; matches the common OS page size.
DEFAULT_PAGE_BYTES = 4096


def _align(offset: int, page: int) -> int:
    return (offset + page - 1) // page * page


def is_store_file(path) -> bool:
    """Whether ``path`` starts with the packed-store magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(STORE_MAGIC)) == STORE_MAGIC
    except OSError:
        return False


def write_store(path, *, method: str, state: Mapping[str, Any],
                arrays: Mapping[str, np.ndarray],
                hot: Iterable[str],
                source_arrays: Iterable[str],
                extra: Mapping[str, Any] = ()) -> Dict[str, Any]:
    """Write a packed store; returns the header that was written.

    ``hot`` names the arrays the opener pins in RAM; everything else
    is cold and must be one-dimensional (the block cache serves flat
    arrays). ``source_arrays`` names the subset that reconstructs the
    family via ``from_state`` — derived arrays (the dense head, the
    tail CSR) are excluded from it. Payloads are aligned to
    ``DEFAULT_PAGE_BYTES``, which the header records for readers.
    """
    hot = set(hot)
    source_arrays = list(source_arrays)
    for name in (*hot, *source_arrays):
        if name not in arrays:
            raise IndexFormatError(
                f"store header names unknown array {name!r}")
    specs = []
    blobs = []
    offset = 0
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        if array.dtype.hasobject:
            raise IndexFormatError(
                f"array {name!r} has an object dtype; stores hold "
                f"plain numeric arrays only")
        tier = "hot" if name in hot else "cold"
        if tier == "cold" and array.ndim != 1:
            raise IndexFormatError(
                f"cold array {name!r} must be one-dimensional "
                f"(got shape {array.shape}); the block cache serves "
                f"flat arrays")
        offset = _align(offset, DEFAULT_PAGE_BYTES)
        specs.append({
            "name": name,
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "offset": offset,
            "nbytes": int(array.nbytes),
            "tier": tier,
        })
        blobs.append(array)
        offset += array.nbytes
    header = {
        "format": STORE_FORMAT,
        "version": STORE_VERSION,
        "method": method,
        "state": dict(state),
        "page_bytes": DEFAULT_PAGE_BYTES,
        "source_arrays": source_arrays,
        "arrays": specs,
        **dict(extra),
    }
    encoded = json.dumps(header).encode("utf-8")
    base = _align(16 + len(encoded), DEFAULT_PAGE_BYTES)

    try:
        with atomic_write(path) as handle:
            handle.write(STORE_MAGIC)
            handle.write(len(encoded).to_bytes(8, "little"))
            handle.write(encoded)
            handle.write(b"\x00" * (base - 16 - len(encoded)))
            cursor = 0
            for spec, blob in zip(specs, blobs):
                handle.write(b"\x00" * (spec["offset"] - cursor))
                handle.write(blob.data)
                cursor = spec["offset"] + spec["nbytes"]
    except OSError as exc:
        raise IndexFormatError(
            f"{path}: cannot write label store ({exc})") from exc
    return header


def read_store_header(path) -> Tuple[Dict[str, Any], int]:
    """Read and validate a store header; returns ``(header, base)``.

    ``base`` is the absolute file offset of the payload region. Every
    structural failure — wrong magic, malformed JSON, a payload that
    the file is too short to contain (a truncated copy) — raises
    :class:`~repro.errors.IndexFormatError`, never a raw OS or
    decoding error.
    """
    try:
        size = os.path.getsize(path)
        with open(path, "rb") as handle:
            magic = handle.read(len(STORE_MAGIC))
            if magic != STORE_MAGIC:
                raise IndexFormatError(
                    f"{path}: not a packed label store")
            raw_len = handle.read(8)
            if len(raw_len) != 8:
                raise IndexFormatError(f"{path}: truncated store header")
            header_len = int.from_bytes(raw_len, "little")
            if header_len <= 0 or header_len > size:
                raise IndexFormatError(f"{path}: truncated store header")
            encoded = handle.read(header_len)
            if len(encoded) != header_len:
                raise IndexFormatError(f"{path}: truncated store header")
    except OSError as exc:
        raise IndexFormatError(
            f"{path}: cannot read label store ({exc})") from exc
    try:
        header = json.loads(encoded.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IndexFormatError(
            f"{path}: malformed store header") from exc
    if not isinstance(header, dict) \
            or header.get("format") != STORE_FORMAT:
        raise IndexFormatError(f"{path}: not a packed label store")
    if header.get("version") != STORE_VERSION:
        raise IndexFormatError(
            f"{path}: store version {header.get('version')!r} is not "
            f"supported (expected {STORE_VERSION})")
    if not isinstance(header.get("method"), str):
        raise IndexFormatError(
            f"{path}: store header is missing the method")
    page = header.get("page_bytes")
    specs = header.get("arrays")
    if not isinstance(page, int) or page <= 0 \
            or not isinstance(specs, list):
        raise IndexFormatError(f"{path}: malformed store header")
    base = _align(16 + header_len, page)
    for spec in specs:
        try:
            offset, nbytes = int(spec["offset"]), int(spec["nbytes"])
            # Readers size their views from dtype and shape alone.
            if offset < 0 or nbytes != (
                    int(np.prod(spec["shape"], dtype=np.int64))
                    * np.dtype(spec["dtype"]).itemsize):
                raise ValueError("extent does not match dtype x shape")
            end = base + offset + nbytes
        except (KeyError, TypeError, ValueError) as exc:
            raise IndexFormatError(
                f"{path}: malformed array spec in store header"
            ) from exc
        if end > size:
            raise IndexFormatError(
                f"{path}: store is truncated — array "
                f"{spec.get('name')!r} needs {end} bytes, file has "
                f"{size}")
    return header, base


def spec_array(buffer, spec: Mapping[str, Any],
               offset: int = 0) -> np.ndarray:
    """The array a header ``spec`` describes, as a view of ``buffer``
    from ``offset`` bytes in: no copy, writable only if ``buffer`` is."""
    return np.ndarray(tuple(spec["shape"]), np.dtype(spec["dtype"]),
                      buffer, offset)


def map_store_arrays(path) -> Tuple[Dict[str, Any],
                                    Dict[str, np.ndarray]]:
    """Map a store read-only; returns ``(header, name -> array)``.

    Every array is a read-only view into one shared mapping of the
    file, so N processes hold one set of physical pages between them.
    The mapping lives as long as any view does, also after the path is
    unlinked — a reader never copies out to outlive the file.
    """
    header, base = read_store_header(path)
    try:
        mapping = np.memmap(path, dtype=np.uint8, mode="r")
    except (OSError, ValueError) as exc:
        raise IndexFormatError(
            f"{path}: cannot map label store ({exc})") from exc
    return header, {spec["name"]: spec_array(mapping, spec,
                                             base + int(spec["offset"]))
                    for spec in header["arrays"]}
