"""`LabelStore` — an opened packed store with tiered residency.

Opening a store costs the header plus the hot-tier arrays (copied
into RAM); every cold array becomes a :class:`~repro.store.cache.
CachedArray` faulting blocks through one shared
:class:`~repro.store.cache.PageCache`. Two I/O backends:

``io="mmap"`` (default)
    One ``numpy.memmap`` over the file; block faults slice-and-copy
    out of the mapping. The OS page cache backs the mapping, so N
    processes opening the same store share one set of physical
    pages.
``io="pread"``
    Positional ``os.pread`` per block fault, no mapping. Byte-for-
    byte the same data; used where resident-set accounting must be
    exact (mapped pages count toward RSS, so a benchmark asserting an
    RSS budget wants reads that only land in the page cache's own
    buffers).
"""

from __future__ import annotations

import os
from typing import Any, Dict, Mapping, Optional

import numpy as np

from ..errors import IndexFormatError
from .cache import (
    CachedArray,
    DEFAULT_BLOCK_BYTES,
    DEFAULT_CACHE_BYTES,
    PageCache,
)
from .format import read_store_header, spec_array

__all__ = ["LabelStore", "STORE_IO_MODES"]

#: Supported block-fault backends.
STORE_IO_MODES = ("mmap", "pread")


class LabelStore:
    """One opened packed label store: hot arrays in RAM, cold on disk."""

    def __init__(self, path, header: Dict[str, Any], base: int, *,
                 io: str, cache: PageCache) -> None:
        self._path = os.fspath(path)
        self._header = header
        self._base = base
        self._io = io
        self._cache = cache
        self._mm: Optional[np.memmap] = None
        self._fd: Optional[int] = None
        self._closed = False
        try:
            if io == "mmap":
                self._mm = np.memmap(self._path, dtype=np.uint8,
                                     mode="r")
            else:
                self._fd = os.open(self._path, os.O_RDONLY)
        except (OSError, ValueError) as exc:
            raise IndexFormatError(
                f"{self._path}: cannot open label store ({exc})"
            ) from exc
        self._arrays: Dict[str, Any] = {}
        self._hot_bytes = 0
        self._cold_bytes = 0
        for spec in header["arrays"]:
            name = spec["name"]
            dtype = np.dtype(spec["dtype"])
            offset = base + int(spec["offset"])
            if spec["tier"] == "hot":
                # Pinned: a private copy, whichever backend read it.
                self._arrays[name] = spec_array(
                    self._read_span(offset, np.dtype(np.uint8),
                                    int(spec["nbytes"])), spec)
                self._hot_bytes += int(spec["nbytes"])
            else:
                shape = spec["shape"]
                length = shape[0] if shape else 0
                self._arrays[name] = CachedArray(
                    name, length, dtype,
                    self._make_fetch(offset, dtype), cache)
                self._cold_bytes += int(spec["nbytes"])

    @classmethod
    def open(cls, path, *, io: str = "mmap",
             cache_bytes: int = DEFAULT_CACHE_BYTES,
             block_bytes: int = DEFAULT_BLOCK_BYTES) -> "LabelStore":
        """Open a packed store written by :func:`~repro.store.format.
        write_store`; structural problems raise
        :class:`~repro.errors.IndexFormatError`."""
        if io not in STORE_IO_MODES:
            raise IndexFormatError(
                f"unknown store io mode {io!r}; "
                f"expected one of {STORE_IO_MODES}")
        header, base = read_store_header(path)
        cache = PageCache(budget_bytes=cache_bytes,
                          block_bytes=block_bytes)
        return cls(path, header, base, io=io, cache=cache)

    # -- raw reads ------------------------------------------------------

    def _read_span(self, byte_offset: int, dtype: np.dtype,
                   count: int) -> np.ndarray:
        nbytes = count * dtype.itemsize
        if self._mm is not None:
            raw = np.array(self._mm[byte_offset:byte_offset + nbytes])
        else:
            data = os.pread(self._fd, nbytes, byte_offset)
            if len(data) != nbytes:
                raise IndexFormatError(
                    f"{self._path}: short read at offset "
                    f"{byte_offset} — store is truncated")
            raw = np.frombuffer(bytearray(data), dtype=np.uint8)
        return raw.view(dtype)

    def _make_fetch(self, byte_offset: int, dtype: np.dtype):
        def fetch(lo: int, hi: int) -> np.ndarray:
            if self._closed:
                raise IndexFormatError(
                    f"{self._path}: label store is closed")
            return self._read_span(byte_offset + lo * dtype.itemsize,
                                   dtype, hi - lo)
        return fetch

    # -- surface --------------------------------------------------------

    @property
    def path(self) -> str:
        return self._path

    @property
    def method(self) -> str:
        return self._header["method"]

    @property
    def state(self) -> Dict[str, Any]:
        """Family metadata recorded at pack time."""
        return self._header.get("state", {})

    @property
    def header(self) -> Dict[str, Any]:
        return self._header

    @property
    def cache(self) -> PageCache:
        return self._cache

    @property
    def arrays(self) -> Mapping[str, Any]:
        """name -> hot ndarray or cold :class:`CachedArray`."""
        return self._arrays

    def array(self, name: str):
        try:
            return self._arrays[name]
        except KeyError:
            raise IndexFormatError(
                f"{self._path}: store has no array {name!r} "
                f"(has {sorted(self._arrays)})") from None

    @property
    def hot_bytes(self) -> int:
        return self._hot_bytes

    @property
    def cold_bytes(self) -> int:
        return self._cold_bytes

    def stats(self) -> Dict[str, Any]:
        """Tier sizes plus the page-cache counters, one flat dict."""
        cache = self._cache.stats()
        total = self._hot_bytes + self._cold_bytes
        return {
            **cache,
            "io": self._io,
            "hot_bytes": self._hot_bytes,
            "cold_bytes": self._cold_bytes,
            "hot_fraction": (self._hot_bytes / total if total
                             else 0.0),
            "resident_bytes": self._hot_bytes
            + cache["resident_bytes"],
        }

    def close(self) -> None:
        """Release the mapping / descriptor and drop cached blocks."""
        if self._closed:
            return
        self._closed = True
        self._cache.clear()
        if self._mm is not None:
            self._mm = None
        if self._fd is not None:
            try:
                os.close(self._fd)
            except OSError:  # pragma: no cover
                pass
            self._fd = None

    def __enter__(self) -> "LabelStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LabelStore({self._path!r}, method={self.method!r}, "
                f"hot={self._hot_bytes}B, cold={self._cold_bytes}B, "
                f"io={self._io!r})")
