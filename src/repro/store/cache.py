"""Block-granular page cache for cold label arrays.

A :class:`PageCache` holds fixed-size blocks of cold array data under
an LRU policy with a byte budget, plus a *pinned* set that the budget
never evicts (the hot-tier hub label rows). A :class:`CachedArray`
wraps one cold, one-dimensional on-disk array and serves reads
through the cache: scalar indexing, contiguous slices, and the fancy
integer-array gathers the batch kernel's ``gather_tail`` issues all
fault in whole blocks, so repeated touches of the same label region
hit RAM instead of disk.

Counters (``hits`` / ``misses`` / ``evictions`` / ``pinned_hits``)
are plain attributes read by :meth:`PageCache.stats`; they flow up
through ``LabelStore.stats`` into the index's ``store_stats()``, and
every live cache is also weakly registered with :mod:`repro.obs` so
the metrics scrape sums the same counters into the
``store_page_cache_*`` series. A block miss
additionally marks ``page_faults`` on the innermost open trace span,
so sampled query traces show exactly which stage paid for disk.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Tuple

import numpy as np

from ..errors import IndexFormatError
from ..obs import register_page_cache
from ..obs.trace import current_add

__all__ = ["PageCache", "CachedArray", "DEFAULT_CACHE_BYTES",
           "DEFAULT_BLOCK_BYTES"]

#: Default LRU byte budget for cold blocks.
DEFAULT_CACHE_BYTES = 8 * 1024 * 1024

#: Default block size; amortizes one disk read over ~8k tail entries.
DEFAULT_BLOCK_BYTES = 64 * 1024

#: Cache key: (array name, block index).
_Key = Tuple[str, int]


class PageCache:
    """LRU block cache with a byte budget and an unevictable pin set."""

    __slots__ = ("budget_bytes", "block_bytes", "hits", "misses",
                 "evictions", "pinned_hits", "_lru", "_pinned",
                 "_lru_bytes", "_pinned_bytes", "__weakref__")

    def __init__(self, budget_bytes: int = DEFAULT_CACHE_BYTES,
                 block_bytes: int = DEFAULT_BLOCK_BYTES) -> None:
        if budget_bytes < 0:
            raise IndexFormatError("cache budget must be >= 0")
        if block_bytes < 512:
            raise IndexFormatError("block size must be >= 512 bytes")
        self.budget_bytes = int(budget_bytes)
        self.block_bytes = int(block_bytes)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.pinned_hits = 0
        self._lru: "OrderedDict[_Key, np.ndarray]" = OrderedDict()
        self._pinned: Dict[_Key, np.ndarray] = {}
        self._lru_bytes = 0
        self._pinned_bytes = 0
        register_page_cache(self)

    def get(self, key: _Key,
            loader: Callable[[], np.ndarray]) -> np.ndarray:
        """The block under ``key``, loading (and caching) on a miss."""
        block = self._pinned.get(key)
        if block is not None:
            self.pinned_hits += 1
            return block
        block = self._lru.get(key)
        if block is not None:
            self.hits += 1
            self._lru.move_to_end(key)
            return block
        self.misses += 1
        current_add("page_faults")
        block = loader()
        self._lru[key] = block
        self._lru_bytes += block.nbytes
        self._evict()
        return block

    def pin(self, key: _Key,
            loader: Callable[[], np.ndarray]) -> np.ndarray:
        """Load ``key`` into the pin set; pinned blocks never evict.

        Pinned bytes count against the budget (they squeeze the LRU
        share) but are themselves exempt from eviction — pinning is
        the tier policy, not a cache hint.
        """
        block = self._pinned.get(key)
        if block is not None:
            return block
        block = self._lru.pop(key, None)
        if block is not None:
            self._lru_bytes -= block.nbytes
        else:
            block = loader()
        self._pinned[key] = block
        self._pinned_bytes += block.nbytes
        self._evict()
        return block

    def _evict(self) -> None:
        while self._lru and \
                self._lru_bytes + self._pinned_bytes > self.budget_bytes:
            _, block = self._lru.popitem(last=False)
            self._lru_bytes -= block.nbytes
            self.evictions += 1

    @property
    def resident_bytes(self) -> int:
        """Bytes currently held in RAM (pinned + LRU)."""
        return self._lru_bytes + self._pinned_bytes

    @property
    def pinned_bytes(self) -> int:
        return self._pinned_bytes

    def stats(self) -> Dict[str, float]:
        touches = self.hits + self.pinned_hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "pinned_hits": self.pinned_hits,
            "hit_rate": ((self.hits + self.pinned_hits) / touches
                         if touches else 0.0),
            "resident_bytes": self.resident_bytes,
            "pinned_bytes": self._pinned_bytes,
            "budget_bytes": self.budget_bytes,
            "block_bytes": self.block_bytes,
        }

    def clear(self) -> None:
        """Drop every block, pinned included; counters persist."""
        self._lru.clear()
        self._pinned.clear()
        self._lru_bytes = 0
        self._pinned_bytes = 0


class CachedArray:
    """Read-only view of one cold on-disk array through a page cache.

    ``fetch(lo, hi)`` reads elements ``[lo, hi)`` from storage; the
    wrapper only ever calls it on whole blocks. Supports the access
    patterns the label code paths use — scalar ``a[i]``, contiguous
    ``a[lo:hi]``, and fancy ``a[int_array]`` — and nothing else.
    """

    __slots__ = ("name", "dtype", "_length", "_fetch", "_cache",
                 "_block_elems")

    def __init__(self, name: str, length: int, dtype,
                 fetch: Callable[[int, int], np.ndarray],
                 cache: PageCache) -> None:
        self.name = name
        self.dtype = np.dtype(dtype)
        self._length = int(length)
        self._fetch = fetch
        self._cache = cache
        self._block_elems = max(
            1, cache.block_bytes // self.dtype.itemsize)

    # -- sizing ---------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    @property
    def shape(self) -> Tuple[int, ...]:
        return (self._length,)

    @property
    def size(self) -> int:
        return self._length

    @property
    def nbytes(self) -> int:
        """Logical (on-disk) size, not resident size."""
        return self._length * self.dtype.itemsize

    # -- block plumbing -------------------------------------------------

    def _block(self, block_index: int) -> np.ndarray:
        lo = block_index * self._block_elems
        hi = min(self._length, lo + self._block_elems)
        return self._cache.get((self.name, block_index),
                               lambda: self._fetch(lo, hi))

    def pin_range(self, start: int, stop: int) -> None:
        """Pin every block covering elements ``[start, stop)``."""
        start = max(0, int(start))
        stop = min(self._length, int(stop))
        if stop <= start:
            return
        for block_index in range(start // self._block_elems,
                                 (stop - 1) // self._block_elems + 1):
            lo = block_index * self._block_elems
            hi = min(self._length, lo + self._block_elems)
            self._cache.pin((self.name, block_index),
                            lambda lo=lo, hi=hi: self._fetch(lo, hi))

    # -- reads ----------------------------------------------------------

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            index = int(key)
            if index < 0:
                index += self._length
            if not 0 <= index < self._length:
                raise IndexError(
                    f"index {key} out of range for cached array "
                    f"{self.name!r} of length {self._length}")
            block_index, offset = divmod(index, self._block_elems)
            return self._block(block_index)[offset]
        if isinstance(key, slice):
            start, stop, step = key.indices(self._length)
            if step != 1:
                raise IndexError(
                    "cached arrays support contiguous slices only")
            if stop <= start:
                return np.empty(0, dtype=self.dtype)
            first = start // self._block_elems
            last = (stop - 1) // self._block_elems
            if first == last:
                block = self._block(first)
                lo = start - first * self._block_elems
                return block[lo:lo + (stop - start)]
            parts = [self._block(i) for i in range(first, last + 1)]
            joined = np.concatenate(parts)
            lo = start - first * self._block_elems
            return joined[lo:lo + (stop - start)]
        positions = np.asarray(key)
        if positions.dtype == bool or positions.dtype.kind not in "iu":
            raise IndexError(
                f"cached array {self.name!r} supports integer "
                f"indexing only, got {positions.dtype}")
        flat = positions.ravel().astype(np.int64, copy=False)
        out = np.empty(flat.shape, dtype=self.dtype)
        if len(flat):
            blocks = flat // self._block_elems
            order = np.argsort(blocks, kind="stable")
            sorted_blocks = blocks[order]
            starts = np.nonzero(
                np.r_[True, np.diff(sorted_blocks) != 0])[0]
            bounds = np.r_[starts, len(flat)]
            for run in range(len(starts)):
                selector = order[bounds[run]:bounds[run + 1]]
                block_index = int(sorted_blocks[starts[run]])
                block = self._block(block_index)
                out[selector] = block[
                    flat[selector] - block_index * self._block_elems]
        return out.reshape(positions.shape)

    def __array__(self, dtype=None, copy=None):
        """Materialize the full array (small arrays / tests only)."""
        full = self[0:self._length]
        if dtype is not None:
            full = np.asarray(full, dtype=dtype)
        return np.array(full) if copy else np.asarray(full)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CachedArray({self.name!r}, length={self._length}, "
                f"dtype={self.dtype}, block_elems={self._block_elems})")
