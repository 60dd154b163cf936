"""Out-of-core label store: tiered storage for bigger-than-RAM indexes.

A worker that maps a whole snapshot can serve at most what fits in
RAM. This package moves the label arrays into a packed on-disk
container and serves queries through a two-tier policy:

* :mod:`~repro.store.format` — the ``REPROSTR`` container: page-
  aligned, *uncompressed* numpy arrays (the layout ``numpy.memmap``
  needs and compressed npz cannot provide), with a crash-safe
  temp-file + ``os.replace`` writer and the map-every-array reader
  serving snapshots go through (:func:`map_store_arrays`);
* :mod:`~repro.store.cache` — a block-granular LRU page cache with a
  byte budget, an unevictable pin set, and hit/miss/eviction
  counters, plus the :class:`CachedArray` wrapper that serves cold
  arrays block-by-block;
* :mod:`~repro.store.container` — :class:`LabelStore`, an opened
  store: hot-tier arrays copied into RAM, cold arrays faulted through
  the cache, over ``mmap`` (workers share the OS page cache) or
  ``pread`` (exact RSS accounting);
* :mod:`~repro.store.index` — :func:`pack_index_store` /
  :func:`open_store_index`: ``ppl`` / ``parent-ppl`` indexes whose
  scalar and batched query paths read labels through the store.

Typical use::

    from repro.store import pack_index_store, open_store_index

    pack_index_store("douban.idx", "douban.store")   # npz -> packed
    index = open_store_index("douban.store",
                             cache_bytes=16 * 2**20)
    index.distance_many(pairs)        # faults only touched blocks
    index.store_stats()               # hits/misses/evictions/tiers

``load_index(path)`` on a packed store dispatches here, so ``repro
serve --index x.store`` serves one. Serving itself publishes every
epoch as a ``REPROSTR`` file of plain mapped arrays
(:func:`map_store_arrays`), not through the block cache.
"""

from .cache import (
    CachedArray,
    DEFAULT_BLOCK_BYTES,
    DEFAULT_CACHE_BYTES,
    PageCache,
)
from .container import LabelStore, STORE_IO_MODES
from .format import (
    DEFAULT_PAGE_BYTES,
    STORE_FORMAT,
    STORE_MAGIC,
    STORE_VERSION,
    is_store_file,
    map_store_arrays,
    read_store_header,
    write_store,
)
from .index import (
    DEFAULT_HEAD_WIDTH,
    DEFAULT_HOT_ROWS,
    STORE_METHODS,
    open_store_index,
    pack_index_store,
)

__all__ = [
    "LabelStore",
    "PageCache",
    "CachedArray",
    "pack_index_store",
    "open_store_index",
    "is_store_file",
    "write_store",
    "read_store_header",
    "map_store_arrays",
    "STORE_MAGIC",
    "STORE_FORMAT",
    "STORE_VERSION",
    "STORE_METHODS",
    "STORE_IO_MODES",
    "DEFAULT_CACHE_BYTES",
    "DEFAULT_BLOCK_BYTES",
    "DEFAULT_PAGE_BYTES",
    "DEFAULT_HEAD_WIDTH",
    "DEFAULT_HOT_ROWS",
]
