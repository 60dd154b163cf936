"""Pack and open label indexes as tiered out-of-core stores.

:func:`pack_index_store` converts a built (or npz-saved) ``ppl`` /
``parent-ppl`` index into the packed container of
:mod:`repro.store.format`, deciding the tier split at pack time:

* **hot** — the graph CSR, the landmark order, the label/tail offset
  arrays, and the PR-5 dense hub-rank head matrix. Small, touched by
  every query, pinned in RAM at open.
* **cold** — the flat label rank/distance arrays (the scalar query
  path) and the CSR tail of the batch kernel. The bulk of the index;
  served block-by-block through the page cache.

:func:`open_store_index` opens a packed store as an index of the
*same class* a build or ``load_index`` returns
(``get_index_class(method)`` constructed over the store's arrays, the
store attached as ``label_store``): the per-vertex label rows slice
block-cached cold arrays, and the batch kernel's
:class:`~repro.engine.batch.LabelArrays` is assembled over the
store's cold tail directly, so both the scalar and the
``distance_many`` paths fault in only the label windows a query
touches. High-degree hub rows (``order[:hot_rows]``) are pinned —
skewed real-world query mixes hit those rows constantly, and pinned
blocks never evict.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from ..engine.batch import LabelArrays
from ..engine.registry import get_index_class
from ..errors import IndexFormatError
from ..graph.csr import Graph
from .cache import DEFAULT_BLOCK_BYTES, DEFAULT_CACHE_BYTES
from .container import LabelStore
from .format import write_store

__all__ = ["pack_index_store", "open_store_index", "STORE_METHODS",
           "DEFAULT_HEAD_WIDTH", "DEFAULT_HOT_ROWS"]

#: Families the packed store understands.
STORE_METHODS = ("ppl", "parent-ppl")

#: Head width at pack time. Narrower than the in-RAM kernel default on
#: purpose: the head is hot-tier (always resident), so a packed store
#: trades a little head coverage for a small pinned footprint.
DEFAULT_HEAD_WIDTH = 32

#: Hub label rows (by landmark order) pinned in RAM at open.
DEFAULT_HOT_ROWS = 32


# ----------------------------------------------------------------------
# Packing
# ----------------------------------------------------------------------

def pack_index_store(source, path, *,
                     head_width: int = DEFAULT_HEAD_WIDTH,
                     hot_rows: int = DEFAULT_HOT_ROWS
                     ) -> Dict[str, Any]:
    """Write ``source`` (an index or an npz archive path) as a packed
    store at ``path``; returns the written header.

    Only the label families pack (``ppl`` / ``parent-ppl``): their
    state is already flat CSR arrays, which is exactly the layout a
    paged store serves. Other families raise
    :class:`~repro.errors.IndexFormatError`.
    """
    if hasattr(source, "to_state"):
        method = source.method
        _check_method(source, method)
        state, arrays = source.to_state()
    else:
        from ..engine.persist import read_index_state

        method, state, arrays = read_index_state(source)
        _check_method(source, method)

    offsets = np.asarray(arrays["label_offsets"], dtype=np.int64)
    labels = LabelArrays.from_flat(
        offsets,
        np.asarray(arrays["label_ranks"]),
        np.asarray(arrays["label_dists"]),
        head_width=head_width)

    packed: Dict[str, np.ndarray] = {
        "indptr": np.asarray(arrays["indptr"]),
        "indices": np.asarray(arrays["indices"]),
        "order": np.asarray(arrays["order"], dtype=np.int64),
        "label_offsets": offsets,
        "head": labels.head,
        "tail_offsets": labels.tail_offsets,
        "label_ranks": np.asarray(arrays["label_ranks"],
                                  dtype=np.int64),
        "label_dists": np.asarray(arrays["label_dists"],
                                  dtype=np.int32),
        "tail_ranks": labels.tail_ranks,
        "tail_dists": labels.tail_dists,
    }
    source_arrays = ["indptr", "indices", "order", "label_offsets",
                     "label_ranks", "label_dists"]
    if method == "parent-ppl":
        packed["parent_offsets"] = np.asarray(arrays["parent_offsets"],
                                              dtype=np.int64)
        packed["parents"] = np.asarray(arrays["parents"],
                                       dtype=np.int32)
        source_arrays += ["parent_offsets", "parents"]

    hot = ("indptr", "indices", "order", "label_offsets",
           "tail_offsets", "head")
    return write_store(
        path, method=method, state=dict(state), arrays=packed,
        hot=hot, source_arrays=source_arrays,
        extra={
            "head_width": int(labels.head_width),
            "hot_rows": int(hot_rows),
            "label_entries": int(offsets[-1]),
            "num_vertices": int(len(offsets) - 1),
        })


def _check_method(source, method: str) -> None:
    if method not in STORE_METHODS:
        raise IndexFormatError(
            f"cannot pack a {method!r} index into a label store; "
            f"supported families: {STORE_METHODS} "
            f"(source: {source!r})")


# ----------------------------------------------------------------------
# Opening
# ----------------------------------------------------------------------

def open_store_index(source, *, io: str = "mmap",
                     cache_bytes: int = DEFAULT_CACHE_BYTES,
                     block_bytes: int = DEFAULT_BLOCK_BYTES,
                     hot_rows: Optional[int] = None):
    """Open a packed store (path or :class:`LabelStore`) as an index.

    ``hot_rows`` overrides the pin count recorded at pack time: the
    label rows of the ``hot_rows`` highest-ranked (highest-degree)
    vertices are pinned in the page cache at open, exempt from
    eviction.
    """
    if isinstance(source, LabelStore):
        store = source
    else:
        store = LabelStore.open(source, io=io,
                                cache_bytes=cache_bytes,
                                block_bytes=block_bytes)
    method = store.method
    if method not in STORE_METHODS:
        raise IndexFormatError(
            f"{store.path}: store holds a {method!r} index; only "
            f"{STORE_METHODS} stores open as indexes")

    cls = get_index_class(method)
    graph = Graph(store.array("indptr"), store.array("indices"),
                  validate=True)
    order = store.array("order")
    offsets = store.array("label_offsets")
    index = cls(
        graph, order,
        {name: store.array(name) for name in cls.LABEL_ARRAYS},
        label_store=store,
        batch_labels=LabelArrays(store.array("head"),
                                 store.array("tail_offsets"),
                                 store.array("tail_ranks"),
                                 store.array("tail_dists"),
                                 num_ranks=len(offsets) - 1))

    if hot_rows is None:
        hot_rows = int(store.header.get("hot_rows", DEFAULT_HOT_ROWS))
    _pin_hub_rows(store, order, offsets, hot_rows)
    return index


def _pin_hub_rows(store: LabelStore, order, offsets,
                  hot_rows: int) -> None:
    """Pin the label rows of the top-ranked hub vertices.

    Degree-ordered labellings concentrate traffic on the hubs — both
    because skewed query mixes name them directly and because every
    merge-join scans the low ranks first. Their rows are tiny next to
    the cold tier, so pinning them buys a high floor on the hit rate.
    """
    for name in ("label_ranks", "label_dists"):
        cold = store.array(name)
        for vertex in np.asarray(order[:max(0, hot_rows)]).tolist():
            cold.pin_range(int(offsets[vertex]),
                           int(offsets[vertex + 1]))
