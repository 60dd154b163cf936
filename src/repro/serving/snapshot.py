"""Versioned index snapshots: publish, transport, hot-swap.

Serving and updating must not share one mutable index: a
:class:`~repro.dynamic.DynamicIndex` absorbing edge updates is not
safe to read from another process mid-mutation, and even in-process a
query racing an update could observe a half-applied label repair. The
:class:`SnapshotManager` decouples them — the updater mutates its
index freely, and at chosen points *publishes* an immutable snapshot
of the current state. Workers always answer from some published
snapshot, so every answer is exact for the graph of a well-defined
epoch.

Snapshots are keyed on :attr:`~repro.engine.base.PathIndex.version`
(the PR-2 mutation counter): :meth:`SnapshotManager.publish_if_changed`
is a no-op while the counter stands still, so a refresh poll is cheap
under read-only periods.

Transport — how a snapshot reaches the worker processes — is
pluggable through the ``kind`` of the :class:`SnapshotHandle`:

``shm``
    The index's uniform ``to_state`` decomposition (JSON metadata +
    named numpy arrays) is packed once into a
    :class:`multiprocessing.shared_memory.SharedMemory` segment.
    Workers attach by name and reconstruct via ``from_state`` — one
    write, N readers, no pickling and no per-worker pipe traffic. The
    big label arrays cross the process boundary through the kernel's
    shared mappings rather than being serialized per worker.
``file``
    The snapshot is saved in the uniform npz persistence format
    (:mod:`repro.engine.persist`) and workers ``load_index`` it — the
    fallback where POSIX shared memory is unavailable, and the
    durable path (a published file survives the service).
``mmap``
    The snapshot is packed into the out-of-core ``REPROSTR``
    container (:func:`repro.store.pack_index_store`) and workers open
    it memory-mapped: the hot tier (head matrix, offsets, hub rows)
    loads into each worker, but the cold label tail stays on disk and
    is faulted through one shared set of OS page-cache pages — N
    workers serve an index bigger than any single worker's RAM.
    Only the label families (``ppl`` / ``parent-ppl``) pack.
"""

from __future__ import annotations

import json
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional

import numpy as np

from .._util import Stopwatch
from ..engine.base import PathIndex
from ..engine.persist import load_index, save_index
from ..engine.registry import get_index_class
from ..errors import ServingError
from ..obs import get_registry, span

__all__ = ["SnapshotHandle", "Snapshot", "SnapshotManager",
           "materialize_snapshot", "SNAPSHOT_STORES"]

#: Supported snapshot transport kinds.
SNAPSHOT_STORES = ("shm", "file", "mmap")

#: Alignment of array payloads inside a shared-memory segment.
_ALIGN = 64


class SnapshotHandle(NamedTuple):
    """A picklable reference to one published snapshot.

    Handles are what crosses the process boundary: every request batch
    carries the current handle, and a worker whose materialized epoch
    differs re-materializes from it (the lazy half of a hot swap).
    ``ref`` is the shm segment name or the file path.
    """

    epoch: int
    version: int
    method: str
    kind: str
    ref: Any


@dataclass
class Snapshot:
    """One published snapshot plus serving-side bookkeeping.

    ``graph`` is the graph the snapshot answers over, retained
    manager-side so answers served at this epoch can be audited
    against a BFS oracle even after later epochs supersede it.
    """

    handle: SnapshotHandle
    graph: Any
    retired: bool = False
    _segment: Any = field(default=None, repr=False)


# ----------------------------------------------------------------------
# Shared-memory packing
# ----------------------------------------------------------------------

def _pack_to_shm(index: PathIndex):
    """Pack ``index.to_state()`` into one shared-memory segment.

    Layout: ``[8-byte little-endian header length][JSON header]
    [aligned array payloads...]``. The header records the method name,
    the family metadata, and each array's name/dtype/shape/offset.
    """
    from multiprocessing import shared_memory

    meta, arrays = index.to_state()
    specs: List[Dict[str, Any]] = []
    cursor = 0  # payload offset, fixed up after the header is sized
    blobs: List[np.ndarray] = []
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        cursor = _aligned(cursor)
        specs.append({
            "name": name,
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "offset": cursor,
        })
        blobs.append(array)
        cursor += array.nbytes
    header = json.dumps({
        "method": index.method,
        "state": meta,
        "arrays": specs,
    }).encode("utf-8")
    base = _aligned(8 + len(header))
    total = max(1, base + cursor)
    try:
        segment = shared_memory.SharedMemory(create=True, size=total)
    except OSError as exc:
        raise ServingError(
            f"cannot allocate a {total}-byte shared-memory snapshot "
            f"segment ({exc})"
        ) from exc
    buf = segment.buf
    buf[:8] = len(header).to_bytes(8, "little")
    buf[8:8 + len(header)] = header
    for spec, array in zip(specs, blobs):
        start = base + spec["offset"]
        view = np.ndarray(array.shape, dtype=array.dtype,
                          buffer=buf, offset=start)
        view[...] = array
    return segment


def _attach_shm(name: str):
    """Attach to a published segment without adopting its lifetime.

    Before 3.13 an attaching process registers the segment with the
    ``resource_tracker``, which makes the tracker believe the worker
    owns it — risking spurious unlinks and "leaked shared_memory"
    noise at exit. The publishing process owns unlinking, so attach
    untracked: via ``track=False`` where available (3.13+), otherwise
    by suppressing the tracker's ``register`` for the duration of the
    attach (the standard workaround for bpo-39959).
    """
    from multiprocessing import shared_memory

    try:
        try:
            segment = shared_memory.SharedMemory(name=name,
                                                 track=False)
        except TypeError:  # Python < 3.13: no track parameter
            from multiprocessing import resource_tracker

            original_register = resource_tracker.register
            resource_tracker.register = lambda *args, **kwargs: None
            try:
                segment = shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original_register
    except (FileNotFoundError, OSError) as exc:
        raise ServingError(
            f"snapshot segment {name!r} is gone ({exc}); it was "
            f"probably retired by the publisher"
        ) from exc
    return segment


def _unpack_from_shm(name: str) -> PathIndex:
    segment = _attach_shm(name)
    try:
        buf = segment.buf
        header_len = int.from_bytes(bytes(buf[:8]), "little")
        header = json.loads(bytes(buf[8:8 + header_len]).decode("utf-8"))
        base = _aligned(8 + header_len)
        arrays = {}
        for spec in header["arrays"]:
            view = np.ndarray(tuple(spec["shape"]),
                              dtype=np.dtype(spec["dtype"]),
                              buffer=buf,
                              offset=base + spec["offset"])
            # Copy out: from_state must not keep views into the
            # mapping, or the worker could not release the segment
            # (and a later unlink+remap would corrupt live answers).
            arrays[spec["name"]] = np.array(view, copy=True)
        cls = get_index_class(header["method"])
        return cls.from_state(header.get("state", {}), arrays)
    finally:
        segment.close()


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


# ----------------------------------------------------------------------
# Materialization (the worker side)
# ----------------------------------------------------------------------

def materialize_snapshot(handle: SnapshotHandle) -> PathIndex:
    """Reconstruct a served index from a snapshot handle.

    This is the worker half of the snapshot path: ``shm`` handles
    unpack the shared segment, ``file`` handles load the uniform npz
    archive, ``mmap`` handles open the packed store.
    """
    if handle.kind == "shm":
        return _unpack_from_shm(handle.ref)
    if handle.kind == "file":
        return load_index(handle.ref)
    if handle.kind == "mmap":
        from ..store import open_store_index

        return open_store_index(handle.ref)
    raise ServingError(
        f"unknown snapshot transport {handle.kind!r}; "
        f"expected one of {SNAPSHOT_STORES}"
    )


# ----------------------------------------------------------------------
# Manager
# ----------------------------------------------------------------------

class SnapshotManager:
    """Publishes versioned snapshots of one source index.

    The manager owns snapshot storage: it packs each publish into the
    configured transport, retires storage beyond the ``keep`` most
    recent epochs (late-arriving batches may still reference the
    previous epoch, so at least two generations stay materialized),
    and keeps the per-epoch graphs of the ``audit_history`` most
    recent epochs for post-hoc exactness audits (bounded — each is an
    O(|V|+|E|) copy, and a long-running server publishes epochs
    indefinitely).

    Publishing reads ``source.to_state()`` — callers must not mutate
    the source concurrently with :meth:`publish`
    (:meth:`~repro.serving.service.QueryService.apply_updates`
    serializes the two).
    """

    def __init__(self, source: PathIndex, *, store: str = "shm",
                 directory=None, keep: int = 2,
                 audit_history: int = 64) -> None:
        if store not in SNAPSHOT_STORES:
            raise ServingError(
                f"unknown snapshot store {store!r}; "
                f"expected one of {SNAPSHOT_STORES}"
            )
        if keep < 2:
            raise ServingError("keep must be >= 2 (a late batch may "
                               "still reference the previous epoch)")
        if store == "mmap":
            from ..store import STORE_METHODS

            if source.method not in STORE_METHODS:
                raise ServingError(
                    f"store='mmap' packs label families "
                    f"{STORE_METHODS}; {source.method!r} indexes "
                    f"have no flat label layout to memory-map"
                )
        if audit_history < keep:
            raise ServingError("audit_history must be >= keep")
        self._source = source
        self._store = store
        self._keep = keep
        self._audit_history = audit_history
        self._directory = Path(directory) if directory is not None \
            else None
        self._owns_directory = False
        self._lock = threading.Lock()
        self._snapshots: Dict[int, Snapshot] = {}
        self._current: Optional[Snapshot] = None
        self._next_epoch = 0
        self._closed = False
        #: ``time.monotonic()`` of the latest publish — feeds
        #: :meth:`staleness_seconds` (the staleness SLO's provider).
        self._published_mono: Optional[float] = None

    # -- publishing -----------------------------------------------------

    def publish(self) -> Snapshot:
        """Publish the source's current state as a new epoch."""
        with self._lock:
            if self._closed:
                raise ServingError("snapshot manager is closed")
            epoch = self._next_epoch
            self._next_epoch += 1
            registry = get_registry()
            with span("snapshot.pack", epoch=epoch, kind=self._store):
                with Stopwatch() as sw:
                    snapshot = self._publish_locked(epoch)
            registry.histogram(
                "snapshot_publish_seconds",
                help="Pack-and-publish time of one snapshot epoch.",
                kind=self._store).observe(sw.elapsed)
            registry.counter(
                "snapshot_publishes_total",
                help="Snapshot epochs published.").inc()
            with span("snapshot.swap", epoch=epoch):
                self._snapshots[epoch] = snapshot
                self._current = snapshot
                self._retire_locked()
            self._published_mono = time.monotonic()
            return snapshot

    def publish_if_changed(self) -> Optional[Snapshot]:
        """Publish only when the source's ``version`` moved.

        Returns the new snapshot, or ``None`` when the current epoch
        already reflects the source (the cheap steady-state poll).
        """
        current = self._current
        if current is not None \
                and current.handle.version == self._source.version:
            return None
        return self.publish()

    def _publish_locked(self, epoch: int) -> Snapshot:
        source = self._source
        version = source.version
        graph = source.graph
        kind = self._store
        if kind == "shm":
            segment = _pack_to_shm(source)
            handle = SnapshotHandle(epoch, version, source.method,
                                    "shm", segment.name)
            return Snapshot(handle=handle, graph=graph,
                            _segment=segment)
        if kind == "file":
            path = self._snapshot_path(epoch)
            save_index(source, path)
            handle = SnapshotHandle(epoch, version, source.method,
                                    "file", str(path))
            return Snapshot(handle=handle, graph=graph)
        from ..store import pack_index_store

        path = self._snapshot_path(epoch, suffix=".store")
        pack_index_store(source, path)
        handle = SnapshotHandle(epoch, version, source.method,
                                "mmap", str(path))
        return Snapshot(handle=handle, graph=graph)

    def _snapshot_path(self, epoch: int, suffix: str = ".idx") -> Path:
        if self._directory is None:
            self._directory = Path(tempfile.mkdtemp(
                prefix="repro-serving-"))
            self._owns_directory = True
        self._directory.mkdir(parents=True, exist_ok=True)
        return self._directory / f"snapshot-{epoch:06d}{suffix}"

    # -- lookup ---------------------------------------------------------

    @property
    def current(self) -> Snapshot:
        """The latest published snapshot."""
        snapshot = self._current
        if snapshot is None:
            raise ServingError("nothing published yet")
        return snapshot

    def current_handle(self) -> SnapshotHandle:
        """Callable-friendly accessor the batcher stamps batches with."""
        return self.current.handle

    def graph_at(self, epoch: int):
        """The graph served at ``epoch``.

        Available for the ``audit_history`` most recent epochs —
        storage retirement does not drop it, falling out of the audit
        window does.
        """
        with self._lock:
            try:
                return self._snapshots[epoch].graph
            except KeyError:
                raise ServingError(
                    f"no snapshot published at epoch {epoch}"
                ) from None

    @property
    def epochs(self) -> List[int]:
        # Under the lock: a concurrent publish retiring audit records
        # mutates the dict, and sorted() over a mutating dict raises.
        with self._lock:
            return sorted(self._snapshots)

    def staleness_seconds(self) -> float:
        """How long the published snapshot has lagged the source.

        ``0.0`` while the current epoch reflects the source's version
        (the steady state — an old-but-current snapshot is not stale);
        otherwise, seconds since the last publish. The staleness SLO
        reads this through a provider.
        """
        current = self._current
        if current is None:
            return 0.0
        if current.handle.version == self._source.version:
            return 0.0
        if self._published_mono is None:  # pragma: no cover
            return 0.0
        return time.monotonic() - self._published_mono

    # -- retirement -----------------------------------------------------

    def _retire_locked(self) -> None:
        live = [e for e, s in sorted(self._snapshots.items())
                if not s.retired]
        for epoch in live[:-self._keep]:
            self._retire_storage(self._snapshots[epoch])
        # Audit records (the per-epoch graphs) are bounded too: a
        # long-running server under update traffic publishes epochs
        # indefinitely, and each graph is an O(|V|+|E|) copy.
        for epoch in sorted(self._snapshots)[:-self._audit_history]:
            del self._snapshots[epoch]

    def _retire_storage(self, snapshot: Snapshot) -> None:
        """Release the transport storage; the graph record stays."""
        if snapshot.retired:
            return
        snapshot.retired = True
        get_registry().counter(
            "snapshot_retirements_total",
            help="Snapshot epochs whose storage was retired.").inc()
        segment = snapshot._segment
        if segment is not None:
            snapshot._segment = None
            try:
                segment.close()
                segment.unlink()
            except (FileNotFoundError, OSError):
                pass
        elif snapshot.handle.kind in ("file", "mmap"):
            # POSIX unlink with workers still holding the mapping is
            # safe: their pages stay valid until the last close.
            try:
                Path(snapshot.handle.ref).unlink()
            except (FileNotFoundError, OSError):
                pass

    def close(self) -> None:
        """Retire every snapshot's storage and refuse new publishes."""
        with self._lock:
            self._closed = True
            for snapshot in self._snapshots.values():
                self._retire_storage(snapshot)
            if self._owns_directory and self._directory is not None:
                try:
                    self._directory.rmdir()
                except OSError:
                    pass

    def __enter__(self) -> "SnapshotManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
