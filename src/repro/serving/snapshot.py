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

A published epoch is exactly one file in the page-aligned ``REPROSTR``
container of :mod:`repro.store.format`, which every worker maps
read-only. It holds the index's
:meth:`~repro.engine.base.PathIndex.snapshot_state`: the ``to_state``
arrays as they are, plus whatever derived arrays the family would
rather have mapped than rebuilt per worker (``ppl`` / ``parent-ppl``:
the batch kernel's head and tail). Each worker's ``from_state`` gets
non-owning views into the one shared mapping
(:func:`~repro.store.format.map_store_arrays`). One write, N readers,
no pickling, no per-worker copy — a fleet holds one set of label
pages. Unset, ``directory`` is under ``/dev/shm`` when that is
writable (tmpfs, so never to a disk), else under the temp dir; an
index bigger than RAM is served from a ``directory=`` on a disk, whose
pages are the OS page cache the fleet shares.

Lifetime: the manager retires an epoch by unlinking its file. POSIX
keeps an unlinked file's mapping valid, so a worker already on that
epoch keeps answering from it; a handle to a retired
epoch reaching a worker *afterwards* fails with a typed
:class:`~repro.errors.ServingError`, which the batcher retries. The
directory a manager derives carries its pid (``repro-serving-<pid>-*``)
and creating one removes the siblings whose owner no longer exists.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional

from .._util import Stopwatch
from ..engine.base import PathIndex
from ..engine.registry import get_index_class
from ..errors import IndexFormatError, ServingError
from ..obs import get_registry, span
from ..store import map_store_arrays, write_store

__all__ = ["SnapshotHandle", "Snapshot", "SnapshotManager",
           "materialize_snapshot"]

#: Where snapshots go when it is a writable directory (tmpfs).
_SHM_ROOT = "/dev/shm"


class SnapshotHandle(NamedTuple):
    """A picklable reference to one published snapshot; ``ref`` is
    the path of its file.

    Handles are what crosses the process boundary: every request batch
    carries the current handle, and a worker whose materialized epoch
    differs re-materializes from it (the lazy half of a hot swap).
    """

    epoch: int
    version: int
    method: str
    ref: str


@dataclass
class Snapshot:
    """One published snapshot. ``graph`` is the graph it answers over,
    retained manager-side so answers served at this epoch can be
    audited against a BFS oracle even after later epochs supersede it.
    """

    handle: SnapshotHandle
    graph: Any
    retired: bool = False


def _sweep_dead_owners(parent: str) -> None:
    """Remove the ``repro-serving-<pid>-*`` directories under ``parent``
    whose owner is gone: a SIGKILLed server cannot retire its own."""
    for stale in Path(parent).glob("repro-serving-*-*"):
        try:
            os.kill(int(stale.name.split("-")[2]), 0)
        except ProcessLookupError:
            shutil.rmtree(stale, ignore_errors=True)
        except (ValueError, OSError):
            pass  # no pid in the name, or a live process of another user


def materialize_snapshot(handle: SnapshotHandle) -> PathIndex:
    """Reconstruct a served index from a snapshot handle (the worker
    half of the snapshot path). The index reads the file through a
    read-only mapping it keeps alive: it neither copies the arrays nor
    may write to them."""
    try:
        header, arrays = map_store_arrays(handle.ref)
        return get_index_class(header["method"]).from_state(
            header.get("state", {}), arrays)
    except IndexFormatError as exc:
        raise ServingError(
            f"cannot open the snapshot of epoch {handle.epoch} "
            f"({exc}); it was probably retired by the publisher"
        ) from exc


class SnapshotManager:
    """Publishes versioned snapshots of one source index.

    The manager owns snapshot storage: it writes each publish as one
    file, retires the files beyond the ``keep``
    most recent epochs (late-arriving batches may still reference the
    previous epoch, so at least two generations stay on hand), and
    keeps the per-epoch graphs of the ``audit_history`` most
    recent epochs for post-hoc exactness audits (bounded — each is an
    O(|V|+|E|) copy, and a long-running server publishes epochs
    indefinitely).

    Publishing reads ``source.snapshot_state()`` — callers must not mutate
    the source concurrently with :meth:`publish`
    (:meth:`~repro.serving.service.QueryService.apply_updates`
    serializes the two).
    """

    def __init__(self, source: PathIndex, *, directory=None,
                 keep: int = 2, audit_history: int = 64) -> None:
        if keep < 2:
            raise ServingError("keep must be >= 2 (a late batch may "
                               "still reference the previous epoch)")
        if audit_history < keep:
            raise ServingError("audit_history must be >= keep")
        self._source = source
        self._keep = keep
        self._audit_history = audit_history
        self._directory = Path(directory) if directory is not None \
            else None
        self._owns_directory = directory is None
        self._lock = threading.Lock()
        self._snapshots: Dict[int, Snapshot] = {}
        self._current: Optional[Snapshot] = None
        self._next_epoch = 0
        self._closed = False
        #: ``time.monotonic()`` of the latest publish (set before
        #: ``_current``) — feeds :meth:`staleness_seconds`.
        self._published_mono = 0.0

    # -- publishing -----------------------------------------------------

    def publish(self) -> Snapshot:
        """Publish the source's current state as a new epoch."""
        with self._lock:
            if self._closed:
                raise ServingError("snapshot manager is closed")
            epoch = self._next_epoch
            self._next_epoch += 1
            registry = get_registry()
            with span("snapshot.pack", epoch=epoch):
                with Stopwatch() as sw:
                    snapshot = self._publish_locked(epoch)
            registry.histogram(
                "snapshot_publish_seconds",
                help="Pack-and-publish time of one snapshot epoch."
            ).observe(sw.elapsed)
            registry.counter(
                "snapshot_publishes_total",
                help="Snapshot epochs published.").inc()
            with span("snapshot.swap", epoch=epoch):
                self._published_mono = time.monotonic()
                self._snapshots[epoch] = snapshot
                self._current = snapshot
                self._retire_locked()
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
        path = self._snapshot_path(epoch)
        try:
            state, arrays = source.snapshot_state()
            write_store(path, method=source.method, state=state,
                        arrays=arrays, hot=arrays, source_arrays=arrays)
        except IndexFormatError as exc:
            raise ServingError(
                f"cannot publish snapshot epoch {epoch} ({exc}); "
                f"directory= places the files elsewhere") from exc
        return Snapshot(SnapshotHandle(epoch, version, source.method,
                                       str(path)), graph)

    def _snapshot_path(self, epoch: int) -> Path:
        if self._directory is None:
            parent = _SHM_ROOT if os.path.isdir(_SHM_ROOT) \
                and os.access(_SHM_ROOT, os.W_OK) \
                else tempfile.gettempdir()
            _sweep_dead_owners(parent)
            self._directory = Path(tempfile.mkdtemp(
                prefix=f"repro-serving-{os.getpid()}-", dir=parent))
        self._directory.mkdir(parents=True, exist_ok=True)
        return self._directory / f"snapshot-{epoch:06d}.store"

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
        if current is None \
                or current.handle.version == self._source.version:
            return 0.0
        return time.monotonic() - self._published_mono

    # -- retirement -----------------------------------------------------

    def _retire_locked(self) -> None:
        for epoch in sorted(self._snapshots)[:-self._keep]:
            self._retire_storage(self._snapshots[epoch])
        # Audit records (the per-epoch graphs) are bounded too.
        for epoch in sorted(self._snapshots)[:-self._audit_history]:
            del self._snapshots[epoch]

    def _retire_storage(self, snapshot: Snapshot) -> None:
        """Unlink the snapshot file; the graph record stays."""
        if snapshot.retired:
            return
        snapshot.retired = True
        get_registry().counter(
            "snapshot_retirements_total",
            help="Snapshot epochs whose storage was retired.").inc()
        # A worker's mapping of the file outlives the path.
        try:
            os.unlink(snapshot.handle.ref)
        except OSError:
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
