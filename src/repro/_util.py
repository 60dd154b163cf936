"""Small internal utilities shared across the library.

Nothing in this module is part of the public API.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import BudgetExceededError

#: Sentinel used in dense uint8 label matrices for "no label".
NO_LABEL = 255

#: Sentinel used in int32 depth arrays for "unvisited".
UNREACHED = -1


def segment_positions(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Positions of the slices ``[starts[i], starts[i] + counts[i])``,
    concatenated in order.

    The vectorized multi-slice gather: ``flat[segment_positions(starts,
    counts)]`` pulls every slice of a CSR-style array at once, as one
    ``arange`` shifted per slice.
    """
    ends = counts.cumsum(dtype=np.int64)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total, dtype=np.int64) \
        + (starts - (ends - counts)).repeat(counts)


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D array, as one sort and one neighbour
    compare: numpy 2's hash-based ``unique`` costs ~15x more on a few
    thousand ids (a BFS level's neighbours)."""
    values = np.sort(values)
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def check_random_state(seed) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh entropy), an integer seed, or an existing
    generator (returned unchanged, so state is shared with the caller).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@contextlib.contextmanager
def atomic_write(path):
    """Binary handle whose bytes become ``path`` all at once.

    It is a temporary file in the *same directory* (same filesystem,
    so the rename cannot degrade to a copy); a clean exit fsyncs it
    and ``os.replace``\\ s it over ``path``. A crash or an exception
    leaves the previous file or the complete new one, never a
    truncated one, and ``np.savez`` handed this cannot append ``.npz``.
    """
    directory = os.path.dirname(os.path.abspath(os.fspath(path)))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".repro-",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


class Stopwatch:
    """Context manager measuring wall-clock time in seconds.

    >>> with Stopwatch() as sw:
    ...     _ = sum(range(10))
    >>> sw.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self._start: Optional[float] = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        assert self._start is not None
        self.elapsed = time.perf_counter() - self._start


@dataclass
class TimeBudget:
    """Cooperative deadline used to emulate the paper's DNF walls.

    Long-running constructions (PPL, ParentPPL) call :meth:`check`
    periodically; once the wall-clock budget is exhausted a
    :class:`~repro.errors.BudgetExceededError` is raised, which the
    harness records as a DNF entry.
    """

    seconds: float
    label: str = "construction"
    _deadline: float = field(init=False)

    def __post_init__(self) -> None:
        if self.seconds <= 0:
            raise ValueError("budget must be positive")
        self._deadline = time.perf_counter() + self.seconds

    def check(self) -> None:
        """Raise :class:`BudgetExceededError` if the deadline has passed."""
        if time.perf_counter() > self._deadline:
            raise BudgetExceededError(
                f"{self.label} exceeded budget of {self.seconds:.1f}s",
                kind="time",
            )

    @property
    def remaining(self) -> float:
        return self._deadline - time.perf_counter()


def format_bytes(num_bytes: float) -> str:
    """Render a byte count the way the paper's tables do (KB/MB/GB)."""
    value = float(num_bytes)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if value < 1024.0 or unit == "TB":
            if unit == "B":
                return f"{value:.0f}{unit}"
            return f"{value:.2f}{unit}"
        value /= 1024.0
    raise AssertionError("unreachable")


def format_seconds(seconds: float) -> str:
    """Human-readable duration with paper-like precision."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.3f}ms"
    return f"{seconds:.2f}s"
