"""`DynamicIndex` — a full `PathIndex` that stays exact under updates.

The dynamic subsystem's public face: an engine-registered family
(``"dynamic"``) layering three pieces on the PR-1 engine:

* a :class:`~repro.dynamic.delta.DeltaGraph` holding the current graph
  as a frozen base plus an insert/delete overlay;
* incrementally maintained PPL or ParentPPL labels, kept in the
  static families' flat CSR with gapped rows
  (:mod:`repro.dynamic.incremental`): edge insertions repair the
  labels by resumed pruned BFS — the roots that would prune at once
  screened out in one gather, the rest resumed a frontier at a time
  with one write per level over the labels' graph
  (:meth:`DynamicIndex._label_neighbors`: base rows plus one cached
  CSR of the added and phantom edges); deletions leave *phantom*
  edges behind and poison the pairs whose label-shortest paths
  crossed them;
* a query layer that serves clean pairs straight from the labels,
  re-validates poisoned pairs with a label-guided delta-BFS that
  moves one level per step over :meth:`DeltaGraph.neighbors_many`,
  and falls back to plain BFS only for pairs whose distance genuinely
  changed — so answers are **always oracle-exact** on the current
  graph.

A staleness policy caps how far the structure may drift: after
``rebuild_threshold`` applied mutations the labels are rebuilt from
the current snapshot (amortized, the rebuild is the same work a
build-once deployment would redo on *every* update). All counters —
inserts, removes, rebuilds, repaired entries, validated and
fallen-back queries — surface through :attr:`stats`, and
:attr:`version` feeds the engine's query-cache invalidation.

SPG queries do not use the recursive label resolution of the static
families: exactness there leans on the 2-hop *path* cover, which
incremental repair does not preserve. Instead the SPG is extracted
from two guided level sweeps using distances alone — exact whenever
the labels' distances are (module docstring of
:mod:`~repro.dynamic.incremental`).
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from .._util import UNREACHED, Stopwatch
from ..baselines.oracle import spg_oracle
from ..core.spg import ShortestPathGraph
from ..engine.base import PathIndex
from ..engine.batch import LabelArrays, two_hop_distance_many
from ..engine.persist import graph_arrays, graph_from_arrays, \
    label_arrays_from_state
from ..engine.registry import build_index, get_index_class, register_index
from ..errors import IndexBuildError, IndexFormatError, QueryError
from ..graph.builder import build_graph
from ..graph.csr import Graph
from ..graph.traversal import bfs_distances, expand_frontier
from ..obs import get_registry, span
from .delta import DeltaGraph, normalize_edge
from .incremental import MutableLabels, guided_levels, repair_insert

__all__ = ["DynamicIndex", "DYNAMIC_FAMILIES"]

Edge = Tuple[int, int]

#: Label families the dynamic maintenance supports.
DYNAMIC_FAMILIES = ("ppl", "parent-ppl")

#: Mutation kinds accepted by :meth:`DynamicIndex.apply_batch`.
_INSERT_KINDS = frozenset({"insert", "+"})
_REMOVE_KINDS = frozenset({"delete", "remove", "-"})

#: Pair x phantom-edge elements per chunk of the poisoning screen.
_SCREEN_ELEMS = 1 << 18


class _PhantomBlock(NamedTuple):
    """The phantom endpoints' labels end to end, one row per endpoint
    (ascending). ``starts`` opens each ``nonempty`` row only: reduceat
    over an empty row returns the next row's first entry. ``tails`` /
    ``heads``: each phantom edge's endpoint rows."""

    ranks: np.ndarray
    dists: np.ndarray
    starts: np.ndarray
    nonempty: np.ndarray
    tails: np.ndarray
    heads: np.ndarray


def _labels_of(index) -> MutableLabels:
    """Mutable copies of a static label index's flat labels; the
    static index keeps serving unchanged while the copy mutates."""
    return MutableLabels.from_flat(index.to_state()[1],
                                   index.method == "parent-ppl")


@register_index("dynamic")
class DynamicIndex(PathIndex):
    """Incrementally maintained path index over a mutable graph."""

    def __init__(self, graph: Graph, labels: MutableLabels, family: str,
                 rebuild_threshold: Optional[int]) -> None:
        self._family = family
        self._labels = labels
        self._delta = DeltaGraph(graph)
        self._phantom: Set[Edge] = set()
        self._phantom_version = 0
        self._screen_cache: Optional[Tuple[Any, _PhantomBlock]] = None
        self._overlay_cache: Optional[Tuple[Any, Graph, np.ndarray]] = None
        self._batch_cache: Optional[Tuple[int, LabelArrays]] = None
        self.rebuild_threshold = rebuild_threshold
        self._version = 0
        self._ops_since_rebuild = 0
        self._counters = {
            "inserts": 0, "removes": 0, "noops": 0, "rebuilds": 0,
            "validated_queries": 0, "fallback_queries": 0,
        }
        # Registry mirrors of the local counters above: `_count` bumps
        # both, so `stats` (absolute, persisted with the index) and the
        # process-wide `/metrics` series stay in step.
        registry = get_registry()
        self._m_counters = {
            key: registry.counter(f"dynamic_{key}_total",
                                  help="Dynamic-index event counter.")
            for key in self._counters}
        self._m_update_seconds = registry.histogram(
            "dynamic_update_seconds",
            help="Wall time of one applied insert/remove repair.")

    def _count(self, key: str) -> None:
        """Bump a local counter and its process-registry mirror."""
        self._counters[key] += 1
        self._m_counters[key].inc()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, graph: Graph, *, family: str = "ppl",
              rebuild_threshold: Optional[int] = None,
              **params) -> "DynamicIndex":
        """Build the underlying label family, then wrap it.

        ``params`` pass through to the family's ``build``.
        """
        return cls.from_static(build_index(graph, family, **params),
                               rebuild_threshold=rebuild_threshold)

    @classmethod
    def from_static(cls, index, *,
                    rebuild_threshold: Optional[int] = None
                    ) -> "DynamicIndex":
        """Promote a built PPL/ParentPPL index without rebuilding."""
        if index.method not in DYNAMIC_FAMILIES:
            raise IndexBuildError(
                f"cannot promote a {index.method!r} index to a "
                f"DynamicIndex; dynamic maintenance supports families "
                f"{DYNAMIC_FAMILIES}"
            )
        return cls(index.graph, _labels_of(index), index.method,
                   rebuild_threshold)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    @property
    def rebuild_threshold(self) -> int:
        """Applied mutations tolerated before a full label rebuild.

        ``0`` disables automatic rebuilds; the default scales with the
        base size (an eighth of the base edges, at least 64).
        """
        return self._rebuild_threshold

    @rebuild_threshold.setter
    def rebuild_threshold(self, value: Optional[int]) -> None:
        if value is None:
            value = max(64, self._delta.base.num_edges // 8)
        if value < 0:
            raise IndexBuildError("rebuild_threshold must be >= 0")
        self._rebuild_threshold = int(value)

    def insert_edge(self, u: int, v: int) -> bool:
        """Add edge ``{u, v}`` and repair the labels incrementally.

        Returns ``False`` when the edge was already present (a no-op).
        """
        if not self._delta.insert_edge(u, v):
            self._count("noops")
            return False
        self._version += 1
        self._count("inserts")
        edge = normalize_edge(u, v)
        with span("dynamic.insert_repair"), Stopwatch() as sw:
            if edge in self._phantom:
                # A deleted edge coming back: the labels never stopped
                # accounting for it, so un-poisoning it is the whole
                # repair.
                self._drop_phantom(edge)
            else:
                repair_insert(self._labels, self._label_neighbors, u, v)
        self._m_update_seconds.observe(sw.elapsed)
        self._bump_and_maybe_rebuild()
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        """Delete edge ``{u, v}``, leaving a phantom for the labels.

        Returns ``False`` when the edge was not present (a no-op).
        """
        if not self._delta.remove_edge(u, v):
            self._count("noops")
            return False
        self._version += 1
        self._count("removes")
        with Stopwatch() as sw:
            self._add_phantom(normalize_edge(u, v))
        self._m_update_seconds.observe(sw.elapsed)
        self._bump_and_maybe_rebuild()
        return True

    def apply_batch(self, operations) -> Dict[str, int]:
        """Apply ``(kind, u, v)`` mutations in order; returns counts.

        ``kind`` is ``"insert"``/``"+"`` or ``"delete"``/``"remove"``/
        ``"-"`` (query operations in a mixed stream are the caller's
        to answer — see the CLI ``update`` command).
        """
        applied = noops = 0
        for kind, u, v in operations:
            if kind in _INSERT_KINDS:
                changed = self.insert_edge(u, v)
            elif kind in _REMOVE_KINDS:
                changed = self.remove_edge(u, v)
            else:
                raise QueryError(
                    f"unknown update operation {kind!r}; expected "
                    f"insert/delete"
                )
            applied += changed
            noops += not changed
        return {"applied": applied, "noops": noops,
                "rebuilds": self._counters["rebuilds"]}

    def rebuild(self) -> None:
        """Rebuild the labels from the current snapshot, clearing the
        delta and every phantom edge."""
        snapshot = self._delta.snapshot()
        with span("dynamic.rebuild"):
            rebuilt = build_index(snapshot, self._family)
        self._labels = _labels_of(rebuilt)
        self._delta = DeltaGraph(snapshot)
        self._phantom.clear()
        self._phantom_version += 1
        self._ops_since_rebuild = 0
        self._count("rebuilds")
        # Fresh labels restart the repaired-entries counter, so no
        # cache keyed on it may outlive the old ones.
        self._batch_cache = None
        self._screen_cache = None

    def _bump_and_maybe_rebuild(self) -> None:
        self._ops_since_rebuild += 1
        if self._rebuild_threshold \
                and self._ops_since_rebuild >= self._rebuild_threshold:
            self.rebuild()

    def _add_phantom(self, edge: Edge) -> None:
        self._phantom.add(edge)
        self._phantom_version += 1

    def _drop_phantom(self, edge: Edge) -> None:
        self._phantom.discard(edge)
        self._phantom_version += 1

    # ------------------------------------------------------------------
    # Adjacency callbacks
    # ------------------------------------------------------------------

    def _label_neighbors(self, frontier: np.ndarray) -> np.ndarray:
        """Concatenated neighbours of a frontier in the labels' graph
        (current plus phantom edges): the base rows — a deleted base
        edge is a phantom, so every base row stays whole — then the
        rows of the overlay graph of added and phantom edges, if any
        frontier vertex has one."""
        base = self._delta.base
        ids = expand_frontier(base.indptr, base.indices, frontier)
        overlay, touched = self._label_overlay()
        if touched[frontier].any():
            ids = np.concatenate((ids, expand_frontier(
                overlay.indptr, overlay.indices, frontier)))
        return ids

    def _label_overlay(self) -> Tuple[Graph, np.ndarray]:
        """Added and phantom edges as one CSR graph, and the mask of
        the vertices they touch; cached until the next mutation."""
        key = (self._delta.version, self._phantom_version)
        if self._overlay_cache is None or self._overlay_cache[0] != key:
            edges = self._delta.added_edges() + sorted(self._phantom)
            overlay = build_graph(
                np.array(edges, dtype=np.int64).reshape(-1, 2),
                num_vertices=self._delta.num_vertices)
            self._overlay_cache = (key, overlay, overlay.degree() > 0)
        return self._overlay_cache[1:]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _distance(self, u: int, v: int) -> Optional[int]:
        return self._resolve_distance(u, v)[0]

    def _distance_many(self, us, vs) -> np.ndarray:
        """Batched distances: the 2-hop label kernel (its graph is a
        supergraph of the current one, so ``UNREACHED`` is exact), then
        :meth:`_poisoned`, the screen scalar queries take too. Only
        poisoned pairs re-validate, through the scalar path."""
        labels = self._labels
        # Keyed on the label-mutation counter, not the index version:
        # deletions only poison (labels untouched), so they must not
        # force an O(size(L)) repack before the next batch.
        cached = self._batch_cache
        if cached is None or cached[0] != labels.repaired_entries:
            flat = labels.to_flat()
            cached = self._batch_cache = (
                labels.repaired_entries,
                LabelArrays.from_flat(flat["label_offsets"],
                                      flat["label_ranks"],
                                      flat["label_dists"]))
        dist = two_hop_distance_many(cached[1], us, vs)
        if self._phantom:
            for b in np.flatnonzero(self._poisoned(us, vs, dist)).tolist():
                d = self._distance(int(us[b]), int(vs[b]))
                dist[b] = UNREACHED if d is None else d
        return dist

    def _poisoned(self, us: np.ndarray, vs: np.ndarray,
                  dist: np.ndarray) -> np.ndarray:
        """Mask of the pairs whose label answer ``dist`` a phantom edge
        may have broken: edge ``(a, b)`` poisons ``(u, v)`` iff
        ``d(u,a) + 1 + d(b,v) = d`` in one of its two orientations.
        ``UNREACHED`` pairs are never poisoned. One test covers every
        phantom edge, over pair chunks of ``_SCREEN_ELEMS`` elements.
        """
        block = self._screen_block()
        poisoned = np.zeros(len(us), dtype=bool)
        live = np.flatnonzero(dist != UNREACHED)
        step = max(1, _SCREEN_ELEMS // len(block.tails))
        for start in range(0, len(live), step):
            rows = live[start:start + step]
            ends, slot = np.unique(np.concatenate((us[rows], vs[rows])),
                                   return_inverse=True)
            legs = self._legs_to_phantoms(block, ends)
            to_u, to_v = legs[slot[:len(rows)]], legs[slot[len(rows):]]
            target = dist[rows, None] - 1.0
            poisoned[rows] = (
                (to_u[:, block.tails] + to_v[:, block.heads] == target)
                | (to_u[:, block.heads] + to_v[:, block.tails] == target)
            ).any(axis=1)
        return poisoned

    def _screen_block(self) -> _PhantomBlock:
        labels = self._labels
        key = (labels.repaired_entries, self._phantom_version)
        if self._screen_cache is not None and self._screen_cache[0] == key:
            return self._screen_cache[1]
        ends, rows = np.unique(np.array(sorted(self._phantom)).ravel(),
                               return_inverse=True)
        rows = rows.reshape(-1, 2)
        gathered = labels.gather(ends)
        nonempty = gathered.counts > 0
        block = _PhantomBlock(
            gathered.ranks, labels.dists[gathered.slots].astype(float),
            gathered.heads[nonempty], nonempty, rows[:, 0], rows[:, 1])
        self._screen_cache = (key, block)
        return block

    def _legs_to_phantoms(self, block: _PhantomBlock,
                          ends: np.ndarray) -> np.ndarray:
        """``legs[i, j]``: label distance from ``ends[i]`` to phantom
        endpoint ``j``. Per end: scatter its label into the dense
        by-rank scratch (borrowed from the labels), gather over the
        block, reduce per row, reset its slots to ``inf``."""
        labels = self._labels
        legs = np.full((len(ends), len(block.nonempty)), np.inf)
        by_rank = labels.borrow_scratch()
        for row, x in enumerate(ends.tolist()):
            ranks, dists = labels.row(x)
            by_rank[ranks] = dists
            entries = by_rank[block.ranks] + block.dists
            by_rank[ranks] = np.inf
            legs[row, block.nonempty] = np.minimum.reduceat(
                entries, block.starts)
        labels.return_scratch(by_rank)
        return legs

    def _resolve_distance(self, u: int, v: int
                          ) -> Tuple[Optional[int], bool,
                                     Optional[Dict[int, int]]]:
        """``(current distance, labels_exact, levels_from_u)``.

        ``labels_exact`` is True when the label distance is the current
        distance (clean pair, or poisoned pair that validated), so the
        guided SPG extraction applies; False means the pair fell back
        to plain BFS on the snapshot. ``levels_from_u`` hands the
        validation sweep to :meth:`query` where one already ran, so a
        poisoned-but-validated SPG query does not redo it.
        """
        d = self._labels.distance(u, v)
        if d is None:
            # The labels' graph is a supergraph of the current one, so
            # disconnected there means disconnected here.
            return None, True, None
        if not self._phantom or not self._poisoned(
                np.array([u]), np.array([v]), np.array([d]))[0]:
            return d, True, None
        self._count("validated_queries")
        with span("dynamic.validate"):
            levels = guided_levels(self._labels,
                                   self._delta.neighbors_many, u, v, d)
        if levels.get(v) == d:
            return d, True, levels
        self._count("fallback_queries")
        with span("dynamic.fallback_bfs"):
            fallback = int(bfs_distances(self._delta.snapshot(), u)[v])
        return (None if fallback == UNREACHED else fallback), False, None

    def _query(self, u: int, v: int) -> ShortestPathGraph:
        d, labels_exact, from_u = self._resolve_distance(u, v)
        if d is None:
            return ShortestPathGraph.empty(u, v)
        if not labels_exact:
            return spg_oracle(self._delta.snapshot(), u, v)
        if from_u is None:
            from_u = guided_levels(self._labels,
                                   self._delta.neighbors_many, u, v, d)
        from_v = guided_levels(self._labels, self._delta.neighbors_many,
                               v, u, d)
        edges = set()
        for x, depth_x in from_u.items():
            for y in self._delta.neighbors(x):
                depth_y = from_v.get(int(y))
                if depth_y is not None and depth_x + 1 + depth_y == d:
                    edges.add(normalize_edge(x, int(y)))
        return ShortestPathGraph(u, v, d, edges)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def graph(self) -> Graph:
        """The *current* graph (materialized snapshot of the overlay)."""
        return self._delta.snapshot()

    @property
    def num_vertices(self) -> int:
        """Vertex count without materializing the snapshot."""
        return self._delta.num_vertices

    @property
    def delta(self) -> DeltaGraph:
        """The mutable overlay; mutate through the index, not here."""
        return self._delta

    @property
    def family(self) -> str:
        return self._family

    @property
    def version(self) -> int:
        """Mutation counter: bumps on every applied insert/remove."""
        return self._version

    @property
    def size_bytes(self) -> int:
        """Labels under the family's paper model plus 8 bytes per
        overlay edge (added and phantom)."""
        overlay = len(self._delta.added_edges()) + len(self._phantom)
        return self._labels.paper_size_bytes() + 8 * overlay

    @property
    def _counted_graph(self) -> DeltaGraph:
        """The overlay: its counts need no snapshot."""
        return self._delta

    @property
    def stats(self) -> Dict[str, Any]:
        base = PathIndex.stats.fget(self)
        base.update({
            "family": self._family,
            "base_edges": self._delta.base.num_edges,
            "added_edges": len(self._delta.added_edges()),
            "phantom_edges": len(self._phantom),
            "label_entries": self._labels.num_entries(),
            "repaired_entries": self._labels.repaired_entries,
            "version": self._version,
            "rebuild_threshold": self._rebuild_threshold,
            "ops_since_rebuild": self._ops_since_rebuild,
            **self._counters,
        })
        return base

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def to_state(self):
        labels = self._labels
        arrays = {
            **graph_arrays(self._delta.base),
            **labels.to_flat(),
            "added": _edge_rows(self._delta.added_edges()),
            "phantom": _edge_rows(sorted(self._phantom)),
        }
        meta = {
            "family": self._family,
            "rebuild_threshold": self._rebuild_threshold,
            "version": self._version,
            "ops_since_rebuild": self._ops_since_rebuild,
            "counters": dict(self._counters),
            "repaired_entries": labels.repaired_entries,
        }
        return meta, arrays

    @classmethod
    def from_state(cls, meta, arrays) -> "DynamicIndex":
        family = meta.get("family")
        if family not in DYNAMIC_FAMILIES:
            raise IndexFormatError(
                f"dynamic archive names unsupported family {family!r}"
            )
        graph = graph_from_arrays(arrays)
        labels = MutableLabels.from_flat(label_arrays_from_state(
            arrays, get_index_class(family).LABEL_ARRAYS,
            graph.num_vertices), family == "parent-ppl")
        index = cls(graph, labels, family, meta.get("rebuild_threshold"))
        for u, v in arrays["added"].tolist():
            index._delta.insert_edge(int(u), int(v))
        for u, v in arrays["phantom"].tolist():
            edge = normalize_edge(int(u), int(v))
            if graph.has_edge(*edge):
                index._delta.remove_edge(*edge)
            index._add_phantom(edge)
        index._version = int(meta.get("version", 0))
        index._ops_since_rebuild = int(meta.get("ops_since_rebuild", 0))
        index._counters.update(meta.get("counters", {}))
        index._labels.repaired_entries = int(
            meta.get("repaired_entries", 0))
        return index


def _edge_rows(edges: List[Edge]) -> np.ndarray:
    return np.asarray(edges, dtype=np.int32).reshape(-1, 2)
