"""`ShardedIndex` — the scale-out index family (engine key ``"sharded"``).

One index per shard plus one boundary overlay, behind the ordinary
:class:`~repro.engine.base.PathIndex` contract:

* the graph is partitioned (:mod:`repro.shard.partition`) and each
  shard gets an **inner index** of any registered undirected family
  (``ppl``, ``qbs``, ...) built over its *compacted* induced subgraph
  — per-shard memory scales with the shard, not the graph;
* the **boundary overlay** (:mod:`repro.shard.overlay`) stores exact
  full-graph distances between boundary vertices, so cross-shard
  answers are assembled, never approximated:

      d(u, v) = min( d_shard(u, v)                       [cohabiting]
                   , min_{b1, b2} d_shard(u, b1)
                                  + D[b1, b2]
                                  + d_shard(b2, v) )     [relayed]

* shortest-path-*graph* queries rebuild the exact global distance
  fields ``d(u, .)`` / ``d(., v)`` shard by shard with one
  offset-seeded BFS sweep per *relevant* shard
  (:func:`~repro.graph.traversal.bfs_distances_offsets`, seeded with
  the overlay relay distances), then extract the SPG edge set with
  the same vectorized predicate the BFS oracle uses — so the edge set
  is oracle-exact by construction, while shards the query provably
  cannot touch are never swept.

Construction parallelizes per shard through
:class:`~repro.shard.builder.ParallelBuilder`; persistence nests every
inner index's ``to_state`` arrays under a ``shard{i}__`` prefix inside
the one uniform npz archive, so ``load_index`` and the serving
snapshot transports work unchanged.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._util import UNREACHED, Stopwatch
from ..baselines.oracle import spg_edges_from_distances
from ..core.spg import ShortestPathGraph
from ..engine.base import PathIndex
from ..engine.batch import batched_min_plus, seal_distances
from ..engine.registry import get_index_class, register_index
from ..errors import GraphValidationError, IndexBuildError
from ..graph.csr import Graph
from ..graph.ops import induced_subgraph
from ..graph.traversal import bfs_distances_offsets
from ..obs import get_registry, span
from .builder import ParallelBuilder, ShardBuildOutcome
from .overlay import BoundaryOverlay, build_overlay, \
    float_distances, shard_boundary_ids
from .partition import Partition, partition_graph

__all__ = ["ShardedIndex"]

_SHARD_PREFIX = "shard{}__"

#: Families that cannot serve as inner indexes.
_FORBIDDEN_INNER = ("sharded",)


@register_index("sharded")
class ShardedIndex(PathIndex):
    """Partitioned path index: per-shard inner indexes + overlay."""

    def __init__(self, graph: Graph, partition: Partition,
                 shards: Sequence[PathIndex],
                 overlay: BoundaryOverlay, inner: str,
                 inner_params: Optional[Dict[str, Any]] = None,
                 outcomes: Optional[Sequence[ShardBuildOutcome]] = None,
                 build_wall_seconds: Optional[float] = None) -> None:
        if len(shards) != partition.num_shards:
            raise GraphValidationError(
                f"{len(shards)} shard indexes for a "
                f"{partition.num_shards}-way partition"
            )
        if graph.num_vertices != partition.num_vertices:
            raise GraphValidationError(
                "partition does not cover the graph"
            )
        self._graph = graph
        self._partition = partition
        self._shards = list(shards)
        self._overlay = overlay
        self._inner = inner
        self._inner_params = dict(inner_params or {})
        self._outcomes = list(outcomes) if outcomes is not None else None
        self._build_wall_seconds = build_wall_seconds

        n = graph.num_vertices
        self._shard_vertices: List[np.ndarray] = []
        self._local_id = np.full(n, -1, dtype=np.int32)
        for shard, index in enumerate(self._shards):
            vertices = partition.shard_vertices(shard)
            if index.graph.num_vertices != len(vertices):
                raise GraphValidationError(
                    f"shard {shard} index covers "
                    f"{index.graph.num_vertices} vertices, partition "
                    f"assigns {len(vertices)}"
                )
            self._shard_vertices.append(vertices)
            self._local_id[vertices] = np.arange(len(vertices),
                                                 dtype=np.int32)
        boundary_global = shard_boundary_ids(partition, graph)
        expected = np.concatenate(boundary_global) if boundary_global \
            else np.zeros(0, dtype=np.int32)
        if len(np.unique(expected)) != overlay.num_boundary:
            raise GraphValidationError(
                "overlay boundary does not match the partition"
            )
        self._shard_boundary_local = [
            np.searchsorted(self._shard_vertices[s],
                            boundary_global[s]).astype(np.int64)
            for s in range(partition.num_shards)
        ]
        self._shard_boundary_overlay = [
            overlay.position[boundary_global[s]].astype(np.int64)
            for s in range(partition.num_shards)
        ]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, graph: Graph, *, num_shards: int = 4,
              inner: str = "ppl", partition_method: str = "bfs",
              seed: int = 0, workers: Optional[int] = 1,
              **inner_params) -> "ShardedIndex":
        """Partition, build every shard, assemble the overlay.

        ``inner_params`` pass through to the inner family's ``build``
        (e.g. ``num_landmarks`` for ``inner="qbs"``). ``workers=1``
        builds shards inline; larger values fan out over a process
        pool (:class:`~repro.shard.builder.ParallelBuilder`).
        """
        with span("build.partition", shards=num_shards):
            with Stopwatch() as sw:
                partition = partition_graph(graph, num_shards,
                                            method=partition_method,
                                            seed=seed)
        get_registry().histogram(
            "build_phase_seconds",
            help="Wall time of index build phases.",
            phase="partition").observe(sw.elapsed)
        return cls.from_partition(graph, partition, inner=inner,
                                  workers=workers, **inner_params)

    @classmethod
    def from_partition(cls, graph: Graph, partition: Partition, *,
                       inner: str = "ppl",
                       workers: Optional[int] = 1,
                       **inner_params) -> "ShardedIndex":
        """Build over a pre-computed partition (CLI / benchmarks)."""
        _check_inner(inner)
        if graph.num_vertices != partition.num_vertices:
            raise IndexBuildError(
                f"partition covers {partition.num_vertices} vertices, "
                f"graph has {graph.num_vertices}"
            )
        subgraphs: List[Graph] = []
        boundary_global = shard_boundary_ids(partition, graph)
        boundary_locals: List[np.ndarray] = []
        for shard in range(partition.num_shards):
            vertices = partition.shard_vertices(shard)
            subgraph, global_ids = induced_subgraph(graph, vertices)
            subgraphs.append(subgraph)
            boundary_locals.append(
                np.searchsorted(global_ids,
                                boundary_global[shard]).astype(np.int64))
        registry = get_registry()
        phase_seconds = registry.histogram(
            "build_phase_seconds",
            help="Wall time of index build phases.", phase="shards")
        builder = ParallelBuilder(num_workers=workers)
        with span("build.shards", shards=partition.num_shards,
                  inner=inner):
            shards, cliques, outcomes, wall = builder.build(
                subgraphs, boundary_locals, inner, inner_params)
        phase_seconds.observe(wall)
        if outcomes:
            shard_seconds = registry.histogram(
                "build_shard_seconds",
                help="Per-shard inner index build time.")
            shard_seconds.observe_many([o.seconds for o in outcomes])
        with span("build.overlay"):
            with Stopwatch() as sw:
                overlay = build_overlay(graph, partition,
                                        boundary_global, cliques)
        registry.histogram(
            "build_phase_seconds",
            help="Wall time of index build phases.",
            phase="overlay").observe(sw.elapsed)
        return cls(graph, partition, shards, overlay, inner,
                   inner_params=inner_params, outcomes=outcomes,
                   build_wall_seconds=wall)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _distance(self, u: int, v: int) -> Optional[int]:
        su = int(self._partition.assignment[u])
        direct = None
        if su == int(self._partition.assignment[v]):
            with span("shard.local", shard=su):
                direct = self._shards[su].distance(
                    int(self._local_id[u]), int(self._local_id[v]))
            if direct is not None and direct <= 2:
                # A local answer this short is provably global: 1 means
                # the edge itself (present in the induced subgraph),
                # and beating a local 2 would need that edge.
                return int(direct)
        best, _, _ = self._assemble_distance(u, v, direct=direct)
        return None if np.isinf(best) else int(best)

    def _distance_many(self, us, vs) -> np.ndarray:
        """Batched cross-shard assembly with per-shard bulk gathers.

        The scalar path pays one inner point query per boundary vertex
        per endpoint; batched, every shard answers *all* its endpoint
        boundary distances (and all cohabiting pairs) through the
        inner family's own batch kernel, and the relay minimum runs
        as one chunked min-plus reduction against the overlay matrix
        per ``(shard, shard)`` group. Short local answers (``d <= 2``)
        keep their provable short-circuit.
        """
        count = len(us)
        num_shards = self._partition.num_shards
        assignment = self._partition.assignment
        shard_u = assignment[us].astype(np.int64)
        shard_v = assignment[vs].astype(np.int64)

        # Cohabiting pairs first: bulk inner answers, which stay
        # candidates against the relay unless the local-d<=2
        # short-circuit (provably global; see `_distance`) settles
        # them — settled pairs never pay for boundary rows below.
        cohabiting = shard_u == shard_v
        best = np.full(count, np.inf, dtype=np.float64)
        with span("shard.local", pairs=int(cohabiting.sum())):
            for shard in range(num_shards):
                members = np.nonzero(cohabiting & (shard_u == shard))[0]
                if len(members):
                    best[members] = float_distances(
                        self._shards[shard]._distance_array(
                            self._local_id[us[members]].astype(np.int64),
                            self._local_id[vs[members]].astype(np.int64)))

        # The pairs the relay must still consider, grouped by their
        # (su, sv) shard pair so each group shares one overlay block.
        open_idx = np.nonzero(~(cohabiting & (best <= 2)))[0]
        group_key = shard_u[open_idx] * num_shards + shard_v[open_idx]
        order = np.argsort(group_key, kind="stable")
        open_idx, group_key = open_idx[order], group_key[order]

        # One boundary distance grid per shard, a row per unique
        # endpoint of those pairs.
        unique, inverse = np.unique(
            np.concatenate((us[open_idx], vs[open_idx])),
            return_inverse=True)
        unique_shard = assignment[unique]
        row = np.empty(len(unique), dtype=np.int64)
        grids: List[Optional[np.ndarray]] = [None] * num_shards
        with span("shard.boundary", endpoints=len(unique)):
            for shard in range(num_shards):
                members = np.nonzero(unique_shard == shard)[0]
                if len(members):
                    row[members] = np.arange(len(members))
                    grids[shard] = self._boundary_grid(
                        shard, self._local_id[unique[members]])
        row_u, row_v = np.split(row[inverse], 2)

        if len(open_idx) and self._overlay.num_boundary:
            with span("shard.relay", pairs=len(open_idx)):
                starts = np.nonzero(
                    np.r_[True, np.diff(group_key) != 0])[0]
                ends = np.r_[starts[1:], len(open_idx)]
                for lo, hi in zip(starts.tolist(), ends.tolist()):
                    group = open_idx[lo:hi]
                    s_u = int(shard_u[group[0]])
                    s_v = int(shard_v[group[0]])
                    overlay_u = self._shard_boundary_overlay[s_u]
                    overlay_v = self._shard_boundary_overlay[s_v]
                    if not len(overlay_u) or not len(overlay_v):
                        continue
                    block = self._overlay.dist_float(overlay_u,
                                                     overlay_v)
                    best[group] = np.minimum(
                        best[group], batched_min_plus(
                            grids[s_u][row_u[lo:hi]], block,
                            grids[s_v][row_v[lo:hi]]))
        return seal_distances(best)

    def _query(self, u: int, v: int) -> ShortestPathGraph:
        best, du_b, dv_b = self._assemble_distance(u, v)
        if np.isinf(best):
            return ShortestPathGraph.empty(u, v)
        d = int(best)
        if d == 1:
            # The union of all length-1 shortest paths is the edge.
            return ShortestPathGraph(u, v, 1, [(u, v)])
        with span("shard.spg_sweep", d=d):
            du = self._distance_field(u, du_b, v, dv_b, d)
            dv = self._distance_field(v, dv_b, u, du_b, d)
            edges = spg_edges_from_distances(self._graph, du, dv, d)
        return ShortestPathGraph(u, v, d,
                                 map(tuple, edges.tolist()))

    def _assemble_distance(self, u: int, v: int,
                           direct: Optional[int] = None
                           ) -> Tuple[float, np.ndarray, np.ndarray]:
        """``(d(u, v) or inf, d_local(u, B_su), d_local(v, B_sv))``.

        The two local boundary vectors are returned so the SPG path
        reuses them for the relay fields instead of re-querying.
        ``direct`` hands in an already-computed same-shard inner
        answer (``distance`` pre-computes it for the short-circuit) so
        the label merge is never paid twice.
        """
        su = int(self._partition.assignment[u])
        sv = int(self._partition.assignment[v])
        with span("shard.boundary", shards=f"{su},{sv}"):
            du_b = self._boundary_grid(su, self._local_id[[u]])[0]
            dv_b = self._boundary_grid(sv, self._local_id[[v]])[0]
        best = np.inf
        if su == sv:
            if direct is None:
                with span("shard.local", shard=su):
                    direct = self._shards[su].distance(
                        int(self._local_id[u]), int(self._local_id[v]))
            if direct is not None:
                best = float(direct)
        if len(du_b) and len(dv_b):
            with span("shard.relay",
                      boundary=f"{len(du_b)}x{len(dv_b)}"):
                block = self._overlay.dist_float(
                    self._shard_boundary_overlay[su],
                    self._shard_boundary_overlay[sv])
                relayed = du_b[:, None] + block + dv_b[None, :]
                best = min(best, float(relayed.min()))
        return best, du_b, dv_b

    def _boundary_grid(self, shard: int,
                       local_vertices: np.ndarray) -> np.ndarray:
        """Shard-local distances from each of ``local_vertices`` to
        the shard's boundary: ``(k, |B_shard|)`` float64, ``inf``
        where locally disconnected.

        This is where the inner index earns its keep on the relay
        path: one bulk kernel call covering the boundary of *one*
        shard.
        """
        locals_b = self._shard_boundary_local[shard]
        local_vertices = np.asarray(local_vertices, dtype=np.int64)
        return float_distances(self._shards[shard]._distance_array(
            np.repeat(local_vertices, len(locals_b)),
            np.tile(locals_b, len(local_vertices)),
        )).reshape(len(local_vertices), len(locals_b))

    def _distance_field(self, u: int, du_b: np.ndarray,
                        other: int, dother_b: np.ndarray,
                        d: int) -> np.ndarray:
        """Exact global distances ``d(u, x)`` over every shard the SPG
        can touch (``UNREACHED`` elsewhere).

        ``relay[b] = d(u, b)`` for every boundary vertex ``b`` comes
        from one vectorized min over the overlay matrix; each relevant
        shard is then swept once with an offset-seeded BFS whose
        sources are its boundary vertices at their relay depths (plus
        ``u`` itself at depth 0 in its home shard). Shards whose
        entry distances from both endpoints already exceed ``d`` are
        skipped — they cannot host a shortest-path vertex.
        """
        n = self._graph.num_vertices
        field = np.full(n, UNREACHED, dtype=np.int32)
        su = int(self._partition.assignment[u])
        s_other = int(self._partition.assignment[other])
        num_b = self._overlay.num_boundary
        if num_b and len(du_b):
            rows = self._overlay.dist_float(
                self._shard_boundary_overlay[su])
            relay = (du_b[:, None] + rows).min(axis=0)
        else:
            relay = np.full(num_b, np.inf, dtype=np.float64)
        if num_b and len(dother_b):
            rows = self._overlay.dist_float(
                self._shard_boundary_overlay[s_other])
            relay_other = (dother_b[:, None] + rows).min(axis=0)
        else:
            relay_other = np.full(num_b, np.inf, dtype=np.float64)
        for shard in range(self._partition.num_shards):
            overlay_ids = self._shard_boundary_overlay[shard]
            entry = relay[overlay_ids] if num_b else relay[:0]
            if shard not in (su, s_other):
                if len(entry) == 0:
                    continue
                entry_other = relay_other[overlay_ids]
                if entry.min() + entry_other.min() > d:
                    continue  # provably SPG-free shard
            keep = entry <= d
            sources = self._shard_boundary_local[shard][keep].tolist()
            offsets = entry[keep].astype(np.int64).tolist()
            if shard == su:
                sources.append(int(self._local_id[u]))
                offsets.append(0)
            if not sources:
                continue
            local = bfs_distances_offsets(self._shards[shard].graph,
                                          sources, offsets)
            field[self._shard_vertices[shard]] = local
        return field

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def partition(self) -> Partition:
        return self._partition

    @property
    def overlay(self) -> BoundaryOverlay:
        return self._overlay

    @property
    def inner_method(self) -> str:
        return self._inner

    @property
    def shard_indexes(self) -> List[PathIndex]:
        return list(self._shards)

    @property
    def build_outcomes(self) -> Optional[List[ShardBuildOutcome]]:
        """Per-shard build reports (``None`` on a loaded index built
        before reports were recorded)."""
        return list(self._outcomes) if self._outcomes is not None \
            else None

    @property
    def build_wall_seconds(self) -> Optional[float]:
        return self._build_wall_seconds

    @property
    def shard_size_bytes(self) -> List[int]:
        """Per-shard inner index sizes — the per-process memory proxy."""
        return [index.size_bytes for index in self._shards]

    @property
    def size_bytes(self) -> int:
        """Inner indexes plus overlay matrix plus the partition map."""
        return (sum(self.shard_size_bytes) + self._overlay.nbytes
                + int(self._partition.assignment.nbytes))

    @property
    def stats(self) -> Dict[str, Any]:
        base = PathIndex.stats.fget(self)
        sizes = self.shard_size_bytes
        base.update({
            "inner": self._inner,
            "num_shards": self._partition.num_shards,
            "partition_method": self._partition.method,
            "shard_vertices": self._partition.shard_sizes().tolist(),
            "shard_size_bytes": sizes,
            "max_shard_size_bytes": max(sizes) if sizes else 0,
            "boundary_vertices": self._overlay.num_boundary,
            "overlay_bytes": self._overlay.nbytes,
            "edge_cut": self._partition.edge_cut(self._graph),
            "balance": self._partition.balance(),
        })
        if self._build_wall_seconds is not None:
            base["build_seconds"] = self._build_wall_seconds
        return base

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def to_state(self):
        arrays: Dict[str, np.ndarray] = {
            "indptr": self._graph.indptr,
            "indices": self._graph.indices,
            "assignment": self._partition.assignment,
            "overlay_boundary": self._overlay.boundary,
            "overlay_dist": self._overlay.dist,
        }
        shard_meta: List[Dict[str, Any]] = []
        for shard, index in enumerate(self._shards):
            meta, shard_arrays = index.to_state()
            shard_meta.append(meta)
            prefix = _SHARD_PREFIX.format(shard)
            for name, array in shard_arrays.items():
                arrays[prefix + name] = array
        meta = {
            "inner": self._inner,
            "inner_params": self._inner_params,
            "num_shards": self._partition.num_shards,
            "partition_method": self._partition.method,
            "shards": shard_meta,
            "outcomes": ([asdict(o) for o in self._outcomes]
                         if self._outcomes is not None else None),
            "build_wall_seconds": self._build_wall_seconds,
        }
        return meta, arrays

    @classmethod
    def from_state(cls, meta, arrays) -> "ShardedIndex":
        graph = Graph(arrays["indptr"], arrays["indices"],
                      validate=True)
        num_shards = int(meta["num_shards"])
        partition = Partition(
            assignment=arrays["assignment"].astype(np.int32),
            num_shards=num_shards,
            method=str(meta.get("partition_method", "bfs")),
        )
        inner = meta["inner"]
        _check_inner(inner)
        inner_cls = get_index_class(inner)
        shard_meta = meta.get("shards")
        if not isinstance(shard_meta, list) \
                or len(shard_meta) != num_shards:
            raise ValueError("shard metadata does not match num_shards")
        shards: List[PathIndex] = []
        for shard in range(num_shards):
            prefix = _SHARD_PREFIX.format(shard)
            shard_arrays = {
                name[len(prefix):]: array
                for name, array in arrays.items()
                if name.startswith(prefix)
            }
            shards.append(inner_cls.from_state(shard_meta[shard],
                                               shard_arrays))
        boundary = arrays["overlay_boundary"].astype(np.int32)
        position = np.full(graph.num_vertices, -1, dtype=np.int32)
        position[boundary] = np.arange(len(boundary), dtype=np.int32)
        overlay = BoundaryOverlay(boundary, position,
                                  arrays["overlay_dist"])
        outcomes = meta.get("outcomes")
        return cls(
            graph, partition, shards, overlay, inner,
            inner_params=meta.get("inner_params") or {},
            outcomes=([ShardBuildOutcome(**o) for o in outcomes]
                      if outcomes else None),
            build_wall_seconds=meta.get("build_wall_seconds"),
        )


def _check_inner(inner: str) -> None:
    """Reject inner families the sharded assembly cannot host."""
    if inner in _FORBIDDEN_INNER:
        raise IndexBuildError(
            f"{inner!r} cannot nest inside a sharded index"
        )
    if get_index_class(inner).directed:
        raise IndexBuildError(
            f"the sharded family wraps undirected inner indexes; "
            f"{inner!r} is directed"
        )
