"""Property suite for the array-native construction kernels.

The bit-parallel lockstep kernels of :mod:`repro.core.build_kernels`
are pinned entry-for-entry against the per-root scalar builders they
replaced (kept in ``_reference_builders.py``), against the BFS oracle,
and across every consumer layer that was rewired onto them:

* PPL / ParentPPL sound construction (labels and parent sets);
* the QbS labelling sweep (batched == per-root == shared prune rule);
* the dynamic insert repair (screened frontier resumes == every root
  resumed as a deque) and the dynamic index's label-guided walk (a
  level at a time == a vertex at a time).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (BudgetExceededError, Graph, build_index, load_index,
                   spg_oracle)
from repro._util import NO_LABEL, UNREACHED, TimeBudget
from repro.baselines import ParentPPLIndex, PPLIndex, distance_oracle
from repro.core.build_kernels import RaggedView, build_sound_labels
from repro.core.labelling import build_labelling
from repro.dynamic import DynamicIndex
from repro.dynamic import guided_levels
from repro.dynamic import index as dynamic_index
from repro.graph import barabasi_albert, erdos_renyi
from repro.graph.traversal import bfs_distances

from _corpus import entry_parents, random_graph_corpus, \
    sample_vertex_pairs
from _reference_builders import (guided_levels_scalar, label_bfs,
                                 repair_insert_scalar, restricted_bfs,
                                 restricted_distances,
                                 sound_scalar_labels)

SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs(draw, max_vertices=24):
    """Arbitrary undirected simple graph (disconnection common)."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), max_size=2 * n,
                          unique=True))
    return Graph.from_edges(edges, num_vertices=n)


def special_graphs():
    """Shapes the random corpus underrepresents."""
    rng = np.random.default_rng(7)
    # Two components, one a clique-ish blob, one a path.
    blob = [(i, j) for i in range(8) for j in range(i + 1, 8)
            if rng.random() < 0.5]
    path = [(i, i + 1) for i in range(8, 15)]
    yield "disconnected", Graph.from_edges(blob + path, num_vertices=16)
    # A forest: three disjoint random trees plus isolated vertices —
    # the shape `repro.shard.partition` packs by dedicated subtrees.
    forest = []
    base = 0
    for size in (9, 6, 4):
        for v in range(1, size):
            forest.append((base + v, base + int(rng.integers(v))))
        base += size
    yield "forest", Graph.from_edges(forest, num_vertices=base + 3)
    # Edgeless and near-edgeless.
    yield "edgeless", Graph.from_edges([], num_vertices=5)
    yield "one-edge", Graph.from_edges([(0, 1)], num_vertices=4)
    # Star: the hub outranks everything (depth-1 label wall).
    yield "star", Graph.from_edges([(0, v) for v in range(1, 12)],
                                   num_vertices=12)
    # 65+ vertices: forces a second 64-root batch.
    ring = [(v, (v + 1) % 70) for v in range(70)]
    yield "ring-70", Graph.from_edges(ring, num_vertices=70)


def assert_same_rows(kernel_index, order, label_ranks, label_dists,
                     label_parents=None):
    assert np.array_equal(kernel_index._order, order)
    for v in range(kernel_index.num_vertices):
        assert list(kernel_index._label_ranks[v]) == list(label_ranks[v])
        assert list(kernel_index._label_dists[v]) == list(label_dists[v])
        if label_parents is not None:
            kernel_parents = [tuple(sorted(p))
                              for p in entry_parents(kernel_index, v)]
            scalar_parents = [tuple(sorted(p))
                              for p in label_parents[v]]
            assert kernel_parents == scalar_parents


# ----------------------------------------------------------------------
# Kernel vs scalar, entry for entry
# ----------------------------------------------------------------------

class TestKernelMatchesScalar:
    @pytest.mark.parametrize("label,graph",
                             list(random_graph_corpus(seed=3, count=15))
                             + list(special_graphs()))
    def test_ppl_labels_identical(self, label, graph):
        assert_same_rows(PPLIndex.build(graph),
                         *sound_scalar_labels(graph))

    @pytest.mark.parametrize("label,graph",
                             list(random_graph_corpus(seed=4, count=8))
                             + list(special_graphs()))
    def test_parent_ppl_labels_identical(self, label, graph):
        assert_same_rows(ParentPPLIndex.build(graph),
                         *sound_scalar_labels(graph, with_parents=True))

    def test_parent_order_follows_csr(self):
        """Parent tuples keep CSR neighbour order, as the scalar did."""
        graph = barabasi_albert(120, 3, seed=5)
        kernel = ParentPPLIndex.build(graph)
        scalar_parents = sound_scalar_labels(graph, with_parents=True)[3]
        for v in range(graph.num_vertices):
            assert entry_parents(kernel, v) == scalar_parents[v]

    @given(graph=graphs())
    @settings(**SETTINGS)
    def test_ppl_labels_identical_hypothesis(self, graph):
        assert_same_rows(PPLIndex.build(graph),
                         *sound_scalar_labels(graph))

    @given(graph=graphs(max_vertices=16))
    @settings(**SETTINGS)
    def test_parent_ppl_identical_hypothesis(self, graph):
        assert_same_rows(ParentPPLIndex.build(graph),
                         *sound_scalar_labels(graph, with_parents=True))


class TestKernelMatchesOracle:
    @pytest.mark.parametrize("label,graph",
                             list(random_graph_corpus(seed=5, count=10)))
    def test_distances_exact(self, label, graph):
        index = PPLIndex.build(graph)
        for u, v in sample_vertex_pairs(graph, 30, seed=1):
            expected = int(bfs_distances(graph, u)[v])
            got = index.distance(u, v)
            assert (got if got is not None else -1) == expected

    def test_distances_exact_disconnected(self):
        _, graph = next(g for g in special_graphs()
                        if g[0] == "disconnected")
        index = PPLIndex.build(graph)
        for u, v in sample_vertex_pairs(graph, 60, seed=2):
            expected = int(bfs_distances(graph, u)[v])
            got = index.distance(u, v)
            assert (got if got is not None else -1) == expected


# ----------------------------------------------------------------------
# Pool path, budget, flat layout
# ----------------------------------------------------------------------

class TestBuildModes:
    def test_jobs_equal_serial(self):
        graph = barabasi_albert(200, 2, seed=9)
        order = np.argsort(-graph.degree(), kind="stable").astype(np.int64)
        serial = build_sound_labels(graph, order)
        pooled = build_sound_labels(graph, order, jobs=2)
        for key in serial:
            assert np.array_equal(serial[key], pooled[key]), key

    def test_jobs_equal_serial_with_parents(self):
        graph = erdos_renyi(150, 0.03, seed=11)
        order = np.argsort(-graph.degree(), kind="stable").astype(np.int64)
        serial = build_sound_labels(graph, order, with_parents=True)
        pooled = build_sound_labels(graph, order, jobs=2,
                                    with_parents=True)
        for key in serial:
            assert np.array_equal(serial[key], pooled[key]), key

    def test_budget_abort(self):
        graph = erdos_renyi(400, 0.02, seed=3)
        with pytest.raises(BudgetExceededError):
            PPLIndex.build(graph, budget=TimeBudget(1e-9))

    def test_flat_layout_matches_rows(self):
        graph = barabasi_albert(80, 2, seed=1)
        index = PPLIndex.build(graph)
        flat = index.to_state()[1]
        offsets = flat["label_offsets"]
        assert offsets[0] == 0 and offsets[-1] == len(flat["label_ranks"])
        assert flat["label_offsets"].dtype == np.int64
        assert flat["label_ranks"].dtype == np.int64
        assert flat["label_dists"].dtype == np.int32
        for v in range(graph.num_vertices):
            row = flat["label_ranks"][offsets[v]:offsets[v + 1]]
            assert list(row) == list(index._label_ranks[v])
            # rank-sorted rows, as the merge-join requires
            assert np.all(np.diff(row) > 0) or len(row) <= 1

    def test_build_index_jobs_passthrough(self):
        graph = barabasi_albert(60, 2, seed=2)
        a = build_index(graph, "ppl")
        b = build_index(graph, "ppl", jobs=2)
        assert_same_rows(a, b._order, b._label_ranks, b._label_dists)


# ----------------------------------------------------------------------
# RaggedView semantics
# ----------------------------------------------------------------------

class TestRaggedView:
    def test_indexing_and_eq(self):
        view = RaggedView(np.array([0, 2, 2, 5]),
                          np.array([3, 1, 4, 1, 5]))
        assert len(view) == 3
        assert list(view[0]) == [3, 1]
        assert list(view[1]) == []
        assert list(view[-1]) == [4, 1, 5]
        assert view == [[3, 1], [], [4, 1, 5]]
        assert not (view == [[3, 1], [], [4, 1, 9]])
        assert not (view == [[3, 1], []])
        with pytest.raises(TypeError):
            view[1:2]
        with pytest.raises(IndexError):
            view[3]


# ----------------------------------------------------------------------
# Shared prune primitive pins PPL and the QbS labelling together
# ----------------------------------------------------------------------

class TestSharedPruneRule:
    @pytest.mark.parametrize("label,graph",
                             list(random_graph_corpus(seed=6, count=8)))
    def test_qbs_label_iff_restricted_equals_full(self, label, graph):
        """``label_bfs`` labels exactly where the shared primitive says.

        The regression for the historical drift risk: QbS labelling and
        PPL now state their prune through one helper
        (:func:`restricted_distances`), so the Q_L/Q_N split must equal
        ``restricted(landmark-free interiors) == full``.
        """
        n = graph.num_vertices
        rng = np.random.default_rng(1)
        landmarks = rng.choice(n, size=min(6, n), replace=False)
        is_landmark = np.zeros(n, dtype=bool)
        is_landmark[landmarks] = True
        for root in landmarks.tolist():
            column = np.full(n, NO_LABEL, dtype=np.uint8)
            label_bfs(graph, root, is_landmark, column)
            full = bfs_distances(graph, root)
            restricted = restricted_distances(
                graph.indptr, graph.indices, root, ~is_landmark)
            for v in range(n):
                expect = (not is_landmark[v] and v != root
                          and restricted[v] != -1
                          and restricted[v] == full[v])
                assert (column[v] != NO_LABEL) == expect, (root, v)
                if expect:
                    assert int(column[v]) == int(full[v])

    @pytest.mark.parametrize("label,graph",
                             list(random_graph_corpus(seed=8, count=8)))
    def test_batched_labelling_equals_per_root(self, label, graph):
        """64-lane sweep == one ``label_bfs`` per landmark column."""
        n = graph.num_vertices
        rng = np.random.default_rng(2)
        landmarks = rng.choice(n, size=min(7, n), replace=False) \
            .astype(np.int32)
        labelling = build_labelling(graph, landmarks)
        is_landmark = labelling.landmark_position >= 0
        for slot, root in enumerate(landmarks.tolist()):
            column = np.full(n, NO_LABEL, dtype=np.uint8)
            label_bfs(graph, root, is_landmark, column)
            assert np.array_equal(labelling.label_matrix[:, slot],
                                  column), root

    def test_ppl_restricted_bfs_uses_shared_primitive(self):
        graph = erdos_renyi(60, 0.08, seed=4)
        order = np.argsort(-graph.degree(), kind="stable")
        rank_of = np.empty(graph.num_vertices, dtype=np.int64)
        rank_of[order] = np.arange(graph.num_vertices)
        for rank in (0, 3, 17):
            root = int(order[rank])
            via_wrapper = restricted_bfs(graph, root, rank_of, rank)
            direct = restricted_distances(graph.indptr, graph.indices,
                                          root, rank_of > rank)
            assert np.array_equal(via_wrapper, direct)


# ----------------------------------------------------------------------
# Dynamic repair: screened frontier resumes == unscreened deque resumes
# ----------------------------------------------------------------------

def _label_state(dynamic):
    """The index's ``to_state`` arrays, compared entry for entry and
    byte for byte, and the count of entries the repairs wrote."""
    meta, arrays = dynamic.to_state()
    return meta["repaired_entries"], {
        name: (array.dtype.str, array.shape, array.tobytes())
        for name, array in arrays.items()}


def _scalar_insert(dynamic, u, v):
    with mock.patch.object(dynamic_index, "repair_insert",
                           repair_insert_scalar):
        return dynamic.insert_edge(u, v)


@st.composite
def insert_streams(draw):
    """A graph with an isolated tail, and edges to insert into it."""
    graph = draw(graphs(max_vertices=20))
    n = graph.num_vertices + draw(st.integers(0, 4))
    graph = Graph.from_edges(list(graph.edges()), num_vertices=n)
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)) \
        .filter(lambda p: p[0] != p[1])
    return graph, draw(st.lists(pair, min_size=1, max_size=12))


@st.composite
def update_streams(draw):
    """A graph with an isolated tail, and inserts and deletes into it:
    deletes of base edges and of edges the stream inserts (which may
    come first and be no-ops)."""
    graph, inserts = draw(insert_streams())
    edges = [tuple(e) for e in graph.edge_array().tolist()] + inserts
    deletes = draw(st.lists(st.sampled_from(edges), max_size=8,
                            unique=True))
    return graph, draw(st.permutations(
        [("insert", u, v) for u, v in inserts]
        + [("delete", u, v) for u, v in deletes]))


def _apply(dynamic, ops):
    for kind, u, v in ops:
        if kind == "insert":
            dynamic.insert_edge(u, v)
        else:
            dynamic.remove_edge(u, v)


class TestDynamicRepairFrontier:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_insert_repair_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        graph = erdos_renyi(60, 0.05, seed=rng)
        missing = []
        present = set(map(tuple, np.sort(graph.edge_array(), axis=1)
                          .tolist()))
        while len(missing) < 8:
            u, v = int(rng.integers(60)), int(rng.integers(60))
            if u != v and (min(u, v), max(u, v)) not in present:
                missing.append((u, v))
                present.add((min(u, v), max(u, v)))
        frontier = DynamicIndex.build(graph, rebuild_threshold=0)
        scalar = DynamicIndex.build(graph, rebuild_threshold=0)
        for a, b in missing:
            frontier.insert_edge(a, b)
            _scalar_insert(scalar, a, b)
        assert _label_state(frontier) == _label_state(scalar)

    def test_insert_streams_match_scalar(self, tmp_path):
        """Entry for entry after every insert, on either family; the
        gapped rows compact to the same bytes after a save and load."""
        path = tmp_path / "frontier.idx"

        @settings(**SETTINGS)
        @given(insert_streams(), st.sampled_from(("ppl", "parent-ppl")))
        def run(stream, family):
            graph, inserts = stream
            frontier = DynamicIndex.build(graph, family=family,
                                          rebuild_threshold=0)
            scalar = DynamicIndex.build(graph, family=family,
                                        rebuild_threshold=0)
            for u, v in inserts:
                assert frontier.insert_edge(u, v) \
                    == _scalar_insert(scalar, u, v)
                assert _label_state(frontier) == _label_state(scalar)
            frontier.save(path)
            assert _label_state(load_index(path)) \
                == _label_state(frontier)

        run()

    @pytest.mark.parametrize("family", ["ppl", "parent-ppl"])
    def test_rows_outgrow_their_capacity_repeatedly(self, family,
                                                    tmp_path):
        """Joining an isolated tail to a path one vertex at a time grows
        its one-entry rows past capacity again and again."""
        graph = Graph.from_edges([(i, i + 1) for i in range(7)],
                                 num_vertices=12)
        frontier = DynamicIndex.build(graph, family=family,
                                      rebuild_threshold=0)
        scalar = DynamicIndex.build(graph, family=family,
                                    rebuild_threshold=0)
        packed = frontier._labels.lengths.copy()
        for u, v in [(7, 8), (8, 9), (9, 10), (10, 11), (11, 0)]:
            assert frontier.insert_edge(u, v)
            assert _scalar_insert(scalar, u, v)
            assert _label_state(frontier) == _label_state(scalar)
        # Three doublings at least: 1 -> 2 -> 4 -> 8 slots.
        assert (frontier._labels.capacity >= 8 * packed).any()
        frontier.save(tmp_path / "grown.idx")
        again = load_index(tmp_path / "grown.idx")
        assert _label_state(again) == _label_state(frontier)
        current = frontier.graph
        assert [again.distance(0, v) for v in range(12)] \
            == [distance_oracle(current, 0, v) for v in range(12)]

    def test_repaired_distances_exact(self):
        rng = np.random.default_rng(5)
        graph = barabasi_albert(80, 2, seed=rng)
        dynamic = DynamicIndex.build(graph, rebuild_threshold=0)
        edges = [(0, 70), (3, 55), (12, 64)]
        for a, b in edges:
            dynamic.insert_edge(a, b)
        current = Graph.from_edges(
            [tuple(e) for e in np.sort(graph.edge_array(), axis=1)
             .tolist()] + edges,
            num_vertices=graph.num_vertices)
        for u, v in sample_vertex_pairs(current, 40, seed=6):
            expected = int(bfs_distances(current, u)[v])
            got = dynamic.distance(u, v)
            assert (got if got is not None else -1) == expected


# ----------------------------------------------------------------------
# Dynamic validation: level-at-a-time walk == vertex-at-a-time walk
# ----------------------------------------------------------------------

def _walk_kinds(dynamic, pairs):
    """Run both walks on every pair the labels connect, assert they
    agree and that the walk reaches ``v`` iff the distance is
    unchanged; returns each pair's kind: ``"clean"`` (no phantom on a
    label-shortest path), ``"validated"``, ``"grown"`` (falls back to
    BFS) or ``"disconnected"`` (a delete cut it off)."""
    labels, delta = dynamic._labels, dynamic.delta
    current = dynamic.graph
    kinds = {}
    for u, v in pairs:
        d = labels.distance(u, v)
        if d is None:
            continue
        levels = guided_levels(labels, delta.neighbors_many, u, v, d)
        assert levels == guided_levels_scalar(labels, delta.neighbors,
                                              u, v, d), (u, v)
        truth = int(bfs_distances(current, u)[v])
        assert (levels.get(v) == d) == (truth == d), (u, v)
        if truth == UNREACHED:
            kinds[u, v] = "disconnected"
        elif truth > d:
            kinds[u, v] = "grown"
        elif dynamic._phantom and dynamic._poisoned(
                np.array([u]), np.array([v]), np.array([d]))[0]:
            kinds[u, v] = "validated"
        else:
            kinds[u, v] = "clean"
    return kinds


def _assert_answers(dynamic, pairs):
    current = dynamic.graph
    for u, v in pairs:
        assert dynamic.query(u, v) == spg_oracle(current, u, v), (u, v)
        assert dynamic.distance(u, v) == distance_oracle(current, u, v)


class TestDynamicWalkFrontier:
    def test_update_streams_match_scalar(self):
        """On either family, after any insert/delete stream, on every
        pair: the same ``{vertex: level}`` as the scalar walk, and the
        oracle's SPG wherever the stream changed the answer."""
        @settings(**SETTINGS)
        @given(update_streams(), st.sampled_from(("ppl", "parent-ppl")),
               st.randoms(use_true_random=False))
        def run(stream, family, rng):
            graph, ops = stream
            dynamic = DynamicIndex.build(graph, family=family,
                                         rebuild_threshold=0)
            _apply(dynamic, ops)
            n = graph.num_vertices
            kinds = _walk_kinds(dynamic, [(u, v) for u in range(n)
                                          for v in range(n)])
            changed = [pair for pair, kind in kinds.items()
                       if kind != "clean"]
            _assert_answers(dynamic, changed + rng.sample(
                sorted(kinds), min(5, len(kinds))))

        run()

    @pytest.mark.parametrize("family", ["ppl", "parent-ppl"])
    def test_every_kind_of_pair(self, family):
        """One stream that leaves validated, grown and disconnected
        pairs: a 4-cycle keeps its other side, a 6-cycle's chord goes,
        and an isolated tail joined and cut off again."""
        graph = Graph.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 0)]
            + [(4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 4), (4, 7)],
            num_vertices=12)
        dynamic = DynamicIndex.build(graph, family=family,
                                     rebuild_threshold=0)
        _apply(dynamic, [("insert", 10, 11), ("insert", 3, 10),
                         ("delete", 0, 1), ("delete", 4, 7),
                         ("delete", 3, 10)])
        pairs = [(u, v) for u in range(12) for v in range(12)]
        kinds = _walk_kinds(dynamic, pairs)
        assert {"clean", "validated", "grown", "disconnected"} \
            <= set(kinds.values())
        _assert_answers(dynamic, pairs)
