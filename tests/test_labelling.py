"""Algorithm 2 (labelling scheme construction) tests.

The centerpiece is the paper's own Figure 4: the reconstructed graph
must reproduce the printed labelling table and meta-graph exactly.
Definition-level properties are then brute-forced on random graphs.
"""

import numpy as np
import pytest

from repro import Graph, IndexBuildError
from repro._util import NO_LABEL, UNREACHED
from repro.core.labelling import build_labelling
from repro.graph.traversal import bfs_distances

from _corpus import (
    FIGURE4_LABELS,
    FIGURE4_META,
    label_rng,
    random_graph_corpus,
)

LANDMARKS = np.array([0, 1, 2], dtype=np.int32)


@pytest.fixture
def figure4_labelling(figure4_graph):
    return build_labelling(figure4_graph, LANDMARKS)


class TestFigure4:
    def test_labels_match_paper_table(self, figure4_labelling):
        """Figure 4(c), entry by entry."""
        for vertex in range(3, 14):
            expected = FIGURE4_LABELS.get(vertex, {})
            got = dict(figure4_labelling.label_entries(vertex))
            assert got == expected, f"vertex {vertex} (paper {vertex + 1})"

    def test_landmarks_have_no_labels(self, figure4_labelling):
        for landmark in (0, 1, 2):
            assert figure4_labelling.label_entries(landmark) == []

    def test_meta_graph_matches_paper(self, figure4_labelling):
        got = {
            (int(LANDMARKS[i]), int(LANDMARKS[j])): w
            for (i, j), w in figure4_labelling.meta_edges.items()
        }
        assert got == FIGURE4_META

    def test_example_4_3(self, figure4_labelling):
        """Example 4.3: sigma(1, 3) = 2; (2, 2) not in L(4)."""
        assert figure4_labelling.meta_edges[(0, 2)] == 2
        entries = dict(figure4_labelling.label_entries(3))
        assert 1 not in entries  # landmark 2 (paper) excluded

    def test_size_entries(self, figure4_labelling):
        expected = sum(len(v) for v in FIGURE4_LABELS.values())
        assert figure4_labelling.size_entries() == expected

    def test_paper_size_bytes(self, figure4_labelling):
        # |R| * 8 bits per vertex = 3 bytes * 14 vertices.
        assert figure4_labelling.paper_size_bytes() == 42


def definition_labels(graph: Graph, landmarks):
    """Brute-force Definition 4.2: label (r, u) iff d exact and some
    shortest u-r path avoids all other landmarks."""
    landmark_set = set(int(r) for r in landmarks)
    result = {}
    dist = {int(r): bfs_distances(graph, int(r)) for r in landmarks}
    removed = {}
    for r in landmark_set:
        others = [x for x in landmark_set if x != r]
        removed[r] = bfs_distances(graph.remove_vertices(others), r)
    for u in range(graph.num_vertices):
        if u in landmark_set:
            continue
        entries = {}
        for r in landmark_set:
            d = dist[r][u]
            if d == UNREACHED:
                continue
            # Avoiding path exists iff the distance survives removing
            # the other landmarks.
            if removed[r][u] == d:
                entries[r] = int(d)
        if entries:
            result[u] = entries
    return result


class TestDefinitionEquivalence:
    @pytest.mark.parametrize("label,graph",
                             list(random_graph_corpus(seed=31, count=12)))
    def test_matches_brute_force(self, label, graph):
        if graph.num_vertices < 4:
            pytest.skip("too small")
        rng = label_rng(label)
        count = int(rng.integers(1, min(5, graph.num_vertices)))
        landmarks = rng.choice(graph.num_vertices, size=count,
                               replace=False).astype(np.int32)
        scheme = build_labelling(graph, landmarks)
        expected = definition_labels(graph, landmarks)
        for u in range(graph.num_vertices):
            got = dict(scheme.label_entries(u))
            assert got == expected.get(u, {}), f"{label}: vertex {u}"

    @pytest.mark.parametrize("label,graph",
                             list(random_graph_corpus(seed=37, count=8)))
    def test_meta_edges_are_exact_distances(self, label, graph):
        if graph.num_vertices < 4:
            pytest.skip("too small")
        landmarks = np.array([0, 1, graph.num_vertices - 1],
                             dtype=np.int32)
        scheme = build_labelling(graph, landmarks)
        for (i, j), weight in scheme.meta_edges.items():
            a = int(landmarks[i])
            b = int(landmarks[j])
            assert weight == bfs_distances(graph, a)[b], label


class TestDeterminism:
    """Lemma 5.2: the scheme depends only on the landmark *set*."""

    @pytest.mark.parametrize("label,graph",
                             list(random_graph_corpus(seed=41, count=6)))
    def test_landmark_order_irrelevant(self, label, graph):
        if graph.num_vertices < 5:
            pytest.skip("too small")
        landmarks = np.array([0, 2, 4], dtype=np.int32)
        permuted = landmarks[::-1].copy()
        a = build_labelling(graph, landmarks)
        b = build_labelling(graph, permuted)
        # Compare content under the position permutation.
        for u in range(graph.num_vertices):
            assert dict(a.label_entries(u)) == dict(b.label_entries(u)), \
                f"{label}: vertex {u}"
        meta_a = {(int(landmarks[i]), int(landmarks[j])): w
                  for (i, j), w in a.meta_edges.items()}
        meta_b = {(int(permuted[i]), int(permuted[j])): w
                  for (i, j), w in b.meta_edges.items()}

        def canon(meta):
            return {tuple(sorted(k)): v for k, v in meta.items()}

        assert canon(meta_a) == canon(meta_b), label


class TestValidation:
    def test_empty_landmarks_rejected(self, figure4_graph):
        with pytest.raises(IndexBuildError):
            build_labelling(figure4_graph, np.array([], dtype=np.int32))

    def test_duplicate_landmarks_rejected(self, figure4_graph):
        with pytest.raises(IndexBuildError):
            build_labelling(figure4_graph,
                            np.array([0, 0], dtype=np.int32))

    def test_out_of_range_rejected(self, figure4_graph):
        with pytest.raises(IndexBuildError):
            build_labelling(figure4_graph,
                            np.array([99], dtype=np.int32))

    def test_label_matrix_sentinel(self, figure4_graph):
        scheme = build_labelling(figure4_graph, LANDMARKS)
        # Vertex 5 (paper 6) has only the entry for landmark 0.
        assert scheme.label_matrix[5, 0] == 1
        assert scheme.label_matrix[5, 1] == NO_LABEL
        assert scheme.label_matrix[5, 2] == NO_LABEL
