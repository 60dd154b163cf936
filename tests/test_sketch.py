"""Algorithm 3 (sketch) tests, anchored on the paper's Figure 6."""

import numpy as np
import pytest

from repro import Graph, QbSIndex, spg_oracle
from repro.core.labelling import build_labelling
from repro.core.metagraph import build_meta_graph
from repro.core.sketch import compute_sketch

from _corpus import label_rng, random_graph_corpus, sample_vertex_pairs

LANDMARKS = np.array([0, 1, 2], dtype=np.int32)


@pytest.fixture
def figure4_parts(figure4_graph):
    labelling = build_labelling(figure4_graph, LANDMARKS)
    meta = build_meta_graph(figure4_graph, labelling)
    return figure4_graph, labelling, meta


class TestFigure6Sketch:
    """Example 4.7: the sketch for SPG(6, 11) (0-indexed SPG(5, 10))."""

    def test_d_top(self, figure4_parts):
        _, labelling, meta = figure4_parts
        sketch = compute_sketch(labelling, meta, 5, 10)
        assert sketch.d_top == 5

    def test_side_edges(self, figure4_parts):
        _, labelling, meta = figure4_parts
        sketch = compute_sketch(labelling, meta, 5, 10)
        # sigma_S(1, 6) = 1 on the u side (landmark position 0).
        assert sketch.side_u == {0: 1}
        # v side: sigma_S(2, 11) = 3 and sigma_S(3, 11) = 2
        # (landmark positions 1 and 2).
        assert sketch.side_v == {1: 3, 2: 2}

    def test_budgets(self, figure4_parts):
        """Example 4.8: d*_6 = 0 and d*_11 = 2."""
        _, labelling, meta = figure4_parts
        sketch = compute_sketch(labelling, meta, 5, 10)
        assert sketch.budget_u == 0
        assert sketch.budget_v == 2

    def test_meta_pairs(self, figure4_parts):
        _, labelling, meta = figure4_parts
        sketch = compute_sketch(labelling, meta, 5, 10)
        # Both (1,2) and (1,3) routes achieve 5 (Example 4.7).
        assert set(sketch.meta_pairs) == {(0, 1), (0, 2)}

    def test_num_edges(self, figure4_parts):
        _, labelling, meta = figure4_parts
        sketch = compute_sketch(labelling, meta, 5, 10)
        assert sketch.num_edges() == 1 + 2 + 2


class TestCorollary46:
    """d_top >= d_G(u, v) always; equality iff a shortest path passes
    through at least one landmark. ``d_top is None`` (no landmark route
    at all — the ``Sketch`` contract on disconnected graphs) is only
    allowed when no shortest path touches a landmark, and the search
    then still answers exactly."""

    def check(self, label, graph, landmarks, pairs):
        index = QbSIndex.build(graph, landmarks=landmarks)
        labelling, meta = index.labelling, index.meta_graph
        landmark_set = set(int(r) for r in landmarks)
        for u, v in pairs:
            if u == v or u in landmark_set or v in landmark_set:
                continue
            sketch = compute_sketch(labelling, meta, u, v)
            oracle = spg_oracle(graph, u, v)
            if oracle.distance is None:
                continue
            # Equality iff some shortest path crosses a landmark.
            touches = any(
                set(path) & landmark_set
                for path in oracle.iter_paths(limit=200)
            )
            if sketch.d_top is None:
                assert not touches, \
                    f"{label} ({u},{v}): covered pair without a sketch"
                assert index.query(u, v) == oracle, f"{label} ({u},{v})"
                continue
            assert sketch.d_top >= oracle.distance, f"{label} ({u},{v})"
            if touches:
                assert sketch.d_top == oracle.distance, \
                    f"{label} ({u},{v}): covered pair must be tight"
            else:
                assert sketch.d_top > oracle.distance, \
                    f"{label} ({u},{v}): uncovered pair must be loose"

    @pytest.mark.parametrize("label,graph",
                             list(random_graph_corpus(seed=71, count=12)))
    def test_upper_bound(self, label, graph):
        if graph.num_vertices < 5:
            pytest.skip("too small")
        rng = label_rng(label)
        count = int(rng.integers(1, min(5, graph.num_vertices)))
        landmarks = rng.choice(graph.num_vertices, size=count,
                               replace=False).astype(np.int32)
        self.check(label, graph, landmarks,
                   sample_vertex_pairs(graph, 10, seed=3))

    def test_no_landmark_in_the_pairs_component(self):
        """The draw ``hash("er-5")`` gave under ``PYTHONHASHSEED=20``:
        the only landmark of a disconnected ER graph is isolated, so
        the connected pair (21, 2) has no landmark route."""
        graph = dict(random_graph_corpus(seed=71, count=12))["er-5"]
        landmarks = np.array([24], dtype=np.int32)
        assert graph.degree(24) == 0
        assert spg_oracle(graph, 21, 2).distance == 10
        index = QbSIndex.build(graph, landmarks=landmarks)
        assert index.sketch(21, 2).d_top is None
        self.check("er-5", graph, landmarks, [(21, 2)])


class TestSketchEdgeCases:
    def test_adjacent_to_landmark(self, figure4_parts):
        _, labelling, meta = figure4_parts
        # Vertices 3 and 4 are both adjacent to landmark 0.
        sketch = compute_sketch(labelling, meta, 3, 4)
        assert sketch.d_top == 2
        assert (0, 0) in sketch.meta_pairs

    def test_disconnected_vertex(self):
        g = Graph.from_edges([(0, 1), (1, 2), (3, 4)], num_vertices=5)
        landmarks = np.array([1], dtype=np.int32)
        labelling = build_labelling(g, landmarks)
        meta = build_meta_graph(g, labelling)
        sketch = compute_sketch(labelling, meta, 3, 0)
        assert sketch.d_top is None

    def test_landmark_endpoint_raises_via_index(self, figure4_graph):
        from repro import QueryError

        index = QbSIndex.build(figure4_graph, num_landmarks=3)
        with pytest.raises(QueryError):
            index.sketch(int(index.landmarks[0]), 5)
