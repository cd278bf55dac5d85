import numpy as np
import pytest

from evofg.graph import Graph
from evofg.numeric import pca_project
from evofg.preprocess import align, smoothness_scores
from helpers import graph_from_edges, path_graph


class TestSmoothness:
    def test_constant_column_scores_zero(self):
        g = path_graph(4)
        x = np.ones((4, 1)) * 3.0
        assert smoothness_scores(x, g)[0] == 0.0

    def test_single_edge(self):
        g = graph_from_edges(2, [(0, 1)])
        x = np.array([[0.0], [1.0]])
        assert smoothness_scores(x, g)[0] == pytest.approx(-1.0)

    def test_triangle(self):
        g = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        x = np.array([[0.0], [1.0], [2.0]])
        # squared edge differences 1, 1, 4 over three edges
        assert smoothness_scores(x, g)[0] == pytest.approx(-2.0)

    def test_always_nonpositive(self):
        rng = np.random.default_rng(0)
        g = graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
        s = smoothness_scores(rng.normal(size=(6, 4)), g)
        assert (s <= 0).all()

    def test_edgeless_graph_scores_zero(self):
        g = Graph(3, [], np.zeros((3, 2)), None)
        x = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(smoothness_scores(x, g), np.zeros(2))

    def test_scaling_features_scales_scores_quadratically(self):
        rng = np.random.default_rng(1)
        g = path_graph(5)
        x = rng.normal(size=(5, 3))
        s1 = smoothness_scores(x, g)
        s3 = smoothness_scores(3.0 * x, g)
        assert np.allclose(s3, 9.0 * s1)
        assert np.array_equal(np.argsort(s1), np.argsort(s3))


class TestAlign:
    def test_single_column_trivially_sorted(self):
        g = path_graph(4, d=3, seed=2)
        out = align(g, 1)
        assert out.shape == (4, 1)
        assert smoothness_scores(out, g).shape == (1,)

    def test_sorted_input_identity_permutation(self):
        g = path_graph(6, d=4, seed=3)
        xhat = pca_project(g.features, 3)
        s = smoothness_scores(xhat, g)
        out = align(g, 3)
        order = np.argsort(s, kind="stable")
        assert np.array_equal(out, xhat[:, order])
        assert np.array_equal(smoothness_scores(out, g), s[order])

    def test_rough_column_moves_first(self):
        # high-variance smooth ramp + low-variance alternating column: the
        # alternating one has the lower (more negative) score and must lead
        n = 6
        edges = [(i, i + 1) for i in range(n - 1)]
        ramp = 3.0 * np.arange(n)
        alt = np.where(np.arange(n) % 2 == 0, 0.0, 4.0)
        g = Graph(n, edges, np.stack([ramp, alt], axis=1), None)
        out = align(g, 2)
        xhat = pca_project(g.features, 2)
        s = smoothness_scores(xhat, g)
        assert s[0] > s[1]  # meaningful swap: pca column order is not sorted
        assert np.array_equal(out[:, 0], xhat[:, 1])
        assert np.array_equal(out[:, 1], xhat[:, 0])

    def test_smoothness_nondecreasing(self):
        rng = np.random.default_rng(4)
        for seed in range(5):
            g = path_graph(10, d=6, seed=seed)
            assert (np.diff(smoothness_scores(align(g, 4), g)) >= 0).all()

    def test_resorting_is_idempotent(self):
        g = path_graph(8, d=5, seed=5)
        out = align(g, 4)
        s = smoothness_scores(out, g)
        order = np.argsort(s, kind="stable")
        assert np.array_equal(out[:, order], out)

    def test_narrow_graph_padded_columns_sort_last(self):
        g = path_graph(6, d=2, seed=7)
        out = align(g, 5)
        assert out.shape == (6, 5)
        assert not out[:, 2:].any()
        s = smoothness_scores(out, g)
        assert np.array_equal(s[2:], np.zeros(3))
        assert (s[:2] < 0).all()
