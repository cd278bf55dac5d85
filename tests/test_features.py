import numpy as np
import pytest

from evofg.features import (
    PRIMITIVE_CATEGORIES,
    PRIMITIVE_NAMES,
    RouterFeatureTable,
    betweenness,
    closeness,
    compute_primitives,
    edge_avg_similarity,
    khop_similarity,
    pagerank,
    scope_expand,
)
from evofg.graph import EGO_RADIUS, Graph
from evofg.preprocess import align
from helpers import (
    brute_force_betweenness,
    brute_force_closeness,
    brute_force_distances,
    complete_graph,
    degenerate_graphs,
    cycle_graph,
    graph_from_edges,
    path_graph,
    random_graph,
    star_graph,
)

# star with damping 0.85: solve p0 = 0.0375 + 0.85*(1 - p0) analytically
STAR3_CENTER = 0.8875 / 1.85
STAR3_LEAF = (1.0 - STAR3_CENTER) / 3.0


class TestPageRank:
    def test_cycle_uniform(self):
        p = pagerank(cycle_graph(7))
        assert np.abs(p - 1.0 / 7).max() < 1e-9

    def test_disconnected_k2_pairs_uniform(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)])
        assert np.abs(pagerank(g) - 0.25).max() < 1e-9

    def test_star_fixed_point(self):
        p = pagerank(star_graph(3))
        assert p[0] == pytest.approx(STAR3_CENTER, abs=1e-9)
        assert np.allclose(p[1:], STAR3_LEAF, atol=1e-9)

    def test_sums_to_one_with_dangling(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(2, 40)), p=0.1)
            assert abs(pagerank(g).sum() - 1.0) < 1e-9

    def test_isolated_node_keeps_teleport_mass(self):
        g = Graph(3, [(0, 1)], np.zeros((3, 1)), None)
        p = pagerank(g)
        assert p[2] > 0


class TestBetweenness:
    def test_path_middle(self):
        assert betweenness(path_graph(3)).tolist() == [0.0, 1.0, 0.0]

    def test_complete_graph_zero(self):
        assert np.allclose(betweenness(complete_graph(4)), 0.0)

    def test_star_center(self):
        bc = betweenness(star_graph(4))
        assert bc[0] == pytest.approx(1.0)
        assert np.allclose(bc[1:], 0.0)

    def test_small_graphs_all_zero(self):
        assert np.allclose(betweenness(path_graph(2)), 0.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(8):
            g = random_graph(rng, int(rng.integers(4, 20)), p=0.3)
            assert np.abs(betweenness(g) - brute_force_betweenness(g)).max() < 1e-9


class TestCloseness:
    def test_complete_graph_ones(self):
        assert np.allclose(closeness(complete_graph(5)), 1.0)

    def test_path3(self):
        assert np.allclose(closeness(path_graph(3)), [2 / 3, 1.0, 2 / 3])

    def test_isolated_zero(self):
        g = Graph(3, [(0, 1)], np.zeros((3, 1)), None)
        assert closeness(g)[2] == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(8):
            g = random_graph(rng, int(rng.integers(4, 20)), p=0.25)
            assert np.abs(closeness(g) - brute_force_closeness(g)).max() < 1e-9


class TestScopeExpand:
    def test_all_equal_values(self):
        g = complete_graph(4)
        t, em, gm, er, gr = scope_expand(np.full(4, 2.5), g)
        assert np.allclose(em, 2.5) and np.allclose(gm, 2.5)
        assert np.allclose(er, 0.5) and np.allclose(gr, 0.5)

    def test_unique_max_global_rank_one(self):
        g = path_graph(5)
        vals = np.array([0.0, 1.0, 5.0, 1.0, 0.0])
        *_, gr = scope_expand(vals, g)
        assert gr[2] == 1.0

    def test_path3_betweenness_ego_rank(self):
        g = path_graph(3)
        _, _, _, er, _ = scope_expand(np.array([0.0, 1.0, 0.0]), g)
        assert er[1] == 1.0

    def test_rank_columns_bounded(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 15, p=0.2)
        vals = rng.normal(size=15)
        *_, er, gr = scope_expand(vals, g)
        assert (er >= 0).all() and (er <= 1).all()
        assert (gr >= 0).all() and (gr <= 1).all()


class TestSimilarities:
    def test_identical_rows_give_one(self):
        g = path_graph(4)
        x = np.tile([1.0, 2.0], (4, 1))
        assert np.allclose(khop_similarity(g, x, 1), 1.0)
        assert edge_avg_similarity(g, x) == pytest.approx(1.0)

    def test_orthogonal_edge(self):
        g = graph_from_edges(2, [(0, 1)])
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(khop_similarity(g, x, 1), 0.0)
        assert edge_avg_similarity(g, x) == pytest.approx(0.0)

    def test_empty_shell_convention(self):
        g = complete_graph(3)  # diameter 1: every k>=2 shell is empty
        x = np.ones((3, 2))
        assert np.allclose(khop_similarity(g, x, 5), 0.0)

    def test_two_edges_mean(self):
        g = path_graph(3)
        x = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert edge_avg_similarity(g, x) == pytest.approx(0.5)

    def test_edgeless_graph_flagged_zero(self, caplog):
        g = Graph(2, [], np.ones((2, 2)), None)
        with caplog.at_level("WARNING"):
            assert edge_avg_similarity(g, np.ones((2, 2))) == 0.0
        assert any("edgeless" in r.message for r in caplog.records)

    def test_zero_vector_cosine_is_zero(self):
        g = graph_from_edges(2, [(0, 1)])
        x = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert khop_similarity(g, x, 1)[1] == 0.0


class TestComputePrimitives:
    def test_canonical_23_columns(self):
        g = path_graph(5, d=3, seed=1)
        table = compute_primitives(g, g.features)
        assert table.names == list(PRIMITIVE_NAMES)
        assert len(table.names) == 23
        assert table.categories == list(PRIMITIVE_CATEGORIES)
        assert table.matrix.shape == (5, 23)
        assert np.isfinite(table.matrix).all()

    def test_triangle_identical_features(self):
        g = complete_graph(3, d=2, seed=2)
        x = np.tile([1.0, 1.0], (3, 1))
        t = compute_primitives(g, x)
        for name in ("Sim_edge_avg", "Sim_1hop"):
            assert np.allclose(t.column(name), 1.0)
        for name in ("PR_ego_rank", "PR_global_rank"):
            assert np.allclose(t.column(name), 0.5)
        assert np.allclose(t.column("Deg_t"), 2.0)
        assert np.allclose(t.column("Ego_size"), 3.0)

    def test_isolated_node_conventions(self):
        g = Graph(3, [(0, 1)], np.ones((3, 2)), None)
        t = compute_primitives(g, g.features)
        assert t.column("PR_t")[2] > 0
        assert t.column("BC_t")[2] == 0.0
        assert t.column("CC_t")[2] == 0.0
        assert t.column("Sim_1hop")[2] == 0.0
        assert t.column("Deg_t")[2] == 0.0
        assert t.column("Ego_size")[2] == 1.0

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 12, p=0.3, d=4)
        perm = rng.permutation(12)
        remapped = [(int(perm[u]), int(perm[v])) for u, v in g.edges]
        g2 = Graph(12, remapped, g.features[np.argsort(perm)], None)
        t1 = compute_primitives(g, g.features)
        t2 = compute_primitives(g2, g2.features)
        # row for node v in g corresponds to row perm[v] in g2
        assert np.allclose(t1.matrix, t2.matrix[perm], atol=1e-9)


@pytest.mark.parametrize("case,g", degenerate_graphs(seed=3),
                         ids=[case for case, _ in degenerate_graphs(seed=3)])
def test_degenerate_graph_primitives_match_oracles(case, g):
    xtilde = align(g, 5).matrix  # wider than some of these graphs: zero-padded
    t = compute_primitives(g, xtilde)
    assert np.isfinite(t.matrix).all()
    assert np.abs(t.column("BC_t") - brute_force_betweenness(g)).max() < 1e-9
    assert np.abs(t.column("CC_t") - brute_force_closeness(g)).max() < 1e-9
    dist = brute_force_distances(g)
    assert np.array_equal(t.column("Ego_size"), (dist <= EGO_RADIUS).sum(axis=1))
    norms = np.linalg.norm(xtilde, axis=1, keepdims=True)
    xn = np.divide(xtilde, norms, out=np.zeros_like(xtilde), where=norms > 0)
    sim = xn @ xn.T
    for k in range(1, 6):
        shell = dist == k
        size = shell.sum(axis=1)
        want = np.divide((sim * shell).sum(axis=1), size, out=np.zeros(g.num_nodes),
                         where=size > 0)
        assert np.abs(t.column(f"Sim_{k}hop") - want).max() < 1e-9


class TestRouterFeatureTable:
    def make_table(self):
        g = path_graph(4, d=3, seed=5)
        return compute_primitives(g, g.features)

    def test_unique_names_enforced(self):
        with pytest.raises(ValueError):
            RouterFeatureTable(
                matrix=np.zeros((2, 2)),
                names=["a", "a"],
                categories=["Topology", "Topology"],
                provenance=["primitive"] * 2,
            )

    def test_standardized_active_zero_mean_unit_std(self):
        t = self.make_table()
        z = t.standardized_active()
        live = z.std(axis=0) > 0
        assert np.abs(z.mean(axis=0)).max() < 1e-12
        assert np.allclose(z.std(axis=0)[live], 1.0)

    def test_set_active_and_names(self):
        t = self.make_table().with_active(["PR_t", "Deg_t"])
        assert t.active_names() == ["PR_t", "Deg_t"]
        assert t.standardized_active().shape == (4, 2)

    def test_export_text(self, tmp_path):
        t = self.make_table()
        path = tmp_path / "table.tsv"
        t.export_text(str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0].split("\t") == list(PRIMITIVE_NAMES)
        assert len(lines) == 1 + 4
