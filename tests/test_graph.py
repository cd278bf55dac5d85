import os
import warnings

import numpy as np
import pytest

from evofg import autodiff as ad
from evofg.features import _hop_distances
from evofg.graph import (
    EGO_RADIUS,
    Graph,
    GraphFormatError,
    gen_synthetic,
    load_graph,
    load_graph_dir,
    save_graph,
)
from helpers import (
    brute_force_distances,
    complete_graph,
    ego_mask,
    graph_equals,
    neighbors,
    path_graph,
    random_graph,
    scipy_operators,
    star_graph,
    sweep_cases,
)


def write_graph_files(tmp_path, edge_text, feat_text, label_text):
    e = tmp_path / "edges.txt"
    f = tmp_path / "features.txt"
    l = tmp_path / "labels.txt"
    e.write_text(edge_text)
    f.write_text(feat_text)
    l.write_text(label_text)
    return str(e), str(f), str(l)


class TestLoading:
    def test_minimal_graph(self, tmp_path):
        paths = write_graph_files(
            tmp_path, "0\t1\n", "2 3\n1 2 3\n4 5 6\n", "0\n1\n"
        )
        g = load_graph(*paths, name="mini")
        assert g.num_nodes == 2
        assert list(neighbors(g, 0)) == [1]
        assert list(neighbors(g, 1)) == [0]
        assert g.labels.tolist() == [0, 1]
        assert g.features.shape == (2, 3)

    def test_directed_duplicates_symmetrized(self, tmp_path):
        paths = write_graph_files(
            tmp_path, "0\t1\n1\t0\n# comment\n", "2 1\n0\n1\n", "0\n1\n"
        )
        g = load_graph(*paths)
        assert g.num_edges == 1

    def test_out_of_range_edge_names_line(self, tmp_path):
        paths = write_graph_files(
            tmp_path, "0\t1\n0\t5\n", "3 1\n0\n1\n2\n", "0\n0\n1\n"
        )
        with pytest.raises(GraphFormatError, match=":2"):
            load_graph(*paths)

    def test_malformed_edge_line(self, tmp_path):
        paths = write_graph_files(tmp_path, "0 1 2\n", "2 1\n0\n1\n", "0\n1\n")
        with pytest.raises(GraphFormatError, match=":1"):
            load_graph(*paths)

    def test_feature_row_count_mismatch(self, tmp_path):
        paths = write_graph_files(tmp_path, "0\t1\n", "3 1\n0\n1\n", "0\n1\n0\n")
        with pytest.raises(GraphFormatError):
            load_graph(*paths)

    def test_self_loops_dropped_with_warning(self, tmp_path, caplog):
        paths = write_graph_files(
            tmp_path, "0\t0\n0\t1\n1\t1\n", "2 1\n0\n1\n", "0\n1\n"
        )
        with caplog.at_level("WARNING"):
            g = load_graph(*paths)
        assert g.num_edges == 1
        assert any("2 self-loop" in r.message for r in caplog.records)

    def test_labels_optional(self, tmp_path):
        e, f, _ = write_graph_files(tmp_path, "0\t1\n", "2 1\n0\n1\n", "0\n1\n")
        g = load_graph(e, f, None)
        assert g.labels is None

    def test_non_binary_label_rejected(self, tmp_path):
        paths = write_graph_files(tmp_path, "0\t1\n", "2 1\n0\n1\n", "0\n2\n")
        with pytest.raises(GraphFormatError):
            load_graph(*paths)

    @pytest.mark.parametrize("edge_text", ["", "# no edges\n  # at all\n\n"])
    def test_edge_file_without_edges_loads_edgeless(self, tmp_path, caplog, edge_text):
        paths = write_graph_files(tmp_path, edge_text, "2 1\n0\n1\n", "0\n1\n")
        g = load_graph(*paths)
        assert g.num_nodes == 2 and g.num_edges == 0
        assert not caplog.records

    @pytest.mark.parametrize("feat_text,where", [
        ("3 2\n0 1\n\n4 5\n", "features.txt:3: expected 2"),
        ("3 2\n\n\n\n", "features.txt:2: expected 2"),
        ("3 2\n0 1\n2 x\n4 5\n", "features.txt:3: bad real"),
        ("3 2\n0 1\n2 3 4\n", "features.txt:3: expected 2"),
        ("3 2\n0 1\n2 3\n", "expected 3 feature rows, got 2"),
        ("3 2\n0 1\n2 3\n4 5\n6 7\n8 9\n", "features.txt:5: a line after the 3 feature rows"),
        ("3 2\n0 1\n2 3\n4 5\n\n \n6 7\n", "features.txt:7: a line after the 3 feature rows"),
        ("3 2\n0 1\n\n4 5\n6 7\n", "features.txt:3: expected 2"),
    ])
    def test_feature_error_names_line(self, tmp_path, feat_text, where):
        paths = write_graph_files(tmp_path, "0\t1\n", feat_text, "0\n1\n0\n")
        with pytest.raises(GraphFormatError, match=where):
            load_graph(*paths)

    @pytest.mark.parametrize("label_text,where", [
        ("0\n1\n2\n", "labels.txt:3: label"),
        ("0\n\n1\n", "labels.txt:2: label"),
        ("0\n1\n", "expected 3 labels, got 2"),
        ("0\n1\n0\n1\n1\n", "labels.txt:4: a line after the 3 labels"),
        ("0\n1\n0\n\n1\n", "labels.txt:5: a line after the 3 labels"),
    ])
    def test_label_error_names_line(self, tmp_path, label_text, where):
        paths = write_graph_files(tmp_path, "0\t1\n", "3 1\n0\n1\n2\n", label_text)
        with pytest.raises(GraphFormatError, match=where):
            load_graph(*paths)

    @pytest.mark.parametrize("lenient_numpy", [False, True])
    @pytest.mark.parametrize("endpoint", ["1.0", "1.7"])
    def test_float_endpoint_rejected_with_warnings_ignored(
        self, tmp_path, monkeypatch, lenient_numpy, endpoint
    ):
        # some numpy versions read "1.7" as the integer 1 with only a
        # DeprecationWarning; lenient_numpy stands in for them
        if lenient_numpy:
            loadtxt = np.loadtxt

            def truncating_loadtxt(fname, dtype=float, **kw):
                out = loadtxt(fname, dtype=np.float64, **kw)
                return out.astype(dtype) if dtype is np.int64 else out

            monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
        paths = write_graph_files(
            tmp_path, f"0\t2\n0\t{endpoint}\n", "3 1\n0\n1\n2\n", "0\n1\n0\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(GraphFormatError, match="edges.txt:2: non-integer endpoint"):
                load_graph(*paths)

    @pytest.mark.parametrize("header", ["-1 4", "3 -1", "0 4"])
    def test_header_without_nodes_or_with_negative_width_rejected(self, tmp_path, header):
        paths = write_graph_files(tmp_path, "0\t1\n", f"{header}\n1 2 3 4\n1 2 3 4\n", "0\n1\n")
        with pytest.raises(GraphFormatError, match="features.txt:1: needs N >= 1"):
            load_graph(*paths)

    def test_label_with_trailing_nul_rejected(self, tmp_path):
        paths = write_graph_files(tmp_path, "0\t1\n", "2 1\n0\n1\n", "0\n1\x00")
        with pytest.raises(GraphFormatError, match="labels.txt:2: label"):
            load_graph(*paths)

    def test_padded_labels_and_blank_edge_lines_accepted(self, tmp_path):
        paths = write_graph_files(
            tmp_path, "\n 0 1 # first\n\n2\t1\n", "3 1\n0\n1\n2\n", " 1\n0 \n1"
        )
        g = load_graph(*paths)
        assert g.edges.tolist() == [[0, 1], [1, 2]]
        assert g.labels.tolist() == [1, 0, 1]

    def test_blank_lines_after_the_rows_and_labels_accepted(self, tmp_path):
        paths = write_graph_files(tmp_path, "0\t1\n", "3 1\n0\n1\n2\n\n \n", "1\n0\n1\n\n \n")
        g = load_graph(*paths)
        assert g.features.ravel().tolist() == [0, 1, 2]
        assert g.labels.tolist() == [1, 0, 1]


class TestNeighborhoods:
    """The hop-distance matrix behind every structural primitive: row v
    holds v's distances, -1 where unreachable; the exact-k shell is D == k
    and the ego graph is 0 <= D <= EGO_RADIUS."""

    def test_k_hop_on_path(self):
        dist = _hop_distances(path_graph(3))
        assert np.flatnonzero(dist[0] == 2).tolist() == [2]

    def test_k_hop_triangle_empty_shell(self):
        dist = _hop_distances(complete_graph(3))
        assert np.flatnonzero(dist[0] == 2).tolist() == []

    def test_k_hop_star_leaves(self):
        dist = _hop_distances(star_graph(4))
        assert np.flatnonzero(dist[0] == 1).tolist() == [1, 2, 3, 4]

    def test_ego_isolated_node(self):
        g = Graph(3, [(0, 1)], np.zeros((3, 2)), None)
        dist = _hop_distances(g)
        assert dist[2].tolist() == [-1, -1, 0]
        assert np.flatnonzero(ego_mask(dist[2])).tolist() == [2]

    def test_ego_path_endpoint_reaches_radius(self):
        dist = _hop_distances(path_graph(10))
        assert np.flatnonzero(ego_mask(dist[0])).tolist() == list(range(EGO_RADIUS + 1))

    def test_ego_complete_graph_is_whole_graph(self):
        dist = _hop_distances(complete_graph(5))
        assert ego_mask(dist[2]).all()

    def test_shells_partition_ego(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(5, 25)), p=0.15)
            dist = _hop_distances(g)
            oracle = brute_force_distances(g)
            assert np.array_equal(dist, np.where(np.isfinite(oracle), oracle, -1))
            assert np.array_equal(ego_mask(dist), oracle <= EGO_RADIUS)
            shells = np.stack([dist == k for k in range(1, EGO_RADIUS + 1)])
            assert (shells.sum(axis=0) <= 1).all()  # pairwise disjoint
            union = shells.any(axis=0) | np.eye(g.num_nodes, dtype=bool)
            assert np.array_equal(union, ego_mask(dist))


class TestSynthetic:
    def test_deterministic_given_seed(self):
        a = gen_synthetic(50, 6, 0.1, structure_seed=9, planted_kind="mixed")
        b = gen_synthetic(50, 6, 0.1, structure_seed=9, planted_kind="mixed")
        assert graph_equals(a, b)

    def test_anomaly_count_floor(self):
        g = gen_synthetic(400, 8, 0.05, structure_seed=3, planted_kind="attribute")
        assert int(g.labels.sum()) == 20

    def test_attribute_anomalies_have_larger_norm(self):
        g = gen_synthetic(300, 16, 0.08, structure_seed=4, planted_kind="attribute")
        anom = np.linalg.norm(g.features[g.labels == 1], axis=1).mean()
        norm = np.linalg.norm(g.features[g.labels == 0], axis=1).mean()
        assert anom > norm

    def test_invalid_rate_rejected(self):
        for rate in (0.0, 0.5, -0.1):
            with pytest.raises(ValueError):
                gen_synthetic(50, 4, rate, 0, "mixed")

    def test_a_community_count_below_one_is_refused_by_name(self):
        for count in (0, -2):
            with pytest.raises(ValueError, match="n_communities"):
                gen_synthetic(50, 4, 0.1, 0, "mixed", n_communities=count)

    def test_structural_anomalies_have_low_degree(self):
        g = gen_synthetic(200, 8, 0.1, structure_seed=5, planted_kind="structural")
        assert g.degrees[g.labels == 1].mean() < g.degrees[g.labels == 0].mean()

    def test_label_invariants(self):
        g = gen_synthetic(100, 4, 0.2, structure_seed=6, planted_kind="mixed")
        assert 1 <= g.labels.sum() < g.num_nodes / 2


class TestRoundTrip:
    def test_save_load_identical(self, tmp_path):
        g = gen_synthetic(60, 5, 0.1, structure_seed=11, planted_kind="mixed")
        save_graph(g, str(tmp_path / "g"))
        g2 = load_graph_dir(str(tmp_path / "g"))
        assert graph_equals(g, g2)

    def test_save_is_byte_deterministic(self, tmp_path):
        g = gen_synthetic(40, 3, 0.1, structure_seed=12, planted_kind="attribute")
        save_graph(g, str(tmp_path / "a"))
        save_graph(g, str(tmp_path / "b"))
        for fname in ("edges.txt", "features.txt", "labels.txt"):
            a = (tmp_path / "a" / fname).read_bytes()
            b = (tmp_path / "b" / fname).read_bytes()
            assert a == b

    def test_extreme_floats_round_trip_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(40, 6)) * 10.0 ** rng.integers(-300, 301, size=(40, 6))
        x[0, :4] = [5e-324, -0.0, 1.7976931348623157e308, -5e-324]
        x[1, :3] = [2.2250738585072014e-308, 4.9e-310, -1.7976931348623157e308]
        g = Graph(40, [(0, 1), (1, 2)], x, rng.integers(0, 2, size=40))
        save_graph(g, str(tmp_path / "g"))
        g2 = load_graph_dir(str(tmp_path / "g"))
        assert g2.features.tobytes() == x.tobytes()
        assert np.array_equal(g2.labels, g.labels)

    def test_unlabeled_dir_load(self, tmp_path):
        g = gen_synthetic(30, 3, 0.1, structure_seed=13, planted_kind="mixed")
        save_graph(g, str(tmp_path / "g"))
        g2 = load_graph_dir(str(tmp_path / "g"), with_labels=False)
        assert g2.labels is None
        assert np.array_equal(g2.features, g.features)


def test_fractional_edge_endpoint_rejected():
    with pytest.raises(GraphFormatError, match="endpoints must be integers, not float64"):
        Graph(3, [[0, 1.5]], np.zeros((3, 2)), None)


def test_features_not_a_matrix_rejected():
    # a vector of N values would be accepted as N rows and fail in `align`
    with pytest.raises(GraphFormatError, match=r"features of shape \(5,\) are not 5 rows"):
        Graph(5, [(0, 1)], np.zeros(5), None)


def test_fractional_labels_rejected():
    with pytest.raises(GraphFormatError, match="labels must be 0/1"):
        Graph(2, [(0, 1)], np.zeros((2, 1)), [0.5, 1.0])


def test_graph_without_nodes_rejected():
    with pytest.raises(GraphFormatError, match="at least one node"):
        Graph(0, [], np.zeros((0, 4)), None)


def test_negative_edge_endpoint_rejected():
    with pytest.raises(GraphFormatError, match="edge endpoint out of range"):
        Graph(3, [[0, -1]], np.zeros((3, 2)), None)


def test_graph_arrays_immutable():
    g = path_graph(4)
    with pytest.raises(ValueError):
        g.features[0, 0] = 5.0
    with pytest.raises(ValueError):
        g.edges[0, 0] = 3


def _operator_cases():
    cases = sweep_cases()
    for name in ("edgeless", "isolated_nodes"):
        assert name in dict(cases)
    return cases


def _spmm_value_and_grad(op, x, upstream):
    leaf = ad.param(x.copy())
    out = ad.spmm(op, leaf)
    ad.tsum(ad.mul(out, upstream)).backward()
    return out.value, leaf.grad


def _assert_operators_match_scipy_products(g):
    rng = np.random.default_rng(g.num_nodes)
    x, upstream = rng.normal(size=(2, g.num_nodes, 5))
    for name, want in scipy_operators(g).items():
        got = getattr(g, name)()
        # indptr and indices in dtype and in the order within each row, and
        # the bits of every entry
        for part in ("indptr", "indices", "data"):
            a, b = getattr(got, part), getattr(want, part)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, part)
        value, grad = _spmm_value_and_grad(got, x, upstream)
        want_value, want_grad = _spmm_value_and_grad(want, x, upstream)
        assert value.tobytes() == want_value.tobytes(), name
        assert grad.tobytes() == want_grad.tobytes(), name


@pytest.mark.parametrize("case,g", _operator_cases(), ids=[c for c, _ in _operator_cases()])
def test_operators_match_scipy_diagonal_products(case, g):
    _assert_operators_match_scipy_products(g)


def test_operators_after_dropped_self_loops(tmp_path):
    n = 9
    rng = np.random.default_rng(3)
    edges = "0\t0\n0\t1\n1\t2\n2\t2\n3\t1\n4\t4\n5\t6\n6\t7\n7\t5\n"
    feats = f"{n} 2\n" + "".join("%.17g %.17g\n" % tuple(r) for r in rng.normal(size=(n, 2)))
    paths = write_graph_files(tmp_path, edges, feats, "0\n" * n)
    g = load_graph(*paths)
    assert g.num_edges == 6 and g.degrees[4] == 0 and g.degrees[8] == 0
    _assert_operators_match_scipy_products(g)


def test_edges_match_sorted_row_unique():
    """Deduplicating by one key per pair gives the array that
    np.unique(np.sort(edges, axis=1), axis=0) gives: values, dtype, C order
    and row order."""
    rng = np.random.default_rng(19)
    for trial in range(50):
        n = int(rng.integers(2, 40))
        pairs = rng.integers(0, n, size=(int(rng.integers(1, 120)), 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        # duplicates, reversed pairs and a narrower integer type
        edges = np.vstack([pairs, pairs[::2, ::-1], pairs[::3]]).astype(
            (np.int64, np.int32, np.uint16)[trial % 3])
        want = np.unique(np.sort(edges.astype(np.int64), axis=1), axis=0)
        got = Graph(n, edges, np.zeros((n, 2)), None).edges
        assert got.dtype == np.int64 and got.flags.c_contiguous
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    got = Graph(3, np.empty((0, 2), dtype=np.int64), np.zeros((3, 2)), None).edges
    assert got.dtype == np.int64 and got.shape == (0, 2)


@pytest.mark.parametrize("edge", [[0, 3], [1, 3], [0, 5]])
def test_out_of_range_endpoint_does_not_alias(edge):
    # as a key u * 3 + v these would decode to the in-range pairs (1, 0),
    # (2, 0) and (1, 2)
    with pytest.raises(GraphFormatError, match="edge endpoint out of range"):
        Graph(3, [edge], np.zeros((3, 2)), None)


def test_edge_index_of_shape_2_by_e_rejected():
    """A (2, E) edge_index, as PyTorch Geometric stores it, is not read as
    rows of pairs."""
    with pytest.raises(GraphFormatError, match=r"shape \(k, 2\), not \(2, 3\)"):
        Graph(3, np.array([[0, 1, 2], [1, 2, 0]]), np.zeros((3, 2)), None)


def test_flat_edge_array_rejected():
    with pytest.raises(GraphFormatError, match=r"shape \(k, 2\), not \(4,\)"):
        Graph(3, np.array([0, 1, 1, 2]), np.zeros((3, 2)), None)


@pytest.mark.parametrize("edges", [[], np.empty((0, 3), dtype=np.int64), np.empty((2, 0))])
def test_empty_edge_array_of_any_shape_is_edgeless(edges):
    g = Graph(3, edges, np.zeros((3, 2)), None)
    assert g.edges.shape == (0, 2) and g.edges.dtype == np.int64
    assert g.num_edges == 0
