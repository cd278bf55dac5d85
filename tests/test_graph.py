import os
import warnings

import numpy as np
import pytest

from evofg.features import _ego_mask, _hop_distances
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
    graph_equals,
    neighbors,
    path_graph,
    random_graph,
    star_graph,
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
    ])
    def test_feature_error_names_line(self, tmp_path, feat_text, where):
        paths = write_graph_files(tmp_path, "0\t1\n", feat_text, "0\n1\n0\n")
        with pytest.raises(GraphFormatError, match=where):
            load_graph(*paths)

    @pytest.mark.parametrize("label_text,where", [
        ("0\n1\n2\n", "labels.txt:3: label"),
        ("0\n\n1\n", "labels.txt:2: label"),
        ("0\n1\n", "expected 3 labels, got 2"),
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
        assert np.flatnonzero(_ego_mask(dist[2])).tolist() == [2]

    def test_ego_path_endpoint_reaches_radius(self):
        dist = _hop_distances(path_graph(10))
        assert np.flatnonzero(_ego_mask(dist[0])).tolist() == list(range(EGO_RADIUS + 1))

    def test_ego_complete_graph_is_whole_graph(self):
        dist = _hop_distances(complete_graph(5))
        assert _ego_mask(dist[2]).all()

    def test_shells_partition_ego(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(5, 25)), p=0.15)
            dist = _hop_distances(g)
            oracle = brute_force_distances(g)
            assert np.array_equal(dist, np.where(np.isfinite(oracle), oracle, -1))
            assert np.array_equal(_ego_mask(dist), oracle <= EGO_RADIUS)
            shells = np.stack([dist == k for k in range(1, EGO_RADIUS + 1)])
            assert (shells.sum(axis=0) <= 1).all()  # pairwise disjoint
            union = shells.any(axis=0) | np.eye(g.num_nodes, dtype=bool)
            assert np.array_equal(union, _ego_mask(dist))


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


def test_graph_arrays_immutable():
    g = path_graph(4)
    with pytest.raises(ValueError):
        g.features[0, 0] = 5.0
    with pytest.raises(ValueError):
        g.edges[0, 0] = 3
