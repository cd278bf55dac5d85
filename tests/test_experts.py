import numpy as np
import pytest

from evofg import autodiff as ad
from evofg import experts
from evofg.experts import (
    ARCHS,
    anomaly_scores,
    cross_attention_t,
    encode,
    encode_t,
    expert_correctness,
    expert_training_loss_t,
    init_expert,
    load_expert,
    pretrain_expert,
    propagate,
    reconstruct,
    sample_key_split,
    save_expert,
)
from evofg.checkpoint import CheckpointError
from evofg.graph import Graph
from evofg.pipeline import PipelineConfig
from helpers import (
    anomaly_loss,
    counting,
    degenerate_graphs,
    fd_adapters,
    finite_diff_check,
    graph_from_edges,
    random_graph,
    unfolded_encode_t,
)


def tiny_cfg(**kw):
    defaults = dict(
        d=4, d_e=5, d_prime=4, d_m=6, n_memory=4,
        expert_epochs=(3, 3, 3, 3), warmup_epochs=2, router_epochs=2, n_envs=2,
    )
    defaults.update(kw)
    return PipelineConfig(**defaults)


def labeled_graph(rng, n=12, p=0.35, d=4):
    g = random_graph(rng, n, p=p, d=d, with_labels=True)
    return g


class TestEncode:
    def test_lowpass_edgeless_reduces_to_self_term(self):
        g = Graph(4, [], np.random.default_rng(0).normal(size=(4, 3)), None)
        m = init_expert("LOWPASS", 3, 5, 4, seed=1)
        out = encode(m, g.features, g)
        assert np.allclose(out, np.tanh(g.features @ m.params["w0"]))

    def test_gpr_identity_coefficients(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng, 8, p=0.4, d=3)
        m = init_expert("GPR", 3, 5, 4, seed=2)
        m.params["gamma"][:] = 0.0
        m.params["gamma"][0] = 1.0
        out = encode(m, g.features, g)
        assert np.allclose(out, g.features @ m.params["w0"])

    def test_dimension_mismatch_rejected(self, monkeypatch):
        """The width check comes before any propagation or sparse product."""
        rng = np.random.default_rng(2)
        g = random_graph(rng, 6, d=3)
        m = init_expert("LOWPASS", 4, 5, 4, seed=3)
        calls = []
        monkeypatch.setattr(experts, "propagate", counting(calls, "propagate", propagate))
        monkeypatch.setattr(ad, "spmm", counting(calls, "spmm", ad.spmm))
        with pytest.raises(ValueError, match="width"):
            encode(m, g.features, g)
        assert calls == []

    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("case", ["random", "isolated_nodes", "edgeless"])
    def test_matches_the_unfolded_encoder(self, arch, case):
        """``encode_t`` on the propagated inputs gives the values and the
        gradients of the encoder that propagates after its weights, to rel
        1e-12: only the order of the sums differs."""
        rng = np.random.default_rng(7)
        graphs = dict(degenerate_graphs(seed=7, d=6), random=random_graph(rng, 30, p=0.15, d=6))
        g = graphs[case]
        m = init_expert(arch, 6, 5, 4, seed=8)
        if arch == "ATTENTION":
            m.params["att_self"] = 0.3 * rng.normal(size=5)
            m.params["att_nbr"] = 0.3 * rng.normal(size=5)
        upstream = rng.normal(size=(g.num_nodes, 5))
        runs = []
        for forward in (lambda lv: encode_t(arch, lv, propagate(arch, g.features, g), g),
                        lambda lv: unfolded_encode_t(arch, lv, g.features, g)):
            lv = ad.leaves(m.params)
            h = forward(lv)
            ad.tsum(ad.mul(h, upstream)).backward()
            runs.append((h.value, ad.grads(lv)))
        (h, grads), (h_ref, grads_ref) = runs
        assert np.abs(h - h_ref).max() <= 1e-12 * np.abs(h_ref).max()
        for name, g_ref in grads_ref.items():
            assert np.abs(grads[name] - g_ref).max() <= 1e-12 * np.abs(g_ref).max(), name

    @pytest.mark.parametrize("arch", ARCHS)
    def test_permutation_equivariance(self, arch):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 10, p=0.35, d=4)
        perm = rng.permutation(10)
        remapped = [(int(perm[u]), int(perm[v])) for u, v in g.edges]
        g2 = Graph(10, remapped, g.features[np.argsort(perm)], None)
        m = init_expert(arch, 4, 6, 5, seed=4)
        h1 = encode(m, g.features, g)
        h2 = encode(m, g2.features, g2)
        assert np.allclose(h1, h2[perm], atol=1e-10)

    @pytest.mark.parametrize("arch", ARCHS)
    def test_outputs_finite(self, arch):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 9, p=0.3, d=4)
        m = init_expert(arch, 4, 6, 5, seed=5)
        assert np.isfinite(encode(m, g.features, g)).all()


class TestCrossAttention:
    def test_single_key_copies_its_row(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 6, p=0.5, d=4)
        m = init_expert("LOWPASS", 4, 5, 4, seed=6)
        h = encode(m, g.features, g)
        recon = reconstruct(m, h[[0, 1, 3]], h[[2]])
        assert np.allclose(recon, np.tile(h[2], (3, 1)))

    def test_identical_keys_give_that_row(self):
        h = np.vstack([np.tile([1.0, -0.5, 2.0], (3, 1)), [[0.3, 0.1, -1.0]]])
        m = init_expert("LOWPASS", 3, 3, 3, seed=7)
        recon = reconstruct(m, h[[3]], h[[0, 1, 2]])
        assert np.allclose(recon[0], [1.0, -0.5, 2.0])

    def test_equal_logits_average_keys(self):
        # with identity projections and a query orthogonal to k1 - k2 the
        # logits tie, so the reconstruction is the plain mean of the keys
        wq = ad.wrap(np.eye(2))
        wk = ad.wrap(np.eye(2))
        hq = ad.wrap(np.array([[0.0, 1.0]]))
        hk = ad.wrap(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        out = cross_attention_t(wq, wk, hq, hk, 2).value
        assert np.allclose(out, [[0.0, 0.0]])

    def test_rows_stay_in_key_bounding_box(self):
        rng = np.random.default_rng(6)
        m = init_expert("ATTENTION", 4, 5, 4, seed=10)
        g = random_graph(rng, 12, p=0.4, d=4)
        h = encode(m, g.features, g)
        keys = np.arange(4)
        queries = np.arange(4, 12)
        recon = reconstruct(m, h[queries], h[keys])
        lo, hi = h[keys].min(axis=0), h[keys].max(axis=0)
        assert (recon >= lo - 1e-12).all() and (recon <= hi + 1e-12).all()


class TestScoresAndLoss:
    def test_exact_reconstruction_scores_zero(self):
        h = np.random.default_rng(7).normal(size=(5, 3))
        assert np.allclose(anomaly_scores(h, h), 0.0)

    def test_three_four_five(self):
        assert anomaly_scores(np.array([[3.0, 4.0]]), np.zeros((1, 2)))[0] == 5.0

    def test_scores_homogeneous(self):
        rng = np.random.default_rng(8)
        a, b = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        assert np.allclose(anomaly_scores(2 * a, 2 * b), 2 * anomaly_scores(a, b))

    def test_scores_rotation_invariant(self):
        rng = np.random.default_rng(9)
        a, b = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        assert np.allclose(anomaly_scores(a @ q, b @ q), anomaly_scores(a, b))

    def test_normal_perfect_alignment_zero_loss(self):
        h = np.array([[1.0, 2.0]])
        assert anomaly_loss(h, h, [0]) == pytest.approx(0.0, abs=1e-12)

    def test_anomaly_negative_cosine_hinged_to_zero(self):
        h = np.array([[1.0, 0.0]])
        recon = np.array([[-0.5, np.sqrt(3) / 2]])  # cos = -0.5
        assert anomaly_loss(h, recon, [1]) == pytest.approx(0.0)

    def test_mixed_example(self):
        # normal with cos 0 contributes 1; anomaly with cos 1 contributes 1
        h = np.array([[1.0, 0.0], [1.0, 0.0]])
        recon = np.array([[0.0, 1.0], [2.0, 0.0]])
        assert anomaly_loss(h, recon, [0, 1]) == pytest.approx(1.0)

    def test_zero_vector_cosine_convention(self):
        h = np.array([[0.0, 0.0]])
        recon = np.array([[1.0, 1.0]])
        # cos defined as 0: normal contributes 1 - 0
        assert anomaly_loss(h, recon, [0]) == pytest.approx(1.0)


class TestGradients:
    @pytest.mark.parametrize("arch", ARCHS)
    def test_training_loss_passes_fd_check(self, arch):
        rng = np.random.default_rng(28)
        g = labeled_graph(rng, n=11)
        m = init_expert(arch, 4, 5, 4, seed=29)
        if arch == "ATTENTION":
            # evaluate away from the zero-init leaky-relu kink
            r2 = np.random.default_rng(30)
            m.params["att_self"] = 0.3 * r2.normal(size=5)
            m.params["att_nbr"] = 0.3 * r2.normal(size=5)
        keys, queries = sample_key_split(g.labels, 0.2, rng)
        inputs = propagate(arch, g.features, g)

        def build(lv):
            return expert_training_loss_t(arch, lv, inputs, g, keys, queries, 4)

        loss_fn, grad_fn, vec = fd_adapters(build, m.params)
        rep = finite_diff_check(loss_fn, grad_fn, vec)
        assert rep.max_rel_err < 1e-4


class TestPretraining:
    def test_trace_finite_and_params_moved(self):
        rng = np.random.default_rng(11)
        g = labeled_graph(rng, n=14)
        cfg = tiny_cfg()
        model, trace = pretrain_expert("LOWPASS", [(g, g.features)], cfg, seed=12)
        assert len(trace) == 3
        assert all(np.isfinite(v) for v in trace)
        start = init_expert("LOWPASS", 4, 5, 4, seed=12)
        assert not np.array_equal(model.params["w0"], start.params["w0"])

    def test_zero_epochs_returns_initialization(self):
        rng = np.random.default_rng(12)
        g = labeled_graph(rng, n=12)
        cfg = tiny_cfg(expert_epochs=(0, 0, 0, 0))
        model, trace = pretrain_expert("CHEBY", [(g, g.features)], cfg, seed=13)
        reference = init_expert("CHEBY", 4, 5, 4, seed=13)
        assert trace == []
        for k in reference.params:
            assert np.array_equal(model.params[k], reference.params[k])

    @pytest.mark.parametrize("arch", ARCHS)
    def test_each_graph_is_propagated_once(self, arch, monkeypatch):
        """Pretraining propagates each training graph once, before the first
        epoch, whatever the number of epochs."""
        rng = np.random.default_rng(14)
        graphs = [labeled_graph(rng, n=12), labeled_graph(rng, n=10)]
        calls = []
        monkeypatch.setattr(experts, "propagate", counting(calls, "propagate", propagate))
        for epochs in (1, 4):
            calls.clear()
            cfg = tiny_cfg(expert_epochs=(epochs,) * 4)
            pretrain_expert(arch, [(g, g.features) for g in graphs], cfg, seed=15)
            assert calls == ["propagate"] * len(graphs)

    def test_key_split_uses_normal_nodes_only(self):
        rng = np.random.default_rng(13)
        y = np.array([0, 1, 0, 0, 1, 0, 0, 0])
        keys, queries = sample_key_split(y, 0.5, rng)
        assert (y[keys] == 0).all()
        assert len(np.intersect1d(keys, queries)) == 0
        assert len(keys) + len(queries) == len(y)

    def test_key_split_keeps_one_key_at_any_fraction(self):
        y = np.array([0, 1, 0, 0, 1])
        keys, queries = sample_key_split(y, 0.01, np.random.default_rng(16))
        assert len(keys) == 1 and y[keys[0]] == 0
        assert len(queries) == len(y) - 1


class TestCorrectness:
    def test_perfect_ranking_gives_all_ones(self):
        y = np.array([0, 0, 0, 1, 1])
        scores = np.array([[0.1, 0.2, 0.3, 0.8, 0.9]])
        q = expert_correctness(scores, y)
        assert q[:, 0].tolist() == [1, 1, 1, 1, 1]

    def test_constant_scores_index_tiebreak(self):
        # rate 0.2 of 10 nodes: top-2 by (score, index) = nodes 0 and 1
        y = np.zeros(10, dtype=int)
        y[[0, 5]] = 1
        scores = np.full((1, 10), 3.3)
        q = expert_correctness(scores, y)
        expected_pred = np.array([1, 1, 0, 0, 0, 0, 0, 0, 0, 0])
        assert q[:, 0].tolist() == (expected_pred == y).astype(int).tolist()

    def test_shape_and_binary(self):
        rng = np.random.default_rng(14)
        y = (rng.random(20) < 0.3).astype(int)
        y[0] = 1
        y[1] = 0
        scores = rng.normal(size=(4, 20))
        q = expert_correctness(scores, y)
        assert q.shape == (20, 4)
        assert set(np.unique(q)) <= {0, 1}


class TestCheckpoint:
    @pytest.mark.parametrize("arch", ARCHS)
    def test_roundtrip_bit_exact(self, tmp_path, arch):
        m = init_expert(arch, 4, 5, 4, seed=15)
        path = str(tmp_path / f"{arch}.bin")
        save_expert(m, path)
        m2 = load_expert(path)
        assert m2.arch == arch
        assert m2.dims == (4, 5, 4)
        assert list(m2.params) == list(m.params)
        for k in m.params:
            assert np.array_equal(m.params[k], m2.params[k])

    def test_wrong_kind_rejected(self, tmp_path):
        from evofg.checkpoint import save_checkpoint

        path = str(tmp_path / "x.bin")
        save_checkpoint(path, {"kind": "other"}, {"t": np.zeros(2)})
        with pytest.raises(CheckpointError, match="x.bin: is of kind 'other', not 'expert'"):
            load_expert(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = str(tmp_path / "x.bin")
        save_expert(init_expert("GPR", 4, 5, 4, seed=16), path)
        with open(path, "ab") as fh:
            fh.write(b"\0")
        with pytest.raises(CheckpointError, match="trailing bytes"):
            load_expert(path)

    @pytest.mark.parametrize("change", ["missing", "extra", "renamed", "reshaped"])
    def test_tensors_must_match_the_architecture(self, tmp_path, change):
        m = init_expert("CHEBY", 4, 5, 4, seed=17)
        if change == "missing":
            del m.params["cheb_w3"]
        elif change == "extra":
            m.params["w0"] = np.zeros((4, 5))
        elif change == "renamed":
            m.params["cheb_w4"] = m.params.pop("cheb_w3")
        else:
            m.params["wq"] = np.zeros((5, 3))
        path = str(tmp_path / "x.bin")
        save_expert(m, path)
        with pytest.raises(CheckpointError, match="do not match"):
            load_expert(path)
