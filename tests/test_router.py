import numpy as np
import pytest

from evofg import autodiff as ad
from evofg.experts import pretrain_expert, ARCHS
from evofg.pipeline import PipelineConfig, build_contexts, prepare_graph
from evofg.router import (
    RoutingContext,
    _combine_env_losses_t,
    aggregate,
    balance_loss_t,
    freeze_node_branch,
    init_router,
    kl_router_loss_t,
    load_router,
    node_branch_t,
    normalize_targets,
    resize_router,
    route,
    route_t,
    routing_frequency,
    routing_utility,
    save_router,
    train_router,
    _env_losses_t,
)
from evofg.checkpoint import CheckpointError
from evofg.graph import gen_synthetic
from helpers import (
    balance_loss,
    fd_adapters,
    finite_diff_check,
    full_forward_utility,
    invariant_env_draws,
    invariant_loss,
    kl_router_loss,
    mix_rows,
    per_env_route_losses_t,
    reference_train_main,
    route_noisy,
)


def tiny_cfg(**kw):
    defaults = dict(
        d=4, d_e=5, d_prime=4, d_m=6, n_memory=4,
        expert_epochs=(2, 2, 2, 2), warmup_epochs=3, router_epochs=2,
        n_envs=3, key_fraction=0.2,
    )
    defaults.update(kw)
    return PipelineConfig(**defaults)


@pytest.fixture(scope="module")
def pretrained():
    cfg = tiny_cfg()
    g = gen_synthetic(24, 6, 0.15, structure_seed=3, planted_kind="mixed")
    bundle = prepare_graph(g, cfg.d)
    experts = [
        pretrain_expert(a, [(bundle.graph, bundle.xtilde)], cfg, seed=i)[0]
        for i, a in enumerate(ARCHS)
    ]
    return cfg, bundle, experts


@pytest.fixture(scope="module")
def setup(pretrained):
    cfg, bundle, experts = pretrained
    ctx = build_contexts([bundle], experts, cfg)[0]
    model = init_router(cfg.d, ctx.hr.shape[1], cfg.d_m, cfg.n_memory, 4, seed=5)
    return cfg, bundle, ctx, model


class TestRoute:
    def test_rows_are_probability_vectors(self, setup):
        cfg, b, ctx, model = setup
        out = route(model, b.xtilde, b.graph, ctx.hr)
        assert np.abs(out.weights.sum(axis=1) - 1.0).max() < 1e-9
        assert (out.weights >= 0).all()
        assert np.abs(out.retrieval_node.sum(axis=1) - 1.0).max() < 1e-9
        assert np.abs(out.retrieval_feat.sum(axis=1) - 1.0).max() < 1e-9

    def test_deterministic_mode_idempotent(self, setup):
        cfg, b, ctx, model = setup
        o1 = route(model, b.xtilde, b.graph, ctx.hr)
        o2 = route(model, b.xtilde, b.graph, ctx.hr)
        assert np.array_equal(o1.weights, o2.weights)
        assert np.array_equal(o1.logits, o2.logits)

    def test_train_mode_adds_noise(self, setup):
        cfg, b, ctx, model = setup
        o1 = route_noisy(model, b.xtilde, b.graph, ctx.hr, train_mode=True,
                         rng=np.random.default_rng(0))
        o2 = route_noisy(model, b.xtilde, b.graph, ctx.hr, train_mode=True,
                         rng=np.random.default_rng(1))
        assert not np.array_equal(o1.logits, o2.logits)

    def test_train_mode_needs_an_rng(self, setup):
        cfg, b, ctx, model = setup
        with pytest.raises(ValueError, match="rng"):
            route_noisy(model, b.xtilde, b.graph, ctx.hr, train_mode=True)

    def test_identical_scale_vectors_give_uniform_weights(self, setup):
        cfg, b, ctx, _ = setup
        model = init_router(cfg.d, ctx.hr.shape[1], cfg.d_m, cfg.n_memory, 4, seed=6)
        model.params["scale"][:] = model.params["scale"][0]
        out = route(model, b.xtilde, b.graph, ctx.hr)
        assert np.abs(out.weights - 0.25).max() < 1e-12

    def test_single_memory_slot_gives_node_constant_logits(self, setup):
        cfg, b, ctx, _ = setup
        model = init_router(cfg.d, ctx.hr.shape[1], cfg.d_m, 1, 4, seed=7)
        out = route(model, b.xtilde, b.graph, ctx.hr)
        assert np.abs(out.logits - out.logits[0]).max() < 1e-12
        assert np.allclose(out.retrieval_node, 1.0)

    def test_softmax_shift_invariance_of_weights(self, setup):
        cfg, b, ctx, model = setup
        out = route(model, b.xtilde, b.graph, ctx.hr)
        row_shift = np.random.default_rng(0).normal(size=(out.logits.shape[0], 1))
        shifted = out.logits + 5.0 * row_shift
        ex = np.exp(shifted - shifted.max(axis=1, keepdims=True))
        assert np.allclose(ex / ex.sum(axis=1, keepdims=True), out.weights)

    def test_width_mismatch_rejected(self, setup):
        cfg, b, ctx, model = setup
        with pytest.raises(ValueError, match="width"):
            route(model, b.xtilde, b.graph, ctx.hr[:, :5])

    def test_mask_zeroes_columns_at_fixed_width(self, setup):
        cfg, b, ctx, model = setup
        mask = np.zeros(ctx.hr.shape[1])
        out = route_noisy(model, b.xtilde, b.graph, ctx.hr, mask=mask)
        manual = route(model, b.xtilde, b.graph, np.zeros_like(ctx.hr))
        assert np.array_equal(out.logits, manual.logits)

    def test_no_memory_router_skips_retrieval(self, setup):
        cfg, b, ctx, _ = setup
        model = init_router(
            cfg.d, ctx.hr.shape[1], cfg.d_m, cfg.n_memory, 4, seed=8, use_memory=False
        )
        out = route(model, b.xtilde, b.graph, ctx.hr)
        assert np.abs(out.weights.sum(axis=1) - 1.0).max() < 1e-9


class TestAggregate:
    def test_one_hot_selects_single_expert(self):
        rng = np.random.default_rng(1)
        mats = [rng.normal(size=(5, 3)) for _ in range(4)]
        recs = [rng.normal(size=(5, 3)) for _ in range(4)]
        p = np.zeros((5, 4))
        p[:, 2] = 1.0
        h, r = aggregate(p, mats, recs)
        assert np.allclose(h, mats[2])
        assert np.allclose(r, recs[2])

    def test_identical_experts_make_weights_irrelevant(self):
        rng = np.random.default_rng(2)
        mat = rng.normal(size=(4, 3))
        p1 = np.full((4, 4), 0.25)
        p2 = rng.dirichlet(np.ones(4), size=4)
        h1, _ = aggregate(p1, [mat] * 4, [mat] * 4)
        h2, _ = aggregate(p2, [mat] * 4, [mat] * 4)
        assert np.allclose(h1, h2)

    def test_midpoint_mixture(self):
        mats = [np.zeros((1, 3)), np.full((1, 3), 2.0)]
        p = np.array([[0.5, 0.5]])
        h, _ = aggregate(p, mats, mats)
        assert np.allclose(h, 1.0)

    def test_sums_in_expert_order(self):
        # scoring's mixture is the sum over experts in ARCHS order, bit for bit
        rng = np.random.default_rng(3)
        mats = [rng.normal(size=(50, 3)) * 10.0 ** e for e in range(4)]
        p = rng.dirichlet(np.ones(4), size=50)
        chain = ((mats[0] * p[:, 0, None] + mats[1] * p[:, 1, None])
                 + mats[2] * p[:, 2, None]) + mats[3] * p[:, 3, None]
        h, r = aggregate(p, mats, mats[::-1])
        assert np.array_equal(h, chain)
        assert np.array_equal(r, mix_rows(p, mats[::-1]).value)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            aggregate(np.ones((3, 2)) / 2, [np.zeros((4, 2))] * 2, [np.zeros((3, 2))] * 2)


class TestKLLoss:
    def test_matched_distributions_approach_zero(self):
        q = np.array([[1, 0, 0, 0]] * 3, dtype=float)
        g = np.zeros((3, 4))
        g[:, 0] = 40.0
        assert kl_router_loss(q, g) < 1e-9

    def test_two_hot_against_uniform_is_log2(self):
        q = np.array([[1, 1, 0, 0]], dtype=float)
        g = np.zeros((1, 4))
        assert kl_router_loss(q, g) == pytest.approx(np.log(2.0))

    def test_zero_rows_become_uniform_targets(self):
        q = np.zeros((2, 4))
        g = np.zeros((2, 4))
        assert kl_router_loss(q, g) == pytest.approx(0.0)
        assert np.allclose(normalize_targets(q, 4), 0.25)

    def test_nonnegative_and_zero_iff_matched(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            q = rng.random((5, 4)) * (rng.random((5, 4)) < 0.6)
            g = rng.normal(size=(5, 4))
            assert kl_router_loss(q, g) >= 0.0
        qn = normalize_targets(rng.random((5, 4)) + 0.05, 4)
        assert kl_router_loss(qn, np.log(qn)) == pytest.approx(0.0, abs=1e-12)


class TestBalance:
    def test_uniform_weights_constant_logits_zero(self):
        p = np.full((6, 4), 0.25)
        g = np.full((6, 4), 1.3)
        assert balance_loss(p, g) == pytest.approx(0.0)

    def test_collapsed_routing_penalized(self):
        p = np.zeros((8, 4))
        p[:, 0] = 1.0
        g = np.zeros((8, 4))
        assert balance_loss(p, g) >= 3.0

    def test_row_duplication_invariance(self):
        rng = np.random.default_rng(4)
        p = rng.dirichlet(np.ones(4), size=5)
        g = rng.normal(size=(5, 4))
        a = balance_loss(p, g)
        b = balance_loss(np.vstack([p, p]), np.vstack([g, g]))
        assert a == pytest.approx(b)


class TestUtility:
    def test_full_subset_matches_direct_kl(self, setup):
        cfg, b, ctx, model = setup
        v = routing_utility(model, frozenset(ctx.names), freeze_node_branch(model, [ctx]))
        out = route(model, b.xtilde, b.graph, ctx.hr)
        direct = -kl_router_loss(ctx.q_matrix, out.logits[ctx.queries])
        assert v == pytest.approx(direct, abs=1e-12)

    def test_empty_subset_finite(self, setup):
        cfg, b, ctx, model = setup
        v = routing_utility(model, frozenset(), freeze_node_branch(model, [ctx]))
        assert np.isfinite(v)

    def test_utility_is_pure(self, setup):
        cfg, b, ctx, model = setup
        s = frozenset(ctx.names[:7])
        frozen = freeze_node_branch(model, [ctx])
        assert routing_utility(model, s, frozen) == routing_utility(model, s, frozen)

    @pytest.mark.parametrize("use_memory", [True, False])
    def test_frozen_branch_matches_full_forward(self, setup, pretrained, use_memory):
        cfg, b, ctx, _ = setup
        experts = pretrained[2]
        model = init_router(cfg.d, ctx.hr.shape[1], cfg.d_m, cfg.n_memory, 4, seed=20,
                            use_memory=use_memory)
        other = prepare_graph(
            gen_synthetic(20, 5, 0.15, structure_seed=4, planted_kind="mixed"), cfg.d
        )
        ctx2 = build_contexts([other], experts, cfg)[0]
        frozen = freeze_node_branch(model, [ctx, ctx2])
        rng = np.random.default_rng(21)
        for _ in range(10):
            s = frozenset(n for n in ctx.names if rng.random() < 0.5)
            ref = full_forward_utility(model, s, [ctx, ctx2])
            assert routing_utility(model, s, frozen) == pytest.approx(ref, rel=1e-12)

    def test_frozen_branch_goes_stale_when_the_router_trains(self, setup):
        cfg, b, ctx, _ = setup
        model = init_router(cfg.d, ctx.hr.shape[1], cfg.d_m, cfg.n_memory, 4, seed=22)
        s = frozenset(ctx.names[::2])
        frozen = freeze_node_branch(model, [ctx])
        before = routing_utility(model, s, frozen)
        train_router(model, [ctx], tiny_cfg(lr=0.05), "main", seed=23)  # in place
        ref = full_forward_utility(model, s, [ctx])
        assert ref != pytest.approx(before, rel=1e-6)
        # the old material no longer describes the router; a rebuild does
        assert routing_utility(model, s, frozen) != pytest.approx(ref, rel=1e-6)
        rebuilt = freeze_node_branch(model, [ctx])
        assert routing_utility(model, s, rebuilt) == pytest.approx(ref, rel=1e-12)


class TestInvariantLoss:
    def test_degenerate_environments_equal_single_loss(self, setup):
        cfg, b, ctx, model = setup
        val, trace = invariant_loss(model, ctx, 4, lam=0.8, mask_rate=0.0, seed=9)
        assert len(trace) == 4
        assert len(set(trace)) == 1  # identical environments, bit-equal losses
        assert val == trace[0]  # variance term is exactly zero

    def test_lambda_zero_reduces_to_mean(self, setup):
        cfg, b, ctx, model = setup
        v0, trace = invariant_loss(model, ctx, 3, lam=0.0, mask_rate=0.4, seed=10)
        assert v0 == pytest.approx(np.mean(trace), abs=1e-15)

    def test_combine_arithmetic(self):
        total = _combine_env_losses_t(ad.wrap(np.array([0.2, 0.4])), 0.8)
        assert float(total.value) == pytest.approx(0.308)

    def test_needs_two_environments(self, setup):
        cfg, b, ctx, model = setup
        with pytest.raises(ValueError):
            invariant_loss(model, ctx, 1, lam=0.5, mask_rate=0.2, seed=11)

    @pytest.mark.parametrize("use_memory", [True, False])
    def test_shared_node_branch_matches_per_environment_forward(self, setup, use_memory):
        cfg, b, ctx, _ = setup
        model = init_router(cfg.d, ctx.hr.shape[1], cfg.d_m, cfg.n_memory, 4, seed=24,
                            use_memory=use_memory)
        masks, noise = invariant_env_draws(ctx, 5, 0.3, 25)

        def shared(lv):
            node, _ = node_branch_t(lv, ctx.xtilde, ctx.graph, use_memory)
            node_q = ad.gather_rows(node, ctx.queries)
            return _env_losses_t(lv, ctx, node_q, masks, noise[ctx.queries], use_memory)

        def reference(lv):
            return per_env_route_losses_t(lv, ctx, masks, noise, use_memory)

        runs = []
        for build in (shared, reference):
            lv = ad.leaves(model.params)
            env = build(lv)
            total = _combine_env_losses_t(env, 0.8)
            total.backward()
            runs.append(([float(v) for v in env.value], float(total.value), ad.grads(lv)))
        (env_s, total_s, grads_s), (env_r, total_r, grads_r) = runs
        assert env_s == pytest.approx(env_r, rel=1e-12)
        assert total_s == pytest.approx(total_r, rel=1e-12)
        for name, g_r in grads_r.items():
            err = np.abs(grads_s[name] - g_r).max()
            assert err <= 1e-12 * np.abs(g_r).max(), name


class TestRouterGradients:
    def test_invariant_loss_fd(self, setup):
        cfg, b, ctx, model = setup
        masks, noise = invariant_env_draws(ctx, 3, 0.3, 12)

        def build(lv):
            node, _ = node_branch_t(lv, ctx.xtilde, ctx.graph, True)
            node_q = ad.gather_rows(node, ctx.queries)
            env = _env_losses_t(lv, ctx, node_q, masks, noise[ctx.queries], True)
            return _combine_env_losses_t(env, 0.8)

        loss_fn, grad_fn, vec = fd_adapters(build, model.params)
        assert finite_diff_check(loss_fn, grad_fn, vec).max_rel_err < 1e-4

    def test_kl_loss_fd(self, setup):
        cfg, b, ctx, model = setup

        def build(lv):
            out = route_t(lv, ctx.xtilde, ctx.graph, ctx.hr, None, True)
            return kl_router_loss_t(ctx.q_matrix, ad.gather_rows(out["G"], ctx.queries))

        loss_fn, grad_fn, vec = fd_adapters(build, model.params)
        assert finite_diff_check(loss_fn, grad_fn, vec).max_rel_err < 1e-4

    def test_balance_loss_fd(self, setup):
        cfg, b, ctx, model = setup

        def build(lv):
            out = route_t(lv, ctx.xtilde, ctx.graph, ctx.hr, None, True)
            return balance_loss_t(
                ad.gather_rows(out["P"], ctx.queries),
                ad.gather_rows(out["G"], ctx.queries),
            )

        loss_fn, grad_fn, vec = fd_adapters(build, model.params)
        assert finite_diff_check(loss_fn, grad_fn, vec).max_rel_err < 1e-4


class TestTraining:
    def test_warmup_concentrates_on_always_correct_expert(self, setup):
        cfg, b, ctx, _ = setup
        model = init_router(cfg.d, ctx.hr.shape[1], cfg.d_m, cfg.n_memory, 4, seed=13)
        forced = RoutingContext.__new__(RoutingContext)
        forced.__dict__.update(ctx.__dict__)
        forced.q_matrix = np.zeros_like(ctx.q_matrix)
        forced.q_matrix[:, 0] = 1
        toy_cfg = tiny_cfg(lr=0.05, warmup_epochs=300)
        train_router(model, [forced], toy_cfg, "warmup", seed=14)
        out = route(model, b.xtilde, b.graph, ctx.hr)
        assert out.weights[forced.queries, 0].mean() > 0.9

    def test_main_phase_runs_and_is_finite(self, setup):
        cfg, b, ctx, _ = setup
        model = init_router(cfg.d, ctx.hr.shape[1], cfg.d_m, cfg.n_memory, 4, seed=15)
        trace = train_router(model, [ctx], tiny_cfg(lr=1e-3), "main", seed=16)
        assert len(trace) == 2
        assert all(np.isfinite(v) for v in trace)

    @pytest.mark.parametrize("use_memory", [True, False])
    def test_main_phase_matches_per_environment_reference(self, setup, pretrained,
                                                         use_memory):
        cfg, b, ctx, _ = setup
        other = prepare_graph(
            gen_synthetic(20, 5, 0.15, structure_seed=4, planted_kind="mixed"), cfg.d
        )
        contexts = [ctx, build_contexts([other], pretrained[2], cfg)[0]]
        main_cfg = tiny_cfg(lr=0.05, router_epochs=2, n_envs=4)

        def trained(train):
            model = init_router(cfg.d, ctx.hr.shape[1], cfg.d_m, cfg.n_memory, 4,
                                seed=26, use_memory=use_memory)
            return train(model), model.params

        trace, params = trained(
            lambda m: train_router(m, contexts, main_cfg, "main", seed=27))
        trace_ref, params_ref = trained(
            lambda m: reference_train_main(m, contexts, main_cfg, seed=27))
        assert trace == pytest.approx(trace_ref, rel=1e-12)
        for name, p_ref in params_ref.items():
            err = np.abs(params[name] - p_ref).max()
            assert err <= 1e-12 * np.abs(p_ref).max(), name

    def test_memory_persists_across_resize(self, setup):
        cfg, b, ctx, _ = setup
        model = init_router(cfg.d, 23, cfg.d_m, cfg.n_memory, 4, seed=17)
        before = {k: v.tobytes() for k, v in model.params.items()}
        resize_router(model, 30, seed=18)
        assert model.params["proj_w"].shape == (30, cfg.d_m)
        assert model.params["noise_w"].shape == (30, 4)
        for k in ("mem_node", "mem_feat", "scale", "gnn_w"):
            assert model.params[k].tobytes() == before[k]
        for k in ("proj_w", "noise_w"):
            assert model.params[k].tobytes() != before[k]


class TestRouterCheckpoint:
    def test_roundtrip(self, tmp_path, setup):
        cfg, b, ctx, model = setup
        names = ctx.names
        path = str(tmp_path / "router.bin")
        save_router(model, path, names)
        m2, names2 = load_router(path)
        assert names2 == names
        assert m2.dims == model.dims
        assert m2.use_memory == model.use_memory
        for k in model.params:
            assert np.array_equal(m2.params[k], model.params[k])

    def test_tensors_must_match_the_architecture(self, tmp_path, setup):
        cfg, b, ctx, model = setup
        path = str(tmp_path / "router.bin")
        broken = init_router(cfg.d, 3, cfg.d_m, cfg.n_memory, 4, seed=19)
        del broken.params["noise_w"]
        save_router(broken, path, ["a", "b", "c"])
        with pytest.raises(CheckpointError, match="do not match"):
            load_router(path)


def test_routing_frequency_normalized():
    rng = np.random.default_rng(5)
    w = rng.dirichlet(np.ones(4), size=30)
    f = routing_frequency(w)
    assert f.shape == (4,)
    assert f.sum() == pytest.approx(1.0)
