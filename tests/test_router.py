import copy
import dataclasses

import numpy as np
import pytest

from evofg import autodiff as ad
from evofg import router
from evofg.experts import ARCHS, glorot, pretrain_expert
from evofg.pipeline import PipelineConfig, build_contexts, prepare_graph
from evofg.router import (
    RoutingContext,
    _combine_env_losses_t,
    aggregate,
    _kl_targets,
    balance_loss_t,
    fold_t,
    freeze_node_branch,
    init_router,
    kl_router_loss_t,
    load_router,
    node_branch_t,
    normalize_targets,
    propagate,
    resize_router,
    route,
    routing_frequency,
    routing_utility,
    save_router,
    train_router,
    _env_losses_t,
)
from evofg.checkpoint import CheckpointError
from evofg.features import RouterFeatureTable
from evofg.graph import gen_synthetic
from helpers import (
    balance_loss,
    counting,
    degenerate_graphs,
    fd_adapters,
    finite_diff_check,
    full_forward_utility,
    invariant_env_draws,
    invariant_loss,
    kl_router_loss,
    mix_rows,
    per_env_route_losses_t,
    reference_fit,
    reference_train_main,
    random_graph,
    route_noisy,
    route_t,
    stack_scalars,
    standardized_all,
    suite_contexts,
    tape_route_t,
    traced,
    tape_routing_utility,
    toy_names,
    unfolded_node_branch_t,
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
    model = init_router(cfg.d, ctx.table.names, cfg.d_m, cfg.n_memory, 4, seed=5)
    return cfg, bundle, ctx, model


class TestRoute:
    def test_rows_are_probability_vectors(self, setup):
        cfg, b, ctx, model = setup
        out = route(model, b.xtilde, b.graph, standardized_all(ctx))
        assert np.abs(out.weights.sum(axis=1) - 1.0).max() < 1e-9
        assert (out.weights >= 0).all()

    def test_deterministic_mode_idempotent(self, setup):
        cfg, b, ctx, model = setup
        o1 = route(model, b.xtilde, b.graph, standardized_all(ctx))
        o2 = route(model, b.xtilde, b.graph, standardized_all(ctx))
        assert np.array_equal(o1.weights, o2.weights)
        assert np.array_equal(o1.logits, o2.logits)

    def test_train_mode_adds_noise(self, setup):
        cfg, b, ctx, model = setup
        o1 = route_noisy(model, b.xtilde, b.graph, standardized_all(ctx), train_mode=True,
                         rng=np.random.default_rng(0))
        o2 = route_noisy(model, b.xtilde, b.graph, standardized_all(ctx), train_mode=True,
                         rng=np.random.default_rng(1))
        assert not np.array_equal(o1.logits, o2.logits)

    def test_train_mode_needs_an_rng(self, setup):
        cfg, b, ctx, model = setup
        with pytest.raises(ValueError, match="rng"):
            route_noisy(model, b.xtilde, b.graph, standardized_all(ctx), train_mode=True)

    def test_identical_scale_vectors_give_uniform_weights(self, setup):
        cfg, b, ctx, _ = setup
        model = init_router(cfg.d, ctx.table.names, cfg.d_m, cfg.n_memory, 4, seed=6)
        model.params["scale"][:] = model.params["scale"][0]
        out = route(model, b.xtilde, b.graph, standardized_all(ctx))
        assert np.abs(out.weights - 0.25).max() < 1e-12

    def test_single_memory_slot_gives_node_constant_logits(self, setup):
        cfg, b, ctx, _ = setup
        model = init_router(cfg.d, ctx.table.names, cfg.d_m, 1, 4, seed=7)
        out = route(model, b.xtilde, b.graph, standardized_all(ctx))
        assert np.abs(out.logits - out.logits[0]).max() < 1e-12

    def test_softmax_shift_invariance_of_weights(self, setup):
        cfg, b, ctx, model = setup
        out = route(model, b.xtilde, b.graph, standardized_all(ctx))
        row_shift = np.random.default_rng(0).normal(size=(out.logits.shape[0], 1))
        shifted = out.logits + 5.0 * row_shift
        ex = np.exp(shifted - shifted.max(axis=1, keepdims=True))
        assert np.allclose(ex / ex.sum(axis=1, keepdims=True), out.weights)

    def test_width_mismatch_rejected(self, setup):
        cfg, b, ctx, model = setup
        with pytest.raises(ValueError, match="width"):
            route(model, b.xtilde, b.graph, standardized_all(ctx)[:, :5])

    def test_mask_zeroes_columns_at_fixed_width(self, setup):
        cfg, b, ctx, model = setup
        hr = standardized_all(ctx)
        mask = np.zeros(hr.shape[1])
        out = route_noisy(model, b.xtilde, b.graph, hr, mask=mask)
        manual = route(model, b.xtilde, b.graph, np.zeros_like(hr))
        assert np.array_equal(out.logits, manual.logits)

    @pytest.mark.parametrize("use_memory", [True, False])
    def test_route_is_the_training_forward(self, setup, monkeypatch, use_memory):
        """``route`` runs the training forward: it calls the node branch, the
        fold and the feature branch once each (``freeze_node_branch`` the
        first two), its logits are those of the folded tape forward bit for
        bit, and they agree with the unfolded chain to rel 1e-12."""
        cfg, b, ctx, _ = setup
        model = init_router(cfg.d, ctx.table.names, cfg.d_m, cfg.n_memory, 4, seed=9,
                            use_memory=use_memory)
        model.params["proj_b"] = np.random.default_rng(9).normal(size=cfg.d_m)
        lv = ad.leaves(model.params)
        hr = standardized_all(ctx)
        folded = route_t(lv, b.xtilde, b.graph, hr, None, use_memory)
        unfolded = tape_route_t(lv, b.xtilde, b.graph, hr, None, use_memory)
        calls = []
        for name in ("node_branch_t", "fold_t", "feature_branch_t"):
            monkeypatch.setattr(router, name, counting(calls, name, getattr(router, name)))
        out = route(model, b.xtilde, b.graph, hr)
        assert calls == ["node_branch_t", "fold_t", "feature_branch_t"]
        calls.clear()
        freeze_node_branch(model, [ctx])
        assert calls == ["node_branch_t", "fold_t"]
        for ref in (folded, unfolded):
            scale = np.abs(ref.value).max()
            assert np.abs(out.logits - ref.value).max() <= 1e-12 * scale
            assert np.abs(out.weights - ad.row_softmax(ref).value).max() <= 1e-12
        assert np.array_equal(out.logits, folded.value)

    @pytest.mark.parametrize("use_memory", [True, False])
    @pytest.mark.parametrize("case", ["random", "isolated_nodes", "edgeless"])
    def test_node_branch_matches_the_unfolded_branch(self, use_memory, case):
        """The node branch on the propagated features gives the values and
        the gradients of the branch that propagates after ``gnn_w``, to rel
        1e-12."""
        rng = np.random.default_rng(33)
        graphs = dict(degenerate_graphs(seed=33, d=6), random=random_graph(rng, 30, p=0.15, d=6))
        g = graphs[case]
        model = init_router(6, toy_names(7), 5, 3, 4, seed=34, use_memory=use_memory)
        upstream = rng.normal(size=(g.num_nodes, 5))
        runs = []
        for forward in (lambda lv: node_branch_t(lv, propagate(g.features, g), use_memory),
                        lambda lv: unfolded_node_branch_t(lv, g.features, g, use_memory)):
            lv = ad.leaves(model.params)
            node = forward(lv)
            ad.tsum(ad.mul(node, upstream)).backward()
            runs.append((node.value, ad.grads(lv)))
        (node, grads), (node_ref, grads_ref) = runs
        assert np.abs(node - node_ref).max() <= 1e-12 * np.abs(node_ref).max()
        for name, g_ref in grads_ref.items():
            assert np.abs(grads[name] - g_ref).max() <= 1e-12 * np.abs(g_ref).max(), name

    def test_no_memory_router_skips_retrieval(self, setup):
        cfg, b, ctx, _ = setup
        model = init_router(
            cfg.d, ctx.table.names, cfg.d_m, cfg.n_memory, 4, seed=8, use_memory=False
        )
        out = route(model, b.xtilde, b.graph, standardized_all(ctx))
        assert np.abs(out.weights.sum(axis=1) - 1.0).max() < 1e-9
        model.params["mem_node"] += 1.0
        model.params["mem_feat"] += 1.0
        again = route(model, b.xtilde, b.graph, standardized_all(ctx))
        assert again.logits.tobytes() == out.logits.tobytes()


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
        v = routing_utility(model, frozenset(ctx.table.names), freeze_node_branch(model, [ctx]))
        out = route(model, b.xtilde, b.graph, standardized_all(ctx))
        direct = -kl_router_loss(ctx.q_matrix, out.logits[ctx.queries])
        assert v == pytest.approx(direct, abs=1e-12)

    def test_empty_subset_finite(self, setup):
        cfg, b, ctx, model = setup
        v = routing_utility(model, frozenset(), freeze_node_branch(model, [ctx]))
        assert np.isfinite(v)

    def test_utility_is_pure(self, setup):
        cfg, b, ctx, model = setup
        s = frozenset(ctx.table.names[:7])
        frozen = freeze_node_branch(model, [ctx])
        assert routing_utility(model, s, frozen) == routing_utility(model, s, frozen)

    def test_freezing_a_context_on_other_columns_is_refused(self, setup):
        """A router whose names the context's table lacks is refused, and the
        error names the column."""
        cfg, b, ctx, _ = setup
        names = ctx.table.names[:-1] + ["ghost"]
        other = init_router(cfg.d, names, cfg.d_m, cfg.n_memory, 4, seed=5)
        with pytest.raises(ValueError, match="'ghost'"):
            freeze_node_branch(other, [ctx])

    def test_a_router_routes_the_table_in_its_own_order(self, setup):
        """A router whose names are the table's columns in another order
        routes them in its order: its utility is that of the same router on
        a table whose columns stand in that order."""
        cfg, b, ctx, _ = setup
        names = ctx.table.names[::-1]
        model = init_router(cfg.d, names, cfg.d_m, cfg.n_memory, 4, seed=5)
        order = [ctx.table.names.index(n) for n in names]
        reordered = ctx.with_features(RouterFeatureTable(
            ctx.table.matrix[:, order], names,
            [ctx.table.categories[i] for i in order]))
        rng = np.random.default_rng(6)
        subsets = [frozenset(names)] + [frozenset(n for n in names if rng.random() < 0.5)
                                        for _ in range(5)]
        frozen, frozen_ref = (freeze_node_branch(model, [c]) for c in (ctx, reordered))
        for s in subsets:
            assert routing_utility(model, s, frozen) == routing_utility(model, s, frozen_ref)
        hr = ctx.table.standardized(names)
        assert hr.tobytes() == standardized_all(ctx)[:, order].tobytes()

    @pytest.mark.parametrize("use_memory", [True, False])
    def test_frozen_branch_matches_full_forward(self, setup, pretrained, use_memory):
        cfg, b, ctx, _ = setup
        experts = pretrained[2]
        model = init_router(cfg.d, ctx.table.names, cfg.d_m, cfg.n_memory, 4, seed=20,
                            use_memory=use_memory)
        other = prepare_graph(
            gen_synthetic(20, 5, 0.15, structure_seed=4, planted_kind="mixed"), cfg.d
        )
        ctx2 = build_contexts([other], experts, cfg)[0]
        frozen = freeze_node_branch(model, [ctx, ctx2])
        rng = np.random.default_rng(21)
        for _ in range(10):
            s = frozenset(n for n in ctx.table.names if rng.random() < 0.5)
            ref = full_forward_utility(model, s, [ctx, ctx2])
            assert routing_utility(model, s, frozen) == pytest.approx(ref, rel=1e-12)

    @pytest.fixture(scope="class")
    def two_contexts(self, setup, pretrained):
        """The setup's context and one of another graph with fewer queries."""
        cfg, _, ctx, _ = setup
        other = prepare_graph(
            gen_synthetic(20, 5, 0.15, structure_seed=4, planted_kind="mixed"), cfg.d
        )
        ctx2 = build_contexts([other], pretrained[2], cfg)[0]
        assert len(ctx2.queries) != len(ctx.queries) and ctx2.table.names == ctx.table.names
        return [ctx, ctx2]

    @staticmethod
    def biased_router(cfg, names, use_memory, seed):
        """A fresh router whose projection bias is not zero."""
        model = init_router(cfg.d, names, cfg.d_m, cfg.n_memory, 4, seed=seed,
                            use_memory=use_memory)
        model.params["proj_b"] = np.random.default_rng(seed).normal(size=cfg.d_m)
        return model

    @pytest.mark.parametrize("use_memory", [True, False])
    def test_matches_the_tape_oracle(self, setup, two_contexts, use_memory):
        cfg = setup[0]
        names = two_contexts[0].table.names
        model = self.biased_router(cfg, names, use_memory, seed=24)
        frozen = freeze_node_branch(model, two_contexts)
        rng = np.random.default_rng(25)
        subsets = [frozenset(), frozenset(names)] + [frozenset([n]) for n in names]
        subsets += [frozenset(n for n in names if rng.random() < 0.5) for _ in range(20)]
        for s in subsets:
            ref = tape_routing_utility(model, s, two_contexts)
            assert routing_utility(model, s, frozen) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("use_memory", [True, False])
    def test_a_column_of_zeros_on_every_context_adds_exactly_nothing(
            self, setup, two_contexts, use_memory):
        cfg = setup[0]
        names = two_contexts[0].table.names
        model = self.biased_router(cfg, names, use_memory, seed=26)
        j = 3
        zeroed = []
        for ctx in two_contexts:
            matrix = ctx.table.matrix.copy()
            matrix[:, j] = 0.0  # constant, so it standardizes to zeros
            zeroed.append(ctx.with_features(dataclasses.replace(ctx.table, matrix=matrix)))
        frozen = freeze_node_branch(model, zeroed)
        rng = np.random.default_rng(27)
        others = [n for n in names if n != names[j]]
        for _ in range(20):
            s = frozenset(n for n in others if rng.random() < 0.5)
            assert routing_utility(model, s | {names[j]}, frozen) == routing_utility(
                model, s, frozen)
            assert tape_routing_utility(model, s | {names[j]}, zeroed) == (
                tape_routing_utility(model, s, zeroed))

    def test_frozen_branch_goes_stale_when_the_router_trains(self, setup):
        cfg, b, ctx, _ = setup
        model = init_router(cfg.d, ctx.table.names, cfg.d_m, cfg.n_memory, 4, seed=22)
        s = frozenset(ctx.table.names[::2])
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
        model = init_router(cfg.d, ctx.table.names, cfg.d_m, cfg.n_memory, 4, seed=24,
                            use_memory=use_memory)
        masks, noise = invariant_env_draws(model, ctx, 5, 0.3, 25)

        def shared(lv):
            node = node_branch_t(lv, ctx.sx, use_memory)
            folded = fold_t(lv, ad.gather_rows(node, ctx.queries), use_memory)
            return _env_losses_t(lv, ctx, standardized_all(ctx)[ctx.queries], folded, masks,
                                 noise[ctx.queries])

        def reference(lv):
            return per_env_route_losses_t(lv, ctx, standardized_all(ctx), masks, noise, use_memory)

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
        masks, noise = invariant_env_draws(model, ctx, 3, 0.3, 12)

        def build(lv):
            node = node_branch_t(lv, ctx.sx, True)
            folded = fold_t(lv, ad.gather_rows(node, ctx.queries), True)
            env = _env_losses_t(lv, ctx, standardized_all(ctx)[ctx.queries], folded, masks,
                                 noise[ctx.queries])
            return _combine_env_losses_t(env, 0.8)

        loss_fn, grad_fn, vec = fd_adapters(build, model.params)
        assert finite_diff_check(loss_fn, grad_fn, vec).max_rel_err < 1e-4

    def test_kl_loss_fd(self, setup):
        cfg, b, ctx, model = setup

        def build(lv):
            logits = route_t(lv, ctx.xtilde, ctx.graph, standardized_all(ctx), None, True)
            return kl_router_loss_t(ctx.kl_targets, ad.gather_rows(logits, ctx.queries))

        loss_fn, grad_fn, vec = fd_adapters(build, model.params)
        assert finite_diff_check(loss_fn, grad_fn, vec).max_rel_err < 1e-4

    def test_balance_loss_fd(self, setup):
        cfg, b, ctx, model = setup

        def build(lv):
            logits = route_t(lv, ctx.xtilde, ctx.graph, standardized_all(ctx), None, True)
            return balance_loss_t(
                ad.gather_rows(ad.row_softmax(logits), ctx.queries),
                ad.gather_rows(logits, ctx.queries),
            )

        loss_fn, grad_fn, vec = fd_adapters(build, model.params)
        assert finite_diff_check(loss_fn, grad_fn, vec).max_rel_err < 1e-4


class TestTraining:
    def test_warmup_concentrates_on_always_correct_expert(self, setup):
        cfg, b, ctx, _ = setup
        model = init_router(cfg.d, ctx.table.names, cfg.d_m, cfg.n_memory, 4, seed=13)
        forced = RoutingContext.__new__(RoutingContext)
        forced.__dict__.update(ctx.__dict__)
        forced.q_matrix = np.zeros_like(ctx.q_matrix)
        forced.q_matrix[:, 0] = 1
        forced.kl_targets = _kl_targets(forced.q_matrix, 4)
        toy_cfg = tiny_cfg(lr=0.05, warmup_epochs=300)
        train_router(model, [forced], toy_cfg, "warmup", seed=14)
        out = route(model, b.xtilde, b.graph, standardized_all(ctx))
        assert out.weights[forced.queries, 0].mean() > 0.9

    def test_training_makes_no_sparse_product(self, setup, monkeypatch):
        """Warm-up and main phase read the context's propagated node
        features: neither propagates nor calls ``ad.spmm``."""
        cfg, b, ctx, _ = setup
        calls = []
        monkeypatch.setattr(ad, "spmm", counting(calls, "spmm", ad.spmm))
        monkeypatch.setattr(router, "propagate", counting(calls, "propagate", propagate))
        model = init_router(cfg.d, ctx.table.names, cfg.d_m, cfg.n_memory, 4, seed=35)
        for phase in ("warmup", "main"):
            assert len(train_router(model, [ctx], tiny_cfg(), phase, seed=36)) > 0
        assert calls == []

    def test_main_phase_runs_and_is_finite(self, setup):
        cfg, b, ctx, _ = setup
        model = init_router(cfg.d, ctx.table.names, cfg.d_m, cfg.n_memory, 4, seed=15)
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
            model = init_router(cfg.d, ctx.table.names, cfg.d_m, cfg.n_memory, 4,
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

    @pytest.mark.parametrize("n_graphs", [2, 3])
    def test_fit_trains_bit_for_bit_as_one_tape_per_epoch(self, monkeypatch, n_graphs):
        """``fit`` back-propagates each graph's loss on its own tape. The four
        experts, the warm-up and a main phase, trained on 2 and on 3 graphs,
        take the same gradients, parameters and loss traces, bit for bit, as
        through ``reference_fit``'s one tape per epoch under the mean. The
        lr is large enough that a last-bit gradient change would move the
        parameters too."""
        cfg = tiny_cfg(lr=1e-2)
        kinds = ("structural", "attribute", "mixed")
        bundles = [prepare_graph(gen_synthetic(24 + 4 * i, 6, 0.15, structure_seed=60 + i,
                                               planted_kind=kinds[i], name=f"g{i}"), cfg.d)
                   for i in range(n_graphs)]
        step = ad.AdamW.step

        def train(fit):
            monkeypatch.setattr(ad, "fit", fit)
            runs, grads = [], []

            def recording_step(opt, grad_dict):
                grads.append({k: g.tobytes() for k, g in grad_dict.items()})
                step(opt, grad_dict)

            monkeypatch.setattr(ad.AdamW, "step", recording_step)
            inputs = [(b.graph, b.xtilde) for b in bundles]
            experts = []
            for i, arch in enumerate(ARCHS):
                model, trace = pretrain_expert(arch, inputs, cfg, seed=i)
                experts.append(model)
                runs.append((model.params, trace))
            contexts = build_contexts(bundles, experts, cfg)
            model = init_router(cfg.d, contexts[0].table.names, cfg.d_m, cfg.n_memory, 4,
                                seed=61)
            for phase, seed in (("warmup", 62), ("main", 63)):
                trace = train_router(model, contexts, cfg, phase, seed)
                runs.append((copy.deepcopy(model.params), trace))
            return grads, [({k: v.tobytes() for k, v in params.items()},
                            np.array(trace).tobytes()) for params, trace in runs]

        grads, runs = train(ad.fit)
        assert (grads, runs) == train(reference_fit)
        epochs = sum(cfg.expert_epochs) + cfg.warmup_epochs + cfg.router_epochs
        assert len(grads) == epochs and len(runs) == 6

    @pytest.mark.parametrize("use_memory,bound", [(True, 77), (False, 69)])
    def test_a_main_phase_epoch_keeps_a_small_tape(self, setup, monkeypatch,
                                                    use_memory, bound):
        """One main-phase epoch on one context builds at most ``bound`` tape
        nodes that carry a gradient, whatever the number of environments:
        the K environments and the balance pass share one node branch and
        one readout table, and each op holds a whole array. A change that
        brings back a chain of small ops per environment or per memory fails
        here."""
        cfg, b, ctx, _ = setup
        sizes = []

        def one_epoch(params, epochs, graph_loss, graphs, lr, wd, what):
            lv, ws = ad.leaves(params), ad.Workspace()
            total = ad.tmean(stack_scalars([graph_loss(lv, ws, *args) for args in graphs]))
            sizes.append(len(ad._toposort(total)))
            return [float(total.value)]

        monkeypatch.setattr(ad, "fit", one_epoch)
        for n_envs in (3, 20):
            model = init_router(cfg.d, ctx.table.names, cfg.d_m, cfg.n_memory, 4, seed=31,
                                use_memory=use_memory)
            train_router(model, [ctx], tiny_cfg(n_envs=n_envs), "main", seed=32)
        assert sizes[0] == sizes[1] <= bound, sizes

    def test_memory_persists_across_resize(self, setup):
        cfg, b, ctx, _ = setup
        model = init_router(cfg.d, toy_names(23), cfg.d_m, cfg.n_memory, 4, seed=17)
        before = {k: v.tobytes() for k, v in model.params.items()}
        resize_router(model, [f"g{i}" for i in range(30)], seed=18)
        assert model.params["proj_w"].shape == (30, cfg.d_m)
        assert model.params["noise_w"].shape == (30, 4)
        for k in ("mem_node", "mem_feat", "scale", "gnn_w"):
            assert model.params[k].tobytes() == before[k]
        for k in ("proj_w", "noise_w"):
            assert model.params[k].tobytes() != before[k]

    @pytest.mark.parametrize("old,new", [
        ("abcde", "abcdefgh"),  # a round's candidates appended
        ("abcdefgh", "bdeg"),  # the retention rule's subset
        ("abc", "xcyaz"),  # survivors moved among new columns
    ])
    def test_resize_keeps_the_rows_of_surviving_columns(self, setup, old, new):
        cfg, *_ = setup
        model = init_router(cfg.d, list(old), cfg.d_m, cfg.n_memory, 4, seed=20)
        model.params["proj_b"] += 0.5  # as after training
        trained = {k: model.params[k].copy() for k in ("proj_w", "noise_w")}
        resize_router(model, list(new), seed=21)
        rng = np.random.default_rng(21)  # the draws of a resize, in order
        fresh = {"proj_w": glorot(rng, (len(new), cfg.d_m)),
                 "noise_w": glorot(rng, (len(new), 4))}
        for key, rows in fresh.items():
            for j, name in enumerate(new):
                want = trained[key][old.index(name)] if name in old else rows[j]
                assert model.params[key][j].tobytes() == want.tobytes(), (key, name)
        assert model.params["proj_b"].tobytes() == np.zeros(cfg.d_m).tobytes()

    def test_resize_moves_the_names_the_router_reads(self, tmp_path, setup):
        cfg, *_ = setup
        model = init_router(cfg.d, ["a", "b", "c"], cfg.d_m, cfg.n_memory, 4, seed=22)
        resize_router(model, ("c", "x"), seed=23)
        assert model.names == ["c", "x"] and model.dims[1] == 2
        path = str(tmp_path / "router.bin")
        save_router(model, path)
        assert load_router(path).names == ["c", "x"]

    def test_resize_to_the_same_names_changes_nothing(self, setup):
        cfg, *_ = setup
        model = init_router(cfg.d, ["a", "b", "c"], cfg.d_m, cfg.n_memory, 4, seed=22)
        model.params["proj_b"] += 0.5
        before = {k: v.tobytes() for k, v in model.params.items()}
        resize_router(model, ("a", "b", "c"), seed=23)
        assert {k: v.tobytes() for k, v in model.params.items()} == before


@pytest.fixture(scope="module")
def suite():
    """The acceptance suite's two training contexts at the default router
    sizes (K = 20 environments, 32 memories), with a warmed-up router."""
    cfg = PipelineConfig(expert_epochs=(1, 1, 1, 1), warmup_epochs=2, router_epochs=3)
    contexts = suite_contexts(cfg)
    model = init_router(cfg.d, contexts[0].table.names, cfg.d_m, cfg.n_memory, 4, seed=40)
    train_router(model, contexts, cfg, "warmup", seed=41)
    return cfg, contexts, model


class TestTrainingMemory:
    def test_main_phase_holds_one_epoch_of_tape(self, suite):
        """The main phase's traced peak is one graph's tape and its
        backward. Measured on this suite: 27.4 MB while ``fit`` kept the
        last epoch's tape alive through the next forward, 18.0 MB with one
        epoch's tape at a time and the workspace's one scratch buffer, 11.6
        MB with one graph's tape at a time."""
        cfg, contexts, model = suite
        model = copy.deepcopy(model)
        peak, _ = traced(lambda: train_router(model, contexts, cfg, "main", seed=42))
        assert peak < 22 * 2**20, peak / 2**20

    def test_main_phase_memory_does_not_grow_with_the_graphs(self, suite):
        """A main phase on two copies of a context peaks within 1.15 times
        one copy's traced peak: ``fit`` holds one graph's tape at a time.
        With every graph's tape built before one backward it read about 2
        times."""
        cfg, contexts, model = suite
        peaks = []
        for copies in (1, 2):
            trained = copy.deepcopy(model)
            peaks.append(traced(lambda: train_router(trained, contexts[:1] * copies, cfg,
                                                     "main", seed=47))[0])
        assert peaks[1] < 1.15 * peaks[0], [p / 2**20 for p in peaks]

    def test_key_softmax_backwards_write_into_the_fit_calls_scratch(self, setup, monkeypatch):
        """Every epoch of one ``fit`` call gets the same ``Workspace`` and each
        call its own; in the main phase each ``key_softmax`` backward (the
        node memory's N x M, the environments' (K * Nq) x M and the clean
        pass's Nq x M) takes its logit gradient from that workspace's
        scratch. Without it, the suite-train benchmark's training took about
        14% longer."""
        cfg, b, ctx, _ = setup
        fit, key_softmax = ad.fit, ad.key_softmax
        epochs, taken, backwards = [], [], []

        class Recording(ad.Workspace):
            def scratch(self, shape):
                taken.append((self, shape))
                return super().scratch(shape)

        def recording_fit(params, n, graph_loss, *args):
            epochs.append([])

            def loss(lv, ws, *graph):
                epochs[-1].append(ws)
                return graph_loss(lv, ws, *graph)

            return fit(params, n, loss, *args)

        def recording_key_softmax(a, keys, ws=None):
            out = key_softmax(a, keys, ws)
            bw = out._backward

            def recorded(g):
                start = len(taken)
                bw(g)
                backwards.append((ws, out.value.shape, taken[start:]))

            out._backward = recorded
            return out

        monkeypatch.setattr(ad, "Workspace", Recording)
        monkeypatch.setattr(ad, "fit", recording_fit)
        monkeypatch.setattr(ad, "key_softmax", recording_key_softmax)
        model = init_router(cfg.d, ctx.table.names, cfg.d_m, cfg.n_memory, 4, seed=33)
        k, n_q = 5, len(ctx.queries)
        for _ in range(2):
            train_router(model, [ctx], tiny_cfg(n_envs=k, router_epochs=3), "main", seed=34)
        assert [len(e) for e in epochs] == [3, 3]
        assert all(ws is e[0] for e in epochs for ws in e)
        assert epochs[0][0] is not epochs[1][0]
        m = cfg.n_memory
        shapes = [(ctx.graph.num_nodes, m), (k * n_q, m), (n_q, m)]
        assert sorted(shape for _, shape, _ in backwards) == sorted(shapes * 6)
        for ws, shape, scratch in backwards:
            assert ws in (epochs[0][0], epochs[1][0])
            assert scratch == [(ws, shape)], shape

    def test_training_leaves_nothing_behind(self, suite):
        """Once ``train_router`` returns, nothing it allocated is reachable:
        its workspace's buffer dies with the call. The router has a memory
        count no other test uses, so a buffer cache kept between calls would
        meet its shapes for the first time here and keep them."""
        cfg, contexts, _ = suite
        model = init_router(cfg.d, contexts[0].table.names, cfg.d_m, 29, 4, seed=43)
        for phase in ("warmup", "main"):
            peak, left = traced(lambda: train_router(model, contexts, cfg, phase, seed=44))
            assert peak > 2**20 and left < 64 * 2**10, (phase, left)

    def test_routing_keeps_nothing_between_calls(self, suite):
        """``route`` on a trained router leaves traced memory where it was,
        on graphs of sizes it has not routed before: no buffer outlives its
        call."""
        cfg, contexts, model = suite
        model = copy.deepcopy(model)
        train_router(model, contexts, cfg, "main", seed=45)
        rng = np.random.default_rng(46)

        def route_sizes(sizes):
            for n in sizes:
                g = random_graph(rng, n, p=0.1)
                route(model, rng.normal(size=(n, cfg.d)), g, rng.normal(size=(n, model.d_r)))

        route_sizes([31])  # fills any lazy import or cache
        _, left = traced(lambda: route_sizes([53, 87, 121, 149, 171]))
        assert left < 64 * 2**10, left


class TestRouterCheckpoint:
    def test_roundtrip(self, tmp_path, setup):
        cfg, b, ctx, model = setup
        names = ctx.table.names
        path = str(tmp_path / "router.bin")
        save_router(model, path)
        m2 = load_router(path)
        assert m2.names == names
        assert m2.dims == model.dims
        assert m2.use_memory == model.use_memory
        for k in model.params:
            assert np.array_equal(m2.params[k], model.params[k])

    def test_tensors_must_match_the_architecture(self, tmp_path, setup):
        cfg, b, ctx, model = setup
        path = str(tmp_path / "router.bin")
        broken = init_router(cfg.d, ["a", "b", "c"], cfg.d_m, cfg.n_memory, 4, seed=19)
        del broken.params["noise_w"]
        save_router(broken, path)
        with pytest.raises(CheckpointError, match="do not match"):
            load_router(path)


def test_routing_frequency_normalized():
    rng = np.random.default_rng(5)
    w = rng.dirichlet(np.ones(4), size=30)
    f = routing_frequency(w)
    assert f.shape == (4,)
    assert f.sum() == pytest.approx(1.0)
