"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines stream.
The end-to-end and ablation criteria share one synthetic suite (two labeled
training graphs, two held-out test graphs from a shifted generator) and a
feature cache, since primitive features depend only on the graphs.
"""

import dataclasses
import json
import socket
import time
from contextlib import contextmanager

import numpy as np
import pytest

from evofg import autodiff as ad
from evofg.experts import (
    ARCHS,
    expert_training_loss_t,
    init_expert,
    propagate,
    sample_key_split,
)
from evofg.features import RouterFeatureTable, betweenness, closeness, pagerank
from evofg.graph import gen_synthetic
from evofg.numeric import auprc, auroc
from evofg.pipeline import (
    PipelineConfig,
    build_contexts,
    evolve,
    make_backend,
    prepare_graphs,
    pretrain_all_experts,
    run_pipeline,
    score_graph,
    warmup_router,
)
from evofg.router import propagate as router_propagate
from evofg.router import (
    RoutingContext,
    _combine_env_losses_t,
    _env_losses_t,
    balance_loss_t,
    fold_t,
    freeze_node_branch,
    init_router,
    kl_router_loss_t,
    node_branch_t,
    route,
    routing_utility,
    train_router,
)
from evofg.shapley import estimate_contributions
from helpers import (
    acceptance_suite,
    brute_force_auprc,
    brute_force_auroc,
    brute_force_betweenness,
    brute_force_closeness,
    cycle_graph,
    fd_adapters,
    finite_diff_check,
    invariant_env_draws,
    invariant_loss,
    mean_marginal_oracle,
    random_graph,
    route_noisy,
    route_t,
    standardized_all,
    tape_route_t,
    toy_names,
)


@contextmanager
def criterion(num, desc):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"\n[FAIL] criterion {num:02d}: {desc}")
        raise
    print(f"\n[PASS] criterion {num:02d}: {desc} ({time.time() - start:.1f}s)")


@pytest.fixture(scope="module")
def suite():
    """The shared synthetic zero-shot suite and its feature cache."""
    train, test = acceptance_suite()
    return train, test, {}


def test_c01_shapley_oracle_agreement():
    with criterion(1, "sampled contributions match the binomial-subset oracle"):
        start = time.time()
        rng = np.random.default_rng(1)
        feats = [f"f{i}" for i in range(8)]
        hits = 0
        total = 0
        for _ in range(30):
            values = {}
            base = rng.normal(size=256)

            def util(s, values=values, base=base):
                key = frozenset(s)
                if key not in values:
                    idx = sum(1 << feats.index(f) for f in key)
                    values[key] = float(base[idx]) + 0.25 * len(key)
                return values[key]

            oracle = mean_marginal_oracle(feats, util)
            stats = estimate_contributions(feats, util, 2000, seed=int(rng.integers(2**31)))
            within = np.abs(stats.mean - oracle) <= 3.0 * np.maximum(stats.std_err, 1e-12)
            hits += int(within.sum())
            total += len(feats)
        assert hits / total >= 0.95, f"only {hits}/{total} features within 3 SE"

        for trial in range(5):
            w = {f: float(v) for f, v in zip(feats, rng.normal(size=8))}
            stats = estimate_contributions(
                feats, lambda s, w=w: sum(w[f] for f in s), 50, seed=trial
            )
            assert np.allclose(stats.mean, [w[f] for f in feats])
            assert np.allclose(stats.std, 0.0)
        assert time.time() - start < 30.0


def test_c02_marginal_estimation_cost():
    with criterion(2, "utility evaluations equal T*(|F|+2) for |F| in {8,23,40}"):
        for n_features in (8, 23, 40):
            feats = [f"c{i}" for i in range(n_features)]
            for iters in (1, 5, 20):
                stats = estimate_contributions(
                    feats, lambda s: 0.01 * len(s) ** 2, iters, seed=n_features
                )
                assert stats.eval_count == iters * (n_features + 2)


def test_c03_gradient_checks():
    with criterion(3, "every trainable loss passes the central-difference check"):
        start = time.time()
        tol = 1e-4

        rng = np.random.default_rng(28)
        g = random_graph(rng, 11, p=0.35, d=4, with_labels=True)
        keys, queries = sample_key_split(g.labels, 0.2, rng)
        for arch in ARCHS:
            m = init_expert(arch, 4, 5, 4, seed=29)
            if arch == "ATTENTION":
                r2 = np.random.default_rng(30)
                m.params["att_self"] = 0.3 * r2.normal(size=5)
                m.params["att_nbr"] = 0.3 * r2.normal(size=5)

            def build(lv, arch=arch, inputs=propagate(arch, g.features, g)):
                return expert_training_loss_t(arch, lv, inputs, g, keys, queries, 4)

            rep = finite_diff_check(*fd_adapters(build, m.params))
            assert rep.max_rel_err < tol, f"{arch}: {rep.max_rel_err}"

        cfg = PipelineConfig(
            d=4, d_e=5, d_prime=4, d_m=6, n_memory=4,
            expert_epochs=(2, 2, 2, 2), key_fraction=0.2,
        )
        rg = gen_synthetic(24, 6, 0.15, structure_seed=3, planted_kind="mixed")
        bundle = prepare_graphs([rg], cfg.d, None)[0]
        experts = pretrain_all_experts([bundle], cfg)
        ctx = build_contexts([bundle], experts, cfg)[0]
        model = init_router(cfg.d, ctx.table.names, cfg.d_m, cfg.n_memory, 4, seed=5)

        def build_kl(lv):
            logits = route_t(lv, ctx.xtilde, ctx.graph, standardized_all(ctx), None, True)
            return kl_router_loss_t(ctx.kl_targets, ad.gather_rows(logits, ctx.queries))

        rep = finite_diff_check(*fd_adapters(build_kl, model.params))
        assert rep.max_rel_err < tol, f"kl: {rep.max_rel_err}"

        masks, noise = invariant_env_draws(model, ctx, 3, 0.3, 12)

        def build_inv(lv):
            node = node_branch_t(lv, ctx.sx, True)
            folded = fold_t(lv, ad.gather_rows(node, ctx.queries), True)
            env = _env_losses_t(lv, ctx, standardized_all(ctx)[ctx.queries], folded, masks,
                                 noise[ctx.queries])
            return _combine_env_losses_t(env, 0.8)

        rep = finite_diff_check(*fd_adapters(build_inv, model.params))
        assert rep.max_rel_err < tol, f"invariant: {rep.max_rel_err}"

        def build_bal(lv):
            logits = route_t(lv, ctx.xtilde, ctx.graph, standardized_all(ctx), None, True)
            return balance_loss_t(
                ad.gather_rows(ad.row_softmax(logits), ctx.queries),
                ad.gather_rows(logits, ctx.queries),
            )

        rep = finite_diff_check(*fd_adapters(build_bal, model.params))
        assert rep.max_rel_err < tol, f"balance: {rep.max_rel_err}"

        assert time.time() - start < 60.0


def test_c04_centrality_oracles():
    with criterion(4, "centralities match brute-force all-pairs oracles"):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(5, 61))
            g = random_graph(rng, n, p=float(rng.uniform(0.05, 0.4)))
            assert np.abs(betweenness(g) - brute_force_betweenness(g)).max() < 1e-9
            assert np.abs(closeness(g) - brute_force_closeness(g)).max() < 1e-9
            assert abs(pagerank(g).sum() - 1.0) < 1e-9
        for n in (3, 8, 31):
            assert np.abs(pagerank(cycle_graph(n)) - 1.0 / n).max() < 1e-9


def test_c05_metric_oracles():
    with criterion(5, "AUROC/AUPRC match brute-force enumeration to 1e-12"):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 100:
            n = int(rng.integers(4, 201))
            base = rng.choice([0.1, 0.3, 0.5, 0.7], size=n)
            jitter = rng.normal(0, 0.05, n) * rng.integers(0, 2, n)
            scores = base + jitter
            labels = np.zeros(n, dtype=int)
            labels[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 1
            if labels.min() == labels.max():
                continue
            assert abs(auroc(scores, labels) - brute_force_auroc(scores, labels)) < 1e-12
            assert abs(auprc(scores, labels) - brute_force_auprc(scores, labels)) < 1e-12
            checked += 1


def test_c06_routing_invariants():
    with criterion(6, "10,000 randomized route calls produce probability rows"):
        rng = np.random.default_rng(6)
        graphs = [random_graph(rng, int(rng.integers(4, 14)), p=0.4, d=3)
                  for _ in range(8)]
        models = [
            init_router(3, toy_names(7), 5, 3, 4, seed=s, use_memory=bool(s % 2))
            for s in range(8)
        ]
        for i in range(10_000):
            g = graphs[i % len(graphs)]
            model = models[(i * 7) % len(models)]
            hr = rng.normal(size=(g.num_nodes, 7)) * rng.choice([1e-3, 1.0, 50.0])
            train_mode = bool(i % 3 == 0)
            out = route_noisy(model, g.features, g, hr, train_mode=train_mode, rng=rng)
            assert np.abs(out.weights.sum(axis=1) - 1.0).max() < 1e-9
            assert (out.weights >= 0.0).all()
        g, model = graphs[0], models[0]
        hr = rng.normal(size=(g.num_nodes, 7))
        for noisy_model in models[:2]:  # without and with memory
            noisy = route_noisy(noisy_model, g.features, g, hr, train_mode=True,
                                rng=np.random.default_rng(60))
            noise = np.random.default_rng(60).standard_normal((g.num_nodes, 4))
            oracle = tape_route_t(ad.leaves(noisy_model.params), g.features, g, hr, noise,
                                  noisy_model.use_memory).value
            assert np.abs(noisy.logits - oracle).max() <= 1e-12 * np.abs(oracle).max()
        o1 = route(model, g.features, g, hr)
        o2 = route(model, g.features, g, hr)
        assert np.array_equal(o1.weights, o2.weights)
        row_shift = rng.normal(size=(g.num_nodes, 1)) * 10.0
        shifted = o1.logits + row_shift
        ex = np.exp(shifted - shifted.max(axis=1, keepdims=True))
        assert np.allclose(ex / ex.sum(axis=1, keepdims=True), o1.weights, atol=1e-12)


def test_c07_invariant_learning_degeneracy():
    with criterion(7, "identical environments give zero variance, exactly"):
        cfg = PipelineConfig(
            d=4, d_e=5, d_prime=4, d_m=6, n_memory=4,
            expert_epochs=(1, 1, 1, 1), key_fraction=0.2,
        )
        g = gen_synthetic(26, 6, 0.15, structure_seed=7, planted_kind="mixed")
        bundle = prepare_graphs([g], cfg.d, None)[0]
        experts = pretrain_all_experts([bundle], cfg)
        ctx = build_contexts([bundle], experts, cfg)[0]
        model = init_router(cfg.d, ctx.table.names, cfg.d_m, cfg.n_memory, 4, seed=8)
        for n_envs in (2, 5, 20):
            val, trace = invariant_loss(
                model, ctx, n_envs, lam=0.8, mask_rate=0.0, seed=9
            )
            assert len(set(trace)) == 1
            assert val == trace[0]  # mean + 0.8 * 0, bit-exact


def test_c08_planted_feature_utility_monotonicity():
    with criterion(8, "adding the planted correct-expert column never hurts v(S)"):
        rng = np.random.default_rng(10)
        g = random_graph(rng, 60, p=0.15, d=4)
        n = g.num_nodes
        correct = rng.integers(0, 4, size=n)
        q = np.zeros((n, 4))
        q[np.arange(n), correct] = 1.0

        names = [f"noise{i}" for i in range(8)] + ["planted"]
        hr = np.column_stack([rng.normal(size=(n, 8)), (correct - 1.5) / 1.5])

        ctx = RoutingContext.__new__(RoutingContext)
        ctx.graph = g
        ctx.xtilde = g.features
        ctx.sx = router_propagate(g.features, g)
        ctx.table = RouterFeatureTable(hr, names, ["Topology"] * len(names))
        ctx.keys = np.array([], dtype=np.int64)
        ctx.queries = np.arange(n)
        ctx.q_matrix = q

        model = init_router(4, names, 8, 6, 4, seed=11)
        warm_cfg = PipelineConfig(
            d=4, d_m=8, n_memory=6, lr=0.05, warmup_epochs=300
        )
        train_router(model, [ctx], warm_cfg, "warmup", seed=12)

        noise_names = names[:-1]
        frozen = freeze_node_branch(model, [ctx])
        good = 0
        for _ in range(50):
            subset = frozenset(
                f for f in noise_names if rng.random() < 0.5
            )
            v_without = routing_utility(model, subset, frozen)
            v_with = routing_utility(model, subset | {"planted"}, frozen)
            good += int(v_with >= v_without)
        assert good >= 48, f"monotonicity held for only {good}/50 subsets"


def test_c09_end_to_end_zero_shot(suite):
    with criterion(9, "synthetic zero-shot: mean AUROC >= 0.75 and soft routing "
                      "does no harm vs the best frozen expert"):
        start = time.time()
        train, test, cache = suite
        cfg = PipelineConfig(seed=0)
        assert cfg.rounds == 3 and not cfg.llm.enabled
        artifacts = run_pipeline(cfg, train, prepared_cache=cache)
        moe_aurocs = []
        for g in test:
            scores, routing, per_expert = score_graph(artifacts, g, prepared_cache=cache)
            moe = auroc(scores, g.labels)
            best = max(auroc(s, g.labels) for s in per_expert.values())
            moe_aurocs.append(moe)
            assert moe >= best - 0.02, f"{g.name}: moe {moe:.4f} < best {best:.4f} - 0.02"
        mean_auroc = float(np.mean(moe_aurocs))
        assert mean_auroc >= 0.75, f"mean AUROC {mean_auroc:.4f}"
        elapsed = time.time() - start
        assert elapsed < 600.0, f"end-to-end run took {elapsed:.0f}s"
        print(f"  mean AUROC {mean_auroc:.4f}, runtime {elapsed:.0f}s", end="")


def _fractional_mean_ranks(aurocs_by_variant):
    names = list(aurocs_by_variant)
    n_graphs = len(next(iter(aurocs_by_variant.values())))
    totals = {n: 0.0 for n in names}
    for gi in range(n_graphs):
        vals = np.array([aurocs_by_variant[n][gi] for n in names])
        order = (-vals).argsort(kind="stable")
        sorted_vals = vals[order]
        i = 0
        while i < len(names):
            j = i
            while j + 1 < len(names) and sorted_vals[j + 1] == sorted_vals[i]:
                j += 1
            for k in order[i : j + 1]:
                totals[names[k]] += 0.5 * (i + j) + 1.0
            i = j + 1
    return {n: t / n_graphs for n, t in totals.items()}


def test_c10_ablation_harness(suite):
    with criterion(10, "each ablation toggles one mechanism; the full model's "
                       "mean rank is never beaten in >=2 of 3 seeds"):
        train, test, cache = suite
        # the default step size cannot express mechanism differences in a
        # desk-scale run, so the harness trains at a workable rate; every
        # other hyperparameter keeps its default
        harness_lr = 3e-3

        def variants(seed):
            base = PipelineConfig(seed=seed, lr=harness_lr)
            return {
                "full": base,
                "no_select": dataclasses.replace(base, no_select=True),
                "random_backend": dataclasses.replace(base, random_backend=True),
                "no_memory": dataclasses.replace(base, no_memory=True),
                "lambda0": dataclasses.replace(base, lam=0.0),
            }

        # structural check: each toggle differs from full in exactly one field
        base_dict = variants(0)["full"].to_dict()
        for vname, cfg in variants(0).items():
            if vname == "full":
                continue
            diff = [
                k for k, v in cfg.to_dict().items() if v != base_dict[k]
            ]
            assert len(diff) == 1, f"{vname} changed {diff}"
        assert not variants(0)["no_memory"].no_select
        from evofg.dsl import DeterministicBackend
        assert isinstance(make_backend(variants(0)["random_backend"]),
                          DeterministicBackend)

        beaten = {v: 0 for v in ("no_select", "random_backend", "no_memory", "lambda0")}
        for seed in (0, 1, 2):
            cfgs = variants(seed)
            # the variants share everything before the warm-up: the experts
            # and the routing contexts depend on neither toggle
            bundles = prepare_graphs(train, cfgs["full"].d, cache)
            experts = pretrain_all_experts(bundles, cfgs["full"])
            contexts = build_contexts(bundles, experts, cfgs["full"])
            aurocs = {}
            for vname, cfg in cfgs.items():
                router = warmup_router(contexts, cfg)
                art = evolve(router, contexts, experts, cfg)
                aurocs[vname] = [
                    auroc(score_graph(art, g, prepared_cache=cache)[0], g.labels)
                    for g in test
                ]
            ranks = _fractional_mean_ranks(aurocs)
            for v in beaten:
                if ranks["full"] <= ranks[v] + 1e-12:
                    beaten[v] += 1
            print(f"  seed {seed} mean ranks: "
                  + " ".join(f"{n}={ranks[n]:.2f}" for n in ranks))
        for v, count in beaten.items():
            assert count >= 2, f"full model beaten by {v} in {3 - count} of 3 seeds"


def test_c11_llm_client_fixture_coverage(tmp_path, caplog):
    with criterion(11, "chat-backend failures always fall back and the "
                       "pipeline completes offline"):
        responses = [
            # valid decision
            '{"category":"PageRank","features":["PR_t","PR_ego_mean"],'
            '"operator":"BINARY_DIV","rationale":"local versus ego"}',
            # arity violation
            '{"category":"Similarity","features":["Sim_1hop","Sim_2hop"],'
            '"operator":"MULTI_MEAN","rationale":"bad arity"}',
            # unknown column
            '{"category":"PageRank","features":["PR_magic"],'
            '"operator":"LOG1P","rationale":"hallucinated"}',
            # malformed JSON
            "Sure! The best feature would be...",
        ]
        for i, content in enumerate(responses):
            (tmp_path / f"fix_{i:02d}.json").write_text(
                json.dumps({"choices": [{"message": {"content": content}}]})
            )

        train = [
            gen_synthetic(36, 8, 0.12, structure_seed=21,
                          planted_kind="mixed", name="llm_train"),
        ]
        cfg = PipelineConfig(
            d=5, d_e=6, d_prime=5, d_m=6, n_memory=4,
            expert_epochs=(1, 1, 1, 1), warmup_epochs=1, router_epochs=1,
            shapley_iters=2, n_envs=2, gen_per_round=5, rounds=1,
            key_fraction=0.2, seed=13,
            llm={"enabled": True, "fixtures_dir": str(tmp_path)},
        )

        real_socket = socket.socket

        def no_network(*a, **kw):
            raise AssertionError("network access attempted during tests")

        socket.socket = no_network
        try:
            import logging

            with caplog.at_level(logging.WARNING):
                artifacts = run_pipeline(cfg, train)
        finally:
            socket.socket = real_socket

        generated = [p for p in artifacts.provenance if p != "primitive"]
        assert len(generated) == 5  # pipeline completed every slot
        assert generated[0].name == "BINARY_DIV(PR_t,PR_ego_mean)"
        messages = [r.message for r in caplog.records]
        assert any("invalid decision" in m for m in messages)
        assert any("falling back" in m for m in messages)
