import builtins
import dataclasses
import json
import os
import re
import shutil
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from evofg import autodiff as ad
from evofg import dsl, experts, features, pipeline, router
from evofg.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from evofg.cli import main as cli_main
from evofg.features import PRIMITIVE_NAMES, RouterFeatureTable
from evofg.graph import Graph, gen_synthetic, load_graph_dir, save_graph
from evofg.pipeline import (
    PipelineConfig,
    RunArtifacts,
    StageError,
    build_contexts,
    derive_rng,
    evaluate_runs,
    evaluate_scored,
    evolve,
    prepare_graphs,
    pretrain_all_experts,
    report_to_json,
    report_to_text,
    run_pipeline,
    score_graph,
    score_labeled,
    warmup_router,
)
from helpers import (
    degenerate_graphs,
    full_forward_utility,
    graph_equals,
    path_graph,
    traced,
    with_first_tensor_shape,
)

TINY = dict(
    d=5, d_e=6, d_prime=5, d_m=6, n_memory=4,
    expert_epochs=(2, 2, 2, 2), warmup_epochs=2, router_epochs=2,
    shapley_iters=3, n_envs=3, gen_per_round=4, rounds=2, key_fraction=0.2,
)


def tiny_cfg(**kw):
    merged = dict(TINY)
    merged.update(kw)
    return PipelineConfig(**merged)


@pytest.fixture(scope="module")
def graphs():
    train = [
        gen_synthetic(40, 8, 0.1, structure_seed=1, planted_kind="structural", name="tr_a"),
        gen_synthetic(36, 8, 0.12, structure_seed=2, planted_kind="attribute", name="tr_b"),
    ]
    test = [
        gen_synthetic(30, 8, 0.1, structure_seed=3, planted_kind="mixed",
                      n_communities=3, name="te_a"),
    ]
    return train, test


@pytest.fixture(scope="module")
def artifacts(graphs):
    train, _ = graphs
    return run_pipeline(tiny_cfg(seed=5), train, prepared_cache={})


class TestRunPipeline:
    def test_artifacts_complete(self, artifacts):
        assert len(artifacts.experts) == 4
        assert len(artifacts.shapley_reports) == 2
        assert len(artifacts.active_names) == artifacts.router.d_r
        assert set(artifacts.key_cache) == {"LOWPASS", "ATTENTION", "CHEBY", "GPR"}

    def test_generated_features_in_provenance(self, artifacts):
        assert artifacts.exprs  # two rounds of four candidates each

    def test_round_zero_is_warmup_only_baseline(self, graphs):
        train, _ = graphs
        art = run_pipeline(tiny_cfg(seed=6, rounds=0), train, prepared_cache={})
        assert art.exprs == []
        assert art.active_names == list(PRIMITIVE_NAMES)
        assert art.shapley_reports == []

    @pytest.mark.parametrize("seed", [15, 23])
    def test_selection_may_narrow_the_router_to_one_column(self, seed):
        """Once selection keeps a single column, the next rounds estimate
        that column alone, and the run completes."""
        train = [gen_synthetic(120, 8, 0.08, 1, "structural", name="a"),
                 gen_synthetic(110, 8, 0.08, 2, "attribute", name="b")]
        cfg = PipelineConfig(seed=seed, rounds=12, gen_per_round=0,
                             expert_epochs=(1, 1, 1, 1), warmup_epochs=2, router_epochs=2,
                             shapley_iters=1, n_envs=2, lr=1e-2)
        art = run_pipeline(cfg, train)
        assert len(art.shapley_reports) == cfg.rounds
        assert art.router.d_r == 1
        # a report holds a header and one line per estimated column
        assert art.shapley_reports[-1].count("\n") == 2

    def test_an_unlabeled_training_graph_is_refused_as_unlabeled(self, graphs):
        """Training needs labels: a graph built without them fails the
        pretrain stage, which says so, not that the graph has no normal
        nodes."""
        g = graphs[0][0]
        unlabeled = Graph(g.num_nodes, g.edges, g.features, None, g.name)
        with pytest.raises(StageError, match="training graph has no labels") as err:
            run_pipeline(tiny_cfg(seed=7), [unlabeled])
        assert err.value.stage == "pretrain"

    def test_stage_error_names_stage_and_seed(self):
        bad = Graph(4, [(0, 1)], np.zeros((4, 2)), np.array([1, 1, 1, 1]))
        with pytest.raises(StageError) as err:
            run_pipeline(tiny_cfg(seed=7), [bad])
        assert err.value.stage in ("prepare", "pretrain", "contexts")
        assert err.value.seed == 7

    @pytest.mark.parametrize("stage,owner,loss", [
        ("pretrain", experts, "expert_training_loss_t"),
        ("warmup", router, "kl_router_loss_t"),
    ])
    def test_a_diverging_loss_fails_its_stage(self, graphs, monkeypatch, stage, owner, loss):
        """A loss that turns NaN at epoch 1 stops training before that
        epoch's step and reaches the caller as its stage's StageError."""
        train, _ = graphs
        real, calls = getattr(owner, loss), []

        def nan_from_epoch_1(*args):
            calls.append(None)  # one call per training graph and epoch
            out = real(*args)
            return ad.mul(out, np.nan) if len(calls) > len(train) else out

        monkeypatch.setattr(owner, loss, nan_from_epoch_1)
        with pytest.raises(StageError) as err:
            run_pipeline(tiny_cfg(seed=13), train, prepared_cache={})
        assert err.value.stage == stage and err.value.seed == 13
        assert isinstance(err.value.__cause__, ad.TrainingDivergedError)
        assert re.search(r"seed 13: .*: non-finite loss at epoch 1 \(trace=\[[^,]+\]\)$",
                         str(err.value))

    def test_determinism_byte_identical_reports(self, graphs):
        train, test = graphs
        reports = []
        for _ in range(2):
            cache = {}
            art = run_pipeline(tiny_cfg(seed=8), train, prepared_cache=cache)
            scored = {}
            for g in test:
                s, r, pe = score_graph(art, g, prepared_cache=cache)
                scored[g.name] = {
                    "scores": s, "labels": g.labels,
                    "weights": r.weights, "per_expert": pe,
                }
            reports.append(report_to_json(evaluate_scored(scored)).encode())
        assert reports[0] == reports[1]


    def test_reset_final_changes_only_the_router(self, tmp_path, graphs):
        train, _ = graphs
        cache, runs = {}, []
        for reset in (False, True, True):
            out = str(tmp_path / f"run{len(runs)}")
            run_pipeline(tiny_cfg(seed=9, reset_final=reset), train, cache).save(out)
            runs.append({})
            for name in os.listdir(out):
                with open(os.path.join(out, name), "rb") as fh:
                    runs[-1][name] = fh.read()
        default, reset, again = runs
        assert reset == again
        assert sorted(reset) == sorted(default)
        assert {n for n in default if default[n] != reset[n]} == {"router.bin", "config.json"}
        ours, theirs = json.loads(default["config.json"]), json.loads(reset["config.json"])
        assert {k for k in ours if ours[k] != theirs[k]} == {"reset_final"}

    def test_each_round_evaluates_subsets_on_its_own_frozen_router(self, graphs,
                                                                   monkeypatch):
        train, _ = graphs
        cfg = tiny_cfg(seed=12)
        bundles = prepare_graphs(train, cfg.d, {})
        models = pretrain_all_experts(bundles, cfg)
        contexts = build_contexts(bundles, models, cfg)
        router_model = warmup_router(contexts, cfg)
        # (frozen material, contexts it was built from, gnn_w and width then)
        rounds = []
        calls = []

        def recording_freeze(model, ctxs):
            frozen = real_freeze(model, ctxs)
            rounds.append((frozen, ctxs, model.params["gnn_w"].copy(), model.d_r))
            return frozen

        def checking_utility(model, subset, frozen):
            r = next(i for i, (f, *_) in enumerate(rounds) if f is frozen)
            assert r == len(rounds) - 1  # the current round's material
            value = real_utility(model, subset, frozen)
            ref = full_forward_utility(model, subset, rounds[r][1])
            assert value == pytest.approx(ref, rel=1e-12)
            calls.append(r)
            return value

        real_freeze, real_utility = pipeline.freeze_node_branch, pipeline.routing_utility
        monkeypatch.setattr(pipeline, "freeze_node_branch", recording_freeze)
        monkeypatch.setattr(pipeline, "routing_utility", checking_utility)
        evolve(router_model, contexts, models, cfg)

        assert len(rounds) == cfg.rounds
        for r, (*_, d_r) in enumerate(rounds):
            assert calls.count(r) == cfg.shapley_iters * (d_r + 2)
        # round 2 runs on a router the round-1 retrain changed in place
        assert not np.array_equal(rounds[0][2], rounds[1][2])

    def test_columns_constant_on_every_training_graph_are_dropped(self, graphs,
                                                                  monkeypatch):
        train, _ = graphs
        cfg = tiny_cfg(seed=14)
        bundles = prepare_graphs(train, cfg.d, {})
        models = pretrain_all_experts(bundles, cfg)
        contexts = build_contexts(bundles, models, cfg)
        estimated = []
        real_estimate = pipeline.estimate_contributions

        def recording(features, *args):
            estimated.append(list(features))
            return real_estimate(features, *args)

        monkeypatch.setattr(pipeline, "estimate_contributions", recording)
        art = evolve(warmup_router(contexts, cfg), contexts, models, cfg)
        # both training graphs are connected with a diameter of at most 6
        constant = ["PR_ego_mean", "BC_ego_mean", "CC_ego_mean", "Ego_size"]
        line = next(ln for ln in art.shapley_reports[0].splitlines()
                    if ln.startswith("dropped, constant on every training graph: "))
        dropped = line.split(": ", 1)[1].split(", ")
        assert dropped[:4] == constant
        assert set(dropped).isdisjoint(estimated[0])
        tables = [dsl.rebuild_columns(b.table, art.exprs, art.active_names)
                  for b in bundles]
        assert np.any([t.standardized(art.active_names).any(axis=0) for t in tables],
                      axis=0).all()


def test_nothing_is_dropped_when_no_candidate_varies():
    """A contribution estimate needs a column: when every candidate is
    constant on every context, all of them stay."""
    flat = RouterFeatureTable(np.ones((5, 2)), ["a", "b"], ["Topology"] * 2)
    contexts = [SimpleNamespace(table=flat)] * 2
    assert pipeline._without_constant_columns(contexts, ["b", "a"]) == (["b", "a"], [])


def _big_graphs():
    """Two test graphs past one 256-row block, where scoring shares its
    columns and its expert branch with the helper."""
    return [gen_synthetic(n, 8, 0.1, structure_seed=s, planted_kind="mixed",
                          n_communities=3, name=f"big_{n}")
            for s, n in ((21, 300), (22, 420))]


def _fresh(g):
    """A copy of ``g`` with nothing cached on it (no sweep, no digest)."""
    return Graph(g.num_nodes, g.edges, g.features, None, g.name)


def _output_bytes(outputs):
    """The bytes of every output of ``score_graph``: scores, routing weights
    and each expert's scores."""
    scores, routing, per_expert = outputs
    return ([scores.tobytes(), routing.weights.tobytes()]
            + [per_expert[arch].tobytes() for arch in experts.ARCHS])


def _score_bytes(artifacts, g):
    """The bytes of every output of scoring a fresh copy of ``g``."""
    return _output_bytes(score_graph(artifacts, _fresh(g)))


class TestScoreGraph:
    def test_scores_with_the_helper_match_the_calling_thread_alone(self, artifacts,
                                                                   monkeypatch):
        """Every output is byte-identical with the helper and without it,
        also while two threads score at once, with thread switches forced
        often."""
        big = _big_graphs()
        with monkeypatch.context() as m:
            m.setattr(features, "_sweep_helper", lambda: None)
            want = [_score_bytes(artifacts, g) for g in big]
        asked, real = [], features._sweep_helper
        monkeypatch.setattr(features, "_sweep_helper", lambda: asked.append(1) or real())
        assert [_score_bytes(artifacts, g) for g in big] == want
        assert len(asked) == 3 * len(big)  # the sweep, the columns, the branches
        got = {}

        def score_all(t):
            for j, g in enumerate(big):
                got[t, j] = _score_bytes(artifacts, g)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=score_all, args=(t,)) for t in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == {(t, j): want[j] for t in range(2) for j in range(len(big))}

    def test_scores_with_sharing_match_scores_without(self, artifacts, monkeypatch):
        """Past one 256-row block both steps of scoring share their tasks;
        with that sharing turned off every output is byte-identical."""
        big = _big_graphs()
        assert all(features.sharing_pays(g.num_nodes) for g in big)
        want = [_score_bytes(artifacts, g) for g in big]
        monkeypatch.setattr(features, "sharing_pays", lambda n: False)
        assert [_score_bytes(artifacts, g) for g in big] == want

    def test_a_warm_cache_scores_a_fresh_graph_without_a_sweep(self, artifacts):
        g = _big_graphs()[1]
        cache = {}
        want = _output_bytes(score_graph(artifacts, _fresh(g), cache))
        fresh = _fresh(g)
        assert _output_bytes(score_graph(artifacts, fresh, cache)) == want
        assert "sweep" not in fresh._ops

    def test_a_patch_on_betweenness_sees_the_scoring_sweep(self, artifacts, monkeypatch):
        """The benchmark's tracer replaces ``features.betweenness`` in its
        module; the sweep that scoring runs before its prepare stage runs
        inside the replacement, and the prepare stage reads it cached."""
        g = _fresh(_big_graphs()[0])
        real, calls = vars(features)["betweenness"], []

        def traced(graph):
            swept = "sweep" in graph._ops
            out = real(graph)
            calls.append((swept, "sweep" in graph._ops))
            return out

        monkeypatch.setattr(features, "betweenness", traced)
        score_graph(artifacts, g)
        assert calls == [(False, True), (True, True)]

    @pytest.mark.parametrize("n", [150, 256])
    def test_graph_within_one_block_scores_without_the_helper(self, artifacts,
                                                              monkeypatch, n):
        """At N <= 256 only the sweep (of two blocks from N = 129 on) may
        ask for the helper; with the sweep cached, scoring never does."""
        g = gen_synthetic(n, 8, 0.1, structure_seed=23, planted_kind="mixed")
        want, _, _ = score_graph(artifacts, g)

        def no_helper():
            raise AssertionError("scoring at N <= 256 asked for the helper")

        monkeypatch.setattr(features, "_sweep_helper", no_helper)
        scores, _, _ = score_graph(artifacts, g)
        assert scores.tobytes() == want.tobytes()

    @pytest.mark.parametrize("failing", ["features", "experts"])
    def test_branch_error_raised_after_the_other_branch_ends(self, artifacts,
                                                             monkeypatch, failing):
        g = _big_graphs()[0]
        want = _score_bytes(artifacts, g)
        running = []

        def tracked(name, real):
            def run(*args):
                running.append(name)
                try:
                    if name == failing:
                        raise RuntimeError(f"{name} branch failed")
                    time.sleep(0.02)  # still busy when the other branch fails
                    return real(*args)
                finally:
                    running.remove(name)
            return run

        monkeypatch.setattr(pipeline, "route", tracked("features", pipeline.route))
        monkeypatch.setattr(experts, "encode", tracked("experts", experts.encode))
        with pytest.raises(RuntimeError, match=f"{failing} branch failed"):
            _score_bytes(artifacts, g)
        assert running == []  # the other branch had ended
        monkeypatch.undo()
        assert _score_bytes(artifacts, g) == want

    def test_scores_cover_all_nodes(self, artifacts, graphs):
        _, test = graphs
        scores, routing, per_expert = score_graph(artifacts, test[0])
        assert scores.shape == (test[0].num_nodes,)
        assert routing.weights.shape == (test[0].num_nodes, 4)
        assert set(per_expert) == set(artifacts.key_cache)

    def test_labels_not_needed(self, artifacts, graphs):
        _, test = graphs
        g = test[0]
        unlabeled = Graph(g.num_nodes, g.edges, g.features, None, name="unlabeled")
        s1, _, _ = score_graph(artifacts, g)
        s2, _, _ = score_graph(artifacts, unlabeled)
        assert np.array_equal(s1, s2)

    def test_isomorphic_copy_scores_identically(self, artifacts, graphs):
        _, test = graphs
        g = test[0]
        rng = np.random.default_rng(9)
        perm = rng.permutation(g.num_nodes)
        remapped = [(int(perm[u]), int(perm[v])) for u, v in g.edges]
        g2 = Graph(g.num_nodes, remapped, g.features[np.argsort(perm)], None,
                   name="iso_copy")
        s1, _, _ = score_graph(artifacts, g)
        s2, _, _ = score_graph(artifacts, g2)
        assert np.allclose(np.sort(s1), np.sort(s2), atol=1e-8)

    @pytest.mark.parametrize("case", [case for case, _ in degenerate_graphs()])
    def test_degenerate_graph_scores(self, artifacts, case):
        g = dict(degenerate_graphs())[case]
        scores, routing, _ = score_graph(artifacts, g)
        assert scores.shape == (g.num_nodes,)
        assert np.isfinite(scores).all()
        assert (routing.weights >= 0).all()
        assert np.abs(routing.weights.sum(axis=1) - 1.0).max() < 1e-12
        again, _, _ = score_graph(artifacts, dict(degenerate_graphs())[case])
        assert np.array_equal(scores, again)

    def test_attributes_near_1e200_score_finite(self, artifacts, graphs):
        _, test = graphs
        g = test[0]
        huge = Graph(g.num_nodes, g.edges, g.features * 1e200, None, "huge")
        scores, routing, per_expert = score_graph(artifacts, huge)
        assert np.isfinite(scores).all() and np.isfinite(routing.weights).all()
        assert all(np.isfinite(s).all() for s in per_expert.values())

    def test_scoring_keeps_nothing_between_calls(self, graphs):
        """Repeated ``score_graph`` calls on a trained model leave traced
        memory where it was, on graphs of sizes it has not scored before: no
        buffer outlives its call. The router has the default 32 memories of
        width 32, so one attention block kept per size would hold 100 KB."""
        train, _ = graphs
        art = run_pipeline(tiny_cfg(seed=6, d_m=32, n_memory=32, rounds=0), train,
                           prepared_cache={})

        def score_sizes(sizes):
            for n in sizes:
                for _ in range(2):
                    score_graph(art, gen_synthetic(n, 8, 0.1, structure_seed=n,
                                                   planted_kind="mixed"))

        score_sizes([29])  # fills any lazy import or cache
        _, left = traced(lambda: score_sizes([33, 41, 47, 58, 66, 75]))
        # measured: 14-20 KB of interpreter caches; one attention block kept
        # per size left 103 KB
        assert left < 48 * 2**10, left

    def test_prepared_cache_tells_apart_graphs_sharing_a_name(self, artifacts):
        same_size = [
            gen_synthetic(30, 8, 0.1, structure_seed=s, planted_kind="mixed", name="same")
            for s in (11, 12)
        ]
        other_size = gen_synthetic(34, 8, 0.1, structure_seed=13, planted_kind="mixed",
                                   name="same")
        cache = {}
        for g in same_size + [other_size]:
            shared, _, _ = score_graph(artifacts, g, prepared_cache=cache)
            fresh, _, _ = score_graph(artifacts, g, prepared_cache={})
            assert np.array_equal(shared, fresh)
        assert len(cache) == 3

    def test_training_graph_scores_reproduce_training_state(self, graphs):
        # single train graph: the key cache is exactly its canonical key set,
        # so inference must reproduce the training-time reconstructions on
        # the query rows
        train, _ = graphs
        cfg = tiny_cfg(seed=10)
        cache = {}
        art = run_pipeline(cfg, [train[0]], prepared_cache=cache)

        from evofg.pipeline import build_contexts, prepare_graphs
        from evofg.router import route
        from evofg.experts import anomaly_scores
        from evofg import dsl

        bundle = prepare_graphs([train[0]], cfg.d, cache)[0]
        table = dsl.rebuild_columns(bundle.table, art.exprs, art.active_names)
        ctx = build_contexts([bundle], art.experts, cfg)[0]
        routing = route(art.router, bundle.xtilde, bundle.graph,
                        table.standardized(art.active_names))
        p_q = routing.weights[ctx.queries]
        h_mix = sum(p_q[:, e:e + 1] * ctx.expert_hq[e] for e in range(4))
        r_mix = sum(p_q[:, e:e + 1] * ctx.expert_recon[e] for e in range(4))
        expected = anomaly_scores(h_mix, r_mix)

        scores, _, _ = score_graph(art, train[0], prepared_cache=cache)
        assert np.allclose(scores[ctx.queries], expected, atol=1e-12)

    def test_checkpoint_roundtrip_scores_bit_identical(self, tmp_path, artifacts, graphs):
        _, test = graphs
        out = str(tmp_path / "artifacts")
        artifacts.save(out)
        loaded = RunArtifacts.load(out)
        s1, r1, _ = score_graph(artifacts, test[0])
        s2, r2, _ = score_graph(loaded, test[0])
        assert np.array_equal(s1, s2)
        assert np.array_equal(r1.weights, r2.weights)

    def test_save_replaces_an_earlier_runs_round_reports(self, tmp_path, artifacts):
        out = str(tmp_path / "artifacts")
        artifacts.save(out)
        assert len(RunArtifacts.load(out).shapley_reports) == artifacts.config.rounds == 2
        one_round = dataclasses.replace(
            artifacts, config=dataclasses.replace(artifacts.config, rounds=1),
            shapley_reports=artifacts.shapley_reports[1:],
        )
        one_round.save(out)
        assert RunArtifacts.load(out).shapley_reports == artifacts.shapley_reports[1:]
        assert sorted(f for f in os.listdir(out) if f.startswith("shapley_round_")) == [
            "shapley_round_1.txt"
        ]

    def test_artifacts_saving_the_expert_count_load_and_score(self, tmp_path, artifacts,
                                                             graphs):
        # config.json as written while the expert count was a config field
        _, test = graphs
        out = str(tmp_path / "artifacts")
        artifacts.save(out)
        path = os.path.join(out, "config.json")
        with open(path) as fh:
            saved = json.load(fh)
        assert "n_experts" not in saved
        with open(path, "w") as fh:
            json.dump({**saved, "n_experts": 4}, fh, indent=2, sort_keys=True)
        loaded = RunArtifacts.load(out)
        assert loaded.config == artifacts.config
        s1, r1, _ = score_graph(artifacts, test[0])
        s2, r2, _ = score_graph(loaded, test[0])
        assert np.array_equal(s1, s2)
        assert np.array_equal(r1.weights, r2.weights)

    def test_checkpoints_saving_seed_and_trained_load_and_score(self, tmp_path, artifacts,
                                                                 graphs):
        # expert and router headers as written while the models kept a seed
        # (and the experts a trained flag), and while headers repeated the
        # widths as `dims`
        _, test = graphs
        old, new = str(tmp_path / "old"), str(tmp_path / "new")
        artifacts.save(old)
        artifacts.save(new)
        models = {f"expert_{m.arch}.bin": m for m in artifacts.experts}
        models["router.bin"] = artifacts.router
        for name, model in models.items():
            path = os.path.join(old, name)
            header, tensors = load_checkpoint(path, "router" if name == "router.bin" else "expert")
            assert {"seed", "trained", "dims"}.isdisjoint(header)
            extra = {"seed": 3, "dims": list(model.dims)}
            if name != "router.bin":
                extra["trained"] = True
            save_checkpoint(path, {**header, **extra}, tensors)
        results = []
        for out in (old, new):
            scores, routing, per_expert = score_graph(RunArtifacts.load(out), test[0])
            results.append((scores.tobytes(), routing.weights.tobytes(),
                            {a: v.tobytes() for a, v in per_expert.items()}))
        assert results[0] == results[1]

    def test_load_rejects_router_features_other_than_the_active_set(self, tmp_path,
                                                                    artifacts):
        out = str(tmp_path / "artifacts")
        artifacts.save(out)
        path = os.path.join(out, "features.json")
        with open(path) as fh:
            feats = json.load(fh)
        feats["active"] = feats["active"][1:]
        with open(path, "w") as fh:
            json.dump(feats, fh)
        with pytest.raises(CheckpointError, match="router.bin"):
            RunArtifacts.load(out)

    @pytest.mark.parametrize("defect", [
        "not JSON", "a list", "no provenance", "no active", "provenance not a list",
        "active not a list", "an entry without args", "an entry with another key",
        "a number entry", "an unknown operator", "23 primitives",
        "a primitive after an expression", "an argument defined by no column",
        "an argument defined later",
        "a column defined twice", "an active name defined by no column",
    ])
    def test_load_rejects_a_malformed_features_file(self, tmp_path, artifacts, defect):
        out = str(tmp_path / "artifacts")
        artifacts.save(out)
        path = os.path.join(out, "features.json")
        with open(path) as fh:
            feats = json.load(fh)
        prov, active = feats["provenance"], feats["active"]
        n = len(PRIMITIVE_NAMES)
        entry = dict(prov[n])  # the first generated column
        later = dsl.expr_from_dict(prov[n + 1]).name

        def entry_with(**kw):
            return {**feats, "provenance": prov[:n] + [{**entry, **kw}] + prov[n + 1:]}

        change = {
            "not JSON": lambda: "{oops",
            "a list": lambda: [feats],
            "no provenance": lambda: {"active": active},
            "no active": lambda: {"provenance": prov},
            "provenance not a list": lambda: {**feats, "provenance": dict(enumerate(prov))},
            "active not a list": lambda: {**feats, "active": ",".join(active)},
            "an entry without args": lambda: {
                **feats, "provenance": prov[:n] + [{"op": "LOG", "category": "PageRank"}]},
            "an entry with another key": lambda: entry_with(weight=1.0),
            "a number entry": lambda: {**feats, "provenance": prov[:n] + [5] + prov[n + 1:]},
            "an unknown operator": lambda: entry_with(op="EXP"),
            "23 primitives": lambda: {**feats, "provenance": ["primitive"] * 4 + prov},
            "a primitive after an expression": lambda: {
                **feats, "provenance": prov + ["primitive"]},
            "an argument defined by no column": lambda: entry_with(
                args=["ghost"] + entry["args"][1:]),
            "an argument defined later": lambda: entry_with(args=[later] + entry["args"][1:]),
            "a column defined twice": lambda: {**feats, "provenance": prov + [entry]},
            "an active name defined by no column": lambda: {
                **feats, "active": active + ["ghost"]},
        }[defect]()
        with open(path, "w") as fh:
            fh.write(change if isinstance(change, str) else json.dumps(change))
        with pytest.raises(CheckpointError, match=re.escape(path)):
            RunArtifacts.load(out)

    @pytest.mark.parametrize("defect, why", [
        ("not JSON", "Expecting"), ("a list", "not list"), ("an unknown field", "'bogus'"),
    ])
    def test_load_names_a_config_file_it_cannot_read(self, tmp_path, artifacts, defect, why):
        out = str(tmp_path / "artifacts")
        artifacts.save(out)
        path = os.path.join(out, "config.json")
        text = {"not JSON": "{oops", "a list": "[]", "an unknown field": '{"bogus": 1}'}
        with open(path, "w") as fh:
            fh.write(text[defect])
        with pytest.raises(CheckpointError, match=re.escape(path)) as err:
            RunArtifacts.load(out)
        assert why in str(err.value)

    def test_load_rejects_a_router_file_as_the_key_cache(self, tmp_path, artifacts):
        out = str(tmp_path / "artifacts")
        artifacts.save(out)
        keys = os.path.join(out, "keys.bin")
        shutil.copyfile(os.path.join(out, "router.bin"), keys)
        with pytest.raises(CheckpointError, match=re.escape(keys)) as err:
            RunArtifacts.load(out)
        assert "is of kind 'router', not 'keycache'" in str(err.value)

    @pytest.mark.parametrize("defect", [
        "GPR missing", "an array too many", "too narrow", "no rows", "rank 1", "rank 0",
    ])
    def test_load_rejects_a_key_cache_without_every_experts_keys(self, tmp_path, artifacts,
                                                                 defect):
        out = str(tmp_path / "artifacts")
        artifacts.save(out)
        keys = os.path.join(out, "keys.bin")
        _, cache = load_checkpoint(keys, "keycache")
        change = {
            "GPR missing": lambda: cache.pop("GPR"),
            "an array too many": lambda: cache.update(MLP=cache["GPR"]),
            "too narrow": lambda: cache.update(GPR=cache["GPR"][:, 1:]),
            "no rows": lambda: cache.update(GPR=cache["GPR"][:0]),
            "rank 1": lambda: cache.update(GPR=cache["GPR"][0]),
            "rank 0": lambda: cache.update(GPR=cache["GPR"][0, 0]),
        }
        change[defect]()
        save_checkpoint(keys, {"kind": "keycache"}, cache)
        with pytest.raises(CheckpointError, match=re.escape(keys)):
            RunArtifacts.load(out)

    def test_scoring_prepares_in_the_prepare_stage(self, artifacts, monkeypatch):
        """A scored graph is aligned once and its primitives are computed in
        ``prepare_graphs``, the stage the benchmark's tracer times; a second
        scoring with the same cache finds them there."""
        g = _big_graphs()[0]
        calls = []

        def counting(name):
            real = getattr(pipeline, name)
            return lambda *args: calls.append(name) or real(*args)

        for name in ("align", "prepare_graphs", "compute_primitives"):
            monkeypatch.setattr(pipeline, name, counting(name))
        cache = {}
        want, _, _ = score_graph(artifacts, g, cache)
        assert sorted(calls) == ["align", "compute_primitives", "prepare_graphs"]
        assert len(cache) == 1
        scores, _, _ = score_graph(artifacts, g, cache)
        assert calls[3:] == ["prepare_graphs"]
        assert scores.tobytes() == want.tobytes()

    def test_scoring_hashes_a_graph_once(self, artifacts, graphs, monkeypatch):
        """A scoring call computes a graph's content digest once, not once for
        its cache lookup and again in ``prepare_graphs``; a later call on
        the same graph reuses it."""
        _, test = graphs
        fresh = [Graph(test[0].num_nodes, test[0].edges, test[0].features, None, name)
                 for name in ("one", "two")]
        hashed = []
        real = pipeline._content_digest
        monkeypatch.setattr(pipeline, "_content_digest",
                            lambda g: hashed.append(g.name) or real(g))
        score_graph(artifacts, fresh[0])
        assert hashed == ["one"]
        cache = {}
        for _ in range(2):
            score_graph(artifacts, fresh[1], cache)
        assert hashed == ["one", "two"]

    def test_without_a_cache_prepares_as_with_one(self, artifacts, graphs, monkeypatch):
        # prepare_graphs has one path: without a cache it fills a local one,
        # so a call prepares each content once and scores as a cached call
        _, test = graphs
        g = test[0]
        want, _, _ = score_graph(artifacts, g, prepared_cache={})
        scores, _, _ = score_graph(artifacts, g)
        assert np.array_equal(scores, want)
        prepared = []

        def counting(graph, d, real=pipeline.prepare_graph):
            prepared.append(graph.name)
            return real(graph, d)

        monkeypatch.setattr(pipeline, "prepare_graph", counting)
        twin = Graph(g.num_nodes, g.edges, g.features, g.labels, "twin")
        bundles = prepare_graphs([g, twin], artifacts.config.d)
        assert prepared == [g.name]
        assert [b.graph for b in bundles] == [g, twin]

    def test_zero_shot_hygiene_label_file_never_opened(self, tmp_path, artifacts,
                                                       graphs, monkeypatch):
        _, test = graphs
        gdir = str(tmp_path / "testgraph")
        save_graph(test[0], gdir)
        opened = []
        real_open = builtins.open

        def tracing_open(path, *a, **kw):
            opened.append(str(path))
            return real_open(path, *a, **kw)

        monkeypatch.setattr(builtins, "open", tracing_open)
        g = load_graph_dir(gdir, with_labels=False)
        score_graph(artifacts, g)
        assert not any(p.endswith("labels.txt") for p in opened)
        # evaluation is the one place labels are read
        g_labeled = load_graph_dir(gdir)
        assert any(p.endswith("labels.txt") for p in opened)
        assert g_labeled.labels is not None


class TestEvaluate:
    def test_perfect_scorer_reports_one(self):
        labels = np.array([0, 0, 1, 0, 1])
        rep = evaluate_scored(
            {"g": {"scores": labels.astype(float), "labels": labels}}
        )
        assert rep["per_graph"]["g"]["auroc"] == 1.0
        assert rep["per_graph"]["g"]["auprc"] == 1.0

    def test_single_class_marked_undefined(self):
        rep = evaluate_scored({"g": {"scores": np.ones(4), "labels": np.zeros(4, dtype=int),
                                     "per_expert": {"GPR": np.arange(4.0)}}})
        row = rep["per_graph"]["g"]
        assert row["undefined"]
        assert row["auroc"] is row["auprc"] is None
        assert row["per_expert_auroc"] == {"GPR": None}
        assert "mean_auroc" not in rep
        assert report_to_text(rep).splitlines()[1].split() == ["g", "undef", "undef"]

    def test_a_graph_undefined_in_a_run_is_undefined_in_the_aggregate(self, graphs):
        train, test = graphs
        g = test[0]
        flat = Graph(g.num_nodes, g.edges, g.features, np.zeros_like(g.labels), "flat")
        rep = evaluate_runs(tiny_cfg(seed=11, rounds=1), train, [flat, g], runs=1)
        assert rep["aggregate"]["flat"] == {"undefined": True}
        assert rep["runs"][0]["per_graph"]["flat"]["undefined"]
        assert rep["mean_auroc_over_runs"] == rep["aggregate"][g.name]["auroc_mean"]
        assert report_to_text(rep).splitlines()[1].split() == ["flat", "undefined", "undefined"]

    def test_routing_frequency_rows_sum_to_one(self, artifacts, graphs):
        _, test = graphs
        s, r, pe = score_graph(artifacts, test[0])
        rep = evaluate_scored(
            {test[0].name: {"scores": s, "labels": test[0].labels,
                            "weights": r.weights, "per_expert": pe}}
        )
        freq = rep["routing_frequency"][test[0].name]
        assert sum(freq) == pytest.approx(1.0)
        assert len(freq) == 4

    @pytest.mark.parametrize("kind", ["uniform", "one_hot"])
    def test_weight_deviation_and_entropy(self, kind):
        labels = np.array([0, 1, 0, 0, 1, 0])
        weights = np.full((6, 4), 0.25)
        if kind == "one_hot":
            weights = np.eye(4)[[0, 1, 2, 3, 2, 1]]
        rep = evaluate_scored({"g": {"scores": np.arange(6.0), "labels": labels,
                                     "weights": weights}})
        row = rep["per_graph"]["g"]
        want = (0.0, np.log(4.0)) if kind == "uniform" else (0.75, 0.0)
        assert row["max_weight_deviation"] == pytest.approx(want[0], abs=1e-15)
        assert row["routing_entropy"] == pytest.approx(want[1], abs=1e-15)
        text = report_to_text(rep).splitlines()
        assert "entropy" in text[-2]
        assert text[-1].split()[-2:] == [f"{want[0]:.2e}", f"{want[1]:.4f}"]

    def test_multi_run_aggregation(self, graphs):
        train, test = graphs
        cache = {}
        rep = evaluate_runs(tiny_cfg(seed=11, rounds=1), train, test, runs=2,
                            prepared_cache=cache)
        assert rep["n_runs"] == 2
        agg = rep["aggregate"][test[0].name]
        assert {"auroc_mean", "auroc_std", "auprc_mean", "auprc_std"} <= set(agg)
        text = report_to_text(rep)
        assert "AUROC" in text and test[0].name in text

    def test_runs_share_one_prepared_cache(self, graphs, monkeypatch):
        """Without a cache from the caller, the runs of ``evaluate_runs``
        share one: each training and test graph is prepared once over all
        runs, and the report is the one a caller's cache gives."""
        train, test = graphs
        cfg = tiny_cfg(seed=11, rounds=1)
        want = report_to_json(evaluate_runs(cfg, train, test, runs=3, prepared_cache={}))
        prepared = []
        real = pipeline.compute_primitives
        monkeypatch.setattr(pipeline, "compute_primitives",
                            lambda g, x: prepared.append(g.name) or real(g, x))
        got = report_to_json(evaluate_runs(cfg, train, test, runs=3))
        assert sorted(prepared) == sorted(g.name for g in train + test)
        assert got == want

    def test_graphs_sharing_a_name_are_refused(self, artifacts, graphs, monkeypatch):
        # results are keyed by graph name: a second graph of one name would
        # replace the first and drop out of every mean
        train, test = graphs
        g = test[0]
        twin = Graph(g.num_nodes, g.edges, g.features * 2.0, g.labels, g.name)
        with pytest.raises(ValueError, match=re.escape(f"2 test graphs are named {g.name!r}")):
            score_labeled(artifacts, [g, twin])

        def no_training(*args, **kwargs):
            raise AssertionError("evaluate_runs trained")

        monkeypatch.setattr(pipeline, "run_pipeline", no_training)
        with pytest.raises(ValueError, match="2 test graphs are named"):
            evaluate_runs(tiny_cfg(), train, [g, twin])

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(12)
        g = gen_synthetic(400, 6, 0.1, structure_seed=13, planted_kind="attribute")
        vals = [  # three independent random scorers
            evaluate_scored(
                {"g": {"scores": rng.normal(size=400), "labels": g.labels}}
            )["per_graph"]["g"]["auroc"]
            for _ in range(3)
        ]
        assert abs(np.mean(vals) - 0.5) < 0.08


class TestConfig:
    def test_aliases_accepted(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"T": 9, "K": 11, "lambda": 0.3, "m": 7, "R": 2, "M": 16, "E": 4,
             "seed": 3}
        ))
        cfg = PipelineConfig.from_json(str(cfg_path))
        assert cfg.shapley_iters == 9
        assert cfg.n_envs == 11
        assert cfg.lam == 0.3
        assert cfg.gen_per_round == 7
        assert cfg.rounds == 2
        assert cfg.n_memory == 16

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config"):
            PipelineConfig.from_dict({"bogus": 1})

    @pytest.mark.parametrize("first, second", [("T", "shapley_iters"), ("shapley_iters", "T"),
                                               ("lambda", "lam"), ("lam", "lambda")])
    def test_field_given_under_two_spellings_rejected(self, first, second):
        with pytest.raises(ValueError, match=f"'{first}' and '{second}' both set"):
            PipelineConfig.from_dict({first: 1, second: 2})

    def test_saved_expert_count_of_four_is_dropped(self):
        assert PipelineConfig.from_dict({"n_experts": 4}) == PipelineConfig()
        assert PipelineConfig.from_dict({"E": 4, "seed": 2}) == PipelineConfig(seed=2)

    def test_saved_z_crit_is_ignored(self, tmp_path):
        # config.json as written while the retention rule read a z threshold
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**PipelineConfig().to_dict(), "z_crit": 1.645},
                                   indent=2, sort_keys=True))
        assert PipelineConfig.from_json(str(path)) == PipelineConfig()

    @pytest.mark.parametrize("key", ["n_experts", "E"])
    @pytest.mark.parametrize("value", [3, 5])
    def test_other_expert_count_rejected_at_config_load(self, tmp_path, capsys, key, value):
        why = f"{key}={value}: the experts are LOWPASS, ATTENTION"
        with pytest.raises(ValueError, match=why):
            PipelineConfig.from_dict({key: value})
        # the CLI reads the config before it opens a training graph, which
        # does not exist and would be refused in other words
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        capsys.readouterr()
        assert cli_main(["pretrain", "--train", str(tmp_path / "missing"),
                         "--out", str(out), "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith(f"evofg pretrain: --config {cfg_path}: {why}")
        assert not out.exists()

    @pytest.mark.parametrize("epochs", [(1, 1), (1, 1, 1, 1, 1)])
    def test_expert_epochs_needs_one_entry_per_expert(self, epochs):
        with pytest.raises(ValueError, match="expert_epochs needs"):
            PipelineConfig(expert_epochs=epochs)
        with pytest.raises(ValueError, match="expert_epochs needs"):
            PipelineConfig.from_dict({"expert_epochs": list(epochs)})

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(lam=-0.5)
        with pytest.raises(ValueError):
            PipelineConfig(key_fraction=1.5)

    @pytest.mark.parametrize("field", ["shapley_iters", "n_envs"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_sample_counts_below_one_rejected(self, field, value):
        # the evolve stage draws this many samples; without the check a run
        # fails only there, after pretraining and warm-up
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            PipelineConfig(**{field: value})

    @pytest.mark.parametrize("key, value, named", [
        ("seed", -1, "seed"), ("seed", 1.5, "seed"),
        ("rounds", -2, "rounds"), ("gen_per_round", -1, "gen_per_round"),
        ("router_epochs", -1, "router_epochs"), ("warmup_epochs", 1.5, "warmup_epochs"),
        ("expert_epochs", [10, -1, 10, 40], "expert_epochs"),
        ("lr", -1.0, "lr"), ("wd", -1.0, "wd"), ("lam", float("nan"), "lam"),
        ("mask_rate", 2.0, "mask_rate"), ("mask_rate", -0.1, "mask_rate"),
        ("llm", "x", "llm"), ("llm", {"foo": 1}, "llm field 'foo'"),
        ("no_memory", "false", "no_memory"), ("no_select", 0, "no_select"),
        ("random_backend", None, "random_backend"), ("reset_final", 1, "reset_final"),
        ("llm", {"enabled": "no"}, "llm.enabled"), ("llm", {"base_url": 5}, "llm.base_url"),
        ("llm", {"fixtures_dir": 3}, "llm.fixtures_dir"), ("llm", {"model": None}, "llm.model"),
        ("expert_epochs", 5, "expert_epochs"),
    ])
    def test_values_no_stage_can_run_rejected(self, key, value, named):
        # without the check, each fails inside a stage (a negative or
        # fractional seed in derive_seed, say) or trains on nonsense: a
        # quoted boolean read by truth would silently run an ablation
        with pytest.raises(ValueError, match=re.escape(named)):
            PipelineConfig.from_dict({key: value})

    def test_derive_rng_stable_and_tag_sensitive(self):
        a = derive_rng(5, "stage", 1).integers(10**9)
        b = derive_rng(5, "stage", 1).integers(10**9)
        c = derive_rng(5, "stage", 2).integers(10**9)
        assert a == b
        assert a != c


class TestCLI:
    def run(self, *argv):
        assert cli_main(list(argv)) == 0

    def write_run_inputs(self, tmp_path):
        """Two training graph directories and a tiny config file."""
        dirs = []
        for name, seed, kind in (("tr_a", 31, "structural"), ("tr_b", 32, "attribute")):
            dirs.append(str(tmp_path / name))
            self.run("gen", "--out", dirs[-1], "--nodes", "40", "--features", "8",
                     "--rate", "0.1", "--kind", kind, "--seed", str(seed))
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump({**TINY, "expert_epochs": list(TINY["expert_epochs"]),
                       "seed": 3}, fh)
        return dirs, cfg_path

    def test_stagewise_run_matches_one_shot_bytes(self, tmp_path, monkeypatch):
        import evofg.pipeline as pipeline_mod

        dirs, cfg_path = self.write_run_inputs(tmp_path)
        once = str(tmp_path / "once")
        run_pipeline(PipelineConfig.from_json(cfg_path),
                     [load_graph_dir(d) for d in dirs]).save(once)

        phases = []
        train_router = pipeline_mod.train_router

        def counting_train_router(model, contexts, cfg, phase, seed):
            phases.append(phase)
            return train_router(model, contexts, cfg, phase, seed)

        monkeypatch.setattr(pipeline_mod, "train_router", counting_train_router)
        staged = str(tmp_path / "staged")
        self.run("pretrain", "--train", *dirs, "--out", staged, "--config", cfg_path)
        for command in ("warmup", "evolve"):
            self.run(command, "--train", *dirs, "--out", staged)
        assert phases == ["warmup"] + ["main"] * (TINY["rounds"] + 1)

        assert sorted(os.listdir(staged)) == sorted(os.listdir(once))
        for name in os.listdir(once):
            with open(os.path.join(once, name), "rb") as a, \
                    open(os.path.join(staged, name), "rb") as b:
                assert a.read() == b.read(), name

        # a rerun stage starts the rest of the run over
        self.run("pretrain", "--train", *dirs, "--out", staged, "--config", cfg_path)
        assert not {"router.bin", "features.json", "keys.bin",
                    "shapley_round_1.txt"} & set(os.listdir(staged))

    def test_stage_commands_name_the_missing_stage(self, tmp_path, capsys):
        dirs, cfg_path = self.write_run_inputs(tmp_path)
        art = str(tmp_path / "artifacts")
        capsys.readouterr()
        for command in ("warmup", "evolve"):
            assert cli_main([command, "--train", *dirs, "--out", art]) == 2
            assert "run `evofg pretrain` first" in capsys.readouterr().err
        self.run("pretrain", "--train", *dirs, "--out", art, "--config", cfg_path)
        assert cli_main(["evolve", "--train", *dirs, "--out", art]) == 2
        assert "run `evofg warmup` first" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(art, "features.json"))
        # evolve resumes from the warmed-up router, which a finished run has replaced
        self.run("warmup", "--train", *dirs, "--out", art)
        self.run("evolve", "--train", *dirs, "--out", art)
        capsys.readouterr()
        assert cli_main(["evolve", "--train", *dirs, "--out", art]) == 2
        assert "run `evofg warmup` first" in capsys.readouterr().err

    def test_stage_commands_resume_the_settings_pretrain_saved(self, tmp_path):
        dirs, cfg_path = self.write_run_inputs(tmp_path)
        art = str(tmp_path / "artifacts")
        self.run("pretrain", "--train", *dirs, "--out", art, "--config", cfg_path,
                 "--seed", "4")
        saved = sorted(os.listdir(art))
        for command in ("warmup", "evolve"):
            with pytest.raises(SystemExit) as exit_:
                cli_main([command, "--train", *dirs, "--out", art, "--seed", "4"])
            assert exit_.value.code == 2
            assert sorted(os.listdir(art)) == saved
        self.run("warmup", "--train", *dirs, "--out", art)
        self.run("evolve", "--train", *dirs, "--out", art)

        once = str(tmp_path / "once")
        cfg = dataclasses.replace(PipelineConfig.from_json(cfg_path), seed=4)
        run_pipeline(cfg, [load_graph_dir(d) for d in dirs]).save(once)
        assert sorted(os.listdir(art)) == sorted(os.listdir(once))
        for name in os.listdir(once):
            with open(os.path.join(once, name), "rb") as a, \
                    open(os.path.join(art, name), "rb") as b:
                assert a.read() == b.read(), name

    def test_full_stagewise_flow(self, tmp_path, capsys):
        gdir = {}
        for name, seed, kind in (("tr", 21, "structural"), ("te", 22, "mixed")):
            gdir[name] = str(tmp_path / name)
            self.run("gen", "--out", gdir[name], "--nodes", "40", "--features", "8",
                     "--rate", "0.1", "--kind", kind, "--seed", str(seed))
        self.run("load", "--graph", gdir["tr"])
        out = capsys.readouterr().out
        assert "40 nodes" in out

        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump({**TINY, "expert_epochs": list(TINY["expert_epochs"]),
                       "rounds": 1, "seed": 3}, fh)

        feat_path = str(tmp_path / "features.tsv")
        self.run("features", "--graph", gdir["tr"], "--out", feat_path,
                 "--config", cfg_path)
        assert os.path.exists(feat_path)

        art = str(tmp_path / "artifacts")
        self.run("pretrain", "--train", gdir["tr"], "--out", art, "--config", cfg_path)
        assert os.path.exists(os.path.join(art, "expert_GPR.bin"))
        self.run("warmup", "--train", gdir["tr"], "--out", art)
        assert os.path.exists(os.path.join(art, "router.bin"))
        self.run("evolve", "--train", gdir["tr"], "--out", art)
        assert os.path.exists(os.path.join(art, "shapley_round_1.txt"))

        scores_path = str(tmp_path / "scores.json")
        self.run("score", "--artifacts", art, "--graph", gdir["te"],
                 "--out", scores_path)
        with open(scores_path) as fh:
            payload = json.load(fh)
        assert len(payload["scores"]) == 40

        self.run("eval", "--artifacts", art, "--test", gdir["te"])
        assert os.path.exists(os.path.join(art, "metrics.json"))
        assert not os.path.exists(os.path.join(art, "routing_frequency.txt"))
        capsys.readouterr()
        self.run("report", "--artifacts", art)
        out = capsys.readouterr().out
        assert "AUROC" in out and "selection round 1" in out
        assert out.count("LOWPASS") == 1  # the routing-frequency table, once

    def test_score_file_reads_back_as_the_scores_bit_for_bit(self, tmp_path, artifacts,
                                                             graphs):
        art, graph_dir = str(tmp_path / "artifacts"), str(tmp_path / "te_a")
        artifacts.save(art)
        save_graph(graphs[1][0], graph_dir)
        out = str(tmp_path / "scores.json")
        self.run("score", "--artifacts", art, "--graph", graph_dir, "--out", out)
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
        assert text.count("\n") == 0
        payload = json.loads(text)
        assert list(payload) == ["graph", "scores", "weights", "per_expert_scores"]
        scores, routing, per_expert = score_graph(
            RunArtifacts.load(art), load_graph_dir(graph_dir, with_labels=False))
        assert payload["graph"] == "te_a"

        def same(values, want):
            got = np.array(values, dtype=np.float64)
            return got.shape == want.shape and got.tobytes() == want.tobytes()

        assert same(payload["scores"], scores)
        assert same(payload["weights"], routing.weights)
        assert list(payload["per_expert_scores"]) == list(per_expert)
        for arch, want in per_expert.items():
            assert same(payload["per_expert_scores"][arch], want), arch

    @pytest.mark.parametrize("flags, why", [
        (["--communities", "0"], "n_communities must be >= 1"),
        (["--rate", "0.7"], "anomaly_rate must lie in (0, 0.5)"),
        (["--nodes", "10"], "n_nodes must be >= 20"),
    ])
    def test_gen_refuses_what_gen_synthetic_refuses(self, tmp_path, capsys, flags, why):
        out = tmp_path / "g"
        capsys.readouterr()
        assert cli_main(["gen", "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err == f"evofg gen: {why}\n"
        assert not out.exists()

    def test_eval_train_writes_the_report_of_evaluate_runs(self, tmp_path):
        dirs, cfg_path = self.write_run_inputs(tmp_path)
        test, out = str(tmp_path / "te"), str(tmp_path / "out")
        self.run("gen", "--out", test, "--nodes", "30", "--features", "8", "--rate", "0.1",
                 "--seed", "33")
        self.run("eval", "--train", *dirs, "--test", test, "--out", out, "--config", cfg_path)
        want = evaluate_runs(PipelineConfig.from_json(cfg_path),
                             [load_graph_dir(d) for d in dirs], [load_graph_dir(test)])
        with open(os.path.join(out, "metrics.json"), encoding="utf-8") as fh:
            assert fh.read() == report_to_json(want)
        with open(os.path.join(out, "metrics.txt"), encoding="utf-8") as fh:
            assert fh.read() == report_to_text(want)

    def test_pretrain_llm_fixtures_turn_the_chat_backend_on(self, tmp_path):
        dirs, cfg_path = self.write_run_inputs(tmp_path)
        art, fixtures = str(tmp_path / "artifacts"), str(tmp_path / "fixtures")
        self.run("pretrain", "--train", *dirs, "--out", art, "--config", cfg_path,
                 "--llm-fixtures", fixtures)
        saved = PipelineConfig.from_json(os.path.join(art, "config.json"))
        assert saved.llm == dataclasses.replace(PipelineConfig.from_json(cfg_path).llm,
                                                enabled=True, fixtures_dir=fixtures)

    @pytest.mark.parametrize("case", [
        "load a missing graph", "score missing artifacts", "load a word as a feature",
        "score a cut router file", "features at T = 0", "pretrain an unknown field",
        "pretrain a negative seed", "score a router of 10**12 rows",
        "score a router with a negative width",
    ])
    def test_bad_input_ends_in_one_line_and_status_2(self, tmp_path, capsys, artifacts, case):
        graph, missing = str(tmp_path / "g"), str(tmp_path / "missing")
        self.run("gen", "--out", graph, "--nodes", "30", "--features", "5", "--rate", "0.1")
        art, cfg, out = (str(tmp_path / name) for name in ("artifacts", "cfg.json", "out.json"))
        artifacts.save(art)
        router_file = os.path.join(art, "router.bin")
        with open(router_file, "rb") as fh:
            router_bytes = fh.read()
        argv, why, path, text = {
            "load a missing graph": (["load", "--graph", missing],
                                     "No such file or directory", None, None),
            "score missing artifacts": (
                ["score", "--artifacts", missing, "--graph", graph, "--out", out],
                os.path.join(missing, "config.json"), None, None),
            "load a word as a feature": (
                ["load", "--graph", graph], "features.txt:2: bad real value",
                os.path.join(graph, "features.txt"), "1 2\n0.5 half\n"),
            "score a cut router file": (
                ["score", "--artifacts", art, "--graph", graph, "--out", out],
                "router.bin: truncated", router_file, router_bytes[:len(router_bytes) // 2]),
            "features at T = 0": (
                ["features", "--graph", graph, "--out", out, "--config", cfg],
                f"--config {cfg}: shapley_iters must be positive", cfg, '{"T": 0}'),
            "pretrain an unknown field": (
                ["pretrain", "--train", graph, "--out", art, "--config", cfg],
                f"--config {cfg}: unknown config field 'bogus'", cfg, '{"bogus": 1}'),
            "pretrain a negative seed": (
                ["pretrain", "--train", graph, "--out", art, "--seed", "-1"],
                "seed must be nonnegative", None, None),
            "score a router of 10**12 rows": (
                ["score", "--artifacts", art, "--graph", graph, "--out", out],
                "router.bin: truncated tensor gnn_w", router_file,
                with_first_tensor_shape(router_bytes, [10**12])),
            "score a router with a negative width": (
                ["score", "--artifacts", art, "--graph", graph, "--out", out],
                "router.bin: tensor gnn_w has a dimension out of range", router_file,
                with_first_tensor_shape(router_bytes, [5, -6])),
        }[case]
        if path is not None:
            with open(path, "wb" if isinstance(text, bytes) else "w") as fh:
                fh.write(text)
        capsys.readouterr()
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"evofg {argv[0]}: ") and err.count("\n") == 1
        assert why in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("case", [
        "score under another d", "warm up under another d", "score a 3-expert router",
        "score a 6-column router", "evolve a 3-expert router",
        "score a non-UTF-8 round report", "report a non-UTF-8 metrics.txt",
        "score a GPR expert named LOWPASS", "warm up a GPR expert named LOWPASS",
    ])
    def test_artifacts_that_disagree_end_in_status_2(self, tmp_path, capsys, artifacts, case):
        """An artifacts directory whose files disagree on a width, or hold a
        report that is not UTF-8 text, is refused naming the file, before
        any graph is scored or any model trained."""
        graph, out, art = (str(tmp_path / name) for name in ("g", "out.json", "artifacts"))
        self.run("gen", "--out", graph, "--nodes", "30", "--features", "5", "--rate", "0.1")
        artifacts.save(art)
        router_file = os.path.join(art, "router.bin")
        saved = router.load_router(router_file)

        def set_config_d(d):
            with open(os.path.join(art, "config.json"), "w", encoding="utf-8") as fh:
                json.dump({**artifacts.config.to_dict(), "d": d}, fh)

        def save_router_params(**changed):
            params = {**saved.params, **changed}
            router.save_router(router.RouterModel(params, saved.names, True), router_file)

        def copy_expert(src, dst):
            shutil.copyfile(os.path.join(art, f"expert_{src}.bin"),
                            os.path.join(art, f"expert_{dst}.bin"))

        def write_bytes(name):
            with open(os.path.join(art, name), "wb") as fh:
                fh.write(b"AUROC \xff\xfe")

        score = ["score", "--artifacts", art, "--graph", graph, "--out", out]
        train = ["--train", graph, "--out", art]
        change, argv, why = {
            "score under another d": (
                lambda: set_config_d(4), score,
                "expert_LOWPASS.bin: input width 5 is not the d = 4 of config.json"),
            "warm up under another d": (
                lambda: set_config_d(4), ["warmup", *train],
                "expert_LOWPASS.bin: input width 5 is not the d = 4 of config.json"),
            "score a 3-expert router": (
                lambda: save_router_params(scale=saved.params["scale"][:3],
                                           noise_w=saved.params["noise_w"][:, :3]),
                score, "router.bin: routes 5 input columns to 3 experts"),
            "score a 6-column router": (
                lambda: save_router_params(gnn_w=np.vstack([saved.params["gnn_w"]] * 2)[:6]),
                score, "router.bin: routes 6 input columns to 4 experts"),
            "evolve a 3-expert router": (
                lambda: router.save_router(router.init_router(5, PRIMITIVE_NAMES, 6, 4, 3, 0),
                                           router_file),
                ["evolve", *train], "router.bin: routes 5 input columns to 3 experts"),
            "score a non-UTF-8 round report": (
                lambda: write_bytes("shapley_round_1.txt"), score,
                "shapley_round_1.txt: not UTF-8 text"),
            "report a non-UTF-8 metrics.txt": (
                lambda: write_bytes("metrics.txt"), ["report", "--artifacts", art],
                "metrics.txt: not UTF-8 text"),
            "score a GPR expert named LOWPASS": (
                lambda: copy_expert("GPR", "LOWPASS"), score,
                "expert_LOWPASS.bin: holds a GPR expert, not LOWPASS"),
            "warm up a GPR expert named LOWPASS": (
                lambda: copy_expert("GPR", "LOWPASS"), ["warmup", *train],
                "expert_LOWPASS.bin: holds a GPR expert, not LOWPASS"),
        }[case]
        change()
        before = sorted(os.listdir(art))
        capsys.readouterr()
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"evofg {argv[0]}: ") and err.count("\n") == 1
        assert why in err
        assert not os.path.exists(out) and sorted(os.listdir(art)) == before

    def test_every_training_rerun_deletes_the_stale_reports(self, tmp_path, capsys):
        """`evofg eval --artifacts D` writes D's metrics; a rerun of any
        training stage into D deletes them, so `evofg report` does not print
        the old model's metrics as the new one's."""
        dirs, cfg_path = self.write_run_inputs(tmp_path)
        art, test = str(tmp_path / "artifacts"), str(tmp_path / "te")
        self.run("gen", "--out", test, "--nodes", "30", "--features", "8", "--rate", "0.1",
                 "--seed", "33")
        self.run("pretrain", "--train", *dirs, "--out", art, "--config", cfg_path)
        for command in ("warmup", "evolve"):
            self.run(command, "--train", *dirs, "--out", art)
        self.run("eval", "--artifacts", art, "--test", test)
        reports = {"metrics.json", "metrics.txt"}
        for command in ("pretrain", "warmup", "evolve"):
            assert reports <= set(os.listdir(art)), command
            extra = ["--config", cfg_path, "--seed", "2"] if command == "pretrain" else []
            self.run(command, "--train", *dirs, "--out", art, *extra)
            assert not reports & set(os.listdir(art)), command
            capsys.readouterr()
            self.run("report", "--artifacts", art)
            assert "AUROC" not in capsys.readouterr().out, command
            for name in reports:
                with open(os.path.join(art, name), "w", encoding="utf-8") as fh:
                    fh.write("AUROC 0.99\n")

    def test_report_refuses_a_missing_directory(self, tmp_path, capsys):
        missing = str(tmp_path / "no_such_dir")
        capsys.readouterr()
        assert cli_main(["report", "--artifacts", missing]) == 2
        assert f"evofg report: no artifacts directory {missing}" in capsys.readouterr().err

    def test_eval_refuses_arguments_before_reading_a_graph(self, tmp_path, capsys,
                                                            monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("eval trained")

        monkeypatch.setattr("evofg.cli.evaluate_runs", no_training)
        train, test = str(tmp_path / "no_train"), str(tmp_path / "no_test")
        capsys.readouterr()
        assert cli_main(["eval", "--test", test]) == 2
        assert "evofg eval: needs --artifacts or --train" in capsys.readouterr().err
        assert cli_main(["eval", "--train", train, "--test", test, "--seed", "2"]) == 2
        assert "--train needs --out" in capsys.readouterr().err
        assert cli_main(["eval", "--train", train, "--test", test, "--out", str(tmp_path),
                         "--runs", "0"]) == 2
        assert "--runs needs at least one run" in capsys.readouterr().err

        art = tmp_path / "artifacts"
        art.mkdir()
        assert cli_main(["eval", "--train", train, "--artifacts", str(art),
                         "--test", test]) == 2
        assert "--train trains a new run, so it takes no --artifacts" in \
            capsys.readouterr().err
        for flag in (["--config", "cfg.json"], ["--seed", "99"], ["--llm-fixtures", "fx"],
                     ["--no-select"], ["--random-backend"], ["--no-memory"],
                     ["--lambda", "5"], ["--reset-final"], ["--runs", "2"]):
            assert cli_main(["eval", "--artifacts", str(art), "--test", test, *flag]) == 2
            assert f"takes no {flag[0]}\n" in capsys.readouterr().err
        assert cli_main(["eval", "--artifacts", str(art), "--test", test,
                         "--seed", "99", "--no-memory", "--lambda", "5"]) == 2
        assert "takes no --seed, --no-memory, --lambda" in capsys.readouterr().err
        assert list(art.iterdir()) == []

    def test_eval_refuses_test_graphs_sharing_a_name(self, tmp_path, capsys, monkeypatch):
        # load_graph_dir names a graph after its directory; neither graph
        # exists, so the refusal comes before any graph is read
        def no_training(*args, **kwargs):
            raise AssertionError("eval trained")

        monkeypatch.setattr("evofg.cli.evaluate_runs", no_training)
        art = tmp_path / "artifacts"
        art.mkdir()
        tests = [str(tmp_path / "a" / "g"), str(tmp_path / "b" / "g") + os.sep]
        capsys.readouterr()
        assert cli_main(["eval", "--artifacts", str(art), "--test", *tests]) == 2
        assert "evofg eval: 2 test graphs are named 'g'" in capsys.readouterr().err
        assert cli_main(["eval", "--train", str(tmp_path / "no_train"), "--out",
                         str(tmp_path / "out"), "--test", *tests]) == 2
        assert "2 test graphs are named 'g'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_save_roundtrip_subcommand(self, tmp_path):
        src = str(tmp_path / "src")
        dst = str(tmp_path / "dst")
        self.run("gen", "--out", src, "--nodes", "30", "--features", "5",
                 "--rate", "0.1", "--seed", "4")
        self.run("save", "--graph", src, "--out", dst)
        a = load_graph_dir(src)
        b = load_graph_dir(dst)
        assert graph_equals(a, b)

    def unlabeled_graph_dir(self, tmp_path):
        path = str(tmp_path / "unlabeled")
        save_graph(path_graph(6), path)
        assert not os.path.exists(os.path.join(path, "labels.txt"))
        return path

    def test_load_reports_a_graph_without_labels_as_unlabeled(self, tmp_path, capsys):
        self.run("load", "--graph", self.unlabeled_graph_dir(tmp_path))
        assert capsys.readouterr().out == "unlabeled: 6 nodes, 5 edges, 3 features, unlabeled\n"

    def test_save_reexports_a_graph_without_labels(self, tmp_path):
        src, dst = self.unlabeled_graph_dir(tmp_path), str(tmp_path / "dst")
        self.run("save", "--graph", src, "--out", dst)
        assert sorted(os.listdir(dst)) == ["edges.txt", "features.txt"]
        assert graph_equals(load_graph_dir(src, with_labels=False),
                            load_graph_dir(dst, with_labels=False))

    def test_features_creates_the_directory_of_its_out_file(self, tmp_path):
        out = str(tmp_path / "new" / "dir" / "features.tsv")
        self.run("features", "--graph", self.unlabeled_graph_dir(tmp_path), "--out", out)
        with open(out) as fh:
            assert fh.readline().rstrip("\n").split("\t") == list(PRIMITIVE_NAMES)

    def test_score_creates_the_directory_of_its_out_file(self, tmp_path, artifacts):
        art, out = str(tmp_path / "artifacts"), str(tmp_path / "new" / "dir" / "s.json")
        artifacts.save(art)
        self.run("score", "--artifacts", art, "--graph", self.unlabeled_graph_dir(tmp_path),
                 "--out", out)
        with open(out, encoding="utf-8") as fh:
            assert len(json.load(fh)["scores"]) == 6

    def test_features_of_a_graph_without_labels(self, tmp_path):
        out = str(tmp_path / "features.tsv")
        self.run("features", "--graph", self.unlabeled_graph_dir(tmp_path), "--out", out)
        with open(out) as fh:
            assert fh.readline().rstrip("\n").split("\t") == list(PRIMITIVE_NAMES)
            assert len(fh.readlines()) == 6

    def test_ablation_flags_reach_config(self, tmp_path):
        from evofg.cli import _load_config, build_parser

        args = build_parser().parse_args(
            ["pretrain", "--train", str(tmp_path / "g"), "--out", str(tmp_path / "a"),
             "--no-select", "--no-memory", "--lambda", "0",
             "--reset-final", "--random-backend", "--seed", "9"])
        cfg = _load_config(args)
        assert cfg.no_select and cfg.no_memory and cfg.random_backend
        assert cfg.reset_final
        assert cfg.lam == 0.0
        assert cfg.seed == 9
