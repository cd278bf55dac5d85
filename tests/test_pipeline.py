import builtins
import json
import os

import numpy as np
import pytest

from evofg import pipeline
from evofg.cli import main as cli_main
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
    warmup_router,
)
from helpers import degenerate_graphs, full_forward_utility

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
        assert all(m.trained for m in artifacts.experts)
        assert len(artifacts.shapley_reports) == 2
        assert len(artifacts.active_names) == artifacts.router.d_r
        assert set(artifacts.key_cache) == {"LOWPASS", "ATTENTION", "CHEBY", "GPR"}

    def test_generated_features_in_provenance(self, artifacts):
        generated = [p for p in artifacts.provenance if p != "primitive"]
        assert generated  # two rounds of four candidates each

    def test_round_zero_is_warmup_only_baseline(self, graphs):
        train, _ = graphs
        art = run_pipeline(tiny_cfg(seed=6, rounds=0), train, prepared_cache={})
        assert all(p == "primitive" for p in art.provenance)
        assert len(art.active_names) == 23
        assert art.shapley_reports == []

    def test_stage_error_names_stage_and_seed(self):
        bad = Graph(4, [(0, 1)], np.zeros((4, 2)), np.array([1, 1, 1, 1]))
        with pytest.raises(StageError) as err:
            run_pipeline(tiny_cfg(seed=7), [bad])
        assert err.value.stage in ("prepare", "pretrain", "contexts")
        assert err.value.seed == 7

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


    def test_each_round_evaluates_subsets_on_its_own_frozen_router(self, graphs,
                                                                   monkeypatch):
        train, _ = graphs
        cfg = tiny_cfg(seed=12)
        bundles = prepare_graphs(train, cfg.d, {})
        models = pretrain_all_experts(bundles, cfg)
        contexts = build_contexts(bundles, models, cfg)
        router_model = warmup_router(contexts, cfg)
        rounds = []  # (frozen material, contexts it was built from, gnn_w then)
        calls = []

        def recording_freeze(model, ctxs):
            frozen = real_freeze(model, ctxs)
            rounds.append((frozen, ctxs, model.params["gnn_w"].copy()))
            return frozen

        def checking_utility(model, subset, frozen):
            r = next(i for i, (f, _, _) in enumerate(rounds) if f is frozen)
            assert r == len(rounds) - 1  # the current round's material
            value = real_utility(model, subset, frozen)
            ref = full_forward_utility(model, subset, rounds[r][1])
            assert value == pytest.approx(ref, rel=1e-12)
            calls.append(r)
            return value

        real_freeze, real_utility = pipeline.freeze_node_branch, pipeline.routing_utility
        monkeypatch.setattr(pipeline, "freeze_node_branch", recording_freeze)
        monkeypatch.setattr(pipeline, "routing_utility", checking_utility)
        evolve(router_model, bundles, contexts, models, cfg)

        assert len(rounds) == cfg.rounds
        for r, (frozen, _, _) in enumerate(rounds):
            assert calls.count(r) == cfg.shapley_iters * (len(frozen[0].names) + 2)
        # round 2 runs on a router the round-1 retrain changed in place
        assert not np.array_equal(rounds[0][2], rounds[1][2])


class TestScoreGraph:
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
        table = dsl.rebuild_columns(bundle.table, art.provenance, art.active_names)
        ctx = build_contexts([bundle], art.experts, cfg)[0]
        routing = route(art.router, bundle.xtilde, bundle.graph,
                        table.standardized_active())
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
        with pytest.raises(ValueError, match="router.bin"):
            RunArtifacts.load(out)

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
        rep = evaluate_scored(
            {"g": {"scores": np.ones(4), "labels": np.zeros(4, dtype=int)}}
        )
        assert rep["per_graph"]["g"]["undefined"]

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

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(lam=-0.5)
        with pytest.raises(ValueError):
            PipelineConfig(key_fraction=1.5)

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
        for command in ("pretrain", "warmup", "evolve"):
            self.run(command, "--train", *dirs, "--out", staged, "--config", cfg_path)
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
            assert cli_main([command, "--train", *dirs, "--out", art,
                             "--config", cfg_path]) == 2
            assert "run `evofg pretrain` first" in capsys.readouterr().err
        self.run("pretrain", "--train", *dirs, "--out", art, "--config", cfg_path)
        assert cli_main(["evolve", "--train", *dirs, "--out", art,
                         "--config", cfg_path]) == 2
        assert "run `evofg warmup` first" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(art, "features.json"))
        # evolve resumes from the warmed-up router, which a finished run has replaced
        self.run("warmup", "--train", *dirs, "--out", art, "--config", cfg_path)
        self.run("evolve", "--train", *dirs, "--out", art, "--config", cfg_path)
        capsys.readouterr()
        assert cli_main(["evolve", "--train", *dirs, "--out", art,
                         "--config", cfg_path]) == 2
        assert "run `evofg warmup` first" in capsys.readouterr().err

    def test_stage_commands_reject_a_different_config(self, tmp_path, capsys):
        dirs, cfg_path = self.write_run_inputs(tmp_path)
        art = str(tmp_path / "artifacts")
        self.run("pretrain", "--train", *dirs, "--out", art, "--config", cfg_path)
        capsys.readouterr()
        reseeded = ["--train", *dirs, "--out", art, "--config", cfg_path, "--seed", "4"]
        assert cli_main(["warmup", *reseeded]) == 2
        assert not os.path.exists(os.path.join(art, "router.bin"))
        errors = capsys.readouterr().err
        self.run("warmup", "--train", *dirs, "--out", art, "--config", cfg_path)
        assert cli_main(["evolve", *reseeded]) == 2
        assert not os.path.exists(os.path.join(art, "features.json"))
        errors = (errors + capsys.readouterr().err).splitlines()
        assert len(errors) == 2
        for err in errors:
            assert "config differs" in err and "in seed:" in err

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
        self.run("warmup", "--train", gdir["tr"], "--out", art, "--config", cfg_path)
        assert os.path.exists(os.path.join(art, "router.bin"))
        self.run("evolve", "--train", gdir["tr"], "--out", art, "--config", cfg_path)
        assert os.path.exists(os.path.join(art, "shapley_round_1.txt"))

        scores_path = str(tmp_path / "scores.json")
        self.run("score", "--artifacts", art, "--graph", gdir["te"],
                 "--out", scores_path)
        with open(scores_path) as fh:
            payload = json.load(fh)
        assert len(payload["scores"]) == 40

        self.run("eval", "--artifacts", art, "--test", gdir["te"])
        assert os.path.exists(os.path.join(art, "metrics.json"))
        assert os.path.exists(os.path.join(art, "routing_frequency.txt"))
        self.run("report", "--artifacts", art)
        out = capsys.readouterr().out
        assert "AUROC" in out and "selection round 1" in out

    def test_save_roundtrip_subcommand(self, tmp_path):
        src = str(tmp_path / "src")
        dst = str(tmp_path / "dst")
        self.run("gen", "--out", src, "--nodes", "30", "--features", "5",
                 "--rate", "0.1", "--seed", "4")
        self.run("save", "--graph", src, "--out", dst)
        a = load_graph_dir(src)
        b = load_graph_dir(dst)
        assert a.equals(b)

    def test_ablation_flags_reach_config(self, tmp_path):
        from evofg.cli import _load_config, build_parser

        args = build_parser().parse_args(
            ["evolve", "--train", str(tmp_path / "g"), "--out", str(tmp_path / "a"),
             "--no-select", "--no-memory", "--lambda", "0",
             "--reset-final", "--random-backend", "--seed", "9"])
        cfg = _load_config(args)
        assert cfg.no_select and cfg.no_memory and cfg.random_backend
        assert cfg.reset_final
        assert cfg.lam == 0.0
        assert cfg.seed == 9
