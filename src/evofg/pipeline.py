"""End-to-end orchestration: expert pretraining, router warm-up, the
generate -> select -> retrain evolution rounds, zero-shot scoring of unseen
graphs, and metrics/report emission. All randomness is derived from the
config seed, so a run with the chat backend disabled is fully reproducible.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import dsl, experts
from .checkpoint import load_checkpoint, save_checkpoint
from .experts import ARCHS, anomaly_scores, load_expert, pretrain_expert, save_expert
from .features import compute_primitives, RouterFeatureTable
from .graph import Graph
from .llm import DEFAULT_MODEL, ChatCompletionClient, FixtureTransport, LLMBackend
from .numeric import UndefinedMetricError, auprc, auroc
from .preprocess import align
from .router import (
    RoutingContext,
    aggregate,
    freeze_node_branch,
    init_router,
    load_router,
    resize_router,
    route,
    routing_frequency,
    routing_utility,
    save_router,
    train_router,
)
from .shapley import estimate_contributions, format_stats, select_features

log = logging.getLogger(__name__)


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name and the run seed so
    the failure can be replayed."""

    def __init__(self, stage, seed, cause):
        super().__init__(f"stage {stage!r} failed with seed {seed}: {cause}")
        self.stage = stage
        self.seed = seed


@dataclass
class LLMSettings:
    base_url: str = ""
    model: str = DEFAULT_MODEL
    fixtures_dir: str = ""
    enabled: bool = False


@dataclass
class PipelineConfig:
    d: int = 32  # PCA width
    d_e: int = 32  # expert hidden width
    d_prime: int = 32  # attention width
    d_m: int = 32  # memory width
    n_memory: int = 32  # memory slots per bank
    lr: float = 1e-5
    wd: float = 5e-5
    expert_epochs: tuple = (10, 10, 10, 40)  # per ARCHS order
    warmup_epochs: int = 20
    router_epochs: int = 10
    shapley_iters: int = 20  # marginal-contribution samples per feature
    n_envs: int = 20  # masked environments per step
    lam: float = 0.8  # variance-penalty weight
    gen_per_round: int = 15
    rounds: int = 3
    z_crit: float = 1.645
    mask_rate: float = 0.3
    key_fraction: float = 0.1
    seed: int = 0
    llm: LLMSettings = field(default_factory=LLMSettings)
    # ablation toggles (each flips exactly one mechanism)
    no_select: bool = False
    random_backend: bool = False
    no_memory: bool = False
    reset_final: bool = False

    _ALIASES = {
        "T": "shapley_iters",
        "K": "n_envs",
        "lambda": "lam",
        "m": "gen_per_round",
        "R": "rounds",
        "M": "n_memory",
    }

    def __post_init__(self):
        if isinstance(self.llm, dict):
            self.llm = LLMSettings(**self.llm)
        self.expert_epochs = tuple(self.expert_epochs)
        if len(self.expert_epochs) != len(ARCHS):
            raise ValueError(f"expert_epochs needs one entry per expert: {', '.join(ARCHS)}")
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        if not 0 < self.key_fraction < 1:
            raise ValueError("key_fraction must lie in (0, 1)")
        for name in ("d", "d_e", "d_prime", "d_m", "n_memory"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @classmethod
    def from_dict(cls, data):
        known = {f.name for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, value in data.items():
            if key in ("n_experts", "E"):  # saved while the count was a field
                if value != len(ARCHS):
                    raise ValueError(f"{key}={value!r}: the experts are {', '.join(ARCHS)}")
                continue
            key = cls._ALIASES.get(key, key)
            if key not in known:
                raise ValueError(f"unknown config field {key!r}")
            kwargs[key] = value
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self):
        out = dataclasses.asdict(self)
        out["expert_epochs"] = list(self.expert_epochs)
        return out


def derive_rng(seed, *tags):
    """Deterministic child RNG for a named pipeline stage."""
    return np.random.default_rng(
        np.random.SeedSequence([seed, zlib.crc32(repr(tags).encode())])
    )


def derive_seed(seed, *tags):
    return int(derive_rng(seed, *tags).integers(2**31))


@dataclass(frozen=True)
class GraphBundle:
    graph: Graph
    xtilde: np.ndarray
    table: RouterFeatureTable


def prepare_graph(g: Graph, d: int) -> GraphBundle:
    """Alignment plus primitive features; pure in (graph, d), so cacheable."""
    aligned = align(g, d)
    table = compute_primitives(g, aligned.matrix)
    return GraphBundle(graph=g, xtilde=aligned.matrix, table=table)


def _content_digest(g: Graph) -> str:
    """Digest of what prepare_graph reads: the edges, the features and their
    shapes (names and labels are not part of it)."""
    h = hashlib.sha256()
    for arr in (g.edges, g.features):
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def prepare_graphs(graphs, d, cache=None):
    """The prepare stage: one bundle per graph. Bundles and their tables are
    values, so a cache hit is shared as is, bound to the graph passed in."""
    out = []
    for g in graphs:
        key = (_content_digest(g), d)
        if cache is not None and key in cache:
            out.append(dataclasses.replace(cache[key], graph=g))
            continue
        bundle = prepare_graph(g, d)
        if cache is not None:
            cache[key] = bundle
        out.append(bundle)
    return out


def make_backend(cfg: PipelineConfig):
    if cfg.llm.enabled and not cfg.random_backend:
        transport = (
            FixtureTransport(cfg.llm.fixtures_dir) if cfg.llm.fixtures_dir else None
        )
        client = ChatCompletionClient(
            base_url=cfg.llm.base_url or "http://localhost",
            model=cfg.llm.model,
            transport=transport,
        )
        return LLMBackend(client)
    return dsl.DeterministicBackend()


def save_pretrained(out_dir, cfg: PipelineConfig, models):
    """What the pretrain stage leaves in an artifacts directory."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
    for model in models:
        save_expert(model, os.path.join(out_dir, f"expert_{model.arch}.bin"))


def load_pretrained(out_dir):
    """(config, experts) saved by ``save_pretrained``."""
    config = PipelineConfig.from_json(os.path.join(out_dir, "config.json"))
    models = [load_expert(os.path.join(out_dir, f"expert_{arch}.bin")) for arch in ARCHS]
    return config, models


@dataclass
class RunArtifacts:
    config: PipelineConfig
    experts: list
    router: object
    provenance: list  # per-column "primitive" or FeatureExpr, table order
    active_names: list
    key_cache: dict  # arch -> stacked key embeddings from training graphs
    shapley_reports: list = field(default_factory=list)

    def save(self, out_dir):
        save_pretrained(out_dir, self.config, self.experts)
        save_router(self.router, os.path.join(out_dir, "router.bin"), self.active_names)
        with open(os.path.join(out_dir, "features.json"), "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "provenance": [dsl.expr_to_dict(p) for p in self.provenance],
                    "active": self.active_names,
                },
                fh,
                indent=2,
            )
        save_checkpoint(
            os.path.join(out_dir, "keys.bin"), {"kind": "keycache"}, self.key_cache
        )
        for r, report in enumerate(self.shapley_reports, start=1):
            with open(
                os.path.join(out_dir, f"shapley_round_{r}.txt"), "w", encoding="utf-8"
            ) as fh:
                fh.write(report)
        return out_dir

    @classmethod
    def load(cls, out_dir):
        config, models = load_pretrained(out_dir)
        router, router_names = load_router(os.path.join(out_dir, "router.bin"))
        with open(os.path.join(out_dir, "features.json"), "r", encoding="utf-8") as fh:
            feats = json.load(fh)
        if router_names != feats["active"]:
            raise ValueError(
                f"{out_dir}: router.bin routes on {len(router_names)} features that "
                f"differ from the {len(feats['active'])} active in features.json"
            )
        provenance = [dsl.expr_from_dict(p) for p in feats["provenance"]]
        header, key_cache = load_checkpoint(os.path.join(out_dir, "keys.bin"))
        if header.get("kind") != "keycache":
            raise ValueError("keys.bin is not a key cache")
        reports = []
        r = 1
        while os.path.exists(os.path.join(out_dir, f"shapley_round_{r}.txt")):
            with open(
                os.path.join(out_dir, f"shapley_round_{r}.txt"), "r", encoding="utf-8"
            ) as fh:
                reports.append(fh.read())
            r += 1
        return cls(
            config=config,
            experts=models,
            router=router,
            provenance=provenance,
            active_names=feats["active"],
            key_cache=key_cache,
            shapley_reports=reports,
        )


def run_stage(cfg: PipelineConfig, name, fn, *args):
    """``fn(*args)``, with a failure re-raised as the StageError of ``name``."""
    try:
        return fn(*args)
    except Exception as exc:
        raise StageError(name, cfg.seed, exc) from exc


def pretrain_all_experts(bundles, cfg: PipelineConfig):
    """The pretrain stage: one trained expert per architecture, ARCHS order."""
    inputs = [(b.graph, b.xtilde) for b in bundles]
    return [
        pretrain_expert(arch, inputs, cfg, derive_seed(cfg.seed, "expert", arch))[0]
        for arch in ARCHS
    ]


def build_contexts(bundles, models, cfg: PipelineConfig):
    """The contexts stage: routing material per training graph, on the
    active columns of its table."""
    return [
        RoutingContext(
            b.graph,
            b.xtilde,
            b.table,
            models,
            cfg.key_fraction,
            derive_rng(cfg.seed, "split", b.graph.name),
        )
        for b in bundles
    ]


def _new_router(cfg: PipelineConfig, d_r, tag):
    return init_router(
        cfg.d, d_r, cfg.d_m, cfg.n_memory, len(ARCHS), derive_seed(cfg.seed, tag),
        use_memory=not cfg.no_memory,
    )


def warmup_router(contexts, cfg: PipelineConfig):
    """The warm-up stage: a fresh router aligned with the experts'
    correctness targets on the contexts' features."""
    router_model = _new_router(cfg, len(contexts[0].names), "router-init")
    train_router(router_model, contexts, cfg, "warmup", derive_seed(cfg.seed, "warmup"))
    return router_model


def evolve(router_model, bundles, contexts, models, cfg: PipelineConfig) -> RunArtifacts:
    """The evolve stage on a warmed-up router (trained in place): rounds of
    generate candidates, estimate contributions with the frozen router,
    apply the retention rule and retrain, then the final retrain and the key
    cache."""
    backend = make_backend(cfg)
    gen_rng = derive_rng(cfg.seed, "generate")
    tables = [b.table for b in bundles]
    reports = []
    for r in range(1, cfg.rounds + 1):
        exprs = dsl.generate_candidates(backend, tables[0], cfg.gen_per_round, gen_rng)
        tables = [dsl.extend_table(t, exprs) for t in tables]
        contexts = [ctx.with_features(t) for ctx, t in zip(contexts, tables)]
        active = contexts[0].names
        resize_router(
            router_model, len(active), derive_seed(cfg.seed, "resize-gen", r)
        )
        # the router is frozen until the retrain below: its node branch is
        # computed once for the round's utility calls
        frozen = freeze_node_branch(router_model, contexts)
        stats = estimate_contributions(
            active,
            lambda s: routing_utility(router_model, s, frozen),
            cfg.shapley_iters,
            derive_seed(cfg.seed, "shapley", r),
        )
        kept = active if cfg.no_select else select_features(stats, cfg.z_crit)
        reports.append(format_stats(stats, kept))
        tables = [t.with_active(kept) for t in tables]
        contexts = [ctx.with_features(t) for ctx, t in zip(contexts, tables)]
        resize_router(
            router_model, len(kept), derive_seed(cfg.seed, "resize-select", r)
        )
        train_router(
            router_model, contexts, cfg, "main", derive_seed(cfg.seed, "round", r)
        )
        log.info(
            "round %d: generated %d, kept %d of %d active features",
            r, len(exprs), len(kept), len(active),
        )
    if cfg.rounds > 0:
        if cfg.reset_final:
            router_model.params = _new_router(cfg, router_model.d_r, "final-init").params
        train_router(router_model, contexts, cfg, "main", derive_seed(cfg.seed, "final"))
    return RunArtifacts(
        config=cfg,
        experts=models,
        router=router_model,
        provenance=list(tables[0].provenance),
        active_names=contexts[0].names,
        key_cache=build_key_cache(contexts),
        shapley_reports=reports,
    )


def build_key_cache(contexts):
    """The key cache: per expert, the in-context key embeddings of every
    training graph, stacked in graph order."""
    return {
        arch: np.vstack([ctx.expert_h_full[e][ctx.keys] for ctx in contexts])
        for e, arch in enumerate(ARCHS)
    }


def run_pipeline(cfg: PipelineConfig, train_graphs, prepared_cache=None) -> RunArtifacts:
    """Execute the full training pipeline on labeled source graphs: the
    stages in order, each on the values the one before returned."""
    bundles = run_stage(cfg, "prepare", prepare_graphs, train_graphs, cfg.d, prepared_cache)
    models = run_stage(cfg, "pretrain", pretrain_all_experts, bundles, cfg)
    contexts = run_stage(cfg, "contexts", build_contexts, bundles, models, cfg)
    router_model = run_stage(cfg, "warmup", warmup_router, contexts, cfg)
    return run_stage(cfg, "evolve", evolve, router_model, bundles, contexts, models, cfg)


def score_graph(artifacts: RunArtifacts, g: Graph, prepared_cache=None):
    """Zero-shot scoring of an unseen graph: rebuild the final feature set on
    its primitives, route deterministically, aggregate, and score. Labels are
    never consulted; every node is a query.

    Returns (scores, routing_output, per_expert_scores).
    """
    bundle = prepare_graphs([g], artifacts.config.d, prepared_cache)[0]
    table = dsl.rebuild_columns(bundle.table, artifacts.provenance, artifacts.active_names)

    expert_h = []
    expert_recon = []
    per_expert_scores = {}
    for model in artifacts.experts:
        h = experts.encode(model, bundle.xtilde, g)
        recon = experts.reconstruct(model, h, artifacts.key_cache[model.arch])
        expert_h.append(h)
        expert_recon.append(recon)
        per_expert_scores[model.arch] = anomaly_scores(h, recon)

    routing = route(artifacts.router, bundle.xtilde, g, table.standardized_active())
    h_final, recon_final = aggregate(routing.weights, expert_h, expert_recon)
    scores = anomaly_scores(h_final, recon_final)
    return scores, routing, per_expert_scores


def score_labeled(artifacts: RunArtifacts, graphs, prepared_cache=None):
    """Zero-shot scores of labeled graphs in the form ``evaluate_scored``
    reads, keyed by graph name."""
    scored = {}
    for g in graphs:
        scores, routing, per_expert = score_graph(artifacts, g, prepared_cache)
        scored[g.name] = {
            "scores": scores,
            "labels": g.labels,
            "weights": routing.weights,
            "per_expert": per_expert,
        }
    return scored


def evaluate_scored(scored):
    """Per-graph AUROC/AUPRC plus routing frequency for scored graphs.

    ``scored`` maps graph name -> dict with scores, labels, weights, and
    optional per-expert score dicts.
    """
    report = {"per_graph": {}, "routing_frequency": {}}
    aurocs, auprcs = [], []
    for name in sorted(scored):
        entry = scored[name]
        labels = entry["labels"]
        row = {}
        try:
            row["auroc"] = auroc(entry["scores"], labels)
            row["auprc"] = auprc(entry["scores"], labels)
            aurocs.append(row["auroc"])
            auprcs.append(row["auprc"])
        except UndefinedMetricError:
            row["auroc"] = row["auprc"] = None
            row["undefined"] = True
        if "per_expert" in entry:
            row["per_expert_auroc"] = {}
            for arch, sc in entry["per_expert"].items():
                try:
                    row["per_expert_auroc"][arch] = auroc(sc, labels)
                except UndefinedMetricError:
                    row["per_expert_auroc"][arch] = None
        report["per_graph"][name] = row
        if "weights" in entry:
            report["routing_frequency"][name] = [
                float(x) for x in routing_frequency(entry["weights"])
            ]
    if aurocs:
        report["mean_auroc"] = float(np.mean(aurocs))
        report["mean_auprc"] = float(np.mean(auprcs))
    return report


def evaluate_runs(cfg: PipelineConfig, train_graphs, test_graphs, runs=1,
                  prepared_cache=None):
    """The multi-seed protocol: full pipelines at seeds seed..seed+runs-1,
    per-graph metrics aggregated as mean and standard deviation."""
    run_reports = []
    for i in range(runs):
        run_cfg = dataclasses.replace(cfg, seed=cfg.seed + i)
        artifacts = run_pipeline(run_cfg, train_graphs, prepared_cache=prepared_cache)
        run_reports.append(
            evaluate_scored(score_labeled(artifacts, test_graphs, prepared_cache))
        )
    report = {"runs": run_reports, "n_runs": runs, "base_seed": cfg.seed}
    names = sorted(run_reports[0]["per_graph"])
    agg = {}
    for name in names:
        vals_roc = [r["per_graph"][name]["auroc"] for r in run_reports]
        vals_prc = [r["per_graph"][name]["auprc"] for r in run_reports]
        if any(v is None for v in vals_roc):
            agg[name] = {"undefined": True}
            continue
        agg[name] = {
            "auroc_mean": float(np.mean(vals_roc)),
            "auroc_std": float(np.std(vals_roc)),
            "auprc_mean": float(np.mean(vals_prc)),
            "auprc_std": float(np.std(vals_prc)),
        }
    report["aggregate"] = agg
    means = [r.get("mean_auroc") for r in run_reports if r.get("mean_auroc") is not None]
    if means:
        report["mean_auroc_over_runs"] = float(np.mean(means))
    return report


def report_to_json(report) -> str:
    return json.dumps(report, indent=2, sort_keys=True, default=float) + "\n"


def report_to_text(report) -> str:
    """Aligned, human-readable metrics and routing-frequency tables."""
    lines = []
    if "aggregate" in report:
        lines.append(f"{'graph':<28} {'AUROC':>16} {'AUPRC':>16}")
        for name, row in sorted(report["aggregate"].items()):
            if row.get("undefined"):
                lines.append(f"{name:<28} {'undefined':>16} {'undefined':>16}")
                continue
            lines.append(
                f"{name:<28} "
                f"{row['auroc_mean']:.4f} ± {row['auroc_std']:.4f} "
                f"{row['auprc_mean']:.4f} ± {row['auprc_std']:.4f}"
            )
        if "mean_auroc_over_runs" in report:
            lines.append(f"mean AUROC over runs: {report['mean_auroc_over_runs']:.4f}")
        freq_src = report["runs"][-1] if report.get("runs") else {}
    else:
        lines.append(f"{'graph':<28} {'AUROC':>8} {'AUPRC':>8}")
        for name, row in sorted(report.get("per_graph", {}).items()):
            if row.get("undefined"):
                lines.append(f"{name:<28} {'undef':>8} {'undef':>8}")
            else:
                lines.append(f"{name:<28} {row['auroc']:>8.4f} {row['auprc']:>8.4f}")
        freq_src = report
    freq = freq_src.get("routing_frequency", {})
    if freq:
        lines.append("")
        lines.append("soft routing frequency (rows sum to 1):")
        lines.append(f"{'graph':<28} " + " ".join(f"{a:>10}" for a in ARCHS))
        for name, row in sorted(freq.items()):
            lines.append(f"{name:<28} " + " ".join(f"{x:>10.4f}" for x in row))
    return "\n".join(lines) + "\n"


def routing_frequency_table(freqs: dict) -> str:
    lines = ["graph\t" + "\t".join(ARCHS)]
    for name, row in sorted(freqs.items()):
        lines.append(name + "\t" + "\t".join("%.6f" % x for x in row))
    return "\n".join(lines) + "\n"
