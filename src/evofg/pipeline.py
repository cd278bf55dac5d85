"""End-to-end orchestration: expert pretraining, router warm-up, the
generate -> select -> retrain evolution rounds, zero-shot scoring of unseen
graphs, and metrics/report emission. All randomness is derived from the
config seed, so a run with the chat backend disabled is fully reproducible.
"""

from __future__ import annotations

import dataclasses
import glob
import hashlib
import json
import logging
import math
import numbers
import os
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import dsl, experts
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .experts import ARCHS, anomaly_scores, load_expert, pretrain_expert, save_expert
from .features import (
    PRIMITIVE_NAMES,
    RouterFeatureTable,
    compute_primitives,
    share_tasks,
    sharing_pays,
)
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

    # the integer fields that each step needs at least one of; every other
    # integer field may be zero
    _POSITIVE = ("d", "d_e", "d_prime", "d_m", "n_memory", "shapley_iters", "n_envs")

    def __post_init__(self):
        if isinstance(self.llm, dict):
            unknown = sorted(set(self.llm) - {f.name for f in dataclasses.fields(LLMSettings)})
            if unknown:
                raise ValueError(f"unknown llm field {unknown[0]!r}")
            self.llm = LLMSettings(**self.llm)
        if not isinstance(self.llm, LLMSettings):
            raise ValueError(f"llm must be an object of chat settings, not {self.llm!r}")
        if not (isinstance(self.expert_epochs, (list, tuple))
                and len(self.expert_epochs) == len(ARCHS)):
            raise ValueError(f"expert_epochs needs one entry per expert: {', '.join(ARCHS)}")
        self.expert_epochs = tuple(self.expert_epochs)
        for epochs in self.expert_epochs:
            _check_field("expert_epochs", "int", epochs)
        for obj, prefix in ((self, ""), (self.llm, "llm.")):
            for f in dataclasses.fields(obj):
                _check_field(prefix + f.name, f.type, getattr(obj, f.name),
                             f.name in self._POSITIVE)
        if not self.mask_rate <= 1:
            raise ValueError(f"mask_rate must lie in [0, 1], not {self.mask_rate!r}")
        if not 0 < self.key_fraction < 1:
            raise ValueError("key_fraction must lie in (0, 1)")

    @classmethod
    def from_dict(cls, data):
        known = {f.name for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, value in data.items():
            if key in ("n_experts", "E"):  # saved while the count was a field
                if value != len(ARCHS):
                    raise ValueError(f"{key}={value!r}: the experts are {', '.join(ARCHS)}")
                continue
            if key == "z_crit":  # saved while the retention rule read it
                continue
            name = cls._ALIASES.get(key, key)
            if name not in known:
                raise ValueError(f"unknown config field {key!r}")
            if name in kwargs:
                first = next(k for k in data if cls._ALIASES.get(k, k) == name)
                raise ValueError(f"{first!r} and {key!r} both set {name}")
            kwargs[name] = value
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self):
        out = dataclasses.asdict(self)
        out["expert_epochs"] = list(self.expert_epochs)
        return out


def _check_field(name, kind, value, positive=False):
    """Raise a ValueError naming ``name`` unless ``value`` fits the declared
    type ``kind`` of its field: an int is a count, at least 1 if
    ``positive``; a float is finite and nonnegative; a bool or a str is one."""
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if kind == "int" and not (number and isinstance(value, numbers.Integral)
                              and value >= (1 if positive else 0)):
        raise ValueError(f"{name} must be {'positive' if positive else 'nonnegative'} "
                         f"and an integer, not {value!r}")
    if kind == "float" and not (number and 0 <= value < math.inf):
        raise ValueError(f"{name} must be finite and nonnegative, not {value!r}")
    if kind in ("bool", "str") and not isinstance(value, {"bool": bool, "str": str}[kind]):
        raise ValueError(f"{name} must be a {kind}, not {value!r}")


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


def prepare_graph(g: Graph, d: int, xtilde=None) -> GraphBundle:
    """Alignment (unless ``xtilde`` holds it already) plus primitive
    features; pure in (graph, d), so cacheable."""
    xtilde = align(g, d) if xtilde is None else xtilde
    return GraphBundle(graph=g, xtilde=xtilde, table=compute_primitives(g, xtilde))


def _content_digest(g: Graph) -> str:
    """Digest of what prepare_graph reads: the edges, the features and their
    shapes (names and labels are not part of it)."""
    h = hashlib.sha256()
    for arr in (g.edges, g.features):
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _cache_key(g: Graph, d: int):
    # a graph's arrays are read-only, so its digest is kept beside its
    # other derived operators
    if "digest" not in g._ops:
        g._ops["digest"] = _content_digest(g)
    return (g._ops["digest"], d)


def prepare_graphs(graphs, d, cache=None, aligned=None):
    """The prepare stage: one bundle per graph. Bundles and their tables are
    values, so a cache hit is shared as is, bound to the graph passed in.
    ``aligned``, if given, holds each graph's alignment, already made."""
    cache = {} if cache is None else cache
    out = []
    for i, g in enumerate(graphs):
        key = _cache_key(g, d)
        if key not in cache:
            cache[key] = (prepare_graph(g, d) if aligned is None
                          else prepare_graph(g, d, aligned[i]))
        out.append(dataclasses.replace(cache[key], graph=g))
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


# an artifacts directory's files; templates take an architecture or a round
CONFIG_FILE = "config.json"
EXPERT_FILE = "expert_{}.bin"
ROUTER_FILE = "router.bin"
FEATURES_FILE = "features.json"
KEYS_FILE = "keys.bin"
ROUND_FILE = "shapley_round_{}.txt"

# what each training stage adds to an artifacts directory
STAGE_OUTPUTS = {
    "pretrain": (CONFIG_FILE,) + tuple(EXPERT_FILE.format(arch) for arch in ARCHS),
    "warmup": (ROUTER_FILE,),
    "evolve": (FEATURES_FILE, KEYS_FILE, ROUND_FILE.format("*")),
}


def save_pretrained(out_dir, cfg: PipelineConfig, models):
    """What the pretrain stage leaves in an artifacts directory."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, CONFIG_FILE), "w", encoding="utf-8") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
    for model in models:
        save_expert(model, os.path.join(out_dir, EXPERT_FILE.format(model.arch)))


def load_pretrained(out_dir):
    """(config, experts) saved by ``save_pretrained``."""
    config = PipelineConfig.from_json(os.path.join(out_dir, CONFIG_FILE))
    models = [load_expert(os.path.join(out_dir, EXPERT_FILE.format(arch))) for arch in ARCHS]
    return config, models


def save_router_file(out_dir, router_model):
    """The warm-up stage's router, which the evolve stage replaces."""
    save_router(router_model, os.path.join(out_dir, ROUTER_FILE))


def load_router_file(out_dir):
    """The router saved by ``save_router_file``."""
    return load_router(os.path.join(out_dir, ROUTER_FILE))


def load_round_reports(out_dir):
    """The selection reports saved for rounds 1, 2, ... up to the first gap."""
    reports = []
    while True:
        path = os.path.join(out_dir, ROUND_FILE.format(len(reports) + 1))
        if not os.path.exists(path):
            return reports
        with open(path, "r", encoding="utf-8") as fh:
            reports.append(fh.read())


@dataclass
class RunArtifacts:
    config: PipelineConfig
    experts: list
    router: object
    provenance: list  # per-column "primitive" or FeatureExpr, table order
    key_cache: dict  # arch -> stacked key embeddings from training graphs
    shapley_reports: list = field(default_factory=list)

    @property
    def active_names(self):
        """The kept feature columns: those the router reads."""
        return self.router.names

    def save(self, out_dir):
        save_pretrained(out_dir, self.config, self.experts)
        save_router_file(out_dir, self.router)
        provenance = [dsl.expr_to_dict(p) for p in self.provenance]
        with open(os.path.join(out_dir, FEATURES_FILE), "w", encoding="utf-8") as fh:
            json.dump({"provenance": provenance, "active": self.active_names}, fh, indent=2)
        save_checkpoint(os.path.join(out_dir, KEYS_FILE), {"kind": "keycache"}, self.key_cache)
        # an earlier run's reports would be loaded as rounds of this one
        for path in glob.glob(os.path.join(out_dir, ROUND_FILE.format("*"))):
            os.remove(path)
        for r, report in enumerate(self.shapley_reports, start=1):
            with open(os.path.join(out_dir, ROUND_FILE.format(r)), "w", encoding="utf-8") as fh:
                fh.write(report)
        return out_dir

    @classmethod
    def load(cls, out_dir):
        config, models = load_pretrained(out_dir)
        router = load_router_file(out_dir)
        provenance, active = load_features(os.path.join(out_dir, FEATURES_FILE))
        if router.names != active:
            raise CheckpointError(
                f"{out_dir}: {ROUTER_FILE} routes on {len(router.names)} features that "
                f"differ from the {len(active)} active in {FEATURES_FILE}"
            )
        keys_path = os.path.join(out_dir, KEYS_FILE)
        _, key_cache = load_checkpoint(keys_path, "keycache")
        widths = {m.arch: m.dims[1] for m in models}
        if set(key_cache) != set(widths) or not all(
            k.ndim == 2 and len(k) > 0 and k.shape[1] == widths[a] for a, k in key_cache.items()
        ):
            raise CheckpointError(
                f"{keys_path}: needs one array per expert ({', '.join(ARCHS)}), "
                f"each with at least one row and its expert's d_e columns"
            )
        return cls(
            config=config,
            experts=models,
            router=router,
            provenance=provenance,
            key_cache=key_cache,
            shapley_reports=load_round_reports(out_dir),
        )


def load_features(path):
    """(provenance, active names) saved in a ``features.json``. Raises
    CheckpointError, naming the file, unless it is an object whose list
    ``provenance`` holds this version's primitives, then expressions that
    read only earlier columns, and whose list ``active`` names columns."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            feats = json.load(fh)
        if not (isinstance(feats, dict) and isinstance(feats.get("provenance"), list)
                and isinstance(feats.get("active"), list)):
            raise ValueError("needs an object with the lists provenance and active")
        provenance = [dsl.expr_from_dict(p) for p in feats["provenance"]]
        n = len(PRIMITIVE_NAMES)
        if provenance[:n] != ["primitive"] * n or "primitive" in provenance[n:]:
            raise ValueError(f"holds {provenance.count('primitive')} primitives; this "
                             f"version reads its {n} ahead of every expression")
        defined = list(PRIMITIVE_NAMES)
        for expr in provenance[n:]:
            _require_defined(expr.name, expr.args, defined)
            if expr.name in defined:
                raise ValueError(f"{expr.name} is defined twice")
            defined.append(expr.name)
        _require_defined("active", feats["active"], defined)
    except ValueError as exc:  # ExprValidationError and JSON errors among them
        raise CheckpointError(f"{path}: {exc}") from exc
    return provenance, feats["active"]


def _require_defined(reader, names, defined):
    unknown = [a for a in names if a not in defined]
    if unknown:
        raise ValueError(f"{reader} names {unknown}, defined by no earlier column")


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
    """The contexts stage: routing material per training graph, with its
    primitive table."""
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


def _new_router(cfg: PipelineConfig, names, tag):
    return init_router(
        cfg.d, names, cfg.d_m, cfg.n_memory, len(ARCHS), derive_seed(cfg.seed, tag),
        use_memory=not cfg.no_memory,
    )


def warmup_router(contexts, cfg: PipelineConfig):
    """The warm-up stage: a fresh router aligned with the experts'
    correctness targets on every column of the contexts' tables."""
    router_model = _new_router(cfg, contexts[0].table.names, "router-init")
    train_router(router_model, contexts, cfg, "warmup", derive_seed(cfg.seed, "warmup"))
    return router_model


def evolve(router_model, contexts, models, cfg: PipelineConfig) -> RunArtifacts:
    """The evolve stage on a warmed-up router (trained in place): rounds of
    generate candidates from the columns the router reads (its names), drop
    those constant on every context, estimate contributions with the frozen
    router, apply the retention rule and retrain, then the final retrain
    and the key cache."""
    backend = make_backend(cfg)
    gen_rng = derive_rng(cfg.seed, "generate")
    reports = []
    for r in range(1, cfg.rounds + 1):
        exprs = dsl.generate_candidates(backend, contexts[0].table, router_model.names,
                                        cfg.gen_per_round, gen_rng)
        contexts = [ctx.with_features(dsl.extend_table(ctx.table, exprs)) for ctx in contexts]
        candidates, dropped = _without_constant_columns(
            contexts, router_model.names + [e.name for e in exprs])
        resize_router(router_model, candidates, derive_seed(cfg.seed, "resize-gen", r))
        # the router is frozen until the retrain below: its node branch is
        # computed once for the round's utility calls
        frozen = freeze_node_branch(router_model, contexts)
        stats = estimate_contributions(
            candidates,
            lambda s: routing_utility(router_model, s, frozen),
            cfg.shapley_iters,
            derive_seed(cfg.seed, "shapley", r),
        )
        kept = candidates if cfg.no_select else select_features(stats)
        reports.append(format_stats(stats, kept, dropped))
        resize_router(router_model, kept, derive_seed(cfg.seed, "resize-select", r))
        train_router(router_model, contexts, cfg, "main", derive_seed(cfg.seed, "round", r))
        log.info("round %d: generated %d, dropped %d constant, kept %d of %d candidates",
                 r, len(exprs), len(dropped), len(kept), len(candidates))
    if cfg.rounds > 0:
        if cfg.reset_final:
            router_model.params = _new_router(cfg, router_model.names, "final-init").params
        train_router(router_model, contexts, cfg, "main", derive_seed(cfg.seed, "final"))
    return RunArtifacts(
        config=cfg,
        experts=models,
        router=router_model,
        provenance=list(contexts[0].table.provenance),
        key_cache=build_key_cache(contexts),
        shapley_reports=reports,
    )


def _without_constant_columns(contexts, names):
    """(kept, dropped): ``names`` split into the columns that vary on some
    context and those that are constant, and so standardize to zeros, on
    every one of them. Nothing is dropped when no column varies: a
    contribution estimate needs a column."""
    varies = np.any([ctx.table.standardized(names).any(axis=0) for ctx in contexts], axis=0)
    if not varies.any():
        return names, []
    return ([n for n, v in zip(names, varies) if v],
            [n for n, v in zip(names, varies) if not v])


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
    return run_stage(cfg, "evolve", evolve, router_model, contexts, models, cfg)


def score_graph(artifacts: RunArtifacts, g: Graph, prepared_cache=None):
    """Zero-shot scoring of an unseen graph: rebuild the final feature set on
    its primitives, route deterministically, aggregate, and score. Labels are
    never consulted; every node is a query.

    After the alignment two independent branches run, shared between two
    threads where that pays (``features.sharing_pays``): the features (the
    prepare stage on the aligned graph, which finds the primitives in
    ``prepared_cache`` or adds them there, the rebuilt columns and the
    routing) and the experts (each one's encoding and reconstruction).

    Returns (scores, routing_output, per_expert_scores).
    """
    d = artifacts.config.d
    cache = {} if prepared_cache is None else prepared_cache
    hit = cache.get(_cache_key(g, d))
    xtilde = align(g, d) if hit is None else hit.xtilde

    def feature_branch():
        (bundle,) = prepare_graphs([g], d, cache, [xtilde])
        names = artifacts.router.names
        table = dsl.rebuild_columns(bundle.table, artifacts.provenance, names)
        return route(artifacts.router, xtilde, g, table.standardized(names))

    def expert_branch():
        expert_h = [experts.encode(model, xtilde, g) for model in artifacts.experts]
        return expert_h, [experts.reconstruct(model, h, artifacts.key_cache[model.arch])
                          for model, h in zip(artifacts.experts, expert_h)]

    routing, (expert_h, expert_recon) = share_tasks(
        [feature_branch, expert_branch], share=sharing_pays(g.num_nodes))
    per_expert_scores = {model.arch: anomaly_scores(h, recon)
                         for model, h, recon in zip(artifacts.experts, expert_h, expert_recon)}
    h_final, recon_final = aggregate(routing.weights, expert_h, expert_recon)
    scores = anomaly_scores(h_final, recon_final)
    return scores, routing, per_expert_scores


def check_unique_names(names):
    """Raise ValueError on a graph name given twice: results are keyed by
    graph name, so one of the two would be dropped."""
    names = list(names)
    for name in names:
        if names.count(name) > 1:
            raise ValueError(f"{names.count(name)} test graphs are named {name!r}")


def score_labeled(artifacts: RunArtifacts, graphs, prepared_cache=None):
    """Zero-shot scores of labeled graphs in the form ``evaluate_scored``
    reads, keyed by graph name, which must be unique."""
    check_unique_names(g.name for g in graphs)
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
    """Per-graph AUROC/AUPRC, routing frequency, largest |w - 1/E| and mean
    row entropy of the routing weights (``routing_entropy``) for scored graphs.

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
            w = np.asarray(entry["weights"], dtype=np.float64)
            logw = np.log(w, out=np.zeros_like(w), where=w > 0)
            row["max_weight_deviation"] = float(np.abs(w - 1.0 / w.shape[1]).max())
            row["routing_entropy"] = float(0.0 - (w * logw).sum(axis=1).mean())  # 0.0, not -0.0
    if aurocs:
        report["mean_auroc"] = float(np.mean(aurocs))
        report["mean_auprc"] = float(np.mean(auprcs))
    return report


def evaluate_runs(cfg: PipelineConfig, train_graphs, test_graphs, runs=1,
                  prepared_cache=None):
    """The multi-seed protocol: full pipelines at seeds seed..seed+runs-1 on
    one prepared cache, per-graph metrics aggregated as mean and std."""
    check_unique_names(g.name for g in test_graphs)
    prepared_cache = {} if prepared_cache is None else prepared_cache
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
    else:
        lines.append(f"{'graph':<28} {'AUROC':>8} {'AUPRC':>8}")
        for name, row in sorted(report.get("per_graph", {}).items()):
            if row.get("undefined"):
                lines.append(f"{name:<28} {'undef':>8} {'undef':>8}")
            else:
                lines.append(f"{name:<28} {row['auroc']:>8.4f} {row['auprc']:>8.4f}")
    # a multi-run report shows its last run's frequencies
    last = report["runs"][-1] if report.get("runs") else report
    freq = last.get("routing_frequency")
    if freq:
        lines.append("")
        lines.append("soft routing frequency (rows sum to 1), largest |w - 1/E|, mean entropy:")
        lines.append(f"{'graph':<28} " + " ".join(f"{a:>10}" for a in ARCHS + ("dev", "entropy")))
        for name, row in sorted(freq.items()):
            g = last["per_graph"][name]
            lines.append(f"{name:<28} " + " ".join(f"{x:>10.4f}" for x in row)
                         + f" {g['max_weight_deviation']:>10.2e} {g['routing_entropy']:>10.4f}")
    return "\n".join(lines) + "\n"

