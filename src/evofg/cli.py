"""Command-line interface: synthetic data generation, stage-wise training
(pretrain / warmup / evolve), zero-shot scoring, evaluation, and reports.

Each training command runs one stage and resumes from the artifacts
directory: ``pretrain`` writes config.json and the experts, ``warmup`` loads
them and adds router.bin, ``evolve`` loads both and writes the full
artifacts. A stage-wise run leaves the same bytes as ``run_pipeline``.
Determinism: with the chat backend disabled, (config, seed) fully determines
every output byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import json
import logging
import os
import sys


from .experts import ARCHS
from .features import compute_primitives
from .graph import gen_synthetic, load_graph_dir, save_graph
from .pipeline import (
    PipelineConfig,
    RunArtifacts,
    build_contexts,
    evaluate_runs,
    evaluate_scored,
    evolve,
    load_pretrained,
    prepare_graphs,
    pretrain_all_experts,
    report_to_json,
    report_to_text,
    routing_frequency_table,
    run_stage,
    save_pretrained,
    score_graph,
    warmup_router,
)
from .preprocess import align
from .router import load_router, save_router

log = logging.getLogger(__name__)


class ResumeError(RuntimeError):
    """A stage command cannot resume the run in its artifacts directory."""


# what each training stage adds to an artifacts directory
STAGE_OUTPUTS = {
    "pretrain": ("config.json",) + tuple(f"expert_{arch}.bin" for arch in ARCHS),
    "warmup": ("router.bin",),
    "evolve": ("features.json", "keys.bin", "shapley_round_*.txt"),
}


def _load_config(args) -> PipelineConfig:
    cfg = PipelineConfig.from_json(args.config) if args.config else PipelineConfig()
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "llm_fixtures", None):
        llm = dataclasses.replace(
            cfg.llm, fixtures_dir=args.llm_fixtures, enabled=True
        )
        overrides["llm"] = llm
    for flag in ("no_select", "random_backend", "no_memory", "reset_final"):
        if getattr(args, flag, False):
            overrides[flag] = True
    if getattr(args, "lam", None) is not None:
        overrides["lam"] = args.lam
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def _load_graphs(paths, with_labels=True):
    return [load_graph_dir(p, with_labels=with_labels) for p in paths]


def cmd_gen(args):
    g = gen_synthetic(
        n_nodes=args.nodes,
        n_features=args.features,
        anomaly_rate=args.rate,
        structure_seed=args.seed if args.seed is not None else 0,
        planted_kind=args.kind,
        n_communities=args.communities,
        name=args.name,
    )
    save_graph(g, args.out)
    print(f"wrote {g.name}: {g.num_nodes} nodes, {g.num_edges} edges, "
          f"{int(g.labels.sum())} anomalies -> {args.out}")


def cmd_save(args):
    g = load_graph_dir(args.graph)
    save_graph(g, args.out)
    print(f"re-exported {g.name} -> {args.out}")


def cmd_load(args):
    g = load_graph_dir(args.graph)
    anomalies = int(g.labels.sum()) if g.labels is not None else 0
    print(f"{g.name}: {g.num_nodes} nodes, {g.num_edges} edges, "
          f"{g.features.shape[1]} features, {anomalies} anomalies")


def cmd_features(args):
    cfg = _load_config(args)
    g = load_graph_dir(args.graph)
    aligned = align(g, cfg.d)
    table = compute_primitives(g, aligned.matrix)
    table.export_text(args.out)
    print(f"wrote {len(table.names)} feature columns for {g.num_nodes} nodes -> {args.out}")


def _resume(args, *earlier):
    """The config and experts of the run in ``args.out``, once the
    ``earlier`` stages' outputs are found there and the config given on the
    command line equals the one the pretrain stage saved."""
    cfg = _load_config(args)
    for stage in earlier:
        missing = [name for name in STAGE_OUTPUTS[stage]
                   if not os.path.exists(os.path.join(args.out, name))]
        if missing:
            raise ResumeError(
                f"{args.out} has no {', '.join(missing)}: run `evofg {stage}` first"
            )
    saved, models = load_pretrained(args.out)
    if saved != cfg:
        ours, theirs = cfg.to_dict(), saved.to_dict()
        changed = [k for k in ours if ours[k] != theirs[k]]
        raise ResumeError(
            f"the config differs from {args.out}/config.json in {', '.join(changed)}: "
            "pass the --config and flags given to `evofg pretrain`, or run it again"
        )
    return cfg, models


def _training_contexts(args, cfg, models):
    """The prepare and contexts stages on the training graphs."""
    bundles = run_stage(cfg, "prepare", prepare_graphs, _load_graphs(args.train), cfg.d)
    return bundles, run_stage(cfg, "contexts", build_contexts, bundles, models, cfg)


def _clear_outputs(out_dir, *later):
    """Delete the outputs of the ``later`` stages, which a rerun stage makes
    stale."""
    for stage in later:
        for pattern in STAGE_OUTPUTS[stage]:
            for path in glob.glob(os.path.join(out_dir, pattern)):
                os.remove(path)


def cmd_pretrain(args):
    cfg = _load_config(args)
    bundles = run_stage(cfg, "prepare", prepare_graphs, _load_graphs(args.train), cfg.d)
    models = run_stage(cfg, "pretrain", pretrain_all_experts, bundles, cfg)
    save_pretrained(args.out, cfg, models)
    _clear_outputs(args.out, "warmup", "evolve")
    print(f"pretrained {len(models)} experts -> {args.out}")


def cmd_warmup(args):
    cfg, models = _resume(args, "pretrain")
    _, contexts = _training_contexts(args, cfg, models)
    router_model = run_stage(cfg, "warmup", warmup_router, contexts, cfg)
    save_router(router_model, os.path.join(args.out, "router.bin"), contexts[0].names)
    _clear_outputs(args.out, "evolve")
    print(f"warmed up router on {len(contexts[0].names)} features -> {args.out}")


def cmd_evolve(args):
    cfg, models = _resume(args, "pretrain", "warmup")
    router_model, names = load_router(os.path.join(args.out, "router.bin"))
    bundles, contexts = _training_contexts(args, cfg, models)
    if names != contexts[0].names:
        raise ResumeError(
            f"{args.out}/router.bin routes on {len(names)} features, not on the "
            f"{len(contexts[0].names)} primitives: run `evofg warmup` first"
        )
    artifacts = run_stage(cfg, "evolve", evolve, router_model, bundles, contexts, models, cfg)
    artifacts.save(args.out)
    print(
        f"evolved {cfg.rounds} round(s); final feature set has "
        f"{len(artifacts.active_names)} active columns -> {args.out}"
    )


def cmd_score(args):
    artifacts = RunArtifacts.load(args.artifacts)
    g = load_graph_dir(args.graph, with_labels=False)
    scores, routing, per_expert = score_graph(artifacts, g)
    payload = {
        "graph": g.name,
        "scores": [float(s) for s in scores],
        "weights": [[float(x) for x in row] for row in routing.weights],
        "per_expert_scores": {a: [float(s) for s in v] for a, v in per_expert.items()},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
    print(f"scored {g.num_nodes} nodes of {g.name} -> {args.out}")


def cmd_eval(args):
    cfg = _load_config(args)
    test_graphs = _load_graphs(args.test)
    out_dir = args.out or args.artifacts
    if args.train:
        train_graphs = _load_graphs(args.train)
        report = evaluate_runs(cfg, train_graphs, test_graphs, runs=args.runs)
    else:
        artifacts = RunArtifacts.load(args.artifacts)
        scored = {}
        for g in test_graphs:
            scores, routing, per_expert = score_graph(artifacts, g)
            scored[g.name] = {
                "scores": scores,
                "labels": g.labels,
                "weights": routing.weights,
                "per_expert": per_expert,
            }
        report = evaluate_scored(scored)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "metrics.json"), "w", encoding="utf-8") as fh:
        fh.write(report_to_json(report))
    text = report_to_text(report)
    with open(os.path.join(out_dir, "metrics.txt"), "w", encoding="utf-8") as fh:
        fh.write(text)
    freq = report.get("routing_frequency") or (
        report["runs"][-1].get("routing_frequency") if report.get("runs") else {}
    )
    if freq:
        with open(
            os.path.join(out_dir, "routing_frequency.txt"), "w", encoding="utf-8"
        ) as fh:
            fh.write(routing_frequency_table(freq))
    print(text)


def cmd_report(args):
    shown = False
    for name in ("metrics.txt", "routing_frequency.txt"):
        path = os.path.join(args.artifacts, name)
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                print(fh.read())
            shown = True
    r = 1
    while True:
        path = os.path.join(args.artifacts, f"shapley_round_{r}.txt")
        if not os.path.exists(path):
            break
        print(f"--- selection round {r} ---")
        with open(path, "r", encoding="utf-8") as fh:
            print(fh.read())
        shown = True
        r += 1
    if not shown:
        print("no reports found; run `evofg eval` first")


def _add_common(p, config=True):
    if config:
        p.add_argument("--config", help="JSON config mirroring PipelineConfig fields")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--llm-fixtures", dest="llm_fixtures",
                       help="directory of recorded chat responses (enables fixture mode)")
        p.add_argument("--no-select", dest="no_select", action="store_true",
                       help="skip the selection rule (keep all generated features)")
        p.add_argument("--random-backend", dest="random_backend", action="store_true",
                       help="force the deterministic random composer")
        p.add_argument("--no-memory", dest="no_memory", action="store_true",
                       help="projection-only router (no memory retrieval)")
        p.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="variance-penalty weight override")
        p.add_argument("--reset-final", dest="reset_final", action="store_true",
                       help="fresh router initialization before the final retrain")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="evofg",
        description="Zero-shot graph anomaly detection with routed graph-encoder experts",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic anomaly graph")
    p.add_argument("--out", required=True)
    p.add_argument("--nodes", type=int, default=400)
    p.add_argument("--features", type=int, default=48)
    p.add_argument("--rate", type=float, default=0.05)
    p.add_argument("--kind", choices=("structural", "attribute", "mixed"),
                   default="mixed")
    p.add_argument("--communities", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("save", help="re-export a graph in the three-file layout")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_save)

    p = sub.add_parser("load", help="validate a graph directory and print stats")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_load)

    p = sub.add_parser("features", help="export the router-feature table")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("pretrain", help="pretrain the four experts")
    p.add_argument("--train", nargs="+", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("warmup", help="warm up the router on the primitives")
    p.add_argument("--train", nargs="+", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_warmup)

    p = sub.add_parser("evolve", help="run the generate/select/retrain rounds")
    p.add_argument("--train", nargs="+", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("score", help="score an unseen graph (labels unused)")
    p.add_argument("--artifacts", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval", help="evaluate on labeled test graphs")
    p.add_argument("--artifacts", default=None)
    p.add_argument("--train", nargs="*", default=None,
                   help="train graphs; triggers the full multi-run protocol")
    p.add_argument("--test", nargs="+", required=True)
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--out", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="print stored reports")
    p.add_argument("--artifacts", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    if args.command == "eval" and not args.train and not args.artifacts:
        print("eval needs --artifacts or --train", file=sys.stderr)
        return 2
    try:
        args.func(args)
    except ResumeError as exc:
        print(f"evofg {args.command}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
