"""Command-line interface: synthetic data generation, stage-wise training
(pretrain / warmup / evolve), zero-shot scoring, evaluation, and reports.

Each training command runs one stage and resumes from the artifacts
directory: ``pretrain`` writes the config and the experts, ``warmup`` loads
them and adds the router, ``evolve`` loads both and writes the full
artifacts, so only ``pretrain`` takes run settings. A stage-wise run leaves
the same bytes as ``run_pipeline``.
Determinism: with the chat backend disabled and BLAS on one thread, as the
benchmark and ``tools/exactness.py`` pin it, (config, seed) fully determines
every output byte; more BLAS threads may move last bits (ROADMAP item 10).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import glob
import json
import logging
import os
import sys

from .checkpoint import CheckpointError
from .features import PRIMITIVE_NAMES, compute_primitives
from .graph import LABEL_FILE, GraphFormatError, gen_synthetic, load_graph_dir, save_graph
from .pipeline import (
    ROUTER_FILE,
    STAGE_OUTPUTS,
    PipelineConfig,
    RunArtifacts,
    build_contexts,
    check_unique_names,
    evaluate_runs,
    evaluate_scored,
    evolve,
    load_pretrained,
    load_round_reports,
    load_router_file,
    prepare_graphs,
    pretrain_all_experts,
    report_to_json,
    report_to_text,
    run_stage,
    save_pretrained,
    save_router_file,
    score_graph,
    score_labeled,
    warmup_router,
)
from .preprocess import align


class CommandError(RuntimeError):
    """A command cannot run on the arguments or the artifacts it was given."""


# the reports `evofg eval` writes; `evofg report` prints the text one
METRICS_JSON, METRICS_TEXT = "metrics.json", "metrics.txt"


# the settings of a training run, dest -> (flag, type, help): `pretrain` and
# `eval` take them all, `features` only --config. A bool is an on-switch. Each
# but config and llm_fixtures overrides the PipelineConfig field of its name.
RUN_SETTINGS = {
    "config": ("--config", str, "JSON config mirroring PipelineConfig fields"),
    "seed": ("--seed", int, None),
    "llm_fixtures": ("--llm-fixtures", str, "recorded chat-response directory (fixture mode)"),
    "no_select": ("--no-select", bool, "skip the selection rule (keep all generated features)"),
    "random_backend": ("--random-backend", bool, "take candidates from the deterministic "
                       "composer; changes nothing unless llm.enabled is on"),
    "no_memory": ("--no-memory", bool, "projection-only router (no memory retrieval)"),
    "lam": ("--lambda", float, "variance-penalty weight override"),
    "reset_final": ("--reset-final", bool, "reinitialize the router before the final retrain"),
}


def _add_settings(p, *dests):
    """The run settings ``dests``, or all; each is left off ``args`` unless given."""
    for dest in dests or RUN_SETTINGS:
        flag, kind, text = RUN_SETTINGS[dest]
        how = dict(action="store_true") if kind is bool else dict(type=kind)
        p.add_argument(flag, dest=dest, default=argparse.SUPPRESS, help=text, **how)


def _load_config(args) -> PipelineConfig:
    overrides = {dest: getattr(args, dest) for dest in RUN_SETTINGS if hasattr(args, dest)}
    path = overrides.pop("config", None)
    try:
        cfg = PipelineConfig.from_json(path) if path else PipelineConfig()
    except ValueError as exc:  # JSON errors among them
        raise CommandError(f"--config {path}: {exc}") from None
    fixtures = overrides.pop("llm_fixtures", None)
    if fixtures:
        overrides["llm"] = dataclasses.replace(cfg.llm, fixtures_dir=fixtures, enabled=True)
    try:
        return dataclasses.replace(cfg, **overrides)
    except ValueError as exc:
        raise CommandError(str(exc)) from None


def _load_graphs(paths):
    return [load_graph_dir(p) for p in paths]


def _load_graph_as_is(path):
    """The graph in ``path``, with its labels only if it has a labels file."""
    return load_graph_dir(path, with_labels=os.path.exists(os.path.join(path, LABEL_FILE)))


def cmd_gen(args):
    try:
        g = gen_synthetic(
            n_nodes=args.nodes,
            n_features=args.features,
            anomaly_rate=args.rate,
            structure_seed=args.seed,
            planted_kind=args.kind,
            n_communities=args.communities,
        )
    except ValueError as exc:
        raise CommandError(str(exc)) from None
    save_graph(g, args.out)
    print(f"wrote {g.name}: {g.num_nodes} nodes, {g.num_edges} edges, "
          f"{int(g.labels.sum())} anomalies -> {args.out}")


def cmd_save(args):
    g = _load_graph_as_is(args.graph)
    save_graph(g, args.out)
    print(f"re-exported {g.name} -> {args.out}")


def cmd_load(args):
    g = _load_graph_as_is(args.graph)
    labels = "unlabeled" if g.labels is None else f"{int(g.labels.sum())} anomalies"
    print(f"{g.name}: {g.num_nodes} nodes, {g.num_edges} edges, "
          f"{g.features.shape[1]} features, {labels}")


def cmd_features(args):
    cfg = _load_config(args)
    g = load_graph_dir(args.graph, with_labels=False)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    table = compute_primitives(g, align(g, cfg.d))
    table.export_text(args.out)
    print(f"wrote {len(table.names)} feature columns for {g.num_nodes} nodes -> {args.out}")


def _resume(out_dir, stage):
    """The config and experts of the run in ``out_dir``, once the outputs of
    the stages before ``stage`` (in ``STAGE_OUTPUTS`` order) are found there."""
    stages = list(STAGE_OUTPUTS)
    for earlier in stages[:stages.index(stage)]:
        missing = [name for name in STAGE_OUTPUTS[earlier]
                   if not os.path.exists(os.path.join(out_dir, name))]
        if missing:
            raise CommandError(
                f"{out_dir} has no {', '.join(missing)}: run `evofg {earlier}` first"
            )
    return load_pretrained(out_dir)


def _training_contexts(args, cfg, models):
    """The prepare and contexts stages on the training graphs."""
    bundles = run_stage(cfg, "prepare", prepare_graphs, _load_graphs(args.train), cfg.d)
    return run_stage(cfg, "contexts", build_contexts, bundles, models, cfg)


def _clear_outputs(out_dir, stage):
    """Delete the outputs of the stages after ``stage`` (in ``STAGE_OUTPUTS``
    order) and the reports of `evofg eval`, which a rerun of ``stage`` makes
    stale."""
    stages = list(STAGE_OUTPUTS)
    stale = [p for later in stages[stages.index(stage) + 1:] for p in STAGE_OUTPUTS[later]]
    for pattern in stale + [METRICS_JSON, METRICS_TEXT]:
        for path in glob.glob(os.path.join(out_dir, pattern)):
            os.remove(path)


def cmd_pretrain(args):
    cfg = _load_config(args)
    bundles = run_stage(cfg, "prepare", prepare_graphs, _load_graphs(args.train), cfg.d)
    models = run_stage(cfg, "pretrain", pretrain_all_experts, bundles, cfg)
    save_pretrained(args.out, cfg, models)
    _clear_outputs(args.out, "pretrain")
    print(f"pretrained {len(models)} experts -> {args.out}")


def cmd_warmup(args):
    cfg, models = _resume(args.out, "warmup")
    contexts = _training_contexts(args, cfg, models)
    router_model = run_stage(cfg, "warmup", warmup_router, contexts, cfg)
    save_router_file(args.out, router_model)
    _clear_outputs(args.out, "warmup")
    print(f"warmed up router on {router_model.d_r} features -> {args.out}")


def cmd_evolve(args):
    cfg, models = _resume(args.out, "evolve")
    router_model = load_router_file(args.out, cfg.d)
    if router_model.names != list(PRIMITIVE_NAMES):
        raise CommandError(
            f"{args.out}/{ROUTER_FILE} routes on {router_model.d_r} features, not on the "
            f"{len(PRIMITIVE_NAMES)} primitives: run `evofg warmup` first"
        )
    contexts = _training_contexts(args, cfg, models)
    artifacts = run_stage(cfg, "evolve", evolve, router_model, contexts, models, cfg)
    artifacts.save(args.out)
    _clear_outputs(args.out, "evolve")
    print(
        f"evolved {cfg.rounds} round(s); final feature set has "
        f"{len(artifacts.active_names)} active columns -> {args.out}"
    )


def cmd_score(args):
    artifacts = RunArtifacts.load(args.artifacts)
    g = load_graph_dir(args.graph, with_labels=False)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    scores, routing, per_expert = score_graph(artifacts, g)
    payload = {
        "graph": g.name,
        "scores": scores.tolist(),
        "weights": routing.weights.tolist(),
        "per_expert_scores": {a: v.tolist() for a, v in per_expert.items()},
    }
    # one line: without an indent, json.dumps uses its C encoder
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload))
    print(f"scored {g.num_nodes} nodes of {g.name} -> {args.out}")


def cmd_eval(args):
    """Train and evaluate (``--train``) or evaluate saved artifacts
    (``--artifacts``); the arguments are checked before any graph is read."""
    out_dir, runs = args.out or args.artifacts, getattr(args, "runs", 1)
    unread = [flag for dest, (flag, _, _) in RUN_SETTINGS.items() if hasattr(args, dest)]
    unread += ["--runs"] if hasattr(args, "runs") else []
    if not (args.train or args.artifacts):
        raise CommandError("needs --artifacts or --train")
    if args.train and args.artifacts:
        raise CommandError("--train trains a new run, so it takes no --artifacts")
    if args.train and out_dir is None:
        raise CommandError("--train needs --out, the directory for the metrics")
    if runs < 1:
        raise CommandError("--runs needs at least one run")
    if not args.train and unread:
        raise CommandError(f"--artifacts does not train, so it takes no {', '.join(unread)}")
    try:  # load_graph_dir names a graph after its directory
        check_unique_names(os.path.basename(os.path.normpath(p)) for p in args.test)
    except ValueError as exc:
        raise CommandError(str(exc)) from None
    if args.train:
        cfg = _load_config(args)
        report = evaluate_runs(cfg, _load_graphs(args.train), _load_graphs(args.test),
                               runs=runs)
    else:
        artifacts = RunArtifacts.load(args.artifacts)
        report = evaluate_scored(score_labeled(artifacts, _load_graphs(args.test)))
    text = report_to_text(report)
    outputs = {METRICS_JSON: report_to_json(report), METRICS_TEXT: text}
    os.makedirs(out_dir, exist_ok=True)
    for name, content in outputs.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(content)
    print(text)


def cmd_report(args):
    if not os.path.isdir(args.artifacts):
        raise CommandError(f"no artifacts directory {args.artifacts}")
    texts = []
    path = os.path.join(args.artifacts, METRICS_TEXT)
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                texts.append(fh.read())
        except UnicodeDecodeError as exc:
            raise CommandError(f"{path}: not UTF-8 text: {exc}") from None
    for r, report in enumerate(load_round_reports(args.artifacts), start=1):
        texts.append(f"--- selection round {r} ---\n{report}")
    print("\n".join(texts) if texts else "no reports found; run `evofg eval` first")


@functools.cache
def build_parser():
    """The one parser of the process; ``main`` finds each command's function
    by name when it runs it, so the parser holds none."""
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

    p = sub.add_parser("save", help="re-export a graph in the three-file layout")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("load", help="validate a graph directory and print stats")
    p.add_argument("--graph", required=True)

    p = sub.add_parser("features", help="export the router-feature table")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    _add_settings(p, "config")

    p = sub.add_parser("pretrain", help="pretrain the four experts")
    p.add_argument("--train", nargs="+", required=True)
    p.add_argument("--out", required=True)
    _add_settings(p)

    p = sub.add_parser("warmup", help="warm up the router on the primitives")
    p.add_argument("--train", nargs="+", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evolve", help="run the generate/select/retrain rounds")
    p.add_argument("--train", nargs="+", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("score", help="score an unseen graph (labels unused)")
    p.add_argument("--artifacts", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="evaluate on labeled test graphs")
    p.add_argument("--artifacts", default=None)
    p.add_argument("--train", nargs="+", default=None,
                   help="train graphs; triggers the full multi-run protocol")
    p.add_argument("--test", nargs="+", required=True)
    p.add_argument("--runs", type=int, default=argparse.SUPPRESS,
                   help="training runs, at seeds seed, seed+1, ... (default 1)")
    p.add_argument("--out", default=None)
    _add_settings(p)

    p = sub.add_parser("report", help="print stored reports")
    p.add_argument("--artifacts", required=True)

    return parser


def main(argv=None):
    """Run one command; a bad file, graph, artifacts directory or config ends
    it with ``evofg <command>: <reason>`` and exit status 2. A StageError,
    or any other exception, keeps its traceback."""
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        globals()[f"cmd_{args.command}"](args)
    except (CommandError, OSError, GraphFormatError, CheckpointError) as exc:
        print(f"evofg {args.command}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
