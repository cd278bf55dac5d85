"""Spans around calls into evofg's modules, installed from outside the program.

``install`` replaces each public function named in ``PATCHES`` at the place
where its caller looks it up (``pipeline`` imports ``compute_primitives`` and
``train_router`` by name, so those names are replaced in ``pipeline``). Each
call then records a span (name, start, end, parent) in memory; ``metrics``
turns the spans into per-layer totals, self times and counts, and ``dump``
writes them out when the run ends. Nothing in the program changes, and a run
that does not install the tracer runs the program's own functions.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter

from evofg import autodiff, cli, dsl, experts, features, graph, pipeline, router


def _train_router_name(args, kwargs):
    # pipeline calls train_router(model, contexts, cfg, phase, seed)
    return "router.warmup" if args[3] == "warmup" else "router.main"


def _count_epochs(counts, args, kwargs, out):
    counts["router.epochs"] += len(out)


def _count_candidates(counts, args, kwargs, out):
    counts["dsl.candidates"] += len(out)


def _count_saved_bytes(counts, args, kwargs, out):
    counts["checkpoint.bytes"] += os.path.getsize(args[0])


def _count_expected_utility(counts, args, kwargs, out):
    # the sampler's contract: T * (|F| + 2) utility calls per estimate
    counts["expected_utility_calls"] += args[2] * (len(args[0]) + 2)


# (owner, attribute, span name or name function, counter or None)
PATCHES = [
    (graph, "load_graph_dir", "graph.load", None),
    (cli, "load_graph_dir", "graph.load", None),
    (pipeline, "align", "preprocess.align", None),
    (cli, "align", "preprocess.align", None),
    (pipeline, "compute_primitives", "features.primitives", None),
    (cli, "compute_primitives", "features.primitives", None),
    (features, "pagerank", "features.pagerank", None),
    (features, "betweenness", "features.betweenness", None),
    (features, "closeness", "features.closeness", None),
    (features, "khop_similarity", "features.khop_similarity", None),
    (features, "scope_expand", "features.scope_expand", None),
    (pipeline, "pretrain_expert", "experts.pretrain", None),
    (experts, "encode", "experts.encode", None),
    (router, "encode", "experts.encode", None),
    (experts, "cross_attention_t", "experts.cross_attn", None),
    (router.RoutingContext, "__init__", "router.contexts", None),
    (pipeline, "train_router", _train_router_name, _count_epochs),
    (pipeline, "routing_utility", "router.utility", None),
    (pipeline, "route", "router.route", None),
    (autodiff, "spmm", "autodiff.spmm", None),
    (autodiff.Tensor, "backward", "autodiff.backward", None),
    (pipeline, "estimate_contributions", "shapley.estimate", _count_expected_utility),
    (dsl, "generate_candidates", "dsl.generate", _count_candidates),
    (dsl, "extend_table", "dsl.extend", None),
    (dsl, "rebuild_columns", "dsl.rebuild", None),
    (pipeline, "save_checkpoint", "checkpoint.save", _count_saved_bytes),
    (experts, "save_checkpoint", "checkpoint.save", _count_saved_bytes),
    (router, "save_checkpoint", "checkpoint.save", _count_saved_bytes),
    (pipeline, "load_checkpoint", "checkpoint.load", None),
    (experts, "load_checkpoint", "checkpoint.load", None),
    (router, "load_checkpoint", "checkpoint.load", None),
    (pipeline, "prepare_graphs", "pipeline.prepare", None),
    (pipeline, "score_graph", "pipeline.score_graph", None),
    (cli, "score_graph", "pipeline.score_graph", None),
    (cli, "cmd_score", "cli.score", None),
]

# per-layer metric -> (kind, span name); kinds: total seconds, self seconds,
# span count, or a counter filled by a PATCHES counter
LAYER_METRICS = {
    "graph.load_s": ("total", "graph.load"),
    "graph.load_calls": ("calls", "graph.load"),
    "preprocess.align_s": ("total", "preprocess.align"),
    "preprocess.align_calls": ("calls", "preprocess.align"),
    "features.primitives_s": ("total", "features.primitives"),
    "features.primitives_calls": ("calls", "features.primitives"),
    "features.primitives_self_s": ("self", "features.primitives"),
    "features.betweenness_s": ("total", "features.betweenness"),
    "features.closeness_s": ("total", "features.closeness"),
    "features.pagerank_s": ("total", "features.pagerank"),
    "features.khop_similarity_s": ("total", "features.khop_similarity"),
    "features.scope_expand_s": ("total", "features.scope_expand"),
    "experts.pretrain_s": ("total", "experts.pretrain"),
    "experts.encode_s": ("total", "experts.encode"),
    "experts.encode_calls": ("calls", "experts.encode"),
    "experts.cross_attn_s": ("total", "experts.cross_attn"),
    "router.contexts_s": ("total", "router.contexts"),
    "router.warmup_s": ("total", "router.warmup"),
    "router.main_s": ("total", "router.main"),
    "router.epochs": ("counter", "router.epochs"),
    "router.utility_s": ("total", "router.utility"),
    "router.utility_calls": ("calls", "router.utility"),
    "router.route_s": ("total", "router.route"),
    "autodiff.spmm_s": ("total", "autodiff.spmm"),
    "autodiff.spmm_calls": ("calls", "autodiff.spmm"),
    "autodiff.backward_s": ("total", "autodiff.backward"),
    "shapley.estimate_s": ("total", "shapley.estimate"),
    "shapley.estimate_self_s": ("self", "shapley.estimate"),
    "dsl.generate_s": ("total", "dsl.generate"),
    "dsl.candidates": ("counter", "dsl.candidates"),
    "dsl.extend_s": ("total", "dsl.extend"),
    "dsl.rebuild_s": ("total", "dsl.rebuild"),
    "checkpoint.save_s": ("total", "checkpoint.save"),
    "checkpoint.load_s": ("total", "checkpoint.load"),
    "checkpoint.bytes": ("counter", "checkpoint.bytes"),
    "pipeline.prepare_s": ("total", "pipeline.prepare"),
    "pipeline.score_graph_s": ("total", "pipeline.score_graph"),
    "pipeline.score_graph_calls": ("calls", "pipeline.score_graph"),
    "pipeline.score_graph_self_s": ("self", "pipeline.score_graph"),
    "cli.score_s": ("total", "cli.score"),
    "cli.score_self_s": ("self", "cli.score"),
}

UNITS = {"total": "s", "self": "s", "calls": "count", "counter": "count"}


def metric_unit(name):
    return "bytes" if name == "checkpoint.bytes" else UNITS[LAYER_METRICS[name][0]]


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.enabled = False
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            span = [label, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(self.counts, args, kwargs, out)
            return out

        return traced

    def install(self):
        for owner, attr, name, counter in PATCHES:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def metrics(self):
        """Per-layer totals (outermost spans of a name), self times (span
        minus its direct children), span counts, and counters."""
        total, own, calls = Counter(), Counter(), Counter()
        for name, start, end, parent in self.spans:
            dur = end - start
            calls[name] += 1
            own[name] += dur
            if parent >= 0:
                own[self.spans[parent][0]] -= dur
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                total[name] += dur
        pick = {"total": total, "self": own, "calls": calls, "counter": self.counts}
        return {m: (float if UNITS[kind] == "s" else int)(pick[kind][span])
                for m, (kind, span) in LAYER_METRICS.items()}

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans,
                       "counts": dict(self.counts)}, fh)
