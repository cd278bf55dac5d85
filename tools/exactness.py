"""Exactness check: train, save, reload and score a fixed set of cases, and
print digests of everything a run leaves, so that two checkouts can be
compared byte for byte.

    python3 tools/exactness.py > change.json
    python3 /path/to/other/checkout/tools/exactness.py > parent.json
    diff parent.json change.json

    python3 tools/exactness.py --check

``--check`` runs the cases against the committed golden output,
tools/exactness_golden.json, prints each key whose digest differs and exits
with status 1 on any difference. The bits are promised for one environment,
recorded in tools/exactness_golden_env.json (numpy's and scipy's versions
and numpy's BLAS build), which ``--check`` prints beside this run's on
any difference. A change that moves bits on purpose rewrites both files:

    python3 tools/exactness.py > tools/exactness_golden.json

and the environment ``--check`` reports for this run into the other.

Each case trains with ``run_pipeline``, saves the run with ``RunArtifacts``,
loads it back and scores its held-out graphs with ``score_graph``. The output
is one sorted JSON object: per case, the sha256 of each artifact file, the
sha256 of each held-out graph's score and routing-weight arrays and of its
primitive feature table (the one ``score_graph`` prepares into a fresh
cache), and the number of kept features. The cases are

  acc-s{0,1,2}-nomem{0,1}  the acceptance suite (tests/test_acceptance.py) at
                           config seeds 0-2, with and without no_memory;
  acc-s0-lr1e-3            the acceptance suite at config seed 0 with
                           lr = 1e-3: at the default lr = 1e-5, AdamW's
                           normalised steps hide last-bit gradient changes,
                           such as the order in which a gradient is summed;
  acc3-s0-lr1e-3           the same with test_shifted_a as a third labelled
                           training graph, so that each epoch's mean over
                           graphs takes the inexact 1/3 and each leaf sums
                           three graphs' gradients; test_shifted_b alone is
                           held out;
  suite-train-s{1,2,3}     the benchmark's suite-train workload at seeds 1-3;
  reference                the zero-shot reference model, scored on the
                           held-out graphs of zero-shot-large at seed 1.

Every graph is written to and loaded from a directory named after it, as the
benchmark does: a training graph's key/query split is seeded by its name.
The benchmark's graphs and configs are read from benchmark/run.py and
benchmark/inputs.py of the same checkout, whose src/ is the one imported.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "benchmark"))

# run comes first: it pins BLAS to one thread, which takes effect only
# before numpy loads OpenBLAS, and puts this checkout's src/ first on sys.path
import run as bench  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from evofg import graph, pipeline  # noqa: E402

GOLDEN = os.path.join(ROOT, "tools", "exactness_golden.json")
GOLDEN_ENV = os.path.join(ROOT, "tools", "exactness_golden_env.json")

ACCEPTANCE_TRAIN = (
    dict(n_nodes=400, n_features=48, anomaly_rate=0.06, structure_seed=101,
         planted_kind="structural", name="train_structural"),
    dict(n_nodes=360, n_features=48, anomaly_rate=0.08, structure_seed=202,
         planted_kind="attribute", name="train_attribute"),
)
ACCEPTANCE_TEST = (
    dict(n_nodes=320, n_features=48, anomaly_rate=0.07, structure_seed=303,
         planted_kind="mixed", n_communities=6, name="test_shifted_a"),
    dict(n_nodes=340, n_features=48, anomaly_rate=0.05, structure_seed=404,
         planted_kind="mixed", n_communities=6, name="test_shifted_b"),
)


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _array_digest(arr):
    return _sha256(np.ascontiguousarray(arr, dtype=np.float64).tobytes())


def _acceptance_case(seed, n_train=len(ACCEPTANCE_TRAIN), **config):
    """The acceptance suite's graphs, of which the first ``n_train`` train
    and the rest are held out."""
    def set_up(workdir):
        dirs = [graph.save_graph(graph.gen_synthetic(**spec), os.path.join(workdir, spec["name"]))
                for spec in ACCEPTANCE_TRAIN + ACCEPTANCE_TEST]
        return [graph.load_graph_dir(d) for d in dirs[:n_train]], None, dirs[n_train:]

    return pipeline.PipelineConfig(seed=seed, **config), set_up


def _benchmark_case(workload, seed):
    wl = bench.WORKLOAD_DEFS[workload]
    cfg = pipeline.PipelineConfig(seed=wl.training_seed(seed), **wl.config)

    def set_up(workdir):
        setup = bench.set_up(wl, seed, cfg, workdir)
        return setup.train, setup.cache, [d for d, _ in setup.tests]

    return cfg, set_up


def cases():
    """Case name -> (config, set_up); ``set_up(workdir)`` writes the case's
    graphs and returns (training graphs, prepared_cache, held-out dirs)."""
    out = {}
    for seed in (0, 1, 2):
        for no_memory in (False, True):
            out[f"acc-s{seed}-nomem{int(no_memory)}"] = _acceptance_case(seed, no_memory=no_memory)
    out["acc-s0-lr1e-3"] = _acceptance_case(0, lr=1e-3)
    out["acc3-s0-lr1e-3"] = _acceptance_case(0, n_train=len(ACCEPTANCE_TRAIN) + 1, lr=1e-3)
    for seed in (1, 2, 3):
        out[f"suite-train-s{seed}"] = _benchmark_case("suite-train", seed)
    out["reference"] = _benchmark_case("zero-shot-large", 1)
    return out


def run_case(cfg, set_up, workdir):
    train, cache, test_dirs = set_up(os.path.join(workdir, "graphs"))
    art_dir = os.path.join(workdir, "artifacts")
    pipeline.run_pipeline(cfg, train, prepared_cache=cache).save(art_dir)
    artifacts = pipeline.RunArtifacts.load(art_dir)
    files = {}
    for path in sorted(glob.glob(os.path.join(art_dir, "*"))):
        with open(path, "rb") as fh:
            files[os.path.basename(path)] = _sha256(fh.read())
    scores, weights, primitives = {}, {}, {}
    for path in test_dirs:
        g = graph.load_graph_dir(path, with_labels=False)
        cache = {}
        s, routing, _ = pipeline.score_graph(artifacts, g, cache)
        scores[g.name], weights[g.name] = _array_digest(s), _array_digest(routing.weights)
        (bundle,) = cache.values()
        primitives[g.name] = _array_digest(bundle.table.matrix)
    return {"files": files, "scores": scores, "weights": weights, "primitives": primitives,
            "kept": len(artifacts.active_names)}


def environment():
    """numpy's and scipy's versions and numpy's BLAS build."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "blas_config": blas.get("openblas configuration", "")}


def differences(golden, result, path=()):
    """One line per key of the nested ``result`` whose value differs from
    ``golden``'s, or that only one of them has."""
    lines = []
    for key in sorted(set(golden) | set(result)):
        want, got = golden.get(key), result.get(key)
        if isinstance(want, dict) and isinstance(got, dict):
            lines += differences(want, got, path + (key,))
        elif want != got:
            lines.append(f"{'/'.join(path + (key,))}: golden {want}, this run {got}")
    return lines


def check(result):
    """Compare ``result`` with the golden output's entries of the same
    cases; returns the exit status."""
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    lines = differences({name: golden.get(name) for name in result}, result)
    for line in lines:
        print(line)
    with open(GOLDEN_ENV) as fh:
        golden_env = json.load(fh)
    env = environment()
    if lines or golden_env != env:
        print(f"golden environment: {json.dumps(golden_env)}", file=sys.stderr)
        print(f"this environment:   {json.dumps(env)}", file=sys.stderr)
    print(f"{len(lines)} differences in {len(result)} cases", file=sys.stderr)
    return 1 if lines else 0


def main(argv=None):
    all_cases = cases()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", action="append", choices=sorted(all_cases),
                        help="run only this case (repeatable; default: all)")
    parser.add_argument("--check", action="store_true",
                        help="compare with the golden output instead of printing it")
    args = parser.parse_args(argv)
    result = {}
    for name in args.case or all_cases:
        with tempfile.TemporaryDirectory(prefix=f"exactness-{name}-") as workdir:
            result[name] = run_case(*all_cases[name], workdir)
        print(f"{name}: kept {result[name]['kept']}", file=sys.stderr)
    if args.check:
        return check(result)
    print(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
