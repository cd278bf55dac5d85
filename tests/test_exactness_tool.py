"""tools/exactness.py runs a case end to end and prints a digest of every
file the run leaves and of every held-out graph's scores, weights and
primitive feature table."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from evofg.experts import ARCHS
from evofg.graph import gen_synthetic
from evofg.pipeline import PipelineConfig
from helpers import acceptance_suite, graph_equals

TOOL = Path(__file__).resolve().parents[1] / "tools" / "exactness.py"
GOLDEN = json.loads((TOOL.parent / "exactness_golden.json").read_text())
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _run_case(case, **blas):
    """The tool's stdout for ``case``, with the BLAS thread variables
    ``blas`` set and every other one unset."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS} | blas
    return subprocess.run([sys.executable, str(TOOL), "--case", case], env=env,
                          check=True, capture_output=True, text=True).stdout


def _differences(golden, result):
    """The lines ``differences`` of the tool prints for ``result``."""
    code = ("import json, runpy, sys; t = runpy.run_path(%r); "
            "print(json.dumps(t['differences'](*json.load(sys.stdin))))" % str(TOOL))
    return json.loads(subprocess.run([sys.executable, "-c", code],
                                     input=json.dumps([golden, result]), check=True,
                                     capture_output=True, text=True).stdout)


@pytest.fixture(scope="module")
def bare_output():
    return _run_case("acc-s1-nomem1")


def test_one_case_prints_a_digest_of_every_output(bare_output):
    (name, case), = json.loads(bare_output).items()
    assert name == "acc-s1-nomem1"
    assert set(case["files"]) == (
        {"config.json", "router.bin", "features.json", "keys.bin"}
        | {f"expert_{arch}.bin" for arch in ARCHS}
        | {f"shapley_round_{r}.txt" for r in (1, 2, 3)}
    )
    assert (set(case["scores"]) == set(case["weights"]) == set(case["primitives"])
            == {"test_shifted_a", "test_shifted_b"})
    digests = [d for key in ("files", "scores", "weights", "primitives")
               for d in case[key].values()]
    assert all(len(d) == 64 for d in digests)
    assert case["kept"] >= 1
    assert case == GOLDEN[name], _differences({name: GOLDEN[name]}, {name: case})


def test_the_lr_case_checks_against_its_golden_digests():
    # lr = 1e-3 lets the order in which a gradient is summed reach the bits
    run = subprocess.run([sys.executable, str(TOOL), "--check", "--case", "acc-s0-lr1e-3"],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout == "" and "0 differences in 1 cases" in run.stderr


def test_check_names_each_key_that_differs():
    case = json.loads(json.dumps(GOLDEN["acc-s0-lr1e-3"]))
    case["scores"]["test_shifted_a"] = "0" * 64
    del case["files"]["router.bin"]
    case["kept"] += 1
    golden = {"acc-s0-lr1e-3": GOLDEN["acc-s0-lr1e-3"]}
    assert _differences(golden, {"acc-s0-lr1e-3": case}) == [
        f"acc-s0-lr1e-3/files/router.bin: golden {golden['acc-s0-lr1e-3']['files']['router.bin']},"
        " this run None",
        f"acc-s0-lr1e-3/kept: golden {case['kept'] - 1}, this run {case['kept']}",
        f"acc-s0-lr1e-3/scores/test_shifted_a: golden "
        f"{golden['acc-s0-lr1e-3']['scores']['test_shifted_a']}, this run {'0' * 64}",
    ]
    assert _differences(golden, golden) == []


def test_blas_is_pinned_to_one_thread_whatever_the_environment(bare_output):
    # on more than one CPU, OpenBLAS loaded before the pin sums some GEMMs
    # on two threads, which moves last bits of the router and the scores
    assert bare_output == _run_case("acc-s1-nomem1", OPENBLAS_NUM_THREADS="1")


def test_acceptance_cases_write_the_acceptance_suite():
    # the tool keeps its own copy of the specs, so that it also runs in a
    # checkout of an older commit; this keeps the copy in step
    code = ("import json, runpy; t = runpy.run_path(%r); "
            "print(json.dumps([t['ACCEPTANCE_TRAIN'], t['ACCEPTANCE_TEST']]))" % str(TOOL))
    out = subprocess.run([sys.executable, "-c", code],
                         check=True, capture_output=True, text=True).stdout
    for specs, suite in zip(json.loads(out), acceptance_suite()):
        tool = [gen_synthetic(**spec) for spec in specs]
        assert [g.name for g in tool] == [g.name for g in suite]
        assert all(graph_equals(a, b) for a, b in zip(tool, suite, strict=True))


def test_the_lr_case_is_the_acceptance_suite_at_seed_0_and_lr_1e_3():
    code = ("import dataclasses, json, runpy; t = runpy.run_path(%r); "
            "print(json.dumps(dataclasses.asdict(t['cases']()['acc-s0-lr1e-3'][0])))"
            % str(TOOL))
    out = subprocess.run([sys.executable, "-c", code],
                         check=True, capture_output=True, text=True).stdout
    want = dataclasses.asdict(dataclasses.replace(PipelineConfig(seed=0), lr=1e-3))
    assert json.loads(out) == json.loads(json.dumps(want))


def test_the_three_graph_case_trains_on_test_shifted_a_too(tmp_path):
    code = ("import dataclasses, json, os, runpy; t = runpy.run_path(%r); "
            "cfg, set_up = t['cases']()['acc3-s0-lr1e-3']; "
            "train, cache, tests = set_up(%r); "
            "print(json.dumps([dataclasses.asdict(cfg), [g.name for g in train], "
            "[os.path.basename(d) for d in tests], cache]))" % (str(TOOL), str(tmp_path)))
    out = subprocess.run([sys.executable, "-c", code],
                         check=True, capture_output=True, text=True).stdout
    cfg, train, tests, cache = json.loads(out)
    want = dataclasses.asdict(dataclasses.replace(PipelineConfig(seed=0), lr=1e-3))
    assert cfg == json.loads(json.dumps(want)) and cache is None
    assert train == ["train_structural", "train_attribute", "test_shifted_a"]
    assert tests == ["test_shifted_b"]
