"""Every `evofg` command line in README's shell examples parses with the real
parser, every subcommand has an example, README's list of an artifacts
directory's files is the list a run leaves, README's list of primitives is
`PRIMITIVE_NAMES`, and README's configuration table is the fields, aliases
and defaults of `PipelineConfig`, so the documented CLI, features and config
cannot drift from the ones in `evofg`."""

import argparse
import json
import os
import re
import shlex
from pathlib import Path

import pytest

from evofg import cli
from evofg.experts import ARCHS
from evofg.features import PRIMITIVE_NAMES
from evofg.pipeline import PipelineConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_command_lines():
    """The `evofg ...` lines of README's fenced `sh` blocks, with backslash
    continuations joined and comments dropped."""
    lines = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words and words[0] == "evofg":
                lines.append(words[1:])
    return lines


COMMAND_LINES = readme_command_lines()


@pytest.mark.parametrize("argv", COMMAND_LINES, ids=" ".join)
def test_readme_command_line_parses(argv):
    cli.build_parser().parse_args(argv)


def test_readme_shows_every_subcommand():
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in COMMAND_LINES} == set(subparsers.choices)


def readme_artifact_names(rounds):
    """The files README's "An artifacts directory holds ..." paragraph
    lists, with `<ARCH>` expanded over the experts and `<r>` over the rounds."""
    paragraph = re.search(r"^An artifacts directory holds .*?\n\n", README.read_text(),
                          re.M | re.S).group(0)
    names = set()
    for name in re.findall(r"`([^`]+\.(?:bin|json|txt))`", paragraph):
        for arch in ARCHS if "<ARCH>" in name else [None]:
            for r in range(1, rounds + 1) if "<r>" in name else [None]:
                names.add(name.replace("<ARCH>", str(arch)).replace("<r>", str(r)))
    return names


def test_readme_lists_the_files_of_an_artifacts_directory(tmp_path):
    config = dict(d=5, d_e=6, d_prime=5, d_m=6, n_memory=4, expert_epochs=[2, 2, 2, 2],
                  warmup_epochs=2, router_epochs=2, shapley_iters=3, n_envs=3,
                  gen_per_round=4, rounds=2, key_fraction=0.2)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    train, test, art = (str(tmp_path / name) for name in ("train", "test", "artifacts"))
    for argv in (
        ["gen", "--out", train, "--nodes", "40", "--features", "8", "--seed", "1"],
        ["gen", "--out", test, "--nodes", "30", "--features", "8", "--seed", "2"],
        ["pretrain", "--train", train, "--out", art, "--config", str(cfg_path)],
        ["warmup", "--train", train, "--out", art],
        ["evolve", "--train", train, "--out", art],
        ["eval", "--artifacts", art, "--test", test],
    ):
        assert cli.main(argv) == 0
    assert set(os.listdir(art)) == readme_artifact_names(config["rounds"])


def test_readme_lists_the_primitives_in_table_order():
    found = re.search(r"^The router starts from (\d+) structural primitives per node, "
                      r"in table order:\n(.*?)\n\n", README.read_text(), re.M | re.S)
    assert int(found.group(1)) == len(PRIMITIVE_NAMES)
    assert re.findall(r"`([^`]+)`", found.group(2)) == list(PRIMITIVE_NAMES)


def test_readme_config_table_is_the_config_defaults():
    table = re.search(r"^\| field \| alias \| default \|.*\n\|[-| ]+\|\n(.*?)\n\n",
                      README.read_text(), re.M | re.S)
    rows = [[cell.strip().strip("`") for cell in line.strip("|").split("|")][:3]
            for line in table.group(1).splitlines()]
    defaults = {}  # field -> its default as config.json spells it
    for name, value in PipelineConfig().to_dict().items():
        if isinstance(value, dict):  # the llm settings, one row per key
            defaults.update({f"{name}.{key}": json.dumps(v) for key, v in value.items()})
        else:
            defaults[name] = json.dumps(value)
    assert [(name, default) for name, _, default in rows] == list(defaults.items())
    assert {alias: name for name, alias, _ in rows if alias} == PipelineConfig._ALIASES
