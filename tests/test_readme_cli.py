"""Every `evofg` command line in README's shell examples parses with the real
parser, and every subcommand has an example, so the documented CLI cannot
drift from the one in `evofg.cli`."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from evofg import cli

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
