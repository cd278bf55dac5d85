"""The benchmark's tracer (benchmark/tracing.py) wraps functions by
replacing them where their callers look them up; each name it patches must
stay bound there, or ``benchmark/run.py --trace 1`` fails at install; and
a patched command function must be the one the next ``cli.main`` runs."""

import importlib.util
from pathlib import Path

from evofg import cli
from evofg.graph import save_graph
from helpers import path_graph


def _patches():
    path = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


def test_every_traced_name_is_bound_where_it_is_patched():
    patches = _patches()
    assert patches
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in patches
               if attr not in vars(owner)]
    assert missing == []


def test_main_runs_the_command_functions_bound_when_it_is_called(tmp_path, monkeypatch,
                                                                  capsys):
    """``cli.main`` calls in one process share one parser, drop the run
    settings of the call before, and run a ``cmd_score`` patched between
    calls, as the tracer patches it."""
    graph_dir = str(tmp_path / "g")
    save_graph(path_graph(4, labels=[0, 1, 0, 0]), graph_dir)
    calls = []

    def recorder(label):
        return lambda args: calls.append((label, args))

    cli.build_parser.cache_clear()
    assert cli.main(["load", "--graph", graph_dir]) == 0
    assert "4 nodes" in capsys.readouterr().out

    monkeypatch.setattr(cli, "cmd_pretrain", recorder("pretrain"))
    train = ["pretrain", "--train", graph_dir, "--out", str(tmp_path / "run")]
    assert cli.main(train + ["--seed", "9", "--no-memory"]) == 0
    assert cli.main(train) == 0
    (_, given), (_, plain) = calls[-2:]
    assert given.seed == 9 and given.no_memory
    assert not hasattr(plain, "seed") and not hasattr(plain, "no_memory")

    score = ["score", "--artifacts", str(tmp_path / "run"), "--graph", graph_dir,
             "--out", str(tmp_path / "s.json")]
    for label in ("first patch", "second patch"):
        monkeypatch.setattr(cli, "cmd_score", recorder(label))
        assert cli.main(score) == 0
        assert calls[-1][0] == label and calls[-1][1].graph == graph_dir
    assert cli.build_parser.cache_info().misses == 1
