"""The benchmark's tracer (benchmark/tracing.py) wraps functions by
replacing them where their callers look them up; each name it patches must
stay bound there, or ``benchmark/run.py --trace 1`` fails at install."""

import importlib.util
from pathlib import Path


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
