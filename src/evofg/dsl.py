"""Expression language over router-feature columns: a closed operator
catalog, guarded elementwise evaluation, and the four-stage candidate
generation protocol (pick category, pick k features in it, pick an
arity-compatible operator, compose)."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .features import CATEGORIES, RouterFeatureTable

log = logging.getLogger(__name__)

EPS = 1e-8
CLAMP = 1e6


def _safe_den(d):
    sign = np.where(d >= 0, 1.0, -1.0)
    return sign * np.maximum(np.abs(d), EPS)


# the operator catalog: name -> (arity, function of the argument columns),
# where arity 3 stands for three or more; its order is the order in which
# the composer draws an operator and the chat prompt lists them
OPS = {
    "LOG1P": (1, lambda x: np.log(np.maximum(1.0 + x, EPS))),
    "LOG": (1, lambda x: np.log(np.maximum(x, EPS))),
    "SQRT": (1, lambda x: np.sqrt(np.maximum(x, 0.0))),
    "SQUARE": (1, lambda x: x ** 2),
    "CUBE": (1, lambda x: x ** 3),
    "RECIPROCAL": (1, lambda x: 1.0 / _safe_den(x)),
    "SIGMOID": (1, lambda x: 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))),
    "BINARY_SUB": (2, lambda a, b: a - b),
    "BINARY_DIV": (2, lambda a, b: a / _safe_den(b)),
    "BINARY_DIFF_OVER_SUM": (2, lambda a, b: (a - b) / (np.abs(a) + np.abs(b) + EPS)),
    "MULTI_MEAN": (3, lambda *cols: np.mean(cols, axis=0)),
    "MULTI_VAR": (3, lambda *cols: np.var(cols, axis=0)),
}
UNARY_OPS, BINARY_OPS, MULTI_OPS = (
    tuple(op for op, (k, _) in OPS.items() if k == arity) for arity in (1, 2, 3)
)


class ExprValidationError(ValueError):
    """A proposed expression violates arity, reference, or category rules."""


@dataclass(frozen=True)
class FeatureExpr:
    """op applied to named columns; category follows the first argument."""

    op: str
    args: tuple
    category: str

    def __post_init__(self):
        if self.op not in OPS:
            raise ExprValidationError(f"unknown operator {self.op!r}")
        arity, k = OPS[self.op][0], len(self.args)
        if k < 3 if arity == 3 else k != arity:
            want = ("exactly 1 argument", "exactly 2 arguments", ">= 3 arguments")[arity - 1]
            raise ExprValidationError(f"{self.op} takes {want}, got {k}")
        if len(set(self.args)) != k:
            raise ExprValidationError("arguments must be distinct")
        if self.category not in CATEGORIES:
            raise ExprValidationError(f"unknown category {self.category!r}")

    @property
    def name(self):
        return f"{self.op}({','.join(self.args)})"


def eval_expr(expr: FeatureExpr, columns) -> np.ndarray:
    """Evaluate expr per node on ``columns`` (column name -> column, such as
    ``RouterFeatureTable.column_map()``) with domain guards; output is finite
    and clamped to [-1e6, 1e6] for any finite input columns."""
    for a in expr.args:
        if a not in columns:
            raise ExprValidationError(f"unknown column {a!r}")
    out = OPS[expr.op][1](*(columns[a] for a in expr.args))
    return np.clip(out, -CLAMP, CLAMP)


def check_proposal(expr: FeatureExpr, table: RouterFeatureTable, names):
    """Raise ExprValidationError, naming the column, unless every argument
    of a proposed expression is one of the router's ``names`` (its active
    columns) of ``table`` in its category (``FeatureExpr`` checks the rest)."""
    for f in expr.args:
        if f not in table.names:
            raise ExprValidationError(f"unknown column {f!r}")
        if f not in names:
            raise ExprValidationError(f"column {f!r} is not active")
        cat = table.categories[table.names.index(f)]
        if cat != expr.category:
            raise ExprValidationError(f"column {f!r} belongs to {cat}, not {expr.category}")


class DeterministicBackend:
    """Seedless random composer over ``RouterFeatureTable.by_category`` of
    the router's columns (its ``names``), driven by the caller's RNG:
    uniform category (among those with such a column), k in {1,2,3} with
    weights 0.4/0.4/0.2 (restricted to the category size), operator uniform
    within the arity."""

    name = "deterministic"

    def propose(self, by_category, history, rng) -> FeatureExpr:
        by_cat = {c: cols for c, cols in by_category.items() if cols}
        if not by_cat:
            raise ExprValidationError("no active columns to compose from")
        cats = sorted(by_cat)
        cat = cats[rng.integers(len(cats))]
        cols = by_cat[cat]
        ks = [k for k in (1, 2, 3) if k <= len(cols)]
        weights = np.array([0.4, 0.4, 0.2][: len(ks)])
        k = int(rng.choice(ks, p=weights / weights.sum()))
        feats = tuple(cols[i] for i in rng.choice(len(cols), size=k, replace=False))
        pool = UNARY_OPS if k == 1 else BINARY_OPS if k == 2 else MULTI_OPS
        return FeatureExpr(pool[rng.integers(len(pool))], feats, cat)


def generate_candidates(backend, table: RouterFeatureTable, names, m: int, rng) -> list:
    """Produce m validated, mutually distinct expressions on the router's
    columns ``names`` of ``table`` via the four-stage protocol.
    ``backend.propose(table.by_category(names), history, rng)`` returns a
    FeatureExpr; ``history`` holds the round's (kind, name) pairs, kind
    "accepted" or "duplicate". Duplicates of a column of ``table`` or of an
    earlier slot are rejected and regenerated (10 retries per slot). A
    failing or invalid backend is replaced by the deterministic composer,
    whose proposals always pass ``check_proposal``, for the remaining slots;
    a failure of the composer itself is raised."""
    by_cat = table.by_category(names)
    existing = set(table.names)
    fallback = backend if isinstance(backend, DeterministicBackend) else DeterministicBackend()
    out = []
    history = []
    active = backend
    for slot in range(m):
        for _ in range(10):
            try:
                expr = active.propose(by_cat, history, rng)
                check_proposal(expr, table, names)
            except Exception as exc:
                if active is fallback:
                    raise
                why = "invalid decision" if isinstance(exc, ExprValidationError) else "failure"
                log.warning("backend %r: %s (%s); falling back to deterministic composer",
                            getattr(active, "name", "?"), why, exc)
                active = fallback
                continue
            if expr.name not in existing:
                break
            history.append(("duplicate", expr.name))
        else:
            log.warning("candidate slot %d skipped after 10 retries", slot)
            continue
        existing.add(expr.name)
        history.append(("accepted", expr.name))
        out.append(expr)
    return out


def expr_to_dict(expr):
    return {"op": expr.op, "args": list(expr.args), "category": expr.category}


def expr_from_dict(d):
    """The inverse of ``expr_to_dict``; anything else raises
    ExprValidationError."""
    if not (isinstance(d, dict) and set(d) == {"op", "args", "category"}
            and isinstance(d["args"], list) and all(isinstance(a, str) for a in d["args"])):
        raise ExprValidationError(f"{d!r} is not an {{op, args, category}} expression")
    return FeatureExpr(op=d["op"], args=tuple(d["args"]), category=d["category"])


def extend_table(table: RouterFeatureTable, exprs) -> RouterFeatureTable:
    """``table`` plus one column per expression, evaluated in order (later
    ones may reference earlier ones)."""
    return _extended(table, exprs)


def rebuild_columns(table: RouterFeatureTable, exprs, active_names) -> RouterFeatureTable:
    """A fresh graph's primitive table plus what a trained run's router
    reads, ``active_names``: the generated columns among them and those they
    read, directly or not, re-created in the order of the run's ``exprs``. A
    column the table has, or one that none of them reads, is not evaluated."""
    exprs = [e for e in exprs if e.name not in table.names]
    needed = set(active_names)
    for expr in reversed(exprs):  # an expression reads only earlier columns
        if expr.name in needed:
            needed.update(expr.args)
    exprs = [e for e in exprs if e.name in needed]
    return _extended(table, exprs)


def _extended(table, exprs):
    # every column is evaluated before the one new table is built; shared by
    # the two public functions so that neither calls (and is timed inside)
    # the other
    columns, values = table.column_map(), []
    for expr in exprs:
        values.append(eval_expr(expr, columns))
        columns[expr.name] = values[-1]
    return table.with_columns(exprs, values)
