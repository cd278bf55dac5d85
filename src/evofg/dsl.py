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

UNARY_OPS = ("LOG1P", "LOG", "SQRT", "SQUARE", "CUBE", "RECIPROCAL", "SIGMOID")
BINARY_OPS = ("BINARY_SUB", "BINARY_DIV", "BINARY_DIFF_OVER_SUM")
MULTI_OPS = ("MULTI_MEAN", "MULTI_VAR")
ALL_OPS = UNARY_OPS + BINARY_OPS + MULTI_OPS


class ExprValidationError(ValueError):
    """A proposed expression violates arity, reference, or category rules."""


@dataclass(frozen=True)
class FeatureExpr:
    """op applied to named columns; category follows the first argument."""

    op: str
    args: tuple
    category: str

    def __post_init__(self):
        if self.op not in ALL_OPS:
            raise ExprValidationError(f"unknown operator {self.op!r}")
        k = len(self.args)
        if self.op in UNARY_OPS and k != 1:
            raise ExprValidationError(f"{self.op} takes exactly 1 argument, got {k}")
        if self.op in BINARY_OPS and k != 2:
            raise ExprValidationError(f"{self.op} takes exactly 2 arguments, got {k}")
        if self.op in MULTI_OPS and k < 3:
            raise ExprValidationError(f"{self.op} takes >= 3 arguments, got {k}")
        if len(set(self.args)) != k:
            raise ExprValidationError("arguments must be distinct")
        if self.category not in CATEGORIES:
            raise ExprValidationError(f"unknown category {self.category!r}")

    @property
    def name(self):
        return f"{self.op}({','.join(self.args)})"


@dataclass
class GenerationDecision:
    """Raw backend output before validation; rationale is logged only."""

    category: str
    feature_names: list
    operator: str
    rationale: str = ""


def _safe_den(d):
    sign = np.where(d >= 0, 1.0, -1.0)
    return sign * np.maximum(np.abs(d), EPS)


def eval_expr(expr: FeatureExpr, table: RouterFeatureTable) -> np.ndarray:
    """Evaluate expr per node with domain guards; output is finite and
    clamped to [-1e6, 1e6] for any finite input table."""
    for a in expr.args:
        if not table.has_column(a):
            raise ExprValidationError(f"unknown column {a!r}")
    cols = [table.column(a) for a in expr.args]
    op = expr.op
    if op == "LOG1P":
        out = np.log(np.maximum(1.0 + cols[0], EPS))
    elif op == "LOG":
        out = np.log(np.maximum(cols[0], EPS))
    elif op == "SQRT":
        out = np.sqrt(np.maximum(cols[0], 0.0))
    elif op == "SQUARE":
        out = cols[0] ** 2
    elif op == "CUBE":
        out = cols[0] ** 3
    elif op == "RECIPROCAL":
        out = 1.0 / _safe_den(cols[0])
    elif op == "SIGMOID":
        x = np.clip(cols[0], -60.0, 60.0)
        out = 1.0 / (1.0 + np.exp(-x))
    elif op == "BINARY_SUB":
        out = cols[0] - cols[1]
    elif op == "BINARY_DIV":
        out = cols[0] / _safe_den(cols[1])
    elif op == "BINARY_DIFF_OVER_SUM":
        out = (cols[0] - cols[1]) / (np.abs(cols[0]) + np.abs(cols[1]) + EPS)
    elif op == "MULTI_MEAN":
        out = np.mean(cols, axis=0)
    elif op == "MULTI_VAR":
        out = np.var(cols, axis=0)
    else:  # pragma: no cover - guarded by FeatureExpr validation
        raise ExprValidationError(f"unknown operator {op!r}")
    return np.clip(out, -CLAMP, CLAMP)


def validate_decision(decision: GenerationDecision, table: RouterFeatureTable) -> FeatureExpr:
    """Turn a backend decision into a FeatureExpr or raise ExprValidationError."""
    if decision.category not in CATEGORIES:
        raise ExprValidationError(f"unknown category {decision.category!r}")
    if decision.operator not in ALL_OPS:
        raise ExprValidationError(f"unknown operator {decision.operator!r}")
    active = set(table.active_names())
    for f in decision.feature_names:
        if not table.has_column(f):
            raise ExprValidationError(f"unknown column {f!r}")
        if f not in active:
            raise ExprValidationError(f"column {f!r} is not active")
        cat = table.categories[table.names.index(f)]
        if cat != decision.category:
            raise ExprValidationError(
                f"column {f!r} belongs to {cat}, not {decision.category}"
            )
    return FeatureExpr(
        op=decision.operator,
        args=tuple(decision.feature_names),
        category=decision.category,
    )


class DeterministicBackend:
    """Seedless random composer driven by the caller's RNG: uniform category
    (among categories with at least one active column), k in {1,2,3} with
    weights 0.4/0.4/0.2 (restricted to the category size), operator uniform
    within the arity class."""

    name = "deterministic"

    def propose(self, table: RouterFeatureTable, history, rng) -> GenerationDecision:
        by_cat = {c: cols for c, cols in table.active_by_category().items() if cols}
        if not by_cat:
            raise ExprValidationError("no active columns to compose from")
        cats = sorted(by_cat)
        cat = cats[rng.integers(len(cats))]
        cols = by_cat[cat]
        ks = [k for k in (1, 2, 3) if k <= len(cols)]
        weights = np.array([0.4, 0.4, 0.2][: len(ks)])
        k = int(rng.choice(ks, p=weights / weights.sum()))
        feats = [cols[i] for i in rng.choice(len(cols), size=k, replace=False)]
        pool = UNARY_OPS if k == 1 else BINARY_OPS if k == 2 else MULTI_OPS
        op = pool[rng.integers(len(pool))]
        return GenerationDecision(cat, feats, op, rationale="random composition")


def generate_candidates(backend, table: RouterFeatureTable, m: int, rng) -> list:
    """Produce m validated, mutually distinct expressions via the four-stage
    protocol. Duplicates of existing provenance are rejected and regenerated
    (10 retries per slot); backend failures fall back to the deterministic
    composer for the remaining slots."""
    existing = {p.name for p in table.provenance if isinstance(p, FeatureExpr)}
    fallback = DeterministicBackend()
    out = []
    history = []
    active = backend
    for slot in range(m):
        accepted = None
        for _ in range(10):
            try:
                decision = active.propose(table, history, rng)
            except ExprValidationError:
                raise
            except Exception as exc:
                if active is not fallback:
                    log.warning(
                        "generation backend %r failed (%s); falling back to "
                        "deterministic composer",
                        getattr(active, "name", "?"),
                        exc,
                    )
                    active = fallback
                    continue
                raise
            try:
                expr = validate_decision(decision, table)
            except ExprValidationError as exc:
                if active is not fallback:
                    log.warning(
                        "backend %r produced an invalid decision (%s); falling "
                        "back to deterministic composer",
                        getattr(active, "name", "?"),
                        exc,
                    )
                    active = fallback
                    continue
                history.append(("rejected", decision, str(exc)))
                continue
            if expr.name in existing:
                history.append(("duplicate", decision, expr.name))
                continue
            accepted = expr
            break
        if accepted is None:
            log.warning("candidate slot %d skipped after 10 retries", slot)
            continue
        existing.add(accepted.name)
        history.append(("accepted", None, accepted.name))
        out.append(accepted)
    return out


def expr_to_dict(p):
    if p == "primitive":
        return "primitive"
    return {"op": p.op, "args": list(p.args), "category": p.category}


def expr_from_dict(d):
    if d == "primitive":
        return "primitive"
    return FeatureExpr(op=d["op"], args=tuple(d["args"]), category=d["category"])


def extend_table(table: RouterFeatureTable, exprs) -> RouterFeatureTable:
    """``table`` plus one active column per expression, evaluated in order
    (later ones may reference earlier ones)."""
    for expr in exprs:
        table = table.with_column(expr, eval_expr(expr, table))
    return table


def rebuild_columns(table: RouterFeatureTable, provenance, active_names) -> RouterFeatureTable:
    """A trained run's generated columns re-created on a fresh graph's
    primitive table, with the run's final active set."""
    for p in provenance:
        if p != "primitive" and not table.has_column(p.name):
            table = table.with_column(p, eval_expr(p, table))
    return table.with_active(active_names)
