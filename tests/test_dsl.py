import dataclasses
import logging

import numpy as np
import pytest

from evofg.dsl import (
    BINARY_OPS,
    CLAMP,
    DeterministicBackend,
    ExprValidationError,
    FeatureExpr,
    GenerationDecision,
    MULTI_OPS,
    UNARY_OPS,
    eval_expr,
    expr_from_dict,
    expr_to_dict,
    extend_table,
    generate_candidates,
    rebuild_columns,
    validate_decision,
)
from evofg.features import RouterFeatureTable, compute_primitives
from helpers import path_graph, random_graph


def make_table(n=5, seed=0):
    g = path_graph(n, d=3, seed=seed)
    return compute_primitives(g, g.features)


def small_table(columns):
    names = list(columns)
    cats = ["PageRank"] * len(names)
    mat = np.stack([columns[n] for n in names], axis=1)
    return RouterFeatureTable(
        matrix=mat, names=names, categories=cats, provenance=["primitive"] * len(names)
    )


class TestEval:
    def test_log1p_of_zero_column(self):
        t = small_table({"a": np.zeros(4)})
        e = FeatureExpr("LOG1P", ("a",), "PageRank")
        assert np.allclose(eval_expr(e, t), 0.0)

    def test_diff_over_sum_of_equal_columns(self):
        t = small_table({"a": np.full(4, 2.0), "b": np.full(4, 2.0)})
        e = FeatureExpr("BINARY_DIFF_OVER_SUM", ("a", "b"), "PageRank")
        assert np.abs(eval_expr(e, t)).max() < 1e-8

    def test_multi_var_population_variance(self):
        t = small_table(
            {"a": np.ones(3), "b": np.full(3, 2.0), "c": np.full(3, 3.0)}
        )
        e = FeatureExpr("MULTI_VAR", ("a", "b", "c"), "PageRank")
        assert np.allclose(eval_expr(e, t), 2.0 / 3.0)

    def test_log_guard_on_nonpositive(self):
        t = small_table({"a": np.array([-1.0, 0.0, 3.0])})
        out = eval_expr(FeatureExpr("LOG", ("a",), "PageRank"), t)
        assert np.isfinite(out).all()

    def test_reciprocal_guard_on_zero(self):
        t = small_table({"a": np.array([0.0, -2.0, 0.5])})
        out = eval_expr(FeatureExpr("RECIPROCAL", ("a",), "PageRank"), t)
        assert np.isfinite(out).all()
        assert out.max() <= CLAMP

    def test_cube_clamped(self):
        t = small_table({"a": np.array([1e5, -1e5])})
        out = eval_expr(FeatureExpr("CUBE", ("a",), "PageRank"), t)
        assert out.tolist() == [CLAMP, -CLAMP]

    def test_unknown_column_rejected(self):
        t = small_table({"a": np.ones(3)})
        with pytest.raises(ExprValidationError, match="ghost"):
            eval_expr(FeatureExpr("LOG1P", ("ghost",), "PageRank"), t)

    def test_never_nan_inf_on_random_tables_and_exprs(self):
        rng = np.random.default_rng(1)
        backend = DeterministicBackend()
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(4, 12)), p=0.4, d=3)
            t = compute_primitives(g, g.features)
            # exercise huge/degenerate magnitudes too
            t = dataclasses.replace(t, matrix=t.matrix * rng.choice([1.0, 1e6, 1e-9]))
            exprs = generate_candidates(backend, t, 6, rng)
            for e in exprs:
                out = eval_expr(e, t)
                assert np.isfinite(out).all()
                assert np.abs(out).max() <= CLAMP


class TestExprValidation:
    def test_arity_rules(self):
        with pytest.raises(ExprValidationError):
            FeatureExpr("LOG", ("a", "b"), "PageRank")
        with pytest.raises(ExprValidationError):
            FeatureExpr("BINARY_SUB", ("a",), "PageRank")
        with pytest.raises(ExprValidationError):
            FeatureExpr("MULTI_MEAN", ("a", "b"), "PageRank")

    def test_duplicate_args_rejected(self):
        with pytest.raises(ExprValidationError):
            FeatureExpr("BINARY_DIV", ("a", "a"), "PageRank")

    def test_unknown_operator_and_category(self):
        with pytest.raises(ExprValidationError):
            FeatureExpr("NOPE", ("a",), "PageRank")
        with pytest.raises(ExprValidationError):
            FeatureExpr("LOG", ("a",), "Nonsense")

    def test_decision_category_membership_enforced(self):
        t = make_table()
        d = GenerationDecision("PageRank", ["PR_t", "Deg_t"], "BINARY_DIV")
        with pytest.raises(ExprValidationError, match="Deg_t"):
            validate_decision(d, t)

    def test_decision_inactive_column_rejected(self):
        t = make_table()
        t = t.with_active([n for n in t.names if n != "PR_t"])
        d = GenerationDecision("PageRank", ["PR_t"], "LOG1P")
        with pytest.raises(ExprValidationError, match="not active"):
            validate_decision(d, t)

    def test_valid_decision_roundtrip(self):
        t = make_table()
        d = GenerationDecision("PageRank", ["PR_t", "PR_ego_mean"], "BINARY_DIV")
        e = validate_decision(d, t)
        assert e.name == "BINARY_DIV(PR_t,PR_ego_mean)"
        assert e.category == "PageRank"


class TestGeneration:
    def test_deterministic_given_seed(self):
        t1, t2 = make_table(seed=3), make_table(seed=3)
        b = DeterministicBackend()
        e1 = generate_candidates(b, t1, 10, np.random.default_rng(42))
        e2 = generate_candidates(b, t2, 10, np.random.default_rng(42))
        assert [e.name for e in e1] == [e.name for e in e2]

    def test_fifteen_distinct_wellformed(self):
        t = make_table(seed=4)
        exprs = generate_candidates(
            DeterministicBackend(), t, 15, np.random.default_rng(0)
        )
        assert len(exprs) == 15
        names = [e.name for e in exprs]
        assert len(set(names)) == 15
        for e in exprs:
            k = len(e.args)
            pool = UNARY_OPS if k == 1 else BINARY_OPS if k == 2 else MULTI_OPS
            assert e.op in pool
            for a in e.args:
                assert t.categories[t.names.index(a)] == e.category

    def test_multi_arity_gets_multi_operator(self):
        t = make_table(seed=5)
        exprs = generate_candidates(
            DeterministicBackend(), t, 40, np.random.default_rng(1)
        )
        multis = [e for e in exprs if len(e.args) >= 3]
        assert multis, "expected at least one multi-arity draw in 40 candidates"
        assert all(e.op in MULTI_OPS for e in multis)

    def test_duplicates_rejected_and_slots_skipped(self, caplog):
        class StubbornBackend:
            name = "stubborn"

            def propose(self, table, history, rng):
                return GenerationDecision("PageRank", ["PR_t"], "LOG1P")

        t = make_table(seed=6)
        with caplog.at_level(logging.WARNING):
            exprs = generate_candidates(StubbornBackend(), t, 3, np.random.default_rng(2))
        assert [e.name for e in exprs] == ["LOG1P(PR_t)"]
        assert any("skipped" in r.message for r in caplog.records)

    def test_backend_failure_falls_back(self, caplog):
        class FailingBackend:
            name = "failing"

            def propose(self, table, history, rng):
                raise RuntimeError("boom")

        t = make_table(seed=7)
        with caplog.at_level(logging.WARNING):
            exprs = generate_candidates(FailingBackend(), t, 5, np.random.default_rng(3))
        assert len(exprs) == 5
        assert any("falling back" in r.message for r in caplog.records)

    def test_generated_columns_compose_in_later_rounds(self):
        t = make_table(seed=8)
        rng = np.random.default_rng(4)
        first = generate_candidates(DeterministicBackend(), t, 5, rng)
        t = extend_table(t, first)
        assert t.matrix.shape[1] == 23 + 5
        second = generate_candidates(DeterministicBackend(), t, 20, rng)
        gen_names = {e.name for e in first}
        assert any(set(e.args) & gen_names for e in second)


class TestProvenance:
    def test_expr_dict_roundtrip(self):
        e = FeatureExpr("BINARY_SUB", ("BC_t", "BC_ego_mean"), "Betweenness")
        assert expr_from_dict(expr_to_dict(e)) == e
        assert expr_to_dict("primitive") == "primitive"

    def test_rebuild_columns_on_fresh_graph(self):
        t = make_table(seed=9)
        rng = np.random.default_rng(5)
        exprs = generate_candidates(DeterministicBackend(), t, 8, rng)
        t = extend_table(t, exprs)
        kept = t.names[:23:3] + [exprs[2].name, exprs[5].name]
        t = t.with_active(kept)

        fresh = rebuild_columns(make_table(seed=10), t.provenance, kept)
        assert fresh.names == t.names
        assert fresh.active_names() == t.active_names()

    def test_extension_and_activation_leave_the_input_table_as_it_was(self):
        # prepared caches and routing contexts share tables without copies
        t = make_table(seed=11)
        matrix, names, active = t.matrix.copy(), list(t.names), t.active.copy()
        exprs = generate_candidates(DeterministicBackend(), t, 4, np.random.default_rng(6))
        grown = extend_table(t, exprs).with_active(names[:5])
        rebuild_columns(t, grown.provenance, grown.active_names())
        assert grown.matrix.shape[1] == 23 + 4
        assert np.array_equal(t.matrix, matrix)
        assert t.names == names and t.provenance == ["primitive"] * 23
        assert np.array_equal(t.active, active)
