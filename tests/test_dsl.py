import dataclasses
import logging

import numpy as np
import pytest

from evofg import dsl
from evofg.dsl import (
    BINARY_OPS,
    CLAMP,
    DeterministicBackend,
    ExprValidationError,
    FeatureExpr,
    MULTI_OPS,
    UNARY_OPS,
    check_proposal,
    eval_expr,
    expr_from_dict,
    expr_to_dict,
    extend_table,
    generate_candidates,
    rebuild_columns,
)
from evofg.features import PRIMITIVE_NAMES, RouterFeatureTable, compute_primitives
from helpers import fold_extend, path_graph, random_graph


def make_table(n=5, seed=0):
    g = path_graph(n, d=3, seed=seed)
    return compute_primitives(g, g.features)


def small_table(columns):
    names = list(columns)
    cats = ["PageRank"] * len(names)
    mat = np.stack([columns[n] for n in names], axis=1)
    return RouterFeatureTable(matrix=mat, names=names, categories=cats)


class TestEval:
    def test_log1p_of_zero_column(self):
        t = small_table({"a": np.zeros(4)})
        e = FeatureExpr("LOG1P", ("a",), "PageRank")
        assert np.allclose(eval_expr(e, t.column_map()), 0.0)

    def test_diff_over_sum_of_equal_columns(self):
        t = small_table({"a": np.full(4, 2.0), "b": np.full(4, 2.0)})
        e = FeatureExpr("BINARY_DIFF_OVER_SUM", ("a", "b"), "PageRank")
        assert np.abs(eval_expr(e, t.column_map())).max() < 1e-8

    def test_multi_var_population_variance(self):
        t = small_table(
            {"a": np.ones(3), "b": np.full(3, 2.0), "c": np.full(3, 3.0)}
        )
        e = FeatureExpr("MULTI_VAR", ("a", "b", "c"), "PageRank")
        assert np.allclose(eval_expr(e, t.column_map()), 2.0 / 3.0)

    def test_log_guard_on_nonpositive(self):
        t = small_table({"a": np.array([-1.0, 0.0, 3.0])})
        out = eval_expr(FeatureExpr("LOG", ("a",), "PageRank"), t.column_map())
        assert np.isfinite(out).all()

    def test_reciprocal_guard_on_zero(self):
        t = small_table({"a": np.array([0.0, -2.0, 0.5])})
        out = eval_expr(FeatureExpr("RECIPROCAL", ("a",), "PageRank"), t.column_map())
        assert np.isfinite(out).all()
        assert out.max() <= CLAMP

    def test_cube_clamped(self):
        t = small_table({"a": np.array([1e5, -1e5])})
        out = eval_expr(FeatureExpr("CUBE", ("a",), "PageRank"), t.column_map())
        assert out.tolist() == [CLAMP, -CLAMP]

    def test_unknown_column_rejected(self):
        t = small_table({"a": np.ones(3)})
        with pytest.raises(ExprValidationError, match="ghost"):
            eval_expr(FeatureExpr("LOG1P", ("ghost",), "PageRank"), t.column_map())

    def test_never_nan_inf_on_random_tables_and_exprs(self):
        rng = np.random.default_rng(1)
        backend = DeterministicBackend()
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(4, 12)), p=0.4, d=3)
            t = compute_primitives(g, g.features)
            # exercise huge/degenerate magnitudes too
            t = dataclasses.replace(t, matrix=t.matrix * rng.choice([1.0, 1e6, 1e-9]))
            exprs = generate_candidates(backend, t, t.names, 6, rng)
            for e in exprs:
                out = eval_expr(e, t.column_map())
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
        e = FeatureExpr("BINARY_DIV", ("PR_t", "Deg_t"), "PageRank")
        with pytest.raises(ExprValidationError, match="Deg_t"):
            check_proposal(e, t, t.names)

    def test_decision_inactive_column_rejected(self):
        t = make_table()
        names = [n for n in t.names if n != "PR_t"]
        e = FeatureExpr("LOG1P", ("PR_t",), "PageRank")
        with pytest.raises(ExprValidationError, match="not active"):
            check_proposal(e, t, names)

    def test_valid_decision_roundtrip(self):
        t = make_table()
        e = FeatureExpr("BINARY_DIV", ("PR_t", "PR_ego_mean"), "PageRank")
        check_proposal(e, t, t.names)
        assert e.name == "BINARY_DIV(PR_t,PR_ego_mean)"
        assert e.category == "PageRank"


class TestGeneration:
    def test_deterministic_given_seed(self):
        t1, t2 = make_table(seed=3), make_table(seed=3)
        b = DeterministicBackend()
        e1 = generate_candidates(b, t1, t1.names, 10, np.random.default_rng(42))
        e2 = generate_candidates(b, t2, t2.names, 10, np.random.default_rng(42))
        assert [e.name for e in e1] == [e.name for e in e2]

    def test_composer_draws_are_pinned(self):
        # the composer's draws, in their order, name every generated feature
        # of a run with the chat backend off; these names were recorded from
        # an earlier version and pin its artifacts
        t = make_table(n=9, seed=3)
        first = generate_candidates(DeterministicBackend(), t, t.names, 12,
                                    np.random.default_rng(1))
        assert [e.name for e in first] == [
            "MULTI_MEAN(PR_ego_mean,PR_t,PR_global_rank)",
            "BINARY_DIV(CC_global_rank,CC_t)",
            "SIGMOID(Sim_3hop)",
            "BINARY_DIFF_OVER_SUM(Sim_2hop,Sim_4hop)",
            "BINARY_DIV(BC_global_rank,BC_t)",
            "LOG(PR_ego_rank)",
            "SQUARE(BC_global_rank)",
            "MULTI_VAR(PR_ego_rank,PR_ego_mean,PR_t)",
            "SQRT(Deg_t)",
            "BINARY_DIV(Ego_size,Deg_t)",
            "BINARY_DIV(PR_global_rank,PR_t)",
            "BINARY_DIV(BC_global_rank,BC_ego_rank)",
        ]
        grown = extend_table(t, first)
        second = generate_candidates(
            DeterministicBackend(), grown, grown.names, 12, np.random.default_rng(101)
        )
        assert [e.name for e in second] == [
            "LOG1P(BINARY_DIV(CC_global_rank,CC_t))",
            "BINARY_DIFF_OVER_SUM(Sim_3hop,Sim_4hop)",
            "LOG1P(BINARY_DIFF_OVER_SUM(Sim_2hop,Sim_4hop))",
            "RECIPROCAL(BINARY_DIV(Ego_size,Deg_t))",
            "BINARY_DIFF_OVER_SUM(BINARY_DIV(CC_global_rank,CC_t),CC_ego_rank)",
            "BINARY_DIV(Ego_size,SQRT(Deg_t))",
            "CUBE(LOG(PR_ego_rank))",
            "LOG1P(PR_ego_rank)",
            "MULTI_VAR(BC_ego_mean,BINARY_DIV(BC_global_rank,BC_ego_rank),SQUARE(BC_global_rank))",
            "MULTI_VAR(PR_global_rank,LOG(PR_ego_rank),PR_ego_rank)",
            "BINARY_DIFF_OVER_SUM(PR_ego_mean,MULTI_VAR(PR_ego_rank,PR_ego_mean,PR_t))",
            "BINARY_DIFF_OVER_SUM(BINARY_DIV(PR_global_rank,PR_t),LOG(PR_ego_rank))",
        ]

    def test_fifteen_distinct_wellformed(self):
        t = make_table(seed=4)
        exprs = generate_candidates(
            DeterministicBackend(), t, t.names, 15, np.random.default_rng(0)
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
            DeterministicBackend(), t, t.names, 40, np.random.default_rng(1)
        )
        multis = [e for e in exprs if len(e.args) >= 3]
        assert multis, "expected at least one multi-arity draw in 40 candidates"
        assert all(e.op in MULTI_OPS for e in multis)

    def test_duplicates_rejected_and_slots_skipped(self, caplog):
        class StubbornBackend:
            name = "stubborn"

            def propose(self, by_category, history, rng):
                return FeatureExpr("LOG1P", ("PR_t",), "PageRank")

        t = make_table(seed=6)
        with caplog.at_level(logging.WARNING):
            exprs = generate_candidates(StubbornBackend(), t, t.names, 3,
                                        np.random.default_rng(2))
        assert [e.name for e in exprs] == ["LOG1P(PR_t)"]
        assert any("skipped" in r.message for r in caplog.records)

    def test_backend_failure_falls_back(self, caplog):
        class FailingBackend:
            name = "failing"

            def propose(self, by_category, history, rng):
                raise RuntimeError("boom")

        t = make_table(seed=7)
        with caplog.at_level(logging.WARNING):
            exprs = generate_candidates(FailingBackend(), t, t.names, 5,
                                        np.random.default_rng(3))
        assert len(exprs) == 5
        assert any("falling back" in r.message for r in caplog.records)

    def test_every_composed_decision_validates(self):
        # generate_candidates re-raises a failure of the fallback composer,
        # which is sound only because the composer never makes an invalid
        # proposal
        full = make_table(seed=12)
        generated = extend_table(full, generate_candidates(
            DeterministicBackend(), full, full.names, 10, np.random.default_rng(7)))
        tables = {
            "all categories": (full, full.names),
            "one column": (full, ["CC_ego_rank"]),
            "generated columns": (generated,
                                  generated.names[len(PRIMITIVE_NAMES):] + ["Deg_t"]),
        }
        backend = DeterministicBackend()
        for name, (table, names) in tables.items():
            for seed in range(200):
                expr = backend.propose(table.by_category(names), [],
                                       np.random.default_rng(seed))
                check_proposal(expr, table, names)
                assert set(expr.args) <= set(names), name

    def test_failure_of_the_deterministic_backend_is_raised(self):
        class BrokenComposer(DeterministicBackend):
            def propose(self, by_category, history, rng):
                raise RuntimeError("boom")

        t = make_table()
        with pytest.raises(RuntimeError, match="boom"):
            generate_candidates(BrokenComposer(), t, t.names, 3, np.random.default_rng(0))
        with pytest.raises(ExprValidationError, match="no active columns"):
            generate_candidates(DeterministicBackend(), t, [], 3, np.random.default_rng(0))

    def test_generated_columns_compose_in_later_rounds(self):
        t = make_table(seed=8)
        rng = np.random.default_rng(4)
        first = generate_candidates(DeterministicBackend(), t, t.names, 5, rng)
        t = extend_table(t, first)
        assert t.matrix.shape[1] == len(PRIMITIVE_NAMES) + 5
        second = generate_candidates(DeterministicBackend(), t, t.names, 20, rng)
        gen_names = {e.name for e in first}
        assert any(set(e.args) & gen_names for e in second)


class TestProvenance:
    def test_expr_dict_roundtrip(self):
        e = FeatureExpr("BINARY_SUB", ("BC_t", "BC_ego_mean"), "Betweenness")
        assert expr_from_dict(expr_to_dict(e)) == e
        # a primitive entry of features.json is the file's detail, not an expression
        with pytest.raises(ExprValidationError, match="not an"):
            expr_from_dict("primitive")

    def test_rebuild_columns_on_fresh_graph(self):
        t = make_table(seed=9)
        rng = np.random.default_rng(5)
        exprs = generate_candidates(DeterministicBackend(), t, t.names, 8, rng)
        t = extend_table(t, exprs)
        kept = t.names[:len(PRIMITIVE_NAMES):3] + [exprs[2].name, exprs[5].name]

        fresh = rebuild_columns(make_table(seed=10), exprs, kept)
        assert [n for n in fresh.names if n in kept] == [n for n in t.names if n in kept]
        assert [n for n in t.names if n in fresh.names] == fresh.names

    def test_extension_and_activation_leave_the_input_table_as_it_was(self):
        # prepared caches and routing contexts share tables without copies
        t = make_table(seed=11)
        matrix, names, categories = t.matrix.copy(), list(t.names), list(t.categories)
        exprs = generate_candidates(DeterministicBackend(), t, t.names, 4,
                                    np.random.default_rng(6))
        grown = extend_table(t, exprs)
        rebuild_columns(t, exprs, names[:5] + [exprs[0].name])
        assert grown.matrix.shape[1] == len(PRIMITIVE_NAMES) + 4
        assert np.array_equal(t.matrix, matrix)
        assert t.names == names and t.categories == categories


def _two_rounds_of_exprs(table, seed):
    """Generated expressions of two rounds, the second composed on the
    first's columns, plus hand-made ones that read generated columns."""
    rng = np.random.default_rng(seed)
    first = generate_candidates(DeterministicBackend(), table, table.names, 8, rng)
    grown = fold_extend(table, first)
    second = generate_candidates(DeterministicBackend(), grown, grown.names, 12, rng)
    cat = first[0].category
    chained = [FeatureExpr("SIGMOID", (first[0].name,), cat),
               FeatureExpr("LOG1P", (f"SIGMOID({first[0].name})",), cat),
               FeatureExpr("MULTI_VAR", (first[1].name, first[2].name, "Deg_t"),
                           first[1].category)]
    exprs = first + second + chained
    assert any(set(e.args) & {x.name for x in first} for e in second)
    return exprs


def _assert_same_table(got, want):
    assert got.names == want.names
    assert got.categories == want.categories
    assert got.matrix.shape == want.matrix.shape
    assert got.matrix.tobytes() == want.matrix.tobytes()


def _assert_same_active(got, want, names):
    """The columns ``names`` of ``got`` and ``want`` agree in categories and
    bytes, and so does the router input built from them."""
    assert got.by_category(names) == want.by_category(names)
    assert (got.matrix[:, [got.names.index(n) for n in names]].tobytes()
            == want.matrix[:, [want.names.index(n) for n in names]].tobytes())
    assert got.standardized(names).tobytes() == want.standardized(names).tobytes()


class TestColumnsInOneTable:
    def test_extend_matches_one_column_at_a_time(self):
        t = make_table(n=40, seed=12)
        exprs = _two_rounds_of_exprs(t, seed=7)
        _assert_same_table(extend_table(t, exprs), fold_extend(t, exprs))
        _assert_same_table(extend_table(t, []), t)

    def test_rebuild_matches_one_column_at_a_time(self):
        trained = make_table(n=40, seed=13)
        exprs = _two_rounds_of_exprs(trained, seed=8)
        kept = trained.names[::4] + [e.name for e in exprs[1::3]]
        fresh = make_table(n=33, seed=14)
        want = fold_extend(fresh, exprs)
        _assert_same_active(rebuild_columns(fresh, exprs, kept), want, kept)
        # columns the table already has are kept, not evaluated again
        half = extend_table(fresh, exprs[:10])
        _assert_same_active(rebuild_columns(half, exprs, kept), want, kept)

    def test_rebuild_evaluates_only_what_the_active_columns_read(self, monkeypatch):
        trained = make_table(n=40, seed=16)
        exprs = _two_rounds_of_exprs(trained, seed=9)
        generated = {e.name: e for e in exprs}
        # LOG1P(SIGMOID(x)) reads a generated column through another one
        kept = trained.names[:5] + [e.name for e in (exprs[-1], exprs[-2], exprs[-4])]
        # the closure of the kept generated columns under "reads", by fixpoint
        needed = kept_generated = {n for n in kept if n in generated}
        while True:
            grown = needed | {a for n in needed for a in generated[n].args if a in generated}
            if grown == needed:
                break
            needed = grown
        assert len(kept_generated) + 2 <= len(needed) < len(exprs)
        evaluated = []
        real_eval = dsl.eval_expr

        def recording_eval(expr, columns):
            evaluated.append(expr.name)
            return real_eval(expr, columns)

        monkeypatch.setattr(dsl, "eval_expr", recording_eval)
        fresh = make_table(n=33, seed=17)
        rebuild_columns(fresh, exprs, kept)
        assert evaluated == [e.name for e in exprs if e.name in needed]
        half = extend_table(fresh, exprs[:10])
        evaluated.clear()
        rebuild_columns(half, exprs, kept)
        assert evaluated == [e.name for e in exprs[10:] if e.name in needed]

    def test_a_name_the_table_has_is_refused(self):
        t = make_table(seed=15)
        e = FeatureExpr("SQUARE", ("Deg_t",), "Topology")
        with pytest.raises(ValueError, match="already exists"):
            extend_table(extend_table(t, [e]), [e])
        with pytest.raises(ValueError, match="already exists"):
            extend_table(t, [e, e])
