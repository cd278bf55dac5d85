import numpy as np
import pytest

from evofg.shapley import (
    ShapleyStats,
    estimate_contributions,
    format_stats,
    select_features,
)
from helpers import exact_shapley, mean_marginal_oracle

FEATURES8 = [f"f{i}" for i in range(8)]


def additive_utility(weights):
    return lambda s: sum(weights[f] for f in s)


class TestEstimator:
    def test_additive_game_exact_with_zero_variance(self):
        weights = {f: i + 1.0 for i, f in enumerate(FEATURES8)}
        stats = estimate_contributions(FEATURES8, additive_utility(weights), 10, seed=0)
        for i, f in enumerate(FEATURES8):
            assert stats.mean[i] == pytest.approx(weights[f])
            assert stats.std[i] == 0.0
        assert (stats.samples == stats.mean[None, :]).all()

    def test_constant_utility_all_zero(self):
        stats = estimate_contributions(FEATURES8, lambda s: 42.0, 5, seed=1)
        assert np.allclose(stats.mean, 0.0)
        assert np.allclose(stats.z, 0.0)

    @pytest.mark.parametrize("n_features", [8, 23, 40])
    def test_eval_count_exact(self, n_features):
        feats = [f"c{i}" for i in range(n_features)]
        iters = 7
        stats = estimate_contributions(feats, lambda s: len(s) * 0.1, iters, seed=2)
        assert stats.eval_count == iters * (n_features + 2)

    def test_one_sample_per_feature_per_iteration(self):
        stats = estimate_contributions(FEATURES8, lambda s: len(s) ** 1.5, 12, seed=3)
        assert stats.samples.shape == (12, 8)
        assert stats.iterations == 12

    def test_deterministic_given_seed(self):
        util = lambda s: sum(hash(f) % 7 for f in s) * 0.01
        a = estimate_contributions(FEATURES8, util, 6, seed=9)
        b = estimate_contributions(FEATURES8, util, 6, seed=9)
        assert np.array_equal(a.samples, b.samples)

    def test_needs_two_features_and_one_iteration(self):
        with pytest.raises(ValueError):
            estimate_contributions(["only"], lambda s: 0.0, 3, seed=0)
        with pytest.raises(ValueError):
            estimate_contributions(FEATURES8, lambda s: 0.0, 0, seed=0)

    def test_z_conventions(self):
        weights = {f: (1.0 if i == 0 else -1.0 if i == 1 else 0.0)
                   for i, f in enumerate(FEATURES8)}
        stats = estimate_contributions(FEATURES8, additive_utility(weights), 4, seed=4)
        assert stats.z[0] == np.inf
        assert stats.z[1] == -np.inf
        assert stats.z[2] == 0.0

    def test_unbiased_against_binomial_oracle(self):
        rng = np.random.default_rng(5)
        feats = FEATURES8[:6]
        # random super/sub-additive game
        values = {}

        def util(s):
            key = frozenset(s)
            if key not in values:
                values[key] = float(rng.normal()) + 0.3 * len(key)
            return values[key]

        oracle = mean_marginal_oracle(feats, util)
        stats = estimate_contributions(feats, util, 3000, seed=6)
        within = np.abs(stats.mean - oracle) <= 3.0 * np.maximum(stats.std_err, 1e-12)
        assert within.mean() >= 0.95


class TestExact:
    def test_additive_recovers_weights(self):
        feats = FEATURES8[:5]
        weights = {f: 0.5 * i - 1.0 for i, f in enumerate(feats)}
        phi = exact_shapley(feats, additive_utility(weights))
        assert np.allclose(phi, [weights[f] for f in feats])

    def test_and_game_splits_credit(self):
        feats = ["a", "b"]
        phi = exact_shapley(feats, lambda s: 1.0 if len(s) == 2 else 0.0)
        assert np.allclose(phi, [0.5, 0.5])

    def test_efficiency_axiom(self):
        rng = np.random.default_rng(7)
        feats = FEATURES8[:6]
        values = {}

        def util(s):
            key = frozenset(s)
            if key not in values:
                values[key] = float(rng.normal())
            return values[key]

        phi = exact_shapley(feats, util)
        assert phi.sum() == pytest.approx(util(frozenset(feats)) - util(frozenset()))

    def test_size_cap(self):
        with pytest.raises(ValueError):
            exact_shapley([f"x{i}" for i in range(16)], lambda s: 0.0)


class TestSelection:
    def make_stats(self, mean, std_err):
        mean = np.asarray(mean, dtype=float)
        std_err = np.asarray(std_err, dtype=float)
        z = np.where(std_err > 0, mean / np.where(std_err > 0, std_err, 1.0), 0.0)
        feats = [f"f{i}" for i in range(len(mean))]
        return ShapleyStats(
            features=feats,
            samples=np.zeros((1, len(mean))),
            mean=mean,
            std=std_err,
            std_err=std_err,
            z=z,
            iterations=1,
            eval_count=len(mean) + 2,
        )

    def test_rule_application(self):
        stats = self.make_stats([0.2, -0.1, 0.0], [10.0, 10.0, 10.0])
        assert select_features(stats, 1.645) == ["f0", "f2"]

    def test_significant_negative_removed(self):
        stats = self.make_stats([0.5, -0.01], [0.1, 1e-6])
        assert select_features(stats, 1.645) == ["f0"]

    def test_never_empty(self, caplog):
        stats = self.make_stats([-0.5, -0.1, -0.9], [0.01, 0.01, 0.01])
        with caplog.at_level("WARNING"):
            kept = select_features(stats, 1.645)
        assert kept == ["f1"]
        assert any("retaining top contributor" in r.message for r in caplog.records)

    def test_lowering_z_crit_never_removes(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            stats = self.make_stats(rng.normal(size=6), rng.random(6) * 0.5 + 0.01)
            hi = set(select_features(stats, 2.5))
            lo = set(select_features(stats, 0.5))
            assert hi <= lo

    def test_format_stats_table(self):
        stats = self.make_stats([0.2, -0.3], [0.1, 0.1])
        text = format_stats(stats, ["f0"])
        lines = text.strip().split("\n")
        assert "phi_hat" in lines[0]
        assert lines[1].endswith("yes")
        assert lines[2].endswith("no")
