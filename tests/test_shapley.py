import numpy as np
import pytest

from evofg.shapley import (
    ShapleyStats,
    _z_scores,
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

    def test_one_feature_is_estimated_exactly(self):
        """With one feature every sample is v({f}) - v(empty set), at three
        utility calls per iteration; no feature or no iteration is refused."""
        calls = []

        def utility(s):
            calls.append(s)
            return 0.75 if s else 0.25

        stats = estimate_contributions(["only"], utility, 4, seed=0)
        assert stats.samples.tolist() == [[0.5]] * 4
        assert stats.mean.tolist() == [0.5] and stats.std.tolist() == [0.0]
        assert stats.eval_count == len(calls) == 3 * 4
        with pytest.raises(ValueError):
            estimate_contributions([], lambda s: 0.0, 3, seed=0)
        with pytest.raises(ValueError):
            estimate_contributions(FEATURES8, lambda s: 0.0, 0, seed=0)

    def test_z_conventions(self):
        weights = {f: (1.0 if i == 0 else -1.0 if i == 1 else 0.0)
                   for i, f in enumerate(FEATURES8)}
        stats = estimate_contributions(FEATURES8, additive_utility(weights), 4, seed=4)
        assert stats.z[0] == np.inf
        assert stats.z[1] == -np.inf
        assert stats.z[2] == 0.0

    def test_z_scores_match_the_per_feature_rule_bit_for_bit(self):
        def per_feature(mean, std_err):
            z = np.empty_like(mean)
            for i, (m, se) in enumerate(zip(mean, std_err)):
                if se > 0:
                    z[i] = m / se
                elif m > 0:
                    z[i] = np.inf
                elif m < 0:
                    z[i] = -np.inf
                else:
                    z[i] = 0.0
            return z

        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            mean = rng.normal(size=n) * 10.0 ** rng.integers(-100, 100, size=n)
            mean[rng.random(n) < 0.3] = 0.0
            mean[rng.random(n) < 0.1] = -0.0
            std_err = np.abs(rng.normal(size=n)) * 10.0 ** rng.integers(-100, 100, size=n)
            std_err[rng.random(n) < 0.4] = 0.0
            assert _z_scores(mean, std_err).tobytes() == per_feature(mean, std_err).tobytes()

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
        assert select_features(stats) == ["f0", "f2"]

    def test_significant_negative_removed(self):
        stats = self.make_stats([0.5, -0.01], [0.1, 1e-6])
        assert select_features(stats) == ["f0"]

    def test_never_empty(self, caplog):
        stats = self.make_stats([-0.5, -0.1, -0.9], [0.01, 0.01, 0.01])
        with caplog.at_level("WARNING"):
            kept = select_features(stats)
        assert kept == ["f1"]
        assert any("retaining top contributor" in r.message for r in caplog.records)

    def test_kept_set_is_the_nonnegative_contributions(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            mean = rng.normal(size=n) - rng.choice([0.0, 3.0])
            mean[rng.random(n) < 0.2] = 0.0
            stats = self.make_stats(mean, rng.random(n) * 0.5 * rng.integers(0, 2, n))
            nonnegative = [f for f, m in zip(stats.features, mean) if m >= 0]
            expected = nonnegative or [stats.features[int(np.argmax(mean))]]
            assert select_features(stats) == expected

    def test_format_stats_table(self):
        stats = self.make_stats([0.2, -0.3], [0.1, 0.1])
        text = format_stats(stats, ["f0"])
        lines = text.strip().split("\n")
        assert "phi_hat" in lines[0]
        assert lines[1].endswith("yes")
        assert lines[2].endswith("no")
