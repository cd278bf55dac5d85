import numpy as np
import pytest

from evofg.numeric import (
    GradReport,
    ProbeError,
    UndefinedMetricError,
    auprc,
    auroc,
    finite_diff_check,
    pca_project,
)
from helpers import brute_force_auprc, brute_force_auroc, coeff_variation


class TestPCA:
    def test_identical_rows_project_to_zero(self):
        x = np.tile([1.0, 2.0, 3.0], (5, 1))
        assert np.allclose(pca_project(x, 2), 0.0)

    def test_axis_aligned_cloud_orders_by_variance(self):
        # var(x0)=4, var(x1)=1: first component must align with axis 0
        rng = np.random.default_rng(0)
        x = np.stack([2.0 * rng.normal(size=400), rng.normal(size=400)], axis=1)
        proj = pca_project(x, 2)
        xc = x - x.mean(axis=0)
        corr = np.corrcoef(proj[:, 0], xc[:, 0])[0, 1]
        assert abs(corr) > 0.99
        assert proj[:, 0].var() > proj[:, 1].var()

    def test_full_dim_preserves_pairwise_distances(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 6))
        proj = pca_project(x, 6)
        for i in range(0, 30, 7):
            for j in range(0, 30, 5):
                d0 = np.linalg.norm(x[i] - x[j])
                d1 = np.linalg.norm(proj[i] - proj[j])
                assert abs(d0 - d1) < 1e-9

    def test_output_columns_uncorrelated(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(200, 8)) @ rng.normal(size=(8, 8))
        proj = pca_project(x, 5)
        cov = np.cov(proj, rowvar=False)
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() < 1e-8

    def test_deterministic_sign_convention(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(50, 4))
        assert np.array_equal(pca_project(x, 3), pca_project(x.copy(), 3))

    def test_rank_deficient_pads_with_zeros(self, caplog):
        rng = np.random.default_rng(4)
        base = rng.normal(size=(40, 2))
        x = np.hstack([base, base @ rng.normal(size=(2, 3))])  # rank 2, 5 cols
        with caplog.at_level("WARNING"):
            proj = pca_project(x, 4)
        assert np.allclose(proj[:, 2:], 0.0)
        assert any("rank" in r.message for r in caplog.records)

    def test_narrow_full_rank_input_pads_without_warning(self, caplog):
        # 24 attribute columns projected to d = 32: padding is what the shape
        # forces, logged at debug level only
        x = np.random.default_rng(6).normal(size=(120, 24))
        with caplog.at_level("DEBUG", logger="evofg.numeric"):
            proj = pca_project(x, 32)
        assert not proj[:, 24:].any()
        assert not [r for r in caplog.records if r.levelname == "WARNING"]
        assert any(r.levelname == "DEBUG" and "rank 24" in r.message
                   for r in caplog.records)

    def test_constant_features_warn(self, caplog):
        with caplog.at_level("WARNING", logger="evofg.numeric"):
            proj = pca_project(np.ones((50, 24)), 32)
        assert not proj.any()
        assert any(r.levelname == "WARNING" and "rank 0" in r.message
                   for r in caplog.records)

    def test_d_out_of_range(self):
        # d above the node count or the input width: project to the
        # available rank, zero-pad to width d
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 3))
        proj = pca_project(x, 8)
        assert proj.shape == (6, 8)
        assert np.array_equal(proj[:, :3], pca_project(x, 3))
        assert not proj[:, 3:].any()
        wide = rng.normal(size=(3, 10))
        proj = pca_project(wide, 5)
        assert proj.shape == (3, 5)
        assert np.abs(proj[:, :2]).max() > 0 and not proj[:, 2:].any()  # rank 2
        with pytest.raises(ValueError):
            pca_project(np.zeros((5, 3)), 0)


class TestRankingMetrics:
    def test_auroc_perfect_separation(self):
        assert auroc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_auroc_all_ties(self):
        assert auroc([0.5] * 6, [1, 0, 1, 0, 0, 0]) == 0.5

    def test_auroc_small_cases_match_pair_enumeration(self):
        # oracle-derived: single anomaly above both normals vs between them
        assert auroc([0.3, 0.7, 0.5], [0, 1, 0]) == brute_force_auroc(
            [0.3, 0.7, 0.5], [0, 1, 0]
        ) == 1.0
        assert auroc([0.3, 0.7, 0.5], [0, 0, 1]) == brute_force_auroc(
            [0.3, 0.7, 0.5], [0, 0, 1]
        ) == 0.5

    def test_auprc_perfect_ranking(self):
        assert auprc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_auprc_single_positive_mid_list(self):
        assert auprc([0.9, 0.8, 0.7], [0, 1, 0]) == 0.5

    def test_auprc_positive_ranked_last(self):
        assert auprc([5, 4, 3, 2, 1], [0, 0, 0, 0, 1]) == pytest.approx(0.2)

    def test_single_class_raises(self):
        for metric in (auroc, auprc):
            with pytest.raises(UndefinedMetricError):
                metric([0.1, 0.2], [1, 1])

    def test_agree_with_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = rng.integers(5, 60)
            scores = rng.choice([0.1, 0.25, 0.5, 0.9], size=n) + rng.normal(
                0, 0.01, n
            ) * rng.integers(0, 2, n)
            labels = np.zeros(n, dtype=int)
            labels[rng.choice(n, size=rng.integers(1, n), replace=False)] = 1
            if labels.min() == labels.max():
                continue
            assert auroc(scores, labels) == pytest.approx(
                brute_force_auroc(scores, labels), abs=1e-12
            )
            assert auprc(scores, labels) == pytest.approx(
                brute_force_auprc(scores, labels), abs=1e-12
            )

    def test_auroc_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(6)
        scores = rng.normal(size=40)
        labels = (rng.random(40) < 0.3).astype(int)
        labels[0] = 1
        labels[1] = 0
        base = auroc(scores, labels)
        assert auroc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
        assert auroc(3 * scores + 7, labels) == pytest.approx(base, abs=1e-12)


class TestCoeffVariation:
    def test_equal_loads(self):
        assert coeff_variation([1, 1, 1, 1]) == 0.0

    def test_two_point(self):
        assert coeff_variation([0.0, 2.0]) == pytest.approx(1.0)

    def test_hand_computed(self):
        # population std sqrt(27/4) over mean 4.5
        assert coeff_variation([3, 3, 3, 9]) == pytest.approx(
            np.sqrt(27.0 / 4.0) / 4.5
        )

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.random(10) + 0.1
        for c in (0.5, 3.0, 100.0):
            assert coeff_variation(c * x) == pytest.approx(coeff_variation(x))

    def test_zero_mean_convention(self):
        assert coeff_variation([0.0, 0.0, 0.0]) == 0.0

    def test_too_few_values(self):
        with pytest.raises(ValueError):
            coeff_variation([1.0])


class TestFiniteDiffCheck:
    def test_quadratic_is_exact(self):
        p = np.array([1.0, -2.0, 0.5])
        rep = finite_diff_check(
            lambda v: 0.5 * float(v @ v), lambda v: v.copy(), p
        )
        assert isinstance(rep, GradReport)
        assert rep.max_rel_err < 1e-8

    def test_softplus_sum(self):
        rng = np.random.default_rng(8)
        p = rng.normal(size=6)

        def loss(v):
            return float(np.sum(np.log1p(np.exp(-np.abs(v))) + np.maximum(v, 0)))

        def grad(v):
            return 1.0 / (1.0 + np.exp(-v))

        rep = finite_diff_check(loss, grad, p, step=1e-5)
        assert rep.max_rel_err < 1e-6

    def test_detects_planted_bug(self):
        p = np.array([0.3, 1.2])
        rep = finite_diff_check(
            lambda v: 0.5 * float(v @ v), lambda v: 2.0 * v, p
        )
        assert rep.max_rel_err == pytest.approx(1.0, abs=1e-4)

    def test_non_finite_probe_raises(self):
        def loss(v):
            return float("nan") if v[0] > 0.05 else float(v[0])

        with pytest.raises(ProbeError):
            finite_diff_check(loss, lambda v: np.ones(1), np.array([0.0]), step=0.1)
