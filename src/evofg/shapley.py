"""Marginal-contribution estimation by complementary subset sampling and
the significance-based retention rule."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)


@dataclass
class ShapleyStats:
    features: list  # column names, fixed order
    samples: np.ndarray  # T x F marginal contributions
    mean: np.ndarray  # phi-hat per feature
    std: np.ndarray  # population std of the samples
    std_err: np.ndarray  # std / sqrt(T)
    z: np.ndarray
    iterations: int
    eval_count: int  # utility calls consumed (T * (F + 2))


def _z_scores(mean, std_err):
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


def estimate_contributions(features, utility, iterations, seed) -> ShapleyStats:
    """Complementary-subset sampler: each iteration splits the feature set by
    fair coins into S1/S2, evaluates both halves once, then scores every
    feature against the opposite half. Exactly one sample per feature per
    iteration and |F| + 2 utility calls per iteration."""
    features = list(features)
    n = len(features)
    if n < 2:
        raise ValueError("need at least 2 features")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    rng = np.random.default_rng(seed)
    samples = np.zeros((iterations, n))
    calls = 0

    def v(subset):
        nonlocal calls
        calls += 1
        return float(utility(frozenset(subset)))

    for t in range(iterations):
        coin = rng.random(n) < 0.5
        s1 = [f for f, c in zip(features, coin) if c]
        s2 = [f for f, c in zip(features, coin) if not c]
        v1 = v(s1)
        v2 = v(s2)
        for i, f in enumerate(features):
            if coin[i]:  # f in S1: marginal against the complement S2
                samples[t, i] = v(s2 + [f]) - v2
            else:
                samples[t, i] = v(s1 + [f]) - v1
    mean = samples.mean(axis=0)
    std = samples.std(axis=0)
    std_err = std / np.sqrt(iterations)
    return ShapleyStats(
        features=features,
        samples=samples,
        mean=mean,
        std=std,
        std_err=std_err,
        z=_z_scores(mean, std_err),
        iterations=iterations,
        eval_count=calls,
    )


def select_features(stats: ShapleyStats, z_crit) -> list:
    """Keep features with nonnegative mean contribution or significant
    positive z; never returns an empty set (falls back to the top-1 mean)."""
    kept = [
        f
        for f, m, z in zip(stats.features, stats.mean, stats.z)
        if m >= 0 or z >= z_crit
    ]
    if not kept:
        best = stats.features[int(np.argmax(stats.mean))]
        log.warning(
            "selection removed every feature; retaining top contributor %r", best
        )
        kept = [best]
    return kept


def format_stats(stats: ShapleyStats, kept) -> str:
    """Aligned text table: feature, mean contribution, SE, z, kept flag."""
    kept_set = set(kept)
    width = max(len(f) for f in stats.features)
    lines = [f"{'feature':<{width}}  {'phi_hat':>12}  {'SE':>12}  {'z':>10}  kept"]
    for f, m, se, z in zip(stats.features, stats.mean, stats.std_err, stats.z):
        lines.append(
            f"{f:<{width}}  {m:>12.6g}  {se:>12.6g}  {z:>10.4g}  "
            f"{'yes' if f in kept_set else 'no'}"
        )
    return "\n".join(lines) + "\n"
