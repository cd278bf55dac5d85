"""Shared numeric kernels: PCA projection and ranking metrics."""

from __future__ import annotations

import logging

import numpy as np

log = logging.getLogger(__name__)

# inputs outside these magnitudes are scaled by a power of two before the
# covariance, which would overflow near 1e154 or fall under the rank
# tolerance's floor near 1e-15; both are far from any attribute scale in
# use, so no other input changes by a bit
PCA_SCALE_ABOVE = 2.0**256
PCA_SCALE_BELOW = 2.0**-32


class UndefinedMetricError(ValueError):
    """Raised when a ranking metric is requested with single-class labels."""


def pca_project(x: np.ndarray, d: int) -> np.ndarray:
    """Project rows of x onto the top-d principal directions.

    Directions come from the eigendecomposition of the covariance of the
    column-centered input, ordered by descending explained variance. Sign
    convention: each direction's largest-magnitude coordinate is positive.
    Directions beyond the numerical rank are zeroed, and columns beyond the
    input width are zero-padded up to width d. A rank below what the input's
    shape allows, min(N - 1, width, d), is logged as a warning. An input
    beyond PCA_SCALE_ABOVE in magnitude, or nonzero and below
    PCA_SCALE_BELOW, is first scaled exactly, by a power of two, to
    magnitudes in [1/2, 1), and its projection is that of the scaled input.
    """
    x = np.asarray(x, dtype=np.float64)
    top = np.abs(x).max(initial=0.0)
    if top > PCA_SCALE_ABOVE or 0 < top < PCA_SCALE_BELOW:
        x = np.ldexp(x, -int(np.frexp(top)[1]))
    n, d_ori = x.shape
    if d < 1:
        raise ValueError(f"d={d} must be >= 1")
    xc = x - x.mean(axis=0)
    cov = (xc.T @ xc) / n
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:d]
    evals = evals[order]
    evecs = evecs[:, order]
    tol = max(n, d_ori) * np.finfo(np.float64).eps * max(evals.max(initial=0.0), 1e-30)
    rank_ok = evals > tol
    rank = int(rank_ok.sum())
    if rank < d:
        # centered rows span at most N - 1 directions: padding up to that
        # bound is the defined behaviour for small or narrow inputs
        shape_rank = min(n - 1, d_ori, d)
        log.log(
            logging.WARNING if rank < shape_rank else logging.DEBUG,
            "pca_project: rank %d below requested %d (at most %d for a %d x %d "
            "input); padding with zero directions",
            rank, d, shape_rank, n, d_ori,
        )
        evecs = evecs * rank_ok[None, :]
    for k in range(evecs.shape[1]):
        v = evecs[:, k]
        if v.any():
            i = int(np.argmax(np.abs(v)))
            if v[i] < 0:
                evecs[:, k] = -v
    proj = xc @ evecs
    return np.pad(proj, ((0, 0), (0, d - proj.shape[1])))


def _check_labels(labels):
    labels = np.asarray(labels)
    if labels.min() == labels.max():
        raise UndefinedMetricError("both classes must be present")
    return labels.astype(np.int64)


def auroc(scores, labels) -> float:
    """P(anomaly score > normal score) + half the tie probability,
    computed exactly from midranks."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = _check_labels(labels)
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]  # midranks, 1-based
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def auprc(scores, labels) -> float:
    """Average precision: precision at each positive's rank, descending
    scores, ties broken by stable original index order."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = _check_labels(labels)
    order = np.argsort(-scores, kind="stable")
    y = labels[order]
    tp = np.cumsum(y)
    k = np.arange(1, len(y) + 1)
    precision_at_pos = tp[y == 1] / k[y == 1]
    return float(precision_at_pos.mean())
