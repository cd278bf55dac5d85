"""Shared numeric kernels: PCA projection, ranking metrics, and the
central-difference gradient checker that every trainable loss in this
package must pass."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)


class UndefinedMetricError(ValueError):
    """Raised when a ranking metric is requested with single-class labels."""


class ProbeError(RuntimeError):
    """Raised when a finite-difference probe hits a non-finite loss."""


@dataclass
class GradReport:
    max_rel_err: float
    worst_param: int
    step: float


def pca_project(x: np.ndarray, d: int) -> np.ndarray:
    """Project rows of x onto the top-d principal directions.

    Directions come from the eigendecomposition of the covariance of the
    column-centered input, ordered by descending explained variance. Sign
    convention: each direction's largest-magnitude coordinate is positive.
    Directions beyond the numerical rank are zeroed, and columns beyond the
    input width are zero-padded up to width d. A rank below what the input's
    shape allows, min(N - 1, width, d), is logged as a warning.
    """
    x = np.asarray(x, dtype=np.float64)
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
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores), dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # midrank, 1-based
        i = j + 1
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


def finite_diff_check(loss_fn, grad_fn, params, step=1e-5) -> GradReport:
    """Compare an analytic gradient against central differences.

    loss_fn(p) -> float and grad_fn(p) -> vector must be pure in p. The
    relative error per coordinate uses the finite-difference value as the
    denominator, floored at 1e-8.
    """
    p = np.asarray(params, dtype=np.float64).copy()
    base = loss_fn(p)
    if not np.isfinite(base):
        raise ProbeError("loss non-finite at the base point")
    analytic = np.asarray(grad_fn(p), dtype=np.float64)
    worst = 0.0
    worst_i = -1
    for i in range(p.size):
        probe = p.copy()
        probe[i] += step
        up = loss_fn(probe)
        probe[i] = p[i] - step
        down = loss_fn(probe)
        if not (np.isfinite(up) and np.isfinite(down)):
            raise ProbeError(f"non-finite loss while probing coordinate {i}")
        fd = (up - down) / (2.0 * step)
        rel = abs(analytic[i] - fd) / max(abs(fd), 1e-8)
        if rel > worst:
            worst = rel
            worst_i = i
    return GradReport(max_rel_err=float(worst), worst_param=worst_i, step=step)
