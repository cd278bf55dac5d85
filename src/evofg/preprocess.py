"""Cross-graph attribute alignment: PCA to a shared width, then columns
re-ordered by edge-wise smoothness so the most heterophilous (high-frequency)
channels come first on every graph."""

from __future__ import annotations

import numpy as np

from .graph import Graph
from .numeric import pca_project


def smoothness_scores(xhat: np.ndarray, g: Graph) -> np.ndarray:
    """Per-column score: minus the mean squared difference across edges,
    each undirected edge counted once. Always <= 0; 0 means constant along
    every edge, and on an edgeless graph."""
    xhat = np.asarray(xhat, dtype=np.float64)
    if xhat.shape[0] != g.num_nodes:
        raise ValueError("row count does not match the graph")
    if g.num_edges == 0:
        return np.zeros(xhat.shape[1])
    diffs = xhat[g.edges[:, 0]] - xhat[g.edges[:, 1]]
    return -(diffs**2).mean(axis=0)


def align(g: Graph, d: int) -> np.ndarray:
    """g's attributes PCA-projected to width d (N x d), columns sorted by
    ascending smoothness (ties broken by original column index)."""
    xhat = pca_project(g.features, d)
    return xhat[:, np.argsort(smoothness_scores(xhat, g), kind="stable")]
