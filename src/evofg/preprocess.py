"""Cross-graph attribute alignment: PCA to a shared width, then columns
re-ordered by edge-wise smoothness so the most heterophilous (high-frequency)
channels come first on every graph."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .numeric import pca_project


@dataclass
class AlignedFeatures:
    matrix: np.ndarray  # N x d, columns in ascending-smoothness order
    smoothness: np.ndarray  # length d, non-decreasing
    source: str


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


def align(g: Graph, d: int) -> AlignedFeatures:
    """PCA-project g's attributes to width d and sort columns by ascending
    smoothness (ties broken by original column index)."""
    xhat = pca_project(g.features, d)
    s = smoothness_scores(xhat, g)
    order = np.argsort(s, kind="stable")
    return AlignedFeatures(matrix=xhat[:, order], smoothness=s[order], source=g.name)
