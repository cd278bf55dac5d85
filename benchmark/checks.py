"""Output checks run outside every timed section.

Each check appends a one-line description of what is wrong to ``problems``;
an empty list means the run's outputs are correct. The ranking metrics here
are the benchmark's own (a midrank formula for AUROC, precision at each
positive for AUPRC) and are compared with ``evofg.numeric``; the primitive
columns are compared with all-pairs distances from ``scipy.sparse.csgraph``.
"""

from __future__ import annotations

import json
import os

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import shortest_path

from evofg import dsl, numeric
from evofg.features import PRIMITIVE_NAMES
from evofg.graph import EGO_RADIUS

METRIC_TOL = 1e-12
SIMPLEX_TOL = 1e-12
CENTRALITY_TOL = 1e-9


def rank_auroc(scores, labels):
    """Mann-Whitney U over midranks, divided by (#anomalies x #normals)."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    midrank = np.cumsum(counts) - (counts - 1) / 2.0
    ranks = midrank[inverse]
    pos = labels == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def average_precision(scores, labels):
    """Mean precision at the rank of each anomaly, scores descending, ties in
    node order."""
    hits = labels[np.argsort(-scores, kind="stable")] == 1
    return float(np.mean(np.cumsum(hits)[hits] / (np.flatnonzero(hits) + 1)))


def check_scores(ig, scores, weights, problems):
    """Scores and routing of one graph; returns (auroc, auprc)."""
    name, n = ig.name, ig.num_nodes
    if scores.shape != (n,):
        problems.append(f"{name}: {scores.shape} scores for {n} nodes")
        return float("nan"), float("nan")
    if not np.isfinite(scores).all() or (scores < 0).any():
        problems.append(f"{name}: scores not finite and >= 0")
    if weights.shape[0] != n or (weights < 0).any():
        problems.append(f"{name}: routing rows missing or negative")
    elif np.abs(weights.sum(axis=1) - 1.0).max() > SIMPLEX_TOL:
        problems.append(f"{name}: routing rows do not sum to 1")
    roc, prc = rank_auroc(scores, ig.labels), average_precision(scores, ig.labels)
    if abs(roc - numeric.auroc(scores, ig.labels)) > METRIC_TOL:
        problems.append(f"{name}: AUROC {roc} != evofg.numeric.auroc")
    if abs(prc - numeric.auprc(scores, ig.labels)) > METRIC_TOL:
        problems.append(f"{name}: AUPRC {prc} != evofg.numeric.auprc")
    if not roc > 0.5:
        problems.append(f"{name}: AUROC {roc:.4f} is not above 0.5")
    return roc, prc


def check_repeat(first, again, problems):
    """A later scoring round must reproduce the first bit for bit."""
    for a, b in zip(first, again):
        if a.error != b.error or (
            not a.error and not np.array_equal(a.scores, b.scores)
        ):
            problems.append(f"{a.graph.name}: a later round scored differently")


def check_features(art_dir, artifacts, problems):
    """The kept feature set is non-empty, drawn from the saved provenance,
    and the one training returned."""
    with open(os.path.join(art_dir, "features.json"), "r", encoding="utf-8") as fh:
        saved = json.load(fh)
    names = [PRIMITIVE_NAMES[i] if p == "primitive" else dsl.expr_from_dict(p).name
             for i, p in enumerate(saved["provenance"])]
    active = saved["active"]
    if not active:
        problems.append("the kept feature set is empty")
    if not set(active) <= set(names):
        problems.append(f"kept features outside the provenance: {set(active) - set(names)}")
    if active != artifacts.active_names:
        problems.append("saved kept features differ from the trained ones")


def check_primitives(cache, problems):
    """Primitive columns of the scored graph (taken from the prepared_cache
    passed to score_graph) against all-pairs shortest-path distances."""
    (bundle,) = cache.values()
    g, table = bundle.graph, bundle.table
    n = g.num_nodes
    col = {name: table.column(name) for name in PRIMITIVE_NAMES}
    adj = sp.csr_matrix((np.ones(2 * g.num_edges),
                         (np.r_[g.edges[:, 0], g.edges[:, 1]],
                          np.r_[g.edges[:, 1], g.edges[:, 0]])), shape=(n, n))
    dist = shortest_path(adj, unweighted=True)
    reach = np.isfinite(dist) & (dist > 0)
    d = np.where(reach, dist, 0.0)

    if not np.array_equal(col["Deg_t"], np.asarray(adj.sum(axis=1)).ravel()):
        problems.append("Deg_t differs from the adjacency row sums")
    if not np.array_equal(col["Ego_size"], (dist <= EGO_RADIUS).sum(axis=1).astype(float)):
        problems.append(f"Ego_size differs from |{{u: d(v,u) <= {EGO_RADIUS}}}|")

    r = reach.sum(axis=1)
    total = d.sum(axis=1)
    cc = np.divide(r * r, (n - 1) * total, out=np.zeros(n), where=r > 0)
    if np.abs(col["CC_t"] - cc).max() > CENTRALITY_TOL:
        problems.append("CC_t differs from the distance-matrix closeness")

    norms = np.linalg.norm(bundle.xtilde, axis=1, keepdims=True)
    xn = np.divide(bundle.xtilde, norms, out=np.zeros_like(bundle.xtilde), where=norms > 0)
    sim = xn @ xn.T
    for k in range(1, 6):
        shell = dist == k
        size = shell.sum(axis=1)
        mean = np.divide((sim * shell).sum(axis=1), size, out=np.zeros(n), where=size > 0)
        if np.abs(col[f"Sim_{k}hop"] - mean).max() > CENTRALITY_TOL:
            problems.append(f"Sim_{k}hop differs from the (D == {k}) shell means")

    pairs = (n - 1) * (n - 2) / 2.0
    bc_sum = (d[reach] - 1.0).sum() / 2.0 / pairs  # ordered pairs counted twice
    if abs(col["BC_t"].sum() - bc_sum) > CENTRALITY_TOL * max(1.0, bc_sum):
        problems.append(f"sum BC_t {col['BC_t'].sum()} != sum over pairs (d-1)/pairs {bc_sum}")
    if abs(col["PR_t"].sum() - 1.0) > CENTRALITY_TOL:
        problems.append(f"PR_t sums to {col['PR_t'].sum()}, not 1")
