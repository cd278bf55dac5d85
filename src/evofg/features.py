"""The 23 structural router-feature primitives and the node-by-feature table
they live in: PageRank/betweenness/closeness at target, ego-mean, global-mean,
ego-rank and global-rank scope, edge-average and 1..5-hop feature similarity,
degree, and ego-graph size.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse.csgraph import shortest_path

from .graph import EGO_RADIUS, Graph

log = logging.getLogger(__name__)

_BLOCK = 256  # source rows per block: float temporaries stay at _BLOCK x N

CATEGORIES = ("PageRank", "Betweenness", "Closeness", "Similarity", "Topology")

_SCOPES = ("t", "ego_mean", "global_mean", "ego_rank", "global_rank")

PRIMITIVE_NAMES = (
    [f"PR_{s}" for s in _SCOPES]
    + [f"BC_{s}" for s in _SCOPES]
    + [f"CC_{s}" for s in _SCOPES]
    + ["Sim_edge_avg"]
    + [f"Sim_{k}hop" for k in range(1, 6)]
    + ["Deg_t", "Ego_size"]
)

PRIMITIVE_CATEGORIES = (
    ["PageRank"] * 5
    + ["Betweenness"] * 5
    + ["Closeness"] * 5
    + ["Similarity"] * 6
    + ["Topology"] * 2
)


def pagerank(g: Graph, damping=0.85, tol=1e-10, max_iter=200) -> np.ndarray:
    """Power iteration with uniform teleport; dangling mass is spread
    uniformly. Stops at L1 change < tol (or max_iter). Sums to 1."""
    n = g.num_nodes
    if n == 1:
        return np.ones(1)
    deg = g.degrees.astype(np.float64)
    dangling = deg == 0
    inv_deg = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, deg))
    a = g.adjacency()
    p = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        spread = a @ (p * inv_deg) + p[dangling].sum() / n
        p_new = (1.0 - damping) / n + damping * spread
        if np.abs(p_new - p).sum() < tol:
            p = p_new
            break
        p = p_new
    return p


def _row_blocks(n):
    """Slices of at most _BLOCK rows covering 0..n-1."""
    return [slice(lo, min(lo + _BLOCK, n)) for lo in range(0, n, _BLOCK)]


def _hop_distances(g: Graph) -> np.ndarray:
    """All-pairs hop distances (N x N, -1 where unreachable) in the smallest
    signed integer type that holds them; cached on the graph."""
    dist = g._ops.get("hops")
    if dist is None:
        n = g.num_nodes
        dist = np.empty((n, n), dtype=np.min_scalar_type(-n))
        a = g.adjacency()
        for rows in _row_blocks(n):
            block = shortest_path(
                a, directed=False, unweighted=True, indices=np.arange(n)[rows]
            )
            dist[rows] = np.where(np.isinf(block), -1, block)
        g._ops["hops"] = dist
    return dist


def _ego_mask(dist):
    return (dist >= 0) & (dist <= EGO_RADIUS)


def betweenness(g: Graph) -> np.ndarray:
    """Brandes betweenness on unweighted shortest paths, endpoints excluded,
    normalized by (N-1)(N-2)/2 pairs.

    Level-synchronous linear-algebraic form (Kepner & Gilbert 2011), one
    block of sources at a time: shortest-path counts go forward one hop
    level at a time by products with A, dependencies go back level by level.
    """
    n = g.num_nodes
    score = np.zeros(n)
    if n < 3:
        return score
    a = g.adjacency()
    dist = _hop_distances(g)
    for rows in _row_blocks(n):
        # column j holds the distances from source rows[j] (dist is symmetric)
        d = np.ascontiguousarray(dist[:, rows])
        depth = int(d.max())
        sigma = (d == 0).astype(np.float64)
        for k in range(1, depth + 1):
            sigma = np.where(d == k, a @ np.where(d == k - 1, sigma, 0.0), sigma)
        # sources sit at level 0 and never receive a dependency
        delta = np.zeros(d.shape)
        for k in range(depth, 1, -1):
            coeff = np.divide(1.0 + delta, sigma, out=np.zeros(d.shape), where=d == k)
            delta += np.where(d == k - 1, sigma * (a @ coeff), 0.0)
        # a running total over sources in index order, so that tied scores
        # round alike and the rank columns keep their ties
        score = np.cumsum(np.vstack([score, delta.T]), axis=0)[-1]
    # each unordered pair was counted from both endpoints
    return score / ((n - 1) * (n - 2))


def closeness(g: Graph) -> np.ndarray:
    """Component-size-scaled closeness: (|R|/(N-1)) * (|R| / sum of
    distances to R), with R the reachable set; isolated nodes get 0."""
    n = g.num_nodes
    if n == 1:
        return np.zeros(1)
    dist = _hop_distances(g)
    reach = dist > 0
    r = reach.sum(axis=1)
    total = dist.sum(axis=1, where=reach, dtype=np.int64)
    return (r / (n - 1)) * np.divide(r, total, out=np.zeros(n), where=r > 0)


def scope_expand(values: np.ndarray, g: Graph):
    """Expand a node statistic into the five scope columns
    (target, ego_mean, global_mean, ego_rank, global_rank)."""
    values = np.asarray(values, dtype=np.float64)
    n = g.num_nodes
    ego = _ego_mask(_hop_distances(g))
    size = ego.sum(axis=1)
    row = np.broadcast_to(values, ego.shape)
    ego_mean = row.sum(axis=1, where=ego) / size
    less = np.count_nonzero(ego & (row < values[:, None]), axis=1)
    ties = np.count_nonzero(ego & (row == values[:, None]), axis=1) - 1  # not v itself
    ego_rank = np.divide(less + 0.5 * ties, size - 1, out=np.full(n, 0.5), where=size > 1)
    global_mean = np.full(n, values.mean())
    sorted_vals = np.sort(values)
    left = np.searchsorted(sorted_vals, values, side="left")
    right = np.searchsorted(sorted_vals, values, side="right")
    if n > 1:
        global_rank = (left + 0.5 * (right - left - 1)) / (n - 1)
    else:
        global_rank = np.full(n, 0.5)
    return values.copy(), ego_mean, global_mean, ego_rank, global_rank


def _normalized_rows(x):
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return np.divide(x, norms, out=np.zeros_like(x), where=norms > 0)


def khop_similarity(g: Graph, xtilde: np.ndarray, k: int) -> np.ndarray:
    """Mean cosine similarity between each node and its exact-k-hop shell;
    empty shells and zero vectors contribute 0."""
    if not 1 <= k <= 5:
        raise ValueError("k must be in 1..5")
    if xtilde.shape[0] != g.num_nodes:
        raise ValueError("feature rows do not match the graph")
    xn = _normalized_rows(np.asarray(xtilde, dtype=np.float64))
    dist = _hop_distances(g)
    out = np.zeros(g.num_nodes)
    for rows in _row_blocks(g.num_nodes):
        shell = (dist[rows] == k).astype(np.float64)
        size = shell.sum(axis=1)
        sums = ((shell @ xn) * xn[rows]).sum(axis=1)
        np.divide(sums, size, out=out[rows], where=size > 0)
    return out


def edge_avg_similarity(g: Graph, xtilde: np.ndarray) -> float:
    """Mean cosine similarity across undirected edges; 0 on edgeless graphs."""
    if g.num_edges == 0:
        log.warning("%s: edgeless graph, edge-average similarity set to 0", g.name)
        return 0.0
    xn = _normalized_rows(np.asarray(xtilde, dtype=np.float64))
    return float((xn[g.edges[:, 0]] * xn[g.edges[:, 1]]).sum(axis=1).mean())


@dataclass(frozen=True)
class RouterFeatureTable:
    """Node-by-feature matrix with names, categories, an active mask, and
    per-column provenance ("primitive" or the expression that built it).

    A table is a value: ``with_column`` and ``with_active`` return a new
    table and leave this one as it was. Columns 0..22 are always the
    primitives in their fixed order; generated columns are appended and
    never removed (deselection only clears the active flag, so earlier
    expressions stay evaluable on new graphs).
    """

    matrix: np.ndarray
    names: list[str]
    categories: list[str]
    provenance: list = field(default_factory=list)
    active: np.ndarray = None

    def __post_init__(self):
        if self.active is None:
            object.__setattr__(self, "active", np.ones(len(self.names), dtype=bool))
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate column names")
        if self.matrix.shape[1] != len(self.names):
            raise ValueError("matrix width does not match names")

    def column(self, name):
        return self.matrix[:, self.names.index(name)]

    def has_column(self, name):
        return name in self.names

    def with_column(self, expr, values):
        """This table plus one active column, named and built by ``expr``."""
        if expr.name in self.names:
            raise ValueError(f"column {expr.name!r} already exists")
        return RouterFeatureTable(
            matrix=np.column_stack([self.matrix, np.asarray(values, np.float64)]),
            names=self.names + [expr.name],
            categories=self.categories + [expr.category],
            provenance=self.provenance + [expr],
            active=np.append(self.active, True),
        )

    def active_names(self):
        return [n for n, a in zip(self.names, self.active) if a]

    def with_active(self, kept_names):
        """This table with exactly the columns in ``kept_names`` active."""
        kept = set(kept_names)
        return replace(self, active=np.array([n in kept for n in self.names]))

    def active_by_category(self):
        out = {c: [] for c in CATEGORIES}
        for name, cat, act in zip(self.names, self.categories, self.active):
            if act:
                out[cat].append(name)
        return out

    def standardized_active(self) -> np.ndarray:
        """Active columns z-scored per column over nodes (constant columns
        become zeros); this is the router's input representation."""
        sub = self.matrix[:, self.active]
        mean = sub.mean(axis=0)
        std = sub.std(axis=0)
        return np.divide(sub - mean, std, out=np.zeros_like(sub), where=std > 0)

    def export_text(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\t".join(self.names) + "\n")
            for row in self.matrix:
                fh.write("\t".join("%.17g" % v for v in row) + "\n")


def compute_primitives(g: Graph, xtilde: np.ndarray) -> RouterFeatureTable:
    """Assemble the 23 primitive columns in their canonical order."""
    ego_size = np.count_nonzero(_ego_mask(_hop_distances(g)), axis=1)
    cols = []
    for stat in (pagerank(g), betweenness(g), closeness(g)):
        cols.extend(scope_expand(stat, g))
    cols.append(np.full(g.num_nodes, edge_avg_similarity(g, xtilde)))
    for k in range(1, 6):
        cols.append(khop_similarity(g, xtilde, k))
    cols.append(g.degrees.astype(np.float64))
    cols.append(ego_size.astype(np.float64))
    return RouterFeatureTable(
        matrix=np.column_stack(cols),
        names=list(PRIMITIVE_NAMES),
        categories=list(PRIMITIVE_CATEGORIES),
        provenance=["primitive"] * len(PRIMITIVE_NAMES),
    )
