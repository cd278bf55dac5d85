"""Shared test utilities: tiny graph builders, parameter flattening, and
finite-difference adapters for model losses."""

from __future__ import annotations

import numpy as np

from evofg import autodiff as ad
from evofg.graph import Graph


def graph_from_edges(n, edges, d=3, labels=None, seed=0, name="toy"):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, d))
    return Graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2), feats, labels, name)


def path_graph(n, **kw):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)], **kw)


def cycle_graph(n, **kw):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)], **kw)


def star_graph(leaves, **kw):
    return graph_from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)], **kw)


def complete_graph(n, **kw):
    return graph_from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n)], **kw
    )


def random_graph(rng, n, p=0.2, d=4, with_labels=False):
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(len(iu)) < p
    edges = np.stack([iu[keep], ju[keep]], axis=1)
    labels = None
    if with_labels:
        labels = np.zeros(n, dtype=np.int64)
        labels[rng.choice(n, size=max(1, n // 5), replace=False)] = 1
    return Graph(n, edges, rng.normal(size=(n, d)), labels, name=f"rand{n}")


def degenerate_graphs(seed=0, d=8):
    """Seeded shapes a zero-shot scorer must accept: (case name, graph)."""
    rng = np.random.default_rng(seed)
    ring = [(i, (i + 1) % 6) for i in range(6)]
    return [
        ("one_node", Graph(1, [], rng.normal(size=(1, d)), None, "one_node")),
        ("two_nodes", graph_from_edges(2, [(0, 1)], d=d, seed=seed, name="two_nodes")),
        ("edgeless", graph_from_edges(12, [], d=d, seed=seed, name="edgeless")),
        ("isolated_nodes",
         graph_from_edges(10, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)], d=d,
                          seed=seed, name="isolated_nodes")),
        ("star", star_graph(9, d=d, seed=seed, name="star")),
        ("complete", complete_graph(7, d=d, seed=seed, name="complete")),
        ("disconnected",
         graph_from_edges(14, ring + [(u + 6, v + 6) for u, v in ring] + [(12, 13)],
                          d=d, seed=seed, name="disconnected")),
        ("constant_features",
         Graph(16, random_graph(rng, 16, p=0.3).edges, np.ones((16, d)), None,
               "constant_features")),
        ("duplicate_rows",
         Graph(16, random_graph(rng, 16, p=0.3).edges,
               np.repeat(rng.normal(size=(4, d)), 4, axis=0), None, "duplicate_rows")),
        ("one_attribute", random_graph(rng, 18, p=0.25, d=1)),
        ("fewer_nodes_than_d", path_graph(3, d=d, seed=seed, name="fewer_nodes_than_d")),
    ]


def flatten_params(params, names=None):
    names = names or list(params)
    return np.concatenate([np.asarray(params[k]).ravel() for k in names])


def fd_adapters(build_loss, params):
    """Adapt a tape loss builder to the (loss_fn, grad_fn, vector) interface
    of finite_diff_check. build_loss takes a dict of leaf Tensors and returns
    a scalar Tensor."""
    names = list(params)
    shapes = {k: np.asarray(v).shape for k, v in params.items()}
    sizes = {k: int(np.prod(shapes[k])) if shapes[k] else 1 for k in names}

    def unflatten(vec):
        out, i = {}, 0
        for k in names:
            out[k] = vec[i : i + sizes[k]].reshape(shapes[k])
            i += sizes[k]
        return out

    def loss_fn(vec):
        return float(build_loss(ad.leaves(unflatten(vec))).value)

    def grad_fn(vec):
        lv = ad.leaves(unflatten(vec))
        t = build_loss(lv)
        t.backward()
        return flatten_params(ad.grads(lv), names)

    return loss_fn, grad_fn, flatten_params(params, names)


def brute_force_distances(g: Graph):
    """Floyd-Warshall all-pairs distances (oracle; independent of BFS)."""
    n = g.num_nodes
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v in g.edges:
        dist[u, v] = dist[v, u] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return dist


def brute_force_path_counts(g: Graph, dist):
    """Shortest-path counts sigma[s, t] by dynamic programming over the
    distance DAG (oracle companion to brute_force_distances)."""
    n = g.num_nodes
    sigma = np.zeros((n, n))
    for s in range(n):
        order = np.argsort(dist[s], kind="stable")
        sigma[s, s] = 1.0
        for t in order:
            if t == s or not np.isfinite(dist[s, t]):
                continue
            total = 0.0
            for u in g.neighbors(t):
                if dist[s, u] + 1 == dist[s, t]:
                    total += sigma[s, u]
            sigma[s, t] = total
    return sigma


def brute_force_betweenness(g: Graph):
    """Pair-summation betweenness oracle: for every unordered pair (s, t)
    and interior node v, add sigma(s,v)*sigma(v,t)/sigma(s,t) when v lies on
    a shortest path; normalized by (N-1)(N-2)/2."""
    n = g.num_nodes
    if n < 3:
        return np.zeros(n)
    dist = brute_force_distances(g)
    sigma = brute_force_path_counts(g, dist)
    bc = np.zeros(n)
    for s in range(n):
        for t in range(s + 1, n):
            if not np.isfinite(dist[s, t]) or sigma[s, t] == 0:
                continue
            for v in range(n):
                if v in (s, t):
                    continue
                if dist[s, v] + dist[v, t] == dist[s, t]:
                    bc[v] += sigma[s, v] * sigma[v, t] / sigma[s, t]
    return bc / ((n - 1) * (n - 2) / 2.0)


def brute_force_closeness(g: Graph):
    n = g.num_nodes
    dist = brute_force_distances(g)
    out = np.zeros(n)
    for v in range(n):
        reach = np.isfinite(dist[v]) & (dist[v] > 0)
        r = int(reach.sum())
        if r:
            out[v] = (r / (n - 1)) * (r / dist[v][reach].sum())
    return out


def brute_force_auroc(scores, labels):
    """O(N^2) pair enumeration with half-credit ties."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


def brute_force_auprc(scores, labels):
    """O(N^2) re-counting average precision with stable index tie order."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n = len(scores)
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    ap = []
    for k in range(1, n + 1):
        if labels[order[k - 1]] == 1:
            tp = sum(1 for i in order[:k] if labels[i] == 1)
            ap.append(tp / k)
    return float(np.mean(ap))
