"""Shared test utilities: tiny graph builders, parameter flattening, the
central-difference gradient checker and its adapters for model losses,
float wrappers of tape losses, and brute-force oracles."""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np
from scipy.sparse.csgraph import shortest_path

from evofg import autodiff as ad
from evofg.experts import anomaly_loss_t
from evofg.graph import Graph
from evofg.router import (
    _combine_env_losses_t,
    _env_losses_t,
    _routing_output,
    balance_loss_t,
    kl_router_loss_t,
    node_branch_t,
    route,
    route_t,
)


def neighbors(g: Graph, v):
    """The sorted neighbor ids of node v."""
    return g.indices[g.indptr[v] : g.indptr[v + 1]]


def graph_equals(a: Graph, b: Graph):
    """Same node count, edges, features and labels (names are not compared)."""
    return (
        a.num_nodes == b.num_nodes
        and np.array_equal(a.edges, b.edges)
        and np.array_equal(a.features, b.features)
        and (
            (a.labels is None and b.labels is None)
            or (
                a.labels is not None
                and b.labels is not None
                and np.array_equal(a.labels, b.labels)
            )
        )
    )


def mix_rows(p, mats):
    """Tape op: per-row mixture sum_e p[:, e] * mats[e] of constant R x d
    matrices by the columns of p (R x E), summed in expert order (the order
    ``router.aggregate`` sums in)."""
    p = ad.wrap(p)
    acc = mats[0] * p.value[:, 0, None]
    for e in range(1, len(mats)):
        acc = acc + mats[e] * p.value[:, e, None]
    out = ad.Tensor(acc, (p,))
    out._backward = lambda g: ad._acc(
        p, np.stack([(g * m).sum(axis=1) for m in mats], axis=1)
    )
    return out


def tile_rows(a, k):
    """Tape op: k copies of a (R x d) stacked by rows: row j * R + r is a[r]."""
    a = ad.wrap(a)
    r = a.value.shape[0]
    out = ad.Tensor(np.tile(a.value, (k, 1)), (a,))
    out._backward = lambda g: ad._acc(a, g.reshape(k, r, -1).sum(axis=0))
    return out


def unfused_affine(x, w, b):
    """The tape chain ``ad.affine`` replaces."""
    return ad.add(ad.matmul(ad.wrap(x), w), b)


def unfused_key_softmax(a, keys):
    """The tape chain ``ad.key_softmax`` replaces."""
    return ad.row_softmax(ad.matmul(a, ad.transpose(keys)))


def unfused_memory_readout(s, mem, node, scale):
    """The tape chain ``ad.memory_readout`` replaces: the node rows tiled
    over the k groups of s's rows, when there is more than one."""
    h = s if mem is None else ad.matmul(s, mem)
    k = h.shape[0] // node.shape[0]
    if k > 1:
        node = tile_rows(node, k)
    return ad.matmul(ad.mul(h, node), ad.transpose(scale))


def route_noisy(model, xtilde, g, hr, train_mode=False, rng=None, mask=None):
    """``router.route`` with a feature mask and exploration noise: ``mask``
    zeroes feature columns at fixed width, and with ``train_mode`` Gaussian
    noise drawn from ``rng`` (required), modulated by softplus(H_r W), is
    added to the logits."""
    hr = np.asarray(hr, dtype=np.float64)
    if mask is not None:
        hr = hr * np.asarray(mask, dtype=np.float64)
    if not train_mode:
        return route(model, xtilde, g, hr)
    if rng is None:
        raise ValueError("train_mode routing draws noise and needs an rng")
    noise = rng.standard_normal((hr.shape[0], model.dims[4]))
    out = route_t(ad.leaves(model.params), xtilde, g, hr, noise, model.use_memory)
    return _routing_output(out, model.dims[3])


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


class ProbeError(RuntimeError):
    """Raised when a finite-difference probe hits a non-finite loss."""


@dataclass
class GradReport:
    max_rel_err: float
    worst_param: int
    step: float


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


def anomaly_loss(hq, hq_recon, y) -> float:
    return float(anomaly_loss_t(ad.wrap(hq), ad.wrap(hq_recon), y).value)


def kl_router_loss(q, g) -> float:
    """Mean row-wise KL(normalized targets || softmax(logits))."""
    return float(kl_router_loss_t(q, ad.wrap(np.asarray(g, dtype=np.float64))).value)


def balance_loss(p, g) -> float:
    """Squared CV of per-expert weight mass plus squared CV of min-shifted
    logit mass."""
    return float(balance_loss_t(ad.wrap(p), ad.wrap(g)).value)


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


def invariant_env_draws(ctx, n_envs, mask_rate, seed):
    """Masks (one per environment) plus a single noise draw shared by all
    environments, so identical masks give identical environments."""
    rng = np.random.default_rng(seed)
    d_r = ctx.hr.shape[1]
    masks = (rng.random((n_envs, d_r)) >= mask_rate).astype(np.float64)
    noise = rng.standard_normal((ctx.graph.num_nodes, ctx.q_matrix.shape[1]))
    return masks, noise


def invariant_loss(model, ctx, n_envs, lam, mask_rate, seed):
    """Mean masked-environment anomaly loss plus lam times its population
    variance, as the router's main phase builds it; returns (value,
    per-environment trace)."""
    if n_envs < 2:
        raise ValueError("invariant loss needs at least 2 environments")
    masks, noise = invariant_env_draws(ctx, n_envs, mask_rate, seed)
    lv = ad.leaves(model.params)
    node, _ = node_branch_t(lv, ctx.xtilde, ctx.graph, model.use_memory)
    node_q = ad.gather_rows(node, ctx.queries)
    losses = _env_losses_t(lv, ctx, node_q, masks, noise[ctx.queries], model.use_memory)
    total = _combine_env_losses_t(losses, lam)
    return float(total.value), [float(v) for v in losses.value]


def per_env_route_losses_t(lv, ctx, masks, noise, use_memory):
    """Reference for ``_env_losses_t``: one full ``route_t`` forward, node
    branch included, per environment, on every node, then the query rows'
    expert mixtures and their direct cosine loss; a K-vector."""
    losses = []
    for mask in masks:
        out = route_t(lv, ctx.xtilde, ctx.graph, ctx.hr * mask, noise, use_memory)
        p_q = ad.gather_rows(out["P"], ctx.queries)
        hq = mix_rows(p_q, ctx.expert_hq)
        rec = mix_rows(p_q, ctx.expert_recon)
        losses.append(anomaly_loss_t(hq, rec, ctx.y_q))
    return ad.stack_scalars(losses)


def reference_train_main(model, contexts, cfg, seed):
    """Reference for the main phase of ``train_router``, with the same draws:
    per environment a full ``route_t`` forward (``per_env_route_losses_t``)
    and a balance pass on every node, then the query rows. Trains ``model``
    in place and returns the loss trace."""
    opt = ad.AdamW(model.params, lr=cfg.lr, weight_decay=cfg.wd)
    rng = np.random.default_rng(seed)
    n_experts = model.dims[4]
    trace = []
    for _ in range(cfg.router_epochs):
        lv = ad.leaves(model.params)
        graph_losses = []
        for ctx in contexts:
            n = ctx.graph.num_nodes
            draws = rng.random((cfg.n_envs, ctx.hr.shape[1]))
            masks = (draws >= cfg.mask_rate).astype(float)
            env_noise = rng.standard_normal((n, n_experts))
            env = per_env_route_losses_t(lv, ctx, masks, env_noise, model.use_memory)
            clean_noise = rng.standard_normal((n, n_experts))
            out = route_t(lv, ctx.xtilde, ctx.graph, ctx.hr, clean_noise, model.use_memory)
            l_moe = balance_loss_t(
                ad.gather_rows(out["P"], ctx.queries),
                ad.gather_rows(out["G"], ctx.queries),
            )
            graph_losses.append(ad.add(_combine_env_losses_t(env, cfg.lam), l_moe))
        total = ad.tmean(ad.stack_scalars(graph_losses))
        total.backward()
        opt.step(ad.grads(lv))
        trace.append(float(total.value))
    return trace


def full_forward_utility(model, subset, contexts):
    """Reference for ``routing_utility``: a full ``route_t`` forward on every
    node of each context under the router as it is now, then the query
    rows."""
    member = set(subset)
    mask = np.array([1.0 if n in member else 0.0 for n in contexts[0].names])
    vals = []
    for ctx in contexts:
        lv = ad.leaves(model.params)
        out = route_t(lv, ctx.xtilde, ctx.graph, ctx.hr * mask, None, model.use_memory)
        vals.append(kl_router_loss(ctx.q_matrix, out["G"].value[ctx.queries]))
    return -float(np.mean(vals))


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
            for u in neighbors(g, t):
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


def two_pass_sweep(g: Graph):
    """Oracle for ``features._level_sweep`` in two separate passes: Dijkstra
    hop distances (-1 where unreachable, smallest signed integer type), then
    Brandes betweenness forward and back over those distances, in blocks of
    256 sources and with the same summation order, so the results must
    match bit for bit."""
    n = g.num_nodes
    a = g.adjacency()
    blocks = [slice(lo, min(lo + 256, n)) for lo in range(0, n, 256)]
    dist = np.empty((n, n), dtype=np.min_scalar_type(-n))
    for rows in blocks:
        hops = shortest_path(a, directed=False, unweighted=True, indices=np.arange(n)[rows])
        dist[rows] = np.where(np.isinf(hops), -1, hops)
    score = np.zeros(n)
    if n < 3:
        return dist, score
    for rows in blocks:
        d = np.ascontiguousarray(dist[:, rows])
        depth = int(d.max())
        sigma = (d == 0).astype(np.float64)
        for k in range(1, depth + 1):
            sigma = np.where(d == k, a @ np.where(d == k - 1, sigma, 0.0), sigma)
        delta = np.zeros(d.shape)
        for k in range(depth, 1, -1):
            coeff = np.divide(1.0 + delta, sigma, out=np.zeros(d.shape), where=d == k)
            delta += np.where(d == k - 1, sigma * (a @ coeff), 0.0)
        score = np.cumsum(np.vstack([score, delta.T]), axis=0)[-1]
    return dist, score / ((n - 1) * (n - 2))


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


def coeff_variation(x) -> float:
    """Population std over mean; 0 when the mean is 0."""
    x = np.asarray(x, dtype=np.float64)
    if x.size < 2:
        raise ValueError("coefficient of variation needs at least 2 values")
    m = x.mean()
    return 0.0 if m == 0.0 else float(x.std() / m)


def _subset_marginals(features, utility):
    """(i, |S|, v(S + f_i) - v(S)) for each feature f_i and each subset S of
    the other features, with v evaluated once per subset; capped at 15
    features."""
    n = len(features)
    if n > 15:
        raise ValueError("enumeration capped at 15 features")
    cache = {}

    def v(mask):
        if mask not in cache:
            cache[mask] = float(
                utility(frozenset(f for i, f in enumerate(features) if mask >> i & 1))
            )
        return cache[mask]

    for i in range(n):
        others = [j for j in range(n) if j != i]
        for sub_mask in range(1 << (n - 1)):
            mask = 0
            size = 0
            for b, j in enumerate(others):
                if sub_mask >> b & 1:
                    mask |= 1 << j
                    size += 1
            yield i, size, v(mask | 1 << i) - v(mask)


def exact_shapley(features, utility) -> np.ndarray:
    """Exact permutation-weighted value per feature by full subset
    enumeration."""
    features = list(features)
    n = len(features)
    fact = [factorial(k) for k in range(n + 1)]
    phi = np.zeros(n)
    for i, size, delta in _subset_marginals(features, utility):
        phi[i] += fact[size] * fact[n - size - 1] / fact[n] * delta
    return phi


def mean_marginal_oracle(features, utility) -> np.ndarray:
    """Expected marginal contribution under the sampler's subset law: for
    each feature, the unweighted average of v(S+f) - v(S) over all subsets S
    of the other features (each other feature in S with probability 1/2)."""
    features = list(features)
    phi = np.zeros(len(features))
    for i, _, delta in _subset_marginals(features, utility):
        phi[i] += delta
    return phi / (1 << (len(features) - 1))
