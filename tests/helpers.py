"""Shared test utilities: tiny graph builders, parameter flattening, the
central-difference gradient checker and its adapters for model losses,
float wrappers of tape losses, and brute-force oracles."""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass
from math import factorial

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import shortest_path

from evofg import autodiff as ad
from evofg.dsl import eval_expr
from evofg.experts import (
    ARCHS,
    CHEB_ORDER,
    GPR_DEPTH,
    LEAKY_SLOPE,
    anomaly_loss_t,
    pretrain_expert,
)
from evofg.features import RouterFeatureTable, _hop_distances
from evofg.graph import EGO_RADIUS, Graph, gen_synthetic
from evofg.pipeline import build_contexts, prepare_graph
from evofg.router import (
    RoutingOutput,
    _combine_env_losses_t,
    _env_losses_t,
    _kl_targets,
    balance_loss_t,
    feature_branch_t,
    fold_t,
    kl_router_loss_t,
    node_branch_t,
    propagate,
    route,
    with_ones,
)


def counting(calls, name, real):
    """``real``, appending ``name`` to ``calls`` on every call: a stand-in
    for monkeypatching a function whose calls a test counts."""
    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)
    return counted


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
    """x @ w + b as a chain of tape ops."""
    return ad.add(ad.matmul(ad.wrap(x), w), b)


def unfused_key_softmax(a, keys):
    """The tape chain ``ad.key_softmax`` replaces."""
    return ad.row_softmax(ad.matmul(a, ad.transpose(keys)))


def unfused_memory_readout(s, mem, node, scale):
    """((s @ mem) * node) @ scale.T as a chain of tape ops: per-expert logits
    from the memory readout s @ mem (s itself when mem is None), the node
    rows tiled over the k groups of s's rows, when there is more than one."""
    h = s if mem is None else ad.matmul(s, mem)
    k = h.shape[0] // node.shape[0]
    if k > 1:
        node = tile_rows(node, k)
    return ad.matmul(ad.mul(h, node), ad.transpose(scale))


def _unfolded_residual(h, g: Graph):
    # deviation from the neighbor mean; degree-0 rows keep their own value
    return ad.sub(h, ad.spmm(g.neighbor_mean(), h))


def unfolded_encode_t(arch, lv, xtilde, g: Graph):
    """Oracle for ``experts.encode_t`` on ``experts.propagate``: each encoder
    with its propagation on the tape, applied after the weights, every time
    it runs."""
    x = ad.wrap(xtilde)
    if arch == "LOWPASS":
        h = ad.spmm(g.sym_norm_selfloops(), ad.matmul(x, lv["w0"]))
        return ad.tanh(_unfolded_residual(h, g))
    if arch == "ATTENTION":
        z = ad.matmul(x, lv["w0"])
        # dense GAT: each row's masked softmax over its neighbors and itself
        # of leaky_relu(z[i] @ att_self + z[j] @ att_nbr)
        d_e = z.shape[1]
        part_self = ad.matmul(ad.mul(z, lv["att_self"]), np.ones((d_e, 1)))
        part_nbr = ad.matmul(np.ones((1, d_e)), ad.transpose(ad.mul(z, lv["att_nbr"])))
        pre = ad.add(part_self, part_nbr)
        logits = ad.add(ad.mul(pre, LEAKY_SLOPE),
                        ad.mul(ad.maximum_scalar(pre, 0.0), 1.0 - LEAKY_SLOPE))
        attends = g.adjacency().toarray() + np.eye(g.num_nodes) > 0
        alpha = ad.row_softmax(ad.add(logits, np.where(attends, 0.0, -np.inf)))
        h = ad.matmul(alpha, z)
        return ad.tanh(_unfolded_residual(h, g))
    if arch == "CHEBY":
        # scaled Laplacian with lambda_max ~= 2 reduces to -sym_norm
        lap = -g.sym_norm()
        basis = [np.asarray(xtilde, dtype=np.float64)]
        basis.append(lap @ basis[0])
        for _ in range(2, CHEB_ORDER + 1):
            basis.append(2.0 * (lap @ basis[-1]) - basis[-2])
        h = ad.matmul(ad.wrap(basis[0]), lv["cheb_w0"])
        for k in range(1, CHEB_ORDER + 1):
            h = ad.add(h, ad.matmul(ad.wrap(basis[k]), lv[f"cheb_w{k}"]))
        return ad.tanh(_unfolded_residual(h, g))
    if arch == "GPR":
        h0 = ad.matmul(x, lv["w0"])
        prop = g.sym_norm()
        cur = h0
        acc = ad.mul(cur, ad.index_scalar(lv["gamma"], 0))
        for t in range(1, GPR_DEPTH + 1):
            cur = ad.spmm(prop, cur)
            acc = ad.add(acc, ad.mul(cur, ad.index_scalar(lv["gamma"], t)))
        return acc
    raise ValueError(f"unknown architecture {arch!r}")


def unfolded_node_branch_t(lv, xtilde, g, use_memory=True):
    """Oracle for ``router.node_branch_t`` on ``router.propagate``: the node
    queries propagated on the tape after ``gnn_w``, then, with memory, their
    node-memory retrieval."""
    hn_q = ad.tanh(
        ad.spmm(g.sym_norm_selfloops(), ad.matmul(ad.wrap(xtilde), lv["gnn_w"]))
    )
    if not use_memory:
        return hn_q
    return ad.matmul(ad.key_softmax(hn_q, lv["mem_node"]), lv["mem_node"])


def route_t(lv, xtilde, g, hr, noise=None, use_memory=True):
    """The router's folded forward on the tape, on every node: the logits.
    hr is the (possibly masked) standardized feature matrix and noise, when
    given, a fixed N x E standard-normal draw."""
    folded = fold_t(lv, node_branch_t(lv, propagate(xtilde, g), use_memory), use_memory)
    return feature_branch_t(lv, folded, with_ones(hr), noise)


def tape_feature_branch_t(lv, hn_m, hr, noise=None, use_memory=True):
    """Oracle for the router's folded feature branch: the logits of the
    unfolded chain on the rows of the node-branch output ``hn_m`` (``hr``
    may stack k groups of them). The features are projected to the memory
    width, attend over the feature memories (without memory, the projection
    is the embedding), and the embedding times the node rows meets the
    scale vectors; noise, when given, is modulated by softplus(hr @
    noise_w)."""
    hr_q = unfused_affine(hr, lv["proj_w"], lv["proj_b"])
    if use_memory:
        s = unfused_key_softmax(hr_q, lv["mem_feat"])
        logits = unfused_memory_readout(s, lv["mem_feat"], hn_m, lv["scale"])
    else:
        logits = unfused_memory_readout(hr_q, None, hn_m, lv["scale"])
    if noise is not None:
        logits = ad.add(
            logits,
            ad.mul(ad.wrap(noise), ad.softplus(ad.matmul(ad.wrap(hr), lv["noise_w"]))),
        )
    return logits


def tape_route_t(lv, xtilde, g, hr, noise=None, use_memory=True):
    """Oracle for ``route_t``: the unfolded node branch, then the unfolded
    feature branch on every node."""
    node = unfolded_node_branch_t(lv, xtilde, g, use_memory)
    return tape_feature_branch_t(lv, node, hr, noise, use_memory)


def standardized_all(ctx):
    """A context's table standardized on every one of its columns: what a
    router that reads them all routes on."""
    return ctx.table.standardized(ctx.table.names)


def route_noisy(model, xtilde, g, hr, train_mode=False, rng=None, mask=None):
    """``router.route`` with a feature mask and exploration noise: ``mask``
    zeroes feature columns at fixed width, and with ``train_mode`` Gaussian
    noise drawn from ``rng`` (required), modulated by softplus(H_r W), is
    added to the logits of the router's own forward (``route_t``)."""
    hr = np.asarray(hr, dtype=np.float64)
    if mask is not None:
        hr = hr * np.asarray(mask, dtype=np.float64)
    if not train_mode:
        return route(model, xtilde, g, hr)
    if rng is None:
        raise ValueError("train_mode routing draws noise and needs an rng")
    noise = rng.standard_normal((hr.shape[0], model.dims[4]))
    logits = route_t(model.params, xtilde, g, hr, noise, model.use_memory)
    return RoutingOutput(logits.value, ad.row_softmax(logits).value)


def toy_names(k):
    """Names for the k feature columns of a toy router."""
    return [f"f{i}" for i in range(k)]


def acceptance_suite():
    """The acceptance suite's labeled training graphs and shifted held-out
    graphs; tools/exactness.py writes the same four for its acc-* cases."""
    train = [
        gen_synthetic(400, 48, 0.06, structure_seed=101,
                      planted_kind="structural", name="train_structural"),
        gen_synthetic(360, 48, 0.08, structure_seed=202,
                      planted_kind="attribute", name="train_attribute"),
    ]
    test = [
        gen_synthetic(320, 48, 0.07, structure_seed=303, planted_kind="mixed",
                      n_communities=6, name="test_shifted_a"),
        gen_synthetic(340, 48, 0.05, structure_seed=404, planted_kind="mixed",
                      n_communities=6, name="test_shifted_b"),
    ]
    return train, test


def suite_contexts(cfg):
    """The routing contexts of the acceptance suite's two training graphs,
    read through experts pretrained for ``cfg.expert_epochs``."""
    train, _ = acceptance_suite()
    bundles = [prepare_graph(g, cfg.d) for g in train]
    inputs = [(b.graph, b.xtilde) for b in bundles]
    experts = [pretrain_expert(a, inputs, cfg, seed=i)[0] for i, a in enumerate(ARCHS)]
    return build_contexts(bundles, experts, cfg)


def traced(fn):
    """(peak, final) traced memory of ``fn()`` above what was traced before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before, current - before


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


def sweep_cases():
    """The degenerate shapes plus larger graphs whose level sweep takes
    several source blocks: (case name, graph)."""
    cases = degenerate_graphs(seed=5)
    # from its ends a path is N - 1 = 127 levels deep, the largest level of
    # its int8 distances
    cases.append(("path_128", path_graph(128, d=6, seed=5, name="path_128")))
    for seed, n in ((1, 60), (2, 300), (3, 520)):
        g = gen_synthetic(n, 6, 0.08, structure_seed=seed, planted_kind="mixed")
        cases.append((f"synthetic_{n}", g))
    # two components of different depth, plus isolated nodes; 530 nodes
    # make five source blocks (17 of 32)
    a = gen_synthetic(300, 6, 0.08, structure_seed=4, planted_kind="structural")
    b = gen_synthetic(220, 6, 0.08, structure_seed=5, planted_kind="attribute")
    edges = np.vstack([a.edges, b.edges + a.num_nodes])
    feats = np.vstack([a.features, b.features, np.ones((10, 6))])
    cases.append(("synthetic_disconnected", Graph(530, edges, feats, None, "split")))
    # a 24 x 25 grid: six blocks of 109 sources (19 of 32), 47 levels deep,
    # many shortest paths per pair and many tied scores
    rows, cols = 24, 25
    node = np.arange(rows * cols).reshape(rows, cols)
    grid = np.vstack([np.c_[node[:, :-1].ravel(), node[:, 1:].ravel()],
                      np.c_[node[:-1].ravel(), node[1:].ravel()]])
    feats = np.random.default_rng(6).normal(size=(rows * cols, 6))
    cases.append(("grid_600", Graph(rows * cols, grid, feats, None, "grid")))
    return cases


def scipy_operators(g: Graph):
    """The normalized operators as scipy's diagonal products build them: the
    oracle for ``Graph.sym_norm_selfloops``, ``sym_norm`` and
    ``neighbor_mean``, by method name."""
    a = g.adjacency() + sp.identity(g.num_nodes, format="csr")
    dinv = 1.0 / np.sqrt(np.asarray(a.sum(axis=1)).ravel())
    ops = {"sym_norm_selfloops": sp.diags(dinv) @ a @ sp.diags(dinv)}
    d = g.degrees.astype(np.float64)
    dinv = np.divide(1.0, np.sqrt(d), out=np.zeros_like(d), where=d > 0)
    ops["sym_norm"] = sp.diags(dinv) @ g.adjacency() @ sp.diags(dinv)
    dinv = np.divide(1.0, d, out=np.zeros_like(d), where=d > 0)
    ops["neighbor_mean"] = sp.diags(dinv) @ g.adjacency()
    return ops


def fold_extend(table, exprs):
    """``table`` extended one column at a time, each expression evaluated on
    the table built for the one before it: the oracle for
    ``dsl.extend_table`` and ``dsl.rebuild_columns``."""
    for expr in exprs:
        values = eval_expr(expr, table.column_map())
        table = RouterFeatureTable(
            matrix=np.column_stack([table.matrix, values]),
            names=table.names + [expr.name],
            categories=table.categories + [expr.category],
        )
    return table


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
    g = np.asarray(g, dtype=np.float64)
    return float(kl_router_loss_t(_kl_targets(q, g.shape[1]), ad.wrap(g)).value)


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


def invariant_env_draws(model, ctx, n_envs, mask_rate, seed):
    """Masks (one per environment, over the router's columns) plus a single
    noise draw shared by all environments, so identical masks give
    identical environments."""
    rng = np.random.default_rng(seed)
    d_r = model.d_r
    masks = (rng.random((n_envs, d_r)) >= mask_rate).astype(np.float64)
    noise = rng.standard_normal((ctx.graph.num_nodes, ctx.q_matrix.shape[1]))
    return masks, noise


def invariant_loss(model, ctx, n_envs, lam, mask_rate, seed):
    """Mean masked-environment anomaly loss plus lam times its population
    variance, as the router's main phase builds it; returns (value,
    per-environment trace)."""
    if n_envs < 2:
        raise ValueError("invariant loss needs at least 2 environments")
    masks, noise = invariant_env_draws(model, ctx, n_envs, mask_rate, seed)
    lv = ad.leaves(model.params)
    node = node_branch_t(lv, ctx.sx, model.use_memory)
    folded = fold_t(lv, ad.gather_rows(node, ctx.queries), model.use_memory)
    hr_q = ctx.table.standardized(model.names)[ctx.queries]
    losses = _env_losses_t(lv, ctx, hr_q, folded, masks, noise[ctx.queries])
    total = _combine_env_losses_t(losses, lam)
    return float(total.value), [float(v) for v in losses.value]


def per_env_route_losses_t(lv, ctx, hr, masks, noise, use_memory):
    """Reference for ``_env_losses_t``: one full unfolded forward
    (``tape_route_t``) on the standardized features ``hr``, node branch
    included, per environment, on every node, then the query rows' expert
    mixtures and their direct cosine loss; a K-vector."""
    losses = []
    for mask in masks:
        logits = tape_route_t(lv, ctx.xtilde, ctx.graph, hr * mask, noise, use_memory)
        p_q = ad.gather_rows(ad.row_softmax(logits), ctx.queries)
        hq = mix_rows(p_q, ctx.expert_hq)
        rec = mix_rows(p_q, ctx.expert_recon)
        losses.append(anomaly_loss_t(hq, rec, ctx.y_q))
    return ad.stack_scalars(losses)


def reference_train_main(model, contexts, cfg, seed):
    """Reference for the main phase of ``train_router``, with the same draws:
    per environment a full unfolded forward (``per_env_route_losses_t``)
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
            hr = ctx.table.standardized(model.names)
            draws = rng.random((cfg.n_envs, hr.shape[1]))
            masks = (draws >= cfg.mask_rate).astype(float)
            env_noise = rng.standard_normal((n, n_experts))
            env = per_env_route_losses_t(lv, ctx, hr, masks, env_noise, model.use_memory)
            clean_noise = rng.standard_normal((n, n_experts))
            logits = tape_route_t(lv, ctx.xtilde, ctx.graph, hr, clean_noise,
                                  model.use_memory)
            l_moe = balance_loss_t(
                ad.gather_rows(ad.row_softmax(logits), ctx.queries),
                ad.gather_rows(logits, ctx.queries),
            )
            graph_losses.append(ad.add(_combine_env_losses_t(env, cfg.lam), l_moe))
        total = ad.tmean(ad.stack_scalars(graph_losses))
        total.backward()
        opt.step(ad.grads(lv))
        trace.append(float(total.value))
    return trace


def full_forward_utility(model, subset, contexts):
    """Reference for ``routing_utility``: a full unfolded forward
    (``tape_route_t``) on every node of each context under the router as it
    is now, then the query rows."""
    member = set(subset)
    mask = np.array([1.0 if n in member else 0.0 for n in model.names])
    vals = []
    for ctx in contexts:
        lv = ad.leaves(model.params)
        hr = ctx.table.standardized(model.names)
        logits = tape_route_t(lv, ctx.xtilde, ctx.graph, hr * mask, None, model.use_memory)
        vals.append(kl_router_loss(ctx.q_matrix, logits.value[ctx.queries]))
    return -float(np.mean(vals))


def tape_routing_utility(model, subset, contexts):
    """Reference for ``routing_utility`` on the tape: the node branch of each
    context at its query rows, then the unfolded feature branch on the masked
    query features and the KL loss."""
    member = set(subset)
    mask = np.array([1.0 if n in member else 0.0 for n in model.names])
    lv = ad.leaves(model.params)
    vals = []
    for ctx in contexts:
        node = node_branch_t(lv, ctx.sx, model.use_memory)
        hr_q = ctx.table.standardized(model.names)[ctx.queries]
        logits = tape_feature_branch_t(lv, ad.wrap(node.value[ctx.queries]),
                                       hr_q * mask, None, model.use_memory)
        targets = _kl_targets(ctx.q_matrix, model.dims[4])
        vals.append(float(kl_router_loss_t(targets, logits).value))
    return -float(np.mean(vals))


def ego_mask(dist):
    """The ego graphs of a hop-distance matrix (-1 where unreachable): the
    nodes within EGO_RADIUS hops, each node itself too."""
    return (dist >= 0) & (dist <= EGO_RADIUS)


def per_call_scope_expand(values, g: Graph):
    """The four scope columns (target, ego_mean, ego_rank, global_rank) of a
    node statistic, each call building its own ego mask from the graph's
    cached hop distances (reference for ``features.scope_expand``)."""
    values = np.asarray(values, dtype=np.float64)
    n = g.num_nodes
    ego = ego_mask(_hop_distances(g))
    size = ego.sum(axis=1)
    row = np.broadcast_to(values, ego.shape)
    ego_mean = row.sum(axis=1, where=ego) / size
    less = np.count_nonzero(ego & (row < values[:, None]), axis=1)
    ties = np.count_nonzero(ego & (row == values[:, None]), axis=1) - 1  # not v itself
    ego_rank = np.divide(less + 0.5 * ties, size - 1, out=np.full(n, 0.5), where=size > 1)
    sorted_vals = np.sort(values)
    left = np.searchsorted(sorted_vals, values, side="left")
    right = np.searchsorted(sorted_vals, values, side="right")
    global_rank = np.divide(left + 0.5 * (right - left - 1), n - 1, out=np.full(n, 0.5),
                            where=n > 1)
    return values.copy(), ego_mean, ego_rank, global_rank


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
