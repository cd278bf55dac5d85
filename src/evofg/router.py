"""Memory-enhanced soft router over the expert ensemble.

Node context and router features are projected to query embeddings, attend
over two memory banks, and produce per-expert logits through expert-specific
scaling of the retrieved embeddings. Training combines a KL warm-up against
the expert-correctness targets, an invariant (mean + variance) risk over
masked-feature environments, and coefficient-of-variation balancing.
"""

from __future__ import annotations

import copy
import functools
import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .checkpoint import check_tensors, load_checkpoint, save_checkpoint
from .experts import (
    anomaly_scores,
    cross_attn_reconstruct,
    encode,
    expert_correctness,
    sample_key_split,
)

log = logging.getLogger(__name__)


class RouterTrainingError(RuntimeError):
    pass


class RouterModel:
    """Trainable routing parameters; ``use_memory=False`` degrades to the
    projection-only ablation router."""

    def __init__(self, params, dims, seed=0, use_memory=True):
        self.params = params
        self.dims = dims  # (d, d_r, d_m, M, E)
        self.seed = seed
        self.use_memory = use_memory

    @property
    def d_r(self):
        return self.dims[1]


@dataclass
class RoutingOutput:
    logits: np.ndarray  # N x E
    weights: np.ndarray  # N x E rows on the simplex
    retrieval_node: np.ndarray  # N x M attention over the node memory
    retrieval_feat: np.ndarray  # N x M attention over the feature memory


def _glorot(rng, shape):
    return rng.normal(0.0, np.sqrt(2.0 / sum(shape)), size=shape)


def _param_shapes(d, d_r, d_m, n_memory, n_experts):
    """Name -> shape of a router's parameters, in canonical order."""
    return {
        "gnn_w": (d, d_m),
        "proj_w": (d_r, d_m),
        "proj_b": (d_m,),
        "mem_node": (n_memory, d_m),
        "mem_feat": (n_memory, d_m),
        "scale": (n_experts, d_m),
        "noise_w": (d_r, n_experts),
    }


def init_router(d, d_r, d_m, n_memory, n_experts, seed, use_memory=True) -> RouterModel:
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in _param_shapes(d, d_r, d_m, n_memory, n_experts).items():
        if name == "proj_b":
            params[name] = np.zeros(shape)
        elif name in ("mem_node", "mem_feat", "scale"):
            params[name] = rng.standard_normal(shape) / np.sqrt(d_m)
        else:
            params[name] = _glorot(rng, shape)
    return RouterModel(params, (d, d_r, d_m, n_memory, n_experts), seed, use_memory)


def resize_router(model: RouterModel, new_d_r, seed) -> None:
    """Reinitialize the feature projection and noise head for a new input
    width; memories, the node encoder, and scale vectors persist."""
    if new_d_r == model.d_r:
        return
    rng = np.random.default_rng(seed)
    d, _, d_m, n_memory, n_experts = model.dims
    model.params["proj_w"] = _glorot(rng, (new_d_r, d_m))
    model.params["proj_b"] = np.zeros(d_m)
    model.params["noise_w"] = _glorot(rng, (new_d_r, n_experts))
    model.dims = (d, new_d_r, d_m, n_memory, n_experts)


def node_branch_t(lv, xtilde, g, use_memory=True):
    """The mask-independent half of the forward: node queries propagated by
    ``gnn_w`` and, with memory, their node-memory retrieval. Returns
    (retrieved node embedding, node-memory attention or None)."""
    hn_q = ad.tanh(
        ad.spmm(g.sym_norm_selfloops(), ad.matmul(ad.wrap(xtilde), lv["gnn_w"]))
    )
    if not use_memory:
        return hn_q, None
    s_n = ad.key_softmax(hn_q, lv["mem_node"])
    return ad.matmul(s_n, lv["mem_node"]), s_n


def feature_branch_t(lv, hn_m, hr, noise=None, use_memory=True):
    """The feature half of the forward on the rows of a node-branch output
    ``hn_m``: logits and the feature-memory attention. ``hr`` may stack k
    groups of ``hn_m``'s rows, which every group then shares. The routing
    weights are ``ad.row_softmax`` of the logits, for the callers that need
    them."""
    if hr.shape[1] != lv["proj_w"].value.shape[0]:
        raise ValueError(
            f"feature width {hr.shape[1]} != router width {lv['proj_w'].value.shape[0]}"
        )
    hr_q = ad.affine(hr, lv["proj_w"], lv["proj_b"])
    if use_memory:
        s_r = ad.key_softmax(hr_q, lv["mem_feat"])
        logits = ad.memory_readout(s_r, lv["mem_feat"], hn_m, lv["scale"])
    else:
        s_r = None
        logits = ad.memory_readout(hr_q, None, hn_m, lv["scale"])
    if noise is not None:
        logits = ad.add(
            logits,
            ad.mul(ad.wrap(noise), ad.softplus(ad.matmul(ad.wrap(hr), lv["noise_w"]))),
        )
    return {"G": logits, "S_r": s_r}


def route_t(lv, xtilde, g, hr, noise=None, use_memory=True):
    """Tape forward, the node branch composed with the feature branch; hr is
    the (possibly masked) standardized feature matrix and noise, when given,
    is a fixed N x E standard-normal draw."""
    hn_m, s_n = node_branch_t(lv, xtilde, g, use_memory)
    out = feature_branch_t(lv, hn_m, hr, noise, use_memory)
    return {**out, "P": ad.row_softmax(out["G"]), "S_n": s_n}


def route(model: RouterModel, xtilde, g, hr):
    """Public routing call: the deterministic forward (no exploration noise)
    on the standardized feature matrix ``hr``."""
    hr = np.asarray(hr, dtype=np.float64)
    out = route_t(ad.leaves(model.params), xtilde, g, hr, None, model.use_memory)
    return _routing_output(out, model.dims[3])


def _routing_output(out, n_memory):
    """A ``route_t`` result as arrays; a router without memory attends
    uniformly over its ``n_memory`` slots."""
    ones = np.full((out["G"].shape[0], n_memory), 1.0 / n_memory)
    return RoutingOutput(
        logits=out["G"].value,
        weights=out["P"].value,
        retrieval_node=out["S_n"].value if out["S_n"] is not None else ones,
        retrieval_feat=out["S_r"].value if out["S_r"] is not None else ones,
    )


def aggregate(p, expert_h, expert_recon):
    """Soft aggregation of expert embeddings and reconstructions; returns
    (H_final, H_recon_final) as arrays."""
    for mats in (expert_h, expert_recon):
        for m in mats:
            if m.shape[0] != p.shape[0]:
                raise ValueError("routing weight rows do not match expert rows")

    def mix(mats):  # sum_e p[:, e] * mats[e], summed in expert order
        return functools.reduce(np.add, [m * p[:, e, None] for e, m in enumerate(mats)])

    return mix(expert_h), mix(expert_recon)


def normalize_targets(q, n_experts):
    """Rows scaled to distributions; all-zero rows become uniform."""
    q = np.asarray(q, dtype=np.float64)
    s = q.sum(axis=1)
    out = q / np.maximum(s, 1.0)[:, None]
    out[s == 0] = 1.0 / n_experts
    return out


def _kl_targets(q, n_experts):
    """Normalized targets and their row sums of q log q, which the KL loss
    needs and no logit changes."""
    qn = normalize_targets(q, n_experts)
    logq = np.where(qn > 0, np.log(np.maximum(qn, 1e-300)), 0.0)
    return qn, (qn * logq).sum(axis=1)


def _kl_loss_t(qn, entropy, g_t):
    cross = ad.tsum(ad.mul(ad.row_log_softmax(g_t), qn), axis=1)
    return ad.tmean(ad.sub(entropy, cross))


def kl_router_loss_t(q, g_t):
    return _kl_loss_t(*_kl_targets(q, g_t.value.shape[1]), g_t)


def _cv_squared_t(v):
    m = ad.tmean(v)
    dev = ad.sub(v, m)
    var = ad.tmean(ad.mul(dev, dev))
    return ad.div(var, ad.maximum_scalar(ad.mul(m, m), 1e-30))


def balance_loss_t(p_t, g_t):
    load_p = ad.tsum(p_t, axis=0)
    load_g = ad.tsum(g_t, axis=0)
    # CV needs nonnegative loads; logit sums are shifted by their minimum
    low = ad.index_scalar(load_g, int(np.argmin(load_g.value)))
    shifted = ad.sub(load_g, low)
    return ad.add(_cv_squared_t(load_p), _cv_squared_t(shifted))


def _gram_blocks(a_mats, b_mats):
    """out[r, e, f] = <a_mats[e][r], b_mats[f][r]> for E matrices of R rows."""
    return np.stack(a_mats, axis=1) @ np.stack(b_mats, axis=1).transpose(0, 2, 1)


class RoutingContext:
    """Frozen per-graph material for router training and utility evaluation:
    the canonical key/query split, expert embeddings and reconstructions on
    the queries and their per-row Gram blocks, the expert-correctness
    targets, and the standardized matrix ``hr`` of a table's active columns
    ``names``."""

    def __init__(self, graph, xtilde, table, experts, key_fraction, rng):
        self.graph = graph
        self.xtilde = xtilde
        self.keys, self.queries = sample_key_split(graph.labels, key_fraction, rng)
        self.y_q = np.asarray(graph.labels)[self.queries]
        self.expert_h_full = [encode(m, xtilde, graph) for m in experts]
        self.expert_hq = [h[self.queries] for h in self.expert_h_full]
        self.expert_recon = [
            cross_attn_reconstruct(m, h, self.keys, self.queries)
            for m, h in zip(experts, self.expert_h_full)
        ]
        scores = np.stack(
            [anomaly_scores(hq, rec) for hq, rec in zip(self.expert_hq, self.expert_recon)]
        )
        self.q_matrix = expert_correctness(scores, self.y_q)
        # per-query-row Gram blocks of the frozen expert matrices: every
        # routed cosine of the main phase is a quadratic form in them
        self.gram = (
            _gram_blocks(self.expert_recon, self.expert_hq),
            _gram_blocks(self.expert_recon, self.expert_recon),
            _gram_blocks(self.expert_hq, self.expert_hq),
        )
        self.names = table.active_names()
        self.hr = table.standardized_active()

    def with_features(self, table):
        """This context routed on ``table``'s active columns; the expert
        material is shared, not recomputed."""
        ctx = copy.copy(self)
        ctx.names = table.active_names()
        ctx.hr = table.standardized_active()
        return ctx


@dataclass(frozen=True)
class FrozenNodeBranch:
    """A context's routing material for one round of contribution
    estimation, during which the router does not change: the node branch's
    rows at the queries, next to the queries' features, normalized targets
    and target entropies."""

    names: list
    node_q: np.ndarray
    hr_q: np.ndarray
    targets: np.ndarray
    entropy: np.ndarray


def freeze_node_branch(model: RouterModel, contexts):
    """Each context's node branch under ``model`` as it is now; rebuild it
    whenever the router's parameters change."""
    lv = ad.leaves(model.params)
    frozen = []
    for ctx in contexts:
        node, _ = node_branch_t(lv, ctx.xtilde, ctx.graph, model.use_memory)
        frozen.append(FrozenNodeBranch(
            ctx.names, node.value[ctx.queries], ctx.hr[ctx.queries],
            *_kl_targets(ctx.q_matrix, model.dims[4]),
        ))
    return frozen


def routing_utility(model: RouterModel, subset, frozen) -> float:
    """Alignment utility of a feature subset: minus the mean KL between the
    correctness targets and deterministic routing on the masked features
    (non-members zeroed at fixed width). Larger is better. ``frozen`` is
    ``freeze_node_branch(model, contexts)``; only the feature branch runs."""
    names = frozen[0].names
    member = set(subset)
    mask = np.array([1.0 if n in member else 0.0 for n in names])
    lv = ad.leaves(model.params)
    vals = []
    for f in frozen:
        out = feature_branch_t(lv, ad.wrap(f.node_q), f.hr_q * mask, None, model.use_memory)
        vals.append(float(_kl_loss_t(f.targets, f.entropy, out["G"]).value))
    return -float(np.mean(vals))


def _env_losses_t(lv, ctx, node_q, masks, noise_q, use_memory):
    """The anomaly loss of every masked-feature environment, as one K-vector.
    The K masked copies of the query features are routed as one stacked
    operand on the shared node-branch rows ``node_q`` with the query noise
    rows ``noise_q``; each environment's loss is the mean over its own
    query rows."""
    k, d_r = masks.shape
    hr = (ctx.hr[ctx.queries] * masks[:, None, :]).reshape(-1, d_r)
    out = feature_branch_t(lv, node_q, hr, np.tile(noise_q, (k, 1)), use_memory)
    cos = ad.gram_cosine_rows(ad.row_softmax(out["G"]), *ctx.gram)  # k x Nq
    normal_term = ad.mul(ad.sub(1.0, cos), 1.0 - ctx.y_q)
    anomaly_term = ad.mul(ad.maximum_scalar(cos, 0.0), ctx.y_q)
    return ad.tmean(ad.add(normal_term, anomaly_term), axis=1)


def _combine_env_losses_t(vec, lam):
    """Mean plus ``lam`` times the population variance of the K-vector of
    environment losses."""
    # shifted mean: exact when all environments coincide (identical masks
    # must yield a zero variance term, bit for bit)
    anchor = ad.index_scalar(vec, 0)
    mean = ad.add(anchor, ad.tmean(ad.sub(vec, anchor)))
    dev = ad.sub(vec, mean)
    var = ad.tmean(ad.mul(dev, dev))
    return ad.add(mean, ad.mul(var, lam))


def train_router(model, contexts, cfg, phase, seed):
    """Warm-up (KL alignment) or main (invariant + balance) optimization with
    experts frozen; one step per epoch on the mean loss over graphs. The node
    branch runs on every node of a graph, the feature branch on its query
    rows only, which are all any loss reads."""
    epochs = cfg.warmup_epochs if phase == "warmup" else cfg.router_epochs
    opt = ad.AdamW(model.params, lr=cfg.lr, weight_decay=cfg.wd)
    rng = np.random.default_rng(seed)
    trace = []
    n_experts = model.dims[4]
    for epoch in range(epochs):
        lv = ad.leaves(model.params)
        graph_losses = []
        for ctx in contexts:
            n = ctx.graph.num_nodes
            # one node branch per graph and epoch; in the main phase the
            # environments and the clean balance pass share it
            node, _ = node_branch_t(lv, ctx.xtilde, ctx.graph, model.use_memory)
            node_q = ad.gather_rows(node, ctx.queries)
            hr_q = ctx.hr[ctx.queries]
            if phase == "warmup":
                noise = rng.standard_normal((n, n_experts))[ctx.queries]
                out = feature_branch_t(lv, node_q, hr_q, noise, model.use_memory)
                graph_losses.append(kl_router_loss_t(ctx.q_matrix, out["G"]))
            else:
                draws = rng.random((cfg.n_envs, hr_q.shape[1]))
                masks = (draws >= cfg.mask_rate).astype(float)
                env_noise = rng.standard_normal((n, n_experts))[ctx.queries]
                env = _env_losses_t(lv, ctx, node_q, masks, env_noise, model.use_memory)
                l_in = _combine_env_losses_t(env, cfg.lam)
                clean_noise = rng.standard_normal((n, n_experts))[ctx.queries]
                out = feature_branch_t(lv, node_q, hr_q, clean_noise, model.use_memory)
                l_moe = balance_loss_t(ad.row_softmax(out["G"]), out["G"])
                graph_losses.append(ad.add(l_in, l_moe))
        total = ad.tmean(ad.stack_scalars(graph_losses))
        if not np.isfinite(total.value):
            raise RouterTrainingError(
                f"non-finite router loss at {phase} epoch {epoch} (trace={trace})"
            )
        total.backward()
        opt.step(ad.grads(lv))
        trace.append(float(total.value))
    return trace


def routing_frequency(weights) -> np.ndarray:
    """Per-expert share of total routing mass over a dataset (sums to 1)."""
    mass = np.asarray(weights).sum(axis=0)
    return mass / mass.sum()


def save_router(model: RouterModel, path, feature_names):
    header = {
        "kind": "router",
        "dims": list(model.dims),
        "seed": model.seed,
        "use_memory": model.use_memory,
        "feature_names": list(feature_names),
    }
    save_checkpoint(path, header, model.params)


def load_router(path):
    header, tensors = load_checkpoint(path)
    if header.get("kind") != "router":
        raise ValueError(f"{path} is not a router checkpoint")
    dims = tuple(header["dims"])
    check_tensors(path, tensors, _param_shapes(*dims))
    model = RouterModel(
        params=tensors,
        dims=dims,
        seed=header["seed"],
        use_memory=header["use_memory"],
    )
    return model, header["feature_names"]
