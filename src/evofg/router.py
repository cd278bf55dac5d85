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
from .checkpoint import CheckpointError, check_tensors, load_checkpoint, save_checkpoint
from .experts import (
    anomaly_scores,
    consistency_loss_t,
    encode,
    expert_correctness,
    glorot,
    reconstruct,
    sample_key_split,
)

log = logging.getLogger(__name__)


class RouterModel:
    """Trainable routing parameters and the names of the feature columns
    they read, in order; ``use_memory=False`` degrades to the
    projection-only ablation router."""

    def __init__(self, params, names, use_memory):
        self.params = params
        self.names = list(names)
        self.use_memory = use_memory

    @property
    def dims(self):
        """(d, d_r, d_m, M, E): d_r counts the names, the rest are shapes."""
        d, d_m = self.params["gnn_w"].shape
        n_memory = self.params["mem_node"].shape[0]
        return d, self.d_r, d_m, n_memory, self.params["scale"].shape[0]

    @property
    def d_r(self):
        return len(self.names)


@dataclass
class RoutingOutput:
    logits: np.ndarray  # N x E
    weights: np.ndarray  # N x E rows on the simplex


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


def init_router(d, names, d_m, n_memory, n_experts, seed, use_memory=True) -> RouterModel:
    """A fresh router reading the feature columns ``names``."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in _param_shapes(d, len(names), d_m, n_memory, n_experts).items():
        if name == "proj_b":
            params[name] = np.zeros(shape)
        elif name in ("mem_node", "mem_feat", "scale"):
            params[name] = rng.standard_normal(shape) / np.sqrt(d_m)
        else:
            params[name] = glorot(rng, shape)
    return RouterModel(params, names, use_memory)


def resize_router(model: RouterModel, new_names, seed) -> None:
    """Move the feature projection and noise head from the columns the
    router reads to ``new_names``: fresh Glorot rows at the new width, of
    which a column the router already read takes back its trained rows, and
    a zero bias. Memories, the node encoder, and scale vectors persist."""
    if model.names == list(new_names):
        return
    rng = np.random.default_rng(seed)
    _, _, d_m, _, n_experts = model.dims
    resized = {"proj_w": glorot(rng, (len(new_names), d_m)),
               "noise_w": glorot(rng, (len(new_names), n_experts))}
    row = {name: i for i, name in enumerate(model.names)}
    for j, name in enumerate(new_names):
        if name in row:
            for key, w in resized.items():
                w[j] = model.params[key][row[name]]
    model.params.update(resized, proj_b=np.zeros(d_m))
    model.names = list(new_names)


def propagate(xtilde, g):
    """The node branch's weight-free part, S_hat X: computed once per graph."""
    return g.sym_norm_selfloops() @ np.asarray(xtilde, dtype=np.float64)


def node_branch_t(lv, sx, use_memory=True, ws=None):
    """The mask-independent half of the forward on ``sx = propagate(xtilde,
    g)``: node queries tanh(sx @ gnn_w) and, with memory, their node-memory
    retrieval in their place. Returns the node embedding. ``ws`` is the
    training call's ``ad.Workspace``, None outside training."""
    hn_q = ad.tanh(ad.matmul(ad.wrap(sx), lv["gnn_w"]))
    if not use_memory:
        return hn_q
    return ad.matmul(ad.key_softmax(hn_q, lv["mem_node"], ws), lv["mem_node"])


def fold_t(lv, node, use_memory=True):
    """The feature side of the forward, folded on the rows of a node-branch
    output ``node``: (keys, table). The keys ``mem_feat @ [proj_w; proj_b].T``
    (M x (F + 1)) take features under a column of ones to their memory
    attention; the table (R x E x M) takes a row's attention to its logits.
    Without memory, keys is None and the table's rows are [proj_w; proj_b]."""
    proj = ad.append_row(lv["proj_w"], lv["proj_b"])
    if not use_memory:
        return None, ad.readout_table(node, lv["scale"], proj)
    keys = ad.matmul(lv["mem_feat"], ad.transpose(proj))
    return keys, ad.readout_table(node, lv["scale"], lv["mem_feat"])


def with_ones(hr, masks=None):
    """k copies of the rows of ``hr`` (R x F) under the k x F ``masks``
    (default: one copy, unmasked), stacked by rows, each row followed by a
    one: (k * R) x (F + 1)."""
    masks = np.ones((1, hr.shape[1])) if masks is None else masks
    out = np.ones((len(masks), hr.shape[0], hr.shape[1] + 1))
    np.multiply(hr, masks[:, None, :], out=out[..., :-1])
    return out.reshape(-1, hr.shape[1] + 1)


def feature_branch_t(lv, folded, hr1, noise=None, ws=None):
    """The logits of the rows of ``hr1`` (``with_ones``) on ``folded =
    fold_t(lv, node, ...)``; ``hr1`` may stack k groups of ``node``'s rows,
    which all read the one table. ``ws`` as in ``node_branch_t``."""
    keys, table = folded
    att = hr1 if keys is None else ad.key_softmax(hr1, keys, ws)
    logits = ad.table_readout(att, table)
    if noise is not None:
        hr = ad.wrap(hr1[:, :-1])
        logits = ad.add(logits, ad.mul(ad.wrap(noise), ad.softplus(ad.matmul(hr, lv["noise_w"]))))
    return logits


def route(model: RouterModel, xtilde, g, hr):
    """Public routing call: the training forward on the router's parameters
    as constants, without exploration noise, on the standardized feature
    matrix ``hr``."""
    hr = np.asarray(hr, dtype=np.float64)
    if hr.shape[1] != model.d_r:
        raise ValueError(f"feature width {hr.shape[1]} != router width {model.d_r}")
    p, use_memory = model.params, model.use_memory
    folded = fold_t(p, node_branch_t(p, propagate(xtilde, g), use_memory), use_memory)
    logits = feature_branch_t(p, folded, with_ones(hr))
    return RoutingOutput(logits.value, ad.row_softmax(logits).value)


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


def kl_router_loss_t(targets, g_t):
    """Mean row KL between the targets and softmax(g_t), from the pair
    ``_kl_targets`` returns."""
    qn, entropy = targets
    cross = ad.tsum(ad.mul(ad.row_log_softmax(g_t), qn), axis=1)
    return ad.tmean(ad.sub(entropy, cross))


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
    the canonical key/query split, expert embeddings on the keys (the key
    cache stacks them) and on the queries, reconstructions of the queries
    and their per-row Gram blocks, the expert-correctness targets, the node
    branch's propagated input ``sx``, and the graph's feature ``table``,
    which is routed on the router's names."""

    def __init__(self, graph, xtilde, table, experts, key_fraction, rng):
        self.graph = graph
        self.xtilde = xtilde
        self.sx = propagate(xtilde, graph)
        self.keys, self.queries = sample_key_split(graph.labels, key_fraction, rng)
        self.y_q = np.asarray(graph.labels)[self.queries]
        expert_h = [encode(m, xtilde, graph) for m in experts]
        self.expert_hq = [h[self.queries] for h in expert_h]
        self.expert_hk = [h[self.keys] for h in expert_h]
        self.expert_recon = [
            reconstruct(m, hq, hk) for m, hq, hk in zip(experts, self.expert_hq, self.expert_hk)
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
        self.table = table

    @functools.cached_property
    def kl_targets(self):
        """``_kl_targets`` of the correctness targets, computed once."""
        return _kl_targets(self.q_matrix, self.q_matrix.shape[1])

    def with_features(self, table):
        """This context on the feature table ``table``; the expert material
        is shared, not recomputed."""
        ctx = copy.copy(self)
        ctx.table = table
        return ctx


@dataclass(frozen=True)
class FrozenContext:
    """A context's routing material for one round of contribution
    estimation, during which the router does not change: ``fold_t``'s keys
    and table at the queries, the query features under a row of ones and the
    normalized targets, stored with the query rows last so that each utility
    call reduces across rows (``hr_t`` (F + 1) x Nq, ``readout`` E x K x Nq,
    ``targets_t`` E x Nq), and the target entropies."""

    keys: np.ndarray
    hr_t: np.ndarray
    readout: np.ndarray
    targets_t: np.ndarray
    entropy: np.ndarray


def freeze_node_branch(model: RouterModel, contexts):
    """Each context's routing material under ``model`` as it is now: all of
    the training forward that no feature mask changes, the node branch at
    the queries through ``fold_t``, on the parameters as constants; rebuild
    it whenever the router's parameters change. Each context's table is
    standardized on the columns the router reads, in its order."""
    p, use_memory = model.params, model.use_memory
    frozen = []
    for ctx in contexts:
        node = node_branch_t(p, ctx.sx, use_memory)
        folded = fold_t(p, ad.gather_rows(node, ctx.queries), use_memory)
        keys, table = (None if t is None else t.value for t in folded)
        hr_q = ctx.table.standardized(model.names)[ctx.queries]
        hr_t = np.vstack([hr_q.T, np.ones(len(ctx.queries))])
        targets, entropy = ctx.kl_targets
        frozen.append(FrozenContext(keys, hr_t, table.transpose(1, 2, 0).copy(),
                                    targets.T.copy(), entropy))
    return frozen


def routing_utility(model: RouterModel, subset, frozen) -> float:
    """Alignment utility of a feature subset: minus the mean KL between the
    correctness targets and deterministic routing on the masked features
    (non-members zeroed at fixed width). Larger is better. ``frozen`` is
    ``freeze_node_branch(model, contexts)``; each call computes its own
    subset's value, in plain numpy."""
    member = set(subset)
    mask = np.array([1.0 if n in member else 0.0 for n in model.names] + [1.0])
    vals = []
    for f in frozen:
        if model.use_memory:  # each query's attention over the feature memories
            att = (f.keys * mask) @ f.hr_t
            att -= att.max(axis=0)
            np.exp(att, out=att)
            att /= att.sum(axis=0)
        else:  # the masked features themselves
            att = f.hr_t * mask[:, None]
        z = np.einsum("ekr,kr->er", f.readout, att)  # logits, E x Nq
        z -= z.max(axis=0)
        z -= np.log(np.exp(z).sum(axis=0))
        vals.append(float(np.mean(f.entropy - (z * f.targets_t).sum(axis=0))))
    return -float(np.mean(vals))


def _env_losses_t(lv, ctx, hr_q, folded, masks, noise_q, ws=None):
    """The anomaly loss of every masked-feature environment, as one K-vector.
    The K masked copies of the query features ``hr_q`` are routed as one
    stacked operand on the query rows' ``folded = fold_t(...)``, with the
    query noise rows ``noise_q``; each environment's loss is the mean over
    its own query rows. ``ws`` as in ``node_branch_t``."""
    hr1 = with_ones(hr_q, masks)
    logits = feature_branch_t(lv, folded, hr1, np.tile(noise_q, (len(masks), 1)), ws)
    cos = ad.gram_cosine_rows(ad.row_softmax(logits), *ctx.gram)  # k x Nq
    return consistency_loss_t(cos, ctx.y_q, axis=1)


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
    experts frozen; one step per epoch on the mean loss over graphs, each
    graph's loss built in graph order, so the draws keep theirs. The node
    branch runs on every node of a graph, the feature branch on its query
    rows only, which are all any loss reads: each context's table
    standardized on the router's names, at the queries, and its clean
    operand ``with_ones`` of them, once per call."""
    rng = np.random.default_rng(seed)
    n_experts = model.dims[4]
    hr_qs = [ctx.table.standardized(model.names)[ctx.queries] for ctx in contexts]
    hr1s = [with_ones(hr_q) for hr_q in hr_qs]

    def graph_loss(lv, ws, ctx, hr_q, hr1):
        n = ctx.graph.num_nodes
        # one node branch and readout table per graph and epoch; in the main
        # phase the environments and the clean balance pass share them
        node = node_branch_t(lv, ctx.sx, model.use_memory, ws)
        folded = fold_t(lv, ad.gather_rows(node, ctx.queries), model.use_memory)
        if phase == "warmup":
            noise = rng.standard_normal((n, n_experts))[ctx.queries]
            logits = feature_branch_t(lv, folded, hr1, noise, ws)
            return kl_router_loss_t(ctx.kl_targets, logits)
        draws = rng.random((cfg.n_envs, hr_q.shape[1]))
        masks = (draws >= cfg.mask_rate).astype(float)
        env_noise = rng.standard_normal((n, n_experts))[ctx.queries]
        env = _env_losses_t(lv, ctx, hr_q, folded, masks, env_noise, ws)
        l_in = _combine_env_losses_t(env, cfg.lam)
        clean_noise = rng.standard_normal((n, n_experts))[ctx.queries]
        logits = feature_branch_t(lv, folded, hr1, clean_noise, ws)
        return ad.add(l_in, balance_loss_t(ad.row_softmax(logits), logits))

    epochs = cfg.warmup_epochs if phase == "warmup" else cfg.router_epochs
    return ad.fit(model.params, epochs, graph_loss, list(zip(contexts, hr_qs, hr1s)),
                  cfg.lr, cfg.wd, f"router {phase}")


def routing_frequency(weights) -> np.ndarray:
    """Per-expert share of total routing mass over a dataset (sums to 1)."""
    mass = np.asarray(weights).sum(axis=0)
    return mass / mass.sum()


def save_router(model: RouterModel, path):
    header = {"kind": "router", "use_memory": model.use_memory, "feature_names": model.names}
    save_checkpoint(path, header, model.params)


def load_router(path) -> RouterModel:
    """The router saved by ``save_router``."""
    header, tensors = load_checkpoint(path, "router")
    use_memory, names = header.get("use_memory"), header.get("feature_names")
    if not isinstance(use_memory, bool) or not (
        isinstance(names, list) and all(isinstance(n, str) for n in names)
    ):
        raise CheckpointError(
            f"{path}: header needs a boolean use_memory and a feature_names list of strings"
        )
    return check_tensors(path, RouterModel(tensors, names, use_memory), _param_shapes)
