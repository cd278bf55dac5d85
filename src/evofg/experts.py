"""The four graph-encoder experts and their shared anomaly-detection head.

Each expert encodes aligned node attributes with a different propagation
mechanism (low-pass, attention, Chebyshev filter, generalized-PageRank),
reconstructs query embeddings from normal in-context keys via value-free
cross-attention, and scores anomalies by reconstruction discrepancy. The
low-pass/attention/Chebyshev encoders apply an ego-minus-neighbor-mean
residual before the nonlinearity; the GPR encoder does not.
"""

from __future__ import annotations

import logging

import numpy as np

from . import autodiff as ad
from .checkpoint import check_tensors, load_checkpoint, save_checkpoint
from .graph import Graph

log = logging.getLogger(__name__)

ARCHS = ("LOWPASS", "ATTENTION", "CHEBY", "GPR")
CHEB_ORDER = 3  # Chebyshev terms T_0..T_3
GPR_DEPTH = 10  # propagation steps; 11 coefficients including t=0
GPR_ALPHA = 0.1
LEAKY_SLOPE = 0.2


class TrainingDivergedError(RuntimeError):
    pass


class ExpertModel:
    """Trainable encoder (arch-specific) plus cross-attention projections."""

    def __init__(self, arch, params, dims, seed=0, trained=False):
        if arch not in ARCHS:
            raise ValueError(f"unknown architecture {arch!r}")
        self.arch = arch
        self.params = params  # dict name -> np.ndarray, canonical order
        self.dims = dims  # (d, d_e, d_prime)
        self.seed = seed
        self.trained = trained


def _glorot(rng, shape):
    fan = sum(shape) if len(shape) > 1 else shape[0] + 1
    return rng.normal(0.0, np.sqrt(2.0 / fan), size=shape)


def _param_shapes(arch, d, d_e, d_prime):
    """Name -> shape of an expert's parameters, in canonical order."""
    if arch == "CHEBY":
        shapes = {f"cheb_w{k}": (d, d_e) for k in range(CHEB_ORDER + 1)}
    elif arch in ARCHS:
        shapes = {"w0": (d, d_e)}
    else:
        raise ValueError(f"unknown architecture {arch!r}")
    if arch == "ATTENTION":
        shapes.update(att_self=(d_e,), att_nbr=(d_e,))
    if arch == "GPR":
        shapes["gamma"] = (GPR_DEPTH + 1,)
    shapes.update(wq=(d_e, d_prime), wk=(d_e, d_prime))
    return shapes


def init_expert(arch, d, d_e, d_prime, seed) -> ExpertModel:
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in _param_shapes(arch, d, d_e, d_prime).items():
        if name.startswith("att_"):
            # zero attention vectors = uniform attention at init; training shapes them
            params[name] = np.zeros(shape)
        elif name == "gamma":
            params[name] = GPR_ALPHA * (1.0 - GPR_ALPHA) ** np.arange(GPR_DEPTH + 1.0)
        else:
            params[name] = _glorot(rng, shape)
    return ExpertModel(arch, params, (d, d_e, d_prime), seed=seed)


def _attention_edges(g: Graph):
    """(src, dst) arrays covering every directed neighbor pair plus a
    self-loop per node; cached on the graph."""
    cached = g._ops.get("att_edges")
    if cached is not None:
        return cached
    # each node's neighbors in ascending order, then its self-loop
    n = g.num_nodes
    src = np.insert(g.indices, g.indptr[1:], np.arange(n))
    pair = (src, np.repeat(np.arange(n), g.degrees + 1))
    g._ops["att_edges"] = pair
    return pair


def _residual(h, g: Graph):
    # deviation from the neighbor mean; degree-0 rows keep their own value
    return ad.sub(h, ad.spmm(g.neighbor_mean(), h))


def encode_t(arch, lv, xtilde, g: Graph):
    """Tape forward of one expert encoder; lv maps param name -> leaf."""
    x = ad.wrap(xtilde)
    if arch == "LOWPASS":
        h = ad.spmm(g.sym_norm_selfloops(), ad.matmul(x, lv["w0"]))
        return ad.tanh(_residual(h, g))
    if arch == "ATTENTION":
        z = ad.matmul(x, lv["w0"])
        src, dst = _attention_edges(g)
        part_self = ad.matvec(z, lv["att_self"])
        part_nbr = ad.matvec(z, lv["att_nbr"])
        logits = ad.leaky_relu(
            ad.add(ad.gather_rows(part_self, dst), ad.gather_rows(part_nbr, src)),
            slope=LEAKY_SLOPE,
        )
        alpha = ad.segment_softmax(logits, dst, g.num_nodes)
        h = ad.segment_sum_rows(
            ad.scale_rows(ad.gather_rows(z, src), alpha), dst, g.num_nodes
        )
        return ad.tanh(_residual(h, g))
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
        return ad.tanh(_residual(h, g))
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


def encode(model: ExpertModel, xtilde, g: Graph) -> np.ndarray:
    if xtilde.shape[1] != model.dims[0]:
        raise ValueError(
            f"input width {xtilde.shape[1]} != expert input dim {model.dims[0]}"
        )
    return encode_t(model.arch, ad.leaves(model.params), xtilde, g).value


def cross_attention_t(wq, wk, hq, hk, d_prime):
    """Value-free cross-attention: softmax(Q K^T / sqrt(d')) @ raw keys."""
    q = ad.matmul(hq, wq)
    k = ad.matmul(hk, wk)
    att = ad.row_softmax(ad.mul(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(d_prime)))
    return ad.matmul(att, hk)


def reconstruct(model: ExpertModel, hq, hk) -> np.ndarray:
    """Reconstruct the query embeddings hq from the key embeddings hk."""
    lv = ad.leaves(model.params)
    return cross_attention_t(
        lv["wq"], lv["wk"], ad.wrap(hq), ad.wrap(hk), model.dims[2]
    ).value


def cross_attn_reconstruct(model: ExpertModel, h, keys, queries) -> np.ndarray:
    """Reconstruct query rows of h from key rows; keys and queries are
    disjoint node index sets and keys must be nonempty."""
    keys = np.asarray(keys, dtype=np.int64)
    queries = np.asarray(queries, dtype=np.int64)
    if keys.size == 0:
        raise ValueError("key set must be nonempty")
    if np.intersect1d(keys, queries).size:
        raise ValueError("keys and queries must be disjoint")
    return reconstruct(model, h[queries], h[keys])


def anomaly_scores(hq, hq_recon) -> np.ndarray:
    """Row-wise l2 reconstruction discrepancy."""
    return np.linalg.norm(np.asarray(hq) - np.asarray(hq_recon), axis=1)


def cosine_rows_t(a, b):
    dot = ad.tsum(ad.mul(a, b), axis=1)
    na = ad.sqrt(ad.maximum_scalar(ad.tsum(ad.mul(a, a), axis=1), 1e-30))
    nb = ad.sqrt(ad.maximum_scalar(ad.tsum(ad.mul(b, b), axis=1), 1e-30))
    return ad.div(dot, ad.maximum_scalar(ad.mul(na, nb), 1e-15))


def anomaly_loss_t(hq, hq_recon, y):
    """Cosine-consistency loss: normal rows pay 1 - cos, anomalous rows pay
    max(0, cos); mean over the query batch."""
    y = np.asarray(y, dtype=np.float64)
    cos = cosine_rows_t(hq_recon, hq)
    normal_term = ad.mul(ad.sub(1.0, cos), 1.0 - y)
    anomaly_term = ad.mul(ad.maximum_scalar(cos, 0.0), y)
    return ad.tmean(ad.add(normal_term, anomaly_term))


def anomaly_loss(hq, hq_recon, y) -> float:
    return float(anomaly_loss_t(ad.wrap(hq), ad.wrap(hq_recon), y).value)


def sample_key_split(y, key_fraction, rng):
    """Keys = random fraction of normal nodes (at least one); queries = the
    rest of the graph."""
    normal = np.flatnonzero(np.asarray(y) == 0)
    if normal.size == 0:
        raise ValueError("graph has no normal nodes to sample keys from")
    n_keys = max(1, int(round(key_fraction * normal.size)))
    keys = np.sort(rng.choice(normal, size=n_keys, replace=False))
    queries = np.setdiff1d(np.arange(len(y)), keys)
    return keys, queries


def expert_training_loss_t(arch, lv, xtilde, g, keys, queries, d_prime):
    h = encode_t(arch, lv, xtilde, g)
    hq = ad.gather_rows(h, queries)
    hk = ad.gather_rows(h, keys)
    recon = cross_attention_t(lv["wq"], lv["wk"], hq, hk, d_prime)
    return anomaly_loss_t(hq, recon, np.asarray(g.labels)[queries])


def pretrain_expert(arch, graph_inputs, cfg, seed):
    """Train one expert on (graph, aligned-features) pairs.

    Per epoch: fresh key/query split per graph, one optimizer step on the
    mean loss over graphs. Returns (model, loss trace).
    """
    model = init_expert(arch, cfg.d, cfg.d_e, cfg.d_prime, seed)
    epochs = cfg.expert_epochs[ARCHS.index(arch)]
    opt = ad.AdamW(model.params, lr=cfg.lr, weight_decay=cfg.wd)
    rng = np.random.default_rng(seed + 1)
    trace = []
    for epoch in range(epochs):
        lv = ad.leaves(model.params)
        losses = []
        for g, xt in graph_inputs:
            keys, queries = sample_key_split(g.labels, cfg.key_fraction, rng)
            losses.append(
                expert_training_loss_t(arch, lv, xt, g, keys, queries, cfg.d_prime)
            )
        total = ad.tmean(ad.stack_scalars(losses))
        if not np.isfinite(total.value):
            raise TrainingDivergedError(
                f"{arch}: non-finite loss at epoch {epoch} (trace={trace})"
            )
        total.backward()
        opt.step(ad.grads(lv))
        trace.append(float(total.value))
    model.trained = True
    return model, trace


def expert_correctness(scores_per_expert, y) -> np.ndarray:
    """Per-node 0/1 agreement between each expert's thresholded prediction
    and the label. The threshold is the empirical (1 - anomaly-rate)
    quantile realized as top-k by score, ties broken by node index."""
    scores_per_expert = np.asarray(scores_per_expert, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n_experts, n = scores_per_expert.shape
    k = int(round(y.mean() * n))
    q = np.zeros((n, n_experts), dtype=np.int64)
    for e in range(n_experts):
        order = np.argsort(-scores_per_expert[e], kind="stable")
        pred = np.zeros(n, dtype=np.int64)
        pred[order[:k]] = 1
        q[:, e] = (pred == y).astype(np.int64)
    return q


def save_expert(model: ExpertModel, path):
    header = {
        "kind": "expert",
        "arch": model.arch,
        "dims": list(model.dims),
        "seed": model.seed,
        "trained": model.trained,
    }
    save_checkpoint(path, header, model.params)


def load_expert(path) -> ExpertModel:
    header, tensors = load_checkpoint(path)
    if header.get("kind") != "expert":
        raise ValueError(f"{path} is not an expert checkpoint")
    dims = tuple(header["dims"])
    check_tensors(path, tensors, _param_shapes(header["arch"], *dims))
    return ExpertModel(
        arch=header["arch"],
        params=tensors,
        dims=dims,
        seed=header["seed"],
        trained=header["trained"],
    )
