"""The four graph-encoder experts and their shared anomaly-detection head.

Each expert encodes aligned node attributes with a different propagation
mechanism (low-pass, attention, Chebyshev filter, generalized-PageRank),
reconstructs query embeddings from normal in-context keys via value-free
cross-attention, and scores anomalies by reconstruction discrepancy. The
low-pass/attention/Chebyshev encoders apply an ego-minus-neighbor-mean
residual before the nonlinearity; the GPR encoder does not. Every encoder
is split in two: ``propagate``, its weight-free graph propagation, computed
once per graph, and ``encode_t``, the weighted part, which runs on every
training step.
"""

from __future__ import annotations

import functools
import logging

import numpy as np

from . import autodiff as ad
from .checkpoint import CheckpointError, check_tensors, load_checkpoint, save_checkpoint
from .graph import Graph

log = logging.getLogger(__name__)

ARCHS = ("LOWPASS", "ATTENTION", "CHEBY", "GPR")
CHEB_ORDER = 3  # Chebyshev terms T_0..T_3
GPR_DEPTH = 10  # propagation steps; 11 coefficients including t=0
GPR_ALPHA = 0.1
LEAKY_SLOPE = 0.2


class ExpertModel:
    """Trainable encoder (arch-specific) plus cross-attention projections."""

    def __init__(self, arch, params):
        if arch not in ARCHS:
            raise ValueError(f"unknown architecture {arch!r}")
        self.arch = arch
        self.params = params  # dict name -> np.ndarray, canonical order

    @property
    def dims(self):
        """(d, d_e, d_prime), read from the parameter shapes."""
        d, d_e = self.params["cheb_w0" if self.arch == "CHEBY" else "w0"].shape
        return d, d_e, self.params["wq"].shape[1]


def glorot(rng, shape):
    """Glorot-normal draw for a weight matrix of ``shape``."""
    return rng.normal(0.0, np.sqrt(2.0 / sum(shape)), size=shape)


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
            params[name] = glorot(rng, shape)
    return ExpertModel(arch, params)


def _attention_edges(g: Graph):
    """(src, dst, indptr): the edges ``ad.edge_attention`` attends over,
    every directed neighbor pair plus a self-loop per node, as a CSR pattern
    whose rows are dst, so each node's softmax and neighbour sum run over
    its row in edge order; cached on the graph."""
    cached = g._ops.get("att_edges")
    if cached is not None:
        return cached
    # each node's neighbors in ascending order, then its self-loop
    n = g.num_nodes
    src = np.insert(g.indices, g.indptr[1:], np.arange(n))
    edges = (src, np.repeat(np.arange(n), g.degrees + 1), g.indptr + np.arange(n + 1))
    g._ops["att_edges"] = edges
    return edges


def propagate(arch, xtilde, g: Graph):
    """The weight-free part of an expert encoder on the aligned features:
    computed once per graph, then read by ``encode_t`` under any weights.
    LOWPASS: (I - D^-1 A) S_hat X. ATTENTION: X, whose propagation follows
    its learned attention. CHEBY: the stack (I - D^-1 A) T_k X, k = 0..3.
    GPR: the stack P^t X, t = 0..GPR_DEPTH. I - D^-1 A takes each row's
    deviation from its neighbor mean; degree-0 rows keep their own value."""
    x = np.asarray(xtilde, dtype=np.float64)
    if arch == "LOWPASS":
        sx = g.sym_norm_selfloops() @ x
        return sx - g.neighbor_mean() @ sx
    if arch == "ATTENTION":
        return x
    if arch == "CHEBY":
        # scaled Laplacian with lambda_max ~= 2 reduces to -sym_norm
        lap = -g.sym_norm()
        basis = [x, lap @ x]
        for _ in range(2, CHEB_ORDER + 1):
            basis.append(2.0 * (lap @ basis[-1]) - basis[-2])
        wide = np.hstack(basis)  # one sparse product for every term's residual
        return np.stack(np.hsplit(wide - g.neighbor_mean() @ wide, CHEB_ORDER + 1))
    if arch == "GPR":
        prop = g.sym_norm()
        powers = [x]
        for _ in range(GPR_DEPTH):
            powers.append(prop @ powers[-1])
        return np.stack(powers)
    raise ValueError(f"unknown architecture {arch!r}")


def encode_t(arch, lv, inputs, g: Graph):
    """Tape forward of one expert encoder on ``inputs = propagate(arch,
    xtilde, g)``; lv maps param name -> leaf, or -> the parameter array
    itself for a forward without gradients. Only ATTENTION reads ``g``."""
    if arch == "LOWPASS":
        return ad.tanh(ad.matmul(ad.wrap(inputs), lv["w0"]))
    if arch == "ATTENTION":
        z = ad.matmul(ad.wrap(inputs), lv["w0"])
        h = ad.edge_attention(z, lv["att_self"], lv["att_nbr"], _attention_edges(g),
                              LEAKY_SLOPE)
        return ad.tanh(ad.sub(h, ad.spmm(g.neighbor_mean(), h)))
    if arch == "CHEBY":
        h = ad.matmul(ad.wrap(inputs[0]), lv["cheb_w0"])
        for k in range(1, CHEB_ORDER + 1):
            h = ad.add(h, ad.matmul(ad.wrap(inputs[k]), lv[f"cheb_w{k}"]))
        return ad.tanh(h)
    if arch == "GPR":
        return ad.matmul(ad.weighted_sum(lv["gamma"], inputs), lv["w0"])
    raise ValueError(f"unknown architecture {arch!r}")


def encode(model: ExpertModel, xtilde, g: Graph) -> np.ndarray:
    """The encoder's forward on the parameters as constants."""
    if xtilde.shape[1] != model.dims[0]:
        raise ValueError(
            f"input width {xtilde.shape[1]} != expert input dim {model.dims[0]}"
        )
    inputs = propagate(model.arch, xtilde, g)
    return encode_t(model.arch, model.params, inputs, g).value


def cross_attention_t(wq, wk, hq, hk, d_prime):
    """Value-free cross-attention: softmax(Q K^T / sqrt(d')) @ raw keys."""
    q = ad.matmul(hq, wq)
    k = ad.matmul(hk, wk)
    att = ad.row_softmax(ad.mul(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(d_prime)))
    return ad.matmul(att, hk)


def reconstruct(model: ExpertModel, hq, hk) -> np.ndarray:
    """Reconstruct the query embeddings hq from the key embeddings hk, on
    the parameters as constants."""
    p = model.params
    return cross_attention_t(p["wq"], p["wk"], hq, hk, model.dims[2]).value


def anomaly_scores(hq, hq_recon) -> np.ndarray:
    """Row-wise l2 reconstruction discrepancy."""
    return np.linalg.norm(np.asarray(hq) - np.asarray(hq_recon), axis=1)


def cosine_rows_t(a, b):
    dot = ad.tsum(ad.mul(a, b), axis=1)
    na = ad.sqrt(ad.maximum_scalar(ad.tsum(ad.mul(a, a), axis=1), 1e-30))
    nb = ad.sqrt(ad.maximum_scalar(ad.tsum(ad.mul(b, b), axis=1), 1e-30))
    return ad.div(dot, ad.maximum_scalar(ad.mul(na, nb), 1e-15))


def consistency_loss_t(cos, y, axis=None):
    """Cosine-consistency loss of query cosines ``cos`` (labels ``y`` on the last
    axis): normal rows pay 1 - cos, anomalous rows max(0, cos); mean over ``axis``."""
    y = np.asarray(y, dtype=np.float64)
    normal_term = ad.mul(ad.sub(1.0, cos), 1.0 - y)
    anomaly_term = ad.mul(ad.maximum_scalar(cos, 0.0), y)
    return ad.tmean(ad.add(normal_term, anomaly_term), axis=axis)


def anomaly_loss_t(hq, hq_recon, y):
    """Consistency loss of ``hq_recon`` against ``hq``, mean over the queries."""
    return consistency_loss_t(cosine_rows_t(hq_recon, hq), y)


def sample_key_split(y, key_fraction, rng):
    """Keys = random fraction of normal nodes (at least one); queries = the
    rest of the graph."""
    if y is None:
        raise ValueError("training graph has no labels to sample keys from")
    normal = np.flatnonzero(np.asarray(y) == 0)
    if normal.size == 0:
        raise ValueError("graph has no normal nodes to sample keys from")
    n_keys = max(1, int(round(key_fraction * normal.size)))
    keys = np.sort(rng.choice(normal, size=n_keys, replace=False))
    queries = np.setdiff1d(np.arange(len(y)), keys)
    return keys, queries


def expert_training_loss_t(arch, lv, inputs, g, keys, queries, d_prime):
    """The anomaly loss of one graph's queries, encoded from ``inputs =
    propagate(arch, xtilde, g)``."""
    h = encode_t(arch, lv, inputs, g)
    hq = ad.gather_rows(h, queries)
    hk = ad.gather_rows(h, keys)
    recon = cross_attention_t(lv["wq"], lv["wk"], hq, hk, d_prime)
    return anomaly_loss_t(hq, recon, np.asarray(g.labels)[queries])


def pretrain_expert(arch, graph_inputs, cfg, seed):
    """Train one expert on (graph, aligned-features) pairs.

    Each graph is propagated once. Per epoch: fresh key/query split per
    graph, one optimizer step on the mean loss over graphs. Returns (model,
    loss trace).
    """
    model = init_expert(arch, cfg.d, cfg.d_e, cfg.d_prime, seed)
    rng = np.random.default_rng(seed + 1)
    propagated = [(g, propagate(arch, xt, g)) for g, xt in graph_inputs]

    def graph_loss(lv, _ws, g, inputs):
        keys, queries = sample_key_split(g.labels, cfg.key_fraction, rng)
        return expert_training_loss_t(arch, lv, inputs, g, keys, queries, cfg.d_prime)

    epochs = cfg.expert_epochs[ARCHS.index(arch)]
    return model, ad.fit(model.params, epochs, graph_loss, propagated, cfg.lr, cfg.wd, arch)


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
    save_checkpoint(path, {"kind": "expert", "arch": model.arch}, model.params)


def load_expert(path) -> ExpertModel:
    header, tensors = load_checkpoint(path, "expert")
    arch = header.get("arch")
    if arch not in ARCHS:
        raise CheckpointError(f"{path}: architecture {arch!r} is none of {', '.join(ARCHS)}")
    shapes = functools.partial(_param_shapes, arch)
    return check_tensors(path, ExpertModel(arch, tensors), shapes)
