"""Minimal reverse-mode differentiation tape over float64 numpy arrays.

Every trainable loss in this package is built from the ops below and is
verified against central finite differences (``finite_diff_check`` in
``tests/helpers.py``), so the op set stays deliberately small: dense/sparse
matmul, elementwise nonlinearities, row/segment softmax, gather/scatter
indexing, and the router's fused ops: ``gram_cosine_rows``, and
``affine``, ``key_softmax`` and ``memory_readout``, which compute what the
chains they replace compute, in the same order, but keep only what their
backward reads. Backward drops an inner node's gradient once it is used;
leaves keep theirs.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


class Tensor:
    """A node in the tape: a float64 array plus backward bookkeeping."""

    __slots__ = ("value", "grad", "_parents", "_backward", "requires_grad")

    def __init__(self, value, parents=(), backward=None, requires_grad=False):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._backward = backward
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)

    @property
    def shape(self):
        return self.value.shape

    def backward(self):
        """Accumulate gradients of this scalar into every reachable leaf.
        Leaves keep their gradients; inner nodes hold none afterwards, so a
        second call adds one more copy of the leaf gradients."""
        if self.value.ndim != 0:
            raise ValueError("backward() requires a scalar tensor")
        order = _toposort(self)
        self.grad = np.ones((), dtype=np.float64)
        for node in order:
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                # an inner node's gradient is read by its own backward only;
                # dropping it here keeps the gradients of the current
                # frontier alive, not those of the whole tape
                if node._parents:
                    node.grad = None


def _toposort(root):
    seen = set()
    order = []
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    order.reverse()
    return order


def _acc(node, g):
    # the first gradient is stored as given (it may be another node's array),
    # so later ones are added out of place
    if not node.requires_grad:
        return
    node.grad = g if node.grad is None else node.grad + g


def _unbroadcast(g, shape):
    """Reduce gradient g back to the given (broadcast-source) shape."""
    g = np.asarray(g)
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def param(x):
    """Leaf tensor carrying gradients; wraps (does not copy) the array."""
    return Tensor(x, requires_grad=True)


def leaves(params):
    """Map name -> leaf Tensor for a dict of numpy parameter arrays."""
    return {k: param(v) for k, v in params.items()}


def grads(leaf_dict):
    return {
        k: (t.grad if t.grad is not None else np.zeros_like(t.value))
        for k, t in leaf_dict.items()
    }


def add(a, b):
    a, b = wrap(a), wrap(b)
    out = Tensor(a.value + b.value, (a, b))

    def bw(g):
        _acc(a, _unbroadcast(g, a.value.shape))
        _acc(b, _unbroadcast(g, b.value.shape))

    out._backward = bw
    return out


def sub(a, b):
    a, b = wrap(a), wrap(b)
    out = Tensor(a.value - b.value, (a, b))

    def bw(g):
        _acc(a, _unbroadcast(g, a.value.shape))
        _acc(b, _unbroadcast(-g, b.value.shape))

    out._backward = bw
    return out


def mul(a, b):
    a, b = wrap(a), wrap(b)
    out = Tensor(a.value * b.value, (a, b))

    def bw(g):
        if a.requires_grad:
            _acc(a, _unbroadcast(g * b.value, a.value.shape))
        if b.requires_grad:
            _acc(b, _unbroadcast(g * a.value, b.value.shape))

    out._backward = bw
    return out


def div(a, b):
    a, b = wrap(a), wrap(b)
    out = Tensor(a.value / b.value, (a, b))

    def bw(g):
        _acc(a, _unbroadcast(g / b.value, a.value.shape))
        _acc(b, _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape))

    out._backward = bw
    return out


def matmul(a, b):
    a, b = wrap(a), wrap(b)
    out = Tensor(a.value @ b.value, (a, b))

    def bw(g):
        # a constant operand (features, noise, fixed matrices) gets no product
        if a.requires_grad:
            _acc(a, g @ b.value.T)
        if b.requires_grad:
            _acc(b, a.value.T @ g)

    out._backward = bw
    return out


def affine(x, w, b):
    """x @ w + b, the bias added in place, so the tape keeps one array."""
    x, w, b = wrap(x), wrap(w), wrap(b)
    y = x.value @ w.value
    y += b.value
    out = Tensor(y, (x, w, b))

    def bw(g):
        if x.requires_grad:
            _acc(x, g @ w.value.T)
        if w.requires_grad:
            _acc(w, x.value.T @ g)
        if b.requires_grad:
            _acc(b, _unbroadcast(g, b.value.shape))

    out._backward = bw
    return out


def matvec(a, v):
    """2-D tensor @ 1-D tensor -> 1-D tensor."""
    a, v = wrap(a), wrap(v)
    out = Tensor(a.value @ v.value, (a, v))

    def bw(g):
        _acc(a, np.outer(g, v.value))
        _acc(v, a.value.T @ g)

    out._backward = bw
    return out


def transpose(a):
    a = wrap(a)
    out = Tensor(a.value.T, (a,))
    out._backward = lambda g: _acc(a, g.T)
    return out


def spmm(s, x):
    """Sparse-constant @ dense: s is a fixed scipy sparse matrix."""
    x = wrap(x)
    out = Tensor(s @ x.value, (x,))
    out._backward = lambda g: _acc(x, s.T @ g)
    return out


def tanh(a):
    a = wrap(a)
    y = np.tanh(a.value)
    out = Tensor(y, (a,))
    out._backward = lambda g: _acc(a, g * (1.0 - y * y))
    return out


def leaky_relu(a, slope=0.2):
    a = wrap(a)
    pos = a.value > 0
    out = Tensor(np.where(pos, a.value, slope * a.value), (a,))
    out._backward = lambda g: _acc(a, g * np.where(pos, 1.0, slope))
    return out


def softplus(a):
    a = wrap(a)
    # stable: log1p(exp(-|x|)) + max(x, 0)
    y = np.log1p(np.exp(-np.abs(a.value))) + np.maximum(a.value, 0.0)
    out = Tensor(y, (a,))
    sig = 1.0 / (1.0 + np.exp(-a.value))
    out._backward = lambda g: _acc(a, g * sig)
    return out


def sqrt(a):
    a = wrap(a)
    y = np.sqrt(a.value)
    out = Tensor(y, (a,))
    out._backward = lambda g: _acc(a, g * 0.5 / y)
    return out


def maximum_scalar(a, c):
    """Elementwise max(a, c) for constant c; subgradient 0 at ties."""
    a = wrap(a)
    mask = a.value > c
    out = Tensor(np.maximum(a.value, c), (a,))
    out._backward = lambda g: _acc(a, g * mask)
    return out


def tsum(a, axis=None):
    a = wrap(a)
    out = Tensor(a.value.sum(axis=axis), (a,))

    def bw(g):
        if axis is None:
            _acc(a, np.broadcast_to(g, a.value.shape).copy())
        else:
            _acc(a, np.broadcast_to(np.expand_dims(g, axis), a.value.shape).copy())

    out._backward = bw
    return out


def tmean(a, axis=None):
    a = wrap(a)
    n = a.value.size if axis is None else a.value.shape[axis]
    return mul(tsum(a, axis=axis), 1.0 / n)


def row_softmax(a):
    a = wrap(a)
    z = a.value - a.value.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    out = Tensor(p, (a,))

    def bw(g):
        _acc(a, p * (g - (g * p).sum(axis=1, keepdims=True)))

    out._backward = bw
    return out


def key_softmax(a, keys):
    """row_softmax(a @ keys.T): each row's attention over the rows of keys.
    The logits are not kept; backward needs only the attention."""
    a, keys = wrap(a), wrap(keys)
    p = a.value @ keys.value.T
    p -= p.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    out = Tensor(p, (a, keys))

    def bw(g):
        gl = p * (g - (g * p).sum(axis=1, keepdims=True))
        if a.requires_grad:
            _acc(a, gl @ keys.value)
        if keys.requires_grad:
            _acc(keys, (a.value.T @ gl).T)

    out._backward = bw
    return out


def row_log_softmax(a):
    a = wrap(a)
    z = a.value - a.value.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    out = Tensor(z - lse, (a,))
    p = np.exp(z - lse)

    def bw(g):
        _acc(a, g - p * g.sum(axis=1, keepdims=True))

    out._backward = bw
    return out


def segment_softmax(logits, seg, n_seg):
    """Softmax of a 1-D tensor within segments given by constant ids."""
    logits = wrap(logits)
    x = logits.value
    mx = np.full(n_seg, -np.inf)
    np.maximum.at(mx, seg, x)
    e = np.exp(x - mx[seg])
    tot = np.zeros(n_seg)
    np.add.at(tot, seg, e)
    p = e / tot[seg]
    out = Tensor(p, (logits,))

    def bw(g):
        t = np.zeros(n_seg)
        np.add.at(t, seg, g * p)
        _acc(logits, p * (g - t[seg]))

    out._backward = bw
    return out


def scatter_add_rows(idx, rows, n):
    """out[i] = sum of rows[j] over the j with idx[j] == i, for i < n, added
    in j order: the sums of ``np.add.at`` bit for bit, as one product with
    the sparse n x R incidence matrix of idx. rows is 1-D or 2-D."""
    r = len(idx)
    incidence = sp.csr_matrix((np.ones(r), (idx, np.arange(r))), shape=(n, r))
    return incidence @ rows


def gather_rows(a, idx):
    a = wrap(a)
    out = Tensor(a.value[idx], (a,))

    def bw(g):
        if np.all(np.diff(idx) > 0):  # no repeated row: a plain scatter
            acc = np.zeros_like(a.value)
            acc[idx] = g
        else:
            acc = scatter_add_rows(idx, g, a.value.shape[0])
        _acc(a, acc)

    out._backward = bw
    return out


def segment_sum_rows(a, seg, n_seg):
    """out[s] = sum of rows of a whose segment id is s."""
    a = wrap(a)
    out = Tensor(scatter_add_rows(seg, a.value, n_seg), (a,))
    out._backward = lambda g: _acc(a, g[seg])
    return out


def scale_rows(a, w):
    """Multiply each row of a (R x d) by the matching entry of w (R,)."""
    a, w = wrap(a), wrap(w)
    out = Tensor(a.value * w.value[:, None], (a, w))

    def bw(g):
        _acc(a, g * w.value[:, None])
        _acc(w, (g * a.value).sum(axis=1))

    out._backward = bw
    return out


def memory_readout(s, mem, node, scale):
    """((s @ mem) * node) @ scale.T: per-expert logits from memory readouts.
    s stacks k groups of R rows ((k * R) x M) and the R node rows are
    broadcast over the groups, not tiled; mem=None reads s itself as the
    embedding (a router without memory). Backward recomputes s @ mem, so
    the op keeps no intermediate."""
    s, node, scale = wrap(s), wrap(node), wrap(scale)
    if mem is not None:
        mem = wrap(mem)
    r, d = node.value.shape

    def embed():  # s @ mem as k x R x d
        h = s.value if mem is None else s.value @ mem.value
        return h.reshape(-1, r, d)

    prod = (embed() * node.value).reshape(-1, d)
    parents = (s, node, scale) if mem is None else (s, mem, node, scale)
    out = Tensor(prod @ scale.value.T, parents)

    def bw(g):
        h = embed()
        g_h = (g @ scale.value).reshape(-1, r, d)
        if scale.requires_grad:
            _acc(scale, ((h * node.value).reshape(-1, d).T @ g).T)
        if node.requires_grad:
            _acc(node, (g_h * h).sum(axis=0))
        g_h = (g_h * node.value).reshape(-1, d)
        if mem is None:
            _acc(s, g_h)
            return
        if s.requires_grad:
            _acc(s, g_h @ mem.value.T)
        if mem.requires_grad:
            _acc(mem, s.value.T @ g_h)

    out._backward = bw
    return out


def gram_cosine_rows(p, g_ab, g_aa, g_bb):
    """Per-row cosine between the mixtures a = sum_e p[:, e] * A_e and
    b = sum_e p[:, e] * B_e of constant R x d matrices, from their per-row
    Gram blocks g_ab[r, e, f] = <A_e[r], B_f[r]>, g_aa and g_bb (R x E x E),
    so no mixture is formed. p stacks k groups of R rows ((k * R) x E), row
    j * R + r meeting block r; the result is k x R. The squared norms are
    clamped at 1e-30 and the norm product at 1e-15, as in a direct cosine."""
    p = wrap(p)
    # rows r x weights e x groups k, so each row's Gram block multiplies all
    # k groups at once
    pt = p.value.reshape(-1, *g_ab.shape[:2]).transpose(1, 2, 0)

    def quad(gram):  # p^T G p and (G + G^T) p per row and group
        gp = gram @ pt
        return (pt * gp).sum(axis=1), gp + gram.transpose(0, 2, 1) @ pt

    s_ab, d_ab = quad(g_ab)
    s_aa, d_aa = quad(g_aa)
    s_bb, d_bb = quad(g_bb)
    na = np.sqrt(np.maximum(s_aa, 1e-30))
    nb = np.sqrt(np.maximum(s_bb, 1e-30))
    prod = na * nb
    den = np.maximum(prod, 1e-15)
    out = Tensor(np.ascontiguousarray((s_ab / den).T), (p,))

    def bw(g):
        g = g.T
        g_den = -g * s_ab / (den * den) * (prod > 1e-15)
        w_aa = g_den * nb * 0.5 / na * (s_aa > 1e-30)
        w_bb = g_den * na * 0.5 / nb * (s_bb > 1e-30)
        dp = (g / den)[:, None] * d_ab + w_aa[:, None] * d_aa + w_bb[:, None] * d_bb
        _acc(p, dp.transpose(2, 0, 1).reshape(p.value.shape))

    out._backward = bw
    return out


def index_scalar(a, i):
    a = wrap(a)
    out = Tensor(a.value[i], (a,))

    def bw(g):
        acc = np.zeros_like(a.value)
        acc[i] = g
        _acc(a, acc)

    out._backward = bw
    return out


def stack_scalars(ts):
    ts = [wrap(t) for t in ts]
    out = Tensor(np.array([t.value for t in ts]), tuple(ts))

    def bw(g):
        for i, t in enumerate(ts):
            _acc(t, g[i])

    out._backward = bw
    return out


ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


class AdamW:
    """Adaptive-moment optimizer with decoupled weight decay."""

    def __init__(self, params, lr, weight_decay=0.0):
        self.params = params
        self.lr = lr
        self.wd = weight_decay
        self.b1, self.b2 = ADAM_BETAS
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grad_dict):
        self.t += 1
        b1t = 1.0 - self.b1**self.t
        b2t = 1.0 - self.b2**self.t
        for k, p in self.params.items():
            g = grad_dict[k]
            self.m[k] = self.b1 * self.m[k] + (1 - self.b1) * g
            self.v[k] = self.b2 * self.v[k] + (1 - self.b2) * g * g
            mhat = self.m[k] / b1t
            vhat = self.v[k] / b2t
            p -= self.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
            if self.wd:
                p -= self.lr * self.wd * p
