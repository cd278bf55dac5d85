"""Minimal reverse-mode differentiation tape over float64 numpy arrays.

Every trainable loss in this package is built from the ops below and is
verified against central finite differences (``finite_diff_check`` in
``tests/helpers.py``), so the op set stays deliberately small: dense/sparse
matmul, elementwise nonlinearities, row softmax, row gathers at sorted
unique indices, ATTENTION's attention-weighted neighbour sum
``edge_attention``, GPR's ``weighted_sum``, and the router's ops:
``gram_cosine_rows``, ``key_softmax``, and the folded readout
``readout_table`` and ``table_readout``.
Backward drops an inner node's gradient once it is used; leaves keep
theirs. ``fit(params, epochs, graph_loss, graphs, lr, wd, what)`` is the
AdamW loop every model trains through. Per epoch it calls
``graph_loss(leaves, ws, *args)`` for each tuple ``args`` of ``graphs`` in
turn, back-propagates that loss into the leaves and drops its tape before
the next graph's loss is built, so one graph's tape is alive at a time.
``ws`` is the call's ``Workspace``, one scratch buffer, which the losses
pass to ``key_softmax``: its backward computes the logit gradient in that
buffer, which every epoch reuses and which dies with the call. Called
without one, as in scoring, it allocates a fresh array.
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

    def backward(self, grad=None):
        """Accumulate gradients of this scalar, times the seed ``grad``
        (default 1), into every reachable leaf. Leaves keep their gradients;
        inner nodes hold none afterwards, so a second call adds one more
        copy of the leaf gradients."""
        if self.value.ndim != 0:
            raise ValueError("backward() requires a scalar tensor")
        order = _toposort(self)
        self.grad = np.ones((), dtype=np.float64) if grad is None else grad
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


def key_softmax(a, keys, ws=None):
    """row_softmax(a @ keys.T): each row's attention over the rows of keys,
    computed in place of the logits, which backward does not need. With a
    ``Workspace`` ``ws``, the backward's logit gradient is written into its
    scratch."""
    a, keys = wrap(a), wrap(keys)
    p = a.value @ keys.value.T
    p -= p.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    out = Tensor(p, (a, keys))

    def bw(g):
        # p * (g - (g * p).sum(...)), with one array in place of three
        gl = np.multiply(g, p, out=np.empty(p.shape) if ws is None else ws.scratch(p.shape))
        np.subtract(g, gl.sum(axis=1, keepdims=True), out=gl)
        gl *= p
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


def edge_attention(z, a_self, a_nbr, edges, slope):
    """A GAT layer's neighbour sum over the CSR pattern ``edges = (src, dst,
    indptr)`` whose rows are dst: out[i] = sum of alpha[e] * z[src[e]] over
    the edges e with dst[e] == i, where alpha is the softmax within each row
    of leaky_relu(z[dst] @ a_self + z[src] @ a_nbr, slope). Every per-row
    sum adds in edge order; the forward's CSR matrix of alpha, taken as
    stored, serves the backward too."""
    z, a_self, a_nbr = wrap(z), wrap(a_self), wrap(a_nbr)
    src, dst, indptr = edges
    n, zv = len(indptr) - 1, z.value
    pre = (zv @ a_self.value)[dst] + (zv @ a_nbr.value)[src]
    pos = pre > 0
    logits = np.where(pos, pre, slope * pre)
    mx = np.full(n, -np.inf)
    np.maximum.at(mx, dst, logits)
    e = np.exp(logits - mx[dst])
    alpha = e / np.bincount(dst, e, n)[dst]
    s = sp.csr_matrix((alpha, src, indptr), shape=(n, len(zv)))
    out = Tensor(s @ zv, (z, a_self, a_nbr))

    def bw(g):
        g_alpha = (g[dst] * zv[src]).sum(axis=1)
        g_pre = alpha * (g_alpha - np.bincount(dst, g_alpha * alpha, n)[dst])
        g_pre = g_pre * np.where(pos, 1.0, slope)
        g_self = np.bincount(dst, g_pre, n)
        g_nbr = np.bincount(src, g_pre, len(zv))
        # the three parts in this order give the bits that training has
        # always given; the exactness case acc-s0-lr1e-3 sees another order
        _acc(z, s.T @ g + np.outer(g_self, a_self.value) + np.outer(g_nbr, a_nbr.value))
        _acc(a_self, zv.T @ g_self)
        _acc(a_nbr, zv.T @ g_nbr)

    out._backward = bw
    return out


def gather_rows(a, idx):
    """The rows of a at idx, which must be strictly increasing (sorted and
    unique), so that backward is a plain scatter."""
    if np.any(np.diff(idx) <= 0):
        raise ValueError("gather_rows needs strictly increasing indices")
    a = wrap(a)
    out = Tensor(a.value[idx], (a,))

    def bw(g):
        acc = np.zeros_like(a.value)
        acc[idx] = g
        _acc(a, acc)

    out._backward = bw
    return out


def append_row(a, v):
    """a (R x d) with the row v (d,) appended: (R + 1) x d."""
    a, v = wrap(a), wrap(v)
    out = Tensor(np.vstack([a.value, v.value]), (a, v))

    def bw(g):
        _acc(a, g[:-1])
        _acc(v, g[-1])

    out._backward = bw
    return out


def _scaled_rows(scale, rows):
    """w[e * M + m] = scale[e] * rows[m]: (E * M) x d."""
    return (scale[:, None, :] * rows).reshape(-1, rows.shape[1])


def _groups(a, r):
    """The k groups of R rows of a (k * R) x c array as an R x k x c view."""
    return a.reshape(-1, r, a.shape[1]).transpose(1, 0, 2)


def _per_row(a, b):
    """out[j * R + r] = a[j * R + r] @ b[r] for the k groups of R rows of a
    ((k * R) x p) and the R matrices of b (R x p x q): one k x p by p x q
    product per row, written straight into the (k * R) x q result."""
    r, _, q = b.shape
    out = np.empty((a.shape[0] // r, r, q))
    np.matmul(_groups(a, r), b, out=out.transpose(1, 0, 2))
    return out.reshape(-1, q)


def readout_table(node, scale, rows):
    """t[r, e, m] = sum_d node[r, d] * scale[e, d] * rows[m, d] (R x E x M),
    as one R x d by d x (E * M) product."""
    node, scale, rows = wrap(node), wrap(scale), wrap(rows)
    t = node.value @ _scaled_rows(scale.value, rows.value).T
    out = Tensor(t.reshape(len(node.value), len(scale.value), len(rows.value)),
                 (node, scale, rows))

    def bw(g):
        r, e, m = g.shape
        g = g.reshape(r, e * m)
        if node.requires_grad:
            _acc(node, g @ _scaled_rows(scale.value, rows.value))
        g_w = (g.T @ node.value).reshape(e, m, -1)  # the gradient of _scaled_rows
        if scale.requires_grad:
            _acc(scale, (g_w * rows.value).sum(axis=1))
        if rows.requires_grad:
            _acc(rows, (g_w * scale.value[:, None, :]).sum(axis=0))

    out._backward = bw
    return out


def table_readout(att, table):
    """Each of the k groups of R rows of att ((k * R) x M) read through the
    table (R x E x M) of its row: (k * R) x E logits. Backward meets every
    group's gradient with the table in the one batched product per row."""
    att, table = wrap(att), wrap(table)
    r = table.value.shape[0]
    out = Tensor(_per_row(att.value, table.value.transpose(0, 2, 1)), (att, table))

    def bw(g):
        if att.requires_grad:
            _acc(att, _per_row(g, table.value))
        if table.requires_grad:
            _acc(table, _groups(g, r).transpose(0, 2, 1) @ _groups(att.value, r))

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


def weighted_sum(w, stack):
    """sum_t w[t] * stack[t] of a 1-D tensor w (T,) over a constant stack
    (T x ...). Backward is one product of the flattened stack with the
    upstream gradient."""
    w = wrap(w)
    flat = stack.reshape(len(stack), -1)
    out = Tensor((w.value @ flat).reshape(stack.shape[1:]), (w,))
    out._backward = lambda g: _acc(w, flat @ g.ravel())
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


class TrainingDivergedError(RuntimeError):
    """A training loss became NaN or infinite."""


class Workspace:
    """The one scratch buffer of a ``fit`` call, so that every epoch's
    ``key_softmax`` backward reuses the last epoch's memory instead of
    asking the allocator again. It dies with the call."""

    def __init__(self):
        self._scratch = np.empty(0)

    def scratch(self, shape):
        """An uninitialised float64 array of ``shape`` that the next
        ``scratch`` call overwrites: every caller shares one buffer, as
        large as the largest request."""
        size = int(np.prod(shape))
        if size > self._scratch.size:
            self._scratch = np.empty(size)
        return self._scratch[:size].reshape(shape)


def fit(params, epochs, graph_loss, graphs, lr, wd, what):
    """The training loop of every model: per epoch, one AdamW step on
    ``params`` (updated in place) against the mean over the training graphs
    of the scalar losses ``graph_loss(leaves, ws, *args)``, one per tuple
    ``args`` of ``graphs``, on leaves of ``params``, with ``ws`` this call's
    ``Workspace``. Returns the loss trace; a non-finite mean raises before
    its epoch's step, naming ``what``.

    The graphs' losses are built in order, and each is back-propagated with
    the seed 1/n that the mean hands it and dropped before the next one is
    built, so only one graph's tape is alive at a time. The graphs share
    only leaves, so each leaf sums the same gradients in the same order as
    one backward through the mean would."""
    opt = AdamW(params, lr=lr, weight_decay=wd)
    ws = Workspace()
    scale = np.asarray(1.0 / len(graphs))
    trace = []
    for epoch in range(epochs):
        lv = leaves(params)
        values = []
        for args in graphs:
            loss = graph_loss(lv, ws, *args)
            values.append(float(loss.value))
            if np.isfinite(loss.value):  # a non-finite mean raises below
                loss.backward(np.ones(()) * scale)
            del loss
        total = np.array(values).sum() * scale
        if not np.isfinite(total):
            raise TrainingDivergedError(
                f"{what}: non-finite loss at epoch {epoch} (trace={trace})"
            )
        opt.step(grads(lv))
        trace.append(float(total))
        del lv
    return trace
