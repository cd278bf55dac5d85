"""Minimal reverse-mode differentiation tape over float64 numpy arrays.

Every trainable loss in this package is built from the ops below and is
verified against central finite differences (see ``numeric.finite_diff_check``),
so the op set stays deliberately small: dense/sparse matmul, elementwise
nonlinearities, row/segment softmax, and gather/scatter indexing.
"""

from __future__ import annotations

import numpy as np


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
        """Accumulate gradients of this scalar into every reachable leaf."""
        if self.value.ndim != 0:
            raise ValueError("backward() requires a scalar tensor")
        order = _toposort(self)
        self.grad = np.ones((), dtype=np.float64)
        for node in order:
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # operator sugar; keeps model code readable
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


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
        _acc(a, _unbroadcast(g * b.value, a.value.shape))
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
        _acc(a, g @ b.value.T)
        _acc(b, a.value.T @ g)

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


def gather_rows(a, idx):
    a = wrap(a)
    out = Tensor(a.value[idx], (a,))

    def bw(g):
        acc = np.zeros_like(a.value)
        np.add.at(acc, idx, g)
        _acc(a, acc)

    out._backward = bw
    return out


def segment_sum_rows(a, seg, n_seg):
    """out[s] = sum of rows of a whose segment id is s."""
    a = wrap(a)
    acc = np.zeros((n_seg,) + a.value.shape[1:])
    np.add.at(acc, seg, a.value)
    out = Tensor(acc, (a,))
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


def mix_rows(p, mats):
    """Per-row mixture sum_e p[:, e] * mats[e] of constant R x d matrices by
    the columns of p (R x E), summed in expert order."""
    p = wrap(p)
    acc = mats[0] * p.value[:, 0, None]
    for e in range(1, len(mats)):
        acc = acc + mats[e] * p.value[:, e, None]
    out = Tensor(acc, (p,))
    out._backward = lambda g: _acc(
        p, np.stack([(g * m).sum(axis=1) for m in mats], axis=1)
    )
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


def vec_min(a):
    """Minimum of a 1-D tensor; gradient flows to the first argmin."""
    a = wrap(a)
    i = int(np.argmin(a.value))
    out = Tensor(a.value[i], (a,))

    def bw(g):
        acc = np.zeros_like(a.value)
        acc[i] = g
        _acc(a, acc)

    out._backward = bw
    return out


class AdamW:
    """Adaptive-moment optimizer with decoupled weight decay."""

    def __init__(self, params, lr, weight_decay=0.0, betas=(0.9, 0.999), eps=1e-8):
        self.params = params
        self.lr = lr
        self.wd = weight_decay
        self.b1, self.b2 = betas
        self.eps = eps
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
            p -= self.lr * mhat / (np.sqrt(vhat) + self.eps)
            if self.wd:
                p -= self.lr * self.wd * p
