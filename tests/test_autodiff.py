import numpy as np
import scipy.sparse as sp

from evofg import autodiff as ad
from evofg.numeric import finite_diff_check
from helpers import fd_adapters


def test_composite_dense_ops_gradient():
    rng = np.random.default_rng(0)
    params = {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=3)}
    x = rng.normal(size=(6, 4))

    def build(lv):
        h = ad.tanh(ad.add(ad.matmul(ad.wrap(x), lv["w"]), lv["b"]))
        p = ad.row_softmax(h)
        s = ad.tsum(ad.mul(p, p), axis=1)
        return ad.tmean(ad.sqrt(ad.maximum_scalar(s, 1e-12)))

    loss_fn, grad_fn, vec = fd_adapters(build, params)
    rep = finite_diff_check(loss_fn, grad_fn, vec)
    assert rep.max_rel_err < 1e-6


def test_sparse_segment_and_gather_ops_gradient():
    rng = np.random.default_rng(1)
    s = sp.csr_matrix(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float))
    seg = np.array([0, 0, 1, 2, 2])
    idx = np.array([2, 0, 1, 1, 2])
    params = {"w": rng.normal(size=(3, 3)), "a": rng.normal(size=5)}
    x = rng.normal(size=(3, 3))

    def build(lv):
        h = ad.spmm(s, ad.matmul(ad.wrap(x), lv["w"]))
        rows = ad.gather_rows(h, idx)
        alpha = ad.segment_softmax(ad.leaky_relu(lv["a"], 0.2), seg, 3)
        mixed = ad.segment_sum_rows(ad.scale_rows(rows, alpha), seg, 3)
        c0 = ad.matvec(mixed, np.array([1.0, 0.0, 0.0]))
        lo = ad.vec_min(ad.tsum(mixed, axis=1))
        return ad.add(ad.tmean(ad.mul(c0, c0)), ad.mul(lo, 0.3))

    loss_fn, grad_fn, vec = fd_adapters(build, params)
    rep = finite_diff_check(loss_fn, grad_fn, vec)
    assert rep.max_rel_err < 1e-6


def test_log_softmax_softplus_matvec_gradient():
    rng = np.random.default_rng(2)
    params = {"w": rng.normal(size=(5, 4)), "v": rng.normal(size=4)}
    x = rng.normal(size=(7, 5))

    def build(lv):
        logits = ad.matmul(ad.wrap(x), lv["w"])
        lsm = ad.row_log_softmax(logits)
        gate = ad.softplus(ad.matvec(logits, lv["v"]))
        scalars = [ad.tmean(ad.mul(lsm, lsm)), ad.tmean(gate)]
        vecd = ad.stack_scalars(scalars)
        dev = ad.sub(vecd, ad.tmean(vecd))
        return ad.add(ad.tmean(vecd), ad.tmean(ad.mul(dev, dev)))

    loss_fn, grad_fn, vec = fd_adapters(build, params)
    rep = finite_diff_check(loss_fn, grad_fn, vec)
    assert rep.max_rel_err < 1e-6


def test_broadcast_and_scalar_index_gradient():
    rng = np.random.default_rng(3)
    params = {"g": rng.normal(size=4), "m": rng.normal(size=(3, 2))}

    def build(lv):
        acc = ad.mul(lv["m"], ad.index_scalar(lv["g"], 0))
        for t in range(1, 4):
            acc = ad.add(acc, ad.mul(lv["m"], ad.index_scalar(lv["g"], t)))
        return ad.tmean(ad.mul(acc, acc))

    loss_fn, grad_fn, vec = fd_adapters(build, params)
    rep = finite_diff_check(loss_fn, grad_fn, vec)
    assert rep.max_rel_err < 1e-7


def test_adamw_decreases_quadratic():
    params = {"p": np.array([3.0, -2.0])}
    opt = ad.AdamW(params, lr=0.1, weight_decay=0.0)
    for _ in range(200):
        lv = ad.leaves(params)
        loss = ad.tmean(ad.mul(lv["p"], lv["p"]))
        loss.backward()
        opt.step(ad.grads(lv))
    assert np.abs(params["p"]).max() < 0.05


def test_grad_accumulates_over_shared_use():
    p = {"w": np.array([2.0])}
    lv = ad.leaves(p)
    y = ad.mul(lv["w"], lv["w"])  # w^2: dy/dw = 2w
    ad.tsum(y).backward()
    assert np.allclose(lv["w"].grad, [4.0])


def test_mix_rows_gradient_and_expert_order_sum():
    rng = np.random.default_rng(4)
    params = {"w": rng.normal(size=(5, 3))}
    mats = [rng.normal(size=(5, 2)) for _ in range(3)]
    recs = [rng.normal(size=(5, 2)) for _ in range(3)]

    def build(lv):
        p = ad.row_softmax(lv["w"])
        h = ad.mix_rows(p, mats)
        r = ad.mix_rows(p, recs)  # a second use of the same weights
        d = ad.sub(h, r)
        return ad.tmean(ad.mul(d, d))

    loss_fn, grad_fn, vec = fd_adapters(build, params)
    rep = finite_diff_check(loss_fn, grad_fn, vec)
    assert rep.max_rel_err < 1e-7

    p = rng.dirichlet(np.ones(3), size=5)
    chain = (mats[0] * p[:, 0, None] + mats[1] * p[:, 1, None]) + mats[2] * p[:, 2, None]
    assert np.array_equal(ad.mix_rows(p, mats).value, chain)


def test_first_gradient_shared_by_two_inputs_stays_separate():
    # add hands the same upstream array to both inputs; a later contribution
    # to one of them must not change the other's gradient
    lv = ad.leaves({"a": np.array([1.0, 2.0]), "b": np.array([3.0, -1.0])})
    y = ad.add(lv["a"], lv["b"])
    ad.tsum(ad.add(y, lv["a"])).backward()
    assert np.array_equal(lv["a"].grad, [2.0, 2.0])
    assert np.array_equal(lv["b"].grad, [1.0, 1.0])
