import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from evofg import autodiff as ad
from helpers import (
    fd_adapters,
    finite_diff_check,
    mix_rows,
    tile_rows,
    unfused_affine,
    unfused_key_softmax,
    unfused_memory_readout,
)


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
        sums = ad.tsum(mixed, axis=1)
        lo = ad.index_scalar(sums, int(np.argmin(sums.value)))
        return ad.add(ad.tmean(ad.mul(c0, c0)), ad.mul(lo, 0.3))

    loss_fn, grad_fn, vec = fd_adapters(build, params)
    rep = finite_diff_check(loss_fn, grad_fn, vec)
    assert rep.max_rel_err < 1e-6


def test_scatter_add_rows_matches_add_at_bit_for_bit():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        idx = rng.integers(0, n, size=int(rng.integers(0, 300)))  # unsorted, repeated
        scale = 10.0 ** rng.integers(-8, 9, size=(len(idx), 1))
        for rows in (rng.normal(size=(len(idx), 5)) * scale, rng.normal(size=len(idx))):
            ref = np.zeros((n,) + rows.shape[1:])
            np.add.at(ref, idx, rows)
            got = ad.scatter_add_rows(idx, rows, n)
            assert got.shape == ref.shape
            assert np.array_equal(got, ref)


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
        h = mix_rows(p, mats)
        r = mix_rows(p, recs)  # a second use of the same weights
        d = ad.sub(h, r)
        return ad.tmean(ad.mul(d, d))

    loss_fn, grad_fn, vec = fd_adapters(build, params)
    rep = finite_diff_check(loss_fn, grad_fn, vec)
    assert rep.max_rel_err < 1e-7

    p = rng.dirichlet(np.ones(3), size=5)
    chain = (mats[0] * p[:, 0, None] + mats[1] * p[:, 1, None]) + mats[2] * p[:, 2, None]
    assert np.array_equal(mix_rows(p, mats).value, chain)


def _gram(a_mats, b_mats):
    return np.einsum("erd,frd->ref", np.stack(a_mats), np.stack(b_mats))


def _direct_cosine(p, a_mats, b_mats, k):
    """cos(mix(p, A), mix(p, B)) per row, the tape ops the Gram form
    replaces, with the R-row expert matrices tiled over the k groups."""
    from evofg.experts import cosine_rows_t

    a = mix_rows(p, [np.tile(m, (k, 1)) for m in a_mats])
    b = mix_rows(p, [np.tile(m, (k, 1)) for m in b_mats])
    return cosine_rows_t(a, b)


def _assert_rows_close(got, ref):
    """Every row within 1e-12 of the largest entry of its reference row, so
    a huge gradient on one clamped row cannot hide an error on another."""
    scale = np.abs(ref).reshape(len(ref), -1).max(axis=1)
    err = np.abs(got - ref).reshape(len(ref), -1).max(axis=1)
    assert np.all(err <= 1e-12 * scale), np.flatnonzero(err > 1e-12 * scale)


def _gram_and_direct(p_val, a_mats, b_mats, k, w):
    """Value and gradient of sum(w * cos) in p, by the Gram op and directly."""
    out = []
    for direct in (False, True):
        p = ad.param(p_val.copy())
        if direct:
            cos = ad.mul(_direct_cosine(p, a_mats, b_mats, k), w.ravel())
        else:
            blocks = _gram(a_mats, b_mats), _gram(a_mats, a_mats), _gram(b_mats, b_mats)
            cos = ad.mul(ad.gram_cosine_rows(p, *blocks), w)
        ad.tsum(cos).backward()
        out.append((cos.value.ravel(), p.grad))
    return out


def test_gram_cosine_rows_gradient():
    rng = np.random.default_rng(5)
    a_mats = [rng.normal(size=(6, 3)) for _ in range(4)]
    b_mats = [rng.normal(size=(6, 3)) for _ in range(4)]
    blocks = _gram(a_mats, b_mats), _gram(a_mats, a_mats), _gram(b_mats, b_mats)
    w = rng.normal(size=(2, 6))

    def build(lv):
        cos = ad.gram_cosine_rows(ad.row_softmax(lv["g"]), *blocks)
        return ad.tsum(ad.mul(cos, w))

    loss_fn, grad_fn, vec = fd_adapters(build, {"g": rng.normal(size=(12, 4))})
    assert finite_diff_check(loss_fn, grad_fn, vec).max_rel_err < 1e-6


def test_gram_cosine_rows_matches_direct_mixture_cosine():
    rng = np.random.default_rng(6)
    r, k = 40, 3
    a_mats = [rng.normal(size=(r, 7)) for _ in range(4)]
    b_mats = [rng.normal(size=(r, 7)) for _ in range(4)]
    p_val = rng.dirichlet(np.ones(4), size=k * r)
    w = rng.normal(size=(k, r))
    (cos_g, grad_g), (cos_d, grad_d) = _gram_and_direct(p_val, a_mats, b_mats, k, w)
    assert np.abs(cos_g - cos_d).max() <= 1e-12 * np.abs(cos_d).max()
    _assert_rows_close(grad_g, grad_d)


def test_gram_cosine_rows_zero_mixtures_and_clamps():
    rng = np.random.default_rng(7)
    r, k = 6, 2
    a_mats = [rng.normal(size=(r, 3)) for _ in range(4)]
    b_mats = [rng.normal(size=(r, 3)) for _ in range(4)]
    for m in a_mats:
        m[0] = 0.0  # row 0: zero a mixture, squared norm at its 1e-30 clamp
    for m in b_mats:
        m[1] = 0.0  # row 1: the same for b
    for m in a_mats + b_mats:
        m[2] *= 1e-8  # row 2: norms above 1e-30, product under 1e-15
    for m, n in zip(a_mats, b_mats):
        m[4] *= 1e-17  # row 4: a nonzero a mixture under the 1e-30 clamp,
        n[4] *= 10.0  # and a long b, so the product clears 1e-15
    # row 3: a mixture that cancels exactly, A_1 = -A_0 and A_3 = -A_2
    a_mats[1][3] = -a_mats[0][3]
    a_mats[3][3] = -a_mats[2][3]
    p_val = rng.dirichlet(np.ones(4), size=k * r)
    p_val[3::r] = 0.25
    w = rng.normal(size=(k, r))
    (cos_g, grad_g), (cos_d, grad_d) = _gram_and_direct(p_val, a_mats, b_mats, k, w)
    assert np.all(cos_g[[0, 1, 3, r, r + 1, r + 3]] == 0.0)
    assert np.abs(cos_d[2::r]).max() < 1e-1  # the product clamp shrinks them
    _assert_rows_close(cos_g[:, None], cos_d[:, None])
    _assert_rows_close(grad_g, grad_d)


def test_tile_rows_gradient_and_layout():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(3, 2))
    assert np.array_equal(tile_rows(a, 4).value, np.vstack([a] * 4))
    w = rng.normal(size=(12, 2))

    def build(lv):
        return ad.tsum(ad.mul(tile_rows(ad.tanh(lv["a"]), 4), w))

    loss_fn, grad_fn, vec = fd_adapters(build, {"a": a})
    assert finite_diff_check(loss_fn, grad_fn, vec).max_rel_err < 1e-7


def test_first_gradient_shared_by_two_inputs_stays_separate():
    # add hands the same upstream array to both inputs; a later contribution
    # to one of them must not change the other's gradient
    lv = ad.leaves({"a": np.array([1.0, 2.0]), "b": np.array([3.0, -1.0])})
    y = ad.add(lv["a"], lv["b"])
    ad.tsum(ad.add(y, lv["a"])).backward()
    assert np.array_equal(lv["a"].grad, [2.0, 2.0])
    assert np.array_equal(lv["b"].grad, [1.0, 1.0])


def _chain_loss(lv, x, w):
    """A loss that reaches each leaf once: tanh(x @ W + b) weighted by w."""
    h = ad.tanh(ad.affine(x, lv["w"], lv["b"]))
    return ad.tsum(ad.mul(h, w)), h


def test_backward_releases_inner_gradients_and_keeps_leaf_gradients():
    rng = np.random.default_rng(9)
    lv = ad.leaves({"w": rng.normal(size=(4, 3)), "b": rng.normal(size=3)})
    loss, h = _chain_loss(lv, rng.normal(size=(5, 4)), rng.normal(size=(5, 3)))
    loss.backward()
    assert loss.grad is None and h.grad is None
    assert lv["w"].grad.shape == (4, 3) and lv["b"].grad.shape == (3,)


def test_second_backward_adds_exactly_one_more_copy_of_leaf_gradients():
    rng = np.random.default_rng(10)
    lv = ad.leaves({"w": rng.normal(size=(4, 3)), "b": rng.normal(size=3)})
    loss, _ = _chain_loss(lv, rng.normal(size=(5, 4)), rng.normal(size=(5, 3)))
    loss.backward()
    once = ad.grads(lv)
    loss.backward()
    for k, g in ad.grads(lv).items():
        assert np.array_equal(g, 2.0 * once[k])


def test_backward_keeps_a_bounded_number_of_gradients_alive():
    x = ad.param(np.random.default_rng(11).normal(size=(2000, 64)))
    h = x
    for _ in range(30):
        h = ad.tanh(h)
    loss = ad.tsum(h)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a few arrays of the chain's size at a time, not one per tanh
    assert peak - before < 6 * x.value.nbytes, (peak - before) / x.value.nbytes


def _fused_and_unfused(build, params):
    """Value and every leaf gradient of build(lv, fused) for both versions."""
    out = []
    for fused in (True, False):
        lv = ad.leaves({k: v.copy() for k, v in params.items()})
        loss = build(lv, fused)
        loss.backward()
        out.append((loss.value, ad.grads(lv)))
    return out


def _assert_fused_exact(build, params):
    (v_f, g_f), (v_u, g_u) = _fused_and_unfused(build, params)
    assert np.array_equal(v_f, v_u)
    for k in params:
        assert np.array_equal(g_f[k], g_u[k]), k
    loss_fn, grad_fn, vec = fd_adapters(lambda lv: build(lv, True), params)
    assert finite_diff_check(loss_fn, grad_fn, vec).max_rel_err < 1e-6


def test_affine_matches_the_chain_it_replaces():
    rng = np.random.default_rng(12)
    x, w = rng.normal(size=(9, 5)), rng.normal(size=(9, 4))
    params = {"x": x, "w": rng.normal(size=(5, 4)), "b": rng.normal(size=4)}

    def build(lv, fused):
        op = ad.affine if fused else unfused_affine
        h = op(ad.tanh(lv["x"]), lv["w"], lv["b"])
        return ad.tsum(ad.mul(ad.tanh(h), w))

    _assert_fused_exact(build, params)


def test_key_softmax_matches_the_chain_it_replaces():
    rng = np.random.default_rng(13)
    w = rng.normal(size=(8, 6))
    params = {"a": rng.normal(size=(8, 3)), "keys": rng.normal(size=(6, 3))}

    def build(lv, fused):
        op = ad.key_softmax if fused else unfused_key_softmax
        return ad.tsum(ad.mul(op(ad.tanh(lv["a"]), lv["keys"]), w))

    _assert_fused_exact(build, params)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("with_memory", [True, False])
def test_memory_readout_matches_the_chain_it_replaces(k, with_memory):
    rng = np.random.default_rng(14)
    r, m, d, e = 5, 4, 3, 2
    w = rng.normal(size=(k * r, e))
    params = {
        "a": rng.normal(size=(k * r, d)),
        "mem": rng.normal(size=(m, d)),
        "node": rng.normal(size=(r, d)),
        "scale": rng.normal(size=(e, d)),
    }

    def build(lv, fused):
        # the feature branch's shape: the memory read twice, the node rows
        # an inner node shared by the k groups
        if with_memory:
            s = (ad.key_softmax if fused else unfused_key_softmax)(lv["a"], lv["mem"])
            mem = lv["mem"]
        else:
            s, mem = ad.tanh(lv["a"]), None
        op = ad.memory_readout if fused else unfused_memory_readout
        logits = op(s, mem, ad.tanh(lv["node"]), lv["scale"])
        return ad.add(ad.tsum(ad.mul(logits, w)), ad.tmean(ad.mul(lv["mem"], lv["mem"])))

    _assert_fused_exact(build, params)
