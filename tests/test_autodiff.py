import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from evofg import autodiff as ad
from evofg import experts
from evofg.graph import Graph
from helpers import (
    degenerate_graphs,
    fd_adapters,
    finite_diff_check,
    mix_rows,
    random_graph,
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
    src = np.array([2, 0, 1, 1, 2])  # unsorted, repeated sources
    indptr = np.array([0, 2, 3, 5])
    edges = (src, np.repeat(np.arange(3), np.diff(indptr)), indptr)
    idx = np.array([0, 2])
    params = {"w": rng.normal(size=(3, 3)), "a": rng.normal(size=3), "b": rng.normal(size=3)}
    x = rng.normal(size=(3, 3))

    def build(lv):
        h = ad.spmm(s, ad.matmul(ad.wrap(x), lv["w"]))
        rows = ad.gather_rows(h, idx)
        mixed = ad.edge_attention(h, lv["a"], lv["b"], edges, 0.2)
        sums = ad.tsum(rows, axis=1)
        lo = ad.index_scalar(sums, int(np.argmin(sums.value)))
        return ad.add(ad.tmean(ad.mul(mixed, mixed)), ad.mul(lo, 0.3))

    loss_fn, grad_fn, vec = fd_adapters(build, params)
    rep = finite_diff_check(loss_fn, grad_fn, vec)
    assert rep.max_rel_err < 1e-6


def test_gather_rows_refuses_indices_that_are_not_strictly_increasing():
    a = ad.param(np.arange(12.0).reshape(4, 3))
    for idx in ([0, 2, 2], [3, 1], [1, 0, 2]):
        with pytest.raises(ValueError, match="strictly increasing"):
            ad.gather_rows(a, np.array(idx))
    ad.tsum(ad.gather_rows(a, np.array([0, 3]))).backward()
    assert np.array_equal(a.grad, [[1, 1, 1], [0, 0, 0], [0, 0, 0], [1, 1, 1]])


def _edge_patterns(rng):
    """(src, dst, indptr): ATTENTION's patterns of random graphs with
    isolated nodes and of edgeless graphs, then square patterns whose rows
    hold unsorted, repeated sources, some rows none."""
    for n in (1, 7, 30):
        for edges in ([], [(u, v) for u in range(n // 2) for v in range(u)
                           if rng.random() < 0.4]):
            g = Graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2),
                      np.zeros((n, 1)), None)
            yield experts._attention_edges(g)
    for _ in range(20):
        n = int(rng.integers(1, 30))
        counts = rng.integers(0, 12, size=n)
        yield (rng.integers(0, n, size=counts.sum()), np.repeat(np.arange(n), counts),
               np.concatenate(([0], np.cumsum(counts))))


def test_edge_attention_sums_in_edge_order_bit_for_bit():
    """``edge_attention`` and its gradients are the ``np.add.at`` sums of
    the chain it replaces (gathered logits, leaky ReLU, segment softmax,
    weighted neighbour sum), each added in edge order, bit for bit; z's
    gradient sums the neighbour sum's part first, then the two logit parts."""
    rng = np.random.default_rng(7)
    for src, dst, indptr in _edge_patterns(rng):
        n = len(indptr) - 1
        z = ad.param(rng.normal(size=(n, 4)) * 10.0 ** rng.integers(-8, 9, size=(n, 1)))
        a_self, a_nbr = (ad.param(rng.normal(size=4) / np.abs(z.value).max())
                         for _ in range(2))
        up = rng.normal(size=(n, 4))
        out = ad.edge_attention(z, a_self, a_nbr, (src, dst, indptr), 0.2)
        ad.tsum(ad.mul(out, up)).backward()

        pre = (z.value @ a_self.value)[dst] + (z.value @ a_nbr.value)[src]
        logits = np.where(pre > 0, pre, 0.2 * pre)
        mx = np.full(n, -np.inf)
        np.maximum.at(mx, dst, logits)
        e = np.exp(logits - mx[dst])
        tot = np.zeros(n)
        np.add.at(tot, dst, e)
        alpha = e / tot[dst]
        want = np.zeros((n, 4))
        np.add.at(want, dst, alpha[:, None] * z.value[src])
        assert np.array_equal(out.value, want)

        g_alpha = (up[dst] * z.value[src]).sum(axis=1)
        t = np.zeros(n)
        np.add.at(t, dst, g_alpha * alpha)
        g_pre = alpha * (g_alpha - t[dst]) * np.where(pre > 0, 1.0, 0.2)
        g_self, g_nbr, want_z = np.zeros(n), np.zeros(n), np.zeros((n, 4))
        np.add.at(g_self, dst, g_pre)
        np.add.at(g_nbr, src, g_pre)
        np.add.at(want_z, src, alpha[:, None] * up[dst])
        want_z = want_z + np.outer(g_self, a_self.value) + np.outer(g_nbr, a_nbr.value)
        assert np.array_equal(z.grad, want_z)
        assert np.array_equal(a_self.grad, z.value.T @ g_self)
        assert np.array_equal(a_nbr.grad, z.value.T @ g_nbr)


@pytest.mark.parametrize("case", ["random", "isolated_nodes", "edgeless"])
def test_edge_attention_gradient(case):
    rng = np.random.default_rng(8)
    graphs = dict(degenerate_graphs(seed=8, d=3), random=random_graph(rng, 12, p=0.3, d=3))
    g = graphs[case]
    params = {"w": rng.normal(size=(3, 4)), "a": rng.normal(size=4), "b": rng.normal(size=4)}

    def build(lv):
        z = ad.matmul(ad.wrap(g.features), lv["w"])
        h = ad.tanh(ad.edge_attention(z, lv["a"], lv["b"], experts._attention_edges(g), 0.2))
        return ad.tmean(ad.mul(h, h))

    rep = finite_diff_check(*fd_adapters(build, params))
    assert rep.max_rel_err < 1e-6


def test_log_softmax_softplus_gradient():
    rng = np.random.default_rng(2)
    params = {"w": rng.normal(size=(5, 4)), "v": rng.normal(size=(4, 1))}
    x = rng.normal(size=(7, 5))

    def build(lv):
        logits = ad.matmul(ad.wrap(x), lv["w"])
        lsm = ad.row_log_softmax(logits)
        gate = ad.softplus(ad.matmul(logits, lv["v"]))
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


def test_weighted_sum_matches_the_scalar_chain_and_fd():
    """``weighted_sum`` is GPR's chain sum_t w[t] * stack[t] of scalar
    indexing, in one op: the same values and gradients to rel 1e-12, and
    central differences agree."""
    rng = np.random.default_rng(4)
    stack = rng.normal(size=(5, 6, 3))
    params = {"w": rng.normal(size=5), "v": rng.normal(size=(3, 2))}

    def build(lv, fold=True):
        if fold:
            acc = ad.weighted_sum(lv["w"], stack)
        else:
            acc = ad.mul(stack[0], ad.index_scalar(lv["w"], 0))
            for t in range(1, len(stack)):
                acc = ad.add(acc, ad.mul(stack[t], ad.index_scalar(lv["w"], t)))
        h = ad.tanh(ad.matmul(acc, lv["v"]))
        return ad.tmean(ad.mul(h, h))

    runs = []
    for fold in (True, False):
        lv = ad.leaves(params)
        loss = build(lv, fold)
        loss.backward()
        runs.append((float(loss.value), ad.grads(lv)))
    (value, grads), (value_ref, grads_ref) = runs
    assert value == pytest.approx(value_ref, rel=1e-12)
    for name, g_ref in grads_ref.items():
        assert np.abs(grads[name] - g_ref).max() <= 1e-12 * np.abs(g_ref).max(), name
    rep = finite_diff_check(*fd_adapters(build, params))
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


def _quadratic_losses(nan_at=None):
    """Per-epoch losses of a quadratic in ``w``; NaN at epoch ``nan_at``."""
    epoch = []

    def losses(lv, ws):
        epoch.append(len(epoch))
        loss = ad.tmean(ad.mul(lv["w"], lv["w"]))
        return [ad.mul(loss, np.nan) if epoch[-1] == nan_at else loss, loss]

    return losses


def test_fit_steps_once_per_epoch_on_the_mean_loss():
    params = {"w": np.array([3.0, -2.0])}
    trace = ad.fit(params, 200, _quadratic_losses(), 0.1, 0.0, "probe")
    assert len(trace) == 200 and trace[0] == 6.5
    assert np.abs(params["w"]).max() < 0.05


def test_fit_holds_one_epoch_of_tape_at_a_time():
    """When epoch k + 1's losses are entered, every array epoch k's call put
    on the tape is already dead: ``fit`` drops an epoch's tape once its step
    is taken, not when the next one is built."""
    params = {"w": np.array([3.0, -2.0])}
    built, alive = [], []

    def losses(lv, ws=None):
        alive.append([ref() is not None for ref in built])
        h = ad.tanh(ad.mul(lv["w"], 2.0))
        built[:] = [weakref.ref(h.value), weakref.ref(lv["w"].value)]
        loss = ad.tmean(ad.mul(h, h))
        built.append(weakref.ref(loss.value))
        return [loss]

    ad.fit(params, 4, losses, 0.1, 0.0, "probe")
    # the leaf wraps params["w"] itself, which lives on
    assert alive == [[]] + [[False, True, False]] * 3


def test_fit_lends_every_epoch_the_same_workspace_arrays():
    params = {"w": np.array([3.0, -2.0])}
    lent = []

    def losses(lv, ws):
        lent.append((ws, ws.empty((4, 3)), ws.empty((4, 3)), ws.empty((2,))))
        return [ad.tmean(ad.mul(lv["w"], lv["w"]))]

    ad.fit(params, 3, losses, 0.1, 0.0, "probe")
    ids = [{id(a) for a in epoch} for epoch in lent]
    assert len(ids[0]) == 4  # one workspace, three distinct arrays
    assert ids[1] == ids[0] and ids[2] == ids[0]
    ad.fit(params, 1, losses, 0.1, 0.0, "probe")
    assert lent[-1][0] is not lent[0][0]  # each call owns its workspace


def test_workspace_scratch_is_one_buffer_for_every_shape():
    ws = ad.Workspace()
    big = ws.scratch((3, 4))
    small = ws.scratch((2, 5))
    assert small.shape == (2, 5) and small.flags.c_contiguous
    assert np.shares_memory(big, small)
    assert not np.shares_memory(ws.scratch((4, 4)), big)  # grown


def test_fit_raises_before_the_step_of_a_non_finite_epoch():
    params = {"w": np.array([3.0, -2.0])}
    with pytest.raises(ad.TrainingDivergedError) as err:
        ad.fit(params, 5, _quadratic_losses(nan_at=2), 0.1, 1e-2, "probe")
    reference = {"w": np.array([3.0, -2.0])}
    trace = ad.fit(reference, 2, _quadratic_losses(), 0.1, 1e-2, "probe")
    assert str(err.value) == f"probe: non-finite loss at epoch 2 (trace={trace})"
    assert params["w"].tobytes() == reference["w"].tobytes()


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
    h = ad.tanh(unfused_affine(x, lv["w"], lv["b"]))
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


def test_key_softmax_matches_the_chain_it_replaces():
    rng = np.random.default_rng(13)
    w = rng.normal(size=(8, 6))
    params = {"a": rng.normal(size=(8, 3)), "keys": rng.normal(size=(6, 3))}

    def build(lv, fused):
        op = ad.key_softmax if fused else unfused_key_softmax
        return ad.tsum(ad.mul(op(ad.tanh(lv["a"]), lv["keys"]), w))

    _assert_fused_exact(build, params)


def test_readout_table_and_table_readout_match_their_sums():
    rng = np.random.default_rng(14)
    r, e, m, d, k = 5, 3, 4, 6, 3
    node, scale, rows = (rng.normal(size=s) for s in ((r, d), (e, d), (m, d)))
    table = ad.readout_table(node, scale, rows).value
    assert np.allclose(table, np.einsum("rd,ed,md->rem", node, scale, rows),
                       rtol=1e-13, atol=0)
    att = rng.normal(size=(k * r, m))
    want = np.stack([att[j * r + i] @ table[i].T for j in range(k) for i in range(r)])
    assert np.allclose(ad.table_readout(att, table).value, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("with_memory", [True, False])
@pytest.mark.parametrize("m", [1, 4])
def test_folded_readout_matches_the_unfolded_chain(k, with_memory, m):
    """append_row, readout_table and table_readout in the router's shape
    against the chain they fold: features projected by an affine map, their
    attention over m memories (or, without memory, the projection itself)
    read back and multiplied by the node rows, which the k groups share,
    then met by the scale vectors. Values and every leaf gradient agree to
    rel 1e-12 (the fold sums in another order), and the fold passes a
    finite-difference check at 1e-5: its central differences carry about
    1e-6 of rounding noise on the smallest gradient entries."""
    rng = np.random.default_rng(15)
    r, f, d, e = 5, 3, 4, 2
    hr = rng.normal(size=(k * r, f))
    w = rng.normal(size=(k * r, e))
    params = {
        "proj_w": rng.normal(size=(f, d)),
        "proj_b": rng.normal(size=d),
        "mem": rng.normal(size=(m, d)),
        "node": rng.normal(size=(r, d)),
        "scale": rng.normal(size=(e, d)),
    }

    def build(lv, folded):
        node = ad.tanh(lv["node"])  # an inner node, as the node branch's
        if folded:
            proj = ad.append_row(lv["proj_w"], lv["proj_b"])
            hr1 = np.column_stack([hr, np.ones(k * r)])
            if with_memory:
                att = ad.key_softmax(hr1, ad.matmul(lv["mem"], ad.transpose(proj)))
                rows = lv["mem"]
            else:
                att, rows = hr1, proj
            logits = ad.table_readout(att, ad.readout_table(node, lv["scale"], rows))
        else:
            hr_q = unfused_affine(hr, lv["proj_w"], lv["proj_b"])
            if with_memory:
                s, mem = unfused_key_softmax(hr_q, lv["mem"]), lv["mem"]
            else:
                s, mem = hr_q, None
            logits = unfused_memory_readout(s, mem, node, lv["scale"])
        return ad.add(ad.tsum(ad.mul(logits, w)), ad.tmean(ad.mul(lv["mem"], lv["mem"])))

    (v_f, g_f), (v_u, g_u) = _fused_and_unfused(build, params)
    assert v_f == pytest.approx(v_u, rel=1e-12)
    for name, g in g_u.items():
        assert np.abs(g_f[name] - g).max() <= 1e-12 * np.abs(g).max(), name
    loss_fn, grad_fn, vec = fd_adapters(lambda lv: build(lv, True), params)
    assert finite_diff_check(loss_fn, grad_fn, vec).max_rel_err < 1e-5
