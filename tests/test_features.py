import os
import select
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from evofg import features
from evofg.features import (
    CATEGORIES,
    PRIMITIVE_CATEGORIES,
    PRIMITIVE_NAMES,
    RouterFeatureTable,
    betweenness,
    closeness,
    compute_primitives,
    khop_similarity,
    pagerank,
    scope_expand,
)
from evofg.graph import EGO_RADIUS, Graph, gen_synthetic
from evofg.preprocess import align
from helpers import (
    acceptance_suite,
    brute_force_betweenness,
    brute_force_closeness,
    brute_force_distances,
    complete_graph,
    degenerate_graphs,
    cycle_graph,
    ego_mask,
    graph_from_edges,
    path_graph,
    per_call_scope_expand,
    random_graph,
    star_graph,
    sweep_cases,
    two_pass_sweep,
)

# star with damping 0.85: solve p0 = 0.0375 + 0.85*(1 - p0) analytically
STAR3_CENTER = 0.8875 / 1.85
STAR3_LEAF = (1.0 - STAR3_CENTER) / 3.0


class TestPageRank:
    def test_cycle_uniform(self):
        p = pagerank(cycle_graph(7))
        assert np.abs(p - 1.0 / 7).max() < 1e-9

    def test_disconnected_k2_pairs_uniform(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)])
        assert np.abs(pagerank(g) - 0.25).max() < 1e-9

    def test_star_fixed_point(self):
        p = pagerank(star_graph(3))
        assert p[0] == pytest.approx(STAR3_CENTER, abs=1e-9)
        assert np.allclose(p[1:], STAR3_LEAF, atol=1e-9)

    def test_sums_to_one_with_dangling(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(2, 40)), p=0.1)
            assert abs(pagerank(g).sum() - 1.0) < 1e-9

    def test_isolated_node_keeps_teleport_mass(self):
        g = Graph(3, [(0, 1)], np.zeros((3, 1)), None)
        p = pagerank(g)
        assert p[2] > 0


class TestBetweenness:
    def test_path_middle(self):
        assert betweenness(path_graph(3)).tolist() == [0.0, 1.0, 0.0]

    def test_complete_graph_zero(self):
        assert np.allclose(betweenness(complete_graph(4)), 0.0)

    def test_star_center(self):
        bc = betweenness(star_graph(4))
        assert bc[0] == pytest.approx(1.0)
        assert np.allclose(bc[1:], 0.0)

    def test_small_graphs_all_zero(self):
        assert np.allclose(betweenness(path_graph(2)), 0.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(8):
            g = random_graph(rng, int(rng.integers(4, 20)), p=0.3)
            assert np.abs(betweenness(g) - brute_force_betweenness(g)).max() < 1e-9


class TestCloseness:
    def test_complete_graph_ones(self):
        assert np.allclose(closeness(complete_graph(5)), 1.0)

    def test_path3(self):
        assert np.allclose(closeness(path_graph(3)), [2 / 3, 1.0, 2 / 3])

    def test_isolated_zero(self):
        g = Graph(3, [(0, 1)], np.zeros((3, 1)), None)
        assert closeness(g)[2] == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(8):
            g = random_graph(rng, int(rng.integers(4, 20)), p=0.25)
            assert np.abs(closeness(g) - brute_force_closeness(g)).max() < 1e-9


def _ego(g):
    return ego_mask(features._hop_distances(g))


class TestScopeExpand:
    def test_all_equal_values(self):
        g = complete_graph(4)
        t, em, er, gr = scope_expand(np.full(4, 2.5), _ego(g))
        assert np.allclose(t, 2.5) and np.allclose(em, 2.5)
        assert np.allclose(er, 0.5) and np.allclose(gr, 0.5)

    def test_unique_max_global_rank_one(self):
        g = path_graph(5)
        vals = np.array([0.0, 1.0, 5.0, 1.0, 0.0])
        *_, gr = scope_expand(vals, _ego(g))
        assert gr[2] == 1.0

    def test_path3_betweenness_ego_rank(self):
        g = path_graph(3)
        _, _, er, _ = scope_expand(np.array([0.0, 1.0, 0.0]), _ego(g))
        assert er[1] == 1.0

    def test_rank_columns_bounded(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 15, p=0.2)
        vals = rng.normal(size=15)
        *_, er, gr = scope_expand(vals, _ego(g))
        assert (er >= 0).all() and (er <= 1).all()
        assert (gr >= 0).all() and (gr <= 1).all()


@pytest.mark.parametrize("case,g", sweep_cases(), ids=[case for case, _ in sweep_cases()])
def test_one_ego_mask_gives_the_per_call_scope_columns(case, g):
    """The scope columns and ego sizes built on one ego mask per graph equal,
    bit for bit, those of a scope_expand that builds its own mask per call."""
    table = compute_primitives(g, align(g, 4))
    want = [col for stat in (pagerank(g), betweenness(g), closeness(g))
            for col in per_call_scope_expand(stat, g)]
    want.append(np.count_nonzero(ego_mask(features._hop_distances(g)), axis=1).astype(float))
    names = PRIMITIVE_NAMES[:12] + ["Ego_size"]
    assert [table.column(name).tobytes() for name in names] == [w.tobytes() for w in want]


class TestSimilarities:
    def test_identical_rows_give_one(self):
        g = path_graph(4)
        x = np.tile([1.0, 2.0], (4, 1))
        assert np.allclose(khop_similarity(g, x, 1), 1.0)

    def test_orthogonal_edge(self):
        g = graph_from_edges(2, [(0, 1)])
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(khop_similarity(g, x, 1), 0.0)

    def test_empty_shell_convention(self):
        g = complete_graph(3)  # diameter 1: every k>=2 shell is empty
        x = np.ones((3, 2))
        assert np.allclose(khop_similarity(g, x, 5), 0.0)

    def test_zero_vector_cosine_is_zero(self):
        g = graph_from_edges(2, [(0, 1)])
        x = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert khop_similarity(g, x, 1)[1] == 0.0


class TestComputePrimitives:
    def test_canonical_columns(self):
        g = path_graph(5, d=3, seed=1)
        table = compute_primitives(g, g.features)
        assert table.names == list(PRIMITIVE_NAMES)
        assert table.categories == list(PRIMITIVE_CATEGORIES)
        assert table.matrix.shape == (5, len(PRIMITIVE_NAMES))
        assert np.isfinite(table.matrix).all()

    def test_every_primitive_varies_on_some_graph(self):
        # a column constant on every graph standardizes to zeros everywhere
        # and feeds the router nothing
        graphs = [g for _, g in degenerate_graphs(seed=3)]
        graphs.append(gen_synthetic(60, 8, 0.1, structure_seed=4, planted_kind="mixed"))
        varies = np.zeros(len(PRIMITIVE_NAMES), dtype=bool)
        for g in graphs:
            table = compute_primitives(g, align(g, 5))
            varies |= table.standardized(PRIMITIVE_NAMES).any(axis=0)
        assert [n for n, v in zip(PRIMITIVE_NAMES, varies) if not v] == []

    def test_triangle_identical_features(self):
        g = complete_graph(3, d=2, seed=2)
        x = np.tile([1.0, 1.0], (3, 1))
        t = compute_primitives(g, x)
        assert np.allclose(t.column("Sim_1hop"), 1.0)
        for name in ("PR_ego_rank", "PR_global_rank"):
            assert np.allclose(t.column(name), 0.5)
        assert np.allclose(t.column("Deg_t"), 2.0)
        assert np.allclose(t.column("Ego_size"), 3.0)

    def test_isolated_node_conventions(self):
        g = Graph(3, [(0, 1)], np.ones((3, 2)), None)
        t = compute_primitives(g, g.features)
        assert t.column("PR_t")[2] > 0
        assert t.column("BC_t")[2] == 0.0
        assert t.column("CC_t")[2] == 0.0
        assert t.column("Sim_1hop")[2] == 0.0
        assert t.column("Deg_t")[2] == 0.0
        assert t.column("Ego_size")[2] == 1.0

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 12, p=0.3, d=4)
        perm = rng.permutation(12)
        remapped = [(int(perm[u]), int(perm[v])) for u, v in g.edges]
        g2 = Graph(12, remapped, g.features[np.argsort(perm)], None)
        t1 = compute_primitives(g, g.features)
        t2 = compute_primitives(g2, g2.features)
        # row for node v in g corresponds to row perm[v] in g2
        assert np.allclose(t1.matrix, t2.matrix[perm], atol=1e-9)


@pytest.mark.parametrize("case,g", degenerate_graphs(seed=3),
                         ids=[case for case, _ in degenerate_graphs(seed=3)])
def test_degenerate_graph_primitives_match_oracles(case, g):
    xtilde = align(g, 5)  # wider than some of these graphs: zero-padded
    t = compute_primitives(g, xtilde)
    assert np.isfinite(t.matrix).all()
    assert np.abs(t.column("BC_t") - brute_force_betweenness(g)).max() < 1e-9
    assert np.abs(t.column("CC_t") - brute_force_closeness(g)).max() < 1e-9
    dist = brute_force_distances(g)
    assert np.array_equal(t.column("Ego_size"), (dist <= EGO_RADIUS).sum(axis=1))
    norms = np.linalg.norm(xtilde, axis=1, keepdims=True)
    xn = np.divide(xtilde, norms, out=np.zeros_like(xtilde), where=norms > 0)
    sim = xn @ xn.T
    for k in range(1, 6):
        shell = dist == k
        size = shell.sum(axis=1)
        want = np.divide((sim * shell).sum(axis=1), size, out=np.zeros(g.num_nodes),
                         where=size > 0)
        assert np.abs(t.column(f"Sim_{k}hop") - want).max() < 1e-9


@pytest.mark.parametrize("case,g", sweep_cases(), ids=[c for c, _ in sweep_cases()])
def test_sweep_matches_two_pass_oracle(case, g, monkeypatch):
    """Every primitive column is bit-identical to the one built on separate
    Dijkstra distances and Brandes betweenness."""
    xtilde = align(g, 5)
    fresh = Graph(g.num_nodes, g.edges, g.features, None, g.name)
    dist, bc = features._level_sweep(fresh)
    want_dist, want_bc = two_pass_sweep(fresh)
    assert dist.dtype == want_dist.dtype
    assert dist.tobytes() == want_dist.tobytes()
    assert bc.tobytes() == want_bc.tobytes()
    table = compute_primitives(fresh, xtilde)
    monkeypatch.setattr(features, "_level_sweep", two_pass_sweep)
    oracle = compute_primitives(Graph(g.num_nodes, g.edges, g.features, None, g.name), xtilde)
    for j, name in enumerate(PRIMITIVE_NAMES):
        assert table.matrix[:, j].tobytes() == oracle.matrix[:, j].tobytes(), name


def _fresh(g):
    return Graph(g.num_nodes, g.edges, g.features, None, g.name)


def _inline_sweep(g, monkeypatch):
    """``_level_sweep`` on the calling thread alone."""
    with monkeypatch.context() as m:
        m.setattr(features, "_sweep_helper", lambda: None)
        return features._level_sweep(_fresh(g))


def _helper_cases():
    """``sweep_cases`` plus the four acceptance-suite graphs (320-400 nodes)."""
    train, test = acceptance_suite()
    return sweep_cases() + [(g.name, g) for g in train + test]


@pytest.mark.parametrize("case,g", _helper_cases(), ids=[c for c, _ in _helper_cases()])
def test_sweep_with_helper_matches_calling_thread_alone(case, g, monkeypatch):
    """The sweep and every primitive column (the columns are shared from
    N > 256 on) are byte-identical with the helper and without it."""
    dist, bc = features._level_sweep(_fresh(g))
    want_dist, want_bc = _inline_sweep(g, monkeypatch)
    assert dist.dtype == want_dist.dtype
    assert dist.tobytes() == want_dist.tobytes()
    assert bc.tobytes() == want_bc.tobytes()
    xtilde = align(g, 5)
    table = compute_primitives(_fresh(g), xtilde)
    with monkeypatch.context() as m:
        m.setattr(features, "_sweep_helper", lambda: None)
        want = compute_primitives(_fresh(g), xtilde)
    for j, name in enumerate(PRIMITIVE_NAMES):
        assert table.matrix[:, j].tobytes() == want.matrix[:, j].tobytes(), name


@pytest.mark.parametrize("case,g", sweep_cases(), ids=[c for c, _ in sweep_cases()])
def test_sweep_bits_do_not_depend_on_block_size(case, g, monkeypatch):
    n = g.num_nodes
    results = []
    for size in (32, 64, features._sweep_block(n), n):
        monkeypatch.setattr(features, "_sweep_block", lambda _n, size=size: size)
        results.append(features._level_sweep(_fresh(g)))
    (dist, bc), rest = results[0], results[1:]
    for other_dist, other_bc in rest:
        assert other_dist.dtype == dist.dtype
        assert other_dist.tobytes() == dist.tobytes()
        assert other_bc.tobytes() == bc.tobytes()


def test_sweep_block_bounds():
    sizes = np.array([features._sweep_block(n) for n in range(1, 10**5 + 1)])
    assert sizes.min() == 32 and sizes.max() == 128
    assert (np.diff(sizes) <= 0).all()  # no wider block for a larger graph


def test_one_block_sweep_stays_on_the_calling_thread(monkeypatch):
    def no_helper():
        raise AssertionError("a one-block sweep asked for the helper")

    monkeypatch.setattr(features, "_sweep_helper", no_helper)
    for n in (60, 128):  # 128 nodes: the largest graph of one block
        g = gen_synthetic(n, 6, 0.08, structure_seed=1, planted_kind="mixed")
        assert len(features._row_blocks(n, features._sweep_block(n))) == 1
        dist, bc = features._level_sweep(_fresh(g))
        want_dist, want_bc = two_pass_sweep(_fresh(g))
        assert np.array_equal(dist, want_dist)
        assert bc.tobytes() == want_bc.tobytes()


@pytest.mark.parametrize("n", [60, 150, 256])
def test_graph_within_one_column_block_shares_only_its_sweep(n, monkeypatch):
    """At N <= 256 the columns are built on the calling thread: past the
    sweep (of two blocks from N = 129 on) the helper is never asked for."""
    assert not features.sharing_pays(n) and features.sharing_pays(257)
    g = gen_synthetic(n, 6, 0.08, structure_seed=1, planted_kind="mixed")
    xtilde = align(g, 5)
    want = compute_primitives(_fresh(g), xtilde)
    fresh = _fresh(g)
    features._sweep(fresh)

    def no_helper():
        raise AssertionError("columns at N <= 256 asked for the helper")

    monkeypatch.setattr(features, "_sweep_helper", no_helper)
    table = compute_primitives(fresh, xtilde)
    assert table.matrix.tobytes() == want.matrix.tobytes()


@pytest.mark.parametrize("failing", ["calling", "helper"])
def test_column_error_raised_after_helper_stops(failing, monkeypatch):
    """A column that fails stops both threads from claiming more tasks, and
    its error is raised once the other thread's columns have ended."""
    if failing == "helper" and features._sweep_helper() is None:
        pytest.skip("one usable CPU: the columns are built without a helper thread")
    g = _fresh(sweep_cases()[-1][1])
    xtilde = align(g, 5)
    features._sweep(g)
    caller = threading.current_thread()
    running, started = [], []

    def flaky(real):
        def column(*args):
            failing_thread = (threading.current_thread() is caller) == (failing == "calling")
            own = [t for t in started if t is threading.current_thread()]
            started.append(threading.current_thread())
            running.append(column)
            try:
                if not failing_thread:
                    time.sleep(0.02)  # still busy when the other thread fails
                elif own:  # the failing thread fails from its second column on
                    raise RuntimeError("column failed")
                return real(*args)
            finally:
                running.remove(column)
        return column

    monkeypatch.setattr(features, "scope_expand", flaky(features.scope_expand))
    monkeypatch.setattr(features, "khop_similarity", flaky(features.khop_similarity))
    with pytest.raises(RuntimeError, match="column failed"):
        compute_primitives(g, xtilde)
    assert running == []  # the helper had stopped
    claimed = len(started)
    time.sleep(0.05)
    assert len(started) == claimed < 8  # and builds no more columns
    monkeypatch.undo()
    table = compute_primitives(g, xtilde)
    with monkeypatch.context() as m:
        m.setattr(features, "_sweep_helper", lambda: None)
        want = compute_primitives(_fresh(g), xtilde)
    assert table.matrix.tobytes() == want.matrix.tobytes()


@pytest.mark.parametrize("failing", ["calling", "helper"])
def test_block_error_raised_after_helper_stops(failing, monkeypatch):
    if failing == "helper" and features._sweep_helper() is None:
        pytest.skip("one usable CPU: the sweep runs without a helper thread")
    g = sweep_cases()[-1][1]
    size = features._sweep_block(g.num_nodes)
    blocks = len(features._row_blocks(g.num_nodes, size))
    # the failing thread fails from the third block on
    assert blocks >= 3, f"{g.name}: {blocks} sweep blocks, this test needs 3 or more"
    caller = threading.current_thread()
    real = features._block_dependencies
    running, started = [], []

    def flaky(a, rows, dist):
        failing_thread = (threading.current_thread() is caller) == (failing == "calling")
        started.append(rows.start)
        running.append(rows.start)
        try:
            if not failing_thread:
                time.sleep(0.02)  # still busy when the other thread fails
            elif rows.start >= 2 * size:
                raise RuntimeError(f"block {rows.start} failed")
            return real(a, rows, dist)
        finally:
            running.remove(rows.start)

    monkeypatch.setattr(features, "_block_dependencies", flaky)
    with pytest.raises(RuntimeError, match="failed"):
        features._level_sweep(_fresh(g))
    assert running == []  # the helper had stopped
    claimed = len(started)
    time.sleep(0.05)
    assert len(started) == claimed < blocks  # and claims no more blocks
    monkeypatch.setattr(features, "_block_dependencies", real)
    dist, bc = features._level_sweep(_fresh(g))
    want_dist, want_bc = _inline_sweep(g, monkeypatch)
    assert dist.dtype == want_dist.dtype
    assert dist.tobytes() == want_dist.tobytes()
    assert bc.tobytes() == want_bc.tobytes()


def test_concurrent_sweeps_share_the_helper(monkeypatch):
    """Three threads sweep at once, all through the one helper, with thread
    switches forced often; each result equals its single-thread sweep."""
    graphs = [g for _, g in sweep_cases()[-5:]]
    want = [_inline_sweep(g, monkeypatch) for g in graphs]
    got = {}

    def sweep_all(t):
        for j, g in enumerate(graphs):
            got[t, j] = features._level_sweep(_fresh(g))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=sweep_all, args=(t,)) for t in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 3 * len(graphs)
    for (t, j), (dist, bc) in got.items():
        assert np.array_equal(dist, want[j][0])
        assert bc.tobytes() == want[j][1].tobytes()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_new_helper_steps_off_its_creators_cpu_once(monkeypatch):
    """The helper's start-up moves it off the CPU of the thread that created
    it and then gives it back every CPU that thread may use."""
    cpus = os.sched_getaffinity(0)
    cpu = features._current_cpu()
    if cpu is None or len(cpus) < 2:
        pytest.skip("the current CPU is not known, or there is only one")
    assert cpu in cpus
    real = os.sched_setaffinity
    calls = []

    def recording(pid, mask):
        calls.append((pid, set(mask)))
        real(pid, mask)

    monkeypatch.setattr(os, "sched_setaffinity", recording)
    after = []

    def start():
        features._leave_cpu(cpu)
        after.append(os.sched_getaffinity(0))

    t = threading.Thread(target=start)
    t.start()
    t.join()
    assert calls == [(0, cpus - {cpu}), (0, cpus)]
    assert after == [cpus] and os.sched_getaffinity(0) == cpus


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_sweep_in_forked_child():
    """A child forked after the helper started inherits an executor without
    a thread; its sweep still finishes, on the calling thread, bit for bit."""
    g = sweep_cases()[-1][1]
    want_dist, want_bc = features._level_sweep(_fresh(g))
    read_end, write_end = os.pipe()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # forking with threads
        pid = os.fork()
    if pid == 0:
        status = 1
        try:
            dist, bc = features._level_sweep(_fresh(g))
            status = 0 if np.array_equal(dist, want_dist) and bc.tobytes() == want_bc.tobytes() else 2
        finally:
            os.write(write_end, bytes([status]))
            os._exit(0)
    os.close(write_end)
    ready, _, _ = select.select([read_end], [], [], 60)
    answer = os.read(read_end, 1) if ready else b""
    os.close(read_end)
    if not ready:
        os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    assert answer == bytes([0])


def test_one_sweep_per_graph(monkeypatch):
    calls = []
    real = features._level_sweep

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(features, "_level_sweep", counted)
    g = gen_synthetic(300, 6, 0.08, structure_seed=1, planted_kind="mixed")
    compute_primitives(g, align(g, 5))
    betweenness(g)
    khop_similarity(g, g.features, 2)
    assert calls == [g]


class TestRouterFeatureTable:
    def make_table(self):
        g = path_graph(4, d=3, seed=5)
        return compute_primitives(g, g.features)

    def test_unique_names_enforced(self):
        with pytest.raises(ValueError, match="column 'a' already exists"):
            RouterFeatureTable(
                matrix=np.zeros((2, 3)),
                names=["a", "b", "a"],
                categories=["Topology"] * 3,
            )

    def test_standardized_active_zero_mean_unit_std(self):
        t = self.make_table()
        z = t.standardized(t.names)
        live = z.std(axis=0) > 0
        assert np.abs(z.mean(axis=0)).max() < 1e-12
        assert np.allclose(z.std(axis=0)[live], 1.0)

    @pytest.mark.parametrize("value", [0.1, 0.7])
    def test_constant_column_standardizes_to_zeros(self, value):
        # a float constant whose computed mean is off by an ulp has a std of
        # about 1e-17; its z-scores would be +-1, with a sign set by rounding
        n = 7
        matrix = np.column_stack([np.full(n, value), np.arange(n, dtype=float)])
        t = RouterFeatureTable(matrix, ["c", "x"], ["Topology"] * 2)
        z = t.standardized(t.names)
        assert z[:, 0].tobytes() == np.zeros(n).tobytes()
        assert np.allclose(z[:, 1].std(), 1.0)

    def test_primitives_constant_per_graph_standardize_to_zeros(self):
        # on a connected graph of diameter at most EGO_RADIUS every ego graph
        # is the whole graph: Ego_size is N and each ego mean is the mean
        g = gen_synthetic(60, 8, 0.1, structure_seed=2, planted_kind="mixed")
        assert brute_force_distances(g).max() <= EGO_RADIUS
        t = compute_primitives(g, g.features)
        constant = [n for n in t.names if np.unique(t.column(n)).size == 1]
        assert constant == ["PR_ego_mean", "BC_ego_mean", "CC_ego_mean", "Ego_size"]
        z = t.standardized(t.names)
        assert z.any(axis=0).tolist() == [n not in constant for n in t.names]

    def test_set_active_and_names(self):
        """``standardized`` and ``by_category`` read the given columns in the
        order of their names."""
        t = self.make_table()
        assert t.standardized(["PR_t", "Deg_t"]).shape == (4, 2)
        names = ["Deg_t", "Sim_2hop", "PR_t", "Sim_1hop", "PR_ego_rank"]
        z = t.standardized(names)
        whole = t.standardized(t.names)
        assert z.tobytes() == whole[:, [t.names.index(n) for n in names]].tobytes()
        assert t.by_category(names) == {
            "PageRank": ["PR_t", "PR_ego_rank"], "Betweenness": [], "Closeness": [],
            "Similarity": ["Sim_2hop", "Sim_1hop"], "Topology": ["Deg_t"]}
        assert list(t.by_category(names)) == list(CATEGORIES)

    @pytest.mark.parametrize("read", ["standardized", "by_category"])
    def test_an_unknown_name_is_refused_by_name(self, read):
        t = self.make_table()
        with pytest.raises(ValueError, match="'ghost'"):
            getattr(t, read)(["PR_t", "ghost"])

    def test_export_text(self, tmp_path):
        t = self.make_table()
        path = tmp_path / "table.tsv"
        t.export_text(str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0].split("\t") == list(PRIMITIVE_NAMES)
        assert len(lines) == 1 + 4
