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
    PRIMITIVE_CATEGORIES,
    PRIMITIVE_NAMES,
    RouterFeatureTable,
    betweenness,
    closeness,
    compute_primitives,
    edge_avg_similarity,
    khop_similarity,
    pagerank,
    scope_expand,
)
from evofg.graph import EGO_RADIUS, Graph, gen_synthetic
from evofg.preprocess import align
from helpers import (
    brute_force_betweenness,
    brute_force_closeness,
    brute_force_distances,
    complete_graph,
    degenerate_graphs,
    cycle_graph,
    graph_from_edges,
    path_graph,
    random_graph,
    star_graph,
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


class TestScopeExpand:
    def test_all_equal_values(self):
        g = complete_graph(4)
        t, em, gm, er, gr = scope_expand(np.full(4, 2.5), g)
        assert np.allclose(em, 2.5) and np.allclose(gm, 2.5)
        assert np.allclose(er, 0.5) and np.allclose(gr, 0.5)

    def test_unique_max_global_rank_one(self):
        g = path_graph(5)
        vals = np.array([0.0, 1.0, 5.0, 1.0, 0.0])
        *_, gr = scope_expand(vals, g)
        assert gr[2] == 1.0

    def test_path3_betweenness_ego_rank(self):
        g = path_graph(3)
        _, _, _, er, _ = scope_expand(np.array([0.0, 1.0, 0.0]), g)
        assert er[1] == 1.0

    def test_rank_columns_bounded(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 15, p=0.2)
        vals = rng.normal(size=15)
        *_, er, gr = scope_expand(vals, g)
        assert (er >= 0).all() and (er <= 1).all()
        assert (gr >= 0).all() and (gr <= 1).all()


class TestSimilarities:
    def test_identical_rows_give_one(self):
        g = path_graph(4)
        x = np.tile([1.0, 2.0], (4, 1))
        assert np.allclose(khop_similarity(g, x, 1), 1.0)
        assert edge_avg_similarity(g, x) == pytest.approx(1.0)

    def test_orthogonal_edge(self):
        g = graph_from_edges(2, [(0, 1)])
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(khop_similarity(g, x, 1), 0.0)
        assert edge_avg_similarity(g, x) == pytest.approx(0.0)

    def test_empty_shell_convention(self):
        g = complete_graph(3)  # diameter 1: every k>=2 shell is empty
        x = np.ones((3, 2))
        assert np.allclose(khop_similarity(g, x, 5), 0.0)

    def test_two_edges_mean(self):
        g = path_graph(3)
        x = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert edge_avg_similarity(g, x) == pytest.approx(0.5)

    def test_edgeless_graph_flagged_zero(self, caplog):
        g = Graph(2, [], np.ones((2, 2)), None)
        with caplog.at_level("WARNING"):
            assert edge_avg_similarity(g, np.ones((2, 2))) == 0.0
        assert any("edgeless" in r.message for r in caplog.records)

    def test_zero_vector_cosine_is_zero(self):
        g = graph_from_edges(2, [(0, 1)])
        x = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert khop_similarity(g, x, 1)[1] == 0.0


class TestComputePrimitives:
    def test_canonical_23_columns(self):
        g = path_graph(5, d=3, seed=1)
        table = compute_primitives(g, g.features)
        assert table.names == list(PRIMITIVE_NAMES)
        assert len(table.names) == 23
        assert table.categories == list(PRIMITIVE_CATEGORIES)
        assert table.matrix.shape == (5, 23)
        assert np.isfinite(table.matrix).all()

    def test_triangle_identical_features(self):
        g = complete_graph(3, d=2, seed=2)
        x = np.tile([1.0, 1.0], (3, 1))
        t = compute_primitives(g, x)
        for name in ("Sim_edge_avg", "Sim_1hop"):
            assert np.allclose(t.column(name), 1.0)
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
    xtilde = align(g, 5).matrix  # wider than some of these graphs: zero-padded
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


def _sweep_cases():
    cases = degenerate_graphs(seed=5)
    for seed, n in ((1, 60), (2, 300), (3, 520)):
        g = gen_synthetic(n, 6, 0.08, structure_seed=seed, planted_kind="mixed")
        cases.append((f"synthetic_{n}", g))
    # two components of different depth, plus isolated nodes; 530 nodes
    # make three source blocks
    a = gen_synthetic(300, 6, 0.08, structure_seed=4, planted_kind="structural")
    b = gen_synthetic(220, 6, 0.08, structure_seed=5, planted_kind="attribute")
    edges = np.vstack([a.edges, b.edges + a.num_nodes])
    feats = np.vstack([a.features, b.features, np.ones((10, 6))])
    cases.append(("synthetic_disconnected", Graph(530, edges, feats, None, "split")))
    # a 24 x 25 grid: more than eight blocks of 64 sources (19 of 32), 47
    # levels deep, many shortest paths per pair and many tied scores
    rows, cols = 24, 25
    node = np.arange(rows * cols).reshape(rows, cols)
    grid = np.vstack([np.c_[node[:, :-1].ravel(), node[:, 1:].ravel()],
                      np.c_[node[:-1].ravel(), node[1:].ravel()]])
    feats = np.random.default_rng(6).normal(size=(rows * cols, 6))
    cases.append(("grid_600", Graph(rows * cols, grid, feats, None, "grid")))
    return cases


@pytest.mark.parametrize("case,g", _sweep_cases(), ids=[c for c, _ in _sweep_cases()])
def test_sweep_matches_two_pass_oracle(case, g, monkeypatch):
    """Every primitive column is bit-identical to the one built on separate
    Dijkstra distances and Brandes betweenness."""
    xtilde = align(g, 5).matrix
    fresh = Graph(g.num_nodes, g.edges, g.features, None, g.name)
    dist, bc = features._level_sweep(fresh)
    want_dist, want_bc = two_pass_sweep(fresh)
    assert dist.dtype == want_dist.dtype
    assert np.array_equal(dist, want_dist)
    assert np.array_equal(bc, want_bc)
    table = compute_primitives(fresh, xtilde)
    monkeypatch.setattr(features, "_level_sweep", two_pass_sweep)
    oracle = compute_primitives(Graph(g.num_nodes, g.edges, g.features, None, g.name), xtilde)
    for j, name in enumerate(PRIMITIVE_NAMES):
        assert np.array_equal(table.matrix[:, j], oracle.matrix[:, j]), name


def _fresh(g):
    return Graph(g.num_nodes, g.edges, g.features, None, g.name)


def _inline_sweep(g, monkeypatch):
    """``_level_sweep`` on the calling thread alone."""
    with monkeypatch.context() as m:
        m.setattr(features, "_sweep_helper", lambda: None)
        return features._level_sweep(_fresh(g))


@pytest.mark.parametrize("case,g", _sweep_cases(), ids=[c for c, _ in _sweep_cases()])
def test_sweep_with_helper_matches_calling_thread_alone(case, g, monkeypatch):
    dist, bc = features._level_sweep(_fresh(g))
    want_dist, want_bc = _inline_sweep(g, monkeypatch)
    assert np.array_equal(dist, want_dist)
    assert bc.tobytes() == want_bc.tobytes()


@pytest.mark.parametrize("failing", ["calling", "helper"])
def test_block_error_raised_after_helper_stops(failing, monkeypatch):
    if failing == "helper" and features._sweep_helper() is None:
        pytest.skip("one usable CPU: the sweep runs without a helper thread")
    g = _sweep_cases()[-1][1]
    size = features._sweep_block(g.num_nodes)
    blocks = len(features._row_blocks(g.num_nodes, size))
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
    assert np.array_equal(dist, want_dist)
    assert bc.tobytes() == want_bc.tobytes()


def test_concurrent_sweeps_share_the_helper(monkeypatch):
    """Three threads sweep at once, all through the one helper, with thread
    switches forced often; each result equals its single-thread sweep."""
    graphs = [g for _, g in _sweep_cases()[-5:]]
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
    g = _sweep_cases()[-1][1]
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
    compute_primitives(g, align(g, 5).matrix)
    betweenness(g)
    khop_similarity(g, g.features, 2)
    assert calls == [g]


class TestRouterFeatureTable:
    def make_table(self):
        g = path_graph(4, d=3, seed=5)
        return compute_primitives(g, g.features)

    def test_unique_names_enforced(self):
        with pytest.raises(ValueError):
            RouterFeatureTable(
                matrix=np.zeros((2, 2)),
                names=["a", "a"],
                categories=["Topology", "Topology"],
                provenance=["primitive"] * 2,
            )

    def test_standardized_active_zero_mean_unit_std(self):
        t = self.make_table()
        z = t.standardized_active()
        live = z.std(axis=0) > 0
        assert np.abs(z.mean(axis=0)).max() < 1e-12
        assert np.allclose(z.std(axis=0)[live], 1.0)

    def test_set_active_and_names(self):
        t = self.make_table().with_active(["PR_t", "Deg_t"])
        assert t.active_names() == ["PR_t", "Deg_t"]
        assert t.standardized_active().shape == (4, 2)

    def test_export_text(self, tmp_path):
        t = self.make_table()
        path = tmp_path / "table.tsv"
        t.export_text(str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0].split("\t") == list(PRIMITIVE_NAMES)
        assert len(lines) == 1 + 4
