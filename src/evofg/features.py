"""The 23 structural router-feature primitives and the node-by-feature table
they live in: PageRank/betweenness/closeness at target, ego-mean, global-mean,
ego-rank and global-rank scope, edge-average and 1..5-hop feature similarity,
degree, and ego-graph size.
"""

from __future__ import annotations

import logging
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .graph import EGO_RADIUS, Graph

log = logging.getLogger(__name__)

# rows per block of khop_similarity, whose float temporaries stay at
# _BLOCK x N; the shell sums are GEMMs, which may group their sums by row
# count, so a change of this size can move bits
_BLOCK = 256
# bytes of one N x block float64 array of the level sweep (see _sweep_block)
_SWEEP_BYTES = 128 * 1024

PAGERANK_DAMPING = 0.85
PAGERANK_TOL = 1e-10  # L1 change between iterates
PAGERANK_MAX_ITER = 200

CATEGORIES = ("PageRank", "Betweenness", "Closeness", "Similarity", "Topology")

_SCOPES = ("t", "ego_mean", "global_mean", "ego_rank", "global_rank")

PRIMITIVE_NAMES = (
    [f"PR_{s}" for s in _SCOPES]
    + [f"BC_{s}" for s in _SCOPES]
    + [f"CC_{s}" for s in _SCOPES]
    + ["Sim_edge_avg"]
    + [f"Sim_{k}hop" for k in range(1, 6)]
    + ["Deg_t", "Ego_size"]
)

PRIMITIVE_CATEGORIES = (
    ["PageRank"] * 5
    + ["Betweenness"] * 5
    + ["Closeness"] * 5
    + ["Similarity"] * 6
    + ["Topology"] * 2
)


def pagerank(g: Graph) -> np.ndarray:
    """Power iteration with uniform teleport; dangling mass is spread
    uniformly. Stops at L1 change < PAGERANK_TOL (or PAGERANK_MAX_ITER
    iterations). Sums to 1."""
    n = g.num_nodes
    if n == 1:
        return np.ones(1)
    deg = g.degrees.astype(np.float64)
    dangling = deg == 0
    inv_deg = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, deg))
    a = g.adjacency()
    p = np.full(n, 1.0 / n)
    for _ in range(PAGERANK_MAX_ITER):
        spread = a @ (p * inv_deg) + p[dangling].sum() / n
        p_new = (1.0 - PAGERANK_DAMPING) / n + PAGERANK_DAMPING * spread
        if np.abs(p_new - p).sum() < PAGERANK_TOL:
            p = p_new
            break
        p = p_new
    return p


def _row_blocks(n, size=_BLOCK):
    """Slices of at most ``size`` rows covering 0..n-1."""
    return [slice(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _sweep(g: Graph):
    """(hop distances, betweenness) from one ``_level_sweep``, cached on the
    graph."""
    if "sweep" not in g._ops:
        g._ops["sweep"] = _level_sweep(g)
    return g._ops["sweep"]


def _level_sweep(g: Graph):
    """All-pairs hop distances (N x N, -1 where unreachable, in the smallest
    signed integer type that holds them) and Brandes betweenness on
    unweighted shortest paths, endpoints excluded, normalized by
    (N-1)(N-2)/2 pairs.

    Level-synchronous linear-algebraic form (Brandes 2001, Kepner & Gilbert
    2011), one block of sources at a time: path counts and hop levels go
    forward by products with A, dependencies go back level by level. Every
    source's column is computed on its own, so neither the block size nor
    the thread that runs a block changes a bit of the result.
    """
    n = g.num_nodes
    a = g.adjacency()
    dist = np.empty((n, n), dtype=np.min_scalar_type(-n))
    blocks = _row_blocks(n, _sweep_block(n))
    # block index -> its dependencies, until they are added in; both threads
    # insert, only the calling thread (in add_done) removes
    done = {}
    score = np.zeros(n)
    added = 0

    def compute(i):
        done[i] = _block_dependencies(a, blocks[i], dist)

    def add_done():
        # a running total over sources in index order, so that tied scores
        # round alike and the rank columns keep their ties; a block is added
        # once every block before it is, and its dependencies are dropped
        nonlocal score, added
        while added in done:
            score = np.cumsum(np.vstack([score, done.pop(added).T]), axis=0)[-1]
            added += 1

    _share_blocks(compute, len(blocks), add_done)
    if n < 3:
        return dist, score
    # each unordered pair was counted from both endpoints
    return dist, score / ((n - 1) * (n - 2))


def _sweep_block(n):
    """Sources per block of the level sweep: as many as keep an N x block
    float array within _SWEEP_BYTES, from 32 to 64. Every source's column is
    computed on its own, so the size moves no bit. The helper thread's malloc
    arena keeps its largest block's temporaries after a sweep (about 1.2 MB
    at N = 650 with 32 sources, 2.4-2.7 MB with 64). On graphs of a few
    hundred nodes each block's Python work and hand-off between the threads
    weigh more than its arithmetic, so blocks of 64 sweep faster there."""
    return min(64, max(32, _SWEEP_BYTES // (8 * n)))


def _share_blocks(task, count, between):
    """Run ``task(i)`` for every i in range(count) on the calling thread and,
    on a machine with a second CPU, the sweep's helper thread; each claims
    the next index in turn. The calling thread also runs ``between()`` after
    each of its tasks and once at the end. An exception in either thread
    stops both from claiming more, and is raised here once the helper has
    stopped."""
    indices = iter(range(count))
    lock = threading.Lock()

    def claim_and_run(after):
        while True:
            with lock:
                i = next(indices, None)
            if i is None:
                return
            try:
                task(i)
                after()
            except BaseException:
                with lock:
                    for _ in indices:  # leave nothing for the other thread
                        pass
                raise

    helper = _sweep_helper()
    pending = None if helper is None else helper.submit(claim_and_run, lambda: None)
    # a helper that has not started (busy with another caller's sweep, or
    # not yet woken) is cancelled rather than waited for
    try:
        claim_and_run(between)
    except BaseException:
        if pending is not None and not pending.cancel():
            pending.exception()  # wait for the helper; this thread's error wins
        raise
    if pending is not None and not pending.cancel():
        pending.result()
    between()


_helper = None
_helper_lock = threading.Lock()


def _sweep_helper():
    """The one-thread executor that shares ``_level_sweep`` with the calling
    thread, started on first use; None with a single usable CPU. One helper,
    not more: each thread brings its own malloc arena, so every helper adds
    to the peak memory. (In a forked child the inherited executor has no
    thread; its task is cancelled and the calling thread sweeps alone.)"""
    global _helper
    with _helper_lock:
        if _helper is None and _usable_cpus() > 1:
            _helper = ThreadPoolExecutor(
                1, thread_name_prefix="evofg-sweep",
                initializer=_leave_cpu, initargs=(_current_cpu(),),
            )
        return _helper


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _current_cpu():
    """The CPU the calling thread runs on (field 39 of Linux's per-thread
    stat file), None where that is not known."""
    try:
        with open("/proc/thread-self/stat", "rb") as fh:
            return int(fh.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _leave_cpu(cpu):
    """Run once in the new helper thread: step off ``cpu``, the CPU of the
    thread that started it, then allow every CPU again. Linux may start the
    helper on its creator's CPU and, with the two threads handing the GIL
    back and forth, keep it there for about a second of sweeps, which then
    take as long as on one thread; once apart, each wakes where it last ran."""
    try:
        cpus = os.sched_getaffinity(0)
        if cpu in cpus:
            os.sched_setaffinity(0, cpus - {cpu})
            os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):  # no per-thread CPU affinity here
        pass


def _block_dependencies(a, rows, dist):
    """Fill ``dist[:, rows]`` and return the dependency of every node (rows)
    on each source in ``rows`` (columns)."""
    d, sigma, depth = _forward_levels(a, rows, dist.dtype)
    dist[:, rows] = d
    # sources sit at level 0 and never receive a dependency
    delta = np.zeros(d.shape)
    for k in range(depth, 1, -1):
        coeff = np.divide(1.0 + delta, sigma, out=np.zeros(d.shape), where=d == k)
        delta += np.where(d == k - 1, sigma * (a @ coeff), 0.0)
    return delta


def _forward_levels(a, rows, dtype):
    """Hop levels (-1 where unreachable), shortest-path counts and depth of
    the BFS from each source in ``rows``, one column per source. A times the
    frontier's path counts gives the path counts into each node; its nonzero
    entries at unvisited nodes are the next level."""
    n = a.shape[0]
    d = np.full((n, rows.stop - rows.start), -1, dtype=dtype)
    d[np.arange(rows.start, rows.stop), np.arange(d.shape[1])] = 0
    frontier = (d == 0).astype(np.float64)
    sigma = frontier.copy()
    depth = 0
    while True:
        reached = a @ frontier
        level = (reached != 0) & (d < 0)
        if not level.any():
            return d, sigma, depth
        depth += 1
        d[level] = depth
        np.copyto(reached, 0.0, where=~level)
        frontier = reached
        sigma += frontier


def _hop_distances(g: Graph) -> np.ndarray:
    return _sweep(g)[0]


def _ego_mask(dist):
    return (dist >= 0) & (dist <= EGO_RADIUS)


def betweenness(g: Graph) -> np.ndarray:
    """Brandes betweenness (see ``_level_sweep``)."""
    return _sweep(g)[1].copy()


def closeness(g: Graph) -> np.ndarray:
    """Component-size-scaled closeness: (|R|/(N-1)) * (|R| / sum of
    distances to R), with R the reachable set; isolated nodes get 0."""
    n = g.num_nodes
    if n == 1:
        return np.zeros(1)
    dist = _hop_distances(g)
    reach = dist > 0
    r = reach.sum(axis=1)
    total = dist.sum(axis=1, where=reach, dtype=np.int64)
    return (r / (n - 1)) * np.divide(r, total, out=np.zeros(n), where=r > 0)


def scope_expand(values: np.ndarray, g: Graph):
    """Expand a node statistic into the five scope columns
    (target, ego_mean, global_mean, ego_rank, global_rank)."""
    values = np.asarray(values, dtype=np.float64)
    n = g.num_nodes
    ego = _ego_mask(_hop_distances(g))
    size = ego.sum(axis=1)
    row = np.broadcast_to(values, ego.shape)
    ego_mean = row.sum(axis=1, where=ego) / size
    less = np.count_nonzero(ego & (row < values[:, None]), axis=1)
    ties = np.count_nonzero(ego & (row == values[:, None]), axis=1) - 1  # not v itself
    ego_rank = np.divide(less + 0.5 * ties, size - 1, out=np.full(n, 0.5), where=size > 1)
    global_mean = np.full(n, values.mean())
    sorted_vals = np.sort(values)
    left = np.searchsorted(sorted_vals, values, side="left")
    right = np.searchsorted(sorted_vals, values, side="right")
    if n > 1:
        global_rank = (left + 0.5 * (right - left - 1)) / (n - 1)
    else:
        global_rank = np.full(n, 0.5)
    return values.copy(), ego_mean, global_mean, ego_rank, global_rank


def _normalized_rows(x):
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return np.divide(x, norms, out=np.zeros_like(x), where=norms > 0)


def khop_similarity(g: Graph, xtilde: np.ndarray, k: int) -> np.ndarray:
    """Mean cosine similarity between each node and its exact-k-hop shell;
    empty shells and zero vectors contribute 0."""
    if not 1 <= k <= 5:
        raise ValueError("k must be in 1..5")
    if xtilde.shape[0] != g.num_nodes:
        raise ValueError("feature rows do not match the graph")
    xn = _normalized_rows(np.asarray(xtilde, dtype=np.float64))
    dist = _hop_distances(g)
    out = np.zeros(g.num_nodes)
    for rows in _row_blocks(g.num_nodes):
        shell = (dist[rows] == k).astype(np.float64)
        size = shell.sum(axis=1)
        sums = ((shell @ xn) * xn[rows]).sum(axis=1)
        np.divide(sums, size, out=out[rows], where=size > 0)
    return out


def edge_avg_similarity(g: Graph, xtilde: np.ndarray) -> float:
    """Mean cosine similarity across undirected edges; 0 on edgeless graphs."""
    if g.num_edges == 0:
        log.warning("%s: edgeless graph, edge-average similarity set to 0", g.name)
        return 0.0
    xn = _normalized_rows(np.asarray(xtilde, dtype=np.float64))
    return float((xn[g.edges[:, 0]] * xn[g.edges[:, 1]]).sum(axis=1).mean())


@dataclass(frozen=True)
class RouterFeatureTable:
    """Node-by-feature matrix with names, categories, an active mask, and
    per-column provenance ("primitive" or the expression that built it).

    A table is a value: ``with_column`` and ``with_active`` return a new
    table and leave this one as it was. Columns 0..22 are always the
    primitives in their fixed order; generated columns are appended and
    never removed (deselection only clears the active flag, so earlier
    expressions stay evaluable on new graphs).
    """

    matrix: np.ndarray
    names: list[str]
    categories: list[str]
    provenance: list = field(default_factory=list)
    active: np.ndarray = None

    def __post_init__(self):
        if self.active is None:
            object.__setattr__(self, "active", np.ones(len(self.names), dtype=bool))
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate column names")
        if self.matrix.shape[1] != len(self.names):
            raise ValueError("matrix width does not match names")

    def column(self, name):
        return self.matrix[:, self.names.index(name)]

    def has_column(self, name):
        return name in self.names

    def with_column(self, expr, values):
        """This table plus one active column, named and built by ``expr``."""
        if expr.name in self.names:
            raise ValueError(f"column {expr.name!r} already exists")
        return RouterFeatureTable(
            matrix=np.column_stack([self.matrix, np.asarray(values, np.float64)]),
            names=self.names + [expr.name],
            categories=self.categories + [expr.category],
            provenance=self.provenance + [expr],
            active=np.append(self.active, True),
        )

    def active_names(self):
        return [n for n, a in zip(self.names, self.active) if a]

    def with_active(self, kept_names):
        """This table with exactly the columns in ``kept_names`` active."""
        kept = set(kept_names)
        return replace(self, active=np.array([n in kept for n in self.names]))

    def active_by_category(self):
        out = {c: [] for c in CATEGORIES}
        for name, cat, act in zip(self.names, self.categories, self.active):
            if act:
                out[cat].append(name)
        return out

    def standardized_active(self) -> np.ndarray:
        """Active columns z-scored per column over nodes (constant columns
        become zeros); this is the router's input representation."""
        sub = self.matrix[:, self.active]
        mean = sub.mean(axis=0)
        std = sub.std(axis=0)
        return np.divide(sub - mean, std, out=np.zeros_like(sub), where=std > 0)

    def export_text(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\t".join(self.names) + "\n")
            for row in self.matrix:
                fh.write("\t".join("%.17g" % v for v in row) + "\n")


def compute_primitives(g: Graph, xtilde: np.ndarray) -> RouterFeatureTable:
    """Assemble the 23 primitive columns in their canonical order."""
    ego_size = np.count_nonzero(_ego_mask(_hop_distances(g)), axis=1)
    cols = []
    for stat in (pagerank(g), betweenness(g), closeness(g)):
        cols.extend(scope_expand(stat, g))
    cols.append(np.full(g.num_nodes, edge_avg_similarity(g, xtilde)))
    for k in range(1, 6):
        cols.append(khop_similarity(g, xtilde, k))
    cols.append(g.degrees.astype(np.float64))
    cols.append(ego_size.astype(np.float64))
    return RouterFeatureTable(
        matrix=np.column_stack(cols),
        names=list(PRIMITIVE_NAMES),
        categories=list(PRIMITIVE_CATEGORIES),
        provenance=["primitive"] * len(PRIMITIVE_NAMES),
    )
