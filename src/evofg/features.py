"""The 19 structural router-feature primitives and the node-by-feature table
they live in: PageRank/betweenness/closeness at target, ego-mean, ego-rank
and global-rank scope, 1..5-hop feature similarity, degree, and ego-graph
size.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .graph import EGO_RADIUS, Graph

# rows per block of khop_similarity, whose float temporaries stay at
# _BLOCK x N; the shell sums are GEMMs, which may group their sums by row
# count, so a change of this size can move bits
_BLOCK = 256
# bytes of one N x block float64 array of the level sweep (see _sweep_block)
_SWEEP_BYTES = 512 * 1024

PAGERANK_DAMPING = 0.85
PAGERANK_TOL = 1e-10  # L1 change between iterates
PAGERANK_MAX_ITER = 200

CATEGORIES = ("PageRank", "Betweenness", "Closeness", "Similarity", "Topology")

_SCOPES = ("t", "ego_mean", "ego_rank", "global_rank")

PRIMITIVE_NAMES = (
    [f"{stat}_{s}" for stat in ("PR", "BC", "CC") for s in _SCOPES]
    + [f"Sim_{k}hop" for k in range(1, 6)]
    + ["Deg_t", "Ego_size"]
)

PRIMITIVE_CATEGORIES = (
    [c for c in ("PageRank", "Betweenness", "Closeness") for _ in _SCOPES]
    + ["Similarity"] * 5
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

    share_tasks([lambda i=i: compute(i) for i in range(len(blocks))], add_done)
    if n < 3:
        return dist, score
    # each unordered pair was counted from both endpoints
    return dist, score / ((n - 1) * (n - 2))


def _sweep_block(n):
    """Sources per block of the level sweep: as many as keep an N x block
    float array within _SWEEP_BYTES, from 32 to 128. Every source's column is
    computed on its own, so the size moves no bit. Every level of a block
    pays a fixed cost per call (Python, numpy and scipy dispatch, fresh
    temporaries), which a wider block spreads over more sources: at N = 650,
    blocks of 100 sweep faster than blocks of 32. From N = 2048 up a block
    holds 32; wider ones were no faster there. The helper thread's malloc
    arena keeps its largest block's temporaries after a sweep (glibc
    ``malloc_stats``: 2.9-3.5 MB at N = 650 with 100 sources, 0.23 MB at
    N = 250 with 128)."""
    return min(128, max(32, _SWEEP_BYTES // (8 * n)))


def sharing_pays(n):
    """Whether the work on an n-node graph after its sweep (the primitive
    columns, the expert branch of scoring) is shared with the helper:
    from more than one _BLOCK of rows on. Sharing it on graphs of 60-150
    nodes scored about 10% fewer nodes per second (2 vCPUs, BLAS on one
    thread): the handoffs cost more than the halves save. The sweep keeps
    its own rule, two source blocks or more."""
    return n > _BLOCK


def share_tasks(tasks, between=lambda: None, share=True):
    """Run every callable of ``tasks`` and return their results in order.
    The calling thread runs the first; given two tasks or more, ``share``
    and a second CPU, the helper thread joins in, and each thread claims the
    next task in turn. The calling thread also runs ``between()`` after each
    of its tasks and once at the end. An exception in either thread stops
    both from claiming more, and is raised here once the helper has stopped.

    A task that the helper runs must not share tasks itself: the helper
    would queue behind its own work. The helper's tasks here (sweep blocks,
    scope columns, the expert branch of scoring) share nothing; a caller's
    own sharing inside its first task queues behind the helper's task and
    is joined by the helper once that ends."""
    results = [None] * len(tasks)
    indices = iter(range(len(tasks)))
    lock = threading.Lock()

    def claim():
        with lock:
            return next(indices, None)

    def run(i, after):
        try:
            while i is not None:
                results[i] = tasks[i]()
                after()
                i = claim()
        except BaseException:
            with lock:
                for _ in indices:  # leave nothing for the other thread
                    pass
            raise

    first = claim()  # the calling thread's, so the helper starts at the second
    helper = _sweep_helper() if share and len(tasks) > 1 else None
    pending = None if helper is None else helper.submit(lambda: run(claim(), lambda: None))
    # a helper that has not started (busy with another task, or not yet
    # woken) is cancelled rather than waited for
    try:
        run(first, between)
    except BaseException:
        if pending is not None and not pending.cancel():
            pending.exception()  # wait for the helper; this thread's error wins
        raise
    if pending is not None and not pending.cancel():
        pending.result()
    between()
    return results


_helper = None
_helper_lock = threading.Lock()


def _sweep_helper():
    """The one-thread executor that ``share_tasks`` shares work with, started
    on first use; None with a single usable CPU. One helper, not more: each
    thread brings its own malloc arena, so every helper adds to the peak
    memory. (In a forked child the inherited executor has no thread; its
    task is cancelled and the calling thread runs every task alone.)"""
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
    on each source in ``rows`` (columns). The level masks are products,
    which relies on path counts and dependencies being finite and
    nonnegative: a factor True keeps the value and False gives +0.0, the
    bits of a masked divide and select."""
    d, sigma, depth = _forward_levels(a, rows, dist.dtype)
    dist[:, rows] = d
    # unreachable nodes have no paths; dividing by 1 there keeps every
    # quotient finite, and the level mask zeroes it
    safe = sigma + (sigma == 0)
    # sources sit at level 0 and never receive a dependency
    delta = np.zeros(d.shape)
    for k in range(depth, 1, -1):
        coeff = (1.0 + delta) / safe * (d == k)
        delta += sigma * (a @ coeff) * (d == k - 1)
    return delta


def _forward_levels(a, rows, dtype):
    """Hop levels (-1 where unreachable), shortest-path counts and depth of
    the BFS from each source in ``rows``, one column per source. A times the
    frontier's path counts gives the path counts into each node; its nonzero
    entries at unvisited nodes are the next level. The level mask is applied
    as products: to the hop levels, and to the counts, where zeroing the
    rest relies on their being finite and nonnegative (False times a count
    is +0.0)."""
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
        # the level's entries hold -1, and the type holds -1 - depth >= -N
        d -= level * d.dtype.type(-1 - depth)
        reached *= level
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
    """Expand a node statistic into the four scope columns
    (target, ego_mean, ego_rank, global_rank)."""
    values = np.asarray(values, dtype=np.float64)
    n = g.num_nodes
    ego = _ego_mask(_hop_distances(g))
    size = ego.sum(axis=1)
    row = np.broadcast_to(values, ego.shape)
    ego_mean = row.sum(axis=1, where=ego) / size
    less = np.count_nonzero(ego & (row < values[:, None]), axis=1)
    ties = np.count_nonzero(ego & (row == values[:, None]), axis=1) - 1  # not v itself
    ego_rank = np.divide(less + 0.5 * ties, size - 1, out=np.full(n, 0.5), where=size > 1)
    sorted_vals = np.sort(values)
    left = np.searchsorted(sorted_vals, values, side="left")
    right = np.searchsorted(sorted_vals, values, side="right")
    global_rank = np.divide(left + 0.5 * (right - left - 1), n - 1, out=np.full(n, 0.5),
                            where=n > 1)
    return values.copy(), ego_mean, ego_rank, global_rank


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


@dataclass(frozen=True)
class RouterFeatureTable:
    """Node-by-feature matrix with names, categories and per-column
    provenance ("primitive" or the expression that built it).

    A table is a value: ``with_columns`` returns a new table and leaves this
    one as it was. The first len(PRIMITIVE_NAMES) columns are always the
    primitives in their fixed order; generated columns are appended and
    never removed, so earlier expressions stay evaluable on new graphs.
    Which columns a router reads is its list of names, not the table's.
    """

    matrix: np.ndarray
    names: list[str]
    categories: list[str]
    provenance: list = field(default_factory=list)

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate column names")
        if self.matrix.shape[1] != len(self.names):
            raise ValueError("matrix width does not match names")

    def column(self, name):
        return self.matrix[:, self.names.index(name)]

    def has_column(self, name):
        return name in self.names

    def with_columns(self, exprs, values):
        """This table plus one column per expression, named and built by
        it, with the values in ``values``."""
        names = list(self.names)
        for expr in exprs:
            if expr.name in names:
                raise ValueError(f"column {expr.name!r} already exists")
            names.append(expr.name)
        return RouterFeatureTable(
            matrix=np.column_stack([self.matrix, *values]),
            names=names,
            categories=self.categories + [e.category for e in exprs],
            provenance=self.provenance + list(exprs),
        )

    def column_map(self):
        """Column name -> column (a view of the matrix)."""
        return dict(zip(self.names, self.matrix.T))

    def _indices(self, names):
        unknown = [n for n in names if n not in self.names]
        if unknown:
            raise ValueError(f"the table has no column {unknown[0]!r}")
        return [self.names.index(n) for n in names]

    def by_category(self, names):
        """Category -> the columns of ``names`` in it, in the order of
        ``names``; every category is a key."""
        out = {c: [] for c in CATEGORIES}
        for name, i in zip(names, self._indices(names)):
            out[self.categories[i]].append(name)
        return out

    def standardized(self, names) -> np.ndarray:
        """The columns ``names``, in that order, z-scored per column over
        nodes (constant columns become zeros); this is the router's input
        representation."""
        sub = self.matrix[:, self._indices(names)]
        mean = sub.mean(axis=0)
        std = sub.std(axis=0)
        # a constant's computed mean can be an ulp off, leaving a std of
        # ~1e-17 and z-scores of +-1, so constancy is tested exactly
        varies = (std > 0) & (sub != sub[:1]).any(axis=0)
        return np.divide(sub - mean, std, out=np.zeros_like(sub), where=varies)

    def export_text(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\t".join(self.names) + "\n")
            for row in self.matrix:
                fh.write("\t".join("%.17g" % v for v in row) + "\n")


def compute_primitives(g: Graph, xtilde: np.ndarray) -> RouterFeatureTable:
    """Assemble the primitive columns in their canonical order
    (PRIMITIVE_NAMES). The sweep runs first, in ``betweenness``, which times
    it. The columns after it read only the sweep's cache and ``xtilde``, and
    are shared with the helper where that pays, in two tasks: the k-hop
    similarities, whose GEMMs call BLAS, on the calling thread, and the
    scope columns, which call none, on the helper. With BLAS on two threads,
    k-hop tasks on both threads made the columns slower than on one."""
    bc = betweenness(g)
    sims, scopes = share_tasks(
        [lambda: [khop_similarity(g, xtilde, k) for k in range(1, 6)],
         lambda: [col for stat in (pagerank(g), bc, closeness(g))
                  for col in scope_expand(stat, g)]],
        share=sharing_pays(g.num_nodes),
    )
    cols = scopes + sims
    cols.append(g.degrees.astype(np.float64))
    cols.append(np.count_nonzero(_ego_mask(_hop_distances(g)), axis=1).astype(np.float64))
    return RouterFeatureTable(
        matrix=np.column_stack(cols),
        names=list(PRIMITIVE_NAMES),
        categories=list(PRIMITIVE_CATEGORIES),
        provenance=["primitive"] * len(PRIMITIVE_NAMES),
    )
