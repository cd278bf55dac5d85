"""Seeded benchmark inputs, made with numpy alone.

The benchmark owns its graphs: nothing here calls evofg, so a change to the
program's own generator cannot change what the benchmark measures.

Every graph is a degree-corrected block model: nodes fall into blocks,
expected degrees are heterogeneous (a bounded Pareto propensity per node),
pairs inside a block connect ten times as often as pairs across blocks, and
attributes are drawn around per-block means. Anomalies are planted in one of
two styles:

  suite      the acceptance suite's planting. "structural" nodes lose their
             edges and are rewired to one random partner, "attribute" nodes
             get a random half of their coordinates shifted by +2 std,
             "mixed" nodes get both.
  dominant   the injection protocol of Ding et al. (SDM 2019). Dense cliques
             of ``clique_size`` nodes, and contextual anomalies whose
             attributes are copied from the farthest (Euclidean) of ``k``
             sampled nodes.

Every graph has at least one anomaly and at least one normal node.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass

import numpy as np

WITHIN_BLOCK_DEGREE = 8.0  # expected same-block neighbours of an average node
CROSS_BLOCK_RATIO = 0.1  # cross-block / same-block edge probability
NOISE = 0.5  # std of the per-node attribute noise
CONTEXT_SAMPLES = 50  # k of the contextual injection


@dataclass(frozen=True)
class GraphSpec:
    """What to generate; ``style`` is "suite" or "dominant"."""

    name: str
    nodes: int
    attrs: int
    blocks: int
    style: str
    kind: str = ""  # suite style: structural | attribute | mixed
    rate: float = 0.0  # suite style: share of anomalous nodes
    cliques: int = 0  # dominant style
    clique_size: int = 0
    contextual: int = 0
    spread: float = 0.1  # std of the per-block attribute means


@dataclass
class InputGraph:
    name: str
    edges: np.ndarray  # E x 2, u < v, unique, lexicographically sorted
    features: np.ndarray  # N x d float64
    labels: np.ndarray  # N int64, 1 = anomaly

    @property
    def num_nodes(self):
        return self.features.shape[0]


def rng_for(seed, *tags) -> np.random.Generator:
    """Independent random stream for (seed, tags)."""
    words = [int(seed)] + [zlib.crc32(str(t).encode()) for t in tags]
    return np.random.default_rng(np.random.SeedSequence(words))


def _block_model(rng, n, attrs, blocks, spread):
    comm = rng.integers(0, blocks, size=n)
    prop = np.minimum((1.0 - rng.random(n)) ** (-1.0 / 2.5), 3.0)
    prop /= prop.mean()
    p_in = min(1.0, WITHIN_BLOCK_DEGREE * blocks / n)
    iu, ju = np.triu_indices(n, k=1)
    base = np.where(comm[iu] == comm[ju], p_in, p_in * CROSS_BLOCK_RATIO)
    keep = rng.random(len(iu)) < np.clip(base * prop[iu] * prop[ju], 0.0, 1.0)
    edges = np.stack([iu[keep], ju[keep]], axis=1)
    means = rng.normal(0.0, spread, size=(blocks, attrs))
    x = means[comm] + rng.normal(0.0, NOISE, size=(n, attrs))
    return edges, x


def _plant_suite(rng, edges, x, spec):
    n, attrs = x.shape
    anomalies = rng.choice(n, size=max(1, int(spec.rate * n)), replace=False)
    if spec.kind in ("structural", "mixed"):
        hit = np.isin(edges, anomalies).any(axis=1)
        partners = rng.integers(0, n, size=len(anomalies))
        edges = np.vstack([edges[~hit], np.stack([anomalies, partners], axis=1)])
    if spec.kind in ("attribute", "mixed"):
        col_std = x.std(axis=0)
        for v in anomalies:
            cols = rng.choice(attrs, size=attrs // 2, replace=False)
            x[v, cols] += 2.0 * col_std[cols]
    return edges, x, anomalies


def _plant_dominant(rng, edges, x, spec):
    n = x.shape[0]
    members = rng.choice(n, size=spec.cliques * spec.clique_size, replace=False)
    iu, ju = np.triu_indices(spec.clique_size, k=1)
    clique_edges = [np.stack([c[iu], c[ju]], axis=1)
                    for c in members.reshape(spec.cliques, spec.clique_size)]
    edges = np.vstack([edges] + clique_edges)
    pool = np.setdiff1d(np.arange(n), members)
    targets = rng.choice(pool, size=spec.contextual, replace=False)
    source = x.copy()
    for v in targets:
        cand = rng.choice(n, size=min(CONTEXT_SAMPLES, n), replace=False)
        far = cand[np.argmax(np.linalg.norm(source[cand] - source[v], axis=1))]
        x[v] = source[far]
    return edges, x, np.concatenate([members, targets])


def make_graph(spec: GraphSpec, seed) -> InputGraph:
    """Generate one graph from ``spec``; the same (spec, seed) gives the same
    graph bit for bit."""
    rng = rng_for(seed, spec.name, spec.nodes, spec.attrs)
    edges, x = _block_model(rng, spec.nodes, spec.attrs, spec.blocks, spec.spread)
    if spec.style == "suite":
        edges, x, anomalies = _plant_suite(rng, edges, x, spec)
    elif spec.style == "dominant":
        edges, x, anomalies = _plant_dominant(rng, edges, x, spec)
    else:
        raise ValueError(f"unknown anomaly style {spec.style!r}")
    labels = np.zeros(spec.nodes, dtype=np.int64)
    labels[anomalies] = 1
    if not 1 <= labels.sum() < spec.nodes:
        raise ValueError(f"{spec.name}: needs at least one anomaly and one normal node")
    lo, hi = np.minimum(edges[:, 0], edges[:, 1]), np.maximum(edges[:, 0], edges[:, 1])
    edges = np.unique(np.stack([lo, hi], axis=1)[lo != hi], axis=0)
    return InputGraph(spec.name, edges.astype(np.int64), x, labels)


def write_graph_dir(g: InputGraph, path):
    """Write the three-file layout that ``evofg.graph.load_graph_dir`` reads;
    "%.17g" makes every float64 round-trip exactly."""
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "edges.txt"), "w", encoding="utf-8") as fh:
        fh.write("".join(f"{u}\t{v}\n" for u, v in g.edges.tolist()))
    with open(os.path.join(path, "features.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"{g.features.shape[0]} {g.features.shape[1]}\n")
        fh.write("".join(" ".join("%.17g" % v for v in row) + "\n"
                         for row in g.features.tolist()))
    with open(os.path.join(path, "labels.txt"), "w", encoding="utf-8") as fh:
        fh.write("".join(f"{y}\n" for y in g.labels.tolist()))
    return path
