"""Undirected attributed graphs: representation, file I/O, and a seeded
synthetic generator with planted anomalies.

File layout (one directory per graph):
  edges.txt     one edge per line, "u<TAB>v", 0-based, '#' comments allowed
  features.txt  first line "N d", then N lines of d space-separated reals
  labels.txt    N lines of "0" or "1" (1 = anomaly)
"""

from __future__ import annotations

import io
import itertools
import logging
import os
import re

import numpy as np
import scipy.sparse as sp

log = logging.getLogger(__name__)

EGO_RADIUS = 6  # neighborhood radius that defines a node's ego graph

EDGE_FILE = "edges.txt"
FEATURE_FILE = "features.txt"
LABEL_FILE = "labels.txt"


class GraphFormatError(ValueError):
    """Malformed input file (carries the offending path/line)."""


def _canonical_edges(edges, n):
    """The distinct undirected pairs of an integer (k, 2) edge array as u <= v
    rows in lexicographic order: int64, C order. Each pair is deduplicated as
    the one key u * n + v, which the range check keeps unique to its pair.
    An empty array of any shape is edgeless."""
    if not edges.size:
        return np.empty((0, 2), dtype=np.int64)
    if edges.dtype.kind not in "iu":
        raise GraphFormatError(f"edge endpoints must be integers, not {edges.dtype}")
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise GraphFormatError(f"edges must have shape (k, 2), not {edges.shape}")
    if edges.min() < 0 or edges.max() >= n:
        raise GraphFormatError("edge endpoint out of range")
    u, v = edges[:, 0].astype(np.int64), edges[:, 1].astype(np.int64)
    keys = np.unique(np.minimum(u, v) * n + np.maximum(u, v))
    return np.stack(np.divmod(keys, n), axis=1)


class Graph:
    """Immutable undirected graph with node features and anomaly labels.

    Edges are stored deduplicated with u < v; adjacency is kept as CSR-style
    neighbor lists. ``labels`` may be None for graphs used only for scoring.
    """

    def __init__(self, num_nodes, edges, features, labels, name="graph"):
        self.num_nodes = int(num_nodes)
        if self.num_nodes < 1:
            raise GraphFormatError("a graph needs at least one node")
        self.edges = _canonical_edges(np.asarray(edges), self.num_nodes)
        self.features = np.asarray(features, dtype=np.float64)
        if self.features.shape[0] != self.num_nodes:
            raise GraphFormatError(
                f"feature rows {self.features.shape[0]} != num_nodes {self.num_nodes}"
            )
        if not np.isfinite(self.features).all():
            raise GraphFormatError("features contain NaN/Inf")
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
            if labels.shape != (self.num_nodes,):
                raise GraphFormatError("label count != num_nodes")
            if not np.isin(labels, (0, 1)).all():
                raise GraphFormatError("labels must be 0/1")
        self.labels = labels
        self.name = name
        self._ops = {}
        self._build_adjacency()
        for arr in (self.edges, self.features):
            arr.setflags(write=False)
        if self.labels is not None:
            self.labels.setflags(write=False)

    def _build_adjacency(self):
        if self.edges.size and (self.edges[:, 0] == self.edges[:, 1]).any():
            raise GraphFormatError("self-loop in edge list")
        a = self.adjacency()
        a.sort_indices()
        self.indptr = a.indptr.astype(np.int64)
        self.indices = a.indices.astype(np.int64)
        self.degrees = np.diff(self.indptr)
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)
        self.degrees.setflags(write=False)

    @property
    def num_edges(self):
        return self.edges.shape[0]

    def adjacency(self):
        """Symmetric 0/1 adjacency as scipy CSR."""
        n = self.num_nodes
        if "A" not in self._ops:
            if self.num_edges:
                u, v = self.edges[:, 0], self.edges[:, 1]
                data = np.ones(2 * self.num_edges)
                a = sp.coo_matrix(
                    (data, (np.concatenate([u, v]), np.concatenate([v, u]))),
                    shape=(n, n),
                ).tocsr()
            else:
                a = sp.csr_matrix((n, n))
            self._ops["A"] = a
        return self._ops["A"]

    def sym_norm_selfloops(self):
        """D^-1/2 (A+I) D^-1/2 with degrees counted after adding self-loops."""
        if "S_hat" not in self._ops:
            n = self.num_nodes
            rows = np.repeat(np.arange(n), self.degrees)
            # each node's own column goes in at its sorted place in its row
            below = np.bincount(rows[self.indices < rows], minlength=n)
            indices = np.insert(self.indices, self.indptr[:-1] + below, np.arange(n))
            dinv = 1.0 / np.sqrt(self.degrees + 1.0)
            self._ops["S_hat"] = _diag_product(self.indptr + np.arange(n + 1), indices,
                                               dinv, dinv)
        return self._ops["S_hat"]

    def sym_norm(self):
        """D^-1/2 A D^-1/2; rows/cols of isolated nodes are zero."""
        if "P_sym" not in self._ops:
            d = self.degrees.astype(np.float64)
            dinv = np.divide(1.0, np.sqrt(d), out=np.zeros_like(d), where=d > 0)
            self._ops["P_sym"] = _diag_product(self.indptr, self.indices, dinv, dinv)
        return self._ops["P_sym"]

    def neighbor_mean(self):
        """D^-1 A; rows of degree-0 nodes are zero (neighbor mean = 0)."""
        if "D_inv_A" not in self._ops:
            d = self.degrees.astype(np.float64)
            dinv = np.divide(1.0, d, out=np.zeros_like(d), where=d > 0)
            self._ops["D_inv_A"] = _diag_product(self.indptr, self.indices, dinv)
        return self._ops["D_inv_A"]


def _diag_product(indptr, indices, left, right=None):
    """``diags(left) @ M``, or ``diags(left) @ M @ diags(right)`` when
    ``right`` is given, for the 0/1 CSR matrix M = (indptr, indices) with
    sorted rows: the entries, their bits and their order within each row are
    those of scipy's sparse products. Each product stores every row in
    reverse, and ``spmm`` sums a row in its stored order, so one product
    leaves the rows reversed and two restore them."""
    n = len(indptr) - 1
    rows = np.repeat(np.arange(n), np.diff(indptr))
    if right is None:
        pos = indptr[rows] + indptr[rows + 1] - 1 - np.arange(len(indices))
        indices, data = indices[pos], left[rows]
    else:
        data = left[rows] * right[indices]  # (left_i * a_ij) * right_j, a_ij = 1
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


# The feature and edge parsers read a whole file with numpy. When numpy
# refuses a file, or reads it in a shape other than the layout's, the per-line
# parser that follows it reads the same lines again: it raises at the first
# bad line with its path:line, or returns what numpy could not read (int() and
# float() also take forms such as "1_000" that numpy does not).


def _parse_matrix_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise GraphFormatError(f"{path}:1: expected header 'N d'")
        try:
            n, d = int(header[0]), int(header[1])
        except ValueError as exc:
            raise GraphFormatError(f"{path}:1: non-integer header") from exc
        if n < 1 or d < 0:
            raise GraphFormatError(f"{path}:1: needs N >= 1 nodes and d >= 0 features")
        lines = list(itertools.islice(fh, n))
    rows = None
    # numpy warns on input without data, and it skips blank lines, so that a
    # blank row shows as a short shape; the per-line parser rejects both
    if d > 0 and len(lines) == n > 0 and lines[0].strip():
        try:
            rows = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            pass
    if rows is None or rows.shape != (n, d):
        rows = _matrix_rows_by_line(path, lines, n, d)
    return rows


def _matrix_rows_by_line(path, lines, n, d):
    rows = np.empty((n, d), dtype=np.float64)
    for i, line in enumerate(lines):
        parts = line.split()
        if len(parts) != d:
            raise GraphFormatError(f"{path}:{i + 2}: expected {d} values")
        try:
            rows[i] = [float(p) for p in parts]
        except ValueError as exc:
            raise GraphFormatError(f"{path}:{i + 2}: bad real value") from exc
    if len(lines) < n:
        raise GraphFormatError(f"{path}: expected {n} feature rows, got {len(lines)}")
    return rows


# a line whose first character other than white space is not a comment
_DATA_LINE = re.compile(r"^[^\S\n]*[^#\s]", re.MULTILINE)
# a character other than a digit, a sign, a space or a tab before any comment
# on its line; numpy may read such a token as an integer through a float
# ("1.7" as 1, with only a DeprecationWarning), so it goes to the per-line
# parser, which rejects it
_NOT_INTEGER_TEXT = re.compile(r"^[^#\n]*[^0-9+\- \t\n#]", re.MULTILINE)


def _parse_edges(path, num_nodes):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if not _DATA_LINE.search(text):
        # empty or comments only: an edgeless graph (np.loadtxt would warn)
        pairs = np.empty((0, 2), dtype=np.int64)
    elif _NOT_INTEGER_TEXT.search(text):
        pairs = _edge_pairs_by_line(path, text, num_nodes)
    else:
        try:
            pairs = np.loadtxt(io.StringIO(text), dtype=np.int64, comments="#", ndmin=2)
        except ValueError:
            pairs = None
        if pairs is None or pairs.shape[1] != 2 or pairs.min() < 0 or pairs.max() >= num_nodes:
            pairs = _edge_pairs_by_line(path, text, num_nodes)
    loops = pairs[:, 0] == pairs[:, 1]
    if loops.any():
        log.warning("%s: dropped %d self-loop(s)", path, np.count_nonzero(loops))
    return pairs[~loops]


def _edge_pairs_by_line(path, text, num_nodes):
    pairs = []
    for ln, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"{path}:{ln}: expected 'u<TAB>v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"{path}:{ln}: non-integer endpoint") from exc
        if u < 0 or v < 0 or u >= num_nodes or v >= num_nodes:
            raise GraphFormatError(
                f"{path}:{ln}: node index out of range [0, {num_nodes})"
            )
        pairs.append((u, v))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def _parse_labels(path, num_nodes):
    labels = np.empty(num_nodes, dtype=np.int64)
    with open(path, "r", encoding="utf-8") as fh:
        for i in range(num_nodes):
            line = fh.readline()
            if not line:
                raise GraphFormatError(f"{path}: expected {num_nodes} labels, got {i}")
            token = line.strip()
            if token not in ("0", "1"):
                raise GraphFormatError(f"{path}:{i + 1}: label must be 0 or 1")
            labels[i] = int(token)
    return labels


def load_graph(edge_path, feature_path, label_path=None, name="graph") -> Graph:
    """Load a graph from the three-file layout; directed input is symmetrized.

    label_path may be None for scoring-only graphs (labels stay unset).
    """
    features = _parse_matrix_file(feature_path)
    edges = _parse_edges(edge_path, features.shape[0])
    labels = None if label_path is None else _parse_labels(label_path, features.shape[0])
    return Graph(features.shape[0], edges, features, labels, name=name)


def load_graph_dir(path, with_labels=True) -> Graph:
    """Load a graph from a directory following the standard file names; the
    graph is named after the directory."""
    return load_graph(
        os.path.join(path, EDGE_FILE),
        os.path.join(path, FEATURE_FILE),
        os.path.join(path, LABEL_FILE) if with_labels else None,
        name=os.path.basename(os.path.normpath(path)),
    )


def save_graph(g: Graph, path):
    """Export in the three-file layout; float64 values round-trip exactly."""
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, EDGE_FILE), "w", encoding="utf-8") as fh:
        for u, v in g.edges:
            fh.write(f"{u}\t{v}\n")
    with open(os.path.join(path, FEATURE_FILE), "w", encoding="utf-8") as fh:
        fh.write(f"{g.num_nodes} {g.features.shape[1]}\n")
        for row in g.features:
            fh.write(" ".join("%.17g" % x for x in row) + "\n")
    if g.labels is not None:
        with open(os.path.join(path, LABEL_FILE), "w", encoding="utf-8") as fh:
            for y in g.labels:
                fh.write(f"{y}\n")
    return path


def gen_synthetic(
    n_nodes,
    n_features,
    anomaly_rate,
    structure_seed,
    planted_kind,
    n_communities=4,
    name=None,
) -> Graph:
    """Seeded community graph with planted anomalies.

    Base structure: stochastic block model with ``n_communities`` blocks and
    heterogeneous (power-law-ish) expected degrees; node features are drawn
    around community means. Anomalies are planted per ``planted_kind``:
      structural  drop the node's edges and rewire it to uniformly random
                  partners (a low-degree cross-community bridge)
      attribute   shift a random half of the feature coordinates by +2 std
      mixed       both treatments
    """
    if not 0.0 < anomaly_rate < 0.5:
        raise ValueError("anomaly_rate must lie in (0, 0.5)")
    if n_nodes < 20:
        raise ValueError("n_nodes must be >= 20")
    if planted_kind not in ("structural", "attribute", "mixed"):
        raise ValueError(f"unknown planted_kind {planted_kind!r}")

    rng = np.random.default_rng(structure_seed)
    comm = rng.integers(0, n_communities, size=n_nodes)
    # degree propensities: bounded Pareto tail for hub/leaf heterogeneity
    prop = (1.0 - rng.random(n_nodes)) ** (-1.0 / 2.5)
    prop = np.minimum(prop, 3.0)
    prop /= prop.mean()

    p_in = min(1.0, 32.0 / n_nodes * n_communities / 4.0)
    p_out = p_in / 10.0
    iu, ju = np.triu_indices(n_nodes, k=1)
    base = np.where(comm[iu] == comm[ju], p_in, p_out)
    probs = np.clip(base * prop[iu] * prop[ju], 0.0, 1.0)
    keep = rng.random(len(probs)) < probs
    edge_set = {(int(a), int(b)) for a, b in zip(iu[keep], ju[keep])}

    # communities sit close together in attribute space so planted shifts,
    # not community membership, dominate the feature signal
    spread = 0.1
    noise = 0.5
    means = rng.normal(0.0, spread, size=(n_communities, n_features))
    x = means[comm] + rng.normal(0.0, noise, size=(n_nodes, n_features))

    n_anom = int(np.floor(anomaly_rate * n_nodes))
    n_anom = max(1, n_anom)
    anomalies = rng.choice(n_nodes, size=n_anom, replace=False)
    labels = np.zeros(n_nodes, dtype=np.int64)
    labels[anomalies] = 1

    rewire_edges = 1
    if planted_kind in ("structural", "mixed"):
        for v in anomalies:
            incident = [e for e in edge_set if v in e]
            for e in incident:
                edge_set.discard(e)
            targets = rng.choice(
                n_nodes, size=min(rewire_edges, n_nodes - 1), replace=False
            )
            for t in targets:
                if t != v:
                    edge_set.add((min(int(v), int(t)), max(int(v), int(t))))

    if planted_kind in ("attribute", "mixed"):
        col_std = x.std(axis=0)
        for v in anomalies:
            cols = rng.choice(n_features, size=n_features // 2, replace=False)
            x[v, cols] += 2.0 * col_std[cols]

    edges = np.array(list(edge_set), dtype=np.int64).reshape(-1, 2)
    gname = name or f"syn_{planted_kind}_c{n_communities}_s{structure_seed}"
    return Graph(n_nodes, edges, x, labels, name=gname)
