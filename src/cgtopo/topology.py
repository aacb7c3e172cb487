"""Edge-local structural metrics.

Degree correlation (assortativity) and reciprocity read the directed
graph; the scale-free metric, clustering coefficient and clustering
profile operate on the symmetrized view, which is taken internally
when a directed graph comes in.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from math import fsum

import numpy as np

from . import paths
from .graph import CallGraph, CallGraphError, InputError

ASSORTATIVITY_MODES = ("in_in", "out_out", "total")

DISCONNECTED = math.inf


class InsufficientDataError(CallGraphError):
    """Too few points to fit."""


@dataclass(frozen=True)
class AssortativityResult:
    mode: str
    rho: float | None
    reason: str | None = None


@dataclass(frozen=True)
class ScaleFreeResult:
    s: float
    s_max: float
    S: float


@dataclass(frozen=True)
class ClusteringResult:
    per_node: tuple[float | None, ...]
    global_c: float | None
    by_degree: dict[int, float]
    defined_count: int
    reason: str | None = None


@dataclass(frozen=True)
class DegreeClusteringFit:
    slope: float
    intercept: float
    residual_ss: float
    n_points: int


@dataclass(frozen=True)
class ClusteringProfile:
    d_max: int
    cells: dict[int, dict[int, float]]
    aggregate: dict[int, float]
    beyond_fraction: float
    disconnected_fraction: float
    eligible_count: int


@dataclass(frozen=True)
class ReciprocityResult:
    varrho: float
    a_bar: float
    rho: float | None
    reason: str | None = None


def assortativity(g: CallGraph, mode: str) -> AssortativityResult:
    """Pearson-style correlation of degrees across edge endpoints.

    For each edge (u, v) the sample pair is (deg(u), deg(v)), with the
    degree picked by mode: indegree, outdegree, or total degree on the
    symmetrized view.  Zero variance of the endpoint degrees leaves
    the coefficient undefined.
    """
    if mode not in ASSORTATIVITY_MODES:
        raise InputError(f"unknown assortativity mode: {mode!r}")
    if g.m < 1:
        raise InputError("assortativity needs at least one edge")
    if mode == "in_in":
        deg = [len(s) for s in g.in_adj]
    elif mode == "out_out":
        deg = [len(s) for s in g.out_adj]
    else:
        deg = [len(s) for s in g.undirected.out_adj]
    prod_terms = []
    half_sum_terms = []
    half_sq_terms = []
    count = 0
    for u, v in g.edges():
        j, k = deg[u], deg[v]
        prod_terms.append(j * k)
        half_sum_terms.append((j + k) / 2)
        half_sq_terms.append((j * j + k * k) / 2)
        count += 1
    m1 = fsum(prod_terms) / count
    m2 = fsum(half_sum_terms) / count
    m3 = fsum(half_sq_terms) / count
    numerator = m1 - m2 * m2
    denominator = m3 - m2 * m2
    if denominator == 0.0:
        return AssortativityResult(
            mode=mode, rho=None, reason="zero variance of edge-endpoint degrees"
        )
    return AssortativityResult(mode=mode, rho=numerator / denominator)


def scale_free_metric(g: CallGraph) -> ScaleFreeResult:
    """s = sum of d_i * d_j over undirected edges; S = s / (sum d_i^3 / 2)."""
    h = g.undirected
    if h.m < 1:
        raise InputError("scale-free metric needs at least one edge")
    deg = [len(s) for s in h.out_adj]
    s = sum(deg[u] * deg[v] for u, v in h.edges())
    s_max = sum(d**3 for d in deg) // 2
    return ScaleFreeResult(s=float(s), s_max=float(s_max), S=s / s_max)


def clustering(g: CallGraph) -> ClusteringResult:
    """Per-node clustering C_v on the symmetrized view.

    Nodes with fewer than 2 neighbours have no defined C_v and are
    excluded from the global and by-degree means.
    """
    h = g.undirected
    neighbour_sets = [set(row) for row in h.out_adj]
    per_node: list[float | None] = []
    by_degree_values: dict[int, list[float]] = {}
    defined: list[float] = []
    for v, row in enumerate(h.out_adj):
        k = len(row)
        if k < 2:
            per_node.append(None)
            continue
        nv = neighbour_sets[v]
        links = sum(len(neighbour_sets[u] & nv) for u in row) // 2
        c = links / (k * (k - 1) // 2)
        per_node.append(c)
        defined.append(c)
        by_degree_values.setdefault(k, []).append(c)
    if not defined:
        return ClusteringResult(
            per_node=tuple(per_node),
            global_c=None,
            by_degree={},
            defined_count=0,
            reason="no node with degree >= 2",
        )
    by_degree = {
        k: fsum(vals) / len(vals) for k, vals in sorted(by_degree_values.items())
    }
    return ClusteringResult(
        per_node=tuple(per_node),
        global_c=fsum(defined) / len(defined),
        by_degree=by_degree,
        defined_count=len(defined),
    )


def clustering_by_degree_fit(res: ClusteringResult) -> DegreeClusteringFit:
    """Least-squares slope of log C(k) versus log k over positive means."""
    points = [(k, c) for k, c in sorted(res.by_degree.items()) if c > 0]
    if len(points) < 3:
        raise InsufficientDataError(
            f"need >= 3 positive by-degree means, got {len(points)}"
        )
    xs = [math.log(k) for k, _ in points]
    ys = [math.log(c) for _, c in points]
    n = len(points)
    mx = fsum(xs) / n
    my = fsum(ys) / n
    sxx = fsum((x - mx) ** 2 for x in xs)
    sxy = fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    residual_ss = fsum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    return DegreeClusteringFit(
        slope=slope, intercept=intercept, residual_ss=residual_ss, n_points=n
    )


def neighbour_pair_distances(g: CallGraph, node: int) -> Counter:
    """Distances between neighbours of ``node`` measured with the node
    removed, as a Counter {distance: pair count}; disconnected pairs
    land under the DISCONNECTED (infinity) key."""
    h = g.undirected
    row = h.out_adj[node]
    counts: Counter = Counter()
    for idx, j in enumerate(row):
        targets = row[idx + 1 :]
        if not targets:
            break
        dist = _bfs_distances_excluding(h, j, node, targets)
        for t in targets:
            d = dist.get(t)
            counts[d if d is not None else DISCONNECTED] += 1
    return counts


def _bfs_distances_excluding(
    h: CallGraph, source: int, banned: int, targets
) -> dict[int, int]:
    """BFS distances from source in G(V minus banned), stopping early
    once every target has been reached."""
    remaining = set(targets)
    remaining.discard(source)
    dist = {source: 0}
    queue = deque([source])
    while queue and remaining:
        v = queue.popleft()
        dv = dist[v]
        for w in h.out_adj[v]:
            if w == banned or w in dist:
                continue
            dist[w] = dv + 1
            remaining.discard(w)
            queue.append(w)
    return dist


def clustering_profile(g: CallGraph, d_max: int) -> ClusteringProfile:
    """Distance-class decomposition of neighbour interconnection.

    For each node i with at least 2 neighbours, every unordered
    neighbour pair is classified by its geodesic distance in the graph
    with i removed.  C^d(i) is the fraction of pairs at distance d;
    cells average C^d(i) over nodes of equal degree, and the d=1 row
    reproduces the clustering coefficient exactly.  Pairs beyond d_max
    and disconnected pairs are aggregated separately so the classes
    always account for every pair.
    """
    if d_max < 1:
        raise InputError(f"d_max must be >= 1, got {d_max}")
    indptr, indices = g.undirected.csr
    degree = np.diff(indptr)
    eligible = np.flatnonzero(degree >= 2)
    if eligible.size == 0:
        raise InputError("no node with degree >= 2 to profile")
    k = degree[eligible]
    frac = _pair_classes(indptr, indices, d_max)[eligible] / (
        k * (k - 1) // 2
    )[:, None]
    count = eligible.size
    aggregate = {d: fsum(frac[:, d]) / count for d in range(1, d_max + 1)}
    groups = [(int(kk), frac[k == kk]) for kk in np.unique(k)]
    cells = {
        d: {kk: fsum(rows[:, d]) / len(rows) for kk, rows in groups}
        for d in range(1, d_max + 1)
    }
    return ClusteringProfile(
        d_max=d_max,
        cells=cells,
        aggregate=aggregate,
        beyond_fraction=fsum(frac[:, d_max + 1]) / count,
        disconnected_fraction=fsum(frac[:, 0]) / count,
        eligible_count=count,
    )


def _pair_classes(indptr, indices, d_max: int) -> np.ndarray:
    """Neighbour-pair counts per node of a symmetric CSR graph, as an
    (n, d_max + 2) array: column d in 1..d_max counts the pairs at
    distance d with the node removed, column d_max + 1 the pairs
    farther apart, column 0 the pairs disconnected.

    Pair {j, l} of node i is disconnected exactly when edges i-j and
    i-l lie in different biconnected blocks, so only same-block pairs
    are searched, by bitset BFS from j with i banned, to depth d_max.
    """
    n = len(indptr) - 1
    arcs = len(indices)
    owner = np.repeat(np.arange(n), np.diff(indptr))
    block = _edge_blocks(indptr, indices)
    # arc a of node i leads the pairs it forms with the later arcs of i
    later = indptr[owner + 1] - np.arange(arcs) - 1
    ends = np.cumsum(later)
    rows_per_batch = 64 * paths._batch_width(n)
    # a pair takes about eight int64 cells
    pairs_per_batch = paths._batch_width(8)
    classes = np.zeros((n, d_max + 2), dtype=np.int64)
    slot = np.full(n, -1, dtype=np.intp)
    start = 0
    while start < arcs:
        # a batch of leading arcs whose pairs fit the cell budget
        done = ends[start - 1] if start else 0
        stop = int(np.searchsorted(ends, done + pairs_per_batch, side="right"))
        stop = min(max(stop, start + 1), start + rows_per_batch, arcs)
        count = later[start:stop]
        lead = np.repeat(np.arange(start, stop), count)
        # arc a pairs with a + 1, a + 2, ...
        step = np.arange(lead.size) - np.repeat(np.cumsum(count) - count, count)
        other = lead + 1 + step
        start = stop
        cls = np.zeros(lead.size, dtype=np.int64)
        same = np.flatnonzero(block[lead] == block[other])
        cls[same] = d_max + 1
        row_arcs, row_of = np.unique(lead[same], return_inverse=True)
        target = indices[other[same]]
        pending = np.arange(same.size)
        for depth, nodes, bits in paths._bitset_bfs(
            indptr, indices, indices[row_arcs], owner[row_arcs], d_max
        ):
            slot[nodes] = np.arange(nodes.size)
            at = slot[target[pending]]
            slot[nodes] = -1
            r = row_of[pending]
            hit = at >= 0
            hit[hit] = (
                bits[r[hit] >> 6, at[hit]] >> (r[hit] & 63).astype(np.uint64)
            ) & np.uint64(1) == 1
            cls[same[pending[hit]]] = depth
            pending = pending[~hit]
            if pending.size == 0:
                break
        np.add.at(classes, (owner[lead], cls), 1)
    return classes


def _edge_blocks(indptr, indices) -> np.ndarray:
    """Biconnected-block label of every arc of a symmetric CSR graph;
    both arcs of an edge share the label.  Iterative Hopcroft-Tarjan
    (1973): one depth-first pass with an edge stack."""
    n = len(indptr) - 1
    ptr = indptr.tolist()
    nbr = indices.tolist()
    disc = [-1] * n
    low = [0] * n
    label = [-1] * len(nbr)
    edge_stack: list[int] = []
    blocks = 0
    clock = 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        # DFS path: node, next arc to scan, tree arc into the node
        path = [root]
        cursor = [ptr[root]]
        tree = [-1]
        while path:
            v = path[-1]
            a = cursor[-1]
            if a < ptr[v + 1]:
                cursor[-1] = a + 1
                w = nbr[a]
                if disc[w] < 0:
                    disc[w] = low[w] = clock
                    clock += 1
                    edge_stack.append(a)
                    path.append(w)
                    cursor.append(ptr[w])
                    tree.append(a)
                elif disc[w] < disc[v]:
                    # includes the arc back to the DFS parent: it keeps
                    # low[v] >= disc[parent] exactly when the tree edge
                    # ends a block, and lands in that block
                    edge_stack.append(a)
                    low[v] = min(low[v], disc[w])
                continue
            path.pop()
            cursor.pop()
            into = tree.pop()
            if not path:
                continue
            u = path[-1]
            low[u] = min(low[u], low[v])
            if low[v] >= disc[u]:
                while True:
                    e = edge_stack.pop()
                    label[e] = blocks
                    if e == into:
                        break
                blocks += 1
    # each edge was stacked through one of its arcs; copy to the other
    label = np.array(label, dtype=np.int64)
    head = np.asarray(indices, dtype=np.int64)
    tail = np.repeat(np.arange(n), np.diff(indptr))
    reverse = np.empty(len(nbr), dtype=np.int64)
    reverse[np.argsort(tail * n + head)] = np.argsort(head * n + tail)
    return np.where(label >= 0, label, label[reverse])


def reciprocity(g: CallGraph) -> ReciprocityResult:
    """Fraction of edges with a reciprocal partner, corrected by the
    density a_bar so random graphs score near zero."""
    if not g.directed:
        raise InputError("reciprocity requires a directed graph")
    if g.m < 1 or g.n < 2:
        raise InputError("reciprocity needs n >= 2 and m >= 1")
    reciprocal = sum(1 for u, v in g.edges() if g.has_edge(v, u))
    varrho = reciprocal / g.m
    a_bar = g.m / (g.n * (g.n - 1))
    if a_bar == 1.0:
        return ReciprocityResult(
            varrho=varrho,
            a_bar=a_bar,
            rho=None,
            reason="complete directed graph leaves no room above the mean",
        )
    return ReciprocityResult(
        varrho=varrho, a_bar=a_bar, rho=(varrho - a_bar) / (1.0 - a_bar)
    )
