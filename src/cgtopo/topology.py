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
from .graph import (
    CallGraph,
    CallGraphError,
    ConfigError,
    InputError,
    _batches,
    _csr,
    _pmap,
    _ranges,
    _unique,
)

ASSORTATIVITY_MODES = ("in_in", "out_out", "total")

DISCONNECTED = math.inf


class InsufficientDataError(CallGraphError):
    """Too few points to fit."""


@dataclass(frozen=True)
class AssortativityResult:
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
        raise ConfigError(f"unknown assortativity mode: {mode!r}")
    if g.m < 1:
        raise InputError("assortativity needs at least one edge")
    if mode == "in_in":
        deg = g.in_degrees
    elif mode == "out_out":
        deg = g.out_degrees
    else:
        deg = g.undirected.out_degrees
    u, v = g.edge_arrays()
    j, k = deg[u], deg[v]
    count = len(u)
    # sums over Python ints: exact at any size, rounded once as fsum
    # rounded the terms
    m1 = float(sum((j * k).tolist())) / count
    m2 = (sum((j + k).tolist()) / 2) / count
    m3 = (sum((j * j + k * k).tolist()) / 2) / count
    numerator = m1 - m2 * m2
    denominator = m3 - m2 * m2
    defined = denominator != 0.0
    return AssortativityResult(
        rho=numerator / denominator if defined else None,
        reason=None if defined else "zero variance of edge-endpoint degrees",
    )


def scale_free_metric(g: CallGraph) -> ScaleFreeResult:
    """s = sum of d_i * d_j over undirected edges; S = s / (sum d_i^3 / 2)."""
    h = g.undirected
    if h.m < 1:
        raise InputError("scale-free metric needs at least one edge")
    deg = h.out_degrees
    u, v = h.edge_arrays()
    s = sum((deg[u] * deg[v]).tolist())
    s_max = sum(d**3 for d in deg.tolist()) // 2
    return ScaleFreeResult(s=float(s), s_max=float(s_max), S=s / s_max)


def clustering(g: CallGraph) -> ClusteringResult:
    """Per-node clustering C_v on the symmetrized view.

    Nodes with fewer than 2 neighbours have no defined C_v and are
    excluded from the global and by-degree means.
    """
    h = g.undirected
    k = h.out_degrees
    pairs = k * (k - 1) // 2
    c = np.divide(_triangles(h), pairs, out=np.zeros(h.n), where=k >= 2)
    per_node = tuple(
        ci if ki >= 2 else None for ci, ki in zip(c.tolist(), k.tolist())
    )
    defined = np.flatnonzero(k >= 2)
    c, k = c[defined], k[defined]
    return ClusteringResult(
        per_node=per_node,
        global_c=fsum(c) / defined.size if defined.size else None,
        by_degree={
            int(kk): fsum(c[k == kk]) / np.count_nonzero(k == kk) for kk in _unique(k)
        },
        defined_count=int(defined.size),
        reason=None if defined.size else "no node with degree >= 2",
    )


def _triangles(h: CallGraph) -> np.ndarray:
    """Triangles through each node of a symmetric graph, as integers.

    Each edge is oriented toward its end of higher (degree, id), so every
    triangle is the one oriented wedge u -> v -> w that the arc u -> w
    closes (Chiba and Nishizeki, 1985).  The wedges are enumerated arc by
    arc, over spans of arcs whose wedges fit the batch budget, and each
    closing arc is looked up in the ascending arc codes.
    """
    n = h.n
    tails, heads = h.arcs()
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(h.out_degrees, kind="stable")] = np.arange(n)
    up = rank[tails] < rank[heads]
    tails, codes = tails[up], tails[up] * n + heads[up]  # still ascending
    indptr, indices = _csr(n, codes)
    # the wedges through an arc are the out-arcs of its head
    width = np.diff(indptr)[indices]
    tri = np.zeros(n, dtype=np.int64)
    for start, stop in _batches(width):
        count = width[start:stop]
        mid = np.repeat(indices[start:stop], count)
        first = np.repeat(tails[start:stop], count)
        last = indices[_ranges(indptr[indices[start:stop]], count)]
        wedge = first * n + last
        at = np.minimum(np.searchsorted(codes, wedge), codes.size - 1)
        closed = codes[at] == wedge
        ends = np.concatenate((first[closed], mid[closed], last[closed]))
        tri += np.bincount(ends, minlength=n)
    return tri


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
    land under the DISCONNECTED (infinity) key.  A plain breadth-first
    search from each neighbour: the clustering profile's oracle."""
    h = g.undirected
    ptr, nbr = h.indptr.tolist(), h.indices.tolist()
    adj = [nbr[a:b] for a, b in zip(ptr, ptr[1:])]
    row = adj[node]
    pairs: Counter = Counter()
    for a, source in enumerate(row):
        depth = [-1] * h.n
        depth[node] = depth[source] = 0  # the cut node is never entered
        queue = deque([source])
        left = set(row[a + 1 :])  # the search stops once it meets them all
        while queue and left:
            v = queue.popleft()
            left.discard(v)
            d = depth[v] + 1
            for w in adj[v]:
                if depth[w] < 0:
                    depth[w] = d
                    queue.append(w)
        pairs.update(depth[t] if depth[t] > 0 else DISCONNECTED for t in row[a + 1 :])
    return pairs


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
        raise ConfigError(f"d_max must be >= 1, got {d_max}")
    h = g.undirected
    degree = h.out_degrees
    eligible = np.flatnonzero(degree >= 2)
    if eligible.size == 0:
        raise InputError("no node with degree >= 2 to profile")
    k = degree[eligible]
    frac = _pair_classes(h, d_max)[eligible] / (
        k * (k - 1) // 2
    )[:, None]
    count = eligible.size
    aggregate = {d: fsum(frac[:, d]) / count for d in range(1, d_max + 1)}
    groups = [(int(kk), frac[k == kk]) for kk in _unique(k)]
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


def _pair_classes(h: CallGraph, d_max: int) -> np.ndarray:
    """Neighbour-pair counts per node of a symmetric graph, as an
    (n, d_max + 2) array: column d in 1..d_max counts the pairs at
    distance d with the node removed, column d_max + 1 the pairs
    farther apart, column 0 the pairs disconnected.

    Pair {j, l} of node i is disconnected exactly when edges i-j and
    i-l lie in different biconnected blocks, so only same-block pairs
    are searched, by bitset BFS from j with i banned, to depth d_max.
    """
    n = h.n
    indptr, indices = h.csr
    arcs = len(indices)
    owner = np.repeat(np.arange(n), np.diff(indptr))
    block = _edge_blocks(h)
    # arc a of node i leads the pairs it forms with the later arcs of i
    later = indptr[owner + 1] - np.arange(arcs) - 1
    classes = np.zeros((n, d_max + 2), dtype=np.int64)
    # a lead arc costs about eight int64 cells per pair it leads, and
    # its bitset row 1/64 of what _bitset_bfs charges a 64-row word; an
    # arc that leads no pair searches no row
    spans = _batches(np.where(later > 0, 8 * later + 4 * ((n + 63) >> 6), 0))
    shared = (indptr, indices, owner, block, later, d_max)
    for first, part in _pmap(_lead_classes, shared, spans):
        classes[first : first + len(part)] += part
    return classes


def _lead_classes(indptr, indices, owner, block, later, d_max, span):
    """The pair classes of the lead arcs ``span = (start, stop)`` of
    ``_pair_classes``, as ``(first, part)``: row r of ``part`` counts
    the classes of node ``first + r``."""
    start, stop = span
    count = later[start:stop]
    lead = np.repeat(np.arange(start, stop), count)
    # arc a pairs with a + 1, a + 2, ...
    other = _ranges(np.arange(start + 1, stop + 1), count)
    cls = np.zeros(lead.size, dtype=np.int64)
    same = np.flatnonzero(block[lead] == block[other])
    cls[same] = d_max + 1
    row_arcs, row_of = np.unique(lead[same], return_inverse=True)
    target = indices[other[same]]
    pending = np.arange(same.size)
    # a target is neither its row's source nor its banned node, so its
    # visited bit is first set at the depth where the row reaches it
    for depth, _, visited in paths._bitset_bfs(
        indptr, indices, indices[row_arcs], owner[row_arcs], d_max
    ):
        r = row_of[pending]
        hit = (
            visited[r >> 6, target[pending]] >> (r & 63).astype(np.uint64)
        ) & np.uint64(1) == 1
        cls[same[pending[hit]]] = depth
        pending = pending[~hit]
        if pending.size == 0:
            break
    first = owner[start]
    part = np.zeros((owner[stop - 1] - first + 1, d_max + 2), dtype=np.int64)
    np.add.at(part, (owner[lead] - first, cls), 1)
    return first, part


def _edge_blocks(h: CallGraph) -> np.ndarray:
    """Biconnected-block label of every arc of a symmetric graph; both
    arcs of an edge share the label.  Low points (Hopcroft and Tarjan,
    1973) over the graph's ``weak_search``: tree edge p-v opens a block
    unless an arc from v's subtree reaches above p, and each arc takes
    the block of its deeper end."""
    n = h.n
    indptr, indices = h.csr
    order, parent = h.weak_search
    # nodes are numbered by preorder position from here on
    disc = np.empty(n, dtype=np.int64)
    disc[order] = np.arange(n)
    tail, head = disc[np.repeat(np.arange(n), np.diff(indptr))], disc[indices]
    # an arc from the shallower end leaves its tail's low point as it is
    low = np.arange(n)
    np.minimum.at(low, tail, head)
    deeper = np.maximum(tail, head, out=head)
    del tail
    # a root is its own parent here: that lowers no low point, and the
    # root's label, which no arc takes, opens a block of its own
    parent = parent[order]
    up = np.where(parent < 0, np.arange(n), disc[parent]).tolist()
    low = low.tolist()
    for k in range(n - 1, -1, -1):
        low[up[k]] = min(low[up[k]], low[k])
    block = [0] * n
    for k in range(n):
        block[k] = k if low[k] >= up[k] else block[up[k]]
    return np.array(block)[deeper]


def reciprocity(g: CallGraph) -> ReciprocityResult:
    """Fraction of edges with a reciprocal partner, corrected by the
    density a_bar so random graphs score near zero."""
    if not g.directed:
        raise InputError("reciprocity requires a directed graph")
    if g.m < 1 or g.n < 2:
        raise InputError("reciprocity needs n >= 2 and m >= 1")
    tails, heads = g.arcs()
    arcs = tails * g.n + heads
    # both code arrays are distinct, which spares isin a bare np.unique
    reciprocal = int(np.isin(heads * g.n + tails, arcs, assume_unique=True).sum())
    varrho = reciprocal / g.m
    a_bar = g.m / (g.n * (g.n - 1))
    defined = a_bar != 1.0
    return ReciprocityResult(
        varrho=varrho,
        a_bar=a_bar,
        rho=(varrho - a_bar) / (1.0 - a_bar) if defined else None,
        reason=None if defined else "complete directed graph leaves no room above the mean",
    )
