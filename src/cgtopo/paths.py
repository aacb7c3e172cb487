"""Path-based metrics: harmonic geodesic mean, betweenness, components."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import fsum

import numpy as np

from .graph import CallGraph, InputError, _pmap, _ranges, components, weak_components

# Working-set bound of the batched traversals, in array cells: a bitset
# batch keeps about this many uint64 words per node-indexed array and
# gathers at most this many per reduction; a Brandes block holds this
# many (source, node) cells and DAG arcs.  At 2**19 the temporaries
# stay at a few MiB whatever the graph size.
_BATCH_CELLS = 1 << 19


def _batches(cost):
    """Consecutive ``(start, stop)`` spans over items of per-item cell
    ``cost``: each the longest run whose summed cost fits
    ``_BATCH_CELLS``, and never empty.  The one batch rule of every
    batched kernel, so the partition depends on the graph only."""
    ends = np.cumsum(cost)
    start = 0
    while start < len(ends):
        done = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, done + _BATCH_CELLS, "right")))
        yield start, stop
        start = stop


def _bitset_bfs(indptr, indices, sources, banned=None, depth_cap=None):
    """Multi-source BFS over a CSR graph, one bit per row, 64 rows per
    uint64 word (Then et al., "The More the Merrier", VLDB 2015).

    Row r starts at ``sources[r]`` and, when ``banned`` is given, never
    enters node ``banned[r]``.  The CSR is read pull-wise: row v lists
    the nodes one step before v.  Yields ``(depth, nodes, bits)`` for
    depth 1, 2, ...: bit r % 64 of ``bits[r // 64, k]`` is set when row
    r first reaches ``nodes[k]`` at that depth.  Stops when no row
    advances or after ``depth_cap`` levels.
    """
    n = len(indptr) - 1
    rows = np.arange(len(sources))
    word = rows >> 6
    bit = np.left_shift(np.uint64(1), (rows & 63).astype(np.uint64))
    # word-major, so that each word's gather and reduction is contiguous
    visited = np.zeros(((len(sources) + 63) >> 6, n), dtype=np.uint64)
    np.bitwise_or.at(visited, (word, sources), bit)
    nodes = np.unique(sources)
    bits = visited[:, nodes]
    if banned is not None:
        np.bitwise_or.at(visited, (word, banned), bit)
    owner = np.repeat(np.arange(n), np.diff(indptr))
    slot = np.full(n, -1, dtype=np.intp)
    depth = 0
    while nodes.size and depth != depth_cap:
        depth += 1
        slot[nodes] = np.arange(nodes.size)
        pred = slot[indices]
        slot[nodes] = -1
        live = np.flatnonzero(pred >= 0)
        # only arcs out of the frontier are gathered; every segment of
        # the reduction is then non-empty
        pred = pred[live]
        dest = owner[live]
        starts = np.flatnonzero(np.diff(dest, prepend=-1))
        dest = dest[starts]
        reached = np.empty((len(bits), starts.size), dtype=np.uint64)
        for w0, w1 in _batches(np.full(len(bits), live.size)):
            reached[w0:w1] = np.bitwise_or.reduceat(
                bits[w0:w1].take(pred, axis=1), starts, axis=1
            )
        new = reached & ~visited[:, dest]
        keep = new.any(axis=0)
        nodes, bits = dest[keep], new[:, keep]
        visited[:, nodes] |= bits
        yield depth, nodes, bits


@dataclass(frozen=True)
class GeodesicSummary:
    harmonic_mean_ell: float | None
    inverse_distance_sum: float
    reachable_pair_fraction: float
    directed: bool
    reason: str | None = None


@dataclass(frozen=True)
class BetweennessResult:
    values: tuple[float, ...]


@dataclass(frozen=True)
class BetweennessDistribution:
    zero_count: int
    buckets: tuple[tuple[float, float, int], ...]
    ccdf: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class ComponentStats:
    wcc_count: int
    scc_count: int
    scc_nontrivial_count: int
    largest_scc_fraction: float
    largest_wcc_size: int


def harmonic_geodesic_mean(g: CallGraph, directed: bool = False) -> GeodesicSummary:
    """Harmonic mean of pairwise geodesic distances.

    Unreachable pairs contribute 0 to the inverse sum, so the mean
    tolerates disconnection; the raw inverse sum is also reported.
    Normalization is over the n(n-1) ordered pairs.  Distances follow
    the symmetrized view unless ``directed`` is set.
    """
    if g.n < 2:
        raise InputError("geodesic mean needs n >= 2")
    # the BFS reads rows pull-wise: row v lists the nodes one step before v
    indptr, indices = g.in_csr if directed else g.undirected.csr
    n = g.n
    # exact histogram of ordered reachable pairs by distance
    per_depth: Counter = Counter()
    # items are bitset words of 64 sources, each n cells wide
    words = _batches(np.full((n + 63) >> 6, n))
    for counts in _pmap(_depth_counts, (indptr, indices), words):
        per_depth.update(counts)
    reachable = sum(per_depth.values())
    inv_sum = fsum(count / depth for depth, count in per_depth.items())
    ordered_pairs = n * (n - 1)
    fraction = reachable / ordered_pairs
    if reachable == 0:
        return GeodesicSummary(
            harmonic_mean_ell=None,
            inverse_distance_sum=inv_sum,
            reachable_pair_fraction=0.0,
            directed=directed,
            reason="no reachable ordered pair",
        )
    return GeodesicSummary(
        harmonic_mean_ell=ordered_pairs / inv_sum,
        inverse_distance_sum=inv_sum,
        reachable_pair_fraction=fraction,
        directed=directed,
    )


def _depth_counts(indptr, indices, words) -> Counter:
    """Reached (source, node) pairs by distance, for the sources of
    bitset words ``words = (w0, w1)``."""
    w0, w1 = words
    sources = np.arange(64 * w0, min(64 * w1, len(indptr) - 1))
    counts: Counter = Counter()
    for depth, _, bits in _bitset_bfs(indptr, indices, sources):
        counts[depth] = int(np.bitwise_count(bits).sum())
    return counts


def betweenness(g: CallGraph) -> BetweennessResult:
    """Exact unweighted betweenness, unnormalized, endpoints excluded.

    Brandes (2001) over a block of sources at once: a forward BFS per
    level builds the geodesic DAG and its path counts, then path shares
    are accumulated walking the DAG levels in reverse.
    """
    n = g.n
    indptr, indices = (a.astype(np.int64) for a in g.csr)
    scores = np.zeros(n)
    # the blocks are added in span order, so the sum is the same bits
    # whichever worker computed each block
    blocks = _batches(np.full(n, max(n, indices.size)))
    for block in _pmap(_brandes_block, (indptr, indices), blocks):
        scores += block
    return BetweennessResult(values=tuple(scores.tolist()))


def _brandes_block(indptr, indices, span) -> np.ndarray:
    """Summed dependencies of sources ``span = (start, stop)`` on every
    node, as an n-vector.

    Cells are flat codes b*n + v for block row b (source ``sources[b]``)
    and node v.  Path counts sigma are float64: exact below 2**53, and
    they round instead of wrapping above it.
    """
    n = len(indptr) - 1
    degree = np.diff(indptr)
    sources = np.arange(*span)
    b = len(sources)
    roots = np.arange(b) * n + sources
    dist = np.full(b * n, -1, dtype=np.int32)
    sigma = np.zeros(b * n)
    stamp = np.empty(b * n, dtype=np.int64)
    dist[roots] = 0
    sigma[roots] = 1.0
    # per level: the frontier codes, and the DAG arcs out of it as
    # (frontier index of the parent, child code)
    levels = []
    front = roots
    depth = 0
    while front.size:
        depth += 1
        base = front - front % n
        node = front - base
        count = degree[node]
        parent = np.repeat(np.arange(front.size), count)
        child = base[parent] + indices[_ranges(indptr[node], count)]
        fresh = dist[child] < 0
        parent, child = parent[fresh], child[fresh]
        dist[child] = depth
        np.add.at(sigma, child, sigma[front][parent])
        levels.append((front, parent, child))
        # one entry per distinct child: the occurrence whose index the
        # stamp kept
        order = np.arange(child.size)
        stamp[child] = order
        front = child[stamp[child] == order]
    delta = np.zeros(b * n)
    for front, parent, child in reversed(levels):
        coeff = (1.0 + delta[child]) / sigma[child]
        terms = sigma[front][parent] * coeff
        delta[front] += np.bincount(parent, weights=terms, minlength=front.size)
    delta[roots] = 0.0
    return delta.reshape(b, n).sum(axis=0)


def betweenness_distribution(res: BetweennessResult) -> BetweennessDistribution:
    """Log-spaced histogram (zeros bucketed separately) plus tail CCDF."""
    values = np.array(res.values)
    positives = np.sort(values[values > 0])
    zero_count = values.size - positives.size
    if not positives.size:
        return BetweennessDistribution(zero_count=zero_count, buckets=(), ccdf=())
    # doubling bucket edges from the smallest positive value
    edges = [float(positives[0])]
    while edges[-1] <= positives[-1]:
        edges.append(edges[-1] * 2.0)
    counts = np.diff(np.searchsorted(positives, edges)).tolist()
    distinct, repeats = np.unique(positives, return_counts=True)
    tail = (positives.size - np.cumsum(repeats)).tolist()
    return BetweennessDistribution(
        zero_count=zero_count,
        buckets=tuple(zip(edges, edges[1:], counts)),
        ccdf=tuple((v, t / positives.size) for v, t in zip(distinct.tolist(), tail)),
    )


def strongly_connected_components(g: CallGraph) -> list[list[int]]:
    """Strongly connected components, ordered as in ``weak_components``."""
    return components(g, "strong")


def component_stats(g: CallGraph) -> ComponentStats:
    """WCC/SCC counts and the mutual-recursion fraction |largest SCC|/n."""
    wccs = weak_components(g)
    sccs = strongly_connected_components(g)
    nontrivial = sum(1 for c in sccs if len(c) >= 2)
    return ComponentStats(
        wcc_count=len(wccs),
        scc_count=len(sccs),
        scc_nontrivial_count=nontrivial,
        largest_scc_fraction=len(sccs[0]) / g.n,
        largest_wcc_size=len(wccs[0]),
    )
