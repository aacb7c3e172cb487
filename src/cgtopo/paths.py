"""Path-based metrics: harmonic geodesic mean, betweenness, components."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import fsum

import numpy as np

from .graph import (
    CallGraph,
    InputError,
    _batches,
    _dfs,
    _pmap,
    _ranges,
    _tails,
    _trees,
    _unique,
    weak_components,
)

_LEVEL_ARRAYS = 4  # words x nodes arrays alive in a _bitset_bfs level


def _bitset_bfs(indptr, indices, sources, banned=None, depth_cap=None):
    """Multi-source BFS over a CSR graph, one bit per row, 64 rows per
    uint64 word (Then et al., "The More the Merrier", VLDB 2015).

    Row r starts at ``sources[r]`` and, when ``banned`` is given, never
    enters node ``banned[r]``.  The CSR is read pull-wise: row v lists
    the nodes one step before v.  Yields ``(depth, bits, visited)`` for
    depth 1, 2, ...: ``bits`` holds a column per node of the new
    frontier, bit r % 64 of ``bits[r // 64]`` set when row r first
    reaches that node at that depth.  ``visited`` is the live words x n
    array of every bit set so far, sources and banned nodes included: bit
    r % 64 of ``visited[r // 64, v]`` is set once row r has reached v.
    It is updated in place when the generator resumes, so a caller reads
    it before asking for the next level.  Stops when no row advances or
    after ``depth_cap`` levels.

    A level keeps ``_LEVEL_ARRAYS`` words x nodes arrays alive (the visited
    bits, the caller's frontier, the bits the level reaches and the visited
    bits they are tested against), so callers charge each word that many
    cells per node.  The gather is reduced one word at a time, so it adds
    one row of 8 B per live arc, not a batch budget.
    """
    n = len(indptr) - 1
    rows = np.arange(len(sources))
    word = rows >> 6
    bit = np.left_shift(np.uint64(1), (rows & 63).astype(np.uint64))
    # word-major, so that each word's gather and reduction is contiguous
    visited = np.zeros(((len(sources) + 63) >> 6, n), dtype=np.uint64)
    np.bitwise_or.at(visited, (word, sources), bit)
    nodes = _unique(sources)
    bits = visited[:, nodes]
    if banned is not None:
        np.bitwise_or.at(visited, (word, banned), bit)
    owner = _tails(indptr, np.int32)
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
        for w in range(len(bits)):
            np.bitwise_or.reduceat(bits[w].take(pred), starts, out=reached[w])
        # in place: reached | seen is the new visited, and its xor with
        # seen the bits first reached here; seen goes before the new
        # frontier is copied out, so no more than four arrays are alive
        seen = visited[:, dest]
        reached |= seen
        visited[:, dest] = reached
        reached ^= seen
        del seen
        keep = reached.any(axis=0)
        nodes, bits = dest[keep], reached[:, keep]
        yield depth, bits, visited


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
    # items are bitset words of 64 sources, charged as _bitset_bfs asks
    words = _batches(np.full((n + 63) >> 6, _LEVEL_ARRAYS * n))
    for counts in _pmap(_depth_counts, (indptr, indices), words):
        per_depth.update(counts)
    reachable = sum(per_depth.values())
    inv_sum = fsum(count / depth for depth, count in per_depth.items())
    ordered_pairs = n * (n - 1)
    defined = reachable > 0
    return GeodesicSummary(
        harmonic_mean_ell=ordered_pairs / inv_sum if defined else None,
        inverse_distance_sum=inv_sum,
        reachable_pair_fraction=reachable / ordered_pairs,
        directed=directed,
        reason=None if defined else "no reachable ordered pair",
    )


def _depth_counts(indptr, indices, words) -> Counter:
    """Reached (source, node) pairs by distance, for the sources of
    bitset words ``words = (w0, w1)``."""
    w0, w1 = words
    sources = np.arange(64 * w0, min(64 * w1, len(indptr) - 1))
    counts: Counter = Counter()
    for depth, bits, _ in _bitset_bfs(indptr, indices, sources):
        counts[depth] = int(np.bitwise_count(bits).sum())
    return counts


def betweenness(g: CallGraph) -> BetweennessResult:
    """Exact unweighted betweenness, unnormalized, endpoints excluded.

    Brandes (2001) over a block of sources at once: a forward BFS per
    level builds the geodesic DAG and its path counts, then path shares
    are accumulated walking the DAG levels in reverse.
    """
    n = g.n
    scores = np.zeros(n)
    # the blocks are added in span order, so the sum is the same bits
    # whichever worker computed each block
    blocks = _batches(np.full(n, max(n, g.indices.size)))
    for block in _pmap(_brandes_block, g.csr, blocks):
        scores += block
    return BetweennessResult(values=tuple(scores.tolist()))


def _brandes_block(indptr, indices, span) -> np.ndarray:
    """Summed dependencies of sources ``span = (start, stop)`` on every
    node, as an n-vector.

    Cells are flat int32 codes b*n + v for block row b (source
    ``sources[b]``) and node v: each source is charged n cells or more,
    so a block's b*n is at most ``max(n, _BATCH_CELLS)``, below 2**31.
    Path counts sigma are float64: exact below 2**53, and they round
    instead of wrapping above it; being integer sums there, they do not
    depend on the frontier order.  Each level keeps its DAG arcs only,
    as int32 (parent cell, child cell) pairs; both passes add each
    cell's terms in arc order.
    """
    n = len(indptr) - 1
    degree = np.diff(indptr)
    sources = np.arange(*span, dtype=np.int32)
    roots = np.arange(len(sources), dtype=np.int32) * n + sources
    seen = np.zeros(len(sources) * n, dtype=bool)
    sigma = np.zeros(seen.size)
    seen[roots] = True
    sigma[roots] = 1.0
    # gathers go through take: indexing by an int32 array copies it to
    # intp first; the fresh arcs are picked by their positions, which is
    # several times faster than a bool mask that passes about half of them
    levels = []
    front = roots
    while front.size:
        base = front - front % n
        node = front - base
        parent, arcs = _ranges(indptr.take(node), degree.take(node))
        child = base.take(parent) + indices.take(arcs)
        fresh = np.flatnonzero(~seen.take(child))
        up, child = front.take(parent.take(fresh)), child.take(fresh)
        seen[child] = True
        np.add.at(sigma, child, sigma.take(up))
        levels.append((up, child))
        front = _unique(child)
    delta = np.zeros(seen.size)
    for up, child in reversed(levels):
        np.add.at(delta, up, sigma.take(up) * ((1.0 + delta.take(child)) / sigma.take(child)))
    delta[roots] = 0.0
    return delta.reshape(-1, n).sum(axis=0)


def betweenness_distribution(res: BetweennessResult) -> BetweennessDistribution:
    """Log-spaced histogram, zeros bucketed separately."""
    values = np.array(res.values)
    positives = np.sort(values[values > 0])
    zero_count = values.size - positives.size
    if not positives.size:
        return BetweennessDistribution(zero_count=zero_count, buckets=())
    # doubling bucket edges from the smallest positive value
    edges = [float(positives[0])]
    while edges[-1] <= positives[-1]:
        edges.append(edges[-1] * 2.0)
    counts = np.diff(np.searchsorted(positives, edges)).tolist()
    return BetweennessDistribution(
        zero_count=zero_count, buckets=tuple(zip(edges, edges[1:], counts))
    )


def strongly_connected_components(g: CallGraph) -> list[list[int]]:
    """Strongly connected components, ordered as in ``weak_components``.

    Each is one tree of a depth-first search over the in-arcs from the
    roots in reverse postorder of a search over the out-arcs (Kosaraju;
    Sharir 1981).
    """
    finished = _dfs(*g.csr, range(g.n))[2]
    return _trees(*_dfs(*g.in_csr, finished[::-1].tolist())[:2])


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
