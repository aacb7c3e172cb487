"""Path-based metrics: harmonic geodesic mean, betweenness, components."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import fsum

import numpy as np

from . import graph
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
_FOLD_ROW = 2  # n-cell rows charged per folded Brandes row (see _brandes_blocks)


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
    directed = graph._flag("directed", directed)
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
    are accumulated walking the DAG levels in reverse.  A source on a
    chain of out-degree-1 nodes is folded onto the chain's end, its
    root (see ``_fold_plan``), and shares the root's forward pass.
    """
    scores = np.zeros(g.n)
    plan, spans = _brandes_blocks(g)
    # the blocks are added in span order, so the sum is the same bits
    # whichever worker computed each block
    for block in _pmap(_brandes_block, (*g.csr, plan), spans):
        scores += block
    return BetweennessResult(values=tuple(scores.tolist()))


def _brandes_blocks(g: CallGraph) -> tuple[tuple, list[tuple[int, int]]]:
    """The fold plan of g (see ``_fold_plan``) and its Brandes blocks, as
    spans over the plan's roots.  A root is charged its forward pass,
    max(n, m) cells, and each row folded onto it ``_FOLD_ROW`` n cells:
    its dependency row, which lives as long as the block, and as much
    again for the fold's transients."""
    plan = _fold_plan(*g.csr)
    cost = max(g.n, g.indices.size) + _FOLD_ROW * g.n * np.diff(plan[1])
    return plan, list(_batches(cost))


def _fold_plan(indptr, indices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(roots, fold_ptr, folds)``: the Brandes sources that run a forward
    pass, in id order, and the sources folded onto each, root i's being
    ``folds[fold_ptr[i]:fold_ptr[i + 1]]`` in id order.

    A node of out-degree 1 starts a chain s -> c1 -> ... -> r that ends
    at the first node r of out-degree other than 1, found by pointer
    doubling, and is folded onto r: every shortest path from s runs down
    the chain to r, so s's row follows from r's DAG (see
    ``_fold_rows``).  A chain that runs into a cycle of out-degree-1
    nodes has no end and its nodes stay roots.  A root keeps no more
    folds than fit one batch beside it; the rest stay roots too.  A node
    with no out-arc and nothing folded onto it has an all-zero row and
    is not a source at all.
    """
    n = len(indptr) - 1
    degree = np.diff(indptr)
    single = degree == 1
    jump = np.arange(n)
    jump[single] = indices.take(indptr[:-1][single])
    # after k rounds jump[v] is 2**k steps down v's chain, or its end
    for _ in range(n.bit_length()):
        ahead = jump.take(jump)
        if np.array_equal(ahead, jump):
            break
        jump = ahead
    chained = np.flatnonzero(single & ~single.take(jump))
    # grouped by root, in id order within a group; a group keeps its
    # first ``cap`` sources
    chained = chained[np.argsort(jump.take(chained), kind="stable")]
    counts = np.bincount(jump.take(chained), minlength=n)
    rank = np.arange(chained.size) - (np.cumsum(counts) - counts).take(jump.take(chained))
    cap = max(0, graph._BATCH_CELLS - max(n, indices.size)) // (_FOLD_ROW * n)
    folds = chained[rank < cap].astype(np.int32)
    counts = np.bincount(jump.take(folds), minlength=n)
    folded = np.zeros(n, dtype=bool)
    folded[folds] = True
    roots = np.flatnonzero(~folded & ((degree > 0) | (counts > 0))).astype(np.int32)
    fold_ptr = np.concatenate(([0], np.cumsum(counts.take(roots))))
    return roots, fold_ptr, folds


def _brandes_block(indptr, indices, plan, span) -> np.ndarray:
    """Summed dependencies of the rows of ``_brandes_rows``, root rows
    first, as an n-vector."""
    return _brandes_rows(indptr, indices, plan, span).sum(axis=0)


def _brandes_rows(indptr, indices, plan, span) -> np.ndarray:
    """The dependency rows of roots ``span = (start, stop)`` of the fold
    plan ``plan`` (see ``_fold_plan``), then of the sources folded onto
    them, in plan order, as a rows x n array.

    Cells are flat int32 codes b*n + v for root row b (source
    ``sources[b]``) and node v: each root and folded row is charged n
    cells or more, so a block's cells stay below ``max(n,
    _BATCH_CELLS)``, below 2**31.  Path counts sigma are float64: exact
    below 2**53, and they round instead of wrapping above it; being
    integer sums there, they do not depend on the frontier order.  Each
    level keeps its DAG arcs only, as int32 (parent cell, child cell)
    pairs; both passes add each cell's terms in arc order.
    """
    n = len(indptr) - 1
    degree = np.diff(indptr)
    start, stop = span
    sources, fold_ptr, folds = plan
    sources = sources[start:stop]
    first = fold_ptr[start:stop]
    rows, at = _ranges(first, fold_ptr[start + 1 : stop + 1] - first)
    folds = folds.take(at)
    cells = len(sources) * n
    roots = np.arange(len(sources), dtype=np.int32) * n + sources
    # the dependency rows, root rows then folded rows, are allocated with
    # the path counts, before any level's transients
    delta = np.zeros(cells + len(folds) * n)
    seen = np.zeros(cells, dtype=bool)
    sigma = np.zeros(cells)
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
    del seen
    for up, child in reversed(levels):
        np.add.at(delta, up, sigma.take(up) * ((1.0 + delta.take(child)) / sigma.take(child)))
    if len(folds):
        _fold_rows(indptr, indices, levels, sigma, delta, sources, rows, folds)
    delta[roots] = 0.0
    return delta.reshape(-1, n)


def _fold_rows(indptr, indices, levels, sigma, delta, sources, rows, folds) -> None:
    """Fill folded row f of ``delta`` (cells after the root rows) with the
    dependencies of source ``folds[f]``, folded onto root row ``rows[f]``
    whose DAG is ``levels`` and ``sigma``.

    Every shortest path from s = folds[f] runs down its chain s -> c1 ->
    ... -> r to the root r, and a shortest path from r to a node off the
    chain avoids it, since a chain node leads only down the chain.  So
    r's path counts serve s, and s's row is r's row, taken before r's
    own cell is zeroed, with the chain cells {s, c1, ...} dropped: only
    their DAG ancestors change.  A bool mark of root cells collects the
    chain cells of the root's folded rows and, level by level, deepest
    first, their parents, which every folded row of the root recomputes
    from its arcs in arc order, as the backward pass adds them.  A
    parent no chain cell of that row lies below gets its old bits back,
    and a dropped cell holds -1, so it adds (1 + -1) / sigma = +0.0 to
    its parent: the row has the bits of a forward pass from s.  Then
    each chain node c depends on everything below it, 1 + delta(next),
    and s on nothing.
    """
    n = len(indptr) - 1
    cells, count = len(sources) * n, len(folds)
    # each root row's folded rows are consecutive
    many = np.bincount(rows, minlength=len(sources))
    after = np.cumsum(many) - many
    # from a root cell to the cell of the same node in folded row f
    shift = (len(sources) + np.arange(count) - rows) * n
    folded = delta[cells:].reshape(count, n)
    np.take(delta[:cells].reshape(-1, n), rows, axis=0, out=folded, mode="clip")
    # the chain of each folded row, one step at a time: step i holds the
    # rows whose chain is longer than i, and their node c_i
    steps = []
    row, node = np.arange(count), folds
    while row.size:
        steps.append((row, node))
        node = indices.take(indptr.take(node))
        more = node != sources.take(rows.take(row))
        row, node = row[more], node[more]
    row = np.concatenate([row for row, _ in steps])
    chain = np.concatenate([node for _, node in steps]) + rows.take(row) * n
    hit = np.zeros(cells, dtype=bool)
    hit[chain] = True
    chain += shift.take(row)
    delta[chain] = -1.0
    for up, child in reversed(levels):
        arc = np.flatnonzero(hit.take(child))
        if not arc.size:
            continue
        # a cell is a parent on its own level only, so the marked parents
        # pick out every arc to recompute; a chain cell among them is
        # recomputed too, and reset below
        hit[up.take(arc)] = True
        at = np.flatnonzero(hit.take(up))
        row = up.take(at) // n
        which, row = _ranges(after.take(row), many.take(row))
        at, move = at.take(which), shift.take(row)
        parent, below = up.take(at), child.take(at)
        terms = sigma.take(parent) * ((1.0 + delta.take(below + move)) / sigma.take(below))
        parent += move
        delta[parent] = 0.0
        np.add.at(delta, parent, terms)
        delta[chain] = -1.0
    del hit
    for row, node in reversed(steps[1:]):
        base = (len(sources) + row) * n
        delta[base + node] = 1.0 + delta.take(base + indices.take(indptr.take(node)))
    delta[(len(sources) + np.arange(count)) * n + folds] = 0.0


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
