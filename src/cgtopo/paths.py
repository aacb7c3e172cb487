"""Path-based metrics: harmonic geodesic mean, betweenness, components."""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from math import fsum

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .graph import CallGraph, InputError, components, weak_components

_BFS_CHUNK = 512


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
    h = g if directed else g.undirected
    mat = h.adjacency
    n = h.n
    inv_parts: list[float] = []
    reachable = 0
    for start in range(0, n, _BFS_CHUNK):
        idx = np.arange(start, min(start + _BFS_CHUNK, n))
        dist = dijkstra(mat, directed=True, indices=idx, unweighted=True)
        finite = np.isfinite(dist) & (dist > 0)
        inv_parts.append(float(np.sum(1.0 / dist[finite])))
        reachable += int(finite.sum())
    inv_sum = fsum(inv_parts)
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


def betweenness(g: CallGraph) -> BetweennessResult:
    """Exact unweighted betweenness, unnormalized, endpoints excluded.

    One BFS per source builds the geodesic DAG; path shares are then
    accumulated walking the DAG in reverse BFS order.
    """
    n = g.n
    scores = [0.0] * n
    adj = g.out_adj
    for s in range(n):
        dist = [-1] * n
        sigma = [0] * n
        preds: list[list[int]] = [[] for _ in range(n)]
        dist[s] = 0
        sigma[s] = 1
        order: list[int] = []
        queue = deque([s])
        while queue:
            v = queue.popleft()
            order.append(v)
            dv = dist[v]
            sv = sigma[v]
            for w in adj[v]:
                if dist[w] == -1:
                    dist[w] = dv + 1
                    queue.append(w)
                if dist[w] == dv + 1:
                    sigma[w] += sv
                    preds[w].append(v)
        delta = [0.0] * n
        for w in reversed(order):
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
            if w != s:
                scores[w] += delta[w]
    return BetweennessResult(values=tuple(scores))


def betweenness_distribution(res: BetweennessResult) -> BetweennessDistribution:
    """Log-spaced histogram (zeros bucketed separately) plus tail CCDF."""
    positives = sorted(v for v in res.values if v > 0)
    zero_count = len(res.values) - len(positives)
    if not positives:
        return BetweennessDistribution(zero_count=zero_count, buckets=(), ccdf=())
    buckets = []
    lo = positives[0]
    hi_val = positives[-1]
    while lo <= hi_val:
        hi = lo * 2.0
        count = sum(1 for v in positives if lo <= v < hi)
        buckets.append((lo, hi, count))
        lo = hi
    counts = Counter(positives)
    ccdf = []
    total = len(positives)
    seen = 0
    for v in sorted(counts):
        seen += counts[v]
        ccdf.append((v, (total - seen) / total))
    return BetweennessDistribution(
        zero_count=zero_count, buckets=tuple(buckets), ccdf=tuple(ccdf)
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
