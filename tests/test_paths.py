"""Geodesic means, betweenness, and component decompositions."""

import math
from collections import deque

import pytest

from cgtopo import (
    InputError,
    betweenness,
    betweenness_distribution,
    component_stats,
    harmonic_geodesic_mean,
    load_edge_list,
    strongly_connected_components,
    symmetrize,
    weak_components,
)
from cgtopo.fixtures import complete_graph, permutation_core_graph, star_graph
from cgtopo.generators import GNM, RandomGraphSpec, generate_random
from cgtopo.graph import CallGraph


def _bfs_counts(adj, src):
    """Distances and geodesic counts from src by plain BFS."""
    dist = {src: 0}
    sigma = {src: 1}
    q = deque([src])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                sigma[v] = 0
                q.append(v)
            if dist[v] == dist[u] + 1:
                sigma[v] += sigma[u]
    return dist, sigma


def _brute_betweenness(g):
    """Pair-sum identity sigma_s(v) * sigma_v(t) / sigma_s(t); a different
    route to the same quantity than dependency accumulation."""
    n = g.n
    tables = [_bfs_counts(g.out_adj, s) for s in range(n)]
    scores = [0.0] * n
    for s in range(n):
        dist_s, sigma_s = tables[s]
        for t in dist_s:
            if t == s:
                continue
            for v in dist_s:
                if v in (s, t):
                    continue
                dist_v, sigma_v = tables[v]
                if t in dist_v and dist_s[v] + dist_v[t] == dist_s[t]:
                    scores[v] += sigma_s[v] * sigma_v[t] / sigma_s[t]
    return scores


def test_harmonic_mean_complete_graph():
    res = harmonic_geodesic_mean(complete_graph(4))
    assert abs(res.harmonic_mean_ell - 1.0) <= 1e-12
    assert res.reachable_pair_fraction == 1.0


def test_harmonic_mean_directed_chain():
    g = load_edge_list("a b\nb c\n")
    res = harmonic_geodesic_mean(g, directed=True)
    assert abs(res.harmonic_mean_ell - 2.4) <= 1e-12
    assert res.inverse_distance_sum == 2.5
    assert res.reachable_pair_fraction == 0.5
    assert res.directed


def test_harmonic_mean_symmetrized_by_default():
    g = load_edge_list("a b\nb c\n")
    res = harmonic_geodesic_mean(g)
    # ordered pairs: 4 at distance 1, 2 at distance 2 -> sum 5, ell = 6/5
    assert abs(res.harmonic_mean_ell - 1.2) <= 1e-12


def test_harmonic_mean_disconnected_pairs():
    g = load_edge_list("a b\nb a\nc d\nd c\n")
    res = harmonic_geodesic_mean(g, directed=True)
    assert abs(res.harmonic_mean_ell - 3.0) <= 1e-12
    assert res.reachable_pair_fraction == 4 / 12


def test_harmonic_mean_no_reachable_pair():
    g = CallGraph.from_id_pairs(3, [], names=("a", "b", "c"))
    res = harmonic_geodesic_mean(g)
    assert res.harmonic_mean_ell is None
    assert res.reason


def test_harmonic_mean_monotone_under_edge_addition():
    for seed in range(25):
        g = generate_random(RandomGraphSpec(model=GNM, n=14, m=20, seed=seed))
        base = harmonic_geodesic_mean(g)
        pairs = [
            (u, v)
            for u in range(g.n)
            for v in range(g.n)
            if u != v and not g.has_edge(u, v)
        ]
        if not pairs:
            continue
        u, v = pairs[seed % len(pairs)]
        denser = CallGraph.from_id_pairs(
            g.n, list(g.edges()) + [(u, v)], names=g.names
        )
        more = harmonic_geodesic_mean(denser)
        assert more.harmonic_mean_ell <= base.harmonic_mean_ell + 1e-12


def test_betweenness_chain():
    g = load_edge_list("a b\nb c\n")
    assert betweenness(g).values == (0.0, 1.0, 0.0)


def test_betweenness_reciprocal_star_hub():
    g = symmetrize(star_graph(4))
    vals = betweenness(g).values
    assert vals[0] == 12.0
    assert all(v == 0.0 for v in vals[1:])


def test_betweenness_diamond_split_shares():
    g = load_edge_list("a b\na c\nb d\nc d\n")
    vals = betweenness(g).values
    assert vals[1] == 0.5 and vals[2] == 0.5


def test_betweenness_small_brute_force():
    for seed in range(12):
        g = generate_random(RandomGraphSpec(model=GNM, n=7, m=12, seed=seed))
        got = betweenness(g).values
        want = _brute_betweenness(g)
        for a, b in zip(got, want):
            assert abs(a - b) <= 1e-9


def test_betweenness_pair_sum_rule():
    # sum of B_u equals the summed average interior length of geodesics
    for seed in range(6):
        g = generate_random(RandomGraphSpec(model=GNM, n=8, m=16, seed=seed))
        total = math.fsum(betweenness(g).values)
        tables = [_bfs_counts(g.out_adj, s) for s in range(g.n)]
        want = 0.0
        for s in range(g.n):
            dist_s, _ = tables[s]
            for t, d in dist_s.items():
                if t != s:
                    want += d - 1  # interior slots on any geodesic s->t
        assert abs(total - want) <= 1e-9


def test_betweenness_distribution_zero_and_buckets():
    g = load_edge_list("a b\nb a\n")
    dist = betweenness_distribution(betweenness(g))
    assert dist.zero_count == 2
    assert dist.buckets == ()
    g2 = load_edge_list("a b\nb c\n")
    dist2 = betweenness_distribution(betweenness(g2))
    assert dist2.ccdf == ((1.0, 0.0),)


def test_betweenness_distribution_mass_conserved():
    g = generate_random(RandomGraphSpec(model=GNM, n=60, m=200, seed=4))
    res = betweenness(g)
    dist = betweenness_distribution(res)
    bucket_total = sum(c for _, _, c in dist.buckets)
    assert dist.zero_count + bucket_total == g.n
    probs = [p for _, p in dist.ccdf]
    assert probs == sorted(probs, reverse=True)


def test_scc_hand_cases():
    g = load_edge_list("a b\nb a\na c\n")
    comps = strongly_connected_components(g)
    assert sorted(map(len, comps)) == [1, 2]
    chain = load_edge_list("a b\nb c\nc d\nd e\n")
    assert len(strongly_connected_components(chain)) == 5
    two_cycles = load_edge_list("a b\nb c\nc a\nx y\ny z\nz x\n")
    assert [len(c) for c in strongly_connected_components(two_cycles)] == [3, 3]


def test_scc_matches_reachability_oracle():
    def reach_sets(adj, n):
        return [frozenset(_bfs_counts(adj, s)[0]) for s in range(n)]

    for seed in range(10):
        g = generate_random(RandomGraphSpec(model=GNM, n=20, m=40, seed=seed))
        fwd = reach_sets(g.out_adj, g.n)
        bwd = reach_sets(g.in_adj, g.n)
        want = {frozenset(fwd[v] & bwd[v]) for v in range(g.n)}
        got = {frozenset(c) for c in strongly_connected_components(g)}
        assert got == want


def test_components_match_networkx_at_scale():
    nx = pytest.importorskip("networkx")

    def ordered(parts):
        return sorted((sorted(p) for p in parts), key=lambda c: (-len(c), c[0]))

    graphs = [
        generate_random(RandomGraphSpec(model=GNM, n=4000, m=m, seed=seed))
        for m, seed in ((3000, 1), (4400, 2), (8000, 3))
    ]
    graphs.append(permutation_core_graph(3000, 3300, seed=4))
    for g in graphs:
        dg = nx.DiGraph()
        dg.add_nodes_from(range(g.n))
        dg.add_edges_from(g.edges())
        assert weak_components(g) == ordered(nx.weakly_connected_components(dg))
        assert strongly_connected_components(g) == ordered(
            nx.strongly_connected_components(dg)
        )


def test_scc_sizes_partition_n():
    g = generate_random(RandomGraphSpec(model=GNM, n=50, m=120, seed=8))
    comps = strongly_connected_components(g)
    seen = sorted(v for c in comps for v in c)
    assert seen == list(range(g.n))


def test_scc_deep_chain_no_recursion_limit():
    pairs = [(i, i + 1) for i in range(20000)]
    g = CallGraph.from_id_pairs(20001, pairs)
    assert len(strongly_connected_components(g)) == 20001


def test_component_stats_hand_cases():
    g = load_edge_list("a b\nb a\na c\n")
    st = component_stats(g)
    assert st.wcc_count == 1
    assert st.scc_count == 2
    assert st.scc_nontrivial_count == 1
    assert math.isclose(st.largest_scc_fraction, 2 / 3, rel_tol=1e-15)

    chain = load_edge_list("a b\nb c\nc d\nd e\n")
    st2 = component_stats(chain)
    assert st2.scc_count == 5
    assert st2.scc_nontrivial_count == 0
    assert st2.largest_scc_fraction == 0.2

    cycles = load_edge_list("a b\nb c\nc a\nx y\ny z\nz x\n")
    st3 = component_stats(cycles)
    assert st3.wcc_count == 2
    assert st3.scc_count == 2
    assert st3.largest_scc_fraction == 0.5


def test_geodesic_requires_two_nodes():
    g = CallGraph.from_id_pairs(1, [])
    with pytest.raises(InputError):
        harmonic_geodesic_mean(g)
