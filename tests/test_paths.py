"""Geodesic means, betweenness, and component decompositions."""

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components, dijkstra

from cgtopo import (
    InputError,
    betweenness,
    betweenness_distribution,
    clustering_profile,
    component_stats,
    harmonic_geodesic_mean,
    load_edge_list,
    strongly_connected_components,
    symmetrize,
    weak_components,
)
from cgtopo import graph, paths
from cgtopo.fixtures import complete_graph, permutation_core_graph, star_graph
from cgtopo.generators import ERASED_CONFIG, GNM, RandomGraphSpec, generate_random
from cgtopo.graph import CallGraph, _pmap, largest_wcc, load_graph

from conftest import matrix, rows


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
    tables = [_bfs_counts(rows(*g.csr), s) for s in range(n)]
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


def test_harmonic_mean_undefined_result_is_pinned():
    res = harmonic_geodesic_mean(CallGraph.from_id_pairs(3, []))
    assert res == paths.GeodesicSummary(None, 0.0, 0.0, False, "no reachable ordered pair")
    assert type(res.inverse_distance_sum) is float
    assert type(res.reachable_pair_fraction) is float


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
        tables = [_bfs_counts(rows(*g.csr), s) for s in range(g.n)]
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
    assert dist2.zero_count == 2
    assert dist2.buckets == ((1.0, 2.0, 1),)


def test_betweenness_distribution_mass_conserved():
    g = generate_random(RandomGraphSpec(model=GNM, n=60, m=200, seed=4))
    res = betweenness(g)
    dist = betweenness_distribution(res)
    bucket_total = sum(c for _, _, c in dist.buckets)
    assert dist.zero_count + bucket_total == g.n


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
        fwd = reach_sets(rows(*g.csr), g.n)
        bwd = reach_sets(rows(*g.in_csr), g.n)
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


@pytest.mark.parametrize(
    "n, m", [(1, 0), (300, 120), (2000, 1500), (5000, 9000), (20_000, 24_000)]
)
def test_components_match_scipy_on_random_digraphs(n, m):
    # sparse draws: isolated nodes and many small components among them
    rng = np.random.Generator(np.random.PCG64(n + m))
    g = CallGraph.from_id_pairs(n, rng.integers(0, n, size=(m, 2)))
    for connection, ours in (
        ("weak", weak_components),
        ("strong", strongly_connected_components),
    ):
        count, labels = connected_components(matrix(g), connection=connection)
        parts = [np.flatnonzero(labels == k).tolist() for k in range(count)]
        assert ours(g) == sorted(parts, key=lambda c: (-len(c), c[0])), connection


def test_scc_sizes_partition_n():
    g = generate_random(RandomGraphSpec(model=GNM, n=50, m=120, seed=8))
    comps = strongly_connected_components(g)
    seen = sorted(v for c in comps for v in c)
    assert seen == list(range(g.n))


def test_scc_deep_chain_no_recursion_limit():
    pairs = [(i, i + 1) for i in range(20000)]
    g = CallGraph.from_id_pairs(20001, pairs)
    assert len(strongly_connected_components(g)) == 20001


def test_components_of_a_long_cycle_need_no_recursion():
    # every search path is 100,000 nodes deep
    n = 100_000
    ids = np.arange(n)
    g = CallGraph.from_id_pairs(n, np.column_stack((ids, (ids + 1) % n)))
    assert strongly_connected_components(g) == [ids.tolist()]
    assert weak_components(g) == [ids.tolist()]


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


def _dijkstra_geodesic(g, directed):
    """(inverse distance sum, reachable ordered pairs) from scipy's
    all-pairs unweighted dijkstra."""
    h = g if directed else symmetrize(g)
    dist = dijkstra(matrix(h), directed=True, unweighted=True)
    finite = np.isfinite(dist) & (dist > 0)
    return math.fsum((1.0 / dist[finite]).tolist()), int(finite.sum())


def _patchy_graph(seed):
    """Several weak components, isolated nodes and zero-in-degree nodes."""
    pairs = []
    offset = 0
    for n, m in ((300, 700), (120, 150), (40, 39), (2, 1)):
        g = generate_random(RandomGraphSpec(model=GNM, n=n, m=m, seed=seed + n))
        pairs += [(u + offset, v + offset) for u, v in g.edges()]
        offset += n
    # sources only: arcs into the first component, none out of it
    pairs += [(offset + i, i) for i in range(5)]
    return CallGraph.from_id_pairs(offset + 5 + 7, pairs)


@pytest.mark.parametrize("directed", [False, True])
def test_geodesic_matches_dijkstra_oracle(directed):
    for seed in range(3):
        g = _patchy_graph(seed)
        assert min(len(r) for r in rows(*g.in_csr)) == 0
        inv_sum, reachable = _dijkstra_geodesic(g, directed)
        res = harmonic_geodesic_mean(g, directed=directed)
        assert math.isclose(res.inverse_distance_sum, inv_sum, rel_tol=1e-12)
        assert res.reachable_pair_fraction == reachable / (g.n * (g.n - 1))
        want = g.n * (g.n - 1) / inv_sum
        assert math.isclose(res.harmonic_mean_ell, want, rel_tol=1e-12)


def _bfs_rows(g, sources, banned, depth_cap):
    """Per-row {node: depth} by plain BFS over successors, ban applied."""
    adj = rows(*g.csr)
    want = []
    for r, s in enumerate(sources):
        dist = {s: 0}
        q = deque([s])
        while q:
            u = q.popleft()
            if depth_cap is not None and dist[u] == depth_cap:
                continue
            for v in adj[u]:
                if v not in dist and (banned is None or v != banned[r]):
                    dist[v] = dist[u] + 1
                    q.append(v)
        want.append({v: d for v, d in dist.items() if d > 0})
    return want


@pytest.mark.parametrize("rows", [1, 63, 64, 65, 130])
def test_bitset_bfs_rows_against_plain_bfs(rows):
    g = generate_random(RandomGraphSpec(model=GNM, n=90, m=160, seed=rows))
    rng = np.random.default_rng(rows)
    sources = rng.integers(0, g.n, rows)
    banned = (sources + 1 + rng.integers(0, g.n - 1, rows)) % g.n
    # pull-wise CSR: row v lists the predecessors of v
    csr = matrix(g).T.tocsr()
    row = np.arange(rows)
    bit = np.left_shift(np.uint64(1), (row & 63).astype(np.uint64))
    for ban, cap in ((None, None), (banned, None), (banned, 2), (None, 1)):
        # the visited bits before the first level: sources and banned nodes
        before = np.zeros(((rows + 63) >> 6, g.n), dtype=np.uint64)
        for ends in (sources, ban):
            if ends is not None:
                np.bitwise_or.at(before, (row >> 6, ends), bit)
        got = [{} for _ in range(rows)]
        for depth, bits, visited in paths._bitset_bfs(
            csr.indptr, csr.indices, sources, ban, cap
        ):
            assert not (before & ~visited).any()
            new = visited & ~before
            # the frontier holds exactly the bits this level set
            assert np.bitwise_count(bits).sum() == np.bitwise_count(new).sum()
            for r in range(rows):
                reached = new[r >> 6] >> np.uint64(r & 63) & np.uint64(1)
                got[r].update(dict.fromkeys(np.flatnonzero(reached).tolist(), depth))
            before = visited.copy()
        assert got == _bfs_rows(g, sources.tolist(), ban, cap)


@settings(max_examples=200, deadline=None)
@given(
    cells=st.integers(1, 64),
    cost=st.lists(st.integers(0, 80), max_size=40),
)
def test_batches_tile_fit_and_are_maximal(cells, cost):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_BATCH_CELLS", cells)
        spans = list(graph._batches(np.array(cost, dtype=np.int64)))
    # consecutive, non-empty and covering [0, len)
    bounds = [0] + [stop for _, stop in spans]
    assert spans == list(zip(bounds, bounds[1:]))
    assert bounds[-1] == len(cost)
    assert all(start < stop for start, stop in spans)
    for start, stop in spans:
        if stop - start > 1:
            assert sum(cost[start:stop]) <= cells
        if stop < len(cost):
            assert sum(cost[start : stop + 1]) > cells


@settings(max_examples=100, deadline=None)
@given(
    cost=st.integers(graph._BATCH_CELLS // 400, 3 * graph._BATCH_CELLS),
    count=st.integers(1, 1000),
)
def test_batches_of_uniform_cost_have_one_width(cost, count):
    # the width rule that fixes the betweenness block partition
    width = max(1, graph._BATCH_CELLS // cost)
    spans = list(graph._batches(np.full(count, cost)))
    assert spans == [(s, min(s + width, count)) for s in range(0, count, width)]


@pytest.mark.parametrize("n", [2, 63, 64, 65, 200])
def test_batched_kernels_independent_of_batch_size(monkeypatch, n):
    m = min(3 * n, n * (n - 1))
    g = generate_random(RandomGraphSpec(model=GNM, n=n, m=m, seed=n))
    geo = harmonic_geodesic_mean(g)
    geo_dir = harmonic_geodesic_mean(g, directed=True)
    btw = betweenness(g).values
    # 1 cell: one bitset word and one Brandes source per batch; 16n
    # cells: four words per batch (each charged 4n); then blocks of
    # exactly 64 sources.  Each level's gather reduces one word at a time
    for cells in (1, 16 * g.n, 64 * max(g.n, g.m)):
        monkeypatch.setattr(graph, "_BATCH_CELLS", cells)
        assert harmonic_geodesic_mean(g) == geo
        assert harmonic_geodesic_mean(g, directed=True) == geo_dir
        for a, b in zip(betweenness(g).values, btw):
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
    inv_sum, _ = _dijkstra_geodesic(g, False)
    assert math.isclose(geo.inverse_distance_sum, inv_sum, rel_tol=1e-12)


@pytest.mark.parametrize(
    "spec",
    [
        RandomGraphSpec(model=ERASED_CONFIG, n=1000, gamma=2.5, seed=3),
        RandomGraphSpec(model=GNM, n=1000, m=2500, seed=5),
    ],
)
def test_betweenness_matches_networkx_at_scale(spec):
    nx = pytest.importorskip("networkx")
    g = generate_random(spec)
    dg = nx.DiGraph()
    dg.add_nodes_from(range(g.n))
    dg.add_edges_from(g.edges())
    want = nx.betweenness_centrality(dg, normalized=False, endpoints=False)
    got = betweenness(g).values
    assert max(got) > 100
    for v in range(g.n):
        assert math.isclose(got[v], want[v], rel_tol=1e-9, abs_tol=1e-9)


def test_betweenness_identities_on_demo_gnm_2000():
    # the demo gnm-2000 fixture: 29 Brandes blocks, with 157 sources
    # folded onto their roots
    g = generate_random(RandomGraphSpec(model=GNM, n=2000, m=8000, seed=8))
    got = betweenness(g).values
    # pair sum: every geodesic s -> t at distance d has d - 1 interior
    # slots, counted here from the directed BFS distance histogram
    interior = sum(
        (depth - 1) * int(np.bitwise_count(bits).sum())
        for depth, bits, _ in paths._bitset_bfs(*g.in_csr, np.arange(g.n))
    )
    assert interior == 17_629_283
    assert math.fsum(got) == interior
    # reversal: reversed geodesics keep their interior nodes
    tails, heads = g.arcs()
    back = betweenness(CallGraph.from_id_pairs(g.n, np.column_stack((heads, tails))))
    assert sum(v > 0 for v in got) > 1900
    for a, b in zip(got, back.values):
        assert math.isclose(a, b, rel_tol=1e-12)


@pytest.mark.kernel_scale
def test_betweenness_identities_on_linux_sim(corpus_dir):
    # the identities of the gnm-2000 test above, on the largest WCC of
    # the kernel-scale demo graph: 2,853 Brandes blocks per run
    g = largest_wcc(load_graph(corpus_dir / "linux-2.6.12-rc2-sim.edges", "edgelist"))
    assert (g.n, g.m) == (20_165, 70_010)
    got = betweenness(g).values
    words = graph._batches(np.full((g.n + 63) >> 6, g.n))
    interior = sum(
        (depth - 1) * count
        for counts in _pmap(paths._depth_counts, g.in_csr, words)
        for depth, count in counts.items()
    )
    assert math.isclose(math.fsum(got), interior, rel_tol=1e-12)
    tails, heads = g.arcs()
    back = betweenness(CallGraph.from_id_pairs(g.n, np.column_stack((heads, tails))))
    assert min(got) > 0
    for a, b in zip(got, back.values):
        assert math.isclose(a, b, rel_tol=1e-12)


def _unfolded(n):
    """A fold plan that folds nothing: every node is a root."""
    return np.arange(n, dtype=np.int32), np.zeros(n + 1, dtype=np.int64), np.zeros(0, np.int32)


def _direct_row(g, s):
    """Source s's dependency row from a forward pass of its own."""
    return paths._brandes_rows(*g.csr, _unfolded(g.n), (s, s + 1))[0]


def _folded_rows(g, spans=None):
    """{folded source: its row as its block computes it}, over the blocks
    betweenness runs, or those of ``spans``."""
    plan, blocks = paths._brandes_blocks(g)
    fold_ptr, folds = plan[1:]
    found = {}
    for start, stop in blocks if spans is None else spans:
        rows = paths._brandes_rows(*g.csr, plan, (start, stop))
        for f, s in enumerate(folds[fold_ptr[start] : fold_ptr[stop]].tolist()):
            found[s] = rows[stop - start + f]
    return found


def _fold_mismatches(g, spans=None) -> list[int]:
    """The folded sources whose row differs in any bit from a direct run."""
    rows = _folded_rows(g, spans)
    return [s for s, row in rows.items() if not np.array_equal(row, _direct_row(g, s))]


def _networkx_betweenness(g):
    nx = pytest.importorskip("networkx")
    dg = nx.DiGraph()
    dg.add_nodes_from(range(g.n))
    dg.add_edges_from(g.edges())
    want = nx.betweenness_centrality(dg, normalized=False, endpoints=False)
    return [want[v] for v in range(g.n)]


def _hub_with_folds(count):
    """Hub r (id 0) calls x and y; each of ``count`` sources calls r only,
    and x or y calls it back, so each lies in r's DAG at depth 2."""
    x, y = count + 1, count + 2
    arcs = [(0, x), (0, y)]
    for s in range(1, count + 1):
        arcs += [(s, 0), (x if s % 2 else y, s)]
    return CallGraph.from_id_pairs(count + 3, arcs)


@pytest.mark.parametrize(
    "g, plan",
    [
        # a chain s -> c -> r, where r reaches c through x; y is a sink
        # with nothing folded onto it, whose all-zero row is skipped
        (load_edge_list("s c\nc r\nr x\nr y\nx y\nx c\n"), ([2, 3], [0, 2, 2], [0, 1])),
        # a chain that ends in a sink
        (load_edge_list("s c\nc t\n"), ([2], [0, 2], [0, 1])),
        # a 2-cycle of out-degree-1 nodes, and u that runs into it
        (load_edge_list("s t\nt s\nu s\n"), ([0, 1, 2], [0, 0, 0, 0], [])),
        # s and b fold onto r, which reaches s through a and b: their
        # rows drop cells of r's DAG and recompute a, b and r
        (
            load_edge_list("r a\nr b\na s\na c\nb s\ns r\nc s\nc r\n"),
            ([0, 1, 4], [0, 2, 2, 2], [2, 3]),
        ),
        # thirty sources fold onto one hub, which reaches each of them
        (_hub_with_folds(30), ([0, 31, 32], [0, 30, 30, 30], list(range(1, 31)))),
    ],
    ids=["chain", "sink", "two-cycle", "source-in-root-dag", "hub-30"],
)
def test_fold_hand_cases(g, plan):
    roots, fold_ptr, folds = paths._fold_plan(*g.csr)
    assert (roots.tolist(), fold_ptr.tolist(), folds.tolist()) == plan
    assert _fold_mismatches(g) == []
    assert sorted(_folded_rows(g)) == plan[2]
    got = betweenness(g).values
    for a, b in zip(got, _brute_betweenness(g)):
        assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def test_fold_chain_values():
    # s -> c -> t: c carries s's paths to t; t's row, all zero, is skipped
    assert betweenness(load_edge_list("s c\nc t\n")).values == (0.0, 1.0, 0.0)
    # a hub that reaches each of its folded sources through x or y
    g = _hub_with_folds(30)
    got, want = betweenness(g).values, _networkx_betweenness(g)
    assert all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(got, want))
    assert got[0] > 0 and got[31] > 0


@st.composite
def _chained(draw):
    """A digraph where most nodes call exactly one other, so that chains of
    out-degree-1 nodes end at hubs, at sinks or in cycles; and a batch
    budget from one root per block up to several roots and their folds."""
    n = draw(st.integers(2, 40))
    arcs = []
    for u in range(n):
        calls = draw(st.sampled_from((0, 1, 1, 1, 1, 2, 3)))
        arcs += [(u, draw(st.integers(0, n - 1))) for _ in range(calls)]
    g = CallGraph.from_id_pairs(n, arcs)
    return g, draw(st.integers(1, 8)) * max(g.n, g.indices.size)


@settings(max_examples=150, deadline=None)
@given(_chained())
def test_folded_rows_match_direct_runs(case):
    g, cells = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_BATCH_CELLS", cells)
        assert _fold_mismatches(g) == []
        got = betweenness(g).values
    for a, b in zip(got, _networkx_betweenness(g)):
        assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


@pytest.mark.kernel_scale
def test_folded_rows_on_linux_sim(corpus_dir):
    # 50 sampled folded sources of the kernel-scale demo graph, each in
    # the block betweenness runs it in, against a forward pass of its own
    g = largest_wcc(load_graph(corpus_dir / "linux-2.6.12-rc2-sim.edges", "edgelist"))
    plan, spans = paths._brandes_blocks(g)
    fold_ptr, folds = plan[1:]
    assert folds.size > 1000
    picked = np.random.default_rng(7).choice(folds.size, 50, replace=False)
    ends = np.array([stop for _, stop in spans])
    blocks = {spans[i] for i in np.searchsorted(fold_ptr.take(ends), picked, "right").tolist()}
    rows = _folded_rows(g, sorted(blocks))
    sample = folds.take(picked).tolist()
    assert set(sample) <= set(rows)
    assert [s for s in sample if not np.array_equal(rows[s], _direct_row(g, s))] == []


@st.composite
def _relabelled(draw):
    n = draw(st.integers(2, 24))
    arcs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60)
    )
    perm = draw(st.permutations(range(n)))
    g = CallGraph.from_id_pairs(n, arcs)
    h = CallGraph.from_id_pairs(n, [(perm[u], perm[v]) for u, v in arcs])
    return g, h, perm


@settings(max_examples=60, deadline=None)
@given(_relabelled())
def test_traversal_metrics_invariant_under_relabelling(case):
    g, h, perm = case
    bg, bh = betweenness(g).values, betweenness(h).values
    for v in range(g.n):
        assert math.isclose(bg[v], bh[perm[v]], rel_tol=1e-9, abs_tol=1e-9)
    for directed in (False, True):
        assert harmonic_geodesic_mean(g, directed) == harmonic_geodesic_mean(
            h, directed
        )
    if max(len(row) for row in rows(*g.undirected.csr)) >= 2:
        for d_max in (1, 3):
            assert clustering_profile(g, d_max) == clustering_profile(h, d_max)
