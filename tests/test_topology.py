"""Assortativity, scale-free metric, clustering, profile, reciprocity."""

import math
from collections import Counter
from itertools import combinations
from math import fsum

import numpy as np
import pytest

from cgtopo import (
    InsufficientDataError,
    assortativity,
    clustering,
    clustering_by_degree_fit,
    clustering_profile,
    load_edge_list,
    neighbour_pair_distances,
    reciprocity,
    scale_free_metric,
    symmetrize,
)
from cgtopo.fixtures import (
    bridged_triangles,
    complete_graph,
    cycle_graph,
    hierarchical_graph,
    path_graph,
    star_graph,
)
from cgtopo import paths, topology
from cgtopo.generators import ERASED_CONFIG, GNM, RandomGraphSpec, generate_random
from cgtopo.graph import CallGraph, largest_wcc, load_graph
from cgtopo.topology import DISCONNECTED, ClusteringProfile, ScaleFreeResult

from conftest import rows


def test_scale_free_closed_forms():
    assert scale_free_metric(cycle_graph(5)).S == 1.0
    assert math.isclose(scale_free_metric(path_graph(3)).S, 0.8, abs_tol=1e-15)
    assert math.isclose(scale_free_metric(star_graph(3)).S, 0.6, abs_tol=1e-15)


def test_scale_free_s_and_s_max_are_exact_integers():
    g = bridged_triangles(4)
    res = scale_free_metric(g)
    und = symmetrize(g)
    adj = rows(*und.csr)
    deg = [len(row) for row in adj]
    s_direct = sum(deg[u] * deg[v] for u, row in enumerate(adj) for v in row if u < v)
    assert res.s == s_direct
    assert res.s_max == sum(d**3 for d in deg) // 2
    assert 0.0 <= res.S <= 1.0


def test_assortativity_star_is_minus_one():
    res = assortativity(star_graph(7), "total")
    assert abs(res.rho - (-1.0)) <= 1e-12


def test_assortativity_regular_graph_undefined():
    res = assortativity(cycle_graph(6), "total")
    assert res.rho is None
    assert "variance" in res.reason


def test_assortativity_modes_differ_on_directed_graph():
    g = load_edge_list("a b\nb c\nc a\na c\n")
    rin = assortativity(g, "in_in")
    rout = assortativity(g, "out_out")
    rtot = assortativity(g, "total")
    for r in (rin, rout, rtot):
        if r.rho is not None:
            assert -1.0 - 1e-12 <= r.rho <= 1.0 + 1e-12


def test_assortativity_matches_direct_pearson():
    # plain Pearson on the mirrored endpoint-pair multiset as oracle:
    # each directed edge contributes (j,k) and (k,j)
    g = generate_random(RandomGraphSpec(model=GNM, n=40, m=120, seed=1))
    und = symmetrize(g)
    deg = [len(row) for row in rows(*und.csr)]
    xs, ys = [], []
    for u, v in g.edges():
        xs.extend((deg[u], deg[v]))
        ys.extend((deg[v], deg[u]))
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(xs, ys)) / n
    sx = math.sqrt(sum((a - mx) ** 2 for a in xs) / n)
    sy = math.sqrt(sum((b - my) ** 2 for b in ys) / n)
    res = assortativity(g, "total")
    assert math.isclose(res.rho, cov / (sx * sy), abs_tol=1e-9)


def test_clustering_triangle_and_path():
    tri = clustering(cycle_graph(3))
    assert tri.global_c == 1.0
    assert all(v == 1.0 for v in tri.per_node)
    p = clustering(path_graph(3))
    assert p.global_c == 0.0
    assert p.defined_count == 1  # only the middle node has k >= 2
    assert p.per_node[0] is None and p.per_node[2] is None


def test_clustering_bridged_triangles_hand_value():
    res = clustering(bridged_triangles(10))
    assert math.isclose(res.global_c, 22.0 / 30.0, rel_tol=1e-15)


def test_clustering_star_all_zero():
    res = clustering(star_graph(5))
    assert res.global_c == 0.0
    assert res.per_node[0] == 0.0
    assert res.defined_count == 1


def test_clustering_matches_triangle_counting_oracle():
    g = generate_random(RandomGraphSpec(model=GNM, n=30, m=90, seed=3))
    und = symmetrize(g)
    neigh = [set(row) for row in rows(*und.csr)]
    res = clustering(g)
    for v, c in enumerate(res.per_node):
        if c is None:
            continue
        k = len(neigh[v])
        links = sum(1 for a, b in combinations(sorted(neigh[v]), 2) if b in neigh[a])
        assert c == links / (k * (k - 1) // 2)


def test_clustering_by_degree_fit_hierarchical_slope_negative():
    res = clustering(hierarchical_graph(3))
    fit = clustering_by_degree_fit(res)
    assert fit.slope < 0
    assert fit.n_points >= 4


def test_clustering_by_degree_fit_needs_three_points():
    with pytest.raises(InsufficientDataError):
        clustering_by_degree_fit(clustering(cycle_graph(3)))


def test_profile_triangle_all_distance_one():
    prof = clustering_profile(cycle_graph(3), d_max=3)
    assert prof.cells[1][2] == 1.0
    assert prof.beyond_fraction == 0.0
    assert prof.disconnected_fraction == 0.0


def test_profile_square_neighbours_at_distance_two():
    prof = clustering_profile(cycle_graph(4), d_max=3)
    assert prof.cells[2][2] == 1.0
    assert prof.cells[1].get(2, 0.0) == 0.0


def test_profile_star_neighbours_disconnected_without_hub():
    prof = clustering_profile(star_graph(4), d_max=3)
    assert prof.disconnected_fraction == 1.0
    assert prof.eligible_count == 1


def test_profile_beyond_bucket_with_tiny_d_max():
    prof = clustering_profile(cycle_graph(4), d_max=1)
    assert prof.beyond_fraction == 1.0


def test_profile_row_one_equals_by_degree():
    g = generate_random(RandomGraphSpec(model=GNM, n=60, m=240, seed=11))
    cl = clustering(g)
    prof = clustering_profile(g, d_max=6)
    assert prof.cells[1] == cl.by_degree


def test_neighbour_pair_mass_conserved():
    g = generate_random(RandomGraphSpec(model=GNM, n=40, m=140, seed=2))
    und = symmetrize(g)
    for v, row in enumerate(rows(*und.csr)):
        k = len(row)
        if k < 2:
            continue
        dist = neighbour_pair_distances(und, v)
        assert sum(dist.values()) == k * (k - 1) // 2


def test_reciprocity_hand_case():
    res = reciprocity(load_edge_list("a b\nb a\na c\n"))
    assert math.isclose(res.varrho, 2.0 / 3.0, rel_tol=1e-15)
    assert res.a_bar == 0.5
    assert abs(res.rho - 1.0 / 3.0) <= 1e-12


def test_reciprocity_three_cycle_is_antireciprocal():
    res = reciprocity(load_edge_list("a b\nb c\nc a\n"))
    assert abs(res.rho - (-1.0)) <= 1e-12


def test_reciprocity_complete_digraph_undefined():
    res = reciprocity(load_edge_list("a b\nb a\na c\nc a\nb c\nc b\n"))
    assert res.rho is None
    assert res.varrho == 1.0
    assert res.reason


def _reference_profile(g, d_max):
    """The per-node loop over ``neighbour_pair_distances``."""
    h = symmetrize(g)
    cell_values = {d: {} for d in range(1, d_max + 1)}
    aggregate_values = {d: [] for d in range(1, d_max + 1)}
    beyond_values, disconnected_values = [], []
    for i, row in enumerate(rows(*h.csr)):
        k = len(row)
        if k < 2:
            continue
        pairs = k * (k - 1) // 2
        counts = neighbour_pair_distances(h, i)
        per_d = Counter()
        for d, c in counts.items():
            per_d["disc" if d == DISCONNECTED else d if d <= d_max else "far"] += c
        for d in range(1, d_max + 1):
            aggregate_values[d].append(per_d[d] / pairs)
            cell_values[d].setdefault(k, []).append(per_d[d] / pairs)
        beyond_values.append(per_d["far"] / pairs)
        disconnected_values.append(per_d["disc"] / pairs)
    eligible = len(beyond_values)
    return ClusteringProfile(
        d_max=d_max,
        cells={
            d: {k: fsum(v) / len(v) for k, v in sorted(kv.items())}
            for d, kv in cell_values.items()
        },
        aggregate={d: fsum(v) / len(v) for d, v in aggregate_values.items()},
        beyond_fraction=fsum(beyond_values) / eligible,
        disconnected_fraction=fsum(disconnected_values) / eligible,
        eligible_count=eligible,
    )


def _two_cycles_sharing_a_vertex():
    pairs = [(i, (i + 1) % 5) for i in range(5)]
    pairs += [(0, 5), (5, 6), (6, 7), (7, 8), (8, 0)]
    return CallGraph.from_id_pairs(9, pairs)


def _random_tree(n, seed):
    rng = np.random.default_rng(seed)
    return CallGraph.from_id_pairs(
        n, [(int(rng.integers(0, v)), v) for v in range(1, n)]
    )


ARTICULATED = [
    bridged_triangles(10),
    star_graph(7),
    path_graph(9),
    _random_tree(40, 1),
    _two_cycles_sharing_a_vertex(),
    hierarchical_graph(3),
    generate_random(RandomGraphSpec(model=GNM, n=120, m=160, seed=6)),
    generate_random(RandomGraphSpec(model=ERASED_CONFIG, n=400, gamma=2.5, seed=2)),
]


@pytest.mark.parametrize("d_max", [1, 2, 6])
@pytest.mark.parametrize("index", range(len(ARTICULATED)))
def test_profile_matches_per_node_reference(index, d_max):
    g = ARTICULATED[index]
    assert clustering_profile(g, d_max) == _reference_profile(g, d_max)


def test_profile_counts_match_neighbour_pair_distances():
    for g in ARTICULATED:
        h = symmetrize(g)
        for d_max in (1, 2, 6):
            got = topology._pair_classes(h, d_max)
            for i in range(h.n):
                want = [0] * (d_max + 2)
                for d, c in neighbour_pair_distances(h, i).items():
                    want[0 if d == DISCONNECTED else min(d, d_max + 1)] += c
                assert got[i].tolist() == want


def test_edge_blocks_match_networkx():
    nx = pytest.importorskip("networkx")
    graphs = ARTICULATED + [
        generate_random(RandomGraphSpec(model=GNM, n=2000, m=2600, seed=9)),
        # the demo powerlaw-2.5 fixture: 1,343 blocks
        generate_random(RandomGraphSpec(model=ERASED_CONFIG, n=10_000, gamma=2.5, seed=7)),
    ]
    for g in graphs:
        h = symmetrize(g)
        labels = topology._edge_blocks(h)
        arc = {
            (u, v): int(labels[h.indptr[u] + a])
            for u, row in enumerate(rows(*h.csr))
            for a, v in enumerate(row)
        }
        got: dict[int, set] = {}
        for (u, v), label in arc.items():
            assert arc[v, u] == label
            got.setdefault(label, set()).add(frozenset((u, v)))
        ug = nx.Graph(list(h.edges()))
        want = {
            frozenset(frozenset(e) for e in block)
            for block in nx.biconnected_component_edges(ug)
        }
        assert {frozenset(edges) for edges in got.values()} == want


def test_edge_blocks_beyond_int32_arc_codes():
    # n * n exceeds 2**31 from n = 46,341 on
    h = symmetrize(bridged_triangles(17_000))
    labels = topology._edge_blocks(h)
    assert len(set(labels.tolist())) == 17_000 + 16_999
    adj = rows(*h.csr)
    for u in (0, 3, h.n - 3, h.n - 1):
        for a, v in enumerate(adj[u]):
            back = h.indptr[v] + adj[v].index(u)
            assert labels[h.indptr[u] + a] == labels[back]


def test_edge_blocks_of_a_large_star_in_linear_time():
    # every edge is a block of its own; the search reads each arc once,
    # where one that rescans the hub's row on each return reads 2e5**2
    leaves = 200_000
    h = symmetrize(star_graph(leaves))
    labels = topology._edge_blocks(h)
    hub = labels[:leaves]
    assert len(set(hub.tolist())) == leaves
    # the arc back from each leaf, its only arc, shares the hub arc's label
    assert labels[leaves:].tolist() == hub.tolist()


@pytest.mark.parametrize("rows", [63, 64, 65, 130])
def test_profile_row_batches(monkeypatch, rows):
    # every node of a triangle or a square leads one search row with one
    # pair, at distance 1 or 2; a 1-cell budget runs one row per batch,
    # 512 cells at most 64 pairs (so 64 rows) per batch
    triangles = next(t for t in range(4) if (rows - 3 * t) % 4 == 0)
    pairs = []
    for size in [3] * triangles + [4] * ((rows - 3 * triangles) // 4):
        base = len({v for e in pairs for v in e})
        pairs += [(base + i, base + (i + 1) % size) for i in range(size)]
    g = CallGraph.from_id_pairs(rows, pairs)
    for d_max in (1, 2):
        want = _reference_profile(g, d_max)
        assert want.beyond_fraction == (d_max == 1) * (rows - 3 * triangles) / rows
        for cells in (1, 512, paths._BATCH_CELLS):
            monkeypatch.setattr(paths, "_BATCH_CELLS", cells)
            assert clustering_profile(g, d_max) == want


_LARGE = [
    generate_random(RandomGraphSpec(model=ERASED_CONFIG, n=2000, gamma=2.5, seed=4)),
    generate_random(RandomGraphSpec(model=ERASED_CONFIG, n=600, gamma=2.5, seed=5)),
    generate_random(RandomGraphSpec(model=GNM, n=1500, m=9000, seed=6)),
    generate_random(RandomGraphSpec(model=GNM, n=300, m=3000, seed=7)),
]


@pytest.mark.parametrize("g", _LARGE)
def test_clustering_matches_networkx_on_large_graphs(g):
    nx = pytest.importorskip("networkx")
    ug = nx.Graph()
    ug.add_nodes_from(range(g.n))
    ug.add_edges_from(g.undirected.edges())
    want = nx.clustering(ug)
    res = clustering(g)
    defined = [v for v in range(g.n) if ug.degree(v) >= 2]
    assert res.defined_count == len(defined)
    for v in range(g.n):
        assert res.per_node[v] == (want[v] if v in ug and ug.degree(v) >= 2 else None)
    assert math.isclose(
        res.global_c, fsum(want[v] for v in defined) / len(defined), rel_tol=1e-12
    )


def test_clustering_row_blocks(monkeypatch):
    g = _LARGE[1]
    want = clustering(g)
    for cells in (1, 700):
        monkeypatch.setattr(paths, "_BATCH_CELLS", cells)
        assert clustering(g) == want


@pytest.mark.parametrize("g", _LARGE)
@pytest.mark.parametrize("mode", ["in_in", "out_out", "total"])
def test_assortativity_matches_corrcoef_on_large_graphs(g, mode):
    deg = {
        "in_in": np.bincount([v for _, v in g.edges()], minlength=g.n),
        "out_out": np.bincount([u for u, _ in g.edges()], minlength=g.n),
        "total": np.array([len(row) for row in rows(*g.undirected.csr)]),
    }[mode]
    arcs = np.array(list(g.edges()))
    x = np.concatenate((deg[arcs[:, 0]], deg[arcs[:, 1]]))
    y = np.concatenate((deg[arcs[:, 1]], deg[arcs[:, 0]]))
    want = np.corrcoef(x, y)[0, 1]
    assert math.isclose(assortativity(g, mode).rho, want, rel_tol=1e-9, abs_tol=1e-12)


@pytest.mark.parametrize("g", _LARGE)
def test_reciprocity_and_scale_free_match_set_counts(g):
    arcs = set(g.edges())
    res = reciprocity(g)
    assert res.varrho == sum((v, u) in arcs for u, v in arcs) / len(arcs)
    assert res.a_bar == len(arcs) / (g.n * (g.n - 1))
    edges = {(min(u, v), max(u, v)) for u, v in arcs}
    deg = Counter(x for e in edges for x in e)
    s = sum(deg[u] * deg[v] for u, v in edges)
    s_max = sum(d**3 for d in deg.values()) // 2
    assert scale_free_metric(g) == ScaleFreeResult(s=float(s), s_max=float(s_max), S=s / s_max)


@pytest.mark.kernel_scale
def test_pair_classes_on_linux_sim(corpus_dir):
    # the profile identities on the largest WCC of the kernel-scale demo
    # graph, and 50 seeded nodes against the one-node oracle
    g = largest_wcc(load_graph(corpus_dir / "linux-2.6.12-rc2-sim.edges", "edgelist"))
    assert (g.n, g.m) == (20_165, 70_010)
    h = g.undirected
    d_max = 6
    classes = topology._pair_classes(h, d_max)
    k = h.out_degrees
    assert classes.sum(axis=1).tolist() == (k * (k - 1) // 2).tolist()
    assert classes[:, 1].tolist() == topology._triangles(h).tolist()
    eligible = np.flatnonzero(k >= 2)
    sample = np.random.default_rng(7).choice(eligible, 50, replace=False)
    for v in sample.tolist():
        dist = neighbour_pair_distances(h, v)
        beyond = sum(c for d, c in dist.items() if d != DISCONNECTED and d > d_max)
        want = [dist[DISCONNECTED], *(dist[d] for d in range(1, d_max + 1)), beyond]
        assert classes[v].tolist() == want
