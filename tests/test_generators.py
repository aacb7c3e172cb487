"""Random graph generators and bundled demo fixtures."""

import numpy as np
import pytest

from cgtopo import RandomGraphSpec, SpecError, generate_random, sample_power_law
from cgtopo.fixtures import (
    bridged_triangles,
    hierarchical_graph,
    permutation_core_graph,
    star_graph,
)
from cgtopo.generators import ERASED_CONFIG, GNM, _gnm_edges
from cgtopo.graph import CallGraph, InputError, to_edge_list

from conftest import rows


def test_gnm_exact_edge_count_and_simplicity():
    for seed in range(100):
        g = generate_random(RandomGraphSpec(model=GNM, n=50, m=200, seed=seed))
        assert g.n == 50
        assert g.m == 200
        seen = set()
        for u, v in g.edges():
            assert u != v
            assert (u, v) not in seen
            seen.add((u, v))


def test_gnm_complete_graph_boundary():
    g = generate_random(RandomGraphSpec(model=GNM, n=10, m=90, seed=7))
    assert g.m == 90
    assert all(len(row) == 9 for row in rows(*g.csr))


def test_gnm_deterministic():
    a = generate_random(RandomGraphSpec(model=GNM, n=1000, m=5000, seed=42))
    b = generate_random(RandomGraphSpec(model=GNM, n=1000, m=5000, seed=42))
    assert rows(*a.csr) == rows(*b.csr)
    c = generate_random(RandomGraphSpec(model=GNM, n=1000, m=5000, seed=43))
    assert rows(*a.csr) != rows(*c.csr)


def test_gnm_rejects_impossible_m():
    with pytest.raises(SpecError):
        generate_random(RandomGraphSpec(model=GNM, n=5, m=21, seed=1))


def test_spec_validation():
    with pytest.raises(SpecError):
        generate_random(RandomGraphSpec(model="nope", n=5, m=2, seed=1))
    with pytest.raises(SpecError):
        generate_random(RandomGraphSpec(model=GNM, n=0, m=0, seed=1))
    with pytest.raises(SpecError, match="seed"):
        generate_random(RandomGraphSpec(model=GNM, n=5, m=2, seed=-1))
    with pytest.raises(SpecError):
        generate_random(
            RandomGraphSpec(model=ERASED_CONFIG, n=100, m=0, gamma=0.9, seed=1)
        )
    with pytest.raises(SpecError):
        generate_random(RandomGraphSpec(model=ERASED_CONFIG, n=100, m=0, seed=1))


def test_erased_configuration_simple_and_deterministic():
    spec = RandomGraphSpec(model=ERASED_CONFIG, n=2000, gamma=2.5, seed=5)
    a = generate_random(spec)
    b = generate_random(spec)
    assert rows(*a.csr) == rows(*b.csr)
    seen = set()
    for u, v in a.edges():
        assert u != v
        assert (u, v) not in seen
        seen.add((u, v))


def test_erased_configuration_heavy_indegree_tail():
    g = generate_random(RandomGraphSpec(model=ERASED_CONFIG, n=5000, gamma=2.5, seed=9))
    indeg = sorted((len(s) for s in rows(*g.in_csr)), reverse=True)
    # a power-law tail puts the max far above the mean
    assert indeg[0] > 10 * (sum(indeg) / len(indeg))


def test_sampler_gamma_validation():
    rng = np.random.Generator(np.random.PCG64(1))
    with pytest.raises(SpecError):
        sample_power_law(1.0, 10, rng)
    with pytest.raises(SpecError):
        sample_power_law(2.5, 10, rng, x_min=0)


def test_fixture_shapes():
    assert star_graph(100).n == 101
    assert bridged_triangles(10).n == 30
    assert bridged_triangles(10).m == 39
    h = hierarchical_graph(3)
    assert h.n == 125
    assert h.m == 394


def test_permutation_core_graph_exact_counts_no_isolated():
    g = permutation_core_graph(500, 1700, seed=3)
    assert g.n == 500
    assert g.m == 1700
    for out_row, in_row in zip(rows(*g.csr), rows(*g.in_csr)):
        assert out_row or in_row


def test_demo_corpus_manifests(corpus_dir):
    manifest = (corpus_dir / "manifest.tsv").read_text().splitlines()
    assert len(manifest) == 5
    full = (corpus_dir / "manifest-full.tsv").read_text().splitlines()
    assert len(full) == 6
    assert any("linux" in line for line in full)
    for line in manifest:
        fields = line.split("\t")
        assert len(fields) == 6
        assert (corpus_dir / fields[3]).exists()


# The per-edge loops that the array draws replaced, kept as oracles: the
# arrays must keep exactly the pairs these keep, so edge lists match.


def _loop_permutation_core_graph(n, m, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(n)
    pairs = [(int(perm[i]), int(perm[(i + 1) % n])) for i in range(n)]
    chosen = set(pairs)
    while len(chosen) < m:
        batch = rng.integers(0, n, size=(2 * (m - len(chosen)) + 16, 2))
        for u, v in batch:
            if u == v:
                continue
            edge = (int(u), int(v))
            if edge not in chosen:
                chosen.add(edge)
                pairs.append(edge)
                if len(chosen) == m:
                    break
    return CallGraph.from_id_pairs(n, pairs)


def _loop_gnm_edges(n, m, rng):
    total = n * (n - 1)
    if m * 3 >= total:
        codes = rng.permutation(total)[:m]
    else:
        chosen, codes = set(), []
        while len(codes) < m:
            for code in rng.integers(0, total, size=max(64, 2 * (m - len(codes)))):
                c = int(code)
                if c not in chosen:
                    chosen.add(c)
                    codes.append(c)
                    if len(codes) == m:
                        break
        codes = np.array(codes, dtype=np.int64)
    u = codes // (n - 1)
    r = codes % (n - 1)
    v = r + (r >= u)
    return list(zip(u.tolist(), v.tolist()))


def _loop_generate_random(spec):
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    if spec.model == GNM:
        pairs = _loop_gnm_edges(spec.n, spec.m, rng)
    else:
        indeg = sample_power_law(spec.gamma, spec.n, rng)
        outdeg = rng.multinomial(int(indeg.sum()), np.full(spec.n, 1.0 / spec.n))
        out_stubs = np.repeat(np.arange(spec.n), outdeg)
        in_stubs = np.repeat(np.arange(spec.n), indeg)
        rng.shuffle(in_stubs)
        pairs = list(zip(out_stubs.tolist(), in_stubs.tolist()))
    return CallGraph.from_id_pairs(spec.n, pairs)


def _same_text(g, h):
    assert (g.dropped_self_loops, g.dropped_duplicates) == (
        h.dropped_self_loops, h.dropped_duplicates
    )
    assert to_edge_list(g, drop_isolated=True) == to_edge_list(h, drop_isolated=True)


@pytest.mark.parametrize("seed", [7, 8])
@pytest.mark.parametrize(
    "n, m",
    # m == n (the cycle alone), m == n(n-1) (complete), small and sparse
    # shapes, and the density of the kernel-scale fixture
    [(2, 2), (3, 3), (3, 6), (7, 42), (9, 20), (40, 300), (5000, 17359)],
)
def test_permutation_core_graph_matches_edge_loop(seed, n, m):
    _same_text(permutation_core_graph(n, m, seed), _loop_permutation_core_graph(n, m, seed))


def test_permutation_core_graph_matches_edge_loop_at_kernel_scale():
    g = permutation_core_graph(20165, 70010, 7)
    _same_text(g, _loop_permutation_core_graph(20165, 70010, 7))


@pytest.mark.parametrize("seed", [7, 8])
@pytest.mark.parametrize(
    "n, m",
    # 3m >= n(n-1) takes a prefix of one permutation of all codes
    [(2, 0), (2, 1), (2, 2), (10, 29), (10, 30), (10, 90), (50, 200), (2000, 8000)],
)
def test_gnm_matches_code_loop(seed, n, m):
    spec = RandomGraphSpec(model=GNM, n=n, m=m, seed=seed)
    assert _gnm_edges(n, m, np.random.Generator(np.random.PCG64(seed))).tolist() == [
        list(p) for p in _loop_gnm_edges(n, m, np.random.Generator(np.random.PCG64(seed)))
    ]
    _same_text(generate_random(spec), _loop_generate_random(spec))


@pytest.mark.parametrize("seed", [7, 8])
@pytest.mark.parametrize("n", [2, 50, 2000, 10_000])
def test_erased_configuration_matches_pair_list(seed, n):
    spec = RandomGraphSpec(model=ERASED_CONFIG, n=n, gamma=2.5, seed=seed)
    _same_text(generate_random(spec), _loop_generate_random(spec))


def test_from_id_pairs_takes_arrays_and_pair_lists_alike():
    pairs = [(0, 1), (1, 0), (2, 2), (0, 1), (3, 2)]
    want = CallGraph.from_id_pairs(4, pairs)
    got = CallGraph.from_id_pairs(4, np.array(pairs))
    assert (got.indptr.tolist(), got.indices.tolist()) == (
        want.indptr.tolist(), want.indices.tolist()
    )
    assert (got.dropped_self_loops, got.dropped_duplicates) == (1, 1)
    assert CallGraph.from_id_pairs(4, np.empty((0, 2), dtype=np.int64)).m == 0
    for bad in ([(0, 1, 2), (1, 2, 3)], np.zeros((3, 3), dtype=np.int64)):
        with pytest.raises(InputError, match="expected"):
            CallGraph.from_id_pairs(4, bad)
