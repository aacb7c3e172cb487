"""Acceptance gate: one test per shipped claim, pinned tolerances.

Each test is self-contained (oracles inlined) so a failure names the
criterion directly in the pytest -v output.
"""

import math
import time
from collections import deque

import numpy as np

from cgtopo import (
    AnalysisConfig,
    SisParams,
    analyze,
    analyze_corpus,
    assortativity,
    betweenness,
    clustering,
    clustering_profile,
    harmonic_geodesic_mean,
    load_edge_list,
    neighbour_pair_distances,
    reciprocity,
    scale_free_metric,
    sis_simulate,
    spectral_radius,
    strongly_connected_components,
    symmetrize,
    threshold_sweep,
    to_json,
)
from cgtopo.degree import (
    DegreeSequence,
    compare_fits,
    fit_exponential,
    fit_power_law,
)
from cgtopo.fixtures import (
    bridged_triangles,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from cgtopo.generators import GNM, RandomGraphSpec, generate_random, sample_power_law
from cgtopo.report import CORPUS_DEFAULT_METRICS, METRICS, corpus_summary_csv

from conftest import rows


def _bfs_counts(adj, src):
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


def test_criterion_01_betweenness_matches_brute_force():
    # 200 random digraphs, n <= 8, exact within 1e-9, under 10 s
    start = time.monotonic()
    checked = 0
    for seed in range(200):
        n = 3 + seed % 6
        max_m = n * (n - 1)
        m = 2 + seed % (max_m - 2)
        g = generate_random(RandomGraphSpec(model=GNM, n=n, m=m, seed=seed))
        got = betweenness(g).values
        tables = [_bfs_counts(rows(*g.csr), s) for s in range(g.n)]
        want = [0.0] * g.n
        for s in range(g.n):
            dist_s, sigma_s = tables[s]
            for t in dist_s:
                if t == s:
                    continue
                for v in dist_s:
                    if v in (s, t):
                        continue
                    dist_v, sigma_v = tables[v]
                    if t in dist_v and dist_s[v] + dist_v[t] == dist_s[t]:
                        want[v] += sigma_s[v] * sigma_v[t] / sigma_s[t]
        for a, b in zip(got, want):
            assert abs(a - b) <= 1e-9
        checked += 1
    assert checked == 200
    assert time.monotonic() - start < 10.0


def test_criterion_02_scc_matches_reachability_brute_force():
    # 100 random digraphs, n <= 50, identical partitions, under 5 s
    start = time.monotonic()
    for seed in range(100):
        n = 5 + seed % 46
        m = min(2 * n, n * (n - 1))
        g = generate_random(RandomGraphSpec(model=GNM, n=n, m=m, seed=1000 + seed))
        fwd = [frozenset(_bfs_counts(rows(*g.csr), s)[0]) for s in range(g.n)]
        bwd = [frozenset(_bfs_counts(rows(*g.in_csr), s)[0]) for s in range(g.n)]
        want = {frozenset(fwd[v] & bwd[v]) for v in range(g.n)}
        got = {frozenset(c) for c in strongly_connected_components(g)}
        assert got == want
    assert time.monotonic() - start < 5.0


def test_criterion_03_spectral_radius_against_dense_oracle():
    def dense_lambda(g):
        und = g.undirected
        adj = rows(*und.csr)
        a = np.zeros((und.n, und.n))
        for u in range(und.n):
            for v in adj[u]:
                a[u, v] = 1.0
        best = 0.0
        seen = set()
        for s in range(und.n):
            if s in seen:
                continue
            comp, stack = {s}, [s]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in comp:
                        comp.add(y)
                        stack.append(y)
            seen |= comp
            idx = sorted(comp)
            best = max(best, float(np.linalg.eigvalsh(a[np.ix_(idx, idx)])[-1]))
        return best

    fixtures = (
        [path_graph(k) for k in range(2, 21, 3)]
        + [cycle_graph(k) for k in range(3, 21, 3)]
        + [star_graph(k) for k in range(2, 20, 3)]
        + [complete_graph(k) for k in range(3, 10)]
        + [bridged_triangles(k) for k in (2, 4, 6)]
    )
    for g in fixtures:
        assert g.n <= 20
        res = spectral_radius(g)
        assert abs(res.lambda1 - dense_lambda(g)) <= 1e-6
    # closed forms: star(L) -> sqrt(L), K_n -> n-1
    for leaves in (4, 16, 25, 64, 100):
        assert abs(spectral_radius(star_graph(leaves)).lambda1 - math.sqrt(leaves)) <= 1e-6
    for n in range(3, 11):
        assert abs(spectral_radius(complete_graph(n)).lambda1 - (n - 1)) <= 1e-6


def test_criterion_04_power_law_mle_recovery_and_verdicts():
    # 50 seeds of 1e5 samples at gamma 2.5: recovery in [2.4, 2.6] and
    # correct verdicts on both synthetic families, >= 48/50 each, < 60 s
    start = time.monotonic()
    recovered = 0
    verdict_pl = 0
    verdict_geo = 0
    for seed in range(50):
        rng = np.random.Generator(np.random.PCG64(seed))
        xs = sample_power_law(2.5, 100_000, rng)
        seq = DegreeSequence(mode="in", values=tuple(int(v) for v in xs))
        fit = fit_power_law(seq)
        if 2.4 <= fit.gamma <= 2.6:
            recovered += 1
        ex = fit_exponential(seq, fit.x_min)
        if compare_fits(fit, ex, seq).verdict == "power_law":
            verdict_pl += 1

        rng2 = np.random.Generator(np.random.PCG64(10_000 + seed))
        geo = rng2.geometric(0.3, size=100_000)
        seq2 = DegreeSequence(mode="in", values=tuple(int(v) for v in geo))
        pl2 = fit_power_law(seq2, x_min=1)
        ex2 = fit_exponential(seq2, 1)
        if compare_fits(pl2, ex2, seq2).verdict == "exponential":
            verdict_geo += 1
    assert recovered >= 48
    assert verdict_pl >= 48
    assert verdict_geo >= 48
    assert time.monotonic() - start < 60.0


def test_criterion_05_closed_form_identities():
    tol = 1e-12
    assert abs(scale_free_metric(cycle_graph(5)).S - 1.0) <= tol
    assert abs(scale_free_metric(path_graph(3)).S - 0.8) <= tol
    assert abs(scale_free_metric(star_graph(3)).S - 0.6) <= tol
    assert abs(assortativity(star_graph(3), "total").rho - (-1.0)) <= tol
    assert abs(reciprocity(load_edge_list("a b\nb a\na c\n")).rho - 1 / 3) <= tol
    assert abs(reciprocity(load_edge_list("a b\nb c\nc a\n")).rho - (-1.0)) <= tol
    assert abs(harmonic_geodesic_mean(complete_graph(4)).harmonic_mean_ell - 1.0) <= tol
    chain = load_edge_list("a b\nb c\n")
    assert abs(harmonic_geodesic_mean(chain, directed=True).harmonic_mean_ell - 2.4) <= tol


def test_criterion_06_clustering_profile_identity():
    # cell[1][k] == by_degree[k] bit-exactly on 50 random graphs, and
    # every node's neighbour-pair mass lands in exactly one bucket
    for seed in range(50):
        g = generate_random(RandomGraphSpec(model=GNM, n=60, m=240, seed=seed))
        cl = clustering(g)
        prof = clustering_profile(g, d_max=6)
        assert prof.cells[1] == cl.by_degree
    for seed in range(5):
        g = generate_random(RandomGraphSpec(model=GNM, n=60, m=240, seed=seed))
        und = symmetrize(g)
        for v, row in enumerate(rows(*und.csr)):
            k = len(row)
            if k < 2:
                continue
            assert sum(neighbour_pair_distances(und, v).values()) == k * (k - 1) // 2


def test_criterion_07_epidemic_threshold_on_star():
    # star n=101, beta_c = 0.1: ratios 0.05 and 5.0 bracket the
    # threshold; sweep is monotone up to 2 adjacent inversions; < 30 s
    start = time.monotonic()
    g = star_graph(100)
    extinct_low = 0
    for run in range(200):
        params = SisParams(
            beta=0.05, delta=1.0, initial_infected=(0,), max_steps=500, seed=run
        )
        if sis_simulate(g, params).outcome == "extinct":
            extinct_low += 1
    assert extinct_low / 200 >= 0.95

    extinct_high = 0
    for run in range(200):
        params = SisParams(
            beta=0.5, delta=0.1, initial_infected=(0,), max_steps=500, seed=run
        )
        if sis_simulate(g, params).outcome == "extinct":
            extinct_high += 1
    assert extinct_high / 200 <= 0.5

    base = SisParams(beta=0.0, delta=0.1, initial_infected=(0,), max_steps=500, seed=77)
    ratios = [0.025, 0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4, 10.0]
    sweep = threshold_sweep(g, ratios, 100, base)
    inversions = sum(
        1
        for a, b in zip(sweep.extinction_prob, sweep.extinction_prob[1:])
        if b > a
    )
    assert inversions <= 2
    assert time.monotonic() - start < 30.0


def test_criterion_08_clustering_orders_above_random_baseline():
    observed = clustering(bridged_triangles(10)).global_c
    baseline = []
    for seed in range(30):
        h = generate_random(RandomGraphSpec(model=GNM, n=30, m=39, seed=seed))
        c = clustering(h).global_c
        if c is not None:
            baseline.append(c)
    assert len(baseline) == 30
    assert observed / (sum(baseline) / len(baseline)) > 5.0


def test_criterion_09_byte_identical_determinism(corpus_dir, tmp_path):
    src = corpus_dir / "bridged-triangles.edges"
    cfg = AnalysisConfig(input_path=str(src), metrics=tuple(METRICS), seed=11)
    assert to_json(analyze(cfg)) == to_json(analyze(cfg))

    # corpus: parallel workers must not change a single byte
    small = tmp_path / "small.tsv"
    keep = ("bridged-triangles", "hierarchical-125", "star-101")
    lines = (corpus_dir / "manifest.tsv").read_text().splitlines()
    small.write_text(
        "\n".join(l for l in lines if l.split("\t")[0] in keep) + "\n",
        encoding="utf-8",
    )
    ccfg = AnalysisConfig(
        input_path=str(small), metrics=tuple(CORPUS_DEFAULT_METRICS), seed=11
    )
    serial = to_json(analyze_corpus(small, ccfg, jobs=1))
    parallel = to_json(analyze_corpus(small, ccfg, jobs=3))
    assert serial == parallel


def test_criterion_10_corpus_end_to_end(corpus_dir):
    # >= 5 fixtures including the erased-configuration graph at n=1e4,
    # full summary emitted, fitted indegree exponent in band, < 120 s
    start = time.monotonic()
    manifest = corpus_dir / "manifest.tsv"
    cfg = AnalysisConfig(
        input_path=str(manifest), metrics=tuple(CORPUS_DEFAULT_METRICS), seed=7
    )
    result = analyze_corpus(manifest, cfg, jobs=1)
    assert time.monotonic() - start < 120.0
    assert result["failures"] == 0
    rows = {row["label"]: row for row in result["summary"]}
    assert len(rows) >= 5
    power = rows["powerlaw-2.5"]
    assert power["n"] == 10_000
    assert 2.3 <= power["gamma_in"] <= 2.9
    csv_text = corpus_summary_csv(result)
    lines = csv_text.strip().splitlines()
    assert len(lines) == 1 + len(rows)
    header = lines[0].split(",")
    for needed in ("label", "n", "m", "gamma_in", "lambda1", "beta_c", "global_c"):
        assert needed in header
