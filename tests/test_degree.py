"""Degree sequences, CCDFs, and maximum-likelihood tail fits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta

from cgtopo import (
    CallGraphError,
    DegenerateSampleError,
    DegreeSequence,
    InputError,
    compare_fits,
    degree_sequence,
    degree_summary,
    empirical_ccdf,
    fit_exponential,
    fit_power_law,
    load_edge_list,
    sample_power_law,
    spectral_radius,
    weak_components,
)
from cgtopo.degree import (
    _GAMMA_BOUNDS,
    _minimize_bounded,
    _mle_gamma,
    _power_law_loglik,
    _zeta,
)
from cgtopo.graph import CallGraph
from cgtopo.topology import ASSORTATIVITY_MODES, assortativity, clustering, reciprocity


def test_degree_sequence_directed_chain():
    g = load_edge_list("a b\nb c\n")
    assert degree_sequence(g, "in").values == (0, 1, 1)
    assert degree_sequence(g, "out").values == (1, 1, 0)


def test_degree_sequence_total_is_in_plus_out():
    g = load_edge_list("h a\nh b\nh c\n")
    assert sorted(degree_sequence(g, "total").values) == [1, 1, 1, 3]


def test_degree_sequence_unknown_mode():
    g = load_edge_list("a b\n")
    with pytest.raises(InputError):
        degree_sequence(g, "sideways")


def test_empirical_ccdf_direct_counting():
    seq = DegreeSequence(mode="in", values=(1, 1, 2, 4))
    assert empirical_ccdf(seq) == [(1, 0.5), (2, 0.25), (4, 0.0)]


def test_empirical_ccdf_degenerate_and_zero():
    assert empirical_ccdf(DegreeSequence("in", (5, 5, 5))) == [(5, 0.0)]
    assert empirical_ccdf(DegreeSequence("in", (0, 1))) == [(0, 0.5), (1, 0.0)]


def test_empirical_ccdf_matches_brute_force_on_random_sample():
    rng = np.random.Generator(np.random.PCG64(2))
    vals = tuple(int(v) for v in rng.integers(0, 12, size=400))
    seq = DegreeSequence("out", vals)
    for d, p in empirical_ccdf(seq):
        assert p == sum(1 for v in vals if v > d) / len(vals)


def test_degree_summary_mean_and_unbiased_variance():
    s = degree_summary(DegreeSequence("in", (1, 2, 3, 4)))
    assert s.mean == 2.5
    assert math.isclose(s.variance, 5.0 / 3.0, rel_tol=1e-15)
    assert degree_summary(DegreeSequence("in", (7,))).variance == 0.0


def test_power_law_gamma_recovery_single_seed():
    rng = np.random.Generator(np.random.PCG64(0))
    xs = sample_power_law(2.5, 100_000, rng)
    fit = fit_power_law(DegreeSequence("in", tuple(int(v) for v in xs)))
    assert 2.4 <= fit.gamma <= 2.6
    assert fit.x_min == 1
    assert 0.0 <= fit.ks_stat <= 1.0


def test_power_law_mle_matches_grid_search_oracle():
    # independent coarse maximizer over the same likelihood surface
    rng = np.random.Generator(np.random.PCG64(5))
    xs = sample_power_law(2.2, 20_000, rng)
    vals = tuple(int(v) for v in xs)
    fit = fit_power_law(DegreeSequence("in", vals), x_min=1)
    log_sum = math.fsum(math.log(v) for v in vals)
    n = len(vals)
    grid = np.arange(1.01, 6.0, 1e-3)
    liks = [-g * log_sum - n * math.log(zeta(g, 1)) for g in grid]
    best = grid[int(np.argmax(liks))]
    assert abs(fit.gamma - best) < 2e-3


def _scipy_gamma(log_sum, n_tail, x_min, maxfun=500):
    """The MLE as scipy's bounded Brent finds it: the port's oracle."""
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(
        lambda t: -_power_law_loglik(t, log_sum, n_tail, x_min),
        bounds=_GAMMA_BOUNDS,
        method="bounded",
        options={"xatol": 1e-9, "maxiter": maxfun},
    )
    return float(res.x), int(res.status)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 5000),
    st.integers(2, 200_000),
    st.floats(1e-9, 20.0),
)
def test_mle_port_is_bit_identical_to_scipy(x_min, n_tail, mean_excess_log):
    # every tail value is >= x_min, so the mean log is at least log(x_min)
    log_sum = n_tail * (math.log(x_min) + mean_excess_log)
    assert _mle_gamma(log_sum, n_tail, x_min) == _scipy_gamma(log_sum, n_tail, x_min)[0]


@pytest.mark.parametrize(
    "log_sum, n_tail, x_min, bound",
    [
        # every value equal to x_min: the likelihood rises without limit in gamma
        (10 * math.log(1000), 10, 1000, _GAMMA_BOUNDS[1]),
        (50 * math.log(5), 50, 5, _GAMMA_BOUNDS[1]),
        # a mean log far above any finite gamma's: the optimum is gamma -> 1
        (1e12, 10, 1, _GAMMA_BOUNDS[0]),
        (1e13, 1000, 3, _GAMMA_BOUNDS[0]),
    ],
)
def test_mle_port_optimum_at_a_bound(log_sum, n_tail, x_min, bound):
    gamma = _mle_gamma(log_sum, n_tail, x_min)
    want, status = _scipy_gamma(log_sum, n_tail, x_min)
    assert gamma == want
    assert status == 0
    assert abs(gamma - bound) < 2e-6


@pytest.mark.parametrize("maxfun", [1, 2, 5, 9])
def test_mle_port_stops_at_maxfun_like_scipy(maxfun):
    log_sum, n_tail, x_min = 1234.5, 300, 2
    want, status = _scipy_gamma(log_sum, n_tail, x_min, maxfun)
    assert status == 1  # scipy: maximum number of function calls reached
    calls = []

    def f(t):
        calls.append(t)
        return -_power_law_loglik(t, log_sum, n_tail, x_min)

    assert _minimize_bounded(f, _GAMMA_BOUNDS, maxfun=maxfun) == want
    # the limit is checked after the first step, as in scipy
    assert len(calls) == max(maxfun, 2)


def _same_bits(got, want) -> bool:
    return np.array_equal(np.asarray(got, dtype=np.float64), want)


def test_zeta_port_is_bit_identical_to_scipy_on_a_grid():
    rng = np.random.Generator(np.random.PCG64(15))
    for s, q in zip(1.0 + 5.0 * (1.0 - rng.random(4000)), rng.integers(1, 100_001, 4000)):
        assert _same_bits(_zeta(float(s), int(q)), zeta(s, q)), (s, q)


def test_zeta_port_takes_an_array_q_like_scipy():
    # as the KS distance passes it: the distinct tail degrees plus one
    q = np.array([2, 3, 4, 7, 12, 40, 41, 300, 5000, 100_000], dtype=np.int64)
    for s in (1.5, 2.2, 2.5, 3.7, 50.0):
        got = _zeta(s, q)
        assert got.shape == q.shape
        assert _same_bits(got, zeta(s, q))


@pytest.mark.parametrize("q", [1e8, 1e8 + 1, 2.5e8, 1e10, 3e15])
def test_zeta_port_asymptotic_branch(q):
    for s in (1.0 + 1e-9, 1.5, 2.5, 6.0):
        assert _same_bits(_zeta(s, q), zeta(s, q)), (s, q)


@pytest.mark.parametrize("gap", [1e-12, 1e-9, 1e-6, 1e-3])
def test_zeta_port_near_s_one(gap):
    # the fit's lower gamma bound is 1 + 1e-9
    for q in (1, 2, 9, 10, 1000, 10**7):
        assert _same_bits(_zeta(1.0 + gap, q), zeta(1.0 + gap, q)), (gap, q)


def test_power_law_pinned_x_min_skips_scan():
    seq = DegreeSequence("in", (1, 1, 1, 2, 2, 3, 4, 5, 6, 8))
    pinned = fit_power_law(seq, x_min=2)
    assert pinned.x_min == 2
    assert pinned.n_tail == 7


def test_power_law_degenerate_samples_rejected():
    with pytest.raises(DegenerateSampleError):
        fit_power_law(DegreeSequence("in", (3, 3, 3, 3)))
    with pytest.raises(DegenerateSampleError):
        fit_power_law(DegreeSequence("in", (0, 0, 4)))
    with pytest.raises(DegenerateSampleError):
        # pinned above every sample leaves nothing to fit
        fit_power_law(DegreeSequence("in", (1, 2, 3)), x_min=9)


def test_exponential_hand_mle():
    fit = fit_exponential(DegreeSequence("in", (1, 2, 3)), 1)
    assert fit.rate == 0.5


def test_exponential_recovers_geometric_parameter():
    rng = np.random.Generator(np.random.PCG64(9))
    xs = rng.geometric(0.25, size=100_000)  # support starts at 1
    fit = fit_exponential(DegreeSequence("in", tuple(int(v) for v in xs)), 1)
    assert 0.245 <= fit.rate <= 0.255
    # closed form vs sample-mean oracle
    tail = [int(v) for v in xs]
    assert math.isclose(fit.rate, 1.0 / (1.0 + np.mean(tail) - 1.0), rel_tol=1e-12)


def test_exponential_boundary_and_empty_tail():
    with pytest.raises(DegenerateSampleError):
        fit_exponential(DegreeSequence("in", (2, 2, 2, 2)), 2)
    with pytest.raises(InputError):
        fit_exponential(DegreeSequence("in", (1, 2)), 5)
    with pytest.raises(InputError):
        fit_exponential(DegreeSequence("in", (1, 2)), 0)


def test_compare_fits_requires_shared_tail():
    seq = DegreeSequence("in", (1, 1, 2, 3, 4, 6))
    pl = fit_power_law(seq, x_min=1)
    ex = fit_exponential(seq, 2)
    with pytest.raises(InputError):
        compare_fits(pl, ex, seq)


def test_compare_fits_lr_matches_direct_summation():
    seq = DegreeSequence("in", (1, 1, 1, 2, 2, 3, 4, 5, 6, 8))
    pl = fit_power_law(seq, x_min=1)
    ex = fit_exponential(seq, 1)
    cmp_res = compare_fits(pl, ex, seq)
    # direct summation of per-sample log-likelihood difference
    norm = math.log(zeta(pl.gamma, 1))
    direct = math.fsum(
        (-pl.gamma * math.log(x) - norm)
        - (math.log(ex.rate) + (x - 1) * math.log1p(-ex.rate))
        for x in seq.values
    )
    assert math.isclose(cmp_res.lr, direct, rel_tol=1e-12)
    assert math.isfinite(cmp_res.normalized_lr)
    # verdict must follow the +/-2 rule exactly
    if abs(cmp_res.normalized_lr) < 2:
        assert cmp_res.verdict == "inconclusive"
    else:
        assert cmp_res.verdict in ("power_law", "exponential")


def test_compare_fits_verdict_power_law_data():
    rng = np.random.Generator(np.random.PCG64(123))
    xs = sample_power_law(2.5, 100_000, rng)
    seq = DegreeSequence("in", tuple(int(v) for v in xs))
    pl = fit_power_law(seq)
    ex = fit_exponential(seq, pl.x_min)
    assert compare_fits(pl, ex, seq).verdict == "power_law"


def test_compare_fits_verdict_geometric_data():
    rng = np.random.Generator(np.random.PCG64(321))
    xs = rng.geometric(0.3, size=100_000)
    seq = DegreeSequence("in", tuple(int(v) for v in xs))
    pl = fit_power_law(seq, x_min=1)
    ex = fit_exponential(seq, 1)
    res = compare_fits(pl, ex, seq)
    assert res.verdict == "exponential"
    assert res.lr < 0


def test_sampler_matches_zeta_ccdf():
    # empirical tail fractions against the model CCDF it inverts
    rng = np.random.Generator(np.random.PCG64(77))
    xs = sample_power_law(2.5, 200_000, rng)
    n = xs.size
    for k in (2, 5, 10, 50):
        model = zeta(2.5, k) / zeta(2.5, 1)
        empirical = float(np.mean(xs >= k))
        assert abs(empirical - model) < 0.01


def test_sampler_respects_x_min():
    rng = np.random.Generator(np.random.PCG64(4))
    xs = sample_power_law(3.0, 10_000, rng, x_min=4)
    assert int(xs.min()) >= 4


def _outcome(fn, *args):
    """``fn(*args)``, or the type of the cgtopo error it raised."""
    try:
        return fn(*args)
    except CallGraphError as exc:
        return type(exc)


@st.composite
def _relabelled(draw):
    n = draw(st.integers(2, 30))
    arcs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1, max_size=90
        )
    )
    perm = draw(st.permutations(range(n)))
    g = CallGraph.from_id_pairs(n, arcs)
    h = CallGraph.from_id_pairs(n, [(perm[u], perm[v]) for u, v in arcs])
    return g, h, perm


@settings(max_examples=120, deadline=None)
@given(_relabelled())
def test_graph_metrics_invariant_under_relabelling(case):
    g, h, perm = case
    for mode in ("in", "out", "total"):
        assert _outcome(fit_power_law, degree_sequence(g, mode)) == _outcome(
            fit_power_law, degree_sequence(h, mode)
        )
    for mode in ASSORTATIVITY_MODES:
        assert _outcome(assortativity, g, mode) == _outcome(assortativity, h, mode)
    assert _outcome(reciprocity, g) == _outcome(reciprocity, h)
    cg, ch = clustering(g), clustering(h)
    assert (cg.global_c, cg.by_degree, cg.defined_count, cg.reason) == (
        ch.global_c, ch.by_degree, ch.defined_count, ch.reason
    )
    assert all(cg.per_node[v] == ch.per_node[perm[v]] for v in range(g.n))
    sizes = [len(c) for c in weak_components(g)] + [0]
    if sizes[0] == sizes[1]:
        return  # λ1 reads the tied component with the smallest member id
    lg, lh = _outcome(spectral_radius, g), _outcome(spectral_radius, h)
    if isinstance(lg, type) or isinstance(lh, type):
        assert lg == lh
    else:
        # the Lanczos start vector meets the nodes in another order
        assert math.isclose(lg.lambda1, lh.lambda1, rel_tol=1e-9)
