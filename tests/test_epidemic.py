"""Spectral threshold and SIS simulation."""

import math
import os
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from cgtopo import (
    CallGraph,
    ConfigError,
    ConvergenceError,
    InputError,
    SisParams,
    lambda_vs_size,
    sis_simulate,
    spectral_radius,
    threshold_sweep,
)
from cgtopo import epidemic
from cgtopo.epidemic import sweep_betas
from cgtopo.fixtures import (
    complete_graph,
    cycle_graph,
    path_graph,
    permutation_core_graph,
    star_graph,
)
from cgtopo.generators import ERASED_CONFIG, GNM, RandomGraphSpec, generate_random
from cgtopo.graph import largest_wcc, load_graph

from conftest import matrix, rebind, rows


def test_spectral_closed_forms():
    assert abs(spectral_radius(star_graph(9)).lambda1 - 3.0) <= 1e-6
    assert abs(spectral_radius(complete_graph(5)).lambda1 - 4.0) <= 1e-6
    assert abs(spectral_radius(cycle_graph(6)).lambda1 - 2.0) <= 1e-6
    # path of two nodes is the 1x1-offdiagonal case, lambda = 1
    assert abs(spectral_radius(path_graph(2)).lambda1 - 1.0) <= 1e-6


def test_spectral_beta_c_is_reciprocal():
    res = spectral_radius(star_graph(100))
    assert abs(res.lambda1 - 10.0) <= 1e-6
    assert abs(res.beta_c - 0.1) <= 1e-7


def test_spectral_matches_dense_oracle():
    for seed in range(8):
        g = generate_random(RandomGraphSpec(model=GNM, n=14, m=30, seed=seed))
        res = spectral_radius(g)
        und = g.undirected
        adj = rows(*und.csr)
        dense = np.zeros((und.n, und.n))
        for u in range(und.n):
            for v in adj[u]:
                dense[u, v] = 1.0
        # oracle runs on the largest connected block, same as the metric
        want = 0.0
        seen = set()
        for s in range(und.n):
            if s in seen:
                continue
            comp = {s}
            stack = [s]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in comp:
                        comp.add(y)
                        stack.append(y)
            seen |= comp
            idx = sorted(comp)
            sub = dense[np.ix_(idx, idx)]
            want = max(want, float(np.linalg.eigvalsh(sub)[-1]))
        assert abs(res.lambda1 - want) <= 1e-6


def test_spectral_bipartite_oscillation_handled():
    # even cycles are bipartite: -2 is an eigenvalue as well as 2, so a
    # solver that picks by magnitude instead of algebraic value can
    # return the wrong end of the spectrum
    for k in (4, 6, 8, 10):
        res = spectral_radius(cycle_graph(k))
        assert abs(res.lambda1 - 2.0) <= 1e-6


def test_spectral_convergence_error_carries_state():
    # the solver converges, but no float residual reaches 1e-300
    g = star_graph(50)
    with pytest.raises(ConvergenceError) as exc:
        spectral_radius(g, tolerance=1e-300)
    lam, vec = exc.value.last_lambda, exc.value.last_vector
    assert abs(lam - math.sqrt(50)) <= 1e-9
    assert vec.shape == (g.n,)
    resid = np.linalg.norm(matrix(g.undirected) @ vec - lam * vec)
    assert 0 < resid <= 1e-9


def test_spectral_convergence_error_on_restart_budget(monkeypatch):
    g = generate_random(RandomGraphSpec(model=GNM, n=300, m=900, seed=0))
    monkeypatch.setattr(epidemic, "_RESTARTS", 1)
    with pytest.raises(ConvergenceError, match="did not converge in 1 restarts"):
        spectral_radius(g)
    monkeypatch.setattr(epidemic, "_RESTARTS", 2)
    assert spectral_radius(g).residual <= 1e-10


def test_spectral_matches_dense_oracle_heavy_tailed():
    # erased configuration with a power-law degree draw, n ~ 1000
    g = generate_random(
        RandomGraphSpec(model=ERASED_CONFIG, n=1000, m=2500, gamma=2.5, seed=3)
    )
    und = largest_wcc(g.undirected)
    want = float(np.linalg.eigvalsh(matrix(und).toarray())[-1])
    res = spectral_radius(g)
    assert abs(res.lambda1 - want) <= 1e-6
    assert res.residual <= 1e-10


@pytest.mark.parametrize("label", ["powerlaw-2.5", "linux-2.6.12-rc2-sim"])
def test_spectral_matches_eigsh_at_kernel_scale(corpus_dir, label):
    from scipy.sparse.linalg import eigsh

    g = load_graph(corpus_dir / f"{label}.edges", "edgelist")
    h = largest_wcc(g.undirected)
    want = float(eigsh(matrix(h), k=1, which="LA", return_eigenvectors=False)[0])
    res = spectral_radius(g)
    assert abs(res.lambda1 - want) <= 1e-12 * want
    assert res.residual <= 1e-10


def test_spectral_repeatable_within_a_process():
    # a star exhausts the Krylov space after two steps; the solver draws
    # no random number, so the result must not depend on earlier calls
    first = spectral_radius(star_graph(100))
    for k in (4, 9, 25):
        spectral_radius(star_graph(k))
        spectral_radius(cycle_graph(k + 3))
        assert spectral_radius(star_graph(100)) == first


def test_sis_forced_absorption():
    g = star_graph(10)
    params = SisParams(beta=0.0, delta=1.0, initial_infected=(0,), max_steps=50, seed=1)
    trace = sis_simulate(g, params)
    assert trace.infected_per_step == (1, 0)
    assert trace.outcome == "extinct"
    assert trace.extinct_step == 1


def test_sis_flooding_without_cure():
    g = star_graph(10)
    params = SisParams(beta=1.0, delta=0.0, initial_infected=(0,), max_steps=5, seed=1)
    trace = sis_simulate(g, params)
    assert trace.outcome == "survived"
    assert trace.infected_per_step[-1] == 11
    assert trace.infected_per_step[1] == 11  # hub reaches every leaf in one step


def test_sis_deterministic_for_fixed_seed():
    g = generate_random(RandomGraphSpec(model=GNM, n=50, m=150, seed=5))
    params = SisParams(beta=0.2, delta=0.3, initial_infected=(0, 1), max_steps=80, seed=99)
    a = sis_simulate(g, params)
    b = sis_simulate(g, params)
    assert a.infected_per_step == b.infected_per_step
    assert a.final_infected == b.final_infected


def test_sis_counts_bounded_and_trace_shape():
    g = cycle_graph(12)
    params = SisParams(beta=0.5, delta=0.5, initial_infected=(0,), max_steps=40, seed=3)
    trace = sis_simulate(g, params)
    assert all(0 <= c <= 12 for c in trace.infected_per_step)
    assert len(trace.infected_per_step) <= 41
    if trace.outcome == "extinct":
        assert trace.infected_per_step[-1] == 0


def test_sis_parameter_validation():
    g = cycle_graph(4)
    with pytest.raises(InputError):
        sis_simulate(g, SisParams(beta=1.5, delta=0.5, initial_infected=(0,), max_steps=5, seed=1))
    with pytest.raises(InputError):
        sis_simulate(g, SisParams(beta=0.5, delta=-0.1, initial_infected=(0,), max_steps=5, seed=1))
    with pytest.raises(InputError):
        sis_simulate(g, SisParams(beta=0.5, delta=0.5, initial_infected=(99,), max_steps=5, seed=1))
    with pytest.raises(InputError):
        sis_simulate(g, SisParams(beta=0.5, delta=0.5, initial_infected=(), max_steps=5, seed=1))
    with pytest.raises(InputError, match="seed"):
        sis_simulate(g, SisParams(beta=0.5, delta=0.5, initial_infected=(0,), max_steps=5, seed=-1))


def test_param_errors_no_graph_can_fix_are_config_errors():
    good = SisParams(beta=0.5, delta=0.5, initial_infected=(0,), max_steps=5, seed=1)
    for bad in (
        dict(beta=2),
        dict(delta=-0.1),
        dict(max_steps=0),
        dict(seed=-1),
        dict(initial_infected=0),
        dict(initial_infected=()),
        dict(initial_infected=(0, -1)),
        # not integers: range and SeedSequence raised a bare TypeError,
        # and bools ran as 1
        dict(max_steps=2.5),
        dict(max_steps=True),
        dict(seed=1.5),
        dict(seed=math.nan),
        dict(seed=True),
    ):
        with pytest.raises(ConfigError):
            replace(good, **bad)  # building the params checks them
    # a negative id is caught when built, before any id is held against n
    with pytest.raises(ConfigError, match="id must be >= 0, got -1"):
        replace(good, initial_infected=(9, -1))
    # the checks against the node count are input errors only, made by a run
    for initial in ((4,), 5):
        bad = replace(good, initial_infected=initial)
        for run in (
            lambda: sis_simulate(path_graph(4), bad),
            lambda: threshold_sweep(path_graph(4), [0.5], 2, bad),
        ):
            with pytest.raises(InputError) as info:
                run()
            assert not isinstance(info.value, ConfigError)
    for args in (([], 5, 0.5), ([1.0, 0.5], 5, 0.5), ([0.5], 0, 0.5), ([3.0], 5, 0.5)):
        with pytest.raises(ConfigError):
            sweep_betas(*args)


_GOOD = SisParams(beta=0.5, delta=0.5, initial_infected=(0,), max_steps=5, seed=1)


def test_a_float_initial_id_is_a_config_error():
    # it used to be truncated: (1.7,) infected node 1
    with pytest.raises(ConfigError, match="1.7 is not an integer"):
        replace(_GOOD, initial_infected=(0, 1.7))


def test_a_float_initial_id_below_n_is_a_config_error():
    # it used to pass the id < n check and infect node 3 of four
    with pytest.raises(ConfigError, match="3.99 is not an integer"):
        replace(_GOOD, initial_infected=(3.99,))


def test_a_float_initial_count_is_a_config_error():
    # it used to raise a bare TypeError
    with pytest.raises(ConfigError, match="count 2.5 is not an integer"):
        replace(_GOOD, initial_infected=2.5)


def test_a_bool_initial_count_is_a_config_error():
    # bool is an Integral: True used to be a count of one drawn node
    with pytest.raises(ConfigError, match="count True is not an integer"):
        replace(_GOOD, initial_infected=True)


def test_bool_initial_ids_are_a_config_error():
    # they used to be the ids 1 and 0: on a 4-node path they gave (2, 0)
    with pytest.raises(ConfigError, match="True is not an integer"):
        replace(_GOOD, initial_infected=(True, False))
    with pytest.raises(ConfigError, match="False is not an integer"):
        replace(_GOOD, initial_infected=(1, False))


def test_rates_that_are_not_real_numbers_are_config_errors():
    # a string or None raised a bare TypeError from the range check
    for name in ("beta", "delta"):
        for value in ("0.5", None, 0.5j):
            with pytest.raises(ConfigError, match=f"{name} must be a real number"):
                replace(_GOOD, **{name: value})


def test_bool_rates_are_config_errors():
    # bool is a Real: beta=True used to build and run as 1.0
    for name in ("beta", "delta"):
        for value in (True, False):
            with pytest.raises(ConfigError, match=f"{name} must be a real number, got {value}"):
                replace(_GOOD, **{name: value})


def test_rates_are_kept_as_python_floats():
    for value in (1, np.float32(0.25), np.float64(0.3), np.int64(0)):
        params = replace(_GOOD, beta=value, delta=value)
        assert type(params.beta) is float and type(params.delta) is float
        assert params.beta == params.delta == float(value)


def test_numpy_integer_initial_ids_and_counts_are_accepted():
    for numpy_value, value in (((np.int64(3), np.int32(1)), (3, 1)), (np.int64(2), 2)):
        params = replace(_GOOD, initial_infected=numpy_value)
        assert params.initial_infected == value
        assert type(params.initial_infected) is type(value)
        plain = sis_simulate(path_graph(4), replace(_GOOD, initial_infected=value))
        assert sis_simulate(path_graph(4), params) == plain


def test_numpy_integer_steps_and_seed_are_kept_as_ints():
    params = replace(_GOOD, max_steps=np.int32(5), seed=np.uint64(1))
    assert (params.max_steps, params.seed) == (5, 1)
    assert type(params.max_steps) is int and type(params.seed) is int
    assert sis_simulate(path_graph(4), params) == sis_simulate(path_graph(4), _GOOD)


def _oracle_sis(g, params, flips=None):
    """Transcript of the documented SIS process, recounting c every step
    by a scipy mat-vec on a freshly built symmetrized 0/1 matrix: 2n
    uniforms per step, p = 1 - (1-beta)^c.  Appends the number of nodes
    that change state in each step to ``flips`` when given."""
    n = g.n
    arcs = np.array(list(g.edges()), dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate([arcs[:, 0], arcs[:, 1]])
    cols = np.concatenate([arcs[:, 1], arcs[:, 0]])
    a = sp.csr_matrix((np.ones(rows.size, dtype=np.int64), (rows, cols)), shape=(n, n))
    a.data[:] = 1  # an arc stored both ways was summed to 2
    rng = np.random.Generator(np.random.PCG64(params.seed))
    infected = np.zeros(n, dtype=bool)
    if isinstance(params.initial_infected, int):
        infected[rng.choice(n, size=params.initial_infected, replace=False)] = True
    else:
        infected[list(params.initial_infected)] = True
    counts = [int(infected.sum())]
    for step in range(1, params.max_steps + 1):
        infect_draw = rng.random(n)
        cure_draw = rng.random(n)
        c = (a @ infected.astype(np.int64)).astype(np.float64)
        p = 1.0 - (1.0 - params.beta) ** c
        newly = ~infected & (infect_draw < p)
        cured = infected & (cure_draw < params.delta)
        infected = (infected & ~cured) | newly
        if flips is not None:
            flips.append(int(newly.sum() + cured.sum()))
        counts.append(int(infected.sum()))
        if counts[-1] == 0:
            return tuple(counts), step, ()
    return tuple(counts), None, tuple(np.flatnonzero(infected).tolist())


def _oracle_graphs():
    return {
        "gnm": generate_random(RandomGraphSpec(model=GNM, n=200, m=700, seed=3)),
        "star": star_graph(150),
        "cycle": cycle_graph(120),
        "erased": generate_random(
            RandomGraphSpec(model=ERASED_CONFIG, n=300, gamma=2.5, seed=4)
        ),
    }


def test_sis_matches_independent_oracle():
    for name, g in _oracle_graphs().items():
        for beta in (0.0, 0.05, 0.3, 1.0):
            for delta in (0.0, 0.1, 1.0):
                for initial in (4, (7, 0, 7, 19)):
                    params = SisParams(
                        beta=beta,
                        delta=delta,
                        initial_infected=initial,
                        max_steps=40,
                        seed=int(beta * 100 + delta * 10) + 1,
                    )
                    trace = sis_simulate(g, params)
                    counts, extinct_step, final = _oracle_sis(g, params)
                    where = (name, beta, delta, initial)
                    assert trace.infected_per_step == counts, where
                    assert trace.extinct_step == extinct_step, where
                    assert trace.final_infected == final, where
                    assert trace.outcome == (
                        "extinct" if extinct_step is not None else "survived"
                    ), where


def _assert_trace_matches_oracle(g, params, flips=None):
    trace = sis_simulate(g, params)
    counts, extinct_step, final = _oracle_sis(g, params, flips)
    assert trace.infected_per_step == counts, params
    assert trace.extinct_step == extinct_step, params
    assert trace.final_infected == final, params


def test_sis_matches_oracle_on_large_graphs():
    core = permutation_core_graph(5000, 17359, 3)
    # an erased-configuration graph with 200 isolated nodes among its ids
    erased = generate_random(
        RandomGraphSpec(model=ERASED_CONFIG, n=3000, gamma=2.5, seed=6)
    )
    ids = np.random.default_rng(0).permutation(erased.n + 200)
    sparse = CallGraph.from_id_pairs(
        ids.size, [(int(ids[u]), int(ids[v])) for u, v in erased.edges()]
    )
    isolated = int(ids[-1])
    assert not rows(*sparse.csr)[isolated] and not rows(*sparse.in_csr)[isolated]
    # far above threshold from a large seed set: over 1,000 nodes flip in a step
    flips = []
    for seed in (1, 2):
        params = SisParams(
            beta=0.9, delta=0.5, initial_infected=2500, max_steps=30, seed=seed
        )
        _assert_trace_matches_oracle(core, params, flips)
    assert max(flips) > 1000
    for g in (core, sparse):
        for beta in (0.0, 1.0):
            for delta in (0.0, 1.0):
                # a seed of degree 0 in `sparse`, and a duplicate id
                params = SisParams(
                    beta=beta,
                    delta=delta,
                    initial_infected=(isolated, 17, 4, 17),
                    max_steps=25,
                    seed=11,
                )
                _assert_trace_matches_oracle(g, params)
        for beta, delta, initial in ((0.3, 0.2, 40), (0.05, 0.1, (isolated, 9, 9))):
            params = SisParams(
                beta=beta, delta=delta, initial_infected=initial, max_steps=80, seed=5
            )
            _assert_trace_matches_oracle(g, params)


def test_sweep_matches_oracle_outcomes():
    # straddles 1/lambda1 on every graph: both outcomes occur
    ratios = (0.05, 0.2, 1.0)
    runs = 6
    base = SisParams(beta=0.0, delta=0.5, initial_infected=2, max_steps=60, seed=21)
    for name, g in _oracle_graphs().items():
        want = []
        for i, ratio in enumerate(ratios):
            extinct = 0
            for j in range(runs):
                seed = int(
                    np.random.SeedSequence([base.seed, i, j]).generate_state(
                        1, np.uint64
                    )[0]
                )
                params = replace(base, beta=ratio * base.delta, seed=seed)
                extinct += _oracle_sis(g, params)[1] is not None
            want.append(extinct / runs)
        sweep = threshold_sweep(g, ratios, runs, base)
        assert sweep.extinction_prob == tuple(want), name


def test_sweep_symmetrizes_once(monkeypatch):
    import cgtopo.graph

    original = cgtopo.graph.symmetrize
    calls = []
    parent = os.getpid()

    def counting(g):
        # a run in a pool worker would rebuild it once per worker
        assert os.getpid() == parent, "a sweep worker symmetrized the graph"
        calls.append(g)
        return original(g)

    rebind(monkeypatch, original, counting)
    monkeypatch.setattr(cgtopo.graph, "_cpus", lambda: 2)
    g = generate_random(RandomGraphSpec(model=GNM, n=80, m=240, seed=9))
    assert g.directed
    base = SisParams(beta=0.0, delta=0.2, initial_infected=(0,), max_steps=30, seed=5)
    threshold_sweep(g, [0.5, 1.0, 2.0], 5, base)
    assert len(calls) <= 1


def test_sweep_requires_ascending_ratios():
    g = star_graph(5)
    base = SisParams(beta=0.0, delta=0.5, initial_infected=(0,), max_steps=10, seed=2)
    with pytest.raises(InputError):
        threshold_sweep(g, [1.0, 0.5], 5, base)


def test_sweep_rejects_beta_above_one():
    g = star_graph(5)
    base = SisParams(beta=0.0, delta=0.5, initial_infected=(0,), max_steps=10, seed=2)
    with pytest.raises(InputError):
        threshold_sweep(g, [0.5, 3.0], 5, base)


def test_sweep_rejects_negative_base_seed():
    # no run takes the base seed itself: it only seeds the per-run seeds,
    # and building the base params already rejects it
    with pytest.raises(InputError, match="seed"):
        SisParams(beta=0.0, delta=0.5, initial_infected=(0,), max_steps=10, seed=-1)


def test_sweep_deep_subthreshold_dies_out():
    g = star_graph(100)
    base = SisParams(beta=0.0, delta=1.0, initial_infected=(0,), max_steps=500, seed=11)
    sweep = threshold_sweep(g, [0.01], 200, base)
    assert sweep.extinction_prob[0] >= 0.99


def test_sweep_shapes_and_determinism():
    g = star_graph(30)
    base = SisParams(beta=0.0, delta=0.2, initial_infected=(0,), max_steps=50, seed=7)
    s1 = threshold_sweep(g, [0.1, 1.0, 4.0], 30, base)
    s2 = threshold_sweep(g, [0.1, 1.0, 4.0], 30, base)
    assert s1.extinction_prob == s2.extinction_prob
    assert s1.runs_per_ratio == 30
    assert all(0.0 <= p <= 1.0 for p in s1.extinction_prob)


def test_lambda_vs_size_correlation():
    trend = lambda_vs_size([(10, 2.0), (100, 4.0), (1000, 9.0)])
    assert trend.rank_correlation == 1.0
    flat = lambda_vs_size([(10, 2.0)])
    assert flat.rank_correlation is None
    # ties on both sides take average ranks
    pairs = [(10, 3.0), (10, 2.0), (100, 3.0), (1000, 9.0), (1000, 1.0), (50, 3.0)]
    tied = lambda_vs_size(pairs)
    from scipy.stats import spearmanr

    ns, lams = zip(*sorted(pairs))
    assert tied.rank_correlation == pytest.approx(
        spearmanr(ns, lams).statistic, rel=1e-12
    )
    assert tied.rank_correlation not in (0.0, 1.0)
