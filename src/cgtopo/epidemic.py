"""Spectral epidemic threshold and a discrete-time SIS simulator.

The threshold is beta_c = 1/lambda1 with lambda1 the largest adjacency
eigenvalue of the symmetrized graph's largest component.  The SIS
process models bug propagation: infection crosses edges symmetrically
(a shared fault spreads either way along a call), cures are per-node
Bernoulli events, and extinction is the only absorbing state once the
cure rate is positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .graph import CallGraph, CallGraphError, InputError, _pmap, _ranges, largest_wcc


class ConvergenceError(CallGraphError):
    """Lanczos did not converge, or its eigenpair failed the residual or
    bound check; carries that pair (None when the solver gave none)."""

    def __init__(
        self, message: str, last_lambda: float | None, last_vector: np.ndarray | None
    ):
        super().__init__(message)
        self.last_lambda = last_lambda
        self.last_vector = last_vector


@dataclass(frozen=True)
class SpectralResult:
    lambda1: float
    beta_c: float
    iterations: int
    residual: float


@dataclass(frozen=True)
class SisParams:
    beta: float
    delta: float
    initial_infected: tuple[int, ...] | int
    max_steps: int
    seed: int


@dataclass(frozen=True)
class SisTrace:
    infected_per_step: tuple[int, ...]
    outcome: str  # "extinct" | "survived"
    extinct_step: int | None
    final_infected: tuple[int, ...]


@dataclass(frozen=True)
class ThresholdSweep:
    ratios: tuple[float, ...]
    extinction_prob: tuple[float, ...]
    runs_per_ratio: int


@dataclass(frozen=True)
class SizeSpectralTrend:
    pairs: tuple[tuple[int, float], ...]
    rank_correlation: float | None


def spectral_radius(
    g: CallGraph, tolerance: float = 1e-10, max_iterations: int = 100_000
) -> SpectralResult:
    """Largest adjacency eigenvalue of the symmetrized largest WCC.

    Lanczos (ARPACK ``eigsh``) from the all-ones start vector, allowed
    ``max_iterations`` restarts.  The returned pair must have residual
    ||Ax - lambda x|| <= tolerance and lambda within the
    [sqrt(d_max), d_max] bounds, else ConvergenceError.  ``iterations``
    in the result counts the solver's applications of A.
    """
    if not tolerance > 0:  # also rejects NaN
        raise InputError("tolerance must be positive")
    if max_iterations < 1:
        raise InputError(f"max_iterations must be >= 1, got {max_iterations}")
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    h = largest_wcc(g.undirected)
    if h.m == 0:
        raise InputError("spectral radius undefined on an edgeless graph")
    mat = h.adjacency
    applications = 0

    def matvec(x):
        nonlocal applications
        applications += 1
        return mat @ x

    op = LinearOperator(mat.shape, matvec=matvec, dtype=np.float64)
    try:
        # ARPACK restarts from a random vector when the Krylov space runs
        # out (star-like graphs); a fixed seed keeps results repeatable
        vals, vecs = eigsh(
            op, k=1, which="LA", v0=np.ones(h.n), maxiter=max_iterations, rng=0
        )
    except ArpackNoConvergence:
        raise ConvergenceError(
            f"Lanczos did not converge in {max_iterations} restarts", None, None
        ) from None
    lam = float(vals[0])
    vec = vecs[:, 0]
    residual = float(np.linalg.norm(mat @ vec - lam * vec))
    if residual > tolerance:
        raise ConvergenceError(
            f"residual {residual:.3e} exceeds tolerance {tolerance:.3e}", lam, vec
        )
    d_max = int(h.out_degrees.max())
    slack = 1e-6
    if not (math.sqrt(d_max) - slack <= lam <= d_max + slack):
        raise ConvergenceError(
            f"lambda1={lam} violates the [sqrt(d_max), d_max] = "
            f"[{math.sqrt(d_max):.6f}, {d_max}] bounds",
            last_lambda=lam,
            last_vector=vec,
        )
    return SpectralResult(
        lambda1=lam, beta_c=1.0 / lam, iterations=applications, residual=residual
    )


def validate_params(p: SisParams, n: int | None = None) -> None:
    """Raise InputError on SIS parameters no run can take; the checks
    against the node count run only when ``n`` is given."""
    if not 0.0 <= p.beta <= 1.0:
        raise InputError(f"beta must be in [0, 1], got {p.beta}")
    if not 0.0 <= p.delta <= 1.0:
        raise InputError(f"delta must be in [0, 1], got {p.delta}")
    if p.max_steps < 1:
        raise InputError(f"max_steps must be >= 1, got {p.max_steps}")
    if p.seed < 0:
        raise InputError(f"seed must be non-negative, got {p.seed}")
    if isinstance(p.initial_infected, int):
        if p.initial_infected < 1:
            raise InputError(
                f"initial infected count must be >= 1, got {p.initial_infected}"
            )
        if n is not None and p.initial_infected > n:
            raise InputError(
                f"initial infected count {p.initial_infected} outside [1, {n}]"
            )
    else:
        if not p.initial_infected:
            raise InputError("initial infected set is empty")
        for node in p.initial_infected:
            if node < 0 or (n is not None and node >= n):
                raise InputError(f"initial infected id {node} out of range")


def _neighbours(indptr, indices, nodes: np.ndarray) -> np.ndarray:
    """The CSR rows of ``nodes``, concatenated."""
    start = indptr[nodes]
    return indices[_ranges(start, indptr[nodes + 1] - start)]


def sis_simulate(g: CallGraph, params: SisParams) -> SisTrace:
    """One SIS run with synchronous steps on the symmetrized graph.

    Per step, a susceptible node with c infected neighbours becomes
    infected with probability 1 - (1-beta)^c (the closed form of c
    independent per-edge attempts), and every node infected before the
    step cures with probability delta; a node infected this step cannot
    cure until the next.  The generator consumes exactly 2n uniforms
    per step, so a trace is a pure function of (graph, params).

    The symmetrized graph and its CSR arrays are cached on ``g``, so
    they are built once per graph and reused by every run on it (a
    sweep, repeated ``simulate`` calls).  The counts c are kept from
    step to step: only the neighbours of nodes that changed state are
    updated (as in the optimized simulators of Cota and Ferreira,
    Comput. Phys. Commun. 2017).  A step then costs 2n uniforms, a few
    n-vector passes and work proportional to the summed degree of the
    nodes that changed state; 1 - (1-beta)^c is read from a table built
    once per run.
    """
    h = g.undirected
    n = h.n
    validate_params(params, n)
    indptr, indices = h.csr
    rng = np.random.Generator(np.random.PCG64(params.seed))
    infected = np.zeros(n, dtype=bool)
    if isinstance(params.initial_infected, int):
        seeds = rng.choice(n, size=params.initial_infected, replace=False)
    else:
        seeds = np.unique(np.asarray(params.initial_infected, dtype=np.int64))
    infected[seeds] = True
    pressure = np.bincount(_neighbours(indptr, indices, seeds), minlength=n)
    current = seeds.size
    counts = [current]
    extinct_step = None
    d_max = int(h.out_degrees.max())
    p_of_count = 1.0 - (1.0 - params.beta) ** np.arange(d_max + 1, dtype=np.float64)
    for step in range(1, params.max_steps + 1):
        infect_draw = rng.random(n)
        cure_draw = rng.random(n)
        newly = np.flatnonzero(~infected & (infect_draw < p_of_count[pressure]))
        cured = np.flatnonzero(infected & (cure_draw < params.delta))
        infected[newly] = True
        infected[cured] = False
        np.add.at(pressure, _neighbours(indptr, indices, newly), 1)
        np.subtract.at(pressure, _neighbours(indptr, indices, cured), 1)
        current += newly.size - cured.size
        counts.append(current)
        if current == 0:
            extinct_step = step
            break
    outcome = "extinct" if extinct_step is not None else "survived"
    return SisTrace(
        infected_per_step=tuple(counts),
        outcome=outcome,
        extinct_step=extinct_step,
        final_infected=tuple(np.flatnonzero(infected).tolist()),
    )


def sweep_betas(ratios, runs_per_ratio: int, delta: float) -> tuple[float, ...]:
    """The beta of each beta/delta ratio; InputError unless the ratios
    are nonempty and ascending, the run count positive and every beta
    in [0, 1]."""
    if not ratios:
        raise InputError("ratios must be nonempty")
    if list(ratios) != sorted(ratios):
        raise InputError("ratios must be sorted ascending")
    if runs_per_ratio < 1:
        raise InputError("runs_per_ratio must be >= 1")
    betas = tuple(ratio * delta for ratio in ratios)
    for ratio, beta in zip(ratios, betas):
        if not 0.0 <= beta <= 1.0:
            raise InputError(
                f"ratio {ratio} with delta {delta} gives beta outside [0, 1]"
            )
    return betas


def threshold_sweep(
    g: CallGraph,
    ratios,
    runs_per_ratio: int,
    base_params: SisParams,
) -> ThresholdSweep:
    """Extinction fraction per beta/delta ratio.

    Per-run seeds derive from (base seed, ratio index, run index), so
    the sweep is reproducible and runs may execute in any order.
    """
    validate_params(base_params, g.n)
    ratios = tuple(float(r) for r in ratios)
    betas = sweep_betas(ratios, runs_per_ratio, base_params.delta)
    g.undirected  # built once, before the runs fork
    runs = [(i, j) for i in range(len(betas)) for j in range(runs_per_ratio)]
    extinct = [0] * len(betas)
    for (i, _), died in zip(runs, _pmap(_sweep_run, (g, base_params, betas), runs)):
        extinct[i] += died
    return ThresholdSweep(
        ratios=ratios,
        extinction_prob=tuple(e / runs_per_ratio for e in extinct),
        runs_per_ratio=runs_per_ratio,
    )


def _sweep_run(g: CallGraph, base_params: SisParams, betas, run) -> bool:
    """Whether run ``run = (i, j)`` of the sweep, run j at ratio i, dies out."""
    i, j = run
    seed = int(
        np.random.SeedSequence([base_params.seed, i, j]).generate_state(1, np.uint64)[0]
    )
    trace = sis_simulate(g, replace(base_params, beta=betas[i], seed=seed))
    return trace.outcome == "extinct"


def _average_ranks(values) -> list[float]:
    """1-based ranks; tied values share the mean of the ranks they span."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse].tolist()


def _spearman(a, b) -> float:
    ra, rb = _average_ranks(a), _average_ranks(b)
    n = len(ra)
    ma = math.fsum(ra) / n
    mb = math.fsum(rb) / n
    va = math.fsum((x - ma) ** 2 for x in ra)
    vb = math.fsum((x - mb) ** 2 for x in rb)
    if va == 0.0 or vb == 0.0:
        return 0.0
    cov = math.fsum((x - ma) * (y - mb) for x, y in zip(ra, rb))
    return cov / math.sqrt(va * vb)


def lambda_vs_size(size_lambda_pairs) -> SizeSpectralTrend:
    """(n, lambda1) pairs sorted by n, with their Spearman correlation.

    Takes (n, lambda1) pairs only, one per analyzed graph.  Fewer than
    2 pairs leave the correlation undefined; zero variance on either
    side scores 0.
    """
    pairs = [(int(n), float(lam)) for n, lam in size_lambda_pairs]
    if not pairs:
        raise InputError("no analyzed graphs with a spectral result")
    pairs.sort()
    if len(pairs) < 2:
        return SizeSpectralTrend(pairs=tuple(pairs), rank_correlation=None)
    ns = [p[0] for p in pairs]
    lams = [p[1] for p in pairs]
    return SizeSpectralTrend(
        pairs=tuple(pairs), rank_correlation=_spearman(ns, lams)
    )
