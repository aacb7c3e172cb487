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

from .graph import (
    CallGraph, CallGraphError, ConfigError, InputError, _integer, _pmap, _ranges, _real,
    _sub_seed, largest_wcc,
)


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
    """SIS run parameters, checked when built by the rule of
    ``graph._integer`` and ``graph._real``: a value no run can take
    raises ConfigError.  The run checks that the initial infected fit.

    ``beta`` and ``delta`` are real numbers in [0, 1]; ``max_steps``,
    ``seed`` and ``initial_infected`` (a count of nodes to draw or a
    tuple of node ids) are integers.
    """

    beta: float
    delta: float
    initial_infected: tuple[int, ...] | int
    max_steps: int
    seed: int

    def __post_init__(self) -> None:
        for name in ("beta", "delta"):
            value = _real(name, getattr(self, name))
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
            object.__setattr__(self, name, value)  # the class is frozen
        object.__setattr__(self, "max_steps", _integer("max_steps", self.max_steps, 1))
        object.__setattr__(self, "seed", _integer("seed", self.seed, 0))
        initial = self.initial_infected
        try:
            initial = tuple(_integer("initial infected id", node, 0) for node in initial)
        except TypeError:  # not a tuple of ids, so a count of nodes to draw
            initial = _integer("initial infected count", initial, 1)
        if not initial:
            raise ConfigError("initial infected set is empty")
        object.__setattr__(self, "initial_infected", initial)


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


# Lanczos vectors per restart cycle: ARPACK's ncv for one eigenpair
_CYCLE = 20
_EPS = float(np.finfo(np.float64).eps)
# restart cycles allowed before ConvergenceError
_RESTARTS = 100_000


def spectral_radius(g: CallGraph, tolerance: float = 1e-10) -> SpectralResult:
    """Largest adjacency eigenvalue of the symmetrized largest WCC.

    Lanczos (1950) from the all-ones start vector, allowed
    ``_RESTARTS`` restart cycles.  The returned pair must have
    residual ||Ax - lambda x|| <= tolerance and lambda within the
    [sqrt(d_max), d_max] bounds, else ConvergenceError.  ``iterations``
    in the result counts the solver's applications of A.
    """
    tolerance = _real("tolerance", tolerance)
    if not 0 < tolerance < math.inf:  # also rejects NaN
        raise ConfigError(f"tolerance must be in (0, inf), got {tolerance}")
    h = largest_wcc(g.undirected)
    if h.m == 0:
        raise InputError("spectral radius undefined on an edgeless graph")
    tails, heads = h.arcs()

    def matvec(x):
        # bincount adds each row's terms in arc order, so A x is the
        # same bits on every run
        return np.bincount(tails, weights=x[heads], minlength=h.n)

    pair = _lanczos(matvec, h.n, _RESTARTS)
    if pair is None:
        raise ConvergenceError(
            f"Lanczos did not converge in {_RESTARTS} restarts", None, None
        )
    lam, vec, applications = pair
    residual = float(np.linalg.norm(matvec(vec) - lam * vec))
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


def _lanczos(matvec, n: int, cycles: int):
    """``(theta, x, applications)``: the largest eigenvalue of the
    symmetric operator ``matvec`` on R^n and its unit eigenvector, or
    None if ``cycles`` restart cycles do not converge.

    Each cycle grows an orthonormal Krylov basis of up to ``_CYCLE``
    vectors, every new vector orthogonalized against the whole basis
    twice, and reads the top Ritz pair (theta, y) of the tridiagonal
    projection after each step.  The pair has converged when the
    residual bound |beta * y_last| is within 10 eps |theta|, which also
    holds when the Krylov space is exhausted (beta at rounding level, as
    on a star); otherwise the next cycle starts from the Ritz vector.
    The first cycle starts from ones / sqrt(n).  No step draws a random
    number, so the result is the same bits on every run.
    """
    size = min(_CYCLE, n)
    basis = np.empty((size, n))
    start = np.full(n, 1.0 / math.sqrt(n))
    applications = 0
    for _ in range(cycles):
        basis[0] = start
        alpha, beta = [], []
        for j in range(size):
            w = matvec(basis[j])
            applications += 1
            alpha.append(0.0)
            for _ in range(2):
                coef = basis[: j + 1] @ w
                w -= coef @ basis[: j + 1]
                alpha[j] += coef[j]
            beta.append(float(np.linalg.norm(w)))
            tri = np.diag(alpha) + np.diag(beta[:j], 1) + np.diag(beta[:j], -1)
            values, vectors = np.linalg.eigh(tri)
            theta, y = float(values[-1]), vectors[:, -1]
            if abs(beta[j] * y[j]) <= 10 * _EPS * abs(theta):
                x = y @ basis[: j + 1]
                return theta, x / np.linalg.norm(x), applications
            if j + 1 < size:
                basis[j + 1] = w / beta[j]
        start = y @ basis
        start /= np.linalg.norm(start)
    return None


def _check_fits(p: SisParams, n: int) -> None:
    """InputError unless the initial infected of ``p`` fit ``n`` nodes."""
    initial = p.initial_infected
    if isinstance(initial, int):
        if initial > n:
            raise InputError(f"initial infected count {initial} outside [1, {n}]")
    else:
        for node in initial:
            if node >= n:
                raise InputError(f"initial infected id {node} out of range")


def _neighbours(indptr, indices, nodes: np.ndarray) -> np.ndarray:
    """The CSR rows of ``nodes``, concatenated."""
    start = indptr[nodes]
    return indices[_ranges(start, indptr[nodes + 1] - start)[1]]


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
    _check_fits(params, n)
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
    """The beta of each beta/delta ratio; ConfigError unless the ratios
    are nonempty and ascending, the run count positive and every beta
    in [0, 1]."""
    delta = _real("delta", delta)
    if not ratios:
        raise ConfigError("ratios must be nonempty")
    if list(ratios) != sorted(ratios):
        raise ConfigError("ratios must be sorted ascending")
    _integer("runs_per_ratio", runs_per_ratio, 1)
    betas = tuple(ratio * delta for ratio in ratios)
    for ratio, beta in zip(ratios, betas):
        if not 0.0 <= beta <= 1.0:
            raise ConfigError(
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
    _check_fits(base_params, g.n)
    ratios = tuple(_real("ratio", r) for r in ratios)
    runs_per_ratio = _integer("runs_per_ratio", runs_per_ratio, 1)
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
    seed = _sub_seed(base_params.seed, i, j)
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
