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

from .graph import CallGraph, CallGraphError, InputError, largest_wcc


class ConvergenceError(CallGraphError):
    """Power iteration ran out of iterations; carries the last state."""

    def __init__(self, message: str, last_lambda: float, last_vector: np.ndarray):
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


def _power_iterate(
    mat, shift: float, tolerance: float, max_iterations: int, detect_oscillation: bool
):
    """Returns (rayleigh_quotient, unit_vector, residual, iterations, oscillating).

    Convergence is residual-based: ||Ax - rq*x|| <= tolerance implies the
    Rayleigh quotient has stabilized far below tolerance (its error is
    quadratic in the residual).  On graphs with a bipartite-symmetric
    spectrum the iterates settle into a period-2 cycle instead: x_t
    returns to x_{t-2} while staying far from x_{t-1}.  When detected,
    the caller restarts once with a diagonal shift that breaks the tie.
    """
    n = mat.shape[0]
    x = np.full(n, 1.0 / math.sqrt(n))
    prev = prev2 = None
    rq = 0.0
    residual = math.inf
    for iteration in range(1, max_iterations + 1):
        y = mat @ x + shift * x
        rq = float(x @ y)
        residual = float(np.linalg.norm(y - rq * x))
        if residual <= tolerance:
            return rq, x, residual, iteration, False
        if detect_oscillation and prev2 is not None:
            osc = float(np.linalg.norm(x - prev2))
            step = float(np.linalg.norm(x - prev))
            if osc <= 1e-9 and step >= 1e-3:
                return rq, x, residual, iteration, True
        prev2 = prev
        prev = x
        x = y / np.linalg.norm(y)
    return rq, x, residual, max_iterations, False


def spectral_radius(
    g: CallGraph, tolerance: float = 1e-10, max_iterations: int = 100_000
) -> SpectralResult:
    """Largest adjacency eigenvalue of the symmetrized largest WCC.

    Power iteration from the all-ones direction, converged when the
    Rayleigh quotient settles and the residual drops under tolerance.
    On bipartite-like graphs the all-ones start oscillates between two
    dominant eigendirections: the Rayleigh quotient settles while the
    residual stays large.  That stagnation triggers one restart on the
    shifted matrix A + I/2, whose top eigenvalue is strictly dominant;
    the shift is subtracted from the result.
    """
    if tolerance <= 0:
        raise InputError("tolerance must be positive")
    h = largest_wcc(g.undirected)
    if h.m == 0:
        raise InputError("spectral radius undefined on an edgeless graph")
    mat = h.adjacency
    lam, vec, residual, used, oscillating = _power_iterate(
        mat, 0.0, tolerance, max_iterations, detect_oscillation=True
    )
    iterations = used
    if oscillating or residual > tolerance:
        lam, vec, residual, used2, _ = _power_iterate(
            mat, 0.5, tolerance, max_iterations, detect_oscillation=False
        )
        iterations += used2
        lam -= 0.5
        # the shifted eigenvector is an eigenvector of the original matrix
        residual = float(np.linalg.norm(mat @ vec - lam * vec))
    if residual > tolerance:
        raise ConvergenceError(
            f"power iteration did not converge in {iterations} iterations "
            f"(residual {residual:.3e})",
            last_lambda=lam,
            last_vector=vec,
        )
    d_max = int(max(len(row) for row in h.out_adj))
    slack = 1e-6
    if not (math.sqrt(d_max) - slack <= lam <= d_max + slack):
        raise ConvergenceError(
            f"lambda1={lam} violates the [sqrt(d_max), d_max] = "
            f"[{math.sqrt(d_max):.6f}, {d_max}] bounds",
            last_lambda=lam,
            last_vector=vec,
        )
    return SpectralResult(
        lambda1=lam, beta_c=1.0 / lam, iterations=iterations, residual=residual
    )


def _validate_params(n: int, p: SisParams) -> None:
    if not 0.0 <= p.beta <= 1.0:
        raise InputError(f"beta must be in [0, 1], got {p.beta}")
    if not 0.0 <= p.delta <= 1.0:
        raise InputError(f"delta must be in [0, 1], got {p.delta}")
    if p.max_steps < 1:
        raise InputError(f"max_steps must be >= 1, got {p.max_steps}")
    if isinstance(p.initial_infected, int):
        if not 1 <= p.initial_infected <= n:
            raise InputError(
                f"initial infected count {p.initial_infected} outside [1, {n}]"
            )
    else:
        if not p.initial_infected:
            raise InputError("initial infected set is empty")
        for node in p.initial_infected:
            if not 0 <= node < n:
                raise InputError(f"initial infected id {node} out of range")


def sis_simulate(g: CallGraph, params: SisParams) -> SisTrace:
    """One SIS run with synchronous steps on the symmetrized graph.

    Per step, a susceptible node with c infected neighbours becomes
    infected with probability 1 - (1-beta)^c (the closed form of c
    independent per-edge attempts), and every node infected before the
    step cures with probability delta; a node infected this step cannot
    cure until the next.  The generator consumes exactly 2n uniforms
    per step, so a trace is a pure function of (graph, params).

    The symmetrized graph and its sparse adjacency are cached on ``g``,
    so they are built once per graph and reused by every run on it (a
    sweep, repeated ``simulate`` calls).  A step then costs 2n uniforms
    plus one sparse mat-vec for the infected-neighbour counts c, and
    1 - (1-beta)^c is read from a table built once per run.
    """
    h = g.undirected
    n = h.n
    _validate_params(n, params)
    rng = np.random.Generator(np.random.PCG64(params.seed))
    infected = np.zeros(n, dtype=bool)
    if isinstance(params.initial_infected, int):
        seeds = rng.choice(n, size=params.initial_infected, replace=False)
    else:
        seeds = np.unique(np.asarray(params.initial_infected, dtype=np.int64))
    infected[seeds] = True
    mat = h.adjacency
    counts = [int(infected.sum())]
    extinct_step = None
    d_max = int(h.out_degrees.max())
    p_of_count = 1.0 - (1.0 - params.beta) ** np.arange(d_max + 1, dtype=np.float64)
    for step in range(1, params.max_steps + 1):
        infect_draw = rng.random(n)
        cure_draw = rng.random(n)
        pressure = (mat @ infected.astype(np.float64)).astype(np.intp)
        p_infect = p_of_count[pressure]
        newly = ~infected & (infect_draw < p_infect)
        cured = infected & (cure_draw < params.delta)
        infected = (infected & ~cured) | newly
        current = int(infected.sum())
        counts.append(current)
        if current == 0:
            extinct_step = step
            break
    outcome = "extinct" if extinct_step is not None else "survived"
    return SisTrace(
        infected_per_step=tuple(counts),
        outcome=outcome,
        extinct_step=extinct_step,
        final_infected=tuple(int(i) for i in np.flatnonzero(infected)),
    )


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
    ratios = tuple(float(r) for r in ratios)
    if not ratios:
        raise InputError("ratios must be nonempty")
    if list(ratios) != sorted(ratios):
        raise InputError("ratios must be sorted ascending")
    if runs_per_ratio < 1:
        raise InputError("runs_per_ratio must be >= 1")
    probs = []
    for i, ratio in enumerate(ratios):
        beta = ratio * base_params.delta
        if not 0.0 <= beta <= 1.0:
            raise InputError(
                f"ratio {ratio} with delta {base_params.delta} gives beta outside [0, 1]"
            )
        extinct = 0
        for j in range(runs_per_ratio):
            seed = int(
                np.random.SeedSequence([base_params.seed, i, j]).generate_state(
                    1, np.uint64
                )[0]
            )
            trace = sis_simulate(g, replace(base_params, beta=beta, seed=seed))
            extinct += trace.outcome == "extinct"
        probs.append(extinct / runs_per_ratio)
    return ThresholdSweep(
        ratios=ratios, extinction_prob=tuple(probs), runs_per_ratio=runs_per_ratio
    )


def _average_ranks(values) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        rank = (i + j) / 2 + 1
        for t in range(i, j + 1):
            ranks[order[t]] = rank
        i = j + 1
    return ranks


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


def lambda_vs_size(corpus_results) -> SizeSpectralTrend:
    """(n, lambda1) pairs sorted by n, with their Spearman correlation.

    Accepts (n, lambda1) tuples or report dicts; reports whose spectral
    section was skipped are ignored.  Fewer than 2 usable pairs leave
    the correlation undefined; zero variance on either side scores 0.
    """
    pairs = []
    for item in corpus_results:
        if isinstance(item, dict):
            spectral = item.get("spectral") or {}
            lam = spectral.get("lambda1")
            if lam is None:
                continue
            pairs.append((int(item["graph"]["n"]), float(lam)))
        else:
            n, lam = item
            pairs.append((int(n), float(lam)))
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
