"""Seeded random-graph generators used as baselines and fixtures."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .degree import _zeta
from .graph import CallGraph, ConfigError, _integer, _real

GNM = "erdos_renyi_gnm"
ERASED_CONFIG = "erased_configuration"


class SpecError(ConfigError):
    """Invalid random-graph parameters."""


@dataclass(frozen=True)
class RandomGraphSpec:
    """Parameters for generate_random; seed makes the draw reproducible.
    Checked when built: a bad value raises SpecError."""

    model: str
    n: int
    m: int = 0
    gamma: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.model not in (GNM, ERASED_CONFIG):
            raise SpecError(f"unknown model: {self.model!r}")
        gamma = self.gamma
        if gamma is not None:
            gamma = _real("gamma", gamma, SpecError)
            if not math.isfinite(gamma):
                raise SpecError(f"gamma must be finite, got {gamma}")
        if self.model == ERASED_CONFIG and (gamma is None or gamma <= 1):
            raise SpecError("erased_configuration requires gamma > 1")
        n = _integer("n", self.n, 1, SpecError)
        seed = _integer("seed", self.seed, 0, SpecError)
        m = _integer("m", self.m, 0, SpecError)
        if self.model == GNM and m > n * (n - 1):
            raise SpecError(f"m={m} outside [0, n(n-1)] = [0, {n * (n - 1)}]")
        for name, value in (("gamma", gamma), ("n", n), ("m", m), ("seed", seed)):
            object.__setattr__(self, name, value)  # the class is frozen


def sample_power_law(
    gamma: float, size: int, rng: np.random.Generator, x_min: int = 1
) -> np.ndarray:
    """Draw integers k >= x_min with P[X = k] proportional to k^-gamma.

    Inversion against the zeta-normalized CDF, tabulated over the first
    10^6 support points; draws falling beyond the table (probability
    ~1e-9 per draw at gamma=2.5) use the asymptotic tail inverse.
    """
    gamma = _real("gamma", gamma, SpecError)
    if gamma <= 1:
        raise SpecError("power-law sampler requires gamma > 1")
    x_min = _integer("x_min", x_min, 1, SpecError)
    size = _integer("size", size, 0, SpecError)
    table = 1_000_000
    support = np.arange(x_min, x_min + table, dtype=np.float64)
    norm = _zeta(gamma, x_min)
    cdf = np.cumsum(support**-gamma) / norm
    u = rng.random(size)
    out = x_min + np.searchsorted(cdf, u, side="right")
    beyond = u >= cdf[-1]
    if np.any(beyond):
        # CCDF(k) ~ k^(1-gamma) / ((gamma-1) * norm) for large k
        tail = ((1.0 - u[beyond]) * (gamma - 1.0) * norm) ** (-1.0 / (gamma - 1.0))
        out[beyond] = np.maximum(np.rint(tail).astype(np.int64), x_min + table)
    return out.astype(np.int64)


def top_up_codes(codes: np.ndarray, m: int, draw) -> np.ndarray:
    """Extend the distinct int64 ``codes`` to ``m`` distinct codes.

    While short by k, ``draw(k)`` gives a batch of candidate codes; the
    batch's first occurrences of codes not yet held are appended in
    draw order, up to m, and the rest of the batch is discarded.  This
    keeps exactly the codes that a loop adding each drawn code to a set
    until it held m would keep.
    """
    parts, have, held = [codes], codes.size, np.sort(codes)
    while have < m:
        batch = draw(m - have)
        _, first = np.unique(batch, return_index=True)
        batch = batch[np.sort(first)]
        fresh = batch[~np.isin(batch, held, assume_unique=True)][: m - have]
        parts.append(fresh)
        have += fresh.size
        held = np.sort(np.concatenate((held, fresh)))
    return np.concatenate(parts)


def _gnm_edges(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    # ordered non-self pairs are coded 0 .. n(n-1)-1
    total = n * (n - 1)
    if m * 3 >= total:
        codes = rng.permutation(total)[:m]
    else:
        codes = top_up_codes(
            np.empty(0, dtype=np.int64),
            m,
            lambda k: rng.integers(0, total, size=max(64, 2 * k)),
        )
    u = codes // (n - 1)
    r = codes % (n - 1)
    v = r + (r >= u)
    return np.column_stack((u, v))


def _erased_configuration_edges(
    n: int, gamma: float, rng: np.random.Generator
) -> np.ndarray:
    indeg = sample_power_law(gamma, n, rng)
    total = int(indeg.sum())
    outdeg = rng.multinomial(total, np.full(n, 1.0 / n))
    out_stubs = np.repeat(np.arange(n), outdeg)
    in_stubs = np.repeat(np.arange(n), indeg)
    rng.shuffle(in_stubs)
    return np.column_stack((out_stubs, in_stubs))


def generate_random(spec: RandomGraphSpec) -> CallGraph:
    """Generate a canonical CallGraph from a seeded model spec.

    erdos_renyi_gnm draws exactly m distinct directed non-self edges
    uniformly.  erased_configuration samples indegrees from a discrete
    power law (minimum 1), outdegrees multinomially to match the stub
    total, pairs stubs uniformly and erases self-loops and duplicates,
    so the realized edge count may fall below the stub total.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    if spec.model == GNM:
        pairs = _gnm_edges(spec.n, spec.m, rng)
    else:
        pairs = _erased_configuration_edges(spec.n, spec.gamma, rng)
    return CallGraph.from_id_pairs(spec.n, pairs)
