"""Degree sequences and maximum-likelihood tail fits.

Distributions are discrete (degrees are counts).  The power-law model
on a tail x >= x_min has P[X = x] = x^-gamma / zeta(gamma, x_min); its
log-likelihood

    L(gamma) = -gamma * sum(log x_i) - n_tail * log(zeta(gamma, x_min))

is maximized numerically, and x_min is chosen by minimizing the
Kolmogorov-Smirnov distance of the fitted tail.  The exponential
alternative is the geometric distribution on the same support.  Zero
degrees are excluded from tails (their log is undefined); callers can
report their mass separately.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .graph import CallGraph, CallGraphError, ConfigError, InputError, _integer, _unique

_GAMMA_BOUNDS = (1.0 + 1e-9, 50.0)


class DegenerateSampleError(CallGraphError):
    """Sample has no variation left to fit."""


@dataclass(frozen=True)
class DegreeSequence:
    mode: str
    values: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class DegreeSummary:
    mean: float
    variance: float


@dataclass(frozen=True)
class PowerLawFit:
    gamma: float
    x_min: int
    n_tail: int
    log_likelihood: float
    ks_stat: float


@dataclass(frozen=True)
class ExponentialFit:
    rate: float
    x_min: int
    log_likelihood: float


@dataclass(frozen=True)
class FitComparison:
    lr: float
    normalized_lr: float
    verdict: str


def degree_sequence(g: CallGraph, mode: str) -> DegreeSequence:
    """Per-node degrees; total = in + out on directed graphs."""
    if mode == "in":
        values = g.in_degrees
    elif mode == "out":
        values = g.out_degrees
    elif mode == "total":
        values = g.in_degrees + g.out_degrees if g.directed else g.out_degrees
    else:
        raise ConfigError(f"unknown degree mode: {mode!r}")
    return DegreeSequence(mode=mode, values=tuple(values.tolist()))


def empirical_ccdf(seq: DegreeSequence) -> list[tuple[int, float]]:
    """(degree, P[X > degree]) over sorted distinct degrees."""
    if seq.n == 0:
        raise InputError("empty degree sequence")
    degrees, repeats = np.unique(seq.values, return_counts=True)
    remaining = (seq.n - np.cumsum(repeats)).tolist()
    return [(d, r / seq.n) for d, r in zip(degrees.tolist(), remaining)]


def degree_summary(seq: DegreeSequence) -> DegreeSummary:
    """Arithmetic mean and unbiased sample variance (0 when n = 1)."""
    if seq.n == 0:
        raise InputError("empty degree sequence")
    mean = math.fsum(seq.values) / seq.n
    if seq.n == 1:
        variance = 0.0
    else:
        variance = math.fsum((v - mean) ** 2 for v in seq.values) / (seq.n - 1)
    return DegreeSummary(mean=mean, variance=variance)


# (2j)! / B_2j for j = 1..12: the Euler-Maclaurin divisors of ``_zeta``
_ZETA_DIVISORS = (
    12.0,
    -720.0,
    30240.0,
    -1209600.0,
    47900160.0,
    -1.8924375803183791606e9,
    7.47242496e10,
    -2.950130727918164224e12,
    1.1646782814350067249e14,
    -4.5979787224074726105e15,
    1.8152105401943546773e17,
    -7.1661652561756670113e18,
)
_MACHEP = 1.11022302462515654042e-16


def _zeta(s: float, q):
    """Hurwitz zeta(s, q) = sum over k >= 0 of (q + k)^-s, for s > 1 and
    q > 0; an array q gives the array of values.

    A step-for-step port of the cephes ``zeta`` that scipy's
    ``special.zeta(s, q)`` runs: the asymptotic form for q > 1e8, else
    at least 9 direct terms (until q + terms > 9), then up to 12
    Euler-Maclaurin corrections, each sum stopping once a term is below
    machine epsilon relative to it.  Powers go through ``math.pow``, the
    C library's ``pow`` as in cephes (``np.power`` may take a SIMD path
    with other last bits), so every value is bit-identical to scipy's
    and scipy.special stays unloaded.  ``total and`` stands in for C's
    NaN from 0/0, which compares false, once every term underflows.
    """
    if np.ndim(q):
        values = [_zeta(s, v) for v in np.ravel(q).astype(np.float64).tolist()]
        return np.array(values).reshape(np.shape(q))
    q = float(q)
    if q > 1e8:
        return (1 / (s - 1) + 1 / (2 * q)) * math.pow(q, 1 - s)
    total = math.pow(q, -s)
    a, i = q, 0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = math.pow(a, -s)
        total += b
        if total and abs(b / total) < _MACHEP:
            return total
    w = a
    total += b * w / (s - 1.0)
    total -= 0.5 * b
    a, k = 1.0, 0.0
    for divisor in _ZETA_DIVISORS:
        a *= s + k
        b /= w
        t = a * b / divisor
        total += t
        if total and abs(t / total) < _MACHEP:
            break
        k += 1.0
        a *= s + k
        b /= w
        k += 1.0
    return total


def _power_law_loglik(gamma: float, log_sum: float, n_tail: int, x_min: int) -> float:
    return -gamma * log_sum - n_tail * math.log(_zeta(gamma, x_min))


def _mle_gamma(log_sum: float, n_tail: int, x_min: int) -> float:
    return _minimize_bounded(
        lambda t: -_power_law_loglik(t, log_sum, n_tail, x_min), _GAMMA_BOUNDS
    )


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _minimize_bounded(f, bounds, xatol: float = 1e-9, maxfun: int = 500) -> float:
    """Brent's bounded minimizer (Brent 1973, ch. 5): golden-section
    steps with parabolic interpolation, stopping when the bracket is
    within tol2 of the best point or after ``maxfun`` evaluations.

    A step-for-step port of scipy's ``minimize_scalar(method="bounded")``
    (its ``_minimize_scalar_bounded``): every comparison and float
    operation matches, so the returned abscissa is bit-identical, and
    scipy's optimize package, about 14 MiB once imported, stays unloaded.
    """
    a, b = bounds
    fulc = nfc = xf = a + _GOLDEN * (b - a)
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through xf, nfc, fulc
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN * e
        # a step of at least tol1; rat == 0 steps upward, as np.sign + 1 does
        step = max(abs(rat), tol1)
        x = xf - step if rat < 0 else xf + step
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return float(xf)


def _ks_distance(
    distinct: np.ndarray, cum_counts: np.ndarray, n_tail: int, gamma: float, x_min: int
) -> float:
    fitted_cdf = 1.0 - _zeta(gamma, distinct + 1) / _zeta(gamma, x_min)
    empirical_cdf = cum_counts / n_tail
    return float(np.max(np.abs(empirical_cdf - fitted_cdf)))


def fit_power_law(seq: DegreeSequence, x_min: int | None = None) -> PowerLawFit:
    """Discrete power-law MLE with KS-minimizing x_min.

    Every distinct positive degree is a cutoff candidate; candidates
    whose tail has fewer than 2 samples or no value above the cutoff
    are degenerate and skipped.  Ties on ks_stat keep the smallest
    x_min.  Passing x_min pins the cutoff instead of scanning, which
    is what a like-for-like model comparison on a fixed tail wants.
    """
    if x_min is not None:
        x_min = _integer("x_min", x_min, 1)
    positives = np.sort(np.asarray([v for v in seq.values if v > 0], dtype=np.int64))
    distinct_all = _unique(positives)
    if distinct_all.size < 2:
        raise DegenerateSampleError(
            "need at least 2 distinct positive degrees to fit a power law"
        )
    candidates = distinct_all.tolist() if x_min is None else [x_min]
    logs = np.log(positives.astype(np.float64))
    suffix_log = np.concatenate([np.cumsum(logs[::-1])[::-1], [0.0]])
    best: PowerLawFit | None = None
    for x_min in candidates:
        start = int(bisect_left(positives, x_min))
        n_tail = positives.size - start
        if n_tail < 2 or int(positives[-1]) <= x_min:
            continue
        log_sum = float(suffix_log[start])
        gamma = _mle_gamma(log_sum, n_tail, x_min)
        tail_distinct = distinct_all[distinct_all >= x_min]
        cum = n_tail - (
            positives.size - np.searchsorted(positives, tail_distinct, side="right")
        )
        ks = _ks_distance(tail_distinct, cum, n_tail, gamma, x_min)
        if best is None or ks < best.ks_stat:
            best = PowerLawFit(
                gamma=gamma,
                x_min=int(x_min),
                n_tail=int(n_tail),
                log_likelihood=_power_law_loglik(gamma, log_sum, n_tail, x_min),
                ks_stat=ks,
            )
    if best is None:
        raise DegenerateSampleError("no viable x_min candidate (zero-variance tail)")
    return best


def fit_exponential(seq: DegreeSequence, x_min: int) -> ExponentialFit:
    """Geometric MLE on the tail >= x_min: q = 1 / (1 + mean(x - x_min))."""
    x_min = _integer("x_min", x_min, 1)
    tail = [v for v in seq.values if v >= x_min]
    if not tail:
        raise InputError(f"empty tail at x_min={x_min}")
    excess = math.fsum(v - x_min for v in tail)
    if excess == 0:
        raise DegenerateSampleError(
            "all tail values equal x_min; geometric MLE degenerates to q=1"
        )
    q = 1.0 / (1.0 + excess / len(tail))
    log_likelihood = len(tail) * math.log(q) + excess * math.log1p(-q)
    return ExponentialFit(rate=q, x_min=x_min, log_likelihood=log_likelihood)


def _log_likelihood_diffs(
    pl: PowerLawFit, ex: ExponentialFit, tail: list[int]
) -> list[float]:
    # per-sample log p_powerlaw(x) - log p_geometric(x), shared support
    log_norm = math.log(_zeta(pl.gamma, pl.x_min))
    log_q = math.log(ex.rate)
    log_1mq = math.log1p(-ex.rate)
    return [
        (-pl.gamma * math.log(x) - log_norm) - (log_q + (x - ex.x_min) * log_1mq)
        for x in tail
    ]


def compare_fits(
    pl: PowerLawFit, ex: ExponentialFit, seq: DegreeSequence
) -> FitComparison:
    """Vuong-style likelihood-ratio comparison on the shared tail.

    lr > 0 favours the power law.  The verdict needs |normalized_lr|
    >= 2 (roughly 95% two-sided); anything less is inconclusive.
    """
    if ex.x_min != pl.x_min:
        raise InputError(
            f"fits use different tails: x_min {pl.x_min} vs {ex.x_min}"
        )
    tail = [v for v in seq.values if v >= pl.x_min]
    if len(tail) < 2:
        raise DegenerateSampleError("tail too small to compare fits")
    diffs = _log_likelihood_diffs(pl, ex, tail)
    lr = math.fsum(diffs)
    n = len(diffs)
    mean = lr / n
    variance = math.fsum((d - mean) ** 2 for d in diffs) / (n - 1)
    sigma = math.sqrt(variance)
    if sigma == 0.0:
        normalized = 0.0
    else:
        normalized = lr / (sigma * math.sqrt(n))
    if normalized >= 2.0:
        verdict = "power_law"
    elif normalized <= -2.0:
        verdict = "exponential"
    else:
        verdict = "inconclusive"
    return FitComparison(lr=lr, normalized_lr=normalized, verdict=verdict)
