"""Statistical distances and empirical summaries used by the test suites."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "validate_pmf",
    "tv_distance",
    "empirical_pmf",
    "ks_statistic",
    "two_sample_ks",
    "ecdf",
    "empirical_moments",
    "EmpiricalMoments",
]

_PMF_SUM_TOL = 1e-10


def validate_pmf(p: Mapping) -> None:
    total = sum(float(x) for x in p.values())
    if any(float(x) < 0 for x in p.values()):
        raise ValueError("pmf has negative probabilities")
    if abs(total - 1.0) > _PMF_SUM_TOL:
        raise ValueError(f"pmf sums to {total!r}, not 1")


def tv_distance(p: Mapping, q: Mapping) -> float:
    """Total variation distance: half the L1 gap over the union support, summed in sorted order.

    The order fixes the value: support points where both sides are 0 add
    nothing, so it does not depend on how far either table runs.
    """
    support = sorted(set(p) | set(q))
    return 0.5 * sum(abs(float(p.get(x, 0)) - float(q.get(x, 0))) for x in support)


def _checked_weights(arr: np.ndarray, weights) -> np.ndarray:
    """``weights`` as float64, all 1 by default; ValueError unless nonnegative, one per sample, sum > 0."""
    w = np.ones_like(arr) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != arr.shape or np.any(w < 0) or not w.sum() > 0:
        raise ValueError("weights must be nonnegative, one per sample, with a positive sum")
    return w


def empirical_pmf(values, weights) -> dict:
    """Each value's share of the total weight, added in input order; weights checked as in ``ks_statistic``."""
    _checked_weights(np.asarray(values, dtype=np.float64), weights)
    total = sum(weights)
    pmf: dict = {}
    for v, w in zip(values, weights):
        pmf[v] = pmf.get(v, 0.0) + w / total
    return pmf


def ks_statistic(samples, cdf: Callable[[float], float], weights=None) -> float:
    """sup_x |empirical cdf - cdf| over the sample points, both sides of each jump.

    ``weights`` (nonnegative, default all 1) gives each sample its share of
    the empirical mass. ``cdf`` is called once per distinct sample value.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("need at least one sample")
    w = _checked_weights(arr, weights)
    values, inverse = np.unique(arr, return_inverse=True)
    mass = np.bincount(inverse.ravel(), weights=w.ravel(), minlength=values.size)
    through = np.cumsum(mass)
    total = through[-1]
    ref = np.array([cdf(float(x)) for x in values])
    upper = through / total - ref
    lower = ref - (through - mass) / total
    return float(max(upper.max(), lower.max(), 0.0))


def ecdf(reference) -> Callable[[float], float]:
    """Right-continuous empirical cdf of a reference sample, as a callable."""
    ref = np.sort(np.asarray(reference, dtype=np.float64))
    n = ref.size

    def cdf(x: float) -> float:
        return float(np.searchsorted(ref, x, side="right")) / n

    return cdf


def two_sample_ks(a, b) -> float:
    """sup_x |F_a(x) - F_b(x)| between two empirical cdfs, evaluated exactly."""
    xa = np.sort(np.asarray(a, dtype=np.float64))
    xb = np.sort(np.asarray(b, dtype=np.float64))
    if xa.size == 0 or xb.size == 0:
        raise ValueError("need at least one sample on each side")
    grid = np.concatenate((xa, xb))
    fa = np.searchsorted(xa, grid, side="right") / xa.size
    fb = np.searchsorted(xb, grid, side="right") / xb.size
    return float(np.max(np.abs(fa - fb)))


@dataclass(frozen=True)
class EmpiricalMoments:
    raw: tuple[float, ...]
    central: tuple[float, ...]
    raw_se: tuple[float, ...]
    central_se: tuple[float, ...]


def empirical_moments(samples, k_max: int, max_blocks: int = 10_000) -> EmpiricalMoments:
    """Plug-in raw and central moments with delete-one-block jackknife SEs.

    Samples are grouped into at most ``max_blocks`` contiguous blocks; the
    jackknife recomputes each estimator with one block removed, which keeps
    the whole computation O(n + blocks * k^2).
    """
    if not 1 <= k_max <= 8:
        raise ValueError(f"k_max must be in [1, 8], got {k_max}")
    x = np.asarray(samples, dtype=np.float64)
    n = x.size
    if n < 2:
        raise ValueError("need at least two samples")
    blocks = min(max_blocks, n)
    bounds = np.linspace(0, n, blocks + 1).astype(int)
    # per-block power sums, order 0..k_max; blocks + 1 <= n + 1 keeps every block nonempty
    sums = np.empty((blocks, k_max + 1))
    sums[:, 0] = np.diff(bounds)
    powers = np.ones_like(x)
    for k in range(1, k_max + 1):
        powers = powers * x
        sums[:, k] = np.add.reduceat(powers, bounds[:-1])
    total = sums.sum(axis=0)
    # row 0: the full sample; row 1 + b: the sample without block b
    power_sums = np.vstack((total, total - sums))
    raw = power_sums[:, 1:] / power_sums[:, :1]
    # mu_k = sum_j C(k, j) raw_j (-mean)^{k-j}, with raw_0 = 1 and C(k, j) = 0 for j > k
    orders = np.arange(k_max + 1)
    binom = np.array([[math.comb(k, j) for j in range(k_max + 1)] for k in range(k_max + 1)], dtype=np.float64)
    raw_from_0 = np.hstack((np.ones((raw.shape[0], 1)), raw))
    neg_mean_powers = (-raw[:, :1, None]) ** np.maximum(orders[:, None] - orders[None, :], 0)
    central = (binom * raw_from_0[:, None, :] * neg_mean_powers).sum(axis=2)[:, 1:]
    if blocks < 2:
        zeros = tuple(0.0 for _ in range(k_max))
        return EmpiricalMoments(tuple(raw[0]), tuple(central[0]), zeros, zeros)

    def jack_se(jacks: np.ndarray) -> np.ndarray:
        mean = jacks.mean(axis=0)
        return np.sqrt((blocks - 1) / blocks * ((jacks - mean) ** 2).sum(axis=0))

    return EmpiricalMoments(
        raw=tuple(raw[0]),
        central=tuple(central[0]),
        raw_se=tuple(jack_se(raw[1:])),
        central_se=tuple(jack_se(central[1:])),
    )
