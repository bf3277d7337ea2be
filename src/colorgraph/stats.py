"""Statistical distances and empirical summaries used by the test suites."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "tv_distance",
    "empirical_pmf",
    "ks_statistic",
    "two_sample_ks",
    "ecdf",
    "empirical_moments",
    "EmpiricalMoments",
]

_MAX_BLOCKS = 10_000  # the most jackknife blocks ``empirical_moments`` groups samples into


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
    if np.isnan(values[-1]):  # NaN sorts last
        raise ValueError("samples hold NaN")
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


def _sorted_sample(samples) -> np.ndarray:
    """``samples`` as sorted float64; ValueError if empty or if one is NaN (NaN sorts last)."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    if x.size == 0:
        raise ValueError("need at least one sample on each side")
    if np.isnan(x[-1]):
        raise ValueError("samples hold NaN")
    return x


def _run_ends(x: np.ndarray) -> np.ndarray:
    """For each point of the sorted ``x``: the end of its run of equal values, #{x <= x[i]}."""
    last = np.flatnonzero(x[1:] != x[:-1]) + 1  # the end of every run but the final one
    ends = np.append(last, x.size)
    return np.repeat(ends, np.diff(ends, prepend=0))


def two_sample_ks(a, b) -> float:
    """sup_x |F_a(x) - F_b(x)| between two empirical cdfs, evaluated exactly; ValueError on NaN.

    The sup is taken over both samples' points. A side's cdf at its own
    points is the end of each point's run of equal values over its size;
    only the other side's points are searched for.
    """
    xa, xb = _sorted_sample(a), _sorted_sample(b)
    gap_a = _run_ends(xa) / xa.size - np.searchsorted(xb, xa, side="right") / xb.size
    gap_b = np.searchsorted(xa, xb, side="right") / xa.size - _run_ends(xb) / xb.size
    return float(max(np.abs(gap_a).max(), np.abs(gap_b).max()))


@dataclass(frozen=True)
class EmpiricalMoments:
    raw: tuple[float, ...]
    central: tuple[float, ...]
    raw_se: tuple[float, ...]
    central_se: tuple[float, ...]


def empirical_moments(samples, k_max: int) -> EmpiricalMoments:
    """Plug-in raw and central moments with delete-one-block jackknife SEs.

    Samples are grouped into at most ``_MAX_BLOCKS`` contiguous blocks; the
    jackknife recomputes each estimator with one block removed, which keeps
    the whole computation O(n + blocks * k^2).
    """
    if not 1 <= k_max <= 8:
        raise ValueError(f"k_max must be in [1, 8], got {k_max}")
    x = np.asarray(samples, dtype=np.float64)
    n = x.size
    if n < 2:
        raise ValueError("need at least two samples")
    blocks = min(_MAX_BLOCKS, n)  # at least 2
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
    # (-mean)^e once per order e = 0..k_max, then laid out as (-mean)^(k - j)
    neg_mean_powers = np.power(-raw[:, :1], orders)[:, np.maximum(orders[:, None] - orders[None, :], 0)]
    central = (binom * raw_from_0[:, None, :] * neg_mean_powers).sum(axis=2)[:, 1:]

    def jack_se(jacks: np.ndarray) -> np.ndarray:
        mean = jacks.mean(axis=0)
        return np.sqrt((blocks - 1) / blocks * ((jacks - mean) ** 2).sum(axis=0))

    return EmpiricalMoments(
        raw=tuple(raw[0]),
        central=tuple(central[0]),
        raw_se=tuple(jack_se(raw[1:])),
        central_se=tuple(jack_se(central[1:])),
    )
