"""Limit laws of monochromatic-edge counts, their evaluation and sampling.

Four families cover every regime:

* ``Poisson`` for a growing color count with m/c converging to a constant
  (the law describes the raw count N);
* ``Normal`` for the standardized count (N - m/c)/sqrt(m/c), either with a
  growing color count (variance 1) or with c fixed and a vanishing
  four-cycle ratio (variance 1 - 1/c);
* ``WeightedChiSquare`` for dense hosts with c fixed: the limit of
  (N - m/c)/sqrt(2m) is scale * sum_i w_i xi_i with xi_i independent
  centered chi-square(dof) variables and w the normalized spectrum;
* ``PoissonMixture`` and ``AtomPlusNormal`` for the mixture phenomena
  exhibited by branching-tree and coarse bipartite hosts.

Each law type owns its ``cdf`` and its ``draw``; ``LimitLaw`` and
``DiscreteLaw`` are their base classes. A discrete law is Poisson with a
mean drawn from its ``mixing``, and ``Poisson`` is its own one-point
mixing, so every discrete law takes one pmf, cdf and sampling path.
Sampling is counter-based: element i of a sample path is a pure function of
(seed, i).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields, is_dataclass
from typing import Iterator, Union

import numpy as np

from . import rng
from .errors import (
    AmbiguousRegimeError,
    ConvergenceFailureError,
    DomainExceededError,
    WrongLawKindError,
)
from .graph import (
    Complete,
    CompleteBipartite,
    FamilySpec,
    Graph,
    Params,
    generate,
)

__all__ = [
    "Poisson",
    "PoissonMixing",
    "EmpiricalMixing",
    "PoissonMixture",
    "Normal",
    "WeightedChiSquare",
    "AtomPlusNormal",
    "LimitLaw",
    "law_to_dict",
    "law_from_dict",
    "Fixed",
    "Growing",
    "limit_for",
    "DiscreteLaw",
    "law_pmf",
    "law_pmf_terms",
    "law_cdf",
    "sample_law",
    "weighted_chisq_mgf",
    "delta_conditional_mgf",
    "gadget_char_function",
    "gaussian_surrogate_delta",
    "gaussian_surrogate_product",
    "ACF4_NORMAL_THRESHOLD",
    "ACF4_GRAY_UPPER",
]

_PMF_REL_TAIL = 1e-12
_WEIGHT_SUM_TOL = 1e-10
_WEIGHT_TRUNCATION_TAIL = 1e-6
_MIXTURE_MAX_TERMS = 10_000
_CDF_ACCURACY = 1e-6
_CDF_MAX_TERMS = 10_000_000
_CDF_BLOCK = 1 << 18

ACF4_NORMAL_THRESHOLD = 1e-2
ACF4_GRAY_UPPER = 1e-1

# range rules of ``Params.ranges``; the limit laws exist for finite parameters only
_FINITE = (math.isfinite, "finite")
_NONNEGATIVE = (lambda x: 0 <= x < math.inf, "finite and >= 0")
_POSITIVE = (lambda x: 0 < x < math.inf, "finite and > 0")


# ---------------------------------------------------------------------------
# law types
# ---------------------------------------------------------------------------


class LimitLaw:
    """Base of the limit laws: ``cdf(x)`` at a finite x, ``draw(seed, idx)`` for one ``rng.batches`` block."""

    row_cost = 1  # the array entries one draw needs


class DiscreteLaw(LimitLaw):
    """Poisson with a random mean drawn from ``mixing``: the laws with a pmf.

    A mixing gives ``mixed_pmf(k)``, the mixture's pmf at k, its ``largest_mean()``, and
    ``means(seed, idx)``, the Poisson means of a block. ``Poisson`` is its own one-point mixing.
    """

    def cdf(self, x: float) -> float:
        return 0.0 if x < 0 else min(1.0, sum(law_pmf_terms(self, int(x))))  # the rounded sum can pass 1

    def draw(self, seed: int, idx: np.ndarray) -> np.ndarray:
        return rng.poissons(seed, self.mixing.means(seed, idx), rng.STREAM_LAW, idx, 0)


def _poisson_pmf(lam: float, k: int) -> float:
    if k < 0:
        return 0.0
    if lam == 0.0:
        return 1.0 if k == 0 else 0.0
    return math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1))


@dataclass(frozen=True)
class Poisson(Params, DiscreteLaw):
    mean: float
    ranges = {"mean": _NONNEGATIVE}

    mixing = property(lambda self: self)  # Poisson is its own one-point mixing

    def mixed_pmf(self, k: int) -> float:
        return _poisson_pmf(self.mean, k)

    def largest_mean(self) -> float:
        return self.mean

    def means(self, seed: int, idx: np.ndarray) -> float:
        return self.mean


@dataclass(frozen=True)
class PoissonMixing(Params):
    mean: float
    ranges = {"mean": _NONNEGATIVE}

    def mixed_pmf(self, k: int) -> float:
        # sum_j P(Z = j) e^{-j} j^k / k!, truncated when the Poisson tail of
        # the mixing law is negligible relative to the accumulated sum
        mu = self.mean
        wj = math.exp(-mu)
        if wj < np.finfo(np.float64).tiny:
            raise DomainExceededError(f"Poisson mixing mean {mu:.6g} is too large: "
                                      "exp(-mean) underflows below the smallest normal double")
        total, weight_tail, j = 0.0, 1.0, 0
        while True:
            total += wj * _poisson_pmf(float(j), k)
            weight_tail -= wj
            # once wj underflows to 0 no later term changes the sum; the
            # rounded weight_tail alone may never reach the tolerance
            if j > mu and (wj == 0.0 or weight_tail <= _PMF_REL_TAIL * max(total, _PMF_REL_TAIL)):
                break
            j += 1
            wj *= mu / j
            if j > _MIXTURE_MAX_TERMS:
                raise DomainExceededError(f"Poisson mixing mean {mu} needs more than {_MIXTURE_MAX_TERMS} terms")
        return total

    def largest_mean(self) -> float:
        """The first j whose weight, computed as ``mixed_pmf`` computes it, is exactly 0.0."""
        j, wj = 0, math.exp(-self.mean)
        while wj > 0.0:
            j += 1
            wj *= self.mean / j
        return j

    def means(self, seed: int, idx: np.ndarray) -> np.ndarray:
        return rng.poissons(seed, self.mean, rng.STREAM_LAW, idx, 1).astype(np.float64)


@dataclass(frozen=True)
class EmpiricalMixing(Params):
    samples: tuple[float, ...]
    ranges = {"samples": (lambda s: s and all(0 <= x < math.inf for x in s), "nonempty, finite, >= 0")}

    def mixed_pmf(self, k: int) -> float:
        return float(np.mean([_poisson_pmf(z, k) for z in self.samples]))

    def largest_mean(self) -> float:
        return max(self.samples)

    def means(self, seed: int, idx: np.ndarray) -> np.ndarray:
        arr = np.asarray(self.samples, dtype=np.float64)
        return arr[rng.uniform_ints(seed, arr.size, rng.STREAM_LAW, idx, 2)]


@dataclass(frozen=True)
class PoissonMixture(Params, DiscreteLaw):
    """Poisson with a random mean Z: P(W = k) = E[e^{-Z} Z^k / k!]."""

    mixing: PoissonMixing | EmpiricalMixing
    ranges = {"mixing": (lambda m: isinstance(m, (PoissonMixing, EmpiricalMixing)), "a PoissonMixing or EmpiricalMixing")}


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


@dataclass(frozen=True)
class Normal(Params, LimitLaw):
    mean: float
    variance: float
    ranges = {"mean": _FINITE, "variance": _POSITIVE}

    def cdf(self, x: float) -> float:
        return _phi((x - self.mean) / math.sqrt(self.variance))

    def draw(self, seed: int, idx: np.ndarray) -> np.ndarray:
        return self.mean + math.sqrt(self.variance) * rng.normals(seed, rng.STREAM_LAW, idx, 0)


def _sum_first_axis(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=0)`` in the order ``ndarray.sum`` takes over a contiguous last axis, bit for bit.

    numpy adds fewer than 8 terms from left to right, starting from +0.0, so
    there the slices a[0], a[1], ... are added in that order, each a pass
    over contiguous rows; from 8 terms up it sums pairwise, and
    ``ndarray.sum`` runs on a copy with the axis last.
    """
    if a.shape[0] >= 8:
        return np.ascontiguousarray(np.moveaxis(a, 0, -1)).sum(axis=-1)
    total = a[0] + 0.0
    for part in a[1:]:
        total += part
    return total


@dataclass(frozen=True)
class WeightedChiSquare(Params, LimitLaw):
    """scale * sum_i weights_i * xi_i with xi_i iid chi-square(dof) - dof.

    Weights must be normalized: sum of squares 1 (within 1e-10).
    """

    weights: tuple[float, ...]
    dof: int
    scale: float
    ranges = {"weights": (lambda w: abs(sum(x * x for x in w) - 1) <= _WEIGHT_SUM_TOL, "of unit norm"),
              "dof": (lambda d: d >= 1, ">= 1"), "scale": _FINITE}

    @property
    def row_cost(self) -> int:
        return len(self.weights) * self.dof

    def effective_weights(self) -> tuple[tuple[float, ...], float]:
        """(weights kept for sampling, dropped squared mass).

        Weights are ordered by decreasing magnitude and truncated once the
        remaining squared mass falls below 1e-6.
        """
        ordered = sorted(self.weights, key=abs, reverse=True)
        total = sum(w * w for w in ordered)
        kept: list[float] = []
        acc = 0.0
        for w in ordered:
            if total - acc < _WEIGHT_TRUNCATION_TAIL:
                break
            kept.append(w)
            acc += w * w
        return tuple(kept), max(0.0, total - acc)

    def cdf(self, x: float) -> float:
        """P(law <= x) for the kept weights of ``effective_weights()``, the law ``draw`` draws.

        Within ``_CDF_ACCURACY``: exact 0 or 1 beyond a finite support endpoint, otherwise
        Imhof's inversion integral summed by :class:`_Inversion`.
        """
        kept, _ = self.effective_weights()
        lam = self.scale * np.asarray(kept, dtype=np.float64)
        endpoint = -self.dof * float(lam.sum())
        if lam.min() > 0.0 and x <= endpoint:
            return 0.0
        if lam.max() < 0.0 and x >= endpoint:
            return 1.0
        if not lam.any():
            return 1.0 if x >= 0.0 else 0.0
        value = _Inversion(lam, self.dof).probability_below(x - endpoint)
        return min(1.0, max(0.0, value))

    def draw(self, seed: int, idx: np.ndarray) -> np.ndarray:
        w = np.asarray(self.effective_weights()[0], dtype=np.float64)
        cols = np.arange(w.size, dtype=np.int64)[None, :, None]
        comp = np.arange(self.dof, dtype=np.int64)[:, None, None]
        # the path stays (draw, weight, component); laid out (component, weight, draw), every pass runs along draws
        z = rng.normals(seed, rng.STREAM_LAW, idx[None, None, :], cols, comp)
        # per-draw sums in ``ndarray.sum``'s order, not a BLAS product: a draw's rounding must not
        # depend on the block's rows
        squares = _sum_first_axis(np.multiply(z, z, out=z))
        squares -= self.dof
        squares *= w[:, None]
        return self.scale * _sum_first_axis(squares)


@dataclass(frozen=True)
class AtomPlusNormal(Params, LimitLaw):
    """Mixture of a point mass at 0 (weight atom_mass) and N(0, variance)."""

    atom_mass: float
    variance: float
    ranges = {"atom_mass": (lambda p: 0 <= p <= 1, "in [0, 1]"), "variance": _POSITIVE}

    def cdf(self, x: float) -> float:
        atom = self.atom_mass if x >= 0 else 0.0
        return atom + (1.0 - self.atom_mass) * _phi(x / math.sqrt(self.variance))

    def draw(self, seed: int, idx: np.ndarray) -> np.ndarray:
        out = math.sqrt(self.variance) * rng.normals(seed, rng.STREAM_LAW, idx, 0)
        out[rng.uniforms(seed, rng.STREAM_LAW, idx, 3) < self.atom_mass] = 0.0
        return out


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------

# A document is {"kind": ..., <the dataclass fields>}, with tuples as lists and
# the mixing of a Poisson mixture as a nested document of a mixing kind.
_LAW_KINDS = {"poisson": Poisson, "normal": Normal, "weighted_chi_square": WeightedChiSquare,
              "atom_plus_normal": AtomPlusNormal, "poisson_mixture": PoissonMixture}
_MIXING_KINDS = {"poisson": PoissonMixing, "empirical": EmpiricalMixing}
_KIND_OF = {cls: kind for table in (_LAW_KINDS, _MIXING_KINDS) for kind, cls in table.items()}


def _to_dict(obj) -> dict:
    doc = {"kind": _KIND_OF[type(obj)]}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            value = _to_dict(value)
        doc[f.name] = list(value) if isinstance(value, tuple) else value
    return doc


def _from_dict(doc, kinds: dict):
    try:
        cls = kinds[doc["kind"]]
        values = {f.name: doc[f.name] for f in fields(cls)}
        if "mixing" in values:
            values["mixing"] = _from_dict(values["mixing"], _MIXING_KINDS)
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in values.items()})
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed law document {doc!r} ({type(exc).__name__}: {exc})") from exc


def law_to_dict(law: LimitLaw) -> dict:
    """The JSON document of ``law``; a weighted chi-square also records its sampling truncation."""
    doc = _to_dict(law)
    if isinstance(law, WeightedChiSquare):
        kept, dropped = law.effective_weights()
        doc["sampling_truncation"] = {"kept": len(kept), "dropped_square_mass": dropped}
    return doc


def law_from_dict(doc) -> LimitLaw:
    """The law of a :func:`law_to_dict` document; ValueError for a malformed one."""
    return _from_dict(doc, _LAW_KINDS)


# ---------------------------------------------------------------------------
# pmf, cdf and sampling
# ---------------------------------------------------------------------------


def law_pmf(law: LimitLaw, k: int) -> float:
    """P(law = k) for the discrete laws; WrongLawKindError otherwise, ValueError at a non-integer k."""
    if not isinstance(law, DiscreteLaw):
        raise WrongLawKindError(f"{type(law).__name__} has no pmf")
    if not float(k).is_integer():
        raise ValueError(f"a discrete law has mass only at integers, got k = {k!r}")
    return law.mixing.mixed_pmf(k)


def law_pmf_terms(law: LimitLaw, top: int) -> Iterator[float]:
    """law_pmf(law, k) for k = 0..top, stopping at the first 0.0 past the largest mean.

    Past every mean each Poisson term falls with k, so once the pmf is 0.0
    it stays 0.0, and the sum of the terms is the same to the bit. A law
    without a pmf raises WrongLawKindError, as in ``law_pmf``.
    """
    if not isinstance(law, DiscreteLaw):
        raise WrongLawKindError(f"{type(law).__name__} has no pmf")
    largest = law.mixing.largest_mean()
    for k in range(top + 1):
        p = law_pmf(law, k)
        if p == 0.0 and k > largest:
            return
        yield p


def law_cdf(law: LimitLaw, x: float) -> float:
    """P(law <= x); exactly 0 at -inf and 1 at +inf, ValueError at NaN."""
    if math.isnan(x):
        raise ValueError(f"cdf point must be a number, got x = {x!r}")
    if not isinstance(law, LimitLaw):
        raise WrongLawKindError(f"unknown law {law!r}")
    return (0.0 if x < 0 else 1.0) if math.isinf(x) else law.cdf(x)


def sample_law(law: LimitLaw, count: int, seed: int) -> np.ndarray:
    """``count`` independent draws; draw i depends only on (seed, i), not on ``count``."""
    if count < 1:
        raise ValueError(f"need at least one sample, got {count}")
    if not isinstance(law, LimitLaw):
        raise WrongLawKindError(f"unknown law {law!r}")
    return np.concatenate([law.draw(seed, idx) for idx in rng.batches(0, count, law.row_cost)]).astype(np.float64)


# ---------------------------------------------------------------------------
# weighted chi-square cdf: Imhof inversion with Davies' error control
# ---------------------------------------------------------------------------


class _Inversion:
    """P(Q < c) for Q = sum_j lam_j chi^2_dof by Davies' algorithm (1980, AS 155).

    Gil-Pelaez/Imhof: P(Q < c) = 1/2 - (1/pi) int_0^inf Im[phi(u) e^{-iuc}] / u du
    with phi(u) = prod_j (1 - 2i lam_j u)^{-dof/2}, summed by the midpoint
    rule. The step is chosen from Chernoff bounds on both tails, which bound
    the aliasing error; the truncation point from a bound on the integrand's
    tail. Where phi decays slowly (one weight with dof 1 or 2, two with dof
    1) a convergence factor exp(-tau^2 u^2 / 2), that is Q + N(0, tau^2),
    shortens the range; the difference it makes is integrated on a coarser
    grid with its own bound. The errors sum to at most ``_CDF_ACCURACY``.
    ``lam`` is ordered by decreasing magnitude, as ``effective_weights``
    returns it. ``sigsq`` holds the variance of the convergence factors.
    """

    _LOG28 = math.log(2.0) / 8.0

    def __init__(self, lam: np.ndarray, dof: int):
        self.lam = lam
        self.dof = dof
        self.sigsq = 0.0
        self.mean = dof * float(lam.sum())
        self.lmax = max(0.0, float(lam.max()))
        self.lmin = min(0.0, float(lam.min()))

    def _chernoff(self, u: float) -> tuple[float, float]:
        """(bound, cx): P(Q + N(0, sigsq) beyond cx) <= bound, upper tail for u > 0.

        cx is the mean of the law tilted by e^{uQ}; the bound is
        M(u) e^{-u cx} with M the MGF of :func:`weighted_chisq_mgf`.
        """
        x = 2.0 * u * self.lam
        cx = self.sigsq * u + self.dof * float(np.sum(self.lam / (1.0 - x)))
        log_mgf = _weighted_chisq_log_mgf(self.lam, self.dof, u) + 0.5 * self.sigsq * u * u
        exponent = log_mgf - u * (cx - self.mean)
        return (0.0 if exponent < -50.0 else math.exp(exponent)), cx

    def _cutoff(self, acc: float, u2: float) -> tuple[float, float]:
        """(c2, u2): P(Q > c2) < acc for u2 > 0, P(Q < c2) < acc for u2 < 0."""
        u1, c1 = 0.0, self.mean
        rb = 2.0 * (self.lmax if u2 > 0 else self.lmin)
        bound, c2 = self._chernoff(u2 / (1.0 + u2 * rb))
        while bound > acc:
            u1, c1, u2 = u2, c2, 2.0 * u2
            bound, c2 = self._chernoff(u2 / (1.0 + u2 * rb))
        while (c1 - self.mean) / (c2 - self.mean) < 0.9:
            u = 0.5 * (u1 + u2)
            bound, cx = self._chernoff(u / (1.0 + u * rb))
            if bound > acc:
                u1, c1 = u, cx
            else:
                u2, c2 = u, cx
        return c2, u2

    def _truncation(self, u: float, tausq: float) -> float:
        """Bound on (1/pi) int_u^inf |phi(t)| e^{-(sigsq + tausq) t^2 / 2} / t dt."""
        sum2 = (self.sigsq + tausq) * u * u
        x = (2.0 * u * self.lam) ** 2
        big = x > 1.0
        log1px = np.log1p(x)
        prod1 = 2.0 * sum2 + self.dof * float(log1px[~big].sum())
        prod2 = prod1 + self.dof * float(np.log(x[big]).sum())
        prod3 = prod1 + self.dof * float(log1px[big].sum())
        s = self.dof * int(np.count_nonzero(big))
        power = math.exp(-0.25 * prod2) / math.pi  # |phi(t)| <= pi power (u/t)^{s/2}, t >= u
        y = math.exp(-0.25 * prod3) / math.pi  # |phi(u)| / pi
        err = min(1.0 if s == 0 else 2.0 * power / s, 2.5 * y if prod3 > 1.0 else 1.0)
        half = 0.5 * sum2
        return min(err, 1.0 if half <= y else y / half)

    def _truncation_point(self, ut: float, acc: float) -> float:
        """u with truncation(u) <= acc, within a factor 1.1 of the smallest such."""
        if self._truncation(ut / 4.0, 0.0) > acc:
            while self._truncation(ut, 0.0) > acc:
                ut *= 4.0
        else:
            ut /= 4.0
            while self._truncation(ut / 4.0, 0.0) <= acc:
                ut /= 4.0
        for div in (2.0, 1.4, 1.2, 1.1):
            if self._truncation(ut / div, 0.0) <= acc:
                ut /= div
        return ut

    def _smoothing_error(self, c: float) -> float | None:
        """Coefficient e with |P(Q + N(0, tau^2) < c) - P(Q < c)| <= e tau^2.

        Davies' bound: from |c|, subtract the means of the same-signed
        weights, smallest first, while the rest stays beyond |lam_j| / log28;
        the dof of the larger weights left over enter as 2^{dof/4}. None
        where the bound is useless: the exponent passes 100, or far out the
        coefficient underflows to 0.
        """
        sign = 1.0 if c > 0.0 else -1.0
        rising = self.lam[::-1] * sign
        pos = np.flatnonzero(rising > 0.0)
        a = rising[pos]
        after = abs(c) - self.dof * np.cumsum(a)
        stop = np.flatnonzero(after <= a / self._LOG28)
        if stop.size == 0:
            axl = float(after[-1]) if a.size else abs(c)
            exponent = 0.0
        else:
            k = int(stop[0])
            lj = float(a[k])
            axl = min(abs(c) if k == 0 else float(after[k - 1]), lj / self._LOG28)
            larger = self.lam.size - 1 - int(pos[k])
            exponent = (axl - float(after[k])) / lj + self.dof * larger
        if exponent > 100.0:
            return None
        return 2.0 ** (exponent / 4.0) / (math.pi * axl * axl) or None

    def _integrate(self, nterm: int, step: float, c: float, tausq: float | None):
        """Midpoint sum of the inversion integrand over u_k = (k + 1/2) step, k <= nterm.

        With ``tausq`` the integrand is multiplied by 1 - exp(-tausq u^2 / 2).
        Returns (sum, sum of the terms' round-off scales).
        """
        total = roundoff = 0.0
        block = max(1, _CDF_BLOCK // self.lam.size)
        for start in range(0, nterm + 1, block):
            u = (np.arange(start, min(nterm + 1, start + block)) + 0.5) * step
            x = 2.0 * u[:, None] * self.lam
            angle = self.dof * np.arctan(x)
            log_mod = -0.5 * self.sigsq * u * u - 0.25 * self.dof * np.log1p(x * x).sum(axis=1)
            term = (step / math.pi) * np.exp(log_mod) / u
            if tausq is not None:
                term = term * -np.expm1(-0.5 * tausq * u * u)
            total += float(np.sum(np.sin(0.5 * angle.sum(axis=1) - u * c) * term))
            scale = np.abs(2.0 * u * c) + np.abs(angle).sum(axis=1)
            roundoff += float(np.sum(0.5 * scale * term))
        return total, roundoff

    def probability_below(self, c: float) -> float:
        sd = math.sqrt(2.0 * self.dof * float(np.sum(self.lam * self.lam)))
        acc = _CDF_ACCURACY
        up = 4.5 / sd
        un = -up
        utx = self._truncation_point(16.0 / sd, 0.5 * acc)
        # a convergence factor for the whole integral, if it shortens the range
        if c != 0.0 and max(self.lmax, -self.lmin) > 0.07 * sd:
            coef = self._smoothing_error(c)
            if coef is not None:
                tausq = 0.25 * acc / coef
                if self._truncation(utx, tausq) < 0.2 * acc:
                    self.sigsq += tausq
                    utx = self._truncation_point(utx, 0.25 * acc)
        acc *= 0.5
        budget = _CDF_MAX_TERMS
        total = roundoff = 0.0
        while True:
            upper, up = self._cutoff(acc, up)
            if upper < c:
                return 1.0
            lower, un = self._cutoff(acc, un)
            if lower > c:
                return 0.0
            step = 2.0 * math.pi / max(upper - c, c - lower)
            nodes = utx / step
            aux_nodes = 3.0 / math.sqrt(acc)
            if nodes <= 1.5 * aux_nodes:
                break
            # too many nodes: integrate the effect of a further convergence
            # factor on a coarse grid, then continue with Q + N(0, tausq)
            if aux_nodes > budget:
                raise DomainExceededError("weighted chi-square cdf needs too many terms")
            nterm = int(math.floor(aux_nodes + 0.5))
            coarse = utx / nterm
            alias = 2.0 * math.pi / coarse
            if alias <= abs(c):
                break
            below, above = self._smoothing_error(c - alias), self._smoothing_error(c + alias)
            if below is None or above is None:
                break
            tausq = 0.33 * acc / (1.1 * (below + above))
            acc *= 0.67
            part, err = self._integrate(nterm, coarse, c, tausq)
            total += part
            roundoff += err
            budget -= aux_nodes
            self.sigsq += tausq
            utx = self._truncation_point(utx, 0.25 * acc)
            acc *= 0.75
        if nodes > budget:
            raise DomainExceededError("weighted chi-square cdf needs too many terms")
        part, err = self._integrate(int(math.floor(nodes + 0.5)), step, c, None)
        total += part
        roundoff += err
        if roundoff + 0.1 * _CDF_ACCURACY == roundoff:
            raise ConvergenceFailureError("weighted chi-square cdf lost its accuracy to round-off")
        return 0.5 - total


# ---------------------------------------------------------------------------
# moment generating functions
# ---------------------------------------------------------------------------


def weighted_chisq_mgf(weights, dof: int, t: float) -> float:
    """E exp(t * sum_j w_j xi_j), xi_j iid chi-square(dof) - dof.

    Product form prod_j (1 - 2 t w_j)^{-dof/2} e^{-dof t w_j}; finite for
    2 |t| max|w| < 1. The exponential factors cancel whenever the weights
    sum to zero, as they do for graph spectra.
    """
    w = np.asarray(weights, dtype=np.float64)
    if dof < 1:
        raise ValueError(f"dof must be >= 1, got {dof}")
    wmax = float(np.max(np.abs(w))) if w.size else 0.0
    if 2.0 * abs(t) * wmax >= 1.0:
        raise DomainExceededError(
            f"|t| = {abs(t)} outside the MGF domain |t| < {0.5 / wmax if wmax else math.inf}"
        )
    return float(np.exp(_weighted_chisq_log_mgf(w, dof, t)))


def _weighted_chisq_log_mgf(w: np.ndarray, dof: int, t: float) -> float:
    return -0.5 * dof * float(np.sum(np.log1p(-2.0 * t * w))) - dof * t * float(np.sum(w))


def delta_conditional_mgf(g: Graph, c: int, t: float) -> float:
    """MGF of the Gaussian quadratic surrogate of (N - m/c)/sqrt(2m).

    Equals prod_j (1 - lambda~_j t / c)^{(1-c)/2} over the normalized
    adjacency spectrum lambda~.
    """
    if c < 2:
        raise ValueError(f"need at least 2 colors, got {c}")
    if g.m < 1:
        raise ValueError("needs at least one edge")
    from . import spectral  # imported here: the laws and their sampling never need it

    lam = spectral.eigenvalues(g).normalized
    lmax = float(np.max(np.abs(lam)))
    if abs(t) >= c / (2.0 * lmax):
        raise DomainExceededError(
            f"|t| = {abs(t)} outside the stated domain |t| < {c / (2.0 * lmax)}"
        )
    log_val = 0.5 * (1 - c) * np.sum(np.log1p(-lam * (t / c)))
    return float(np.exp(log_val))


def gadget_char_function(a: int, b: int, c: int, g: int, t: float) -> complex:
    """Characteristic function of the monochromatic g-cycle count of the
    path-cycle gadget with parameters (a, b, g) under uniform c-coloring.

    E e^{itZ} = E (1 - c^{2-g} + e^{it} c^{2-g})^{b K} with K the number of
    monochromatic edges of the length-a path, K ~ Binomial(a, 1/c); the sum
    over the binomial pmf is evaluated exactly.
    """
    if g < 3:
        raise ValueError(f"cycle length must be >= 3, got {g}")
    if a < 1 or b < 1 or c < 2:
        raise ValueError("gadget needs a >= 1, b >= 1, c >= 2")
    q = float(c) ** (2 - g)
    inner = (1.0 - q) + cmath.exp(1j * t) * q
    p = 1.0 / c
    total = 0.0 + 0.0j
    for k in range(a + 1):
        weight = math.comb(a, k) * p**k * (1.0 - p) ** (a - k)
        total += weight * inner ** (b * k)
    return total


# ---------------------------------------------------------------------------
# Gaussian surrogate sampling
# ---------------------------------------------------------------------------


def _centered_gaussian_scores(seed: int, idx, vertices: int, c: int) -> np.ndarray:
    """S[v, a] = X[v, a] - mean_a X[v, .] with X iid N(0, 1/c); shape (batch, vertices, c)."""
    if c < 2:
        raise ValueError(f"need at least 2 colors, got {c}")
    v = np.arange(vertices, dtype=np.int64)[None, :, None]
    a = np.arange(c, dtype=np.int64)[None, None, :]
    x = rng.normals(seed, rng.STREAM_SURROGATE, idx[:, None, None], v, a) / math.sqrt(c)
    return x - x.mean(axis=2, keepdims=True)


def gaussian_surrogate_delta(g: Graph, c: int, count: int, seed: int) -> np.ndarray:
    """Draws of Q(G)/sqrt(2m), the Gaussian surrogate of the standardized count.

    Q(G) = sum_{(i,j) in E} sum_a S_{ia} S_{ja} with the centered Gaussian
    scores S; its conditional MGF is :func:`delta_conditional_mgf`. Draw i
    depends only on (seed, i).
    """
    if g.m < 1:
        raise ValueError("needs at least one edge")
    u, v = g.edge_arrays()
    parts = []
    for idx in rng.batches(0, count, (g.n + g.m) * c):
        s = _centered_gaussian_scores(seed, idx, g.n, c)
        # one row-wise sum over (edge, color), so the rounding ignores the block's rows
        parts.append((s[:, u, :] * s[:, v, :]).reshape(idx.size, g.m * c).sum(axis=1))
    return np.concatenate(parts) / math.sqrt(2.0 * g.m)


def gaussian_surrogate_product(pattern, c: int, count: int, seed: int) -> np.ndarray:
    """Draws of T(H) = prod over multi-edges of sum_a S_{ia} S_{ja}; draw i depends only on (seed, i)."""
    parts = []
    for idx in rng.batches(0, count, pattern.vertex_count * c):
        s = _centered_gaussian_scores(seed, idx, pattern.vertex_count, c)
        prod = np.ones(idx.size, dtype=np.float64)
        for u, v, mult in pattern.multi_edges:
            prod *= (s[:, u, :] * s[:, v, :]).sum(axis=1) ** mult
        parts.append(prod)
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# regime selector
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fixed(Params):
    """Fixed color count c while the host grows."""

    colors: int
    ranges = {"colors": (lambda c: c >= 2, ">= 2")}


@dataclass(frozen=True)
class Growing(Params):
    """Growing color count; ``edge_color_ratio`` is the limit of m/c (may be inf)."""

    edge_color_ratio: float
    ranges = {"edge_color_ratio": (lambda r: r >= 0, ">= 0 (inf allowed)")}


Regime = Union[Fixed, Growing]

_NO_EDGE = "fixed-color regime needs at least one edge"


def _fixed_family_law(spec: Complete | CompleteBipartite, c: int) -> LimitLaw:
    """The closed-form law of a complete or complete bipartite family."""
    if isinstance(spec, Complete):
        weights, has_edge = (1.0,), spec.n >= 2
    else:
        weights, has_edge = (1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)), min(spec.a, spec.b) >= 1
    if not has_edge:
        raise ValueError(_NO_EDGE)
    return WeightedChiSquare(weights=weights, dof=c - 1, scale=1.0 / (2.0 * c))


def limit_for(graph_or_spec: Union[Graph, FamilySpec], regime: Regime) -> LimitLaw:
    """Select the limit law for a host and color regime.

    Growing regimes depend only on the limiting ratio m/c: a finite ratio
    gives Poisson(ratio) for the raw count, an infinite one gives N(0, 1)
    for the standardized count. With c fixed the four-cycle ratio
    N(C4)/m^2 decides: below 1e-2 the standardized count is N(0, 1 - 1/c),
    above 1e-1 the host is treated as dense and the normalized spectrum
    drives a weighted chi-square law for (N - m/c)/sqrt(2m); the zone
    between is reported as ambiguous rather than guessed. Only the dense
    case builds a spectrum, so only it meets the gate of 4000 twin classes. A
    complete or complete bipartite family spec has a closed-form law; any
    other spec is built, and its graph decides.
    """
    if isinstance(regime, Growing):
        ratio = regime.edge_color_ratio
        if math.isinf(ratio):
            return Normal(0.0, 1.0)
        return Poisson(ratio)
    if not isinstance(regime, Fixed):
        raise TypeError(f"unknown regime {regime!r}")
    c = regime.colors
    if isinstance(graph_or_spec, (Complete, CompleteBipartite)):
        return _fixed_family_law(graph_or_spec, c)
    if not isinstance(graph_or_spec, Graph):
        return limit_for(generate(graph_or_spec), regime)
    g = graph_or_spec
    if g.m < 1:
        raise ValueError(_NO_EDGE)
    from . import census, spectral  # imported here: only a built host's fixed-c law needs them

    acf4 = census.count_cycles(g, 4) / g.m**2
    if acf4 < ACF4_NORMAL_THRESHOLD:
        return Normal(0.0, 1.0 - 1.0 / c)
    if acf4 <= ACF4_GRAY_UPPER:
        raise AmbiguousRegimeError(
            f"four-cycle ratio {acf4:.4g} lies in the gray zone "
            f"[{ACF4_NORMAL_THRESHOLD}, {ACF4_GRAY_UPPER}]; no regime is declared"
        )
    lam = spectral.eigenvalues(g).normalized
    weights = tuple(float(x) for x in lam if abs(x) > 1e-12)
    return WeightedChiSquare(weights=weights, dof=c - 1, scale=1.0 / (2.0 * c))
