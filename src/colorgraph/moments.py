"""Exact conditional moments of monochromatic-edge counts.

Everything here is exact rational arithmetic. Raw moments of the count N
expand over ordered edge k-tuples grouped by multigraph class H, each class
weighted by c^-(|V(H)| - components(H)); the independent-Bernoulli surrogate
M replaces that weight with c^-|E(H_S)| and collapses to a Stirling-number
formula. Central (standardized) moments weight each class by the expectation
of the product of centered edge indicators, computed by expanding the
product over sub-multisets of the pattern's edges.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import census
from .census import MultiGraphPattern
from .errors import PatternTooLargeError
from .graph import Graph, Params, components

__all__ = [
    "stirling_moment",
    "expected_central_products",
    "MomentKind",
    "MomentRequest",
    "MomentValue",
    "conditional_moment",
    "fourth_moment_report",
    "FourthMomentReport",
]

_CENTRAL_PRODUCT_GATE = 6


@lru_cache(maxsize=None)
def _stirling2(k: int, j: int) -> int:
    """Stirling number of the second kind S(k, j)."""
    if k == j:
        return 1
    if j == 0 or j > k:
        return 0
    return j * _stirling2(k - 1, j) + _stirling2(k - 1, j - 1)


def stirling_moment(m: int, c: int, k: int) -> Fraction:
    """k-th raw moment of Binomial(m, 1/c): sum_j S(k, j) (m)_j c^-j."""
    if k < 0:
        raise ValueError(f"moment order must be nonnegative, got {k}")
    if c < 1:
        raise ValueError(f"color count must be positive, got {c}")
    total = Fraction(0)
    falling = 1
    for j in range(0, k + 1):
        if j > 0:
            falling *= m - (j - 1)
        if falling == 0:
            break
        total += Fraction(_stirling2(k, j) * falling, c**j)
    return total


def bernoulli_central_moment(c: int, order: int) -> Fraction:
    """E (X - 1/c)^order for X ~ Bernoulli(1/c)."""
    p = Fraction(1, c)
    return (1 - p) * (-p) ** order + p * (1 - p) ** order


def expected_central_products(pattern: MultiGraphPattern, c: int) -> tuple[Fraction, Fraction]:
    """(EZ, EW) for one pattern H.

    EZ is the expectation of prod over multi-edges of (1{same color} - 1/c);
    EW replaces each indicator by an independent Bernoulli(1/c). Exact
    rationals; gated at 6 edges counting multiplicities.
    """
    if pattern.edge_count > _CENTRAL_PRODUCT_GATE:
        raise PatternTooLargeError(
            f"pattern has {pattern.edge_count} > {_CENTRAL_PRODUCT_GATE} edges with multiplicity"
        )
    if c < 2:
        raise ValueError(f"need at least 2 colors, got {c}")
    nv, slots = pattern.vertex_count, pattern.expanded_slots()
    k = len(slots)
    ez = Fraction(0)
    minus = Fraction(-1, c)
    for mask in range(1 << k):
        chosen = tuple(slots[i] for i in range(k) if mask >> i & 1)
        # rank |V| - components of the chosen slots' support; isolated vertices cancel out
        ez += minus ** (k - len(chosen)) * Fraction(1, c ** (nv - len(components(nv, chosen))))
    ew = Fraction(1)
    for _, _, mult in pattern.multi_edges:
        ew *= bernoulli_central_moment(c, mult)
    return ez, ew


class MomentKind(enum.Enum):
    RAW_N = "rawn"
    RAW_M = "rawm"
    CENTRAL_Z = "centralz"
    CENTRAL_W = "centralw"


@dataclass(frozen=True)
class MomentRequest(Params):
    kind: MomentKind
    order: int
    colors: int
    ranges = {"order": (lambda k: 1 <= k <= 4, "in [1, 4]"), "colors": (lambda c: c >= 2, ">= 2")}


@dataclass(frozen=True)
class MomentValue:
    """Exact moment, with the standardization factor kept explicit.

    Central moments are divided by (m/c)^{order/2}. ``unscaled`` always
    holds the exact class sum; ``value`` holds the fully standardized
    moment whenever (m/c)^{order/2} is rational (always for even order),
    and None otherwise. Raw moments carry scale_exponent 0 and
    value == unscaled.
    """

    unscaled: Fraction
    scale_exponent: Fraction
    value: Fraction | None


def _scaled(unscaled: Fraction, m: int, c: int, order: int) -> MomentValue:
    exponent = Fraction(order, 2)
    if order % 2 == 0:
        val = unscaled * Fraction(c, m) ** (order // 2)
        return MomentValue(unscaled, exponent, val)
    root = math.isqrt(m * c)
    if root * root == m * c:
        # sqrt(m/c) = root / c exactly
        val = unscaled * Fraction(c, root) ** order
        return MomentValue(unscaled, exponent, val)
    return MomentValue(unscaled, exponent, None)


def conditional_moment(g: Graph, req: MomentRequest) -> MomentValue:
    """Exact conditional moment of the monochromatic-edge count of ``g``.

    RAW_N: E(N^k | G). RAW_M: E(M^k | G) for the independent-Bernoulli
    surrogate (equal to :func:`stirling_moment`). CENTRAL_Z / CENTRAL_W:
    the standardized central moments E(Z^k | G), E(W^k | G) with
    standardization (m/c)^{-k/2}.
    """
    return _class_sum(census.count_multigraph_tuples(g, req.order), g.m, req)


def _class_sum(table: dict[MultiGraphPattern, int], m: int, req: MomentRequest) -> MomentValue:
    """The moment ``req`` from the tuple census ``table`` of a host with m edges."""
    c, k = req.colors, req.order
    central = req.kind in (MomentKind.CENTRAL_Z, MomentKind.CENTRAL_W)
    if central and m < 1:
        raise ValueError("central moments need at least one edge")
    weight = _CLASS_WEIGHT[req.kind]
    total = sum((cnt * weight(pat, c) for pat, cnt in table.items()), Fraction(0))
    return _scaled(total, m, c, k) if central else MomentValue(total, Fraction(0), total)


# weight of one tuple of class H in the moment of each kind
_CLASS_WEIGHT = {
    MomentKind.RAW_N: lambda pat, c: Fraction(1, c ** (pat.vertex_count - pat.component_count())),
    MomentKind.RAW_M: lambda pat, c: Fraction(1, c**pat.simple_edge_count),
    MomentKind.CENTRAL_Z: lambda pat, c: expected_central_products(pat, c)[0],
    MomentKind.CENTRAL_W: lambda pat, c: expected_central_products(pat, c)[1],
}


@dataclass(frozen=True)
class FourthMomentReport:
    """Decomposition of the exact standardized fourth central moment.

    exact = leading + c4_term + remainder, all exact rationals:
    leading = 3 (1 - 1/c)^2, c4_term = (1/c)(1 - 1/c) N(G, C4) / m^2, and
    remainder carries every finite-size correction (the single- and
    triangle-supported classes and the tuple-ordering surplus of the
    four-cycle class).
    """

    exact: Fraction
    leading: Fraction
    c4_term: Fraction
    remainder: Fraction


def fourth_moment_report(g: Graph, c: int) -> FourthMomentReport:
    """The exact fourth moment and its parts, from one census of the 4-tuples of ``g``."""
    table = census.count_multigraph_tuples(g, 4)
    exact = _class_sum(table, g.m, MomentRequest(MomentKind.CENTRAL_Z, 4, c)).value
    one_minus = 1 - Fraction(1, c)
    leading = 3 * one_minus**2
    # each four-cycle spans its 4! orderings
    c4 = Fraction(1, c) * one_minus * Fraction(table.get(census._CYCLES[4], 0) // 24, g.m**2)
    return FourthMomentReport(
        exact=exact,
        leading=leading,
        c4_term=c4,
        remainder=exact - leading - c4,
    )
