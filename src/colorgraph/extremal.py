"""Fractional stable number, deficiency, structural certificates, and
sub-extremality diagnostics.

The optimum of  max sum phi(v)  s.t.  phi(x) + phi(y) <= 1 on edges,
phi in [0,1]^V  is always attained at a half-integral point and equals
(|V| + deficiency)/2, where deficiency(H) = max_S (|S| - |N_H(S)|). Both
quantities are computed combinatorially, in exact rational arithmetic:

* the deficiency comes from a maximum matching of the bipartite double
  cover (two copies of V, one edge (u, v') per adjacency) through the
  defect form of Hall's theorem;
* an optimal phi comes from a minimum vertex cover of the double cover
  (Koenig's construction from the matching), via
  phi(v) = 1 - (cover_left(v) + cover_right(v)) / 2.

No floating point enters except in the diagnostic ratio report.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from . import census, spectral
from .errors import (
    NoSpanningCycleEdgeFactorError,
    PatternTooLargeError,
    SolutionMismatchError,
)
from .graph import Graph, components

__all__ = [
    "deficiency",
    "gamma",
    "FractionalSolution",
    "structural_check",
    "StructuralReport",
    "condition_report",
    "ConditionReport",
    "alon_asymptotic",
    "automorphism_count",
    "hopcroft_karp",
]

HALF = Fraction(1, 2)
ONE = Fraction(1)
ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# bipartite matching machinery
# ---------------------------------------------------------------------------

_INF = -1


def hopcroft_karp(n_left: int, n_right: int, adj: list[tuple[int, ...]]) -> tuple[int, list[int], list[int]]:
    """Maximum matching of a bipartite graph; O(E sqrt(V)).

    ``adj[u]`` lists the right neighbors of left vertex ``u`` in sorted
    order, which makes the returned matching deterministic. Returns
    (size, pair_left, pair_right) with -1 for unmatched.
    """
    pair_l = [_INF] * n_left
    pair_r = [_INF] * n_right
    dist = [0] * n_left

    def bfs() -> bool:
        queue = deque()
        found = False
        for u in range(n_left):
            if pair_l[u] == _INF:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = _INF
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = pair_r[v]
                if w == _INF:
                    found = True
                elif dist[w] == _INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(u: int) -> bool:
        for v in adj[u]:
            w = pair_r[v]
            if w == _INF or (dist[w] == dist[u] + 1 and dfs(w)):
                pair_l[u] = v
                pair_r[v] = u
                return True
        dist[u] = _INF
        return False

    size = 0
    while bfs():
        for u in range(n_left):
            if pair_l[u] == _INF and dfs(u):
                size += 1
    return size, pair_l, pair_r


def _koenig_cover(n_left: int, n_right: int, adj, pair_l, pair_r) -> tuple[list[bool], list[bool]]:
    """Minimum vertex cover from a maximum matching.

    Alternating reachability from the unmatched left vertices: the cover is
    (L minus reached) union (R intersect reached). Deterministic given the
    matching and the sorted adjacency.
    """
    reached_l = [False] * n_left
    reached_r = [False] * n_right
    queue = deque(u for u in range(n_left) if pair_l[u] == _INF)
    for u in queue:
        reached_l[u] = True
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if not reached_r[v]:
                reached_r[v] = True
                w = pair_r[v]
                if w != _INF and not reached_l[w]:
                    reached_l[w] = True
                    queue.append(w)
    cover_l = [not r for r in reached_l]
    cover_r = list(reached_r)
    return cover_l, cover_r


def _require_no_isolated(h: Graph, what: str) -> None:
    if h.n == 0:
        raise ValueError(f"{what} needs a nonempty graph")
    if h.has_isolated_vertices():
        raise ValueError(f"{what} requires a graph with no isolated vertices")


# ---------------------------------------------------------------------------
# deficiency and the fractional stable number
# ---------------------------------------------------------------------------


def deficiency(h: Graph) -> int:
    """max over S of |S| - |N_H(S)|, via the double-cover matching defect."""
    _require_no_isolated(h, "deficiency")
    size, _, _ = hopcroft_karp(h.n, h.n, h.adjacency)
    return h.n - size


@dataclass(frozen=True)
class FractionalSolution:
    """Half-integral optimum of the stable-set relaxation.

    ``phi`` maps each vertex to 0, 1/2, or 1; ``gamma`` is the exact
    objective value; ``partition`` lists the vertex sets taking value
    0, 1/2, and 1 respectively.
    """

    phi: tuple[Fraction, ...]
    gamma: Fraction
    partition: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def gamma(h: Graph) -> FractionalSolution:
    """Optimal half-integral solution; objective equals (|V| + deficiency)/2."""
    _require_no_isolated(h, "gamma")
    adj = h.adjacency
    size, pair_l, pair_r = hopcroft_karp(h.n, h.n, adj)
    cover_l, cover_r = _koenig_cover(h.n, h.n, adj, pair_l, pair_r)
    phi = tuple(ONE - Fraction(int(cover_l[v]) + int(cover_r[v]), 2) for v in range(h.n))
    value = sum(phi, start=ZERO)
    expected = Fraction(h.n + (h.n - size), 2)
    if value != expected:
        raise RuntimeError(
            f"cover construction gave objective {value}, expected {expected}"
        )
    for u, v in h.edges:
        if phi[u] + phi[v] > ONE:
            raise RuntimeError("cover construction produced an infeasible solution")
    part = (
        tuple(v for v in range(h.n) if phi[v] == ZERO),
        tuple(v for v in range(h.n) if phi[v] == HALF),
        tuple(v for v in range(h.n) if phi[v] == ONE),
    )
    return FractionalSolution(phi=phi, gamma=value, partition=part)


# ---------------------------------------------------------------------------
# structural certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructuralReport:
    saturating_matching: bool
    half_part_spanning: bool
    union_of_stars: bool


def _is_union_of_stars(h: Graph) -> bool:
    for comp in components(h.n, h.edges):
        degrees = [h.degree(v) for v in comp]
        if sum(degrees) // 2 != len(comp) - 1 or sum(d >= 2 for d in degrees) > 1:
            return False
    return True


def _has_spanning_cycle_edge_factor(h: Graph) -> bool:
    """True when some spanning subgraph is a disjoint union of cycles and edges.

    Equivalent to a perfect matching in the bipartite double cover: a perfect
    matching there is a vertex bijection sigma with sigma(v) adjacent to v,
    and the cycles of sigma trace the factor.
    """
    if h.n == 0:
        return True
    if h.has_isolated_vertices():
        return False
    return deficiency(h) == 0


def structural_check(sol: FractionalSolution, h: Graph) -> StructuralReport:
    """Certificate checks for an optimal solution produced by :func:`gamma`."""
    if len(sol.phi) != h.n or any(p not in (ZERO, HALF, ONE) for p in sol.phi):
        raise SolutionMismatchError("solution shape does not match the graph")
    for u, v in h.edges:
        if sol.phi[u] + sol.phi[v] > ONE:
            raise SolutionMismatchError(f"solution violates edge ({u}, {v})")
    if sum(sol.phi, start=ZERO) != sol.gamma:
        raise SolutionMismatchError("solution values do not sum to the stated objective")

    v0, vhalf, v1 = sol.partition

    saturating = True
    if sol.gamma > Fraction(h.n, 2) and v0:
        index_r = {v: i for i, v in enumerate(v1)}
        adj01 = [
            tuple(sorted(index_r[w] for w in h.adjacency[u] if w in index_r))
            for u in v0
        ]
        size, _, _ = hopcroft_karp(len(v0), len(v1), adj01)
        saturating = size == len(v0)

    if vhalf:
        keep = set(vhalf)
        index = {v: i for i, v in enumerate(vhalf)}
        induced = Graph(
            len(vhalf),
            [(index[u], index[v]) for u, v in h.edges if u in keep and v in keep],
        )
        half_spanning = _has_spanning_cycle_edge_factor(induced)
    else:
        half_spanning = True

    return StructuralReport(
        saturating_matching=saturating,
        half_part_spanning=half_spanning,
        union_of_stars=_is_union_of_stars(h),
    )


# ---------------------------------------------------------------------------
# sub-extremality diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    """Finite-size diagnostics for the normal-limit conditions.

    ``acf4_ratio`` is N(G, C4) / m^2 (vanishing ratios characterize the
    fixed-color normal regime); ``usn_ratio`` is max|lambda| / ||lambda||_2;
    ``cycle_ratios`` maps g in 3..8 to N(G, C_g) / m^{g/2}.
    """

    m: int
    acf4_ratio: float
    usn_ratio: float
    cycle_ratios: dict[int, float]


def condition_report(g: Graph) -> ConditionReport:
    if g.m < 1:
        raise ValueError("condition report needs at least one edge")
    m = g.m
    spec = spectral.eigenvalues(g)
    counts = census.cycle_counts(g)
    return ConditionReport(
        m=m,
        acf4_ratio=counts[4] / m**2,
        usn_ratio=spec.usn_ratio,
        cycle_ratios={length: count / m ** (length / 2.0) for length, count in counts.items()},
    )


# ---------------------------------------------------------------------------
# automorphisms and the asymptotic copy count
# ---------------------------------------------------------------------------


def automorphism_count(h: Graph) -> int:
    """|Aut(h)| by backtracking over degree-compatible vertex maps."""
    if h.n > 10:
        raise PatternTooLargeError(f"automorphism search supports <= 10 vertices, got {h.n}")
    if h.n == 0:
        return 1
    degs = h.degrees
    nbr = [frozenset(a) for a in h.adjacency]
    order = sorted(range(h.n), key=lambda v: (-degs[v], v))
    image = [-1] * h.n
    used = [False] * h.n
    count = 0

    def backtrack(pos: int):
        nonlocal count
        if pos == h.n:
            count += 1
            return
        v = order[pos]
        for w in range(h.n):
            if used[w] or degs[w] != degs[v]:
                continue
            ok = True
            for u in order[:pos]:
                if (u in nbr[v]) != (image[u] in nbr[w]):
                    ok = False
                    break
            if ok:
                image[v] = w
                used[w] = True
                backtrack(pos + 1)
                used[w] = False
        image[v] = -1

    backtrack(0)
    return count


def alon_asymptotic(h: Graph, edge_budget: float) -> float:
    """Leading-order maximum copy count (2*edge_budget)^{|V|/2} / |Aut(h)|.

    Valid for patterns with a spanning disjoint union of cycles and isolated
    edges; that structure is certified through the double cover before the
    formula is applied.
    """
    if h.n > 10:
        raise PatternTooLargeError(f"supported for patterns with <= 10 vertices, got {h.n}")
    _require_no_isolated(h, "alon_asymptotic")
    if not _has_spanning_cycle_edge_factor(h):
        raise NoSpanningCycleEdgeFactorError(
            "pattern has no spanning disjoint union of cycles and isolated edges"
        )
    return (2.0 * edge_budget) ** (h.n / 2.0) / automorphism_count(h)
