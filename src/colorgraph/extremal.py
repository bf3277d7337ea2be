"""Fractional stable number, deficiency, structural certificates and sub-extremality diagnostics.

The optimum of max sum phi(v) s.t. phi(x) + phi(y) <= 1 on edges, phi in
[0, 1]^V, is attained at a half-integral point and equals
(|V| + deficiency)/2, where deficiency(H) = max_S (|S| - |N_H(S)|). Both
come from one maximum matching of the bipartite double cover (two copies of
V, one edge (u, v') per adjacency, ``hopcroft_karp``): the deficiency by the
defect form of Hall's theorem, and an optimal phi(v) = 1 - (cover_left(v) +
cover_right(v)) / 2 from Koenig's minimum vertex cover, read off the left
vertices that the last search reached. phi is computed and checked in
integer halves 2 phi, and becomes Fractions only for the output; floating
point enters only the diagnostic ratios of ``condition_report``.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import census, spectral
from .errors import (
    NoSpanningCycleEdgeFactorError,
    PatternTooLargeError,
    SolutionMismatchError,
)
from .graph import Graph

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

PHI_VALUES = (Fraction(0), Fraction(1, 2), Fraction(1))  # indexed by 2 phi


# -- bipartite matching machinery ----------------------------------------------

_INF = -1


def hopcroft_karp(n_left: int, n_right: int, adj: list[tuple[int, ...]]) -> tuple[int, list[bool]]:
    """(size, reached) of a maximum matching of a bipartite graph, in O(E sqrt(V)).

    ``adj[u]`` lists the right neighbors of left vertex ``u`` in sorted order, so the result is deterministic.
    ``reached[u]``: the last search, which finds no augmenting path, marked ``u``. Then (L minus reached) union
    N(reached) is a minimum vertex cover (Koenig 1931).
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

    def augment(root: int) -> bool:
        """Depth-first search for an augmenting path from ``root``, on a stack of [u, next neighbour index]."""
        stack = [[root, 0]]
        while stack:
            u, i = frame = stack[-1]
            if i == len(adj[u]):  # no path through u: drop it for this phase
                dist[u] = _INF
                stack.pop()
                continue
            frame[1] += 1
            w = pair_r[adj[u][i]]
            if w == _INF:  # a free right vertex: each u on the stack takes the neighbour it went through
                for x, j in stack:
                    pair_l[x], pair_r[adj[x][j - 1]] = adj[x][j - 1], x
                return True
            if dist[w] == dist[u] + 1:
                stack.append([w, 0])
        return False

    size = 0
    while bfs():
        for u in range(n_left):
            if pair_l[u] == _INF and augment(u):
                size += 1
    return size, [d != _INF for d in dist]


def _require_no_isolated(h: Graph, what: str) -> None:
    if h.n == 0:
        raise ValueError(f"{what} needs a nonempty graph")
    if h.has_isolated_vertices():
        raise ValueError(f"{what} requires a graph with no isolated vertices")


# -- deficiency and the fractional stable number -------------------------------


def deficiency(h: Graph) -> int:
    """max over S of |S| - |N_H(S)|, via the double-cover matching defect."""
    _require_no_isolated(h, "deficiency")
    size, _ = hopcroft_karp(h.n, h.n, h.adjacency)
    return h.n - size


@dataclass(frozen=True)
class FractionalSolution:
    """Half-integral optimum ``phi`` of the stable-set relaxation, its value ``gamma``, and where phi is 0, 1/2, 1."""

    phi: tuple[Fraction, ...]
    gamma: Fraction
    partition: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def _partition(twice: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The vertex sets where 2 phi is 0, 1 and 2."""
    return tuple(tuple(np.flatnonzero(twice == t).tolist()) for t in (0, 1, 2))


def _violated_edge(h: Graph, twice: np.ndarray) -> tuple[int, int] | None:
    """The first edge (u, v) of ``h.edges`` with 2 phi(u) + 2 phi(v) > 2, if any."""
    u, v = h.edge_arrays()
    bad = np.flatnonzero(twice[u] + twice[v] > 2)
    return (int(u[bad[0]]), int(v[bad[0]])) if bad.size else None


def gamma(h: Graph) -> FractionalSolution:
    """Optimal half-integral solution: 2 phi(v) = 2 - [v not reached] - [v in N(reached)] (module docstring)."""
    _require_no_isolated(h, "gamma")
    size, reached = hopcroft_karp(h.n, h.n, h.adjacency)
    reached = np.array(reached, bool)
    twice = 1 + reached - (np.bincount(h.nbrs[np.repeat(reached, np.diff(h.offsets))], minlength=h.n) > 0)
    if twice.sum() != 2 * h.n - size or _violated_edge(h, twice):
        raise RuntimeError(f"cover construction gave an infeasible phi or a sum other than {2 * h.n - size}/2")
    phi = tuple(PHI_VALUES[t] for t in twice.tolist())
    return FractionalSolution(phi=phi, gamma=Fraction(int(twice.sum()), 2), partition=_partition(twice))


# -- structural certificates ---------------------------------------------------


@dataclass(frozen=True)
class StructuralReport:
    saturating_matching: bool
    half_part_spanning: bool
    union_of_stars: bool


def _is_union_of_stars(h: Graph) -> bool:
    # a component is a star or a lone vertex iff each of its edges has an end of degree 1
    degree, (u, v) = np.diff(h.offsets), h.edge_arrays()
    return bool(np.all((degree[u] == 1) | (degree[v] == 1)))


def _has_spanning_cycle_edge_factor(h: Graph) -> bool:
    """Whether a spanning subgraph is a disjoint union of cycles and edges: a perfect matching of the double cover.

    Such a matching is a bijection sigma with sigma(v) adjacent to v, and the cycles of sigma trace the factor.
    """
    return h.n == 0 or (not h.has_isolated_vertices() and deficiency(h) == 0)


def structural_check(sol: FractionalSolution, h: Graph) -> StructuralReport:
    """Certificate checks for an optimal solution produced by :func:`gamma`.

    First, in integer halves 2 phi, feasibility on every edge, the sum against ``gamma`` and ``partition``
    against the sets where phi is 0, 1/2 and 1; a failure raises SolutionMismatchError.
    """
    if len(sol.phi) != h.n or any(p not in PHI_VALUES for p in sol.phi):
        raise SolutionMismatchError("solution shape does not match the graph")
    twice = np.array([int(2 * p) for p in sol.phi], np.int64)
    if edge := _violated_edge(h, twice):
        raise SolutionMismatchError(f"solution violates edge {edge}")
    if int(twice.sum()) != 2 * sol.gamma:
        raise SolutionMismatchError("solution values do not sum to the stated objective")
    if tuple(map(tuple, sol.partition)) != _partition(twice):
        raise SolutionMismatchError("solution partition is not the sets where phi is 0, 1/2 and 1")
    v0, vhalf, v1 = sol.partition
    saturating = True
    if twice.sum() > h.n and v0:
        index_r, adj = {v: i for i, v in enumerate(v1)}, h.adjacency
        adj01 = [tuple(sorted(index_r[w] for w in adj[u] if w in index_r)) for u in v0]
        size, _ = hopcroft_karp(len(v0), len(v1), adj01)
        saturating = size == len(v0)

    index = np.full(h.n, -1)
    index[list(vhalf)] = np.arange(len(vhalf))
    ends = index[h.edges]  # the edges inside the 1/2 part, relabelled; -1 marks an end outside it
    half_spanning = _has_spanning_cycle_edge_factor(Graph(len(vhalf), ends[(ends >= 0).all(axis=1)]))

    return StructuralReport(
        saturating_matching=saturating,
        half_part_spanning=half_spanning,
        union_of_stars=_is_union_of_stars(h),
    )


# -- sub-extremality diagnostics -----------------------------------------------


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


# -- automorphisms and the asymptotic copy count -------------------------------


def automorphism_count(h: Graph) -> int:
    """|Aut(h)| = inj(h, h), from :func:`census.injective_homomorphisms`."""
    if h.n > 10:
        raise PatternTooLargeError(f"automorphism search supports <= 10 vertices, got {h.n}")
    return census.injective_homomorphisms(h, h)


def alon_asymptotic(h: Graph, edge_budget: float) -> float:
    """Leading-order maximum copy count (2*edge_budget)^{|V|/2} / |Aut(h)|.

    Valid for patterns with a spanning disjoint union of cycles and edges, which is certified first.
    """
    if not 0 <= edge_budget < math.inf:
        raise ValueError(f"edge budget must be finite and at least 0, got {edge_budget!r}")
    if h.n > 10:
        raise PatternTooLargeError(f"supported for patterns with <= 10 vertices, got {h.n}")
    _require_no_isolated(h, "alon_asymptotic")
    if not _has_spanning_cycle_edge_factor(h):
        raise NoSpanningCycleEdgeFactorError("pattern has no spanning disjoint union of cycles and isolated edges")
    return (2.0 * edge_budget) ** (h.n / 2.0) / automorphism_count(h)
