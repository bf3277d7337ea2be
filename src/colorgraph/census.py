"""Exact censuses of small patterns in a host: cycles, subgraph copies, ordered edge-tuple classes.

``cycle_counts`` counts unlabeled cycles by ``graph``'s cycle walk (its
``cycle_list`` and ``CYCLE_LENGTHS`` are re-exported here).
``count_subgraph`` counts copies of a pattern as inj(h, g) / inj(h, h) by
one embedding search, ``injective_homomorphisms``, whose cost grows with
the copies, not with the edge subsets. ``count_multigraph_tuples``
classifies the m^k ordered edge k-tuples (k <= 4) by the multigraph they
span, with no enumeration and no gate.

:class:`PatternCounts` counts every simple pattern with at most 4 edges in
closed form (Alon-Yuster-Zwick 1997; Lovasz 2012, ch. 5). Four host
invariants, the degrees d, s = A d, the triangles at each vertex and
w = sum over u != v of codeg(u, v)^2, give hom(F, g) for the ten connected
shapes F of ``_SHAPES``; a disjoint union's count is the product over its
components, Moebius inversion over the pattern's vertex partitions gives
injective counts, and those over automorphisms give copies. The pattern
side is the committed ``_SUPPORTS`` table, which ``tests/oracles.py``
derives. Triangles and codegrees come from one A^2 on hosts of at most
``_SMALL_HOST`` vertices, else from the k x k matrices of
``Graph.twin_quotient`` when their k^3 costs less than the wedges, else
from wedges oriented by degree rank (Chiba-Nishizeki 1985); quotient rows
and wedge tops go in ``rng.batches`` blocks, and every sum is an exact
Python int. PatternCounts serves the tuple census, ``count_cycles`` at
lengths 3 and 4 (so ``limits.limit_for``'s four-cycle count, with no walk)
and the walk's cross-check at those lengths.

Pattern isomorphism is decided by canonical forms computed per call, with
no cache: the labels are renamed once, each component's vertices are
partitioned by iterated degree refinement, and its edge representation is
minimized over the relabelings that keep the partition by
individualization and refinement. This is exact for components of at most
10 vertices, which covers everything a tuple length of 4 can produce.
"""
from __future__ import annotations

import functools
import math
import numbers
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, Union

import numpy as np

from . import rng
from .errors import PatternTooLargeError, PreconditionViolatedError, lazy
from .graph import CYCLE_LENGTHS, Blowup, Graph, _cycle_blocks, components, cycle_list

spectral = lazy("colorgraph.spectral")  # only ``hom_density_cycle`` reads a spectrum

__all__ = [
    "MultiGraphPattern",
    "count_cycles",
    "cycle_counts",
    "cycle_list",
    "count_subgraph",
    "count_multigraph_tuples",
    "PatternCounts",
    "all_patterns",
    "hom_density_cycle",
    "decompose_tight_multigraph",
    "CycleFactor",
    "DoubledEdgeFactor",
]

_MAX_PATTERN_VERTICES = 10


# -- multigraph patterns -------------------------------------------------------


@dataclass(frozen=True)
class MultiGraphPattern:
    """Small multigraph up to isomorphism, with no self-loop or isolated vertex.

    ``multi_edges`` is the canonical form, a sorted tuple of ``(u, v,
    multiplicity)`` with ``u < v``: two patterns are isomorphic exactly when they are equal.
    """

    vertex_count: int
    multi_edges: tuple[tuple[int, int, int], ...]

    @staticmethod
    def from_edges(pairs: Iterable[tuple[int, int]]) -> "MultiGraphPattern":
        """Build from endpoint pairs, repetitions giving multiplicities."""
        return _classify(tuple(pairs))

    # -- invariants --------------------------------------------------------

    @property
    def canonical_key(self) -> tuple:
        return (self.vertex_count, self.multi_edges)

    def key_string(self) -> str:
        body = ",".join(f"{u}-{v}x{k}" for u, v, k in self.multi_edges)
        return f"v{self.vertex_count}:{body}"

    @property
    def edge_count(self) -> int:
        """|E(H)| counting multiplicities."""
        return sum(k for _, _, k in self.multi_edges)

    @property
    def simple_edge_count(self) -> int:
        return len(self.multi_edges)

    def multi_degrees(self) -> tuple[int, ...]:
        deg = [0] * self.vertex_count
        for u, v, k in self.multi_edges:
            deg[u] += k
            deg[v] += k
        return tuple(deg)

    @property
    def min_multi_degree(self) -> int:
        return min(self.multi_degrees(), default=0)

    def component_count(self) -> int:
        return len(components(self.vertex_count, [(u, v) for u, v, _ in self.multi_edges]))

    def simple_support(self) -> Graph:
        """The underlying simple graph, multiplicities collapsed."""
        return Graph(self.vertex_count, [(u, v) for u, v, _ in self.multi_edges])

    def expanded_slots(self) -> tuple[tuple[int, int], ...]:
        """Every edge repeated per its multiplicity."""
        out = []
        for u, v, k in self.multi_edges:
            out.extend([(u, v)] * k)
        return tuple(out)

    def _component_parts(self) -> list[tuple[list[int], list[tuple[int, int, int]], list[int], Counter]]:
        """Per component: its vertices, its edges, their sorted multiplicities and its multi-degrees."""
        comps = components(self.vertex_count, [(u, v) for u, v, _ in self.multi_edges])
        where = {x: i for i, comp in enumerate(comps) for x in comp}
        edges = [[] for _ in comps]
        degs = [Counter() for _ in comps]
        for u, v, k in self.multi_edges:
            i = where[u]
            edges[i].append((u, v, k))
            degs[i][u] += k
            degs[i][v] += k
        return [(comp, e, sorted(k for _, _, k in e), d) for comp, e, d in zip(comps, edges, degs)]

    def describe(self) -> str:
        """Best-effort human-readable name, component by component."""
        names = []
        for comp, edges, mults, deg in self._component_parts():
            nv, ne = len(comp), len(edges)
            if ne == 1:
                k = mults[0]
                names.append("edge" if k == 1 else f"edge^{k}")
            elif set(mults) == {1} and nv == ne and all(d == 2 for d in deg.values()):
                names.append(f"C{nv}")
            elif set(mults) == {1} and ne == nv - 1 and sorted(deg.values())[-2] <= 1:
                names.append(f"star{ne}" if ne > 1 else "edge")
            elif set(mults) == {1} and ne == nv - 1 and max(deg.values()) == 2:
                names.append(f"P{ne}")
            else:
                body = ",".join(f"{u}-{v}" + (f"x{k}" if k > 1 else "") for u, v, k in edges)
                names.append(f"[{body}]")
        return " + ".join(sorted(names))


def _refine_classes(nv: int, mult: dict[tuple[int, int], int]) -> list[list[int]]:
    """Iterated neighborhood refinement; classes ordered by invariant signature."""
    nbrs = [[] for _ in range(nv)]
    for (u, v), k in mult.items():
        nbrs[u].append((v, k))
        nbrs[v].append((u, k))
    color = [
        (sum(k for _, k in nbrs[x]), len(nbrs[x]), tuple(sorted(k for _, k in nbrs[x])))
        for x in range(nv)
    ]
    while True:
        new = [
            (color[x], tuple(sorted((k, color[y]) for y, k in nbrs[x])))
            for x in range(nv)
        ]
        if len(set(new)) == len(set(color)):
            break
        color = new
    groups: dict = {}
    for x in range(nv):
        groups.setdefault(color[x], []).append(x)
    return [groups[key] for key in sorted(groups.keys(), key=repr)]


def _canonical_rep(nv: int, mult: dict[tuple[int, int], int]) -> tuple[tuple[int, int, int], ...]:
    """Minimal edge representation of one connected block over the relabelings that keep its classes in order.

    Label by label, each vertex x of the class at label j in turn takes
    label j, and every later class splits into the vertices x joins, by
    multiplicity, ahead of the rest. That puts the entries (j, v, k) at
    their least, so the least leaf is the least relabeling. Of two
    interchangeable vertices (their transposition is an automorphism) only one is tried.
    """
    if nv > _MAX_PATTERN_VERTICES:
        raise PatternTooLargeError(
            f"canonical form supports at most {_MAX_PATTERN_VERTICES} vertices per component, got {nv}"
        )
    weight = [[0] * nv for _ in range(nv)]
    for (u, v), k in mult.items():
        weight[u][v] = weight[v][u] = k

    def leaves(cells: list[list[int]], j: int) -> Iterator[list[list[int]]]:
        if j == nv:
            yield cells
            return
        tried: list[int] = []
        for x in cells[j]:
            if any(all(weight[x][w] == weight[y][w] for w in range(nv) if w not in (x, y)) for y in tried):
                continue
            tried.append(x)
            split = [[x]]
            for cell in [[y for y in cells[j] if y != x]] + cells[j + 1:]:
                by_weight: dict[int, list[int]] = {}
                for y in cell:
                    by_weight.setdefault(weight[x][y], []).append(y)
                split += [by_weight[w] for w in sorted(by_weight, key=lambda w: (w == 0, w))]
            yield from leaves(cells[:j] + split, j + 1)

    best = None
    for cells in leaves(_refine_classes(nv, mult), 0):
        label = {cell[0]: i for i, cell in enumerate(cells)}
        rep = tuple(sorted((min(label[u], label[v]), max(label[u], label[v]), k) for (u, v), k in mult.items()))
        if best is None or rep < best:
            best = rep
    return best


def _classify(pairs: tuple[tuple[int, int], ...]) -> MultiGraphPattern:
    """Canonical pattern for endpoint pairs (repetition = multiplicity): components minimized alone, then ordered."""
    label = {x: i for i, x in enumerate(sorted({x for pair in pairs for x in pair}))}
    mult = Counter()
    for u, v in pairs:
        if u == v:
            raise ValueError(f"pattern edge ({u}, {v}) is a self-loop")
        mult[tuple(sorted((label[u], label[v])))] += 1
    reps = []
    for comp in components(len(label), mult):  # ascending, so local labels keep u < v
        local = {x: i for i, x in enumerate(comp)}
        block = {(local[u], local[v]): k for (u, v), k in mult.items() if u in local}
        reps.append((len(comp), _canonical_rep(len(comp), block)))
    edges, offset = [], 0
    for size, rep in sorted(reps):
        edges += [(u + offset, v + offset, k) for u, v, k in rep]
        offset += size
    return MultiGraphPattern(offset, tuple(sorted(edges)))


# -- cycle counting ------------------------------------------------------------


def cycle_counts(g: Graph, lengths: Collection[int] = CYCLE_LENGTHS) -> dict[int, int]:
    """Exact number of unlabeled cycles in ``g`` of each length of ``lengths`` (in ``CYCLE_LENGTHS``), from one cycle walk.

    Lengths 3 and 4 are checked against :class:`PatternCounts`; a mismatch is a bug and raises RuntimeError.
    """
    counts = dict.fromkeys(lengths, 0)
    for length, cycles in _cycle_blocks(g, counts):
        counts[length] += cycles.shape[1]
    closed = PatternCounts(g) if 3 in counts or 4 in counts else None
    for length in sorted({3, 4} & counts.keys()):
        if closed.copies(_CYCLES[length]) != counts[length]:
            raise RuntimeError(
                f"cycle census self-check failed for length {length}: "
                f"enumeration={counts[length]}, closed form={closed.copies(_CYCLES[length])}"
            )
    return counts


def count_cycles(g: Graph, length: int) -> int:
    """Exact number of unlabeled cycles of ``length`` (in ``CYCLE_LENGTHS``) in ``g``; 3 and 4 in closed form, no walk."""
    if isinstance(length, numbers.Integral) and length in _CYCLES:
        return PatternCounts(g).copies(_CYCLES[length])
    return cycle_counts(g, (length,))[length]


# -- subgraph counting ---------------------------------------------------------


def count_subgraph(g: Graph, h: Graph) -> int:
    """Number of edge subsets S of ``g`` with g[S] isomorphic to ``h`` (at most 6 edges, no isolated vertex)."""
    if h.m > 6:
        raise PatternTooLargeError(f"pattern has {h.m} > 6 edges")
    if h.n == 0 or h.has_isolated_vertices():
        raise ValueError("pattern must be nonempty with no isolated vertices")
    return injective_homomorphisms(h, g) // injective_homomorphisms(h, h)


def injective_homomorphisms(h: Graph, g: Graph) -> int:
    """inj(h, g): the injective maps V(h) -> V(g) that send every edge of ``h`` to an edge of ``g``; 1 for an empty h.

    A backtracking walk on its own stack (no recursion limit) places h's
    vertices component by component, largest first, in breadth-first order:
    each among the neighbours of its parent's image, of degree at least its
    own and joined to its placed neighbours' images. Permuting a class of
    twins (equal open or closed neighbourhoods) or the single-edge
    components acts freely on the maps, so the walk keeps the maps whose
    images increase along each class and the single edges' first ends, and
    multiplies their number by the order of that group.
    """
    if not h.n:
        return 1
    adj = h.adjacency
    opens = Counter(adj)  # an open twin class and a closed one never share a neighbourhood
    key = [adj[x] if opens[adj[x]] > 1 else tuple(sorted((x,) + adj[x])) for x in range(h.n)]
    single = [len(a) == 1 == len(adj[a[0]]) for a in adj]  # an end of a single-edge component
    group = math.factorial(sum(single) // 2) * math.prod(map(math.factorial, Counter(key).values()))
    order: list[int] = []
    for comp in sorted(components(h.n, h.edges.tolist()), key=len, reverse=True):
        queue = [max(comp, key=lambda x: len(adj[x]))]
        for x in queue:
            queue += [y for y in adj[x] if y not in queue]
        order += queue
    position = {x: i for i, x in enumerate(order)}
    plan, last = [], {}  # per placed vertex: degree, parent, other placed neighbours, the one its image exceeds
    for i, x in enumerate(order):
        placed = sorted(position[y] for y in adj[x] if position[y] < i)
        tag = "single edge" if single[x] and not placed else key[x]
        plan.append((len(adj[x]), placed[0] if placed else -1, tuple(placed[1:]), last.get(tag, -1)))
        last[tag] = last[key[x]] = i
    nbr, degree = [set(a) for a in g.adjacency], g.degrees  # the walk's count does not depend on the order tried
    # -1 is no vertex: image[h.n] is the floor of a vertex that exceeds none, and used[-1] a spare slot
    image, used = [-1] * (h.n + 1), bytearray(g.n + 1)
    total, i, pools = 0, 0, [iter(range(g.n))] + [None] * (h.n - 1)  # per placed vertex, the images left to try
    while i >= 0:
        deg, _, back, lower = plan[i]
        used[image[i]] = 0
        for x in pools[i]:
            if x > image[lower] and not used[x] and degree[x] >= deg and (not back or all(image[j] in nbr[x] for j in back)):
                break
        else:  # no image left: back up
            image[i], i = -1, i - 1
            continue
        if i == h.n - 1:
            total += 1
            continue
        image[i], used[x], i = x, 1, i + 1
        pools[i] = iter(range(g.n) if plan[i][1] < 0 else nbr[image[plan[i][1]]])
    return group * total


# -- ordered edge-tuple census -------------------------------------------------


def count_multigraph_tuples(g: Graph, k: int) -> dict[MultiGraphPattern, int]:
    """The number of ordered edge k-tuples of each multigraph class that occurs; the counts sum to m^k.

    A class count is the copies of its simple support in ``g`` (:class:`PatternCounts`) times its orderings on one copy.
    """
    if not 1 <= k <= 4:
        raise ValueError(f"tuple length must be in [1, 4], got {k}")
    counts = PatternCounts(g)
    out: dict[MultiGraphPattern, int] = {}
    for support, classes in _tuple_classes(k):
        copies = counts.copies(support)
        if copies:
            for pat, orderings in classes:
                out[pat] = out.get(pat, 0) + copies * orderings
    return out


def all_patterns(k: int) -> tuple[MultiGraphPattern, ...]:
    """Every multigraph class realizable by an ordered k-tuple of edges."""
    if not 1 <= k <= 4:
        raise ValueError(f"tuple length must be in [1, 4], got {k}")
    return tuple(sorted((pat for _, classes in _tuple_classes(k) for pat, _ in classes),
                        key=lambda p: p.canonical_key))


def _tuple_classes(k: int) -> Iterator[tuple[MultiGraphPattern, list[tuple[MultiGraphPattern, int]]]]:
    """Each support H of ``_SUPPORTS`` with at most k edges: the classes of the k-tuples that cover H, with orderings."""
    for edges, (_, _, classes) in _SUPPORTS.items():
        if len(edges) <= k:
            yield _pattern(edges, (1,) * len(edges)), [(_pattern(edges, mults), orderings)
                                                        for mults, orderings in classes.items() if sum(mults) == k]


def _pattern(edges: tuple[tuple[int, int], ...], mults: tuple[int, ...]) -> MultiGraphPattern:
    """The pattern of a support's canonical ``edges`` with multiplicities ``mults``, which keeps their labels."""
    return MultiGraphPattern(max(v for _, v in edges) + 1, tuple((u, v, mu) for (u, v), mu in zip(edges, mults)))


# -- small-pattern counts in closed form ---------------------------------------

# each connected simple F with at most 4 edges, named: hom(F, g), from d = degrees, s = A d,
# t = triangles per vertex and w = sum over u != v of codeg(u, v)^2
_SHAPES = {
    "K2": lambda h: _exact_sum(h.d),  # 2m
    "P3": lambda h: _exact_sum(h.d, h.d),
    "K3": lambda h: 2 * _exact_sum(h.triangles),  # tr A^3
    "P4": lambda h: _exact_sum(h.d, h.s),  # d^T A d
    "K13": lambda h: _exact_sum(h.d, h.d, h.d),
    "C4": lambda h: _exact_sum(h.d, h.d) + h.w,  # tr A^4
    "P5": lambda h: _exact_sum(h.s, h.s),
    "K14": lambda h: _exact_sum(h.d, h.d, h.d, h.d),
    "paw": lambda h: 2 * _exact_sum(h.triangles, h.d),  # a triangle with a pendant edge
    "chair": lambda h: _exact_sum(h.d, h.d, h.s),  # a claw with one leg extended
}

# The pattern tables, which ``tests/oracles.py`` (``pattern_tables``) derives and the tests compare.
# Each simple support H with 1..4 edges and no isolated vertex, by its canonical edges: |Aut(H)|; the
# Moebius terms of inj(H, g), a coefficient per product of ``_SHAPES`` (Lovasz 2012, ch. 5); and the
# classes of the k-tuples of edges that cover H, k = 1..4, each by the multiplicities of H's edges, with
# its k! / prod mu! orderings summed over the multiplicity vectors that span it.
_SUPPORTS = {
    ((0, 1),): (2, {"K2": 1}, {(1,): 1, (2,): 1, (3,): 1, (4,): 1}),
    ((0, 1), (0, 2), (1, 2)): (6, {"K3": 1}, {(1, 1, 1): 6, (1, 1, 2): 36}),
    ((0, 2), (1, 2)): (2, {"K2": -1, "P3": 1}, {(1, 1): 2, (1, 2): 6, (1, 3): 8, (2, 2): 6}),
    ((0, 1), (0, 2), (1, 3), (2, 3)): (8, {"K2": 1, "P3": -2, "C4": 1}, {(1, 1, 1, 1): 24}),
    ((0, 1), (2, 3)): (8, {"K2": 2, "P3": -4, "K2 K2": 1}, {(1, 1): 2, (1, 2): 6, (1, 3): 8, (2, 2): 6}),
    ((0, 2), (1, 3), (2, 3)): (2, {"K2": 1, "P3": -2, "K3": -1, "P4": 1},
        {(1, 1, 1): 6, (1, 1, 2): 12, (1, 2, 1): 24}),
    ((0, 3), (1, 2), (1, 3), (2, 3)): (2, {"K3": -2, "paw": 1}, {(1, 1, 1, 1): 24}),
    ((0, 3), (1, 3), (2, 3)): (6, {"K2": 2, "P3": -3, "K13": 1}, {(1, 1, 1): 6, (1, 1, 2): 36}),
    ((0, 1), (2, 3), (2, 4), (3, 4)): (12, {"K3": 6, "paw": -6, "K2 K3": 1}, {(1, 1, 1, 1): 24}),
    ((0, 1), (2, 4), (3, 4)): (4, {"K2": -4, "P3": 10, "K2 K2": -1, "K3": 2, "P4": -4, "K13": -2, "K2 P3": 1},
        {(1, 1, 1): 6, (1, 1, 2): 24, (2, 1, 1): 12}),
    ((0, 2), (1, 3), (2, 4), (3, 4)): (2, {"K2": -2, "P3": 5, "K13": -1, "K3": 3, "paw": -2, "P4": -2, "C4": -1,
        "P5": 1}, {(1, 1, 1, 1): 24}),
    ((0, 3), (1, 4), (2, 4), (3, 4)): (2, {"K2": -2, "P3": 5, "K3": 4, "P4": -3, "paw": -2, "K13": -1,
        "chair": 1}, {(1, 1, 1, 1): 24}),
    ((0, 4), (1, 4), (2, 4), (3, 4)): (24, {"K2": -6, "P3": 11, "K13": -6, "K14": 1}, {(1, 1, 1, 1): 24}),
    ((0, 1), (2, 3), (4, 5)): (48, {"K2": 16, "P3": -48, "K2 K2": 6, "K3": -8, "P4": 24, "K13": 16, "K2 P3": -12,
        "K2 K2 K2": 1}, {(1, 1, 1): 6, (1, 1, 2): 36}),
    ((0, 1), (2, 4), (3, 5), (4, 5)): (4, {"K2": 8, "P3": -24, "K2 K2": 1, "K3": -14, "P4": 14, "K13": 8,
        "K2 P3": -2, "paw": 12, "K2 K3": -1, "C4": 2, "P5": -4, "chair": -4, "K2 P4": 1}, {(1, 1, 1, 1): 24}),
    ((0, 1), (2, 5), (3, 5), (4, 5)): (12, {"K2": 12, "P3": -34, "K2 K2": 2, "K3": -12, "P4": 18, "K13": 12,
        "K2 P3": -3, "paw": 6, "chair": -6, "K14": -2, "K13 K2": 1}, {(1, 1, 1, 1): 24}),
    ((0, 2), (1, 2), (3, 5), (4, 5)): (8, {"K2": 10, "P3": -29, "K13": 10, "K3": -12, "P4": 16, "K2 K2": 1,
        "K2 P3": -2, "paw": 8, "chair": -4, "K14": -1, "C4": 2, "P5": -4, "P3 P3": 1}, {(1, 1, 1, 1): 24}),
    ((0, 1), (2, 3), (4, 6), (5, 6)): (16, {"K2": -48, "P3": 160, "K2 K2": -10, "K3": 64, "P4": -104, "K13": -72,
        "K2 P3": 26, "K2 K2 K2": -1, "paw": -56, "K2 K3": 4, "C4": -8, "P5": 24, "chair": 40, "K2 P4": -8,
        "K14": 8, "K13 K2": -4, "P3 P3": -4, "K2 K2 P3": 1}, {(1, 1, 1, 1): 24}),
    ((0, 1), (2, 3), (4, 5), (6, 7)): (384, {"K2": 288, "P3": -1056, "K2 K2": 76, "K3": -384, "P4": 768,
        "K13": 576, "K2 P3": -240, "K2 K2 K2": 12, "paw": 384, "K2 K3": -32, "C4": 48, "P5": -192, "chair": -384,
        "K2 P4": 96, "K14": -96, "K13 K2": 64, "P3 P3": 48, "K2 K2 P3": -24, "K2 K2 K2 K2": 1},
        {(1, 1, 1, 1): 24}),
}
# C3 and C4, the supports whose every vertex has degree 2
_CYCLES = {len(edges): _pattern(edges, (1,) * len(edges)) for edges in _SUPPORTS
           if set(Counter(x for edge in edges for x in edge).values()) == {2}}

# a k x k quotient costs about k^3 / this much as the wedge route's oriented wedges
_MATMUL_PER_WEDGE = 256
_MAX_CLASSES = 4000  # the quotient B then takes at most 64 MB in float32, 128 MB in float64
_SMALL_HOST = 64  # up to this many vertices the n x n product costs less than a twin search


class PatternCounts:
    """Exact copy counts in one host of every simple pattern with at most 4 edges (the module docstring's closed form).

    The host is kept only as its four invariants.
    """

    def __init__(self, g: Graph):
        self.d, self.s, self.triangles, self.w = _host_invariants(g)
        self._homs: dict[str, int] = {}

    def hom(self, shape: str) -> int:
        """hom(F, g) for the connected shape F named ``shape`` in ``_SHAPES``."""
        if shape not in self._homs:
            self._homs[shape] = _SHAPES[shape](self)
        return self._homs[shape]

    def injective(self, h: MultiGraphPattern) -> int:
        """Injective homomorphisms of the support of ``h`` into the host."""
        return sum(coef * math.prod(map(self.hom, shapes.split())) for shapes, coef in _support_row(h)[1].items())

    def copies(self, h: MultiGraphPattern) -> int:
        """Edge subsets of the host isomorphic to the support of ``h``."""
        inj, aut = self.injective(h), _support_row(h)[0]
        if inj % aut:
            raise RuntimeError(f"{inj} injective maps do not split into copies of a pattern with {aut} automorphisms")
        return inj // aut


def _support_row(h: MultiGraphPattern) -> tuple:
    """The ``_SUPPORTS`` row of the support of ``h``; KeyError for a support with more than 4 edges."""
    edges = tuple((u, v) for u, v, _ in h.multi_edges)
    if edges not in _SUPPORTS:  # a multigraph's support may need relabelling to its canonical form
        edges = tuple((u, v) for u, v, _ in _classify(edges).multi_edges)
    if edges not in _SUPPORTS:
        raise KeyError(f"no pattern table for {h.key_string()}: PatternCounts counts supports of at most 4 edges")
    return _SUPPORTS[edges]


def _exact_sum(*factors: np.ndarray) -> int:
    """sum over i of prod_j factors[j][i] for nonnegative int arrays, in Python ints if int64 could overflow."""
    bound = len(factors[0]) * math.prod(int(f.max(initial=0)) for f in factors)
    if bound >= 2**63:
        factors = tuple(f.astype(object) for f in factors)
    return int(functools.reduce(operator.mul, factors).sum())


def _host_invariants(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(d, s, t, w) of :class:`PatternCounts`, by the cheaper of two routes."""
    d = np.diff(g.offsets)
    if g.m == 0:
        return d, d, d, 0
    u, v = g.edge_arrays()
    s = (np.bincount(u, d[v], g.n) + np.bincount(v, d[u], g.n)).astype(np.int64)
    if g.n <= _SMALL_HOST:  # the blow-up of B = A, with no twin search
        return (d, s, *_quotient_invariants(Blowup.singletons(g)))
    wedges = int(np.minimum(d[u], d[v]).sum())  # bounds the oriented wedges
    classes = min(round((_MATMUL_PER_WEDGE * wedges) ** (1 / 3)), _MAX_CLASSES)
    quotient = g.twin_quotient(max_classes=classes)
    if quotient is not None:
        return (d, s, *_quotient_invariants(quotient))
    return (d, s, *_wedge_invariants(g.n, d, u, v))


def _quotient_invariants(quotient: Blowup) -> tuple[np.ndarray, int]:
    """(t, w) of a blow-up: A = the blow-up of B, less the identity on clique classes.

    Two distinct vertices of classes i and j have codeg (B D B)[i, j] less
    B[i, j] for each of them on a clique class, D the class sizes; B D B is
    exact in B's type, since no entry or partial sum exceeds n.
    """
    b, q, sizes, k = quotient.blocks, quotient.blocks.diagonal(), quotient.sizes, quotient.k
    triangles, w = np.zeros(k, np.int64), 0
    for rows in rng.batches(0, k, 16 * k):
        codeg = ((b[rows] * sizes.astype(b.dtype)) @ b - (q[rows, None] + q) * b[rows]).astype(np.int64)
        others = sizes - (rows[:, None] == np.arange(k))
        triangles[rows] = (b[rows] * others * codeg).sum(axis=1).astype(np.int64) // 2
        w += _exact_sum(np.repeat(sizes[rows], k), others.ravel(), codeg.ravel(), codeg.ravel())
    return triangles[quotient.labels], w


def _wedge_invariants(n: int, d: np.ndarray, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, int]:
    """(t, w) from the wedges x - y - z whose middle y and end z rank below the top x, vertices ranked by (degree, id).

    The wedges joining x and z number cnt(x, z) = |{y < x : y ~ x, y ~ z}|;
    a four-cycle is one pair of them, at its top x and the vertex opposite. A
    triangle a < b < c is the wedges c - a - b and c - b - a, so c gets
    cnt(c, z) for each neighbour z below it and z gets it twice (as an end,
    and as the other wedge's middle). Then w = sum d(d - 1) + 8 N(C4). A
    block of tops, at 16 entries a wedge, holds all their wedges, so its
    counts are final.
    """
    rank = np.empty(n, np.int64)
    rank[np.argsort(d, kind="stable")] = np.arange(n)
    ru, rv = rank[u], rank[v]
    keys = np.sort(np.concatenate((ru * n + rv, rv * n + ru)))  # each vertex's neighbours, in rank order
    own, nbr = keys // n, keys % n
    start = np.searchsorted(own, np.arange(n))
    # an edge y -> x up the ranking, and the neighbours of y ranked below x: the first pos of y's list
    up = np.flatnonzero(nbr > own)
    up = up[np.argsort(nbr[up], kind="stable")]  # by top, so a top's wedges are consecutive
    pos, top = up - start[own[up]], nbr[up]
    bounds = np.concatenate(([0], np.cumsum(np.bincount(top, minlength=n))))  # each top's edges in ``up``
    doubled, cycles = np.zeros(n, np.int64), 0
    for tops in rng.batches(0, n, 16 * np.bincount(top, pos, n)):
        span = slice(bounds[tops[0]], bounds[tops[-1] + 1])
        edge, cnt = up[span], pos[span]
        z = np.arange(cnt.sum()) + np.repeat(start[own[edge]] - np.cumsum(cnt) + cnt, cnt)
        found, tally = np.unique(np.repeat(top[span] * n, cnt) + nbr[z], return_counts=True)
        tri = tally * (keys[np.minimum(np.searchsorted(keys, found), keys.size - 1)] == found)
        doubled += np.bincount(found // n, tri, n).astype(np.int64)
        doubled += 2 * np.bincount(found % n, tri, n).astype(np.int64)
        cycles += _exact_sum(tally, tally - 1) // 2
    return doubled[rank] // 2, _exact_sum(d, d - 1) + 8 * cycles


# -- homomorphism densities ----------------------------------------------------


def hom_density_cycle(g: Graph, length: int) -> float:
    """Cycle homomorphism density tr(A^length) / n^length (length >= 2)."""
    if not (isinstance(length, numbers.Integral) and length >= 2):  # True is 1, so no bool passes
        raise ValueError(f"cycle homomorphism density needs an integer length >= 2, got {length!r}")
    if g.n == 0 or g.m == 0:
        return 0.0
    return float(spectral.eigenvalues(g).trace_power(length)) / float(g.n) ** length


# -- tight multigraph decomposition --------------------------------------------


@dataclass(frozen=True)
class CycleFactor:
    length: int


@dataclass(frozen=True)
class DoubledEdgeFactor:
    pass


Factor = Union[CycleFactor, DoubledEdgeFactor]


def decompose_tight_multigraph(h: MultiGraphPattern) -> tuple[Factor, ...]:
    """Split a pattern with min degree >= 2 and |V| = |E| into its components, each a cycle or a doubled edge.

    Any other component contradicts those constraints, so it is a bug and raises RuntimeError.
    """
    if h.min_multi_degree < 2:
        raise PreconditionViolatedError("pattern has a vertex of degree below 2")
    if h.vertex_count != h.edge_count:
        raise PreconditionViolatedError(
            f"|V| = {h.vertex_count} differs from |E| = {h.edge_count} (multiplicities counted)"
        )
    factors: list[Factor] = []
    for comp, edges, mults, deg in h._component_parts():
        if len(comp) == 2 and mults == [2]:
            factors.append(DoubledEdgeFactor())
            continue
        if set(mults) == {1} and len(edges) == len(comp) and all(deg[x] == 2 for x in comp):
            factors.append(CycleFactor(len(comp)))
            continue
        raise RuntimeError(
            "component is neither a simple cycle nor a doubled edge; "
            "this contradicts the degree/count constraints and indicates a bug"
        )
    return tuple(factors)
