"""Exact censuses of small patterns inside a host graph.

Covers unlabeled cycle counts by canonical DFS, copy counts of small simple
patterns as edge subsets, the classification of all ordered edge k-tuples by
the isomorphism class of the multigraph they span, and cycle homomorphism
densities from the adjacency spectrum.

Pattern isomorphism is decided by explicit canonical forms: vertices are
first partitioned by iterated degree refinement, then the edge representation
is minimized over the (usually tiny) set of partition-respecting relabelings.
This is exact for patterns with at most 10 vertices, which covers everything
a tuple length of 4 can produce.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .errors import (
    EnumerationGateExceededError,
    PatternTooLargeError,
    PreconditionViolatedError,
    UnsupportedLengthError,
)
from .graph import Complete, Graph, components, generate

__all__ = [
    "MultiGraphPattern",
    "count_cycles",
    "cycle_list",
    "count_subgraph",
    "count_multigraph_tuples",
    "all_patterns",
    "hom_density_cycle",
    "decompose_tight_multigraph",
    "CycleFactor",
    "DoubledEdgeFactor",
]

_MAX_PATTERN_VERTICES = 10
TUPLE_ENUMERATION_GATE = 10**8


# ---------------------------------------------------------------------------
# multigraph patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiGraphPattern:
    """Small multigraph up to isomorphism.

    ``multi_edges`` is the canonical representation: a sorted tuple of
    ``(u, v, multiplicity)`` with ``u < v`` under the canonical vertex
    labeling 0..vertex_count-1. Two patterns are isomorphic exactly when
    their canonical representations (and hence the objects) are equal.
    No self-loops; no isolated vertices.
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
    """Minimal edge representation of one connected block over admissible relabelings."""
    if nv > _MAX_PATTERN_VERTICES:
        raise PatternTooLargeError(
            f"canonical form supports at most {_MAX_PATTERN_VERTICES} vertices per component, got {nv}"
        )
    classes = _refine_classes(nv, mult)
    best = None
    for perm_parts in itertools.product(*(itertools.permutations(c) for c in classes)):
        label = [0] * nv
        counter = 0
        for part in perm_parts:
            for x in part:
                label[x] = counter
                counter += 1
        rep = tuple(
            sorted(
                (min(label[u], label[v]), max(label[u], label[v]), k)
                for (u, v), k in mult.items()
            )
        )
        if best is None or rep < best:
            best = rep
    return best


def _canonicalize(nv: int, mult: dict[tuple[int, int], int]) -> MultiGraphPattern:
    """Canonical pattern via per-component minimization.

    Components are canonicalized independently, ordered by their canonical
    representations, and relabeled with offsets; isomorphic multigraphs
    always produce the identical result.
    """
    reps = []
    for verts in components(nv, mult):
        local = {x: i for i, x in enumerate(verts)}
        local_mult = {
            (min(local[u], local[v]), max(local[u], local[v])): k
            for (u, v), k in mult.items()
            if u in local
        }
        reps.append((len(verts), _canonical_rep(len(verts), local_mult)))
    reps.sort()
    offset = 0
    edges: list[tuple[int, int, int]] = []
    for cn, rep in reps:
        edges.extend((u + offset, v + offset, k) for u, v, k in rep)
        offset += cn
    return MultiGraphPattern(nv, tuple(sorted(edges)))


_classify_cache: dict[tuple, MultiGraphPattern] = {}


def _classify(pairs: tuple[tuple[int, int], ...]) -> MultiGraphPattern:
    """Canonical pattern for endpoint pairs (repetition = multiplicity)."""
    if not pairs:
        return MultiGraphPattern(0, ())
    mult = Counter()
    for u, v in pairs:
        if u == v:
            raise ValueError(f"pattern edge ({u}, {v}) is a self-loop")
        mult[(u, v) if u < v else (v, u)] += 1
    # signature: relabel by first appearance in the sorted edge list, so
    # identically-shaped inputs share one cache entry regardless of labels
    relabel: dict[int, int] = {}
    sig_edges = []
    for (u, v), k in sorted(mult.items()):
        for x in (u, v):
            if x not in relabel:
                relabel[x] = len(relabel)
        a, b = relabel[u], relabel[v]
        sig_edges.append((min(a, b), max(a, b), k))
    sig = tuple(sorted(sig_edges))
    hit = _classify_cache.get(sig)
    if hit is not None:
        return hit
    nv = len(relabel)
    remapped = {(min(relabel[u], relabel[v]), max(relabel[u], relabel[v])): k for (u, v), k in mult.items()}
    pat = _canonicalize(nv, remapped)
    _classify_cache[sig] = pat
    return pat


# ---------------------------------------------------------------------------
# cycle counting
# ---------------------------------------------------------------------------


def _enumerate_cycles(g: Graph, length: int, collect: bool):
    """Count (and optionally list) unlabeled cycles of the given length.

    Each cycle is visited exactly once: rooted at its smallest vertex, with
    the direction fixed by path[1] < path[-1].
    """
    adj = g.adjacency
    count = 0
    found: list[tuple[int, ...]] = []
    path = [0] * length
    on_path = bytearray(g.n)

    def extend(root: int, depth: int):
        nonlocal count
        last = path[depth - 1]
        if depth == length:
            if path[1] < last and root in g.neighbor_set(last):
                count += 1
                if collect:
                    found.append(tuple(path))
            return
        for w in adj[last]:
            if w > root and not on_path[w]:
                path[depth] = w
                on_path[w] = 1
                extend(root, depth + 1)
                on_path[w] = 0

    for root in range(g.n):
        path[0] = root
        on_path[root] = 1
        extend(root, 1)
        on_path[root] = 0
    return count, found


def _trace_powers(g: Graph) -> tuple[int, int]:
    """Exact tr(A^3), tr(A^4) using float64 matmuls on the 0/1 matrix.

    Entries stay far below 2^53 for any graph this package accepts, so the
    arithmetic is exact.
    """
    a = g.adjacency_matrix(np.float64)
    a2 = a @ a
    tr3 = float((a2 * a).sum())
    tr4 = float((a2 * a2).sum())
    return int(round(tr3)), int(round(tr4))


def count_cycles(g: Graph, length: int) -> int:
    """Exact number of unlabeled cycles of ``length`` (3..8) in ``g``.

    For lengths 3 and 4 the DFS result is re-derived from closed-walk trace
    identities and the two must agree; a mismatch means a bug, not an input
    problem, and raises RuntimeError.
    """
    if not 3 <= length <= 8:
        raise UnsupportedLengthError(f"cycle length must be in [3, 8], got {length}")
    count, _ = _enumerate_cycles(g, length, collect=False)
    if length in (3, 4) and g.n > 0:
        tr3, tr4 = _trace_powers(g)
        if length == 3:
            num, per_cycle = tr3, 6
        else:
            num, per_cycle = _closed_four_walks_on_cycles(g, tr4), 8
        from_trace = num // per_cycle
        ok = num % per_cycle == 0 and from_trace == count
        if not ok:
            raise RuntimeError(
                f"cycle census self-check failed for length {length}: "
                f"enumeration={count}, trace formula={from_trace}"
            )
    return count


def _closed_four_walks_on_cycles(g: Graph, tr4: int) -> int:
    """8 N(g, C4): tr(A^4) less the 2 closed 4-walks on each edge and the 4 on each wedge."""
    wedges = sum(d * (d - 1) // 2 for d in g.degrees)
    return tr4 - 4 * wedges - 2 * g.m


def four_cycle_count_from_traces(g: Graph) -> int:
    """N(g, C4) from exact closed-walk traces alone.

    Same value as ``count_cycles(g, 4)`` at O(n^3) matmul cost instead of a
    path enumeration; preferable on dense hosts.
    """
    if g.n == 0:
        return 0
    num = _closed_four_walks_on_cycles(g, _trace_powers(g)[1])
    if num % 8 != 0:
        raise RuntimeError("four-cycle trace identity produced a non-integer count")
    return num // 8


def cycle_list(g: Graph, length: int) -> tuple[tuple[int, ...], ...]:
    """All unlabeled cycles of ``length`` as vertex tuples."""
    if not 3 <= length <= 8:
        raise UnsupportedLengthError(f"cycle length must be in [3, 8], got {length}")
    _, found = _enumerate_cycles(g, length, collect=True)
    return tuple(found)


# ---------------------------------------------------------------------------
# subgraph counting
# ---------------------------------------------------------------------------


def count_subgraph(g: Graph, h: Graph) -> int:
    """Number of edge subsets S of ``g`` with g[S] isomorphic to ``h``.

    ``h`` must have at most 6 edges and no isolated vertices. Cost is
    O(C(m, |E(h)|)) subsets with cheap degree filters before each exact
    isomorphism comparison.
    """
    if h.m > 6:
        raise PatternTooLargeError(f"pattern has {h.m} > 6 edges")
    if h.n == 0 or h.has_isolated_vertices():
        raise ValueError("pattern must be nonempty with no isolated vertices")
    target = _classify(h.edges)
    t_nv = target.vertex_count
    t_degs = sorted(target.multi_degrees())
    k = h.m
    count = 0
    for subset in itertools.combinations(g.edges, k):
        deg = Counter()
        for u, v in subset:
            deg[u] += 1
            deg[v] += 1
        if len(deg) != t_nv or sorted(deg.values()) != t_degs:
            continue
        if _classify(subset) == target:
            count += 1
    return count


# ---------------------------------------------------------------------------
# ordered edge-tuple census
# ---------------------------------------------------------------------------


def count_multigraph_tuples(g: Graph, k: int) -> dict[MultiGraphPattern, int]:
    """Partition all m^k ordered edge k-tuples by induced multigraph class.

    Returns a map pattern -> number of ordered tuples inducing it; the
    counts always sum to m^k. Enumeration runs over edge multisets, each
    weighted by its number of orderings.
    """
    if not 1 <= k <= 4:
        raise ValueError(f"tuple length must be in [1, 4], got {k}")
    m = g.m
    total = m**k
    if total > TUPLE_ENUMERATION_GATE:
        raise EnumerationGateExceededError(
            f"m^k = {total} exceeds the enumeration gate {TUPLE_ENUMERATION_GATE}",
            total=total,
        )
    kfact = math.factorial(k)
    out: Counter = Counter()
    edges = g.edges
    for combo in itertools.combinations_with_replacement(range(m), k):
        reps = Counter(combo)
        orderings = kfact
        for r in reps.values():
            orderings //= math.factorial(r)
        pat = _classify(tuple(edges[i] for i in combo))
        out[pat] += orderings
    return dict(out)


def all_patterns(k: int) -> tuple[MultiGraphPattern, ...]:
    """Every multigraph class realizable by an ordered k-tuple of edges.

    A k-tuple spans at most 2k vertices, so the census of the complete graph
    on 2k vertices realizes every class.
    """
    if not 1 <= k <= 4:
        raise ValueError(f"tuple length must be in [1, 4], got {k}")
    host = generate(Complete(2 * k))
    return tuple(sorted(count_multigraph_tuples(host, k), key=lambda p: p.canonical_key))


# ---------------------------------------------------------------------------
# homomorphism densities
# ---------------------------------------------------------------------------


def hom_density_cycle(g: Graph, length: int) -> float:
    """Cycle homomorphism density tr(A^length) / n^length (length >= 2)."""
    if length < 2:
        raise ValueError(f"cycle homomorphism density needs length >= 2, got {length}")
    if g.n == 0 or g.m == 0:
        return 0.0
    from . import spectral

    spec = spectral.eigenvalues(g)
    return float(spec.trace_power(length)) / float(g.n) ** length


# ---------------------------------------------------------------------------
# tight multigraph decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CycleFactor:
    length: int


@dataclass(frozen=True)
class DoubledEdgeFactor:
    pass


Factor = Union[CycleFactor, DoubledEdgeFactor]


def decompose_tight_multigraph(h: MultiGraphPattern) -> tuple[Factor, ...]:
    """Split a pattern with min degree >= 2 and |V| = |E| into components.

    Such a pattern is necessarily a disjoint union of simple cycles and
    isolated doubled edges; any other component shape indicates a bug in the
    caller or this library and raises RuntimeError.
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
