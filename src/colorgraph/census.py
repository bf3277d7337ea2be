"""Exact censuses of small patterns inside a host graph.

Covers unlabeled cycle counts and lists by joining half-paths, copy counts
of small simple patterns by one embedding search, the classification of
all ordered edge k-tuples by the isomorphism class of the multigraph they
span, and cycle homomorphism densities from the adjacency spectrum.

:class:`PatternCounts` counts every simple pattern with at most 4 edges in
closed form, in time polynomial in the host and with no enumeration of
edge sets: a few host invariants give the homomorphism counts of the ten
connected shapes, and Moebius inversion over the pattern's vertex
partitions turns them into injective counts (Alon-Yuster-Zwick 1997;
Lovasz 2012, ch. 5). It serves the tuple census for k <= 4,
``count_cycles`` at lengths 3 and 4 (so ``limits.limit_for``'s four-cycle
count), and the length-3 and length-4 cross-check of the cycle walk.

Pattern isomorphism is decided by explicit canonical forms: vertices are
first partitioned by iterated degree refinement, then the edge representation
is minimized over the partition-respecting relabelings by individualization
and refinement. This is exact for patterns with at most 10 vertices, which
covers everything a tuple length of 4 can produce.
"""
from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, Union

import numpy as np

from . import rng
from .errors import (
    PatternTooLargeError,
    PreconditionViolatedError,
    SizeGateExceededError,
    UnsupportedLengthError,
)
from .graph import Graph, components

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
CYCLE_LENGTHS = range(3, 9)  # the cycle lengths counted and listed: 3..8
_MAX_CYCLE_ENTRIES = 64 * rng.BATCH_ENTRIES  # 1 GiB of int64; cycle_list's peak is its blocks plus one hstack


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
    """Minimal edge representation of one connected block over the relabelings that keep its classes in order.

    Individualization and refinement, label by label: each vertex x of the
    class at label j in turn takes label j, and every later class splits
    into the vertices x joins, by multiplicity, ahead of the rest. The split
    puts the sorted representation's entries (j, v, k) at their least, and
    only relabelings inside the split classes keep them there, so the least
    leaf is the least relabeling. Of two interchangeable vertices (their
    transposition is an automorphism) only one is tried.
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


def _cycle_blocks(g: Graph, lengths: Collection[int]) -> Iterator[tuple[int, np.ndarray]]:
    """(length, cycles) blocks that hold each unlabeled cycle of each length once, one column each.

    The cycle (r, x1, ..., x_{L-1}) with r its least vertex and x1 < x_{L-1}
    is met once, as the simple paths P = (r, x1, ..., x_a) and Q = (r,
    x_{L-1}, ..., x_a) of a = ceil(L/2) and b = floor(L/2) edges above r:
    they share their end, their interiors are disjoint and P[1] < Q[1]
    (Alon-Yuster-Zwick 1997). Its column is P, then Q's interior reversed.
    A length that is not an integer of ``CYCLE_LENGTHS`` raises
    UnsupportedLengthError.
    """
    for length in lengths:
        if not (isinstance(length, numbers.Integral) and length in CYCLE_LENGTHS):
            raise UnsupportedLengthError(f"cycle length must be in [3, 8], got {length}")
    depth = max(((length + 1) // 2 for length in lengths), default=0)
    for roots in _root_blocks(g, depth):  # P and Q share their root, so root blocks split the work
        levels = _half_paths(g, roots, depth)
        for length in lengths:
            for cycles in _closed_pairs(g, *levels[(length + 1) // 2 - 1], *levels[length // 2 - 1]):
                yield length, cycles


def _root_blocks(g: Graph, depth: int) -> list[np.ndarray]:
    """The ``rng.batches`` blocks of roots, each root priced by the entries of its half-paths.

    A root's paths of k edges are at most the non-backtracking walks of k
    edges that leave it upwards; a path and its extensions take about
    depth + 5 entries. So a block's half-paths hold about
    ``rng.BATCH_ENTRIES`` entries or fewer, unless it is one root.
    """
    owner = np.repeat(np.arange(g.n), np.diff(g.offsets))
    back = np.argsort(g.nbrs * g.n + owner)  # the arc w -> u of each arc u -> w
    walks = np.ones(g.nbrs.size)  # per arc: the non-backtracking walks of k edges that start with it
    paths = np.zeros(g.n)
    for _ in range(depth):
        paths += np.bincount(owner, walks * (g.nbrs > owner), g.n)
        walks = np.bincount(owner, walks, g.n)[g.nbrs] - walks[back]
    return list(rng.batches(0, g.n, (depth + 5) * paths + 1))


def _half_paths(g: Graph, roots: np.ndarray, depth: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per k in 1..depth, the simple paths (r, x1, ..., xk) from ``roots`` with every xi > r, and their keys.

    A path's key is its end times 2m plus the index in ``g.nbrs`` of its arc
    r -> x1, so keys order paths by end, then root, then x1. Each level holds
    one path per column, sorted by key, and extends the level before it.
    """
    degree, path, first_arc, levels = np.diff(g.offsets), roots[None, :], None, []
    for k in range(depth):
        deg = degree[path[-1]]
        col = np.repeat(np.arange(path.shape[1]), deg)
        arc = np.arange(col.size) + np.repeat(g.offsets[path[-1]] - np.cumsum(deg) + deg, deg)
        nxt = g.nbrs[arc]
        keep = nxt > path[0, col]
        for i in range(1, k):  # the end itself is never its own neighbour
            keep &= nxt != path[i, col]
        first_arc = arc[keep] if k == 0 else first_arc[col[keep]]
        key = nxt[keep] * g.nbrs.size + first_arc
        order = np.argsort(key)
        col, first_arc = col[keep][order], first_arc[order]
        path = np.concatenate((path[:, col], nxt[keep][order][None]))
        levels.append((path, key[order]))
    return levels


def _closed_pairs(g: Graph, p: np.ndarray, p_key: np.ndarray, q: np.ndarray, q_key: np.ndarray) -> Iterator[np.ndarray]:
    """The cycles, one column each, that paths P of ``p`` and Q of ``q`` close.

    The Qs of a P share its end and root and have Q[1] > P[1], a range of
    the keys. Pairs go in ``rng.batches`` blocks of their running count, at
    three index arrays, a mask and a cycle per pair.
    """
    a, b = len(p) - 1, len(q) - 1
    lo = np.searchsorted(q_key, p_key, side="right")
    hi = np.searchsorted(q_key, p_key - p_key % g.nbrs.size + g.offsets[p[0] + 1])  # past the root's arcs
    ends = np.cumsum(hi - lo)
    for idx in rng.batches(0, int(ends[-1]) if ends.size else 0, a + b + 5):
        left = np.searchsorted(ends, idx, side="right")
        right = idx - ends[left] + hi[left]
        ok = np.ones(idx.size, bool)
        for i, j in itertools.product(range(1, a), range(1, b)):
            ok &= p[i, left] != q[j, right]
        yield np.concatenate((p[:, left[ok]], q[b - 1:0:-1, right[ok]]))


def cycle_counts(g: Graph, lengths: Collection[int] = CYCLE_LENGTHS) -> dict[int, int]:
    """Exact number of unlabeled cycles in ``g`` of each length of ``lengths`` (in ``CYCLE_LENGTHS``), from one walk.

    Lengths 3 and 4 are re-derived in closed form by one
    :class:`PatternCounts`; a mismatch means a bug, not an input problem,
    and raises RuntimeError.
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


def cycle_list(g: Graph, length: int) -> np.ndarray:
    """All unlabeled cycles of ``length`` (in ``CYCLE_LENGTHS``) as an int64 (cycles, length) array in walk order.

    A row is (r, x1, ..., x_{L-1}) with r the cycle's least vertex and
    x1 < x_{L-1}, as ``_cycle_blocks`` meets it. Raises SizeGateExceededError,
    before building more, once the cycles hold more than
    ``_MAX_CYCLE_ENTRIES`` vertex entries.
    """
    blocks, entries = [], 0
    for _, block in _cycle_blocks(g, (length,)):
        entries += block.size
        if entries > _MAX_CYCLE_ENTRIES:
            raise SizeGateExceededError(f"the cycles of length {length} hold more than {_MAX_CYCLE_ENTRIES} entries")
        blocks.append(block)
    return np.hstack(blocks).T


# ---------------------------------------------------------------------------
# subgraph counting
# ---------------------------------------------------------------------------


def count_subgraph(g: Graph, h: Graph) -> int:
    """Number of edge subsets S of ``g`` with g[S] isomorphic to ``h``.

    ``h`` must have at most 6 edges and no isolated vertices. The count is
    inj(h, g) / inj(h, h) (see :func:`injective_homomorphisms`), so its cost
    grows with the copies found, not with the C(m, |E(h)|) edge subsets.
    """
    if h.m > 6:
        raise PatternTooLargeError(f"pattern has {h.m} > 6 edges")
    if h.n == 0 or h.has_isolated_vertices():
        raise ValueError("pattern must be nonempty with no isolated vertices")
    return injective_homomorphisms(h, g) // injective_homomorphisms(h, h)


def injective_homomorphisms(h: Graph, g: Graph) -> int:
    """inj(h, g): the injective maps V(h) -> V(g) that send every edge of ``h`` to an edge of ``g``.

    Copies of h in g number inj(h, g) / |Aut(h)|, and |Aut(h)| = inj(h, h)
    (Lovasz 2012, ch. 5). A backtracking walk on its own stack, so not
    bounded by the recursion limit, places h's vertices component by
    component, largest first, in breadth-first order: each among the
    neighbours of its parent's image, of degree at least its own and joined
    to its placed neighbours' images. Permuting a class of twins (equal open
    or closed neighbourhoods) or the single-edge components is an
    automorphism acting freely on the maps, so the walk keeps the maps whose
    images increase along each class and along the single edges' first
    ends, and multiplies their number by the order of that group. The empty
    pattern has inj = 1.
    """
    if not h.n:
        return 1
    adj = h.adjacency
    opens = Counter(adj)  # an open twin class and a closed one never share a neighbourhood
    key = [adj[x] if opens[adj[x]] > 1 else tuple(sorted((x,) + adj[x])) for x in range(h.n)]
    single = [len(a) == 1 == len(adj[a[0]]) for a in adj]  # an end of a single-edge component
    group = math.factorial(sum(single) // 2) * math.prod(map(math.factorial, Counter(key).values()))
    order: list[int] = []
    for comp in sorted(components(h.n, h.edges), key=len, reverse=True):
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
    nbr, degree = [set(a) for a in g.adjacency], g.degrees
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
        pools[i] = iter(range(g.n) if plan[i][1] < 0 else g.adjacency[image[plan[i][1]]])
    return group * total


# ---------------------------------------------------------------------------
# ordered edge-tuple census
# ---------------------------------------------------------------------------


def count_multigraph_tuples(g: Graph, k: int) -> dict[MultiGraphPattern, int]:
    """Partition all m^k ordered edge k-tuples by induced multigraph class.

    Returns a map pattern -> number of ordered tuples inducing it, for the
    classes that occur; the counts always sum to m^k. A tuple's class is
    fixed by its simple support H and its edge multiplicities, so each class
    count is the number of copies of H in ``g`` (:class:`PatternCounts`)
    times the class's orderings on one copy.
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


@functools.lru_cache(maxsize=None)
def _supports(k: int) -> tuple[MultiGraphPattern, ...]:
    """Every simple graph with 1..k edges and no isolated vertex, up to isomorphism."""
    level = {_classify(((0, 1),))}
    found = set(level)
    for _ in range(k - 1):
        level = {
            _classify(pairs + (new,))
            for pairs in (tuple((u, v) for u, v, _ in h.multi_edges) for h in level)
            for new in itertools.combinations(range(max(max(p) for p in pairs) + 3), 2)
            if new not in pairs
        }
        found |= level
    return tuple(sorted(found, key=lambda p: p.canonical_key))


@functools.lru_cache(maxsize=None)
def _tuple_classes(k: int) -> tuple[tuple[MultiGraphPattern, tuple[tuple[MultiGraphPattern, int], ...]], ...]:
    """Per support H with at most k edges: each class T of the k-tuples that cover H, with its orderings.

    A multiplicity vector (mu_e) on H's edges, summing to k, spans one class
    and is spanned by k! / prod mu_e! ordered tuples.
    """
    out = []
    for support in _supports(k):
        pairs = [(u, v) for u, v, _ in support.multi_edges]
        tally: Counter = Counter()
        for mults in itertools.product(range(1, k + 1), repeat=len(pairs)):
            if sum(mults) == k:
                slots = tuple(p for p, mu in zip(pairs, mults) for _ in range(mu))
                tally[_classify(slots)] += math.factorial(k) // math.prod(map(math.factorial, mults))
        out.append((support, tuple(tally.items())))
    return tuple(out)


# ---------------------------------------------------------------------------
# small-pattern counts in closed form
# ---------------------------------------------------------------------------

_CYCLES = {3: MultiGraphPattern.from_edges([(0, 1), (1, 2), (0, 2)]),
           4: MultiGraphPattern.from_edges([(0, 1), (1, 2), (2, 3), (0, 3)])}

# each connected simple F with at most 4 edges, keyed by its sorted degrees: hom(F, g),
# from d = degrees, s = A d, t = triangles per vertex and w = sum over u != v of codeg(u, v)^2
_SHAPES = {
    (1, 1): lambda h: _exact_sum(h.d),  # K2: 2m
    (1, 1, 2): lambda h: _exact_sum(h.d, h.d),  # P3
    (2, 2, 2): lambda h: 2 * _exact_sum(h.triangles),  # K3: tr A^3
    (1, 1, 2, 2): lambda h: _exact_sum(h.d, h.s),  # P4: d^T A d
    (1, 1, 1, 3): lambda h: _exact_sum(h.d, h.d, h.d),  # K1,3
    (2, 2, 2, 2): lambda h: _exact_sum(h.d, h.d) + h.w,  # C4: tr A^4
    (1, 1, 2, 2, 2): lambda h: _exact_sum(h.s, h.s),  # P5
    (1, 1, 1, 1, 4): lambda h: _exact_sum(h.d, h.d, h.d, h.d),  # K1,4
    (1, 2, 2, 3): lambda h: 2 * _exact_sum(h.triangles, h.d),  # paw
    (1, 1, 1, 2, 3): lambda h: _exact_sum(h.d, h.d, h.s),  # chair
}

# a k x k quotient costs about k^3 / this much as the wedge route's oriented wedges
_MATMUL_PER_WEDGE = 256
_MAX_CLASSES = 4000  # the quotient B in float32 then takes at most 64 MB
_SMALL_HOST = 64  # up to this many vertices the n x n product costs less than a twin search


class PatternCounts:
    """Exact copy counts in one host of every simple pattern with at most 4 edges.

    The host enters through four invariants only: its degrees d, s = A d, the
    ``triangles`` at each vertex and w = sum over u != v of codeg(u, v)^2. They
    give hom(F, g) in closed form for the ten connected shapes F with at most
    4 edges, the homomorphism count of a disjoint union is the product over
    its components, and injective counts follow by Moebius inversion over
    the pattern's vertex partitions (Lovasz 2012, ch. 5). Copies are
    injective counts over automorphisms. Pattern-side tables are cached per
    pattern; nothing about the host is.

    Codegrees and triangles come from wedges oriented by degree rank
    (Chiba-Nishizeki 1985) or, when its k^3 is cheaper, from the k x k
    matrices of ``g.twin_quotient`` (k = n and B = A on a twin-free host).
    Quotient rows and the wedges' tops go in ``rng.batches`` blocks, so
    neither builds a large array. All sums are exact Python ints.
    """

    def __init__(self, g: Graph):
        self.d, self.s, self.triangles, self.w = _host_invariants(g)
        self._homs: dict[tuple, int] = {}

    def hom(self, shape: tuple[int, ...]) -> int:
        """hom(F, g) for the connected shape F with sorted degrees ``shape``."""
        if shape not in self._homs:
            self._homs[shape] = _SHAPES[shape](self)
        return self._homs[shape]

    def injective(self, h: MultiGraphPattern) -> int:
        """Injective homomorphisms of the support of ``h`` into the host."""
        return sum(coef * math.prod(map(self.hom, shapes)) for coef, shapes in _inversion(h))

    def copies(self, h: MultiGraphPattern) -> int:
        """Edge subsets of the host isomorphic to the support of ``h``."""
        inj, aut = self.injective(h), _automorphisms(h)
        if inj % aut:
            raise RuntimeError(f"{inj} injective maps do not split into copies of a pattern with {aut} automorphisms")
        return inj // aut


def _exact_sum(*factors: np.ndarray) -> int:
    """sum over i of prod_j factors[j][i] for nonnegative int arrays, in Python ints if int64 could overflow."""
    bound = len(factors[0]) * math.prod(int(f.max(initial=0)) for f in factors)
    if bound >= 2**63:
        factors = tuple(f.astype(object) for f in factors)
    return int(functools.reduce(operator.mul, factors).sum())


@functools.lru_cache(maxsize=None)
def _inversion(h: MultiGraphPattern) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
    """inj(H, g) = sum of coef * prod over shapes of hom(shape, g).

    Moebius inversion of hom(H, g) = sum over partitions P of inj(H/P, g):
    each partition of V(H) into independent blocks adds
    prod over blocks of (-1)^(|B|-1) (|B|-1)! times the hom count of the
    simple quotient H/P, whose components are named by their sorted degrees.
    A block holding an edge would need a loop and adds nothing.
    """
    nv = h.vertex_count
    edges = [(u, v) for u, v, _ in h.multi_edges]
    nbrs = [0] * nv
    for u, v in edges:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    by_quotient: Counter = Counter()  # coefficient per quotient edge list
    blocks: list[int] = []
    block_of = [0] * nv

    def place(x: int, coef: int) -> None:
        if x == nv:
            by_quotient[frozenset((min(p), max(p)) for p in ((block_of[u], block_of[v]) for u, v in edges))] += coef
            return
        for i, b in enumerate(blocks):
            if not nbrs[x] & b:  # joining a block of size s multiplies its factor by -s
                blocks[i], block_of[x] = b | 1 << x, i
                place(x + 1, -coef * b.bit_count())
                blocks[i] = b
        blocks.append(1 << x)
        block_of[x] = len(blocks) - 1
        place(x + 1, coef)
        blocks.pop()

    place(0, 1)
    terms: Counter = Counter()
    for pairs, coef in by_quotient.items():
        terms[_shapes(pairs)] += coef
    return tuple((coef, shapes) for shapes, coef in terms.items() if coef)


@functools.lru_cache(maxsize=None)
def _shapes(pairs: frozenset[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """The sorted degrees of each component of the simple graph ``pairs`` on 0..k-1, sorted."""
    degree = Counter(x for pair in pairs for x in pair)
    return tuple(sorted(tuple(sorted(degree[x] for x in comp)) for comp in components(len(degree), pairs)))


@functools.lru_cache(maxsize=None)
def _automorphisms(h: MultiGraphPattern) -> int:
    """|Aut(H)| of the support of ``h``, as its injective maps onto itself."""
    support = h.simple_support()
    return injective_homomorphisms(support, support)


def _host_invariants(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(d, s, t, w) of :class:`PatternCounts`, by the cheaper of two routes."""
    d = np.diff(g.offsets)
    if g.m == 0:
        return d, d, d, 0
    u, v = g.edge_arrays()
    s = (np.bincount(u, d[v], g.n) + np.bincount(v, d[u], g.n)).astype(np.int64)
    if g.n <= _SMALL_HOST:  # the blow-up of B = A, with no twin search
        a = g.adjacency_matrix(np.float32)
        return (d, s, *_quotient_invariants(np.arange(g.n), a, np.zeros(g.n, np.float32)))
    wedges = int(np.minimum(d[u], d[v]).sum())  # bounds the oriented wedges
    classes = min(round((_MATMUL_PER_WEDGE * wedges) ** (1 / 3)), _MAX_CLASSES)
    quotient = g.twin_quotient(np.float32 if g.n < 2**24 else np.float64, max_classes=classes)
    if quotient is not None:
        return (d, s, *_quotient_invariants(*quotient))
    return (d, s, *_wedge_invariants(g.n, d, u, v))


def _quotient_invariants(labels: np.ndarray, b: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, int]:
    """(t, w) of a blow-up: A = the blow-up of B, less the identity on clique classes.

    Two distinct vertices of classes i and j have codeg (B D B)[i, j] less
    B[i, j] for each of them on a clique class, where D holds the class
    sizes; a vertex of class i has n_j - [i = j] others in class j. Rows go
    in the blocks of ``rng.batches`` at 16 k entries a row. B D B is exact
    in float32 while n < 2^24: no entry or partial sum exceeds n.
    """
    sizes = np.bincount(labels)
    k = sizes.size
    triangles, w = np.zeros(k, np.int64), 0
    for rows in rng.batches(0, k, 16 * k):
        codeg = ((b[rows] * sizes.astype(b.dtype)) @ b - (q[rows, None] + q) * b[rows]).astype(np.int64)
        others = sizes - (rows[:, None] == np.arange(k))
        triangles[rows] = (b[rows] * others * codeg).sum(axis=1).astype(np.int64) // 2
        w += _exact_sum(np.repeat(sizes[rows], k), others.ravel(), codeg.ravel(), codeg.ravel())
    return triangles[labels], w


def _wedge_invariants(n: int, d: np.ndarray, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, int]:
    """(t, w) from the wedges x - y - z whose middle y and end z rank below the top x.

    Vertices are renamed by (degree, id) rank. The wedges joining x and z
    number cnt(x, z) = |{y < x : y ~ x, y ~ z}|; a four-cycle is one pair
    of them, at its top x and the vertex opposite. A triangle a < b < c is
    the two wedges c - a - b and c - b - a, so c gets cnt(c, z) for each
    neighbour z below it and z gets it twice (once as an end, and on the
    other wedge as the middle). Then w = sum d(d - 1) + 8 N(C4). Tops go in
    the blocks of ``rng.batches`` at 16 entries a wedge, so a block's few
    int64 temporaries stay small, and a block holds every wedge of its
    tops, so its counts are final.
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
