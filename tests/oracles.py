"""Independent brute-force oracles used to fix expected test values.

Everything here is deliberately naive (subset scans, permutation searches,
occupancy sums) and shares no machinery with the library paths it checks.
"""
from __future__ import annotations

import bisect
import itertools
import math
import numbers
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from colorgraph import rng
from colorgraph.census import MultiGraphPattern, _refine_classes
from colorgraph.errors import DuplicateEdgeError, OutOfRangeError, SelfLoopError
from colorgraph.graph import Blowup, Graph, components


def edge_pairs(g: Graph) -> list[tuple[int, int]]:
    """The rows of ``g.edges`` as (u, v) tuples of Python ints, in their sorted order."""
    return list(map(tuple, g.edges.tolist()))


def graphs_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism by permutation search (small graphs only)."""
    if g1.n != g2.n or g1.m != g2.m:
        return False
    if sorted(g1.degrees) != sorted(g2.degrees):
        return False
    e2 = set(edge_pairs(g2))
    for perm in itertools.permutations(range(g1.n)):
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in e2 for u, v in edge_pairs(g1)):
            return True
    return False


def permutation_canonical_rep(nv: int, mult: dict[tuple[int, int], int]) -> tuple[tuple[int, int, int], ...]:
    """The least sorted edge representation over every relabeling that keeps census's refinement classes in order."""
    best = None
    for perm_parts in itertools.product(*(itertools.permutations(c) for c in _refine_classes(nv, mult))):
        label = [0] * nv
        for i, x in enumerate(itertools.chain.from_iterable(perm_parts)):
            label[x] = i
        rep = tuple(sorted((min(label[u], label[v]), max(label[u], label[v]), k) for (u, v), k in mult.items()))
        if best is None or rep < best:
            best = rep
    return best


def brute_cycles(g: Graph, length: int) -> list[tuple[int, ...]]:
    """Cycles of a given length, one vertex sequence each, by vertex-subset enumeration."""
    cycles, nbr = [], [set(a) for a in g.adjacency]
    for subset in itertools.combinations(range(g.n), length):
        first = subset[0]
        rest = subset[1:]
        for perm in itertools.permutations(rest):
            seq = (first,) + perm
            if seq[1] > seq[-1]:
                continue  # one direction per cycle
            ok = all(seq[i + 1] in nbr[seq[i]] for i in range(length - 1))
            if ok and first in nbr[seq[-1]]:
                cycles.append(seq)
    return cycles


def brute_count_cycles(g: Graph, length: int) -> int:
    """Cycles of a given length by vertex-subset enumeration."""
    return len(brute_cycles(g, length))


def dfs_cycles(g: Graph, length: int) -> list[tuple[int, ...]]:
    """Cycles of a given length by depth-first search, in the order the search meets them.

    Each cycle is visited once: rooted at its smallest vertex, with the
    direction fixed by path[1] < path[-1]. Roots and neighbours go in
    ascending order, so the cycles come out in lexicographic order.
    """
    adj, nbr = g.adjacency, [set(a) for a in g.adjacency]
    found: list[tuple[int, ...]] = []
    path = [0] * length
    on_path = bytearray(g.n)

    def extend(root: int, depth: int):
        last = path[depth - 1]
        if depth == length:
            if path[1] < last and root in nbr[last]:
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
    return found


def loop_mono_counts(g: Graph, colorings, kind: str, order: int = 0) -> list[int]:
    """A monochromatic statistic of each coloring by plain Python loops.

    ``kind`` is "edges", "stars" (r = ``order``: per vertex, C(#same-colored
    neighbours, r)) or "cycles" (length ``order``). Each coloring is a
    sequence of nonnegative ints; no numpy, no library kernel.
    """
    cycles = brute_cycles(g, order) if kind == "cycles" else []
    out = []
    for colors in colorings:
        if kind == "edges":
            out.append(sum(1 for u, v in edge_pairs(g) if colors[u] == colors[v]))
        elif kind == "stars":
            same = [0] * g.n
            for u, v in edge_pairs(g):
                if colors[u] == colors[v]:
                    same[u] += 1
                    same[v] += 1
            out.append(sum(math.comb(d, order) for d in same))
        else:
            out.append(sum(1 for cyc in cycles if len({colors[x] for x in cyc}) == 1))
    return out


# stream v1's constants, restated so that the references below run none of the library's hashing
_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_M1, _M2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_POS = (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0xD6E8FEB86659FD93, 0xA5A5A5A5A5A5A5A5 | 1)


def _mix_int(z: int) -> int:
    """The splitmix64 finalizer of one word, in Python ints."""
    z ^= z >> 30
    z = (z * _M1) & _MASK
    z ^= z >> 27
    z = (z * _M2) & _MASK
    return z ^ (z >> 31)


def words_reference(seed: int, *path) -> np.ndarray:
    """Stream v1's hash words of the broadcast ``path``, one element at a time in Python ints.

    h = mix(seed + golden), then h = mix(h ^ (i_j * pos_j)) for each step
    j, all mod 2^64, with pos_j = _POS[j % 5]. A uint64 array of the path's
    broadcast shape, 0-d for a path of scalars.
    """
    shape = np.broadcast_shapes(*(np.shape(ix) for ix in path))
    steps = [np.broadcast_to(ix, shape).ravel().tolist() for ix in path]
    out = []
    for values in zip(*steps) if steps else [()]:
        h = _mix_int((int(seed) + _GOLDEN) & _MASK)
        for j, i in enumerate(values):
            h = _mix_int(h ^ (int(i) * _POS[j % len(_POS)] & _MASK))
        out.append(h)
    return np.array(out, dtype=np.uint64).reshape(shape)


def uniform_ints_reference(seed: int, c: int, *path) -> np.ndarray:
    """Colors in [0, c) from ``words_reference`` by the original formula, as int64.

    min(floor(((w >> 11) * 2^-53) * c), c - 1): a 53-bit uniform, then two
    float multiplies and a clamp.
    """
    w = words_reference(seed, *path)
    u = (w >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return np.minimum(np.floor(u * c).astype(np.int64), c - 1)


def normals_reference(seed: int, *path) -> np.ndarray:
    """Box-Muller normals from two ``words_reference`` calls, one per trailing step 0 and 1.

    u1 = ((w0 >> 11) + 1/2) * 2^-53 lies in (0, 1), u2 = (w1 >> 11) * 2^-53
    in [0, 1); the normal is sqrt(-2 log u1) cos(2 pi u2).
    """
    u1 = ((words_reference(seed, *path, 0) >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    u2 = (words_reference(seed, *path, 1) >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)


def blow_up(blocks, clique, sizes) -> Graph:
    """The blow-up with sizes[i] vertices in block i, numbered block by block.

    Vertices of distinct blocks i and j are adjacent iff blocks[i][j] is 1;
    the vertices of block i form a clique if clique[i] is 1, else an
    independent set. Plain loops over vertex pairs.
    """
    owner = [i for i, size in enumerate(sizes) for _ in range(size)]
    pairs = []
    for u, v in itertools.combinations(range(len(owner)), 2):
        i, j = owner[u], owner[v]
        if (clique[i] if i == j else blocks[i][j]):
            pairs.append((u, v))
    return Graph(len(owner), pairs)


@st.composite
def blow_up_specs(draw, max_size: int = 5):
    """(blocks, clique, sizes) for ``blow_up``: 1-4 blocks of 1-``max_size`` vertices, clique and independent
    blocks mixed."""
    k = draw(st.integers(1, 4))
    blocks = [[0] * k for _ in range(k)]
    for i, j in itertools.combinations(range(k), 2):
        blocks[i][j] = blocks[j][i] = draw(st.integers(0, 1))
    clique = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
    sizes = draw(st.lists(st.integers(1, max_size), min_size=k, max_size=k))
    return blocks, clique, sizes


def brute_twin_classes(g: Graph) -> set[frozenset[int]]:
    """Classes of the relation N(u) - {v} = N(v) - {u}, by comparing every pair of vertices.

    The relation joins false twins (equal open neighbourhoods) and true
    twins (equal closed neighbourhoods); no vertex has twins of both kinds,
    so it is an equivalence.
    """
    classes, nbr = [], [set(a) for a in g.adjacency]
    for v in range(g.n):
        for cls in classes:
            u = next(iter(cls))
            if nbr[u] - {v} == nbr[v] - {u}:
                cls.add(v)
                break
        else:
            classes.append({v})
    return {frozenset(cls) for cls in classes}


def tuple_twin_quotient(g: Graph, dtype=np.float64, max_classes: int | None = None):
    """``Graph.twin_quotient`` as it was written on neighbourhood tuples: the oracle its
    numpy grouping must equal byte for byte.

    Vertices with one open neighbourhood tuple form a class, keyed by a dict;
    of the vertices left alone, those with one closed neighbourhood tuple
    (built per vertex) form a class. The degree floor on k and both None
    returns are as in the library.
    """
    adj = g.adjacency
    first_open: dict[tuple[int, ...], int] = {}
    root = np.array([first_open.setdefault(nbrs, v) for v, nbrs in enumerate(adj)], dtype=np.int64)
    sizes = np.bincount(root, minlength=g.n)
    alone = np.flatnonzero(sizes == 1)
    if max_classes is not None:
        alone_by_degree = np.bincount(np.fromiter(map(len, adj), np.int64, g.n)[alone])
        cliques = -(-alone_by_degree // np.arange(1, alone_by_degree.size + 1))
        if np.count_nonzero(sizes > 1) + cliques.sum() > max_classes:
            return None
    first_closed: dict[tuple[int, ...], int] = {}
    for v in alone.tolist():
        nbrs = adj[v]
        i = bisect.bisect(nbrs, v)
        root[v] = first_closed.setdefault(nbrs[:i] + (v,) + nbrs[i:], v)
    reps, labels = np.unique(root, return_inverse=True)
    k = reps.size
    if max_classes is not None and k > max_classes:
        return None
    rep_nbrs = [adj[r] for r in reps.tolist()]
    rows = np.repeat(np.arange(k), [len(nbrs) for nbrs in rep_nbrs])
    cols = labels[np.fromiter(itertools.chain.from_iterable(rep_nbrs), np.int64, rows.size)]
    quotient = np.zeros((k, k), dtype=dtype)
    quotient[rows, cols] = 1
    return Blowup(labels, np.bincount(labels, minlength=k), quotient)


def loop_graph_arrays(n: int, pairs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(edges, nbrs, offsets) of the graph on n vertices with ``pairs``, one Python tuple at a time.

    Each pair is checked in input order (integer endpoints, numpy integers
    read as ints, bools and floats refused; range; self-loop; a repeat of an
    earlier pair through a set), the canonical tuples are sorted, and each
    vertex's neighbour tuple is built and sorted on its own. Raises
    ``Graph``'s error classes and messages, naming the first bad pair.
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
        raise OutOfRangeError(f"vertex count must be a nonnegative integer, got {n!r}")
    canon, seen = [], set()
    for pair in pairs:
        u, v = pair
        if not all(isinstance(x, numbers.Integral) and not isinstance(x, bool) for x in (u, v)):
            raise OutOfRangeError(f"edge ({u!r}, {v!r}) has an endpoint that is not an integer")
        u, v = int(u), int(v)
        if not (0 <= u < n) or not (0 <= v < n):
            raise OutOfRangeError(f"edge ({u}, {v}) has an endpoint outside [0, {n})")
        if u == v:
            raise SelfLoopError(f"edge ({u}, {v}) is a self-loop")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise DuplicateEdgeError(f"edge ({u}, {v}) duplicates {e}")
        seen.add(e)
        canon.append(e)
    canon.sort()
    adj = [[] for _ in range(n)]
    for u, v in canon:
        adj[u].append(v)
        adj[v].append(u)
    adj = [sorted(a) for a in adj]
    offsets = np.cumsum([0] + [len(a) for a in adj], dtype=np.int64)
    return (np.array(canon, np.int64).reshape(-1, 2), np.array([x for a in adj for x in a], np.int64), offsets)


def loop_hypercube(dim: int) -> Graph:
    """Q_dim vertex by vertex: x joins x with one bit flipped, when that is larger."""
    n = 1 << dim
    return Graph(n, [(x, x ^ (1 << b)) for x in range(n) for b in range(dim) if x ^ (1 << b) > x])


def loop_galton_watson(offspring, height: int, seed: int) -> Graph:
    """The GW tree parent by parent: one scalar uniform per parent, children numbered as born."""
    cdf = np.cumsum(offspring)
    cdf[-1] = 1.0
    pairs, frontier, born = [], [0], 1
    for _ in range(height):
        next_frontier = []
        for parent in frontier:
            for _ in range(bisect.bisect_right(cdf.tolist(), float(rng.uniforms(seed, rng.STREAM_GW, parent)))):
                pairs.append((parent, born))
                next_frontier.append(born)
                born += 1
        frontier = next_frontier
    return Graph(born, pairs)


def loop_gadget(a: int, b: int, g: int) -> Graph:
    """The path-cycle gadget cycle by cycle: each closes through its own g - 2 fresh vertices."""
    pairs, fresh = [(i, i + 1) for i in range(a)], a + 1
    for i in range(a):
        for _ in range(b):
            chain = [i, *range(fresh, fresh + g - 2), i + 1]
            pairs += zip(chain, chain[1:])
            fresh += g - 2
    return Graph(fresh, pairs)


def brute_count_subgraph(g: Graph, h: Graph) -> int:
    """Edge subsets of g inducing a copy of h, checked by permutation search."""
    count = 0
    for subset in itertools.combinations(edge_pairs(g), h.m):
        verts = sorted({x for e in subset for x in e})
        if len(verts) != h.n:
            continue
        relabel = {v: i for i, v in enumerate(verts)}
        cand = Graph(h.n, [(relabel[u], relabel[v]) for u, v in subset])
        if graphs_isomorphic(cand, h):
            count += 1
    return count


def enumerate_multigraph_tuples(g: Graph, k: int) -> dict[MultiGraphPattern, int]:
    """Ordered edge k-tuples of g by multigraph class, walking each edge multiset once."""
    out: Counter = Counter()
    for combo in itertools.combinations_with_replacement(edge_pairs(g), k):
        orderings = math.factorial(k)
        for r in Counter(combo).values():
            orderings //= math.factorial(r)
        out[MultiGraphPattern.from_edges(combo)] += orderings
    return dict(out)


# the connected shapes of ``census._SHAPES``, by their sorted degrees
SHAPE_NAMES = {(1, 1): "K2", (1, 1, 2): "P3", (2, 2, 2): "K3", (1, 1, 2, 2): "P4", (1, 1, 1, 3): "K13",
               (2, 2, 2, 2): "C4", (1, 1, 2, 2, 2): "P5", (1, 1, 1, 1, 4): "K14", (1, 2, 2, 3): "paw",
               (1, 1, 1, 2, 3): "chair"}


def set_partitions(items: list) -> list[list[list]]:
    """Every partition of ``items`` into nonempty blocks."""
    if not items:
        return [[]]
    first, out = items[0], []
    for rest in set_partitions(items[1:]):
        out += [rest[:i] + [[first, *block]] + rest[i + 1:] for i, block in enumerate(rest)] + [[[first], *rest]]
    return out


def moebius_terms(edges: tuple[tuple[int, int], ...]) -> dict[str, int]:
    """inj(H, g) = sum of coef * prod over shapes of hom(shape, g), as {"shape shape ...": coef}.

    Moebius inversion of hom(H, g) = sum over the partitions P of V(H) into
    independent blocks of inj(H/P, g): P adds prod over its blocks of
    (-1)^(|B|-1) (|B|-1)! times the hom count of the simple quotient H/P,
    the product over its components, each named by its sorted degrees.
    """
    terms: Counter = Counter()
    for blocks in set_partitions(sorted({x for e in edges for x in e})):
        block_of = {x: i for i, block in enumerate(blocks) for x in block}
        if any(block_of[u] == block_of[v] for u, v in edges):
            continue
        quotient = {tuple(sorted((block_of[u], block_of[v]))) for u, v in edges}
        degree = Counter(x for e in quotient for x in e)
        shapes = sorted(SHAPE_NAMES[tuple(sorted(degree[x] for x in comp))]
                        for comp in components(len(blocks), quotient))
        terms[" ".join(shapes)] += math.prod((-1) ** (len(b) - 1) * math.factorial(len(b) - 1) for b in blocks)
    return {shapes: coef for shapes, coef in terms.items() if coef}


def pattern_tables(max_edges: int = 4) -> dict:
    """``census._SUPPORTS`` from first principles, for supports and tuples of at most ``max_edges`` edges.

    The supports are grown edge by edge from K2 and canonicalized by
    ``MultiGraphPattern``. Per support H: |Aut(H)| by permutation search, the
    Moebius terms of inj(H, g), and the classes of the k-tuples that cover H:
    a multiplicity vector (mu_e) on H's edges summing to k spans one class, as
    k! / prod mu_e! ordered tuples. Each class keeps H's labels, so it is
    keyed by its multiplicities in the order of H's edges.
    """
    level = {MultiGraphPattern.from_edges([(0, 1)])}
    supports = set(level)
    for _ in range(max_edges - 1):
        level = {MultiGraphPattern.from_edges([*pairs, new])
                 for pairs in ([(u, v) for u, v, _ in h.multi_edges] for h in level)
                 for new in itertools.combinations(range(max(map(max, pairs)) + 3), 2) if new not in pairs}
        supports |= level
    tables = {}
    for h in sorted(supports, key=lambda p: p.canonical_key):
        edges = tuple((u, v) for u, v, _ in h.multi_edges)
        classes: Counter = Counter()
        for k in range(len(edges), max_edges + 1):
            for mults in itertools.product(range(1, k + 1), repeat=len(edges)):
                if sum(mults) == k:
                    cls = MultiGraphPattern.from_edges([e for e, mu in zip(edges, mults) for _ in range(mu)])
                    assert tuple((u, v) for u, v, _ in cls.multi_edges) == edges, (h, mults)
                    classes[tuple(mu for *_, mu in cls.multi_edges)] += (
                        math.factorial(k) // math.prod(map(math.factorial, mults)))
        tables[edges] = (brute_automorphisms(Graph(h.vertex_count, edges)), moebius_terms(edges), dict(classes))
    return tables


def dense_eigenvalues(g: Graph) -> np.ndarray:
    """The adjacency spectrum, descending, by ``eigvalsh`` of the dense n x n matrix."""
    return np.sort(np.linalg.eigvalsh(g.adjacency_matrix(np.float64)))[::-1]


def trace_powers(g: Graph) -> tuple[int, int]:
    """Exact tr(A^3), tr(A^4) by float64 matmuls on the dense 0/1 matrix (entries stay below 2^53)."""
    a = g.adjacency_matrix(np.float64)
    a2 = a @ a
    return int(round(float((a2 * a).sum()))), int(round(float((a2 * a2).sum())))


def trace_cycle_counts(g: Graph) -> tuple[int, int]:
    """(N(g, K3), N(g, C4)): tr A^3 / 6 and (tr A^4 - 4 wedges - 2m) / 8."""
    tr3, tr4 = trace_powers(g) if g.n else (0, 0)
    wedges = sum(d * (d - 1) // 2 for d in g.degrees)
    four = tr4 - 4 * wedges - 2 * g.m
    assert tr3 % 6 == 0 and four % 8 == 0
    return tr3 // 6, four // 8


def brute_gamma(g: Graph) -> Fraction:
    """Maximum of sum(phi) over phi in {0, 1/2, 1}^V meeting the edge caps."""
    n = g.n
    best = Fraction(0)
    grid = np.array(list(itertools.product((0, 1, 2), repeat=n)), dtype=np.int8)
    ok = np.ones(len(grid), dtype=bool)
    for u, v in edge_pairs(g):
        ok &= grid[:, u] + grid[:, v] <= 2
    if ok.any():
        best = Fraction(int(grid[ok].sum(axis=1).max()), 2)
    return best


def brute_deficiency(g: Graph) -> int:
    """max over vertex subsets S of |S| - |N(S)|."""
    best = 0
    for mask in range(1 << g.n):
        s = [v for v in range(g.n) if mask >> v & 1]
        nbrs = set()
        for v in s:
            nbrs.update(g.adjacency[v])
        best = max(best, len(s) - len(nbrs))
    return best


def brute_max_matching(n_right: int, adj) -> int:
    """Maximum matching of the bipartite graph with left neighbour lists ``adj``, over every set of used right vertices."""
    best = {0: 0}  # used right vertices -> the largest matching of the left vertices so far that uses them
    for nbrs in adj:
        for used, size in list(best.items()):
            for v in nbrs:
                if not used >> v & 1 and best.get(used | 1 << v, -1) < size + 1:
                    best[used | 1 << v] = size + 1
    return max(best.values())


def brute_homomorphisms(h: Graph, g: Graph) -> int:
    """hom(h, g): every map V(h) -> V(g) that sends each edge of h to an edge of g, by full enumeration."""
    e = set(edge_pairs(g))
    return sum(all((min(f[u], f[v]), max(f[u], f[v])) in e for u, v in edge_pairs(h))
               for f in itertools.product(range(g.n), repeat=h.n))


def brute_automorphisms(g: Graph) -> int:
    count = 0
    e = set(edge_pairs(g))
    for perm in itertools.permutations(range(g.n)):
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in e for u, v in e):
            count += 1
    return count


def pmf_moment(pmf: dict, k: int) -> Fraction:
    """Exact k-th raw moment of a rational pmf."""
    return sum((Fraction(v) ** k) * p for v, p in pmf.items())


def pmf_central_standardized_moment(pmf: dict, k: int, center: Fraction, scale2: Fraction) -> Fraction:
    """E ((X - center)/sqrt(scale2))^k for even k, exactly."""
    assert k % 2 == 0
    total = sum((Fraction(v) - center) ** k * p for v, p in pmf.items())
    return total / scale2 ** (k // 2)


def complete_graph_mono_edge_pmf(n: int, c: int, jmax: int) -> dict[int, float]:
    """Exact law of the monochromatic edge count of the complete graph.

    Enumerates color-class size partitions: classes of size k contribute
    C(k, 2) monochromatic edges each. Values above jmax are dropped; the
    returned masses then sum to P(N <= jmax).
    """
    shapes: list[tuple[int, ...]] = []

    def rec(min_part: int, left: int, weight: int, parts: list[int]):
        shapes.append(tuple(parts))
        for k in range(min_part, left + 1):
            w = math.comb(k, 2)
            if weight + w > jmax:
                break
            parts.append(k)
            rec(k, left - k, weight + w, parts)
            parts.pop()

    rec(2, n, 0, [])
    pmf: dict[int, float] = defaultdict(float)
    for parts in shapes:
        s = sum(parts)
        singles = n - s
        classes = len(parts) + singles
        if classes > c:
            continue
        mult = Counter(parts)
        mult[1] += singles
        log_ways = math.lgamma(n + 1)
        log_ways -= sum(math.lgamma(k + 1) * v for k, v in mult.items())
        log_ways -= sum(math.lgamma(v + 1) for v in mult.values())
        log_colors = sum(math.log(c - i) for i in range(classes))
        value = sum(math.comb(k, 2) for k in parts)
        pmf[value] += math.exp(log_ways + log_colors - n * math.log(c))
    return dict(pmf)


def complete_two_color_lattice_law(n: int) -> dict[Fraction, Fraction]:
    """Exact law of the standardized 2-colored monochromatic edge count of K_n.

    With k vertices of the first color, N = C(k, 2) + C(n - k, 2) and
    (N - C(n, 2)/2) / n = (J^2 - n/4) / n with J = k - n/2, k ~ Binomial(n, 1/2).
    For even n the value at J = j >= 0 has mass 2 C(n, n/2 + j) / 2^n, or
    C(n, n/2) / 2^n at j = 0, the atom at -1/4. Returned in increasing order.
    """
    if n < 2 or n % 2:
        raise ValueError(f"need an even n >= 2, got {n}")
    half = n // 2
    return {
        Fraction(j * j, n) - Fraction(1, 4): Fraction(math.comb(n, half + j) * (1 if j == 0 else 2), 2**n)
        for j in range(half + 1)
    }


def gadget_mono_cycle_pmf(a: int, b: int, c: int, g: int, zmax: int) -> dict[int, float]:
    """Exact law of the monochromatic cycle count of the path-cycle gadget.

    Conditional on K monochromatic path edges the count is
    Binomial(b*K, c^{2-g}); K itself is Binomial(a, 1/c) because the path's
    edge indicators are independent.
    """
    q = float(c) ** (2 - g)
    pmf: dict[int, float] = defaultdict(float)
    for k in range(a + 1):
        pk = math.comb(a, k) * (1 / c) ** k * (1 - 1 / c) ** (a - k)
        mm = b * k
        for z in range(0, min(mm, zmax) + 1):
            pmf[z] += pk * math.comb(mm, z) * q**z * (1 - q) ** (mm - z)
    return dict(pmf)


def poisson_pmf_dict(mean: float, kmax: int) -> dict[int, float]:
    return {k: math.exp(-mean + k * math.log(mean) - math.lgamma(k + 1)) if mean > 0 else (1.0 if k == 0 else 0.0)
            for k in range(kmax + 1)}


def brute_two_sample_ks(a, b) -> float:
    """sup_x |F_a(x) - F_b(x)| over the union of both samples, each cdf counted point by point."""
    a, b = [float(x) for x in a], [float(x) for x in b]
    gap = 0.0
    for x in sorted(set(a) | set(b)):
        gap = max(gap, abs(sum(y <= x for y in a) / len(a) - sum(y <= x for y in b) / len(b)))
    return gap


def block_jackknife_moments_loop(samples, k_max: int, max_blocks: int = 10_000):
    """(raw, central, raw_se, central_se) of ``stats.empirical_moments``, one block at a time.

    Power sums per block by repeated multiplication, and every delete-one-block
    estimate recomputed from them with plain Python loops over orders.
    """
    x = np.asarray(samples, dtype=np.float64)
    n = x.size
    blocks = min(max_blocks, n)
    bounds = np.linspace(0, n, blocks + 1).astype(int)
    sums = np.empty((blocks, k_max + 1))
    for b in range(blocks):
        seg = x[bounds[b] : bounds[b + 1]]
        powers = np.ones_like(seg)
        sums[b, 0] = seg.size
        for k in range(1, k_max + 1):
            powers = powers * seg
            sums[b, k] = powers.sum()
    total = sums.sum(axis=0)

    def estimates(power_sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raw = power_sums[1:] / power_sums[0]
        central = np.empty(k_max)
        for k in range(1, k_max + 1):
            acc = 0.0
            for j in range(0, k + 1):
                rj = 1.0 if j == 0 else raw[j - 1]
                acc += math.comb(k, j) * rj * (-raw[0]) ** (k - j)
            central[k - 1] = acc
        return raw, central

    raw_full, central_full = estimates(total)
    jacks = [estimates(total - sums[b]) for b in range(blocks)]

    def jack_se(values: np.ndarray) -> tuple[float, ...]:
        spread = ((values - values.mean(axis=0)) ** 2).sum(axis=0)
        return tuple(np.sqrt((blocks - 1) / blocks * spread))

    return (tuple(raw_full), tuple(central_full),
            jack_se(np.array([r for r, _ in jacks])), jack_se(np.array([c for _, c in jacks])))


def exact_jackknife_moments(samples, k_max: int):
    """(raw, central, raw_se, central_se) of ``stats.empirical_moments`` in exact rationals, blocks of one sample.

    Holds while there are at most ``stats._MAX_BLOCKS`` samples. A
    delete-one replicate depends only on the value left out, so each
    distinct value's estimates are computed once and weighted by its count.
    Each output is the float nearest the exact value, the SEs the square
    root of the float nearest the exact jackknife variance.
    """
    counts = Counter(Fraction(float(x)) for x in samples)
    n = sum(counts.values())
    sums = [sum(f * v**k for v, f in counts.items()) for k in range(k_max + 1)]

    def estimates(power_sums: list) -> list:
        raw = [s / power_sums[0] for s in power_sums[1:]]
        central = [sum(math.comb(k, j) * (raw[j - 1] if j else 1) * (-raw[0]) ** (k - j) for j in range(k + 1))
                   for k in range(1, k_max + 1)]
        return raw + central

    jacks = {v: estimates([s - v**k for k, s in enumerate(sums)]) for v in counts}
    ses = []
    for i in range(2 * k_max):
        mean = sum(f * jacks[v][i] for v, f in counts.items()) / n
        ses.append(math.sqrt(Fraction(n - 1, n) * sum(f * (jacks[v][i] - mean) ** 2 for v, f in counts.items())))
    full = [float(x) for x in estimates(sums)]
    return tuple(full[:k_max]), tuple(full[k_max:]), tuple(ses[:k_max]), tuple(ses[k_max:])
