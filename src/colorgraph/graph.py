"""Simple undirected graphs: ``Graph``, its twin quotient, the family specs, text interchange and the cycle walk.

Vertices are the integers ``0 .. n-1``. A :class:`Graph` is its read-only
int64 arrays, so it is immutable and safe to share between threads:
``edges``, the pairs ``(u, v)`` with ``u < v`` sorted, and ``nbrs`` /
``offsets``, each vertex's sorted neighbours. ``Graph.twin_quotient`` gives
the host as the :class:`Blowup` of its twin classes, which the counting
kernels, the census and the spectrum read.

Each family spec is a ``Params`` dataclass that checks its fields when it is
made, through ``ranges``, and builds its own graph (``generate`` calls
``spec.build()``), by numpy index arithmetic or, for ``ErdosRenyi`` and
``Inhomogeneous``, by one independent-edge sampler on the family's ``rng``
stream. ``read_spec`` reads every ``name:arg:...`` string: family specs, and
the CLI's statistics. ``Params`` and ``FIELD_KINDS`` come from ``errors``, and
numpy and ``rng`` are ``errors.lazy`` handles, so a family spec is parsed
without them.

The cycle walk finds the cycles of each length in ``CYCLE_LENGTHS`` for
``census`` and ``cycle_list``, so ``simulate`` loads no ``census``. It is one
half-path join (Alon-Yuster-Zwick 1997): the simple paths of up to 4 edges
from each root that stay above it, built level by level in numpy, paired on
their end. Roots go in ``rng.batches`` blocks priced by their half-paths,
and pairs in blocks of their own; a walk raises ``SizeGateExceededError``
once its pairs pass ``_MAX_CYCLE_PAIRS``, counted before any is compared.

The text interchange format, which every CLI subcommand reads::

    n m
    u v        # one line per edge, 0-based, u < v, ascending; '#' lines ignored
"""
from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, fields
from typing import Collection, Iterable, Iterator, Union

from .errors import (
    FAMILY_GRAMMAR,
    FIELD_KINDS,
    DuplicateEdgeError,
    GenerationTimeoutError,
    InfeasibleSpecError,
    OutOfRangeError,
    Params,
    SelfLoopError,
    SizeGateExceededError,
    UnsupportedLengthError,
    lazy,
)

np, rng = lazy("numpy"), lazy("colorgraph.rng")

__all__ = [
    "Graph",
    "Blowup",
    "components",
    "basic_stats",
    "BasicStats",
    "CYCLE_LENGTHS",
    "cycle_list",
    "to_edge_list_text",
    "parse_edge_list_text",
    "Complete",
    "CompleteBipartite",
    "Star",
    "Path",
    "Cycle",
    "Hypercube",
    "ErdosRenyi",
    "Inhomogeneous",
    "RandomRegular",
    "GaltonWatson",
    "PathCycleGadget",
    "FamilySpec",
    "generate",
    "parse_family",
    "Params",
    "FIELD_KINDS",
    "read_spec",
]


class Graph:
    """Immutable simple undirected graph on vertices ``0 .. n-1``."""

    __slots__ = ("n", "edges", "nbrs", "offsets")

    def __init__(self, n: int, pairs: np.ndarray | Iterable[tuple[int, int]]):
        """The graph with the edges ``pairs``, an (m, 2) integer array or any iterable of integer pairs.

        The first bad pair in input order raises: a bool or float endpoint, one outside [0, n), a self-loop, a repeat."""
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
            raise OutOfRangeError(f"vertex count must be a nonnegative integer, got {n!r}")
        if isinstance(pairs, np.ndarray) and pairs.dtype.kind in "iu" and pairs.shape[1:] == (2,):
            ends, stop = pairs.astype(np.int64, copy=False), None
        else:
            pairs = list(pairs)
            ends, stop = _integer_pairs(n, pairs)
        lo, hi = np.minimum(*ends.T), np.maximum(*ends.T)
        bad = (lo < 0) | (hi >= n) | (lo == hi)
        first = int(bad.argmax()) if bad.any() else len(ends)  # the pairs before it are edges
        keys = lo[:first] * n + hi[:first]
        ordered = np.sort(keys)
        if np.any(ordered[1:] == ordered[:-1]):  # the first repeat: a stable sort keeps equal keys in input order
            order = np.argsort(keys, kind="stable")
            first = int(order[1:][keys[order[1:]] == keys[order[:-1]]].min())
        if first < len(ends):
            u, v = map(int, pairs[first])
            if lo[first] < 0 or hi[first] >= n:
                raise OutOfRangeError(f"edge ({u}, {v}) has an endpoint outside [0, {n})")
            if u == v:
                raise SelfLoopError(f"edge ({u}, {v}) is a self-loop")
            raise DuplicateEdgeError(f"edge ({u}, {v}) duplicates {min(u, v), max(u, v)}")
        if stop is not None:
            raise stop
        self.n, self.edges = n, np.column_stack(np.divmod(ordered, n))
        # the keys v·n + w of both orientations of every edge, sorted: vertex by vertex, its neighbours w ascending
        entries = np.sort(np.concatenate((ordered, self.edges[:, 1] * n + self.edges[:, 0])))
        self.nbrs, self.offsets = entries % n, np.searchsorted(entries, np.arange(n + 1) * n)
        for a in (self.edges, self.nbrs, self.offsets):
            a.setflags(write=False)

    # -- basic accessors ------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex sorted neighbor tuples; built per call, never cached."""
        nbrs, offsets = self.nbrs.tolist(), self.offsets.tolist()
        return tuple(tuple(nbrs[a:b]) for a, b in zip(offsets, offsets[1:]))

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(np.diff(self.offsets).tolist())

    def adjacency_matrix(self, dtype="float64") -> np.ndarray:
        """Dense 0/1 adjacency matrix in ``dtype``; built per call, never cached."""
        a = np.zeros((self.n, self.n), dtype=dtype)
        u, v = self.edge_arrays()
        a[u, v] = a[v, u] = 1
        return a

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint arrays (U, V) of shape (m,), the columns of ``edges``."""
        return self.edges[:, 0], self.edges[:, 1]

    def twin_quotient(self, max_classes: int) -> Blowup | None:
        """The graph as the blow-up of its twin classes, or None past ``max_classes``; built per call, never cached.

        Vertices with one open neighbourhood (false twins) form a class; of
        those left alone, vertices with one closed neighbourhood (true twins,
        a clique) form a class. A twin-free graph has k = n and B = A. B is
        float32 while n < 2^24, so every sum B h or B D B of class sizes, none
        above n, is exact in B's own type. The cap is required, since B has
        k^2 entries (pass ``self.n`` for any k), and it is met before B is built.
        Lists are grouped by a hash, the sum of their vertices' hash words, and
        checked exactly; a collision hashes again with the next salt.
        """
        offsets, nbrs, degree, vertices = self.offsets, self.nbrs, np.diff(self.offsets), np.arange(self.n)
        owner = np.repeat(vertices, degree)  # the vertex whose list holds each entry of nbrs
        for salt in itertools.count():  # a fresh hash after two distinct lists collide
            # a neighbourhood's hash: the sum of its vertices' hash words, mod 2^64
            weight = rng.words(salt, vertices)
            open_hash = np.add.reduceat(np.append(weight[nbrs], np.uint64(0)), offsets[:-1])
            open_hash[degree == 0] = 0  # reduceat reads an empty list as its next entry
            root = _first_equal(open_hash)
            # exact: a vertex that joins an earlier one has its list, entry by entry
            moved = (root != vertices)[owner]
            shift = (offsets[root] - offsets[:-1])[owner[moved]]
            if not (np.array_equal(degree[root], degree)
                    and np.array_equal(nbrs[moved], nbrs[np.flatnonzero(moved) + shift])):
                continue
            open_sizes = np.bincount(root, minlength=self.n)
            alone = np.flatnonzero(open_sizes == 1)
            # true twins of degree d form cliques of at most d + 1 vertices: a floor on k
            alone_by_degree = np.bincount(degree[alone])
            cliques = -(-alone_by_degree // np.arange(1, alone_by_degree.size + 1))  # ceil(count / (d + 1))
            if np.count_nonzero(open_sizes > 1) + cliques.sum() > max_classes:
                return None
            closed = alone[_first_equal(open_hash[alone] + weight[alone])]  # by the closed hash
            root[alone] = closed
            reps, labels = np.unique(root, return_inverse=True)
            k = reps.size
            if k > max_classes:  # a collision only merges classes
                return None
            rows = np.repeat(labels, degree)  # the class of each entry's owner
            lead = (root == vertices)[owner]  # the entries of the representatives' lists
            blowup = Blowup(labels, np.bincount(labels, minlength=k), np.zeros((k, k), _block_dtype(self.n)))
            blowup.blocks[rows[lead], labels[nbrs[lead]]] = 1
            if np.array_equal(closed, alone):
                return blowup
            # exact: the blow-up holds every edge and, having m edges too, is the graph
            sizes, linked = blowup.sizes, blowup.blocks != 0
            if (blowup.blocks[rows, labels[nbrs]].all()
                    and sizes @ linked @ sizes - sizes @ linked.diagonal() == 2 * self.m):
                return blowup

    def component_count(self) -> int:
        return len(components(self.n, self.edges.tolist()))

    def has_isolated_vertices(self) -> bool:
        return bool(np.any(self.offsets[1:] == self.offsets[:-1]))

    # -- value semantics --------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and np.array_equal(self.edges, other.edges)

    def __hash__(self):
        return hash((self.n, self.edges.tobytes()))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True, eq=False)
class Blowup:
    """A graph as the blow-up of a k x k 0/1 quotient B = ``blocks`` on classes of ``sizes`` vertices.

    Vertex v lies in class ``labels[v]``, classes numbered by their smallest vertex. Distinct u and v
    are adjacent iff B[labels[u], labels[v]] = 1, so the diagonal q of B flags the clique classes."""

    labels: np.ndarray
    sizes: np.ndarray
    blocks: np.ndarray

    @property
    def k(self) -> int:
        return self.sizes.size

    @classmethod
    def singletons(cls, g: Graph) -> Blowup:
        """g as the blow-up of its n one-vertex classes, labels 0..n-1 and B = A, with no twin search."""
        return cls(np.arange(g.n), np.ones(g.n, np.int64), g.adjacency_matrix(_block_dtype(g.n)))


def _block_dtype(n: int) -> type:
    """The float type of a quotient of an n-vertex host: float32 holds every integer up to 2^24."""
    return np.float32 if n < 2**24 else np.float64


def _integer_pairs(n: int, pairs: list) -> tuple[np.ndarray, Exception | None]:
    """The pairs before the first that is not two integers, as a (k, 2) int64 array, and that pair's error or None."""
    stop = None
    for t, pair in enumerate(pairs):
        try:
            u, v = pair
            if not (type(u) is int and type(v) is int
                    or all(isinstance(x, numbers.Integral) and not isinstance(x, bool) for x in (u, v))):
                raise OutOfRangeError(f"edge ({u!r}, {v!r}) has an endpoint that is not an integer")
        except (TypeError, ValueError, OutOfRangeError) as exc:  # raised once the pairs before it pass
            pairs, stop = pairs[:t], exc
            break
    try:
        return np.array(pairs, np.int64).reshape(-1, 2), stop
    except OverflowError:  # an integer beyond int64 lies outside [0, n) all the same
        return np.array(pairs, object).reshape(-1, 2).clip(-1, n).astype(np.int64), stop


def _first_equal(keys: np.ndarray) -> np.ndarray:
    """For each position, the first position holding an equal key."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first[inverse]


def components(n: int, pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Connected components of vertices 0..n-1 joined by ``pairs``, ascending lists ordered by their least vertex."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        parent[find(u)] = find(v)
    groups: dict[int, list[int]] = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    return list(groups.values())


@dataclass(frozen=True)
class BasicStats:
    n: int
    m: int
    degrees: tuple[int, ...]
    components: int


def basic_stats(g: Graph) -> BasicStats:
    """Vertex/edge counts, degree sequence, and component count."""
    return BasicStats(g.n, g.m, g.degrees, g.component_count())


# -- cycle walk -----------------------------------------------------------------

CYCLE_LENGTHS = range(3, 9)  # the cycle lengths counted and listed: 3..8
_MAX_CYCLE_ENTRIES = 128_000_000  # 64 rng.BATCH_ENTRIES, 1 GiB of int64; cycle_list peaks at its blocks + one hstack
_MAX_CYCLE_PAIRS = 10**8  # path pairs one cycle walk compares: complete:16 has 8.0e7 over lengths 3..8


def _cycle_blocks(g: Graph, lengths: Collection[int]) -> Iterator[tuple[int, np.ndarray]]:
    """(length, cycles) blocks that hold each unlabeled cycle of each length once, one column each.

    The cycle (r, x1, ..., x_{L-1}) with r its least vertex and x1 < x_{L-1}
    is met once, as the paths P = (r, x1, ..., x_a) and Q = (r, x_{L-1}, ...,
    x_a) of ceil(L/2) and floor(L/2) edges above r with disjoint interiors;
    its column is P, then Q's interior reversed. A length that is not an
    integer of ``CYCLE_LENGTHS`` raises UnsupportedLengthError.
    """
    for length in lengths:
        if not (isinstance(length, numbers.Integral) and length in CYCLE_LENGTHS):
            raise UnsupportedLengthError(f"cycle length must be in [3, 8], got {length}")
    depth = max(((length + 1) // 2 for length in lengths), default=0)
    pairs = 0
    for roots in _root_blocks(g, depth):  # P and Q share their root, so root blocks split the work
        levels = _half_paths(g, roots, depth)
        closing = [(length, *_closed_pairs(g, *levels[(length + 1) // 2 - 1], *levels[length // 2 - 1]))
                   for length in lengths]
        pairs += sum(count for _, count, _ in closing)
        if pairs > _MAX_CYCLE_PAIRS:
            raise SizeGateExceededError(f"the cycle walk compares more than {_MAX_CYCLE_PAIRS} path pairs")
        yield from ((length, cycles) for length, _, blocks in closing for cycles in blocks)


def _root_blocks(g: Graph, depth: int) -> list[np.ndarray]:
    """The ``rng.batches`` blocks of roots, each priced at depth + 5 entries per non-backtracking walk up from it.

    Those walks bound its half-paths, so a block holds about ``rng.BATCH_ENTRIES`` entries or fewer, or one root.
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
    """Per k in 1..depth, the simple paths (r, x1, ..., xk) from ``roots`` with every xi > r, one per column, by key.

    A path's key is its end times 2m plus the index in ``g.nbrs`` of its arc r -> x1: by end, then root, then x1.
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


def _closed_pairs(g: Graph, p: np.ndarray, p_key: np.ndarray, q: np.ndarray, q_key: np.ndarray) -> tuple[int, Iterator]:
    """The number of path pairs (P of ``p``, Q of ``q``) to compare, and the cycles they close, one column each.

    The Qs of a P share its end and root and have Q[1] > P[1]: a range of the keys, counted before any pair is compared.
    Pairs go in ``rng.batches`` blocks at 3 index arrays, a mask and a cycle each.
    """
    a, b = len(p) - 1, len(q) - 1
    lo = np.searchsorted(q_key, p_key, side="right")
    hi = np.searchsorted(q_key, p_key - p_key % g.nbrs.size + g.offsets[p[0] + 1])  # past the root's arcs
    ends = np.cumsum(hi - lo)
    total = int(ends[-1]) if ends.size else 0

    def cycles() -> Iterator[np.ndarray]:
        for idx in rng.batches(0, total, a + b + 5):
            left = np.searchsorted(ends, idx, side="right")
            right = idx - ends[left] + hi[left]
            ok = np.ones(idx.size, bool)
            for i, j in itertools.product(range(1, a), range(1, b)):
                ok &= p[i, left] != q[j, right]
            yield np.concatenate((p[:, left[ok]], q[b - 1:0:-1, right[ok]]))

    return total, cycles()


def cycle_list(g: Graph, length: int) -> np.ndarray:
    """All unlabeled cycles of ``length`` (in ``CYCLE_LENGTHS``) as an int64 (cycles, length) array in walk order.

    A row is (r, x1, ..., x_{L-1}) with r the cycle's least vertex and x1 < x_{L-1}. SizeGateExceededError,
    before more is built, once the cycles pass ``_MAX_CYCLE_ENTRIES`` vertex entries.
    """
    blocks, entries = [], 0
    for _, block in _cycle_blocks(g, (length,)):
        entries += block.size
        if entries > _MAX_CYCLE_ENTRIES:
            raise SizeGateExceededError(f"the cycles of length {length} hold more than {_MAX_CYCLE_ENTRIES} entries")
        blocks.append(block)
    return np.hstack(blocks).T


# -- text interchange ---------------------------------------------------------


def to_edge_list_text(g: Graph) -> str:
    """The edge-list document of ``g``: the header ``n m``, then one ``u v`` line per edge."""
    return "".join(f"{u} {v}\n" for u, v in [(g.n, g.m), *g.edges.tolist()])


def parse_edge_list_text(text: str) -> Graph:
    """The graph of an edge-list document, the header and then one edge per line.

    A document of plain lines is read in one numpy pass; any other is read
    line by line, and a ValueError names its header or its first bad line.
    """
    pairs = _plain_pairs(text)
    if pairs is not None and len(pairs) - 1 == pairs[0, 1]:
        return Graph(int(pairs[0, 0]), pairs[1:])
    rows = [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]
    if not rows:
        raise ValueError("empty edge-list document")
    n, m = _int_pair(rows[0], "header must be 'n m', got {!r}")
    if len(rows) - 1 != m:
        raise ValueError(f"header declares {m} edges but {len(rows) - 1} lines follow")
    return Graph(n, [_int_pair(ln, "bad edge line {!r}") for ln in rows[1:]])


def _plain_pairs(text: str) -> np.ndarray | None:
    """The numbers of ``text`` as an int64 (lines, 2) array, or None unless every line is blank or two numbers.

    A number has at most 18 ASCII digits, and nothing but digits, blanks and line breaks may appear.
    """
    codes = np.frombuffer(text.encode("ascii", "replace"), np.uint8)  # any other character reads as "?"
    digit, brk = (codes >= 48) & (codes <= 57), (codes >= 10) & (codes <= 13)  # 0-9; \n \v \f \r
    starts, stops = np.flatnonzero(np.diff(digit, prepend=False, append=False)).reshape(-1, 2).T
    per_line = np.bincount(np.searchsorted(np.flatnonzero(brk), starts))  # the numbers on each line
    plain = np.all(digit | brk | (codes == 32) | (codes == 9)) and np.all(stops - starts <= 18)
    if not (plain and starts.size and np.all(per_line[per_line > 0] == 2)):
        return None
    return np.fromstring(text, np.int64, sep=" ").reshape(-1, 2)


def _int_pair(line: str, error: str) -> tuple[int, int]:
    """The two integers of ``line``; ValueError ``error`` naming the line when it holds anything else."""
    try:
        u, v = map(int, line.split())
    except ValueError:
        raise ValueError(error.format(line)) from None
    return u, v


# -- family specifications ------------------------------------------------------


def _at_least(low: int) -> tuple:
    """The ``Params.ranges`` rule x >= low."""
    return lambda x: x >= low, f">= {low}"


def _is_kernel(k) -> bool:
    """Whether ``k`` is a square tuple grid of numbers in [0, 1], symmetric as ``np.allclose(k, k.T, atol=1e-12)``."""
    return (isinstance(k, tuple) and all(FIELD_KINDS["tuple[float, ...]"].fits(row) and len(row) == len(k) for row in k)
            and all(0 <= x <= 1 for row in k for x in row) and np.allclose(k, np.transpose(k), atol=1e-12))


@dataclass(frozen=True)
class Complete(Params):
    n: int
    ranges = {"n": _at_least(0)}

    def build(self) -> Graph:
        return Graph(self.n, np.column_stack(np.triu_indices(self.n, k=1)))


@dataclass(frozen=True)
class CompleteBipartite(Params):
    a: int
    b: int
    ranges = {"a": _at_least(0), "b": _at_least(0)}

    def build(self) -> Graph:
        return Graph(self.a + self.b, np.indices((self.a, self.b)).reshape(2, -1).T + (0, self.a))


@dataclass(frozen=True)
class Star(Params):
    """K_{1,leaves}: one center (vertex 0) plus ``leaves`` leaves."""

    leaves: int
    ranges = {"leaves": _at_least(0)}

    def build(self) -> Graph:
        return Graph(self.leaves + 1, np.arange(1, self.leaves + 1)[:, None] * (0, 1))


@dataclass(frozen=True)
class Path(Params):
    """Path with ``edges`` edges on ``edges + 1`` vertices."""

    edges: int
    ranges = {"edges": _at_least(0)}

    def build(self) -> Graph:
        return Graph(self.edges + 1, np.arange(self.edges)[:, None] + (0, 1))


@dataclass(frozen=True)
class Cycle(Params):
    length: int
    ranges = {"length": _at_least(3)}

    def build(self) -> Graph:
        return Graph(self.length, (np.arange(self.length)[:, None] + (0, 1)) % self.length)


@dataclass(frozen=True)
class Hypercube(Params):
    """Hamming cube on 2**dim vertices; (dim)-regular."""

    dim: int
    ranges = {"dim": _at_least(0)}

    def build(self) -> Graph:
        x, bit = np.nonzero(~np.arange(1 << self.dim)[:, None] & (1 << np.arange(self.dim)))
        return Graph(1 << self.dim, np.column_stack((x, x | (1 << bit))))  # x joins x + 2^b for each bit b clear in x


@dataclass(frozen=True)
class ErdosRenyi(Params):
    n: int
    p: float
    seed: int
    ranges = {"n": _at_least(0), "p": (lambda p: 0 <= p <= 1, "in [0, 1]")}

    def build(self) -> Graph:
        return _independent_edges(self.n, self.seed, rng.STREAM_ER, self.p)


@dataclass(frozen=True)
class Inhomogeneous(Params):
    """Independent edges, edge (i, j) with probability ``kernel[i][j]`` of a symmetric grid with entries in [0, 1]."""

    n: int
    kernel: tuple[tuple[float, ...], ...]
    seed: int
    ranges = {"n": _at_least(0), "kernel": (_is_kernel, "a symmetric square grid of numbers in [0, 1]")}

    def build(self) -> Graph:
        if len(self.kernel) != self.n:
            raise InfeasibleSpecError(f"kernel grid must be {self.n}x{self.n}, got {len(self.kernel)} rows")
        k = np.asarray(self.kernel, dtype=np.float64).reshape(self.n, self.n)
        return _independent_edges(self.n, self.seed, rng.STREAM_INHOM, k)


_REGULAR_RETRY_CAP = 1000


@dataclass(frozen=True)
class RandomRegular(Params):
    n: int
    d: int
    seed: int
    ranges = {"n": _at_least(0), "d": _at_least(0)}

    def build(self) -> Graph:
        n, d = self.n, self.d
        if d >= max(n, 1) or (n * d) % 2 != 0:
            raise InfeasibleSpecError(f"random regular graph needs n*d even and d < n, got n={n}, d={d}")
        points = n * d
        for attempt in range(_REGULAR_RETRY_CAP):
            perm = rng.permutation(self.seed, points, rng.STREAM_REGULAR, attempt)
            left = perm[0::2] // d
            right = perm[1::2] // d
            if np.any(left == right):
                continue
            keys = np.sort(np.minimum(left, right) * n + np.maximum(left, right))
            if np.any(keys[1:] == keys[:-1]):  # a multi-edge
                continue
            return Graph(n, np.column_stack(np.divmod(keys, n)))
        raise GenerationTimeoutError(f"pairing model rejected {_REGULAR_RETRY_CAP} attempts for n={n}, d={d}")


@dataclass(frozen=True)
class GaltonWatson(Params):
    """Branching-process tree of all individuals born by ``height``, from the finite offspring pmf (p_0, ..., p_K)."""

    offspring: tuple[float, ...]
    height: int
    seed: int
    ranges = {"offspring": (lambda p: len(p) > 0 and min(p) >= 0 and abs(sum(p) - 1) <= 1e-9,
                            "a nonempty, nonnegative pmf that sums to 1"),
              "height": _at_least(0)}

    def build(self) -> Graph:
        cdf = np.cumsum(self.offspring, dtype=np.float64)
        cdf[-1] = 1.0
        parents, frontier, n = [np.zeros(0, np.int64)], np.zeros(1, np.int64), 1
        while frontier.size and len(parents) <= self.height:  # a level a pass; children numbered on in order
            kids = np.searchsorted(cdf, rng.uniforms(self.seed, rng.STREAM_GW, frontier), side="right")
            parents.append(np.repeat(frontier, kids))
            frontier = n + np.arange(kids.sum())
            n += frontier.size
        return Graph(n, np.column_stack((np.concatenate(parents), np.arange(1, n))))  # vertex i > 0 is a child of parents[i - 1]


@dataclass(frozen=True)
class PathCycleGadget(Params):
    """Path of length ``a`` whose every edge carries ``b`` g-cycles, each through ``g - 2`` fresh vertices.

    So the graph has ``a*b*(g-2) + a + 1`` vertices, ``a*b*(g-1) + a`` edges and ``a*b`` cycles of length ``g``.
    """

    a: int
    b: int
    g: int
    ranges = {"a": _at_least(1), "b": _at_least(1), "g": _at_least(3)}

    def build(self) -> Graph:
        a, b, g = self.a, self.b, self.g
        # cycle i*b + j runs i, its g - 2 interior vertices from a + 1 + (i*b + j)*(g - 2) on, i + 1
        cycles = a * b
        edge = np.arange(cycles) // b
        chain = np.column_stack((edge, a + 1 + np.arange(cycles * (g - 2)).reshape(cycles, g - 2), edge + 1))
        return Graph(a + 1 + cycles * (g - 2), np.column_stack((np.append(np.arange(a), chain[:, :-1]),
                                                                np.append(np.arange(1, a + 1), chain[:, 1:]))))


def _independent_edges(n: int, seed: int, stream: int, p: float | np.ndarray) -> Graph:
    """Each pair i < j an edge on its own, kept when its uniform on ``stream`` is below p or grid entry p[i, j].

    Rows i go in ``rng.batches`` blocks of their n - 1 - i pairs, so no block holds all C(n, 2) uniforms.
    """
    kept = []
    for rows in rng.batches(0, n, np.arange(n - 1, -1, -1)):
        counts = n - 1 - rows
        iu = np.repeat(rows, counts)
        jv = np.arange(iu.size) + np.repeat(n - np.cumsum(counts), counts)  # i + 1 .. n - 1 on row i
        keep = rng.uniforms(seed, stream, iu, jv) < (p[iu, jv] if np.ndim(p) else p)
        kept.append(np.column_stack((iu[keep], jv[keep])))
    return Graph(n, np.concatenate(kept))


# each family spec builds its own graph with ``build()``
FamilySpec = Union[Complete, CompleteBipartite, Star, Path, Cycle, Hypercube, ErdosRenyi, Inhomogeneous,
                   RandomRegular, GaltonWatson, PathCycleGadget]


def generate(spec: FamilySpec) -> Graph:
    """Build the graph for ``spec``; deterministic for a fixed spec and seed."""
    if not isinstance(spec, FamilySpec):
        raise InfeasibleSpecError(f"unknown family spec {spec!r}")
    return spec.build()


# -- family mini-grammar -------------------------------------------------------

_FAMILIES = {"complete": Complete, "bipartite": CompleteBipartite, "star": Star, "path": Path,
             "cycle": Cycle, "hypercube": Hypercube, "er": ErdosRenyi, "regular": RandomRegular,
             "gw": GaltonWatson, "gadget": PathCycleGadget}


def read_spec(text: str, kinds: dict[str, type], noun: str, grammar: str):
    """The dataclass ``kinds[name](arg, ...)`` that the string ``name:arg:...`` names; the name is case-insensitive.

    The fields give the arity, and each field's ``FIELD_KINDS`` entry how its
    argument reads (a ``seed`` field also reads ``seed7``). ValueError
    ``unknown <noun>`` for a name not in ``kinds``, ``bad <noun> spec`` for arguments that do not fit.
    """
    name, *args = text.strip().split(":")
    cls = kinds.get(name.lower())
    if cls is None:
        raise ValueError(f"unknown {noun} {name!r}; expected one of: {grammar}")
    params = fields(cls)
    try:
        if len(args) != len(params):
            raise ValueError(f"expected {len(params)} arguments, got {len(args)}")
        return cls(*(_read_arg(arg, f) for arg, f in zip(args, params)))
    except ValueError as exc:
        raise ValueError(f"bad {noun} spec {text!r}: {exc}") from exc


def _read_arg(text: str, field):
    return FIELD_KINDS[field.type].read(text.removeprefix("seed") if field.name == "seed" else text)


def parse_family(text: str) -> FamilySpec:
    """The family spec that ``name:arg:...`` names, in the grammar of ``FAMILY_GRAMMAR``."""
    return read_spec(text, _FAMILIES, "family", FAMILY_GRAMMAR)
