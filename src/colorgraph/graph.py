"""Simple undirected graphs: validation, family generators, text interchange.

Vertices are the contiguous integers ``0 .. n-1``. A :class:`Graph` is its
read-only int64 arrays, so immutable and safe to share between threads:
``edges``, the pairs ``(u, v)`` with ``u < v`` sorted, and ``nbrs`` /
``offsets``, each vertex's sorted neighbours.

The text interchange format (used by every CLI subcommand) is::

    n m
    u v        # one line per edge, 0-based, u < v, ascending
    ...

Lines beginning with ``#`` are ignored.
"""
from __future__ import annotations

import itertools
import numbers
from collections import namedtuple
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Union

import numpy as np

from . import rng
from .errors import (
    FAMILY_GRAMMAR,
    DuplicateEdgeError,
    GenerationTimeoutError,
    InfeasibleSpecError,
    OutOfRangeError,
    SelfLoopError,
)

__all__ = [
    "Graph",
    "Blowup",
    "components",
    "basic_stats",
    "BasicStats",
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
        if n < 0:
            raise OutOfRangeError(f"vertex count must be nonnegative, got {n}")
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

    def adjacency_matrix(self, dtype=np.float64) -> np.ndarray:
        """Dense 0/1 adjacency matrix in ``dtype``; built per call, never cached."""
        a = np.zeros((self.n, self.n), dtype=dtype)
        u, v = self.edge_arrays()
        a[u, v] = a[v, u] = 1
        return a

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint arrays (U, V) of shape (m,), the columns of ``edges``."""
        return self.edges[:, 0], self.edges[:, 1]

    def twin_quotient(self, max_classes: int) -> Blowup | None:
        """The graph as a blow-up of its twin classes; built per call, never cached.

        Vertices with one open neighbourhood (false twins, pairwise
        nonadjacent) form a class; of the vertices left alone, those with one
        closed neighbourhood (true twins, a clique) form a class. No vertex
        has twins of both kinds. Returns the :class:`Blowup` of these classes;
        a twin-free graph has k = n, labels 0..n-1 and B = A. B is float32
        while n < 2^24 and float64 from there on, so every sum B h or B D B of
        class sizes, none above n, is exact in B's own type. None when there
        are more than ``max_classes`` classes, found before B is built and, on
        sparse twin-free hosts, before the closed neighbourhoods are grouped.
        The cap is required, since B has k^2 entries: pass ``self.n`` for any k.

        Lists are grouped in numpy by a hash, the sum of their vertices' hash
        words mod 2^64 (plus the vertex's own word for a closed list), and
        each grouping is then checked exactly: the open one entry by entry,
        the closed one by the blow-up reproducing every edge. On a collision
        the next salt's words hash again, so the result never depends on luck.
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
    are adjacent iff B[labels[u], labels[v]] = 1; the diagonal q of B flags the clique classes."""

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
    """Connected components of vertices 0..n-1 joined by ``pairs``, by union-find.

    Each component is an ascending vertex list; components are ordered by
    their smallest vertex. A vertex in no pair is a component of its own.
    """
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


# -- text interchange ---------------------------------------------------------


def to_edge_list_text(g: Graph) -> str:
    return "".join(f"{u} {v}\n" for u, v in [(g.n, g.m), *g.edges.tolist()])


def parse_edge_list_text(text: str) -> Graph:
    rows = [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]
    if not rows:
        raise ValueError("empty edge-list document")
    n, m = _int_pair(rows[0], "header must be 'n m', got {!r}")
    if len(rows) - 1 != m:
        raise ValueError(f"header declares {m} edges but {len(rows) - 1} lines follow")
    return Graph(n, [_int_pair(ln, "bad edge line {!r}") for ln in rows[1:]])


def _int_pair(line: str, error: str) -> tuple[int, int]:
    """The two integers of ``line``; ValueError ``error`` naming the line when it holds anything else."""
    try:
        u, v = map(int, line.split())
    except ValueError:
        raise ValueError(error.format(line)) from None
    return u, v


# -- parameter dataclasses and family specifications --------------------------


def _plain(cls: type) -> Callable[[object], bool]:
    """Whether a value is an instance of ``cls`` and neither a bool nor NaN."""
    return lambda x: isinstance(x, cls) and not isinstance(x, bool) and x == x  # NaN != NaN


_Kind = namedtuple("_Kind", "fits noun read")  # read: how a spec-string argument reads

# field annotation -> the kind of value it holds; annotations not listed are not checked
FIELD_KINDS = {
    "int": _Kind(_plain(numbers.Integral), "an integer", int),
    "float": _Kind(_plain(numbers.Real), "a number other than NaN", float),
    "tuple[float, ...]": _Kind(lambda x: isinstance(x, tuple) and all(map(_plain(numbers.Real), x)),
                               "a tuple of numbers other than NaN",
                               lambda text: tuple(float(v) for v in text.split(","))),
}


class Params:
    """Base of the frozen parameter dataclasses: each checks its fields when built.

    A field annotated with a kind of ``FIELD_KINDS`` must hold a value of that
    kind, and a field in ``ranges`` must then pass its (predicate, description)
    rule. Values are never converted; a failed check raises ValueError.
    """

    ranges: dict[str, tuple[Callable[[object], bool], str]] = {}

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            for fits, noun, *_ in filter(None, (FIELD_KINDS.get(f.type), self.ranges.get(f.name))):
                if not fits(value):
                    raise ValueError(f"{type(self).__name__}.{f.name} must be {noun}, got {value!r:.80}")


@dataclass(frozen=True)
class Complete(Params):
    n: int

    def build(self) -> Graph:
        if self.n < 0:
            raise InfeasibleSpecError("complete graph needs n >= 0")
        return Graph(self.n, np.column_stack(np.triu_indices(self.n, k=1)))


@dataclass(frozen=True)
class CompleteBipartite(Params):
    a: int
    b: int

    def build(self) -> Graph:
        if self.a < 0 or self.b < 0:
            raise InfeasibleSpecError("bipartite sides must be nonnegative")
        return Graph(self.a + self.b, np.indices((self.a, self.b)).reshape(2, -1).T + (0, self.a))


@dataclass(frozen=True)
class Star(Params):
    """K_{1,leaves}: one center (vertex 0) plus ``leaves`` leaves."""

    leaves: int

    def build(self) -> Graph:
        if self.leaves < 0:
            raise InfeasibleSpecError("star needs a nonnegative leaf count")
        return Graph(self.leaves + 1, np.arange(1, self.leaves + 1)[:, None] * (0, 1))


@dataclass(frozen=True)
class Path(Params):
    """Path with ``edges`` edges on ``edges + 1`` vertices."""

    edges: int

    def build(self) -> Graph:
        if self.edges < 0:
            raise InfeasibleSpecError("path needs a nonnegative edge count")
        return Graph(self.edges + 1, np.arange(self.edges)[:, None] + (0, 1))


@dataclass(frozen=True)
class Cycle(Params):
    length: int

    def build(self) -> Graph:
        if self.length < 3:
            raise InfeasibleSpecError("cycle length must be at least 3")
        return Graph(self.length, (np.arange(self.length)[:, None] + (0, 1)) % self.length)


@dataclass(frozen=True)
class Hypercube(Params):
    """Hamming cube on 2**dim vertices; (dim)-regular."""

    dim: int

    def build(self) -> Graph:
        if self.dim < 0:
            raise InfeasibleSpecError("hypercube dimension must be nonnegative")
        x, bit = np.nonzero(~np.arange(1 << self.dim)[:, None] & (1 << np.arange(self.dim)))
        return Graph(1 << self.dim, np.column_stack((x, x | (1 << bit))))  # x joins x + 2^b for each bit b clear in x


@dataclass(frozen=True)
class ErdosRenyi(Params):
    n: int
    p: float
    seed: int

    def build(self) -> Graph:
        if self.n < 0 or not (0.0 <= self.p <= 1.0):
            raise InfeasibleSpecError("Erdos-Renyi needs n >= 0 and p in [0, 1]")
        return _independent_edges(self.n, self.seed, rng.STREAM_ER, self.p)


@dataclass(frozen=True)
class Inhomogeneous(Params):
    """Independent edges with per-pair probabilities from an explicit grid.

    ``kernel[i][j]`` is the probability of edge (i, j); the grid must be
    symmetric with entries in [0, 1]. The caller evaluates whatever kernel
    function produced it; the library never evaluates symbolic kernels.
    """

    n: int
    kernel: tuple[tuple[float, ...], ...]
    seed: int

    def build(self) -> Graph:
        k = np.asarray(self.kernel, dtype=np.float64)
        if k.shape != (self.n, self.n):
            raise InfeasibleSpecError(f"kernel grid must be {self.n}x{self.n}, got {k.shape}")
        if np.any(k < 0) or np.any(k > 1):
            raise InfeasibleSpecError("kernel entries must lie in [0, 1]")
        if not np.allclose(k, k.T, atol=1e-12):
            raise InfeasibleSpecError("kernel grid must be symmetric")
        return _independent_edges(self.n, self.seed, rng.STREAM_INHOM, k)


_REGULAR_RETRY_CAP = 1000


@dataclass(frozen=True)
class RandomRegular(Params):
    n: int
    d: int
    seed: int

    def build(self) -> Graph:
        n, d = self.n, self.d
        if n < 0 or d < 0 or d >= max(n, 1) or (n * d) % 2 != 0:
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
        raise GenerationTimeoutError(
            f"pairing model rejected {_REGULAR_RETRY_CAP} attempts for n={n}, d={d}"
        )


@dataclass(frozen=True)
class GaltonWatson(Params):
    """Branching-process tree of all individuals born by ``height``.

    ``offspring`` is the finite offspring pmf (p_0, ..., p_K); mass beyond
    the last entry is not allowed. The tree may stay small or die out.
    """

    offspring: tuple[float, ...]
    height: int
    seed: int

    def build(self) -> Graph:
        pmf = np.asarray(self.offspring, dtype=np.float64)
        if pmf.size == 0 or np.any(pmf < 0):
            raise InfeasibleSpecError("offspring pmf must be a nonempty nonnegative vector")
        if abs(float(pmf.sum()) - 1.0) > 1e-9:
            raise InfeasibleSpecError(f"offspring pmf must sum to 1, got {pmf.sum()!r}")
        if self.height < 0:
            raise InfeasibleSpecError("height must be nonnegative")
        cdf = np.cumsum(pmf)
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
    """Path of length ``a`` with ``b`` cycles of length ``g`` across each path edge.

    Every path edge (v_i, v_{i+1}) carries ``b`` cycles, each closed through
    its own ``g - 2`` fresh interior vertices, so the graph has
    ``a*b*(g-2) + a + 1`` vertices, ``a*b*(g-1) + a`` edges, and ``a*b``
    cycles of length ``g``.
    """

    a: int
    b: int
    g: int

    def build(self) -> Graph:
        a, b, g = self.a, self.b, self.g
        if a < 1 or b < 1 or g < 3:
            raise InfeasibleSpecError("gadget needs a >= 1, b >= 1, g >= 3")
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


def mean_offspring(spec: GaltonWatson) -> float:
    """Mean of the offspring pmf (used by the CLI to warn on subcritical trees)."""
    return float(sum(k * p for k, p in enumerate(spec.offspring)))


# -- family mini-grammar -------------------------------------------------------

_FAMILIES = {"complete": Complete, "bipartite": CompleteBipartite, "star": Star, "path": Path,
             "cycle": Cycle, "hypercube": Hypercube, "er": ErdosRenyi, "regular": RandomRegular,
             "gw": GaltonWatson, "gadget": PathCycleGadget}


def read_spec(text: str, kinds: dict[str, type], noun: str, grammar: str):
    """The dataclass ``kinds[name](arg, ...)`` that the string ``name:arg:...`` names.

    The name is case-insensitive. The dataclass fields give the arity, and
    the ``FIELD_KINDS`` entry of each field's annotation how its argument
    reads: an int (a ``seed`` field also reads ``seed7``), a float, or a
    comma list of floats for a tuple. ValueError ``unknown <noun>`` for a
    name not in ``kinds``, ``bad <noun> spec`` for arguments that do not
    fit the fields.
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
