"""Simple undirected graphs: validation, family generators, text interchange.

Vertices are the contiguous integers ``0 .. n-1``. Edges are stored
canonically as a lexicographically sorted tuple of pairs ``(u, v)`` with
``u < v``; a :class:`Graph` is immutable after construction and safe to
share between threads.

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
    DuplicateEdgeError,
    GenerationTimeoutError,
    InfeasibleSpecError,
    OutOfRangeError,
    SelfLoopError,
)

__all__ = [
    "Graph",
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

    __slots__ = ("n", "edges", "_adj", "nbrs", "offsets")

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]]):
        if n < 0:
            raise OutOfRangeError(f"vertex count must be nonnegative, got {n}")
        canon = []
        seen = set()
        for pair in pairs:
            u, v = pair
            if type(u) is not int or type(v) is not int:  # numpy integers are read as ints; bools and floats are refused
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
        self.n = n
        self.edges = tuple(canon)
        adj = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = tuple(tuple(sorted(a)) for a in adj)
        # the same lists as read-only numpy arrays, v's neighbours nbrs[offsets[v]:offsets[v + 1]];
        # edge_arrays, the twin search, the census degrees and colorsim's star gather read them
        self.nbrs = np.fromiter(itertools.chain.from_iterable(self._adj), np.int64, 2 * self.m)
        self.offsets = np.concatenate(([0], np.cumsum(np.fromiter(map(len, self._adj), np.int64, n))))
        self.nbrs.setflags(write=False)
        self.offsets.setflags(write=False)

    # -- basic accessors ------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex sorted neighbor tuples."""
        return self._adj

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self._adj)

    def adjacency_matrix(self, dtype=np.float64) -> np.ndarray:
        """Dense 0/1 adjacency matrix in ``dtype``; built per call, never cached."""
        a = np.zeros((self.n, self.n), dtype=dtype)
        u, v = self.edge_arrays()
        a[u, v] = a[v, u] = 1
        return a

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint arrays (U, V) of shape (m,), for vectorized work; built per call, never cached."""
        owner = self._owners()
        keep = owner < self.nbrs
        return owner[keep], self.nbrs[keep]

    def _owners(self) -> np.ndarray:
        """The vertex whose neighbour list holds each entry of ``nbrs``."""
        return np.repeat(np.arange(self.n), np.diff(self.offsets))

    def twin_quotient(self, dtype=np.float64, max_classes: int | None = None):
        """The graph as a blow-up of its twin classes; built per call, never cached.

        Vertices with one open neighbourhood (false twins, pairwise
        nonadjacent) form a class; of the vertices left alone, those with one
        closed neighbourhood (true twins, a clique) form a class. No vertex
        has twins of both kinds. Returns ``(labels, B, q)``: the class of each
        vertex, classes numbered by their smallest vertex; the k x k 0/1
        quotient B in ``dtype``, with B[i, j] = 1 when classes i and j are
        joined and B[i, i] = 1 on a clique class; and the clique flags q, the
        diagonal of B. Distinct u and v are adjacent iff B[labels[u],
        labels[v]] = 1, and a twin-free graph has k = n, labels 0..n-1 and
        B = A. None when there are more than ``max_classes`` classes, found
        before B is built and, on sparse twin-free hosts, before the closed
        neighbourhoods are grouped.

        Lists are grouped in numpy by a hash, the sum of their vertices' hash
        words mod 2^64 (plus the vertex's own word for a closed list), and
        each grouping is then checked exactly: the open one entry by entry,
        the closed one by the blow-up reproducing every edge. On a collision
        the next salt's words hash again, so the result never depends on luck.
        """
        offsets, nbrs, owner = self.offsets, self.nbrs, self._owners()
        degree, vertices = np.diff(offsets), np.arange(self.n)
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
            sizes = np.bincount(root, minlength=self.n)
            alone = np.flatnonzero(sizes == 1)
            if max_classes is not None:
                # true twins of degree d form cliques of at most d + 1 vertices: a floor on k
                alone_by_degree = np.bincount(degree[alone])
                cliques = -(-alone_by_degree // np.arange(1, alone_by_degree.size + 1))  # ceil(count / (d + 1))
                if np.count_nonzero(sizes > 1) + cliques.sum() > max_classes:
                    return None
            closed = alone[_first_equal(open_hash[alone] + weight[alone])]  # by the closed hash
            root[alone] = closed
            reps, labels = np.unique(root, return_inverse=True)
            k = reps.size
            if max_classes is not None and k > max_classes:  # a collision only merges classes
                return None
            rows = np.repeat(labels, degree)  # the class of each entry's owner
            lead = (root == vertices)[owner]  # the entries of the representatives' lists
            quotient = np.zeros((k, k), dtype=dtype)
            quotient[rows[lead], labels[nbrs[lead]]] = 1
            clique = quotient.diagonal().copy()
            if np.array_equal(closed, alone):
                return labels, quotient, clique
            # exact: the blow-up holds every edge and, having m edges too, is the graph
            class_sizes = np.bincount(labels, minlength=k)
            if (quotient[rows, labels[nbrs]].all()
                    and class_sizes @ (quotient != 0) @ class_sizes - class_sizes @ (clique != 0) == 2 * self.m):
                return labels, quotient, clique

    def component_count(self) -> int:
        return len(components(self.n, self.edges))

    def has_isolated_vertices(self) -> bool:
        return any(len(a) == 0 for a in self._adj)

    # -- value semantics --------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


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
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_edge_list_text(text: str) -> Graph:
    rows = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in rows if ln and not ln.startswith("#")]
    if not rows:
        raise ValueError("empty edge-list document")
    head = rows[0].split()
    if len(head) != 2:
        raise ValueError(f"header must be 'n m', got {rows[0]!r}")
    n, m = int(head[0]), int(head[1])
    if len(rows) - 1 != m:
        raise ValueError(f"header declares {m} edges but {len(rows) - 1} lines follow")
    pairs = []
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        pairs.append((int(parts[0]), int(parts[1])))
    return Graph(n, pairs)


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
        return Graph(self.n, [(i, j) for i in range(self.n) for j in range(i + 1, self.n)])


@dataclass(frozen=True)
class CompleteBipartite(Params):
    a: int
    b: int

    def build(self) -> Graph:
        if self.a < 0 or self.b < 0:
            raise InfeasibleSpecError("bipartite sides must be nonnegative")
        return Graph(self.a + self.b, [(i, self.a + j) for i in range(self.a) for j in range(self.b)])


@dataclass(frozen=True)
class Star(Params):
    """K_{1,leaves}: one center (vertex 0) plus ``leaves`` leaves."""

    leaves: int

    def build(self) -> Graph:
        if self.leaves < 0:
            raise InfeasibleSpecError("star needs a nonnegative leaf count")
        return Graph(self.leaves + 1, [(0, i) for i in range(1, self.leaves + 1)])


@dataclass(frozen=True)
class Path(Params):
    """Path with ``edges`` edges on ``edges + 1`` vertices."""

    edges: int

    def build(self) -> Graph:
        if self.edges < 0:
            raise InfeasibleSpecError("path needs a nonnegative edge count")
        return Graph(self.edges + 1, [(i, i + 1) for i in range(self.edges)])


@dataclass(frozen=True)
class Cycle(Params):
    length: int

    def build(self) -> Graph:
        if self.length < 3:
            raise InfeasibleSpecError("cycle length must be at least 3")
        g = self.length
        return Graph(g, [(i, (i + 1) % g) for i in range(g)])


@dataclass(frozen=True)
class Hypercube(Params):
    """Hamming cube on 2**dim vertices; (dim)-regular."""

    dim: int

    def build(self) -> Graph:
        if self.dim < 0:
            raise InfeasibleSpecError("hypercube dimension must be nonnegative")
        n = 1 << self.dim
        pairs = []
        for x in range(n):
            for b in range(self.dim):
                y = x ^ (1 << b)
                if y > x:
                    pairs.append((x, y))
        return Graph(n, pairs)


@dataclass(frozen=True)
class ErdosRenyi(Params):
    n: int
    p: float
    seed: int

    def build(self) -> Graph:
        if self.n < 0 or not (0.0 <= self.p <= 1.0):
            raise InfeasibleSpecError("Erdos-Renyi needs n >= 0 and p in [0, 1]")
        iu, jv = np.triu_indices(self.n, k=1)
        u = rng.uniforms(self.seed, rng.STREAM_ER, iu, jv)
        keep = u < self.p
        return Graph(self.n, list(zip(iu[keep].tolist(), jv[keep].tolist())))


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
        iu, jv = np.triu_indices(self.n, k=1)
        u = rng.uniforms(self.seed, rng.STREAM_INHOM, iu, jv)
        keep = u < k[iu, jv]
        return Graph(self.n, list(zip(iu[keep].tolist(), jv[keep].tolist())))


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
        if d == 0:
            return Graph(n, [])
        points = n * d
        for attempt in range(_REGULAR_RETRY_CAP):
            perm = rng.permutation(self.seed, points, rng.STREAM_REGULAR, attempt)
            left = perm[0::2] // d
            right = perm[1::2] // d
            if np.any(left == right):
                continue
            lo = np.minimum(left, right)
            hi = np.maximum(left, right)
            pairs = set(zip(lo.tolist(), hi.tolist()))
            if len(pairs) < points // 2:
                continue
            return Graph(n, sorted(pairs))
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
        pairs = []
        frontier = [0]
        next_id = 1
        for _ in range(self.height):
            new_frontier = []
            for parent in frontier:
                u = float(rng.uniforms(self.seed, rng.STREAM_GW, parent))
                k = int(np.searchsorted(cdf, u, side="right"))
                for _ in range(k):
                    pairs.append((parent, next_id))
                    new_frontier.append(next_id)
                    next_id += 1
            frontier = new_frontier
            if not frontier:
                break
        return Graph(next_id, pairs)


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
        inner = g - 2
        pairs = [(i, i + 1) for i in range(a)]
        base = a + 1
        for i in range(a):
            for j in range(b):
                start = base + (i * b + j) * inner
                chain = [i] + list(range(start, start + inner)) + [i + 1]
                pairs.extend(
                    (min(x, y), max(x, y)) for x, y in zip(chain[:-1], chain[1:])
                )
        return Graph(base + a * b * inner, pairs)


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

_FAMILY_HELP = (
    "complete:n | bipartite:a:b | star:leaves | path:edges | cycle:g | "
    "hypercube:s | er:n:p:seed | regular:n:d:seed | gw:p0,p1,...:height:seed | "
    "gadget:a:b:g"
)


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
    """The family spec that ``name:arg:...`` names, in the grammar of ``_FAMILY_HELP``."""
    return read_spec(text, _FAMILIES, "family", _FAMILY_HELP)
