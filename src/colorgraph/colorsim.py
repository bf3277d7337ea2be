"""Uniform random colorings and monochromatic statistics.

``simulate`` draws colorings with a counter-based generator keyed by
(seed, sample index, vertex index): results are bit-identical however the
sample range is cut into blocks or distributed over workers. ``exact_distribution``
is the brute-force oracle: it enumerates every coloring in base-c order and
returns exact rational probabilities with denominator c**n.

Every kernel reads its colors through one coloring source, a pure
function of (vertices, samples): ``simulate``'s draws from the generator,
``exact_distribution``'s base-c digits of the coloring index, or a given
matrix (``mono_count``). Read densely, colorings are vertex-major: an
(n, batch) matrix whose column j is one coloring, in the narrowest
unsigned dtype holding c - 1. That is the layout and dtype
``rng.uniform_ints`` draws in, tile by tile, so no int64 matrix is built
and none is transposed.

Both count with the cheapest per sample of four kernels, built once per
call by ``_kernel_for`` (priced in GEMM multiply-adds: 900 per color drawn,
8 per pass element, 4 per sort step, 2300 per fancy-indexed move, fitted
on the 29-case grid its docstring names): a
one-hot float32 GEMM on the twin quotient of the host, a sort of each
coloring's (color, class) keys on the same quotient, a gather that
compares colors along edges, cycles or the neighbour lists of
``Graph.nbrs``, one contiguous row per vertex looked up, or, for cycles at
many colors, a sieve that reads every sample's colors only at the cycles'
first two vertices and a cycle's later vertices only while it is still
monochromatic. The quotient kernels take ``Graph.twin_quotient``'s
``Blowup``, the host as a blow-up of its k twin classes, and count one
star order r from each color's class sizes h_a (``_gemm_counts`` gives the
identity; edges are 1-stars halved), so the complete host counts from its
color-class sizes and a twin-free host runs the plain adjacency GEMM. The
GEMM makes one pass per color; the sort reads h_a off the colors present
only, so it serves the birthday regime (c > n). The kernels return
identical counts, each over the ``rng.batches`` blocks its ``row_cost`` sizes.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Union, get_args

import numpy as np

from . import census, rng
from .errors import BadColorVectorError, EnumerationGateExceededError
from .graph import Blowup, Graph, Params

__all__ = [
    "MonoEdges",
    "MonoStars",
    "MonoCycles",
    "Statistic",
    "mono_count",
    "simulate",
    "SimulationRun",
    "exact_distribution",
    "EXACT_ENUMERATION_GATE",
]

EXACT_ENUMERATION_GATE = 10**7
# ``_kernel_for``'s unit costs in multiply-adds of the GEMM's B h_a, fitted on the grid it names
_DRAW = 900  # one color drawn
_PASS = 8  # one element of a contiguous pass: a gather compare, a GEMM per-color pass, a star slot
_SORT = 4  # one step of a sort
_MOVE = 2300  # one element moved by fancy indexing: a gather row, a sorted run link, a sieve first edge or read


@dataclass(frozen=True)
class MonoEdges(Params):
    """Number of edges whose endpoints share a color."""


@dataclass(frozen=True)
class MonoStars(Params):
    """Number of monochromatic r-stars: sum_v C(#same-colored neighbors of v, r)."""

    r: int
    ranges = {"r": (lambda r: r >= 1, ">= 1")}


@dataclass(frozen=True)
class MonoCycles(Params):
    """Number of g-cycles whose vertices all share one color."""

    g: int
    ranges = {"g": (lambda g: g in census.CYCLE_LENGTHS, "in [3, 8]")}


Statistic = Union[MonoEdges, MonoStars, MonoCycles]


def _require_statistic(stat) -> None:
    if not isinstance(stat, get_args(Statistic)):
        raise TypeError(f"unknown statistic {stat!r}")


def _comb_array(values: np.ndarray, r: int) -> np.ndarray:
    """Elementwise C(value, r) of nonnegative ints, exact, via a table up to the largest value."""
    table = np.array([math.comb(x, r) for x in range(int(values.max(initial=0)) + 1)], dtype=np.int64)
    return table[values]


def _column_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_k x[k, i] * y[k, i] per column i, in int64; x and y hold integers."""
    return np.einsum("ki,ki->i", x, y, dtype=np.int64, casting="unsafe")


def _gemm_counts(quotient: Blowup, c: int, r: int, share: int, colors: np.ndarray) -> np.ndarray:
    """Monochromatic r-stars sum_v C(mono-degree of v, r) per column, from class histograms, over ``share``.

    ``quotient`` is a ``Blowup`` with float32 blocks B, clique flags q its diagonal.
    For color a, the histogram h_a = P' x_a counts the vertices of each
    class that have color a (P is the n x k class membership, x_a the
    (n, batch) indicator of a), and d_a = B h_a - q is the number of color-a
    neighbours of each of them. So the r-stars are sum_a h_a . C(d_a, r),
    over the entries with h_a > 0; r = 1 gives sum_v d_v, twice the
    monochromatic edges, which ``share`` = 2 halves. A twin-free host
    has k = n, P = I and B = A: there d_a = A x_a, and r >= 2 takes C(., r)
    once of each vertex's mono-degree sum_a x_a * d_a. B h_a is a float32
    GEMM, and the mono-degrees are float32 sums of one nonzero term each,
    exact while n < 2^24; every other product and sum is in int64.
    """
    twin_free = quotient.k == quotient.labels.size
    if not twin_free:  # rows in class order: each histogram entry sums one run of rows
        starts = np.cumsum(quotient.sizes) - quotient.sizes
        colors = colors[np.argsort(quotient.labels, kind="stable")]
    # one buffer each for x_a, h_a and d_a, reused by every color: fresh pages per color cost more
    x = np.empty(colors.shape, dtype=np.float32)
    hist = x if twin_free else np.empty((quotient.k, colors.shape[1]), dtype=np.float32)
    deg = np.empty(hist.shape, dtype=np.float32)
    total = np.zeros(colors.shape[1], dtype=np.int64)
    mono_deg = np.zeros(colors.shape, dtype=np.float32) if twin_free and r > 1 else None
    # a block holds at most colors.size distinct colors; above that, loop over those present
    for a in range(c) if c <= colors.size else np.unique(colors):
        np.equal(colors, a, out=x)
        if not twin_free:
            np.add.reduceat(x, starts, axis=0, out=hist)
        np.matmul(quotient.blocks, hist, out=deg)
        if not twin_free:
            deg -= quotient.blocks.diagonal()[:, None]
        if r == 1:
            total += _column_dots(hist, deg)
        elif twin_free:
            deg *= x
            mono_deg += deg
        else:
            total += _column_dots(hist, _comb_array(np.maximum(deg, 0).astype(np.int64), r))
    return (total if mono_deg is None else _comb_array(mono_deg.astype(np.int64), r).sum(axis=0)) // share


def _neighbour_columns(g: Graph) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Vertices by falling degree, their neighbours as columns, and the tails.

    Column j lists the j-th neighbour of every vertex with more than j
    neighbours, in that vertex order, so it lines up with a prefix of it.
    Columns stop at the cut j that minimizes j plus the size of column j;
    tail i holds the neighbours past the cut of the i-th vertex. The loops
    over columns and tails stay short even on hubs. Both are read off
    ``g.nbrs`` at ``g.offsets``: a column is one gather, a tail one slice.
    """
    deg = np.diff(g.offsets)
    by_deg = np.argsort(-deg, kind="stable")
    start = g.offsets[by_deg]
    # sizes[j]: the vertices with more than j neighbours, a prefix of by_deg
    sizes = np.searchsorted(-deg[by_deg], -np.arange(deg.max(initial=0) + 1))
    cut = int(np.argmin(np.arange(sizes.size) + sizes))
    columns = [g.nbrs[start[:size] + j] for j, size in enumerate(sizes[:cut].tolist())]
    hubs = by_deg[:sizes[cut]].tolist()  # the vertices with neighbours past the cut
    tails = [g.nbrs[g.offsets[v] + cut:g.offsets[v + 1]] for v in hubs]
    return by_deg, columns, tails


def _star_counts(index, r: int, by_vertex: np.ndarray) -> np.ndarray:
    """r-stars per column of the (n, batch) ``by_vertex``, along ``_neighbour_columns``' lists.

    Mono-degrees are kept in the narrowest unsigned dtype holding the largest degree.
    """
    by_deg, columns, tails = index
    own = by_vertex[by_deg]
    top = len(columns) + (tails[0].size if tails else 0)  # the degree of by_deg[0], the largest
    mono_deg = np.zeros(own.shape, dtype=rng._narrow_dtype(top))
    for col in columns:
        mono_deg[: col.size] += by_vertex[col] == own[: col.size]
    for i, tail in enumerate(tails):
        mono_deg[i] += np.add.reduce(by_vertex[tail] == own[i], axis=0, dtype=mono_deg.dtype)
    return _comb_array(mono_deg, r).sum(axis=0)


def _tuple_counts(tuples: np.ndarray, by_vertex: np.ndarray) -> np.ndarray:
    """Rows of ``tuples`` (edges or cycles) whose vertices share a color, per column of ``by_vertex``.

    The mask is summed in the narrowest unsigned dtype holding the number of rows, then widened.
    """
    first = by_vertex[tuples[:, 0]]
    mono = first == by_vertex[tuples[:, 1]]
    for j in range(2, tuples.shape[1]):
        mono &= first == by_vertex[tuples[:, j]]
    return np.add.reduce(mono, axis=0, dtype=rng._narrow_dtype(len(tuples))).astype(np.int64)


def _sorted_counts(quotient: Blowup, c: int, r: int, share: int, colors: np.ndarray) -> np.ndarray:
    """Monochromatic r-stars per column from each column's sorted (color, class) keys, over ``share``.

    Sorting the keys color * k + label of the ``Blowup`` ``quotient`` down
    each column puts the vertices of one color next to each other, classes
    in order, so the class sizes h_a of each color present are read off the
    runs of equal colors. A vertex of class j and color a has
    d = (B h_a)_j - q_j neighbours of its color, the identity
    ``_gemm_counts`` uses, and r-stars = sum C(d, r); r = 1 sums d itself,
    twice the monochromatic edges. A vertex alone in its color has d = 0, so
    only runs of two or more vertices are read: about m / c pairs per column
    on K_n. The keys take the narrowest dtype of at least 16 bits (numpy sorts
    uint8 far slower) holding c * k - 1, which ``_kernel_for`` keeps in int64.
    """
    n, batch = colors.shape
    k = quotient.k
    total = np.zeros(batch, dtype=np.int64)
    if n < 2:
        return total
    keys = colors.astype(np.promote_types(rng._narrow_dtype(c * k - 1), np.uint16))
    keys *= k
    keys += quotient.labels.astype(keys.dtype)[:, None]
    keys.sort(axis=0)
    color = keys // k
    # links: sorted positions p and p + 1 of a column share a color; flat index column * (n - 1) + p
    link = np.flatnonzero((color[1:] == color[:-1]).T)
    column, pos = np.divmod(link, n - 1)
    opens = np.ones(link.size, dtype=bool)  # the link opens a run: it does not extend the one before
    opens[1:] = (link[1:] != link[:-1] + 1) | (pos[1:] == 0)
    run = np.cumsum(opens) - 1
    heads = np.flatnonzero(opens)
    # the vertices of the runs: each run's first, then the second of every link
    member_run = np.concatenate((np.arange(heads.size), run))
    member_col = np.concatenate((column[heads], column))
    member_label = keys[np.concatenate((pos[heads], pos + 1)), member_col] % k
    hist = np.bincount(member_run * k + member_label, minlength=heads.size * k).reshape(-1, k)
    blocks = quotient.blocks.astype(np.int64)
    deg = _column_dots(hist[member_run].T, blocks[member_label].T) - blocks.diagonal()[member_label]
    np.add.at(total, member_col, deg if r == 1 else _comb_array(deg, r))
    return total // share


# coloring sources: source(vertices, samples) is the color of each vertex in each sample, index
# arrays broadcast like the path of ``rng.uniform_ints``; every kernel reads its colors through one


def _drawn_colors(seed: int, c: int, vertices: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """``simulate``'s source: the color of vertex v in sample i is drawn from (seed, i, v)."""
    return rng.uniform_ints(seed, c, rng.STREAM_COLORS, samples, vertices)


def _digit_colors(c: int, powers: np.ndarray, dtype: type, vertices: np.ndarray,
                  samples: np.ndarray) -> np.ndarray:
    """``exact_distribution``'s source: digit v of coloring index i in base c, ``powers[v]`` its place value."""
    return (samples // powers[vertices] % c).astype(dtype)


def _matrix_colors(colors: np.ndarray, vertices: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """A given (n, samples) color matrix as a source: sample i is its column i."""
    return colors[vertices, samples]


class _Kernel(NamedTuple):
    """The counting kernel for one (g, c, stat), built once per call."""

    name: str  # "gemm", "sorted", "gather" or "sieve"
    count: Callable[[Callable, np.ndarray], np.ndarray]  # (coloring source, sample indices) -> statistic per sample
    row_cost: int  # matrix entries per sample, for ``rng.batches``


def _read_all(count: Callable[[np.ndarray], np.ndarray], n: int, source: Callable,
              samples: np.ndarray) -> np.ndarray:
    """``count`` of the (n, batch) matrix of every vertex's color in each sample, read once from ``source``."""
    return count(source(np.arange(n)[:, None], samples[None, :]))


def _gather_for(g: Graph, stat: Statistic, cycles: np.ndarray | None = None) -> _Kernel:
    """The gather for ``stat``: stars along ``_neighbour_columns``, edges and cycles along tuples.

    Cycles are ``census.cycle_list``'s, or ``cycles`` if the caller has listed them.
    """
    row_cost = g.n + g.m
    if isinstance(stat, MonoStars):
        count = functools.partial(_star_counts, _neighbour_columns(g), stat.r)
    elif isinstance(stat, MonoCycles):
        cycles = census.cycle_list(g, stat.g) if cycles is None else cycles
        row_cost += cycles.size
        count = functools.partial(_tuple_counts, cycles)
    else:
        count = functools.partial(_tuple_counts, g.edges)
    return _Kernel("gather", functools.partial(_read_all, count, g.n), row_cost)


class _SieveIndex(NamedTuple):
    """A (cycles, L) cycle list laid out for ``_sieve_counts``, the cycles grouped by first edge."""

    dense: np.ndarray  # the distinct vertices of columns 0 and 1, sorted: read in every sample
    first: np.ndarray  # (E, 2) positions in ``dense`` of each distinct first edge (r, x1)
    starts: np.ndarray  # the cycles over first edge e are starts[e]:starts[e + 1] in first-edge order
    later: np.ndarray  # (L - 2, cycles): columns 2.. of the cycles in first-edge order, one row each
    slots: tuple  # per row of ``later``: its vertices' positions in ``dense``, -1 if absent; None if none is in


def _sieve_index(cycles: np.ndarray) -> _SieveIndex:
    """The sieve's layout of ``census.cycle_list``'s (cycles, L) array."""
    dense, pos = np.unique(cycles[:, :2].ravel(), return_inverse=True)
    keys, edge_of, sizes = np.unique(pos.reshape(-1, 2) @ np.array([dense.size, 1]), return_inverse=True,
                                     return_counts=True)
    later = np.ascontiguousarray(cycles[np.argsort(edge_of, kind="stable"), 2:].T)
    slots = np.searchsorted(dense, later)
    slots[dense[np.minimum(slots, dense.size - 1)] != later] = -1
    return _SieveIndex(dense, np.column_stack(np.divmod(keys, dense.size)),
                       np.concatenate(([0], np.cumsum(sizes))), later,
                       tuple(row if (row >= 0).any() else None for row in slots))


def _sieve_counts(index: _SieveIndex, source: Callable, samples: np.ndarray) -> np.ndarray:
    """Monochromatic cycles per sample, reading a cycle's later vertices only while it is monochromatic.

    Columns 0 and 1 of the cycle list are read for every sample, and each
    distinct first edge (r, x1) is compared once. Each monochromatic one
    gives a (cycle, sample) pair for every cycle over it. Column by column, a
    pair reads its next vertex, from the dense colors or else pointwise from
    ``source``, and is dropped at the first color that differs from r's. At
    c colors about cycles / c pairs per sample reach column 2.
    """
    colors = source(index.dense[:, None], samples[None, :])
    lead = colors[index.first[:, 0]]
    edge, column = np.nonzero(lead == colors[index.first[:, 1]])
    color = lead[edge, column]
    sizes = index.starts[edge + 1] - index.starts[edge]  # the cycles over each monochromatic first edge
    cycle = np.repeat(index.starts[edge] - np.cumsum(sizes) + sizes, sizes)
    cycle += np.arange(cycle.size)
    column, color = np.repeat(column, sizes), np.repeat(color, sizes)
    for vertices, slots in zip(index.later, index.slots):
        if slots is None:
            got = source(vertices[cycle], samples[column])
        else:
            slot = slots[cycle]
            got = colors[slot, column]
            drawn = slot < 0
            if drawn.any():
                got[drawn] = source(vertices[cycle[drawn]], samples[column[drawn]])
        keep = got == color
        cycle, column, color = cycle[keep], column[keep], color[keep]
    return np.bincount(column, minlength=samples.size)


def _kernel_for(g: Graph, c: int, stat: Statistic) -> _Kernel:
    """The cheapest counting kernel for (g, c, stat), with the quotient or index it counts over.

    A price is the counted work per sample times the unit costs. The gather
    makes m compares (stars: two passes over the 2m + n neighbour and own
    slots) and moves a row per edge end and ``rng.batches`` block; the GEMM
    on k twin classes makes c passes of 3n and c products B h_a of k^2; the
    sort takes ceil(log2 n) steps per key, then a move and four k-long passes
    per link, a vertex sharing its color with the one before it (n -
    E[colors present]). Their n draws are left out. The cheapest runs, ties
    going to the GEMM, then the sort. B must fit a block and the keys c*k
    int64; those bounds and the gather's price bound k, and no twin search
    runs when k = 1 cannot win. Edges are 1-stars halved. Of cycles of
    length L, the gather draws n colors, compares L - 1 times per cycle and
    moves L rows per block; the sieve draws the dense set of the cycles'
    first two vertices, moves each first edge and about cycles / c^j reads
    at column j + 1, j = 1..L-2; only when strictly cheaper is its index built. The
    units were fitted once (nothing is timed at run time) on interleaved
    per-kernel timings, each the minimum of 7 runs, of 29 cases: the rows of
    ``test_kernel_chooser_grid``, er:30:0.3:1 ``stars:2`` at c=2, complete:60
    ``edges`` at c = 255, 256 and 257, and er:300:0.5:1 ``edges`` at c=2.
    """
    _require_statistic(stat)
    n = g.n
    if isinstance(stat, MonoCycles):
        cycles = census.cycle_list(g, stat.g)
        dense = np.count_nonzero(np.bincount(cycles[:, :2].ravel(), minlength=n))  # the sieve's sizes, unindexed
        first = np.unique(cycles[:, 0] * n + cycles[:, 1]).size
        reads = len(cycles) * sum(c ** -j for j in range(1, stat.g - 1))  # the pairs reaching columns 2..L-1
        block = max(1, rng.BATCH_ENTRIES // (n + g.m + cycles.size))
        gather = _DRAW * n + _PASS * len(cycles) * (stat.g - 1) + _MOVE * cycles.size / block
        if _DRAW * dense + _MOVE * (first + reads) >= gather:
            return _gather_for(g, stat, cycles)
        # row cost: dense colors, first-edge colors and matches, about 8 arrays over the expected pairs
        row_cost = dense + 2 * first + 8 * math.ceil(len(cycles) / c)
        return _Kernel("sieve", functools.partial(_sieve_counts, _sieve_index(cycles)), row_cost)
    passes = 2 * (2 * g.m + n) if isinstance(stat, MonoStars) else g.m
    gather = _PASS * passes + _MOVE * 2 * g.m / max(1, rng.BATCH_ENTRIES // max(1, n + g.m))
    links, depth = n + c * math.expm1(n * math.log1p(-1 / c)), (n - 1).bit_length()  # n - E[present], ceil(log2 n)
    gemm_classes = min(math.isqrt(max(0, int(gather / c - 3 * _PASS * n))), math.isqrt(rng.BATCH_ENTRIES))
    spare = gather - _SORT * n * depth - _MOVE * links  # left for the sort's k-long rows
    sort_classes = min(int(spare / (4 * _PASS * links)), 2**63 // c) if links > 0 else 0  # keys c*k in int64
    max_classes = max(gemm_classes, sort_classes)
    quotient = g.twin_quotient(np.float32, max_classes) if max_classes >= 1 else None
    k = math.inf if quotient is None else quotient.k
    costs = {"gemm": c * (3 * _PASS * n + k * k) if k <= gemm_classes else math.inf,
             "sorted": _SORT * n * depth + (_MOVE + 4 * _PASS * k) * links if k <= sort_classes else math.inf,
             "gather": gather}
    name = min(costs, key=costs.get)
    if name == "gather":
        return _gather_for(g, stat)
    r, share = (1, 2) if isinstance(stat, MonoEdges) else (stat.r, 1)
    # row costs: colors, indicator, histogram, degrees; colors, keys, masks, link and vertex arrays, histograms
    counts, row_cost = (_gemm_counts, 2 * (n + k)) if name == "gemm" else (_sorted_counts, n * (15 + 3 * k))
    return _Kernel(name, functools.partial(_read_all, functools.partial(counts, quotient, c, r, share), n), row_cost)


def mono_count(g: Graph, colors, stat: Statistic) -> int:
    """Evaluate one statistic on one explicit coloring."""
    _require_statistic(stat)
    arr = np.asarray(colors)
    if arr.shape != (g.n,):
        raise BadColorVectorError(f"expected {g.n} colors, got shape {arr.shape}")
    if g.n and (arr.dtype.kind not in "iu" or arr.min() < 0):
        raise BadColorVectorError(f"colors must be nonnegative integers, got {colors!r:.80}")
    source = functools.partial(_matrix_colors, arr.astype(np.int64)[:, None])
    return int(_gather_for(g, stat).count(source, np.zeros(1, dtype=np.int64))[0])


@dataclass(frozen=True, eq=False)
class SimulationRun:
    """Raw per-sample statistics of one reproducible simulation."""

    seed: int
    colors: int
    stat: Statistic
    sample_count: int
    counts: np.ndarray
    kernel: str  # counting kernel that ran: "gemm", "sorted", "gather" or "sieve"

    def counts_by_value(self) -> dict[int, int]:
        values, freq = np.unique(self.counts, return_counts=True)
        return {int(v): int(f) for v, f in zip(values, freq)}

    def pmf(self) -> dict[int, float]:
        """Empirical pmf; frequencies sum to 1 exactly."""
        return {v: f / self.sample_count for v, f in self.counts_by_value().items()}

    def standardized(self, center: float, scale: float) -> np.ndarray:
        """(counts - center) / scale under a caller-chosen normalization."""
        if scale <= 0:
            raise ValueError("scale must be positive")
        return (self.counts.astype(np.float64) - center) / scale

    def mean(self) -> float:
        return float(self.counts.mean())


def _simulate_range(kernel: _Kernel, seed: int, c: int, lo: int, hi: int) -> np.ndarray:
    """Statistic of samples [lo, hi); the color of vertex v in sample i is drawn from (seed, i, v)."""
    source = functools.partial(_drawn_colors, seed, c)
    return np.concatenate([kernel.count(source, idx) for idx in rng.batches(lo, hi, kernel.row_cost)])


def simulate(
    g: Graph,
    c: int,
    stat: Statistic,
    samples: int,
    seed: int,
    workers: int = 1,
) -> SimulationRun:
    """Draw ``samples`` independent uniform c-colorings and evaluate ``stat``.

    Sample i is a pure function of (seed, i), so the result is identical for
    any ``workers`` value; workers (at least 1) only bound process parallelism.
    More than 2^53 colors raise ``DomainExceededError`` from ``rng.uniform_ints``.
    """
    if c < 2:
        raise ValueError(f"need at least 2 colors, got {c}")
    if samples < 1:
        raise ValueError(f"need at least 1 sample, got {samples}")
    if workers < 1:
        raise ValueError(f"need at least 1 worker, got {workers}")
    kernel = _kernel_for(g, c, stat)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported here: it costs every CLI start 15-23 ms

        bounds = sorted(set(np.linspace(0, samples, workers + 1).astype(int).tolist()))
        job = functools.partial(_simulate_range, kernel, seed, c)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            counts = np.concatenate(list(pool.map(job, bounds[:-1], bounds[1:])))
    else:
        counts = _simulate_range(kernel, seed, c, 0, samples)
    counts.setflags(write=False)
    return SimulationRun(seed=seed, colors=c, stat=stat, sample_count=samples, counts=counts,
                         kernel=kernel.name)


def exact_distribution(g: Graph, c: int, stat: Statistic) -> dict[int, Fraction]:
    """Exact law of the statistic under uniform c-coloring, by full enumeration.

    Probabilities are exact rationals with denominator c**n. Gated at
    c**n <= 10^7 enumerated colorings.
    """
    if c < 2:
        raise ValueError(f"need at least 2 colors, got {c}")
    total = c**g.n
    if total > EXACT_ENUMERATION_GATE:
        raise EnumerationGateExceededError(
            f"c^n = {total} exceeds the enumeration gate {EXACT_ENUMERATION_GATE}",
            total=total,
        )
    # vertex 0 is the most significant digit of the coloring index
    powers = c ** np.arange(g.n - 1, -1, -1, dtype=np.int64)
    source = functools.partial(_digit_colors, c, powers, rng._narrow_dtype(c - 1))
    kernel = _kernel_for(g, c, stat)
    counter: dict[int, int] = {}
    for idx in rng.batches(0, total, kernel.row_cost):
        uniq, freq = np.unique(kernel.count(source, idx), return_counts=True)
        for v, f in zip(uniq.tolist(), freq.tolist()):
            counter[v] = counter.get(v, 0) + f
    return {v: Fraction(f, total) for v, f in sorted(counter.items())}
