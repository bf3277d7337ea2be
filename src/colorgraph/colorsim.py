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
and only the sort transposes one. Read pointwise, ``source(vertices,
samples, at=positions)`` is vertex ``vertices[j]`` in sample
``samples[positions[j]]``, a position in the block: the generator then
hashes each block sample's path prefix once (``rng.uniform_ints`` with
``at``), not once per read.

``_kernel_for`` builds the kernel of each call from one table of the
kernels that can count the statistic, each priced in GEMM multiply-adds by
the unit costs ``_DRAW`` .. ``_MOVE``: the cheapest for ``simulate`` and
``exact_distribution``, the gather by name for ``mono_count``. The four
kernels are a GEMM on the twin quotient of the host (``_gemm_counts``), a
sort of each coloring's (color, class) keys on the same quotient
(``_sorted_counts``), a gather that compares colors along edges, cycles or
neighbour lists (``_tuple_counts``, ``_star_counts``) and, for cycles at
many colors, a sieve that reads a cycle's later vertices only while it is
still monochromatic (``_sieve_counts``). They return identical counts, each
over the ``rng.batches`` blocks its ``row_cost`` sizes; each kernel's
docstring gives its buffers and dtypes. Star counts are int64: a count of
r-stars that passes it raises ``DomainExceededError``.

The quotient kernels take ``Graph.twin_quotient``'s ``Blowup``: the host as
a blow-up of its k twin classes, whose 0/1 quotient B has the diagonal q
flagging the clique classes. Let h_a count the vertices of each class that
have color a: a vertex of class j and color a has d_j = (B h_a)_j - q_j
neighbours of its color, so the r-stars are sum_a sum_j h_{a,j} C(d_j, r),
and r = 1 sums d, twice the monochromatic edges. ``_star_sums`` computes
that sum for both kernels, B h as a GEMM in B's own float type: each entry
of B h is an integer of at most n and B is float32 only while n < 2^24, so
it is exact; every other product and sum is in int64. The GEMM produces
dense histograms, one color per pass, so the complete host counts from its
color-class sizes and a twin-free host (k = n, B = A) runs the plain
adjacency GEMM. The sort produces those of the colors present only, read
off sorted runs, so it serves the birthday regime (c > n). Past
isqrt(``BATCH_ENTRIES``) classes B would not fit a block, and both stand aside.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Union, get_args

import numpy as np

from . import graph, rng
from .errors import BadColorVectorError, DomainExceededError, EnumerationGateExceededError, Params
from .graph import Blowup, Graph

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
_CHUNK_ENTRIES = 2**16  # (row, sample) entries per chunk of the tuple gather: its buffers stay in cache


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
    ranges = {"g": (lambda g: g in graph.CYCLE_LENGTHS, "in [3, 8]")}


Statistic = Union[MonoEdges, MonoStars, MonoCycles]


def _comb_sums(values: np.ndarray, r: int, terms: int, sums: Callable) -> np.ndarray:
    """``sums`` of the elementwise C(value, r) of nonnegative ints: per-sample int64 totals, exact.

    ``sums`` adds an array shaped like ``values`` into per-sample int64 totals,
    with nonnegative integer weights of at most ``terms`` per sample in all.
    While ``terms`` of the largest C(value, r) fit int64, the table up to the
    largest value is gathered, in the narrowest dtype holding that C(value,
    r), and ``sums`` widens it. Otherwise each distinct value's C(value, r) is
    split as high * 2^31 + low, high capped at 2^32 (such a term alone passes
    int64), both halves are summed, and ``DomainExceededError`` is raised only
    if a sample's exact total passes 2^63 - 1.
    """
    top = int(values.max(initial=0))
    if terms * math.comb(top, r) <= 2**63 - 1:
        table = np.array([math.comb(x, r) for x in range(top + 1)], dtype=rng._narrow_dtype(math.comb(top, r)))
        return sums(table.take(values))  # take: fancy indexing by a narrow 2-D index is about 3x slower
    distinct, inverse = np.unique(values, return_inverse=True)
    inverse = inverse.reshape(values.shape)  # its shape differs across numpy versions
    combs = [math.comb(x, r) for x in distinct.tolist()]
    high = np.array([min(t >> 31, 2**32) for t in combs], dtype=np.int64)[inverse]
    low = np.array([t & (2**31 - 1) for t in combs], dtype=np.int64)[inverse]
    exact = [(hi << 31) + lo for hi, lo in zip(sums(high).tolist(), sums(low).tolist())]
    if max(exact, default=0) > 2**63 - 1:
        raise DomainExceededError(f"star counts pass int64: a sample holds {max(exact)} {r}-stars")
    return np.array(exact, dtype=np.int64)


def _row_sums(x: np.ndarray) -> np.ndarray:
    """sum_k x[k, i] per column i, in int64; x holds nonnegative integers.

    Unsigned x is summed in the narrowest dtype that holds its rows times its
    dtype's largest value, then widened: exact, and half the traffic of int64.
    """
    top = x.shape[0] * np.iinfo(x.dtype).max if x.dtype.kind == "u" else 2**63
    return np.add.reduce(x, axis=0, dtype=rng._narrow_dtype(top)).astype(np.int64, copy=False)


def _column_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_k x[k, i] * y[k, i] per column i, in int64; x and y hold integers."""
    return np.einsum("ki,ki->i", x, y, dtype=np.int64, casting="unsafe")


class _Classes(NamedTuple):
    """A ``Blowup``'s classes relabelled by falling size, laid out for ``_gemm_counts``; built once per kernel.

    A color block's rows run class by class, the largest class first: row i
    holds vertex ``vertices[i]``. ``columns`` and ``tails`` are
    ``_columns_and_tails`` of the classes' rows.
    """

    blocks: np.ndarray  # the k x k quotient B in its own float type, rows and columns in the new class order
    vertices: np.ndarray  # the vertices class by class, the order the coloring source is read in
    columns: list  # per column j: the row of the j-th vertex of every class with more than j
    tails: list  # per class, in order: the slice of its rows past the cut
    counter: type  # the narrowest unsigned dtype holding the largest class size


def _classes_of(quotient: Blowup) -> _Classes:
    """``quotient``'s classes by falling size, B permuted with them, and the cut of their rows."""
    by_size = np.argsort(-quotient.sizes, kind="stable")
    rank = np.empty_like(by_size)
    rank[by_size] = np.arange(by_size.size)
    _, columns, tails = _columns_and_tails(np.concatenate(([0], np.cumsum(quotient.sizes[by_size]))))
    return _Classes(quotient.blocks[np.ix_(by_size, by_size)], np.argsort(rank[quotient.labels], kind="stable"),
                    columns, tails, rng._narrow_dtype(int(quotient.sizes.max(initial=0))))


def _star_sums(hist: np.ndarray, blocks: np.ndarray, r: int, terms: int, sums: Callable,
               work: tuple | None = None) -> np.ndarray:
    """The r-stars sum_j h_j C(d_j, r), d = B h - q, of (k, columns) class histograms h; r = 1 sums d.

    ``sums(hist, x)`` adds each column's sum_j h_j x_j into per-sample int64
    totals, at most ``terms`` weight per sample. B h is made in B's float
    type, in ``work``'s (cast, degree) buffers shaped like h when given.
    """
    cast, deg = work or (np.empty(hist.shape, dtype=blocks.dtype), None)
    np.copyto(cast, hist)
    deg = np.matmul(blocks, cast, out=deg)
    if blocks.diagonal().any():
        deg -= blocks.diagonal()[:, None]
    if r == 1:
        return sums(hist, deg)
    return _comb_sums(np.maximum(deg, 0).astype(np.int64), r, terms, functools.partial(sums, hist))


def _gemm_counts(classes: _Classes, c: int, r: int, share: int, source: Callable, samples: np.ndarray) -> np.ndarray:
    """Monochromatic r-stars per sample, over ``share``: ``_star_sums`` of each color's dense class histograms.

    The colors are read from ``source`` class by class: row i of the (n,
    batch) block is vertex ``classes.vertices[i]``. Color a's histograms,
    one column per sample, are summed exactly in ``classes.counter`` from
    the bool indicator x_a of a: a column of ``classes`` adds one row to
    each class it reaches, a tail reduces one class's contiguous rows. A
    twin-free host has h_a = x_a and, at r >= 2, takes C(., r) once of each
    vertex's mono-degree sum_a x_a * d_a, not once per color.
    """
    colors, blocks = source(classes.vertices[:, None], samples[None, :]), classes.blocks
    n = colors.shape[0]
    twin_free = blocks.shape[0] == n
    # one buffer each for x_a, h_a, its cast to B's type and d_a, reused by every color: fresh pages per color cost more
    x = np.empty(colors.shape, dtype=bool)
    ones = x.view(np.uint8)  # x as 0/1 bytes, summed without a cast
    hist = ones if twin_free else np.empty((blocks.shape[0], colors.shape[1]), dtype=classes.counter)
    work = np.empty(hist.shape, dtype=blocks.dtype), np.empty(hist.shape, dtype=blocks.dtype)
    total = np.zeros(colors.shape[1], dtype=np.int64)
    mono_deg = np.zeros(colors.shape, dtype=blocks.dtype) if twin_free and r > 1 else None
    # a block holds at most colors.size distinct colors; above that, loop over those present
    for a in range(c) if c <= colors.size else np.unique(colors):
        np.equal(colors, a, out=x)
        if not twin_free:
            hist.fill(0)
            for col in classes.columns:
                hist[: col.size] += ones[col]
            for i, rows in enumerate(classes.tails):
                hist[i] += np.add.reduce(ones[rows], axis=0, dtype=hist.dtype)
        if mono_deg is not None:  # x_a * d_a, written over d_a, into each vertex's mono-degree
            mono_deg += _star_sums(hist, blocks, 1, n, functools.partial(np.multiply, out=work[1]), work)
        else:
            total += _star_sums(hist, blocks, r, n, _column_dots, work)
            if r > 1 and total.min(initial=0) < 0:  # two exact int64 totals wrapped: their sum passed 2^63 - 1
                raise DomainExceededError(f"star counts pass int64 by color {a}: r = {r} stars")
    if mono_deg is not None:
        total = _comb_sums(mono_deg.astype(np.int64), r, n, _row_sums)
    return total // share


def _columns_and_tails(offsets: np.ndarray) -> tuple[np.ndarray, list[np.ndarray], list[slice]]:
    """CSR lists (list i holds entries offsets[i]:offsets[i + 1]) by falling length, as columns and tails.

    Column j holds the entry positions of the j-th entry of every list
    longer than j, in that list order, so it lines up with a prefix of it.
    Columns stop at the cut j that minimizes j plus the size of column j;
    tail i is the slice of positions past the cut of the i-th list in that
    order. The loops over columns and tails stay short whether the lists
    are many and short or few and long: a column is one gather of entries,
    a tail one contiguous slice of them. The star gather cuts the
    neighbour lists, the GEMM the rows of its classes.
    """
    length = np.diff(offsets)
    order = np.argsort(-length, kind="stable")
    start = offsets[order]
    # sizes[j]: the lists longer than j, a prefix of order
    sizes = np.searchsorted(-length[order], -np.arange(length.max(initial=0) + 1))
    cut = int(np.argmin(np.arange(sizes.size) + sizes))
    columns = [start[:size] + j for j, size in enumerate(sizes[:cut].tolist())]
    tails = [slice(int(offsets[i]) + cut, int(offsets[i + 1])) for i in order[:sizes[cut]].tolist()]
    return order, columns, tails


def _star_counts(index, r: int, source: Callable, samples: np.ndarray) -> np.ndarray:
    """r-stars per sample along ``_columns_and_tails``' neighbour lists, every vertex's colors read from ``source``.

    ``index`` holds the vertices by falling degree and their neighbours as
    columns and tails. Mono-degrees are kept in the narrowest unsigned dtype
    holding the largest degree. Each column or tail is taken into one row
    buffer per block, compared into one bool buffer, and added through its
    uint8 view.
    """
    by_deg, columns, tails = index
    by_vertex = source(np.arange(by_deg.size)[:, None], samples[None, :])
    own = by_vertex.take(by_deg, axis=0)
    top = len(columns) + (tails[0].size if tails else 0)  # the degree of by_deg[0], the largest
    mono_deg = np.zeros(own.shape, dtype=rng._narrow_dtype(top))
    rows, same = np.empty_like(own), np.empty(own.shape, dtype=bool)  # a column or tail is at most n rows
    ones = same.view(np.uint8)
    for col in columns:
        k = col.size
        np.equal(by_vertex.take(col, axis=0, out=rows[:k], mode="clip"), own[:k], out=same[:k])
        mono_deg[:k] += ones[:k]
    for i, tail in enumerate(tails):
        k = tail.size
        np.equal(by_vertex.take(tail, axis=0, out=rows[:k], mode="clip"), own[i], out=same[:k])
        mono_deg[i] += np.add.reduce(ones[:k], axis=0, dtype=mono_deg.dtype)
    return _comb_sums(mono_deg, r, by_deg.size, _row_sums)


def _star_index(g: Graph) -> tuple:
    """``_star_counts``' index of g: the vertices by falling degree, their neighbour lists as columns and tails."""
    by_deg, columns, tails = _columns_and_tails(g.offsets)
    return by_deg, [g.nbrs[col] for col in columns], [g.nbrs[rows] for rows in tails]


def _tuple_counts(tuples: np.ndarray, n: int, source: Callable, samples: np.ndarray) -> np.ndarray:
    """Rows of ``tuples`` (edges or cycles) whose vertices share a color, per sample; all n colors read from ``source``.

    The rows run in chunks of about ``_CHUNK_ENTRIES`` (row, sample) entries
    through buffers allocated once per block: each column is taken into a
    row buffer, its compare and-ed into one bool mask, and the mask summed
    through its uint8 view in the narrowest unsigned dtype holding the
    chunk's rows, then added into int64 totals.
    """
    by_vertex = source(np.arange(n)[:, None], samples[None, :])
    step = max(1, _CHUNK_ENTRIES // max(1, samples.size))
    shape = (min(step, len(tuples)), samples.size)
    first, rows = np.empty(shape, dtype=by_vertex.dtype), np.empty(shape, dtype=by_vertex.dtype)
    mono, same = np.empty(shape, dtype=bool), np.empty(shape, dtype=bool)
    total = np.zeros(samples.size, dtype=np.int64)
    for lo in range(0, len(tuples), step):
        chunk = tuples[lo: lo + step]
        k = len(chunk)
        by_vertex.take(chunk[:, 0], axis=0, out=first[:k], mode="clip")
        np.equal(first[:k], by_vertex.take(chunk[:, 1], axis=0, out=rows[:k], mode="clip"), out=mono[:k])
        for j in range(2, tuples.shape[1]):
            mono[:k] &= np.equal(first[:k], by_vertex.take(chunk[:, j], axis=0, out=rows[:k], mode="clip"),
                                 out=same[:k])
        total += np.add.reduce(mono[:k].view(np.uint8), axis=0, dtype=rng._narrow_dtype(k))
    return total


def _sorted_counts(quotient: Blowup, c: int, r: int, share: int, source: Callable, samples: np.ndarray) -> np.ndarray:
    """Monochromatic r-stars per sample, over ``share``: ``_star_sums`` of the class histograms of sorted runs.

    The (n, batch) colors of every vertex are read from ``source`` and copied
    once, cast in the same pass, into sample-major (batch, n) keys color * k +
    label of the ``Blowup`` ``quotient`` (at k = 1 the colors themselves), in
    the narrowest dtype of at least 16 bits (numpy sorts uint8 far slower)
    holding c * k - 1, which ``_kernel_for`` keeps in int64. Sorting each
    sample's keys as one contiguous row puts the vertices of one color next
    to each other. Only the links, adjacent keys of one color, are read:
    about m / c per sample on K_n. A run of links is one column, added into
    its sample: its length at k = 1, else its (class, run) counts.
    """
    colors = source(np.arange(quotient.labels.size)[:, None], samples[None, :])
    n, batch = colors.shape
    k = quotient.k
    if n < 2:
        return np.zeros(batch, dtype=np.int64)
    keys = np.empty((batch, n), dtype=np.promote_types(rng._narrow_dtype(c * k - 1), np.uint16))
    np.copyto(keys, colors.T)
    if k > 1:
        keys *= k
        keys += quotient.labels.astype(keys.dtype)
    keys.sort(axis=1)
    color = (keys // k if k > 1 else keys).reshape(-1)
    # links: flat positions p and p + 1 of one row share a color; first holds each p
    same = color[1:] == color[:-1]
    same[n - 1::n] = False  # a row's last key against the next row's first
    first = np.flatnonzero(same)
    opens = np.ones(first.size, dtype=bool)  # the link opens a run: the one before it does not end at its p
    np.not_equal(first[1:], first[:-1] + 1, out=opens[1:])
    heads = np.flatnonzero(opens)
    row = first[heads] // n  # each run's sample
    if k == 1:
        hist = (np.diff(heads, append=first.size) + 1)[None, :]
    else:  # the vertices of the runs: each run's first, then the second of every link
        run = np.concatenate((np.arange(heads.size), np.cumsum(opens) - 1))
        hist = np.bincount(run * k + keys.take(np.concatenate((first[heads], first + 1))) % k,
                           minlength=heads.size * k).reshape(-1, k).T

    def run_sums(hist: np.ndarray, x: np.ndarray) -> np.ndarray:
        out = np.zeros(batch, dtype=np.int64)
        np.add.at(out, row, _column_dots(hist, x))
        return out

    return _star_sums(hist, quotient.blocks, r, n, run_sums) // share


# coloring sources: source(vertices, samples) is the color of each vertex in each sample, index
# arrays broadcast like the path of ``rng.uniform_ints``; every kernel reads its colors through one.
# source(vertices, samples, at=positions) reads pointwise: vertex vertices[j] in sample samples[positions[j]]


def _drawn_colors(seed: int, c: int, vertices: np.ndarray, samples: np.ndarray, at=None) -> np.ndarray:
    """``simulate``'s source: the color of vertex v in sample i is drawn from (seed, i, v)."""
    return rng.uniform_ints(seed, c, rng.STREAM_COLORS, samples, vertices, at=at)


def _digit_colors(c: int, powers: np.ndarray, dtype: type, vertices: np.ndarray,
                  samples: np.ndarray, at=None) -> np.ndarray:
    """``exact_distribution``'s source: digit v of coloring index i in base c, ``powers[v]`` its place value."""
    samples = samples if at is None else samples[at]
    return (samples // powers[vertices] % c).astype(dtype)


def _matrix_colors(colors: np.ndarray, vertices: np.ndarray, samples: np.ndarray, at=None) -> np.ndarray:
    """A given (n, samples) color matrix as a source: sample i is its column i."""
    return colors[vertices, samples if at is None else samples[at]]


class _Kernel(NamedTuple):
    """The counting kernel for one (g, c, stat), built once per call."""

    name: str  # its key in ``_kernel_for``'s table: "gemm", "sorted", "gather" or "sieve"
    count: Callable[[Callable, np.ndarray], np.ndarray]  # (coloring source, sample indices) -> statistic per sample
    row_cost: int  # matrix entries per sample, for ``rng.batches``


class _SieveIndex(NamedTuple):
    """A (cycles, L) cycle list laid out for ``_sieve_counts``, the cycles grouped by first edge."""

    dense: np.ndarray  # the distinct vertices of columns 0 and 1, sorted: read in every sample
    first: np.ndarray  # (E, 2) positions in ``dense`` of each distinct first edge (r, x1)
    starts: np.ndarray  # the cycles over first edge e are starts[e]:starts[e + 1] in first-edge order
    later: np.ndarray  # (L - 2, cycles): columns 2.. of the cycles in first-edge order, one row each
    slots: tuple  # per row of ``later``: its vertices' positions in ``dense``, -1 if absent; None if none is in
    size: int  # the cycles over each first edge if every one has as many, else 0


def _sieve_index(cycles: np.ndarray) -> _SieveIndex:
    """The sieve's layout of ``graph.cycle_list``'s (cycles, L) array."""
    dense, pos = np.unique(cycles[:, :2].ravel(), return_inverse=True)
    keys, edge_of, sizes = np.unique(pos.reshape(-1, 2) @ np.array([dense.size, 1]), return_inverse=True,
                                     return_counts=True)
    later = np.ascontiguousarray(cycles[np.argsort(edge_of, kind="stable"), 2:].T)
    slots = np.searchsorted(dense, later)
    slots[dense[np.minimum(slots, dense.size - 1)] != later] = -1
    return _SieveIndex(dense, np.column_stack(np.divmod(keys, dense.size)),
                       np.concatenate(([0], np.cumsum(sizes))), later,
                       tuple(row if (row >= 0).any() else None for row in slots),
                       int(sizes[0]) if sizes.size and (sizes == sizes[0]).all() else 0)


def _sieve_counts(index: _SieveIndex, source: Callable, samples: np.ndarray) -> np.ndarray:
    """Monochromatic cycles per sample, reading a cycle's later vertices only while it is monochromatic.

    Columns 0 and 1 of the cycle list are read for every sample, and each
    distinct first edge (r, x1) is compared once, its matches taken
    row-major from the flat compare. Each monochromatic one gives a (cycle,
    sample) pair for every cycle over it, the sample held as its position in
    the block. Column by column, a pair reads its next vertex, from the dense
    colors or else pointwise from ``source`` at that position, and is dropped
    at the first color that differs from r's. When every first edge has
    ``index.size`` cycles, a match's pairs are one row of each ``later`` row
    seen as (E, size), taken whole; only survivors get cycle numbers. At c
    colors about cycles / c pairs per sample reach column 2.
    """
    colors = source(index.dense[:, None], samples[None, :])
    lead = colors.take(index.first[:, 0], axis=0)
    match = np.flatnonzero(lead == colors.take(index.first[:, 1], axis=0))  # edge * batch + position, row-major
    edge, column = np.divmod(match, samples.size)
    start, cycle = index.starts.take(edge), None
    sizes = index.size or index.starts.take(edge + 1) - start  # the cycles over each monochromatic first edge
    if not index.size:
        cycle = np.repeat(start - np.cumsum(sizes) + sizes, sizes)
        cycle += np.arange(cycle.size)
    column, color = np.repeat(column, sizes), np.repeat(lead.take(match), sizes)

    def pick(row: np.ndarray) -> np.ndarray:  # ``row``, one entry per cycle in first-edge order, at every pair
        return row.take(cycle) if cycle is not None else row.reshape(-1, sizes).take(edge, axis=0).reshape(-1)

    def cycles_of(pairs: np.ndarray) -> np.ndarray:  # the cycles of the pairs numbered ``pairs``
        return cycle.take(pairs) if cycle is not None else start.take(pairs // sizes) + pairs % sizes

    for j, (vertices, slots) in enumerate(zip(index.later, index.slots)):
        if slots is None:
            got = source(pick(vertices), samples, at=column)
        else:
            slot = pick(slots)
            got = colors.take(slot * samples.size + column)  # slot -1 reads the last row: it is read again below
            drawn = np.flatnonzero(slot < 0)
            if drawn.size:
                got[drawn] = source(vertices.take(cycles_of(drawn)), samples, at=column.take(drawn))
        kept = np.flatnonzero(got == color)
        column = column.take(kept)
        if j < len(index.later) - 1:  # the last column's survivors need only their sample
            cycle, color = cycles_of(kept), color.take(kept)
    return np.bincount(column, minlength=samples.size)


def _kernel_for(g: Graph, c: int, stat: Statistic, name: str | None = None) -> _Kernel:
    """The cheapest counting kernel for (g, c, stat), or the one ``name`` names, with its quotient or index.

    ``kernels`` holds each kernel that can count ``stat``: its price per
    sample, the counted work times the unit costs, and its build. The gather
    makes m compares (stars: two passes over the 2m + n neighbour and own
    slots) and moves a row per edge end and ``rng.batches`` block; the GEMM on
    k twin classes makes c passes of 3n and c products B h_a of k^2; the sort
    takes ceil(log2 n) steps per key, then a move and a product B h of k^2 per
    link, a vertex sharing its color with the one before it (n - E[colors
    present]). Their n draws are left out. The cheapest runs, ties going to
    the GEMM, then the sort. Both quotient kernels hold B in a block, k <=
    isqrt(BATCH_ENTRIES), and the sort its keys c*k in int64. The twin search
    stops at that cap, and runs only for a named quotient kernel or when one
    class is priced at or below the gather. Edges are 1-stars halved. Of
    cycles of length L, the gather draws n colors, compares L - 1 times per
    cycle and moves L rows per block; the sieve draws the dense set of the
    cycles' first two vertices, moves each first edge and about cycles / c^j
    reads at column j + 1, j = 1..L-2, and wins only when strictly cheaper.
    Only the kernel that runs is built. The units were fitted once (nothing is
    timed at run time) on interleaved per-kernel timings of 29 cases, each the
    minimum of 7 runs; ``test_kernel_chooser_grid`` pins the picks.

    A named kernel is held only to the caps on k, not to the gather's
    price, and a named gather runs no twin search. ValueError if
    the named kernel cannot count ``stat`` on g at c.
    """
    if not isinstance(stat, get_args(Statistic)):
        raise TypeError(f"unknown statistic {stat!r}")
    n, m = g.n, g.m
    if isinstance(stat, MonoCycles):
        cycles = graph.cycle_list(g, stat.g)
        dense = np.count_nonzero(np.bincount(cycles[:, :2].ravel(), minlength=n))  # the sieve's sizes, unindexed
        first = np.unique(cycles[:, 0] * n + cycles[:, 1]).size
        reads = len(cycles) * sum(c ** -j for j in range(1, stat.g - 1))  # the pairs reaching columns 2..L-1
        block = max(1, rng.BATCH_ENTRIES // (n + m + cycles.size))
        # the sieve's row cost: dense colors, first-edge colors and matches, about 8 arrays over the expected pairs
        kernels = {
            "gather": (_DRAW * n + _PASS * len(cycles) * (stat.g - 1) + _MOVE * cycles.size / block,
                       lambda: _Kernel("gather", functools.partial(_tuple_counts, cycles, n), n + m + cycles.size)),
            "sieve": (_DRAW * dense + _MOVE * (first + reads),
                      lambda: _Kernel("sieve", functools.partial(_sieve_counts, _sieve_index(cycles)),
                                      dense + 2 * first + 8 * math.ceil(len(cycles) / c))),
        }
    else:
        stars = isinstance(stat, MonoStars)
        r, share = (stat.r, 1) if stars else (1, 2)
        gather = _PASS * (2 * (2 * m + n) if stars else m) + _MOVE * 2 * m / max(1, rng.BATCH_ENTRIES // max(1, n + m))
        links = max(0, n + c * math.expm1(n * math.log1p(-1 / c)))  # n - E[colors present], not below 0 at huge c
        depth, most = (n - 1).bit_length(), math.isqrt(rng.BATCH_ENTRIES)  # ceil(log2 n); k for B in a block
        # row costs: colors, indicator, histogram, degrees; colors, keys, masks, link and vertex arrays, histograms
        quotients = {  # the kernels on the twin quotient: price at k classes, cap on k (sort keys c*k in int64), build
            "gemm": (lambda k: c * (3 * _PASS * n + k * k), most,
                     lambda q: _Kernel("gemm", functools.partial(_gemm_counts, _classes_of(q), c, r, share),
                                       2 * (n + q.k))),
            "sorted": (lambda k: _SORT * n * depth + (_MOVE + k * k) * links, min(most, 2**63 // c),
                       lambda q: _Kernel("sorted", functools.partial(_sorted_counts, q, c, r, share),
                                         n * (15 + 3 * q.k))),
        }
        search = name in quotients if name else min(price(1) for price, _, _ in quotients.values()) <= gather
        quotient = g.twin_quotient(most) if search else None
        kernels = {key: (price(quotient.k) if quotient is not None and quotient.k <= cap else math.inf,
                         functools.partial(build, quotient)) for key, (price, cap, build) in quotients.items()}
        kernels["gather"] = (gather, lambda: _Kernel("gather", functools.partial(_star_counts, _star_index(g), r)
                                                     if stars else functools.partial(_tuple_counts, g.edges, n), n + m))
    if name is None:
        name = min(kernels, key=lambda key: kernels[key][0])
    elif kernels.get(name, (math.inf,))[0] == math.inf:
        raise ValueError(f"no {name!r} kernel counts {stat} on this host at c={c}")
    return kernels[name][1]()


def mono_count(g: Graph, colors, stat: Statistic) -> int:
    """Evaluate one statistic on one explicit coloring."""
    kernel = _kernel_for(g, 2, stat, "gather")  # the gather never reads c; an unknown statistic fails first
    arr = np.asarray(colors)
    if arr.shape != (g.n,):
        raise BadColorVectorError(f"expected {g.n} colors, got shape {arr.shape}")
    if g.n and (arr.dtype.kind not in "iu" or arr.min() < 0):
        raise BadColorVectorError(f"colors must be nonnegative integers, got {colors!r:.80}")
    source = functools.partial(_matrix_colors, arr.astype(np.int64)[:, None])
    return int(kernel.count(source, np.zeros(1, dtype=np.int64))[0])


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
        if not (0 < scale < math.inf and math.isfinite(center)):
            raise ValueError(f"scale must be positive and finite, and center finite: got {scale!r}, {center!r}")
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
    ``c`` and ``seed`` are integers (``operator.index``): a float is a TypeError.
    """
    c = operator.index(c)
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
    c**n <= 10^7 enumerated colorings. ``c`` is an integer (``operator.index``).
    """
    c = operator.index(c)
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
