"""Independent reference computations used to check the program's outputs.

Nothing here imports ``colorgraph``. Integer results (simulated counts,
exact laws, census counts) are recomputed by other means and compared byte
for byte; float results are compared with closed forms within a stated
tolerance, so a faster kernel or a deterministic CDF is judged on
correctness and not on its bytes.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np

# The counter-based stream the package documents: word(seed, i0, i1, ...) is
# chained splitmix64 finalizer rounds over the index path, with
# position-dependent odd multipliers. These constants define the stream.
_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_POS = (
    0x9E3779B97F4A7C15,
    0xC2B2AE3D27D4EB4F,
    0x165667B19E3779F9,
    0xD6E8FEB86659FD93,
    0xA5A5A5A5A5A5A5A5 | 1,
)
STREAM_COLORS = 0x01
STREAM_ER = 0x02

# Dense two-sided bound on a Kolmogorov distance that a correct sampler
# exceeds with probability below 1e-9 (Dvoretzky-Kiefer-Wolfowitz, Massart
# constant): sqrt(ln(2 / 1e-9) / (2 n)).
_DKW_LOG_TERM = math.log(2.0 / 1e-9)


def _mix_int(z: int) -> int:
    z ^= z >> 30
    z = (z * _M1) & _MASK
    z ^= z >> 27
    z = (z * _M2) & _MASK
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = z ^ (z >> np.uint64(30))
        z = z * np.uint64(_M1)
        z = z ^ (z >> np.uint64(27))
        z = z * np.uint64(_M2)
        return z ^ (z >> np.uint64(31))


def stream_words(seed: int, stream: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Words for the path (stream, row, col) as a (len(rows), len(cols)) matrix."""
    head = _mix_int((seed + _GOLDEN) & _MASK)
    head = _mix_int(head ^ ((stream * _POS[0]) & _MASK))
    with np.errstate(over="ignore"):
        per_row = _mix_array(
            np.uint64(head) ^ (rows.astype(np.uint64) * np.uint64(_POS[1]))
        )
        return _mix_array(
            per_row[:, None] ^ (cols.astype(np.uint64) * np.uint64(_POS[2]))[None, :]
        )


def stream_uniforms(seed: int, stream: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    return (stream_words(seed, stream, rows, cols) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def color_matrix(seed: int, rows: np.ndarray, n: int, c: int) -> np.ndarray:
    """Colors of samples ``rows`` as the smallest unsigned dtype that holds c."""
    u = stream_uniforms(seed, STREAM_COLORS, rows, np.arange(n))
    vals = np.minimum(np.floor(u * c), c - 1)
    dtype = np.uint8 if c <= 256 else np.uint16
    return vals.astype(dtype)


def _rows(samples: int, step: int):
    for lo in range(0, samples, step):
        yield np.arange(lo, min(lo + step, samples))


def counts_complete(seed: int, n: int, c: int, samples: int) -> np.ndarray:
    """Monochromatic edges of K_n: sum over colors of C(class size, 2).

    Each row is sorted; a vertex at position j of a run of equal colors that
    starts at position s closes j - s monochromatic pairs.
    """
    out = np.empty(samples, dtype=np.int64)
    step = max(1, 4_000_000 // max(1, n))
    pos = np.arange(n)
    for rows in _rows(samples, step):
        col = np.sort(color_matrix(seed, rows, n, c), axis=1)
        new_run = np.ones(col.shape, dtype=bool)
        new_run[:, 1:] = col[:, 1:] != col[:, :-1]
        start = np.maximum.accumulate(np.where(new_run, pos, 0), axis=1)
        out[rows] = (pos - start).sum(axis=1)
    return out


def counts_bipartite(seed: int, a: int, b: int, c: int, samples: int) -> np.ndarray:
    """Monochromatic edges of K_{a,b} (sides 0..a-1, a..a+b-1): sum of n_L n_R."""
    out = np.empty(samples, dtype=np.int64)
    step = max(1, 4_000_000 // max(1, a + b))
    for rows in _rows(samples, step):
        col = color_matrix(seed, rows, a + b, c).astype(np.int64)
        base = c * np.arange(rows.size)[:, None]
        left = np.bincount((col[:, :a] + base).ravel(), minlength=rows.size * c)
        right = np.bincount((col[:, a:] + base).ravel(), minlength=rows.size * c)
        out[rows] = (left * right).reshape(rows.size, c).sum(axis=1)
    return out


def counts_edges(seed: int, n: int, edges: np.ndarray, c: int, samples: int) -> np.ndarray:
    """Monochromatic edges of an explicit edge list (shape (m, 2))."""
    out = np.empty(samples, dtype=np.int64)
    step = max(1, 4_000_000 // max(1, n + len(edges)))
    for rows in _rows(samples, step):
        col = color_matrix(seed, rows, n, c)
        out[rows] = np.count_nonzero(col[:, edges[:, 0]] == col[:, edges[:, 1]], axis=1)
    return out


def counts_stars(seed: int, n: int, edges: np.ndarray, c: int, r: int, samples: int) -> np.ndarray:
    """sum_v C(#neighbors of v sharing v's color, r), by a padded neighbor table."""
    nbrs = [[] for _ in range(n)]
    for u, v in edges.tolist():
        nbrs[u].append(v)
        nbrs[v].append(u)
    width = max((len(x) for x in nbrs), default=0)
    table = np.full((n, max(width, 1)), n, dtype=np.int64)  # n = padding column
    for v, row in enumerate(nbrs):
        table[v, : len(row)] = row
    comb = np.array([math.comb(d, r) for d in range(width + 1)], dtype=np.int64)
    out = np.empty(samples, dtype=np.int64)
    step = max(1, 2_000_000 // max(1, n * max(width, 1)))
    for rows in _rows(samples, step):
        col = color_matrix(seed, rows, n, c).astype(np.int32)
        padded = np.concatenate((col, np.full((rows.size, 1), -1, dtype=np.int32)), axis=1)
        same = (padded[:, table] == col[:, :, None]).sum(axis=2)
        out[rows] = comb[same].sum(axis=1)
    return out


def triangles(n: int, edges: np.ndarray) -> np.ndarray:
    """Every triangle u < v < w of the edge list, shape (t, 3)."""
    nbr = [set() for _ in range(n)]
    for u, v in edges.tolist():
        nbr[u].add(v)
        nbr[v].add(u)
    found = []
    for u, v in edges.tolist():
        lo, hi = min(u, v), max(u, v)
        for w in nbr[lo] & nbr[hi]:
            if w > hi:
                found.append((lo, hi, w))
    return np.asarray(sorted(found), dtype=np.int64).reshape(-1, 3)


def counts_cycles(seed: int, n: int, cycles: np.ndarray, c: int, samples: int) -> np.ndarray:
    """Number of listed cycles whose vertices all share one color."""
    out = np.empty(samples, dtype=np.int64)
    step = max(1, 4_000_000 // max(1, n + cycles.size))
    for rows in _rows(samples, step):
        col = color_matrix(seed, rows, n, c)
        cc = col[:, cycles]
        out[rows] = np.count_nonzero((cc == cc[:, :, :1]).all(axis=2), axis=1)
    return out


def digest(counts) -> str:
    """sha256 of the counts as little-endian int64."""
    return hashlib.sha256(np.ascontiguousarray(counts, dtype="<i8").tobytes()).hexdigest()


def er_edges(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    """Edges of the package's Erdos-Renyi family: pair (i, j) kept when its uniform < p."""
    iu, jv = np.triu_indices(n, k=1)
    head = _mix_int((seed + _GOLDEN) & _MASK)
    head = _mix_int(head ^ ((STREAM_ER * _POS[0]) & _MASK))
    with np.errstate(over="ignore"):
        h = _mix_array(np.uint64(head) ^ (iu.astype(np.uint64) * np.uint64(_POS[1])))
        h = _mix_array(h ^ (jv.astype(np.uint64) * np.uint64(_POS[2])))
    u = (h >> np.uint64(11)).astype(np.float64) * 2.0**-53
    keep = u < p
    return list(zip(iu[keep].tolist(), jv[keep].tolist()))


# -- exact laws and small structures by brute force ---------------------------------


def exact_edge_law(n: int, edges, c: int) -> dict[int, Fraction]:
    """Law of the monochromatic-edge count by enumerating all c^n colorings."""
    tally: dict[int, int] = {}
    for col in itertools.product(range(c), repeat=n):
        k = sum(1 for u, v in edges if col[u] == col[v])
        tally[k] = tally.get(k, 0) + 1
    total = c**n
    return {k: Fraction(f, total) for k, f in sorted(tally.items())}


def central_z_moment(n: int, edges, c: int, order: int) -> Fraction:
    """E[((N - m/c) sqrt(c/m))^order] for even order, by enumeration."""
    m = len(edges)
    law = exact_edge_law(n, edges, c)
    mean = Fraction(m, c)
    raw = sum(p * (k - mean) ** order for k, p in law.items())
    return raw * Fraction(c, m) ** (order // 2)


def half_integral_optimum(n: int, edges) -> Fraction:
    """max sum(phi) over phi in {0, 1/2, 1}^n with phi_u + phi_v <= 1 on every edge."""
    half = Fraction(1, 2)
    best = Fraction(0)
    for phi in itertools.product((Fraction(0), half, Fraction(1)), repeat=n):
        if all(phi[u] + phi[v] <= 1 for u, v in edges):
            best = max(best, sum(phi))
    return best


def deficiency(n: int, edges) -> int:
    """max over vertex sets S of |S| - |N(S)|, by enumerating every S."""
    nbr = [set() for _ in range(n)]
    for u, v in edges:
        nbr[u].add(v)
        nbr[v].add(u)
    best = 0
    for mask in range(1, 1 << n):
        members = [v for v in range(n) if mask >> v & 1]
        hood = set().union(*(nbr[v] for v in members))
        best = max(best, len(members) - len(hood))
    return best


def cycle_counts(n: int, edges, lengths) -> dict[int, int]:
    """Unlabeled cycle counts by length, each cycle found once from its smallest vertex."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    longest = max(lengths)
    counts = {g: 0 for g in lengths}
    on_path = bytearray(n)

    def walk(root: int, second: int, last: int, depth: int) -> None:
        if depth in counts and second < last and root in adj[last]:
            counts[depth] += 1
        if depth == longest:
            return
        for w in adj[last]:
            if w > root and not on_path[w]:
                on_path[w] = 1
                walk(root, second, w, depth + 1)
                on_path[w] = 0

    for root in range(n):
        on_path[root] = 1
        for second in adj[root]:
            if second > root:
                on_path[second] = 1
                walk(root, second, second, 2)
                on_path[second] = 0
        on_path[root] = 0
    return counts


def tuple_census_counts(n: int, edges, k: int) -> list[int]:
    """Sorted class sizes of ordered edge pairs: same edge, sharing a vertex, disjoint."""
    if k != 2:
        raise ValueError("only pairs are checked")
    m = len(edges)
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    wedge_pairs = 2 * sum(d * (d - 1) // 2 for d in deg)
    return sorted([m, wedge_pairs, m * m - m - wedge_pairs])


# -- closed-form distributions ----------------------------------------------------------


def normal_cdf(x: float, variance: float = 1.0) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0 * variance)))


def scaled_chisq1_cdf(x: float, scale: float) -> float:
    """P(scale * (chi2_1 - 1) <= x) = erf(sqrt(y / 2)) with y = x / scale + 1."""
    y = x / scale + 1.0
    return math.erf(math.sqrt(y / 2.0)) if y > 0 else 0.0


def laplace_cdf(x: float, b: float) -> float:
    return 0.5 * math.exp(x / b) if x < 0 else 1.0 - 0.5 * math.exp(-x / b)


def poisson_pmf(lam: float, k: int) -> float:
    """e^-lam lam^k / k! by the product recursion p_k = p_(k-1) lam / k."""
    p = math.exp(-lam)
    for i in range(1, k + 1):
        p *= lam / i
    return p


@functools.lru_cache(maxsize=None)
def poisson_poisson_pmf(mu: float, k: int, terms: int = 120) -> float:
    """P(W = k) for W ~ Poisson(Z), Z ~ Poisson(mu); terms past j = 120 are below 1e-150 for mu <= 2."""
    total = 0.0
    for j in range(terms):
        total += poisson_pmf(mu, j) * (poisson_pmf(float(j), k) if j else float(k == 0))
    return total


def ks_one_sample(samples, cdf) -> float:
    """sup |F_n - F| over both sides of every jump of the empirical cdf."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = x.size
    ref = np.array([cdf(float(v)) for v in x])
    return float(max((np.arange(1, n + 1) / n - ref).max(), (ref - np.arange(n) / n).max(), 0.0))


def ks_two_sample(a, b) -> float:
    """sup |F_a - F_b| over the union of both samples."""
    xa, xb = np.sort(np.asarray(a, np.float64)), np.sort(np.asarray(b, np.float64))
    grid = np.union1d(xa, xb)
    fa = np.searchsorted(xa, grid, side="right") / xa.size
    fb = np.searchsorted(xb, grid, side="right") / xb.size
    return float(np.abs(fa - fb).max())


def dkw_bound(n: int) -> float:
    return math.sqrt(_DKW_LOG_TERM / (2.0 * n))


def tv(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def empirical_pmf(counts) -> dict[int, float]:
    values, freq = np.unique(np.asarray(counts), return_counts=True)
    return {int(v): f / len(counts) for v, f in zip(values, freq)}
