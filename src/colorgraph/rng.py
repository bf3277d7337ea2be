"""Counter-based random primitives.

Every random quantity in this package is a pure function of a 64-bit seed
and an index path: ``word(seed, i0, i1, ...)`` hashes the path with chained
splitmix64 finalizer rounds (Steele, Lea, Flood; the SplittableRandom mixer).
Consequences:

* sample ``i`` of a run can be regenerated in isolation, so results are
  bit-identical however ``batches``, the package's one splitter of index
  ranges, cuts the range into blocks and however many workers ran them;
* distinct purposes use distinct leading stream constants and cannot
  collide structurally.

All bulk operations are vectorized over numpy uint64 arrays and broadcast
like ordinary numpy ops: pass index arrays shaped ``(s, 1)`` and ``(1, v)``
to fill an ``(s, v)`` matrix.
"""
from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .errors import DomainExceededError

_U64 = np.uint64
_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_M1 = _U64(0xBF58476D1CE4E5B9)
_M2 = _U64(0x94D049BB133111EB)

# Position-dependent odd multipliers so that word(s, a, b) != word(s, b, a).
_POS = (
    _U64(0x9E3779B97F4A7C15),
    _U64(0xC2B2AE3D27D4EB4F),
    _U64(0x165667B19E3779F9),
    _U64(0xD6E8FEB86659FD93),
    _U64(0xA5A5A5A5A5A5A5A5 | 1),
)

# Stream tags for the package's independent consumers.
STREAM_COLORS = 0x01
STREAM_ER = 0x02
STREAM_INHOM = 0x03
STREAM_REGULAR = 0x04
STREAM_GW = 0x05
STREAM_LAW = 0x06
STREAM_SURROGATE = 0x07

BATCH_ENTRIES = 2_000_000  # array entries one block of ``batches`` may hold


def batches(lo: int, hi: int, row_cost: int) -> Iterator[np.ndarray]:
    """int64 index blocks that cover [lo, hi) in order; one empty block if hi <= lo.

    ``row_cost`` is the array entries one index needs; a block holds
    ``BATCH_ENTRIES // row_cost`` indices, and at least one. A caller draws
    each index from (seed, index) and reduces each row on its own, so no
    result depends on where the blocks fall.
    """
    rows = max(1, BATCH_ENTRIES // max(1, row_cost))
    for start in range(lo, max(hi, lo + 1), rows):
        yield np.arange(start, min(start + rows, hi), dtype=np.int64)


def _mix(z: np.ndarray) -> np.ndarray:
    # uint64 wraparound is intended; numpy only warns for scalar operands
    with np.errstate(over="ignore"):
        z = z ^ (z >> _U64(30))
        z = z * _M1
        z = z ^ (z >> _U64(27))
        z = z * _M2
        return z ^ (z >> _U64(31))


def words(seed: int, *path) -> np.ndarray:
    """uint64 hash words for every index combination in ``path`` (broadcast)."""
    with np.errstate(over="ignore"):
        h = _mix(_U64(int(seed) & _MASK) + _GOLDEN)
        for pos, ix in enumerate(path):
            a = np.asarray(ix, dtype=np.uint64)
            h = _mix(h ^ (a * _POS[pos % len(_POS)]))
    return h


def uniforms(seed: int, *path) -> np.ndarray:
    """float64 uniforms on [0, 1)."""
    return (words(seed, *path) >> _U64(11)).astype(np.float64) * 2.0**-53


def uniforms_open(seed: int, *path) -> np.ndarray:
    """float64 uniforms on (0, 1), safe as a log argument."""
    return ((words(seed, *path) >> _U64(11)).astype(np.float64) + 0.5) * 2.0**-53


def uniform_ints(seed: int, c: int, *path) -> np.ndarray:
    """Uniform integers in [0, c) as int64.

    floor(u * c) of a 53-bit uniform; the residual bias is below c * 2^-53
    and irrelevant at the package's tolerances.
    """
    vals = np.floor(uniforms(seed, *path) * c).astype(np.int64)
    return np.minimum(vals, c - 1)


def normals(seed: int, *path) -> np.ndarray:
    """Standard normals via Box-Muller; two words per variate."""
    u1 = uniforms_open(seed, *path, 0)
    u2 = uniforms(seed, *path, 1)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)


def poissons(seed: int, mean, *path) -> np.ndarray:
    """Poisson variates by CDF inversion of one uniform per index.

    ``mean`` is a scalar or an array broadcastable against the path shape.
    Intended for small and moderate means (iteration count grows with the
    mean plus a wide tail margin). A mean above about 708.4, where exp(-mean)
    is no longer a normal double, raises ``DomainExceededError``: the
    inversion would start from a term that has lost its precision or is 0.
    """
    u = uniforms(seed, *path)
    lam = np.broadcast_to(np.asarray(mean, dtype=np.float64), u.shape)
    if np.any(lam < 0):
        raise ValueError("Poisson mean must be nonnegative")
    term = np.exp(-lam)
    if np.any(term < np.finfo(np.float64).tiny):
        raise DomainExceededError(
            f"Poisson mean {float(np.max(lam)):.6g} is too large for CDF inversion: "
            "exp(-mean) underflows below the smallest normal double"
        )
    cdf = term.copy()
    out = np.zeros(u.shape, dtype=np.int64)
    pending = u >= cdf
    kmax = np.floor(lam + 12 * np.sqrt(lam + 1.0) + 60)  # per index, so a draw ignores its block
    k = 0
    while np.any(pending):
        k += 1
        term = term * lam / k
        cdf = cdf + term
        out[pending] = k
        pending &= (u >= cdf) & (k <= kmax)
    return out


def permutation(seed: int, n: int, *path) -> np.ndarray:
    """Deterministic uniform permutation of range(n) for the given path.

    Sorts range(n) by per-element hash words; ties (probability ~ n^2/2^64)
    are broken stably, so the output is deterministic regardless.
    """
    keys = words(seed, *path, np.arange(n, dtype=np.uint64))
    return np.argsort(keys, kind="stable")
