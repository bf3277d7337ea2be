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
to fill an ``(s, v)`` matrix, or ``(1, s)`` and ``(v, 1)`` for the
vertex-major ``(v, s)`` matrix of the same draws. ``words`` mixes in place.
The finalizer's first step, z ^= z >> 30, distributes over xor (``_fold``),
so a step that broadcasts two smaller operands folds both before it and
skips that step on the full size. ``uniform_ints`` and ``normals`` hash the
path up to its last step once and finish their words in tiles of about
``TILE_WORDS`` words, through buffers allocated once per call, so each pass
over a tile stays in cache; no draw depends on the layout or the tiling,
and each function's docstring gives its steps.
"""
from __future__ import annotations

import math
import operator
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
TILE_WORDS = 2**15  # hash words ``uniform_ints`` draws per tile: 256 KiB, so a tile stays in cache
_BROADCAST_ROWS = 10  # ``uniform_ints`` tiles of at most this many rows: one broadcast xor (won to 10, lost from 12)
_MAX_COLORS = 2**53  # ``uniform_ints`` resolves at most this many colors


def batches(lo: int, hi: int, row_cost: int | np.ndarray) -> Iterator[np.ndarray]:
    """int64 index blocks that cover [lo, hi) in order; one empty block if hi <= lo.

    ``row_cost`` is the array entries one index needs. As an int, a block
    holds ``BATCH_ENTRIES // row_cost`` indices, and at least one. As an
    array of the nonnegative costs of indices lo..hi-1, a block runs over
    consecutive indices while their summed cost fits ``BATCH_ENTRIES``, and
    an index costlier than that is a block alone. A caller draws each index
    from (seed, index) and reduces each row on its own, so no result
    depends on where the blocks fall.
    """
    if np.ndim(row_cost) == 0:
        rows = max(1, BATCH_ENTRIES // max(1, row_cost))
        for start in range(lo, max(hi, lo + 1), rows):
            yield np.arange(start, min(start + rows, hi), dtype=np.int64)
        return
    count = np.size(row_cost)
    if count != max(0, hi - lo):
        raise ValueError(f"need one cost per index of [{lo}, {hi}), got {count}")
    ends = np.concatenate(([0], np.cumsum(row_cost)))  # ends[i]: the summed cost of indices lo..lo+i-1
    start = 0
    while start < max(count, 1):  # an empty range still yields one block
        stop = max(start + 1, int(np.searchsorted(ends, ends[start] + BATCH_ENTRIES, side="right")) - 1)
        yield np.arange(lo + start, lo + min(stop, count), dtype=np.int64)
        start = stop


def _fold(z):
    """z ^= z >> 30, the finalizer's first step, in place for an array: fold(a ^ b) = fold(a) ^ fold(b)."""
    z ^= z >> _U64(30)
    return z


def _mix(z: np.ndarray, tmp: np.ndarray, last_round: bool = True, folded: bool = False) -> np.ndarray:
    """The splitmix64 finalizer applied to ``z`` in place; ``tmp`` is scratch of z's shape.

    With ``folded`` the first step, z ^= z >> 30, is taken as done (see
    ``_fold``). Without ``last_round`` the final z ^= z >> 31 is left out,
    which leaves the top 31 bits as they are.
    """
    for shift, mult in ((30, _M1), (27, _M2), (31, None))[: 3 if last_round else 2]:
        if shift != 30 or not folded:
            np.right_shift(z, _U64(shift), out=tmp)
            z ^= tmp
        if mult is not None:
            z *= mult
    return z


def _mix_int(z: int) -> int:
    """``_mix`` of one word as a Python int: far cheaper than numpy's 0-d arithmetic."""
    z = ((z ^ (z >> 30)) * int(_M1)) & _MASK
    z = ((z ^ (z >> 27)) * int(_M2)) & _MASK
    return z ^ (z >> 31)


def words(seed: int, *path) -> np.ndarray:
    """uint64 hash words for every index combination in ``path`` (broadcast).

    Leading scalar steps run on Python ints; each array step allocates its
    prefix's broadcast shape once and mixes it in place. Where both
    operands of a step are smaller than their broadcast, they are folded
    before it. A path of scalars gives a ``np.uint64``. ``seed`` is an
    integer (``operator.index``): a float is a TypeError, never truncated.
    """
    h = _mix_int((operator.index(seed) + int(_GOLDEN)) & _MASK)
    with np.errstate(over="ignore"):  # uint64 wraparound is intended; numpy warns for 0-d operands
        for pos, ix in enumerate(path):
            a, mult = np.asarray(ix, dtype=np.uint64), _POS[pos % len(_POS)]
            if a.ndim == 0 and isinstance(h, int):
                h = _mix_int(h ^ (int(a) * int(mult) & _MASK))
                continue
            a = a * mult
            h = _U64(h) if isinstance(h, int) else h
            folded = max(a.size, h.size) < math.prod(np.broadcast_shapes(a.shape, h.shape))
            if folded:
                a, h = _fold(a), _fold(h)
            h = np.bitwise_xor(a, h, dtype=np.uint64)
            _mix(h, np.empty_like(h), folded=folded)
    return _U64(h) if isinstance(h, int) else h


def uniforms(seed: int, *path) -> np.ndarray:
    """float64 uniforms on [0, 1)."""
    return (words(seed, *path) >> _U64(11)).astype(np.float64) * 2.0**-53


def _narrow_dtype(top: int) -> type:
    """The narrowest unsigned dtype holding 0..top, else int64."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if top <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def _checked_colors(c: int) -> int:
    """c as an integer in [1, 2^53] (``operator.index``): ValueError below, ``DomainExceededError`` above."""
    c = operator.index(c)
    if c < 1:
        raise ValueError(f"need at least 1 color, got {c}")
    if c > _MAX_COLORS:
        raise DomainExceededError(
            f"{c} colors exceed 2^53, the most that 53-bit uniforms draw uniformly"
        )
    return c


def _finish(z: np.ndarray, tmp: np.ndarray, c: int, out: np.ndarray, folded: bool) -> None:
    """The finalizer on hash words ``z`` (in place; ``tmp`` scratch), then their colors in [0, c) into ``out``.

    For c = 2^k the colors are the top k bits, and for k <= 31 the
    finalizer's last round, z ^= z >> 31, is skipped: it never changes them.
    Otherwise they are float(z >> 11) * (c * 2^-53), read through an int64 view.
    """
    shift = 64 - (c.bit_length() - 1) if c > 1 and c & (c - 1) == 0 else None
    _mix(z, tmp, last_round=shift is None or shift < 33, folded=folded)
    if shift is not None:  # the shift's values are below 2^53: an int64 output takes the same bits
        np.right_shift(z, _U64(shift), out=out.view(np.uint64) if out.dtype == np.int64 else out, casting="unsafe")
    else:  # no clamp to c - 1: even (2^53 - 1) * (c * 2^-53) rounds to below c
        np.multiply(np.right_shift(z, _U64(11), out=z).view(np.int64), c * 2.0**-53, out=out, casting="unsafe")


def uniform_ints(seed: int, c: int, *path, at: np.ndarray | None = None) -> np.ndarray:
    """Uniform integers in [0, c), in the narrowest unsigned dtype holding c - 1.

    floor(u * c) of the 53-bit uniform u = (w >> 11) * 2^-53 of ``words``;
    the residual bias is below c * 2^-53 and irrelevant at the package's
    tolerances. For c = 2^k that is the top k bits of w; otherwise it is
    float(w >> 11) * (c * 2^-53), which rounds exactly as u * c does because
    c * 2^-53 is exact. c must be an integer (``operator.index``, else
    TypeError) in [1, 2^53]: ValueError below, and ``DomainExceededError``
    above, where the uniforms miss colors. The path needs at least one step.

    The output has the path's broadcast shape and is filled in tiles of
    leading-axis rows that hold about ``TILE_WORDS`` words (one row if a
    row holds more), so every pass over a tile stays in cache. ``words``
    hashes the path up to its last step; the last step and the finalizer
    run here, in tile buffers allocated once per call, and a last step of
    the output's full shape is multiplied and folded tile by tile. Unless
    the prefix varies by row, both operands are folded first (see
    ``_fold``); a tile of at most ``_BROADCAST_ROWS`` rows is then one
    broadcast xor of them, and for more rows the head is laid out once as
    a tile. ``_finish`` writes each tile's colors straight into the output.
    Each draw depends only on its own path, so the tiling changes no value.
    Pass the vertex index as the leading axis, ``(v, 1)`` against
    ``(1, s)``, for the vertex-major (v, s) matrix the counting kernels read.

    With ``at``, the draws are reads at block positions: for ``path =
    (*prefix, last)``, read j is ``uniform_ints(seed, c, *prefix, last[j])``
    with each array of ``prefix`` taken at ``at[j]``. The prefix must
    broadcast to one block's 1-D indices and each position lie in [0, block
    size), else ValueError; a prefix of scalars has no block. ``last`` and
    ``at`` broadcast to the reads' shape. The prefix is hashed and folded
    once, at most one word per block index, and gathered per tile of reads.
    """
    c = _checked_colors(c)
    if not path:
        raise ValueError("need at least one path step")
    prefix = [np.asarray(ix, dtype=np.uint64) for ix in path[:-1]]
    last = path[-1]  # an int64 array, such as one read per position, is viewed as uint64: same bits, no copy
    last = last.view(np.uint64) if isinstance(last, np.ndarray) and last.dtype == np.int64 else np.asarray(last, np.uint64)
    if at is None:
        shape = np.broadcast_shapes(*(a.shape for a in (*prefix, last)))
        # only parts of full rank with a leading axis longer than 1 vary along it
        sliced = [a.ndim == len(shape) > 0 and a.shape[0] > 1 for a in (*prefix, last)]
        head = None if any(sliced[:-1]) else _fold(np.asarray(words(seed, *prefix)))
    else:  # the reads run as one flat row of tiles, each gathering the block's head at its positions
        head = _fold(np.asarray(words(seed, *prefix)))
        at, last = np.broadcast_arrays(np.asarray(at, dtype=np.intp), last)
        if head.ndim > 1:
            raise ValueError(f"the prefix must broadcast to one block's 1-D indices, got shape {head.shape}")
        if head.ndim and at.size and at.view(np.uintp).max() >= head.size:  # negatives view as 2^63 and up
            raise ValueError(f"positions must lie in [0, {head.size}), the block, got {at.min()}..{at.max()}")
        shape, at, last, head = at.shape, at.reshape(-1), last.reshape(-1), head.reshape(-1)
    out = np.empty(shape or (1,) if at is None else at.shape, dtype=_narrow_dtype(c - 1))
    mult = _POS[len(prefix) % len(_POS)]
    full = last.shape == out.shape  # multiplied and folded per tile: over the whole array it leaves the cache
    with np.errstate(over="ignore"):  # uint64 wraparound is intended; numpy warns for 0-d operands
        if not full:
            last = last * mult if head is None else _fold(last * mult)
    step = max(1, TILE_WORDS // max(1, math.prod(out.shape[1:])))
    z = np.empty((min(step, out.shape[0]), *out.shape[1:]), dtype=np.uint64)
    tmp = np.empty_like(z)
    tiled = at is None and head is not None and step > _BROADCAST_ROWS
    if tiled:  # many short rows: the head laid out once as a contiguous tile
        head = np.broadcast_to(head, z.shape).copy()
    for r in range(0, out.shape[0], step):
        rows = slice(r, r + step)
        tile = out[rows]
        zt, tt = z[: len(tile)], tmp[: len(tile)]
        if full:
            np.multiply(last[rows], mult, out=zt)
            if head is not None:
                zt ^= np.right_shift(zt, _U64(30), out=tt)
        elif head is not None and not tiled:  # few long rows: one broadcast xor, and the tile is done
            np.bitwise_xor(last[rows] if sliced[-1] else last, head, out=zt)
        else:  # copy, then one contiguous xor: over many short rows a broadcast xor is slower
            np.copyto(zt, last[rows] if sliced[-1] else last)
        if at is not None:  # positions were checked above; "raise" would buffer the output
            zt ^= np.take(head, at[rows], out=tt, mode="clip")
        elif head is None:  # a prefix that varies by row is hashed per tile, and runs the whole finalizer
            zt ^= words(seed, *(a[rows] if cut else a for a, cut in zip(prefix, sliced)))
        elif tiled or full:
            zt ^= head[: len(tile)] if tiled else head
        _finish(zt, tt, c, tile, folded=head is not None)
    return out.reshape(shape)


def normals(seed: int, *path) -> np.ndarray:
    """Standard normals via Box-Muller; two words per variate.

    The words are ``words(seed, *path, 0)`` and ``words(seed, *path, 1)``:
    the path is hashed once, and both trailing steps finish from it in
    tiles of ``TILE_WORDS`` words, through buffers allocated once per call.
    """
    hashed = np.asarray(words(seed, *path))
    h, out = hashed.reshape(-1), np.empty(hashed.size)
    w0, w1, tmp = (np.empty(min(h.size, TILE_WORDS), dtype=np.uint64) for _ in range(3))
    u1, u2 = np.empty(w0.shape), np.empty(w0.shape)
    other = _fold(_POS[len(path) % len(_POS)])  # trailing step 1 folded; step 0 leaves h as it is
    for r in range(0, h.size, TILE_WORDS):
        ht = h[r: r + TILE_WORDS]
        a, b, t, x, y = (buf[: ht.size] for buf in (w0, w1, tmp, u1, u2))
        np.bitwise_xor(np.right_shift(ht, _U64(30), out=a), ht, out=a)
        np.bitwise_xor(a, other, out=b)
        np.copyto(x, np.right_shift(_mix(a, t, folded=True), _U64(11), out=a).view(np.int64))
        np.copyto(y, np.right_shift(_mix(b, t, folded=True), _U64(11), out=b).view(np.int64))
        x += 0.5
        x *= 2.0**-53  # u1 in (0, 1) for the log
        y *= 2.0**-53
        np.sqrt(np.multiply(np.log(x, out=x), -2.0, out=x), out=x)
        np.cos(np.multiply(y, 2.0 * math.pi, out=y), out=y)
        np.multiply(x, y, out=out[r: r + ht.size])
    return out.reshape(hashed.shape) if hashed.ndim else out[0]


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
