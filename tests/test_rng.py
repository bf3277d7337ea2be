"""``rng.uniform_ints`` against the original color formula.

Colors are drawn tile by tile in the narrowest unsigned dtype holding
c - 1, as a power-of-two shift or a single float multiply. Every value
must equal ``oracles.uniform_ints_reference`` for any tile size and in
either layout: vertex-major (v, s) is the transpose of sample-major (s, v).
c = 2^31 is the last power of two whose draw skips the finalizer's last
round, 2^32 the first that runs it, and 2^33 the first drawn as int64.
``rng.normals`` finishes both of its words from one hash of the path and
must equal ``oracles.normals_reference``. The references are built on
``oracles.words_reference``, the splitmix chain in Python ints one element
at a time, so a wrong fold or tile in ``rng.words`` cannot pass them.
``rng.uniform_ints`` with ``at`` reads draws at block positions, the block's
prefix hashed once: it must equal the reference on the gathered path, in
``at``'s shape, and refuse a position outside the block or a prefix that is
not one 1-D block.
``rng.batches`` cuts index ranges into blocks, by a cost per index or one
cost for all.
"""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import normals_reference, uniform_ints_reference, words_reference

from colorgraph import rng
from colorgraph.errors import DomainExceededError

COLORS = (1, 2, 3, 7, 30, 255, 256, 257, 1770, 65536, 65537, 2**31, 2**32, 2**32 + 1, 2**33, 2**40 + 3, 2**53)
TINY_TILE = 7


def narrow(c: int) -> type:
    for dtype, top in ((np.uint8, 2**8), (np.uint16, 2**16), (np.uint32, 2**32)):
        if c <= top:
            return dtype
    return np.int64


SAMPLES = np.arange(1000, 1300, dtype=np.int64)  # 300 samples
VERTICES = np.arange(201, dtype=np.int64)  # 60,300 draws: two default tiles


def sample_major(c: int, samples=SAMPLES, vertices=VERTICES) -> np.ndarray:
    return rng.uniform_ints(5, c, rng.STREAM_COLORS, samples[:, None], vertices[None, :])


def vertex_major(c: int, samples=SAMPLES, vertices=VERTICES) -> np.ndarray:
    return rng.uniform_ints(5, c, rng.STREAM_COLORS, samples[None, :], vertices[:, None])


@pytest.mark.parametrize("c", COLORS)
def test_values_and_dtype_match_reference(c):
    drawn = sample_major(c)
    assert drawn.dtype == narrow(c)
    assert drawn.shape == (SAMPLES.size, VERTICES.size)
    expected = uniform_ints_reference(5, c, rng.STREAM_COLORS, SAMPLES[:, None], VERTICES[None, :])
    assert np.array_equal(drawn.astype(np.int64), expected)
    assert 0 <= int(drawn.min()) and int(drawn.max()) <= c - 1


@pytest.mark.parametrize("c", COLORS)
def test_layouts_agree(c):
    assert np.array_equal(vertex_major(c), sample_major(c).T)


@pytest.mark.parametrize("c", COLORS)
def test_tiny_tiles_change_nothing(c, monkeypatch):
    # rows of 40 or 13 draws, wider than a tile of 7, go one to a tile; rows of 3 go two
    grids = [(SAMPLES[:40], VERTICES[:13]), (SAMPLES[:40], VERTICES[:3])]
    default = [(sample_major(c, *grid), vertex_major(c, *grid)) for grid in grids]
    monkeypatch.setattr(rng, "TILE_WORDS", TINY_TILE)
    for grid, (samples_first, vertices_first) in zip(grids, default):
        assert np.array_equal(sample_major(c, *grid), samples_first)
        assert np.array_equal(vertex_major(c, *grid), vertices_first)
        assert np.array_equal(vertices_first, samples_first.T)


@pytest.mark.parametrize("tile", [None, TINY_TILE])
def test_other_path_shapes(tile, monkeypatch):
    # scalars, a 1-D index (as limits draws) and a 3-D broadcast tile the same way; so do prefixes
    # that vary by row, hashed tile by tile, and last steps of full shape, sliced into the tile buffer
    if tile is not None:
        monkeypatch.setattr(rng, "TILE_WORDS", tile)
    grid = (np.arange(4)[:, None, None], np.arange(5)[None, :, None], np.arange(6)[None, None, :])
    rows, cols = np.arange(9)[:, None], np.arange(6)[None, :]
    for c in (2, 2**31, 2**32, 1770):
        for path in [(3, 4), (rng.STREAM_LAW, np.arange(50), 2), (1, *grid), (np.arange(3)[:, None], 9),
                     (cols, rows + 3 * cols), (rows, rows * cols), (rows * cols, 1, rows)]:
            assert np.array_equal(rng.uniform_ints(8, c, *path), uniform_ints_reference(8, c, *path)), (c, path)
    assert rng.uniform_ints(8, 3, np.arange(0), 1).shape == (0,)


@pytest.mark.parametrize("tile", [None, TINY_TILE])
def test_position_reads_match_the_python_chain(tile, monkeypatch):
    # 1,003 reads: not a multiple of either tile; prefixes of one scalar step, a stream and a block, or two arrays;
    # then 1,003 reads laid out as (17, 59), which come back in that shape
    if tile is not None:
        monkeypatch.setattr(rng, "TILE_WORDS", tile)
    gen = np.random.default_rng(3)
    at, last = gen.integers(0, 40, 1003), gen.integers(0, 10**6, 1003)
    block = np.arange(70, 110)
    for c in (2, 3, 1770, 2**32 + 1):
        for prefix in [(rng.STREAM_COLORS, block), (block, block * 3), (5,)]:
            rows = [a[at] if np.ndim(a) else a for a in prefix]
            drawn = rng.uniform_ints(2, c, *prefix, last, at=at)
            assert drawn.dtype == narrow(c)
            assert np.array_equal(drawn, uniform_ints_reference(2, c, *rows, last)), (c, prefix)
        grid, vertices = at.reshape(17, 59), last.reshape(17, 59)
        drawn = rng.uniform_ints(2, c, rng.STREAM_COLORS, block, vertices, at=grid)
        assert drawn.shape == (17, 59) and drawn.dtype == narrow(c)
        assert np.array_equal(drawn, uniform_ints_reference(2, c, rng.STREAM_COLORS, block[grid], vertices)), c
    assert rng.uniform_ints(2, 30, rng.STREAM_COLORS, block, np.arange(0), at=np.arange(0)).shape == (0,)
    with pytest.raises(DomainExceededError):
        rng.uniform_ints(2, 2**53 + 1, rng.STREAM_COLORS, block, last, at=at)


@pytest.mark.parametrize("prefix,at", [
    ((rng.STREAM_COLORS, np.arange(40)), [39, 45]),
    ((rng.STREAM_COLORS, np.arange(40)), [0, -3]),
    ((rng.STREAM_COLORS, np.arange(40)), [40]),
    ((rng.STREAM_COLORS, np.arange(40)[:, None]), [0, 1]),
], ids=["past-the-block", "negative", "block-size", "2-D-prefix"])
def test_position_reads_refuse_bad_positions(prefix, at):
    # np.take's clip mode would read position 39 for 45 and position 0 for -3; a 2-D prefix would be flattened
    with pytest.raises(ValueError):
        rng.uniform_ints(2, 30, *prefix, [3, 4][: len(at)], at=at)


def test_path_needs_a_step():
    with pytest.raises(ValueError, match="path step"):
        rng.uniform_ints(5, 2)


@pytest.mark.parametrize("path", [
    (rng.STREAM_LAW, 7, 0),
    (rng.STREAM_LAW, np.arange(300), 0),
    (rng.STREAM_LAW, np.arange(5)[:, None, None], np.arange(4)[None, :, None], np.arange(3)[None, None, :]),
], ids=["scalar", "1-D", "3-D"])
def test_normals_match_reference(path):
    drawn = rng.normals(11, *path)
    expected = normals_reference(11, *path)
    assert np.shape(drawn) == np.shape(expected)
    assert np.array_equal(drawn, expected)


ORACLE_PATHS = {
    "broadcast (s,w,d)": (rng.STREAM_LAW, np.arange(9)[:, None, None], np.arange(4)[None, :, None],
                          np.arange(3)[None, None, :]),
    "vertex-major": (rng.STREAM_COLORS, np.arange(23)[None, :], np.arange(9)[:, None]),
    "sample-major": (rng.STREAM_COLORS, np.arange(23)[:, None], np.arange(9)[None, :]),
    "row-varying prefix": (np.arange(11)[:, None], np.arange(11)[:, None] * np.arange(5)[None, :] + 7),
    "1-D prefix": (rng.STREAM_LAW, np.arange(40), 2),
    "full last step": (3, np.arange(6)[:, None] + np.arange(5)[None, :]),
}


@pytest.mark.parametrize("tile", [None, TINY_TILE])
@pytest.mark.parametrize("name", ORACLE_PATHS)
def test_words_colors_and_normals_match_the_python_chain(name, tile, monkeypatch):
    # both operands of a broadcast step are folded before it; a prefix that varies by row is not.
    # Tiles of every row count are filled both ways: by one broadcast xor, and by copy-then-xor
    path = ORACLE_PATHS[name]
    if tile is not None:
        monkeypatch.setattr(rng, "TILE_WORDS", tile)
    assert np.array_equal(rng.words(4, *path), words_reference(4, *path))
    for broadcast_rows in (0, 2**31):
        monkeypatch.setattr(rng, "_BROADCAST_ROWS", broadcast_rows)
        for c in (2, 3, 256, 1770, 2**32, 2**32 + 1):
            assert np.array_equal(rng.uniform_ints(4, c, *path), uniform_ints_reference(4, c, *path)), c
    assert np.array_equal(rng.normals(4, *path), normals_reference(4, *path))


def test_sizes_off_the_tile_match_the_python_chain():
    # 137 rows of 241 draws: a default tile of 135 rows, then one of 2; 33,001 normals: a tile and one more
    path = (rng.STREAM_COLORS, np.arange(241)[None, :], np.arange(137)[:, None])
    assert np.array_equal(rng.words(6, *path), words_reference(6, *path))
    for c in (2, 1770):
        assert np.array_equal(rng.uniform_ints(6, c, *path), uniform_ints_reference(6, c, *path)), c
    flat = (rng.STREAM_LAW, np.arange(rng.TILE_WORDS + 233))
    assert np.array_equal(rng.normals(6, *flat), normals_reference(6, *flat))


@pytest.mark.parametrize("path", [(3, 4), (np.int64(3), np.array(2**40)), (np.array(7),)], ids=["ints", "0-d", "one"])
def test_scalar_paths_raise_no_warning(path):
    # the uint64 products of 0-d steps wrap around, as the hash intends, and numpy warns for 0-d operands
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rng.words(9, *path) == words_reference(9, *path)
        for c in (2, 7):
            assert rng.uniform_ints(9, c, *path) == uniform_ints_reference(9, c, *path)
        assert rng.normals(9, *path) == normals_reference(9, *path)


def test_float_path_never_reaches_c():
    # the largest 53-bit value times c * 2^-53 rounds below c, so no clamp is needed
    for c in (3, 7, 30, 255, 257, 1770, 65537, 2**32 + 1, 2**40 + 3, 2**53 - 1):
        assert int((2**53 - 1) * (c * 2.0**-53)) == c - 1, c


def test_one_color_draws_zeros():
    drawn = rng.uniform_ints(5, 1, rng.STREAM_LAW, np.arange(40), 2)
    assert drawn.dtype == np.uint8
    assert not drawn.any()


@pytest.mark.parametrize("c,error", [
    (0, ValueError),
    (-3, ValueError),
    (2**53 + 1, DomainExceededError),
    (2**60, DomainExceededError),
    (2.5, TypeError),  # int() truncated it to 2
])
def test_color_count_out_of_range(c, error):
    with pytest.raises(error):
        rng.uniform_ints(5, c, rng.STREAM_COLORS, np.arange(4))


def test_integer_arguments():
    # int() truncated a float seed; numpy integers are integers
    with pytest.raises(TypeError):
        rng.words(1.5, 0)
    assert rng.words(np.uint64(1), 0) == rng.words(1, 0)
    assert np.array_equal(rng.uniform_ints(np.int64(5), np.int64(3), rng.STREAM_COLORS, np.arange(4)),
                          rng.uniform_ints(5, 3, rng.STREAM_COLORS, np.arange(4)))


def test_scalar_and_array_steps_agree():
    # leading scalar steps run on Python ints, later steps on numpy arrays
    grid = rng.words(2, 1, np.arange(3)[:, None], np.arange(4)[None, :])
    assert isinstance(rng.words(2, 1, 2, 3), np.uint64)
    assert rng.words(2, 1, 2, 3) == grid[2, 3]
    assert np.array_equal(rng.words(2, np.ones(4, dtype=np.int64), 2, 3), np.full(4, grid[2, 3]))


def blocks(lo, hi, row_cost):
    return [block.tolist() for block in rng.batches(lo, hi, row_cost)]


@pytest.mark.parametrize("lo,hi,row_cost,want", [
    (0, 5, 1, [[0, 1, 2, 3, 4]]),
    (3, 10, 600_000, [[3, 4, 5], [6, 7, 8], [9]]),  # 2,000,000 // 600,000 = 3 indices a block
    (0, 3, 10**9, [[0], [1], [2]]),  # an index costlier than the budget is a block alone
    (4, 6, 0, [[4, 5]]),
    (2, 2, 7, [[]]),
    (5, 1, 1, [[]]),
])
def test_scalar_cost_blocks(lo, hi, row_cost, want):
    assert blocks(lo, hi, row_cost) == want
    assert all(block.dtype == np.int64 for block in rng.batches(lo, hi, row_cost))


@given(st.integers(-5, 5), st.lists(st.integers(0, 40), max_size=30), st.integers(1, 30))
@settings(max_examples=200, deadline=None)
def test_cost_array_blocks_are_greedy(lo, costs, budget):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng, "BATCH_ENTRIES", budget)
        got = blocks(lo, lo + len(costs), np.array(costs, dtype=np.int64))
    assert sum(got, []) == list(range(lo, lo + len(costs)))  # in order, each index once
    assert all(got) or got == [[]]
    for block, after in zip(got, got[1:] + [None]):
        spent = sum(costs[i - lo] for i in block)
        assert spent <= budget or len(block) == 1
        assert after is None or spent + costs[after[0] - lo] > budget  # the next index would not fit


def test_cost_array_blocks():
    assert blocks(10, 16, np.array([1.0, 1_999_999, 3e6, 5e5, 5e5, 1e6])) == [[10, 11], [12], [13, 14, 15]]
    assert blocks(0, 0, np.zeros(0)) == [[]]
    assert blocks(0, 4, np.full(4, 700_000)) == blocks(0, 4, 700_000) == [[0, 1], [2, 3]]
    with pytest.raises(ValueError, match="one cost per index"):
        blocks(0, 4, np.ones(3))


@pytest.mark.parametrize("mean", [-1.0, np.array([1.0, -1.0])], ids=["scalar", "array"])
def test_negative_poisson_mean_raises(mean):
    with pytest.raises(ValueError, match="nonnegative"):
        rng.poissons(1, mean, np.arange(2))


@pytest.mark.parametrize("path", [(0, 3), (0, np.int64(3)), (1, np.arange(100)),
                                  (2, np.arange(30)[:, None], np.arange(40)), (3, np.array(5))], ids=repr)
def test_uniforms_are_the_top_53_bits(path):
    got, want = rng.uniforms(9, *path), (rng.words(9, *path) >> np.uint64(11)).astype(np.float64) * 2.0**-53
    assert type(got) is type(want) and np.shape(got) == np.shape(want) and np.array_equal(got, want)
