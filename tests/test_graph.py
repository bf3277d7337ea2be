import dataclasses
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    blow_up,
    blow_up_specs,
    brute_twin_classes,
    edge_pairs,
    loop_gadget,
    loop_galton_watson,
    loop_graph_arrays,
    loop_hypercube,
    tuple_twin_quotient,
)

from colorgraph import census, colorsim, limits, moments
from colorgraph import graph as graph_module
from colorgraph.errors import (
    FAMILY_GRAMMAR,
    DuplicateEdgeError,
    GenerationTimeoutError,
    InfeasibleSpecError,
    OutOfRangeError,
    SelfLoopError,
)
from colorgraph.graph import (
    FIELD_KINDS,
    Blowup,
    Complete,
    CompleteBipartite,
    Cycle,
    ErdosRenyi,
    GaltonWatson,
    Graph,
    Hypercube,
    Inhomogeneous,
    Path,
    Params,
    PathCycleGadget,
    RandomRegular,
    Star,
    basic_stats,
    generate,
    parse_edge_list_text,
    parse_family,
    to_edge_list_text,
)


class TestConstruction:
    def test_triangle(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert g.m == 3
        assert g.edges.dtype == np.int64 and g.edges.tolist() == [[0, 1], [0, 2], [1, 2]]
        assert not (g.edges.flags.writeable or g.nbrs.flags.writeable or g.offsets.flags.writeable)

    def test_equal_graphs_hash_equally(self):
        # the same edges in another order make an equal graph, and it keys the same dict entry
        g, h = Graph(4, [(0, 1), (2, 3), (1, 2)]), Graph(4, [(2, 1), (3, 2), (1, 0)])
        assert g == h and hash(g) == hash(h)
        assert len({(g, 3): 1, (h, 3): 2}) == 1
        assert Graph(5, g.edges) != g

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError, match=r"\(0, 0\)"):
            Graph(2, [(0, 0)])

    def test_reversed_pair_is_duplicate(self):
        with pytest.raises(DuplicateEdgeError, match=r"\(1, 0\)"):
            Graph(4, [(0, 1), (1, 0)])

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError, match=r"\(0, 5\)"):
            Graph(3, [(0, 5)])

    @pytest.mark.parametrize("pair,shown", [
        ((True, 2), r"\(True, 2\)"), ((0, np.bool_(True)), r"\(0, (np\.)?True_?\)"),
        ((1.0, 2), r"\(1\.0, 2\)"), ((0, np.float64(2.0)), r"\(0, (np\.float64\()?2\.0\)?\)"),
    ])
    def test_endpoints_must_be_integers(self, pair, shown):
        # True == 1 and 1.0 == 1, but neither is a vertex; the edge-list text could not carry them
        with pytest.raises(OutOfRangeError, match=shown + " has an endpoint that is not an integer"):
            Graph(3, [pair])

    @pytest.mark.parametrize("n", [2.5, 3.0, True, -1])
    def test_vertex_count_must_be_a_nonnegative_integer(self, n):
        # Graph(2.5, [(0, 1)]) had offsets [0 1 2 2], and Graph(True, []) an n of True
        with pytest.raises(OutOfRangeError, match=f"vertex count must be a nonnegative integer, got {n!r}$"):
            Graph(n, [(0, 1)])
        assert Graph(np.int64(3), [(0, 1)]).m == 1

    def test_numpy_integer_endpoints_round_trip(self):
        g = Graph(3, [(np.int64(2), np.int32(0)), (np.uint8(1), 2)])
        assert g.edges.dtype == np.int64 and g.edges.tolist() == [[0, 2], [1, 2]]
        assert to_edge_list_text(g) == "3 2\n0 2\n1 2\n"
        assert parse_edge_list_text(to_edge_list_text(g)) == g

    def test_adjacency_matches_edges(self):
        g = Graph(4, [(2, 0), (3, 1), (0, 1)])
        assert g.adjacency == ((1, 2), (0, 3), (0,), (1,))
        assert g.degrees == (2, 2, 1, 1)

    def test_edge_arrays_match_the_tuple_construction(self, catalog):
        for name, g in catalog + [("empty", Graph(0, [])), ("edgeless", Graph(3, []))]:
            u, v = g.edge_arrays()
            old = np.asarray(g.edges, dtype=np.int64).reshape(-1, 2)
            assert u.dtype == v.dtype == np.int64, name
            assert u.shape == v.shape == (g.m,), name
            assert np.array_equal(u, old[:, 0]) and np.array_equal(v, old[:, 1]), name


def assert_constructors_agree(n: int, pairs) -> None:
    """Graph(n, pairs) has the loop oracle's edges, nbrs and offsets, or raises its error class and message."""
    try:
        want = loop_graph_arrays(n, pairs)
    except Exception as exc:
        with pytest.raises(Exception) as got:
            Graph(n, pairs)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return
    g = Graph(n, pairs)
    for got, expected in zip((g.edges, g.nbrs, g.offsets), want):
        assert got.dtype == np.int64 and got.shape == expected.shape and np.array_equal(got, expected)


@st.composite
def pair_lists(draw):
    """(n, pairs): a simple graph's edges, each in either orientation, with up to four bad pairs mixed in.

    A bad pair is out of range, a self-loop, a repeat of a drawn edge in
    either orientation, or holds a bool, a float or an integer beyond int64;
    some integer endpoints become numpy integers.
    """
    n = draw(st.integers(0, 9))
    some = st.lists(st.sampled_from(list(itertools.combinations(range(n), 2))), unique=True) if n > 1 else st.just([])
    pairs = [draw(st.sampled_from([e, e[::-1]])) for e in draw(some)]
    vertex = st.integers(-2, n + 1)
    odd = st.sampled_from([True, False, np.bool_(True), 1.0, np.float64(2.0), 2**70, -2**64])
    bad = [st.tuples(vertex, vertex), st.tuples(vertex, vertex), st.one_of(st.tuples(vertex, odd), st.tuples(odd, vertex))]
    if pairs:
        bad += [st.sampled_from(pairs).flatmap(lambda e: st.sampled_from([e, e[::-1]]))] * 2
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 4]))):
        pairs.insert(draw(st.integers(0, len(pairs))), draw(st.one_of(bad)))
    numpy_ints = st.sampled_from([int, np.int64, np.int32, np.intp])
    return n, [tuple(draw(numpy_ints)(x) if type(x) is int and abs(x) < 2**31 else x for x in e) for e in pairs]


class TestArrayConstructor:
    """Graph's array constructor against the per-pair loop it replaced (``loop_graph_arrays``)."""

    def test_catalog_and_families(self, catalog):
        hosts = [g for _, g in catalog] + [generate(parse_family(spec)) for spec in (
            "hypercube:5", "er:40:0.3:2", "regular:20:3:1", "gw:0.2,0.3,0.5:6:4", "gadget:2:3:5", "complete:0")]
        for g in hosts:
            pairs = edge_pairs(g)
            for given in (pairs, [e[::-1] for e in reversed(pairs)], np.array(pairs, np.int64).reshape(-1, 2)):
                assert_constructors_agree(g.n, given)
            edges, nbrs, offsets = loop_graph_arrays(g.n, pairs)
            assert np.array_equal(g.edges, edges) and np.array_equal(g.nbrs, nbrs)
            assert np.array_equal(g.offsets, offsets)

    @given(pair_lists())
    @settings(max_examples=300, deadline=None)
    def test_pair_lists(self, case):
        n, pairs = case
        assert_constructors_agree(n, pairs)
        if all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) and abs(x) < 2**63 for e in pairs for x in e):
            assert_constructors_agree(n, np.array(pairs, np.int64).reshape(-1, 2))  # the array path

    @pytest.mark.parametrize("n,pairs", [
        (4, [(0, 1), (3, 3), (1, 0), (0, 9)]),  # a self-loop before a repeat and an endpoint out of range
        (4, [(0, 1), (1, 0), (3, 3)]),
        (4, [(0, 5), (1, 2, 3)]),  # a pair of three is refused only after the pairs before it
        (4, [(0, 1), (1, 2, 3)]),
        (4, [(2, 1), (0, 2**70), (1.0, 2)]),
        (4, [(2, 1), (True, 2), (0, 2**70)]),
        (3, np.array([[2, 1], [0, 1], [1, 2]], np.uint8)),
        (3, np.array([[2, 1], [0, 1]], np.float64)),  # an array of another dtype is read pair by pair
        (3, np.array([[2, 1], [0, 1]], bool)),
        (3, np.array([[2, 1, 0], [0, 1, 2]])),  # so is an integer array of another shape
        (3, np.array([0, 1])),
        (3, np.zeros(0, np.int64)),
        (-1, []),
    ])
    def test_mixed_bad_pairs(self, n, pairs):
        assert_constructors_agree(n, pairs)


# -- twin quotient -------------------------------------------------------------------


def assert_twin_quotient_rebuilds(g: Graph) -> Blowup:
    """twin_quotient(g) rebuilds g exactly and its classes are the brute-force twin classes."""
    quotient = g.twin_quotient(g.n)
    labels, blocks, k = quotient.labels, quotient.blocks, quotient.k
    assert labels.shape == (g.n,) and blocks.shape == (k, k)
    assert np.array_equal(blocks, blocks.T) and set(np.unique(blocks)) <= {0.0, 1.0}
    assert quotient.sizes.tolist() == np.bincount(labels, minlength=k).tolist()
    firsts = [labels.tolist().index(i) for i in range(k)]
    assert firsts == sorted(firsts)  # classes are numbered by their smallest vertex
    rebuilt = Graph(g.n, [(u, v) for u, v in itertools.combinations(range(g.n), 2)
                          if blocks[labels[u], labels[v]]])
    assert rebuilt == g
    classes = {frozenset(np.flatnonzero(labels == i).tolist()) for i in range(k)}
    assert classes == brute_twin_classes(g)
    assert np.array_equal(g.twin_quotient(max_classes=k).labels, labels)
    assert g.twin_quotient(max_classes=k - 1) is None
    assert_twin_quotient_matches_tuples(g)
    return quotient


def assert_twin_quotient_matches_tuples(g: Graph) -> None:
    """The numpy grouping returns the tuple oracle's arrays byte for byte, or None where it does."""
    k = len(brute_twin_classes(g))
    dtype = np.float32 if g.n < 2**24 else np.float64  # the type twin_quotient picks for B
    for max_classes in (g.n, k, k - 1, 1):
        got, want = g.twin_quotient(max_classes), tuple_twin_quotient(g, dtype, max_classes)
        assert (got is None) == (want is None), max_classes
        for field in ("labels", "sizes", "blocks") if got else ():
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), max_classes


class TestTwinQuotient:
    def test_catalog(self, catalog):
        for name, g in catalog:
            assert_twin_quotient_rebuilds(g)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_hypothesis_graphs(self, data):
        n = data.draw(st.integers(0, 9))
        pairs = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        assert_twin_quotient_rebuilds(Graph(n, edges))

    @settings(max_examples=80, deadline=None)
    @given(blow_up_specs())
    def test_hypothesis_blow_ups(self, spec):
        # each block lies inside one twin class
        assert assert_twin_quotient_rebuilds(blow_up(*spec)).k <= len(spec[2])

    @pytest.mark.parametrize("spec,classes,cliques", [
        (Complete(2), [[0, 1]], [1]),
        (Complete(7), [list(range(7))], [1]),
        (CompleteBipartite(2, 3), [[0, 1], [2, 3, 4]], [0, 0]),
        (CompleteBipartite(4, 4), [[0, 1, 2, 3], [4, 5, 6, 7]], [0, 0]),
        (CompleteBipartite(1, 1), [[0, 1]], [1]),
        (Star(5), [[0], [1, 2, 3, 4, 5]], [0, 0]),
        (Cycle(4), [[0, 2], [1, 3]], [0, 0]),
        (Path(2), [[0, 2], [1]], [0, 0]),
        (Cycle(5), [[0], [1], [2], [3], [4]], [0, 0, 0, 0, 0]),
    ])
    def test_named_hosts(self, spec, classes, cliques):
        g = generate(spec)
        quotient = g.twin_quotient(g.n)
        assert [np.flatnonzero(quotient.labels == i).tolist() for i in range(quotient.k)] == classes
        assert quotient.sizes.tolist() == list(map(len, classes))
        assert quotient.blocks.diagonal().tolist() == cliques

    def test_twin_free_host_is_its_own_quotient(self):
        g = generate(ErdosRenyi(40, 0.5, 3))
        quotient = g.twin_quotient(g.n)
        assert quotient.labels.tolist() == list(range(g.n)) and quotient.sizes.tolist() == [1] * g.n
        assert quotient.blocks.dtype == np.float32
        assert np.array_equal(quotient.blocks, g.adjacency_matrix(np.float32))
        assert not quotient.blocks.diagonal().any()

    def test_block_type_follows_the_vertex_count(self, monkeypatch):
        # float32 holds every integer up to 2^24, so B's sums of class sizes, at most n, need float64 from there
        assert graph_module._block_dtype(2**24 - 1) is np.float32
        assert graph_module._block_dtype(2**24) is np.float64
        g = generate(CompleteBipartite(3, 4))
        singletons = Blowup.singletons(g)
        assert singletons.labels.tolist() == list(range(g.n)) and singletons.sizes.tolist() == [1] * g.n
        assert singletons.blocks.dtype == np.float32 and np.array_equal(singletons.blocks, g.adjacency_matrix())
        monkeypatch.setattr(graph_module, "_block_dtype", lambda n: np.float64)
        assert g.twin_quotient(g.n).blocks.dtype == Blowup.singletons(g).blocks.dtype == np.float64

    def test_max_classes(self, monkeypatch):
        g = generate(CompleteBipartite(3, 4))
        with pytest.raises(TypeError):  # no uncapped call: B has k^2 entries
            g.twin_quotient()
        assert g.twin_quotient(max_classes=1) is None
        assert g.twin_quotient(max_classes=2).k == 2
        # three disjoint edges: six open singletons of degree 1 need at least 3 classes, and get 3
        matching = Graph(6, [(0, 1), (2, 3), (4, 5)])
        assert matching.twin_quotient(max_classes=2) is None
        assert matching.twin_quotient(max_classes=3).labels.tolist() == [0, 0, 1, 1, 2, 2]
        # a twin-free cubic host: the floor of 2000 / 4 classes is over the limit, so the
        # closed neighbourhoods are never grouped: one grouping, the open one
        cubic = generate(RandomRegular(2000, 3, 5))
        real, calls = graph_module._first_equal, []
        monkeypatch.setattr(graph_module, "_first_equal", lambda keys: calls.append(keys.size) or real(keys))
        assert cubic.twin_quotient(max_classes=499) is None
        assert calls == [2000]

    def test_dense_hosts_match_the_tuple_oracle(self):
        for spec in (Complete(200), CompleteBipartite(100, 100), Star(300), ErdosRenyi(300, 0.1, 7)):
            assert_twin_quotient_matches_tuples(generate(spec))

    def test_hash_collisions_are_caught(self, catalog, monkeypatch):
        # salt 0 hashes every list to 0: the open check sees it and the next salt groups exactly
        real, salts = graph_module.rng.words, []

        def words(salt, *path):
            salts.append(salt)
            return np.zeros(len(path[0]), dtype=np.uint64) if salt == 0 else real(salt, *path)

        monkeypatch.setattr(graph_module.rng, "words", words)
        for name, g in catalog:
            salts.clear()
            assert_twin_quotient_matches_tuples(g)
            assert salts == [0, 1] * 4, name  # each of the four calls hashed twice

    def test_closed_hash_collision_is_caught(self, monkeypatch):
        # on P4, words (1, 4, 2, 3) give distinct open hashes (4, 3, 7, 2) but equal closed
        # hashes 5 to the ends 0 and 3, which are not twins: the blow-up check refuses them
        real, salts = graph_module.rng.words, []

        def words(salt, *path):
            salts.append(salt)
            return np.array([1, 4, 2, 3], dtype=np.uint64) if salt == 0 else real(salt, *path)

        monkeypatch.setattr(graph_module.rng, "words", words)
        g = generate(Path(3))
        assert g.twin_quotient(g.n).labels.tolist() == [0, 1, 2, 3] and salts == [0, 1]

    def test_edgeless_and_empty(self):
        quotient = Graph(3, []).twin_quotient(3)
        assert quotient.labels.tolist() == [0, 0, 0] and quotient.sizes.tolist() == [3]
        assert quotient.blocks.tolist() == [[0.0]]
        quotient = Graph(0, []).twin_quotient(0)
        assert quotient.labels.size == 0 and quotient.blocks.shape == (0, 0) and quotient.k == 0


class TestSerialization:
    def test_round_trip(self):
        g = generate(CompleteBipartite(2, 3))
        assert parse_edge_list_text(to_edge_list_text(g)) == g

    def test_idempotent(self):
        g = generate(Cycle(5))
        once = to_edge_list_text(g)
        assert to_edge_list_text(parse_edge_list_text(once)) == once

    def test_comments_ignored(self):
        text = "# a triangle\n3 3\n0 1\n# middle\n0 2\n1 2\n"
        assert parse_edge_list_text(text) == generate(Complete(3))

    def test_edge_count_mismatch(self):
        with pytest.raises(ValueError, match="declares"):
            parse_edge_list_text("2 2\n0 1\n")

    @pytest.mark.parametrize("text,message", [
        ("# only a comment\n\n", "empty edge-list document"),
        ("3\n", "header must be 'n m', got '3'"),
        ("3 x\n0 1\n", "header must be 'n m', got '3 x'"),
        ("3 2\n0 1\n", "header declares 2 edges but 1 lines follow"),
        ("3 1\n0 1 2\n", "bad edge line '0 1 2'"),
        ("3 1\n0\n", "bad edge line '0'"),
        ("3 1\n0 x\n", "bad edge line '0 x'"),
        ("3 1\n0 1.0\n", "bad edge line '0 1.0'"),
    ], ids=["empty", "short-header", "header-not-integers", "count-mismatch", "three-tokens", "one-token",
            "non-integer-token", "float-token"])
    def test_malformed_documents(self, text, message):
        with pytest.raises(ValueError) as err:
            parse_edge_list_text(text)
        assert type(err.value) is ValueError and str(err.value) == message

    def test_first_bad_line_deep_in_a_large_text(self):
        lines = to_edge_list_text(generate(ErdosRenyi(2000, 0.05, 1))).splitlines()
        lines[60_000], lines[90_000] = "5 6 7", "x"
        with pytest.raises(ValueError) as err:
            parse_edge_list_text("\n".join(lines))
        assert type(err.value) is ValueError and str(err.value) == "bad edge line '5 6 7'"

    @pytest.mark.parametrize("text", [
        "4 3\n0 1\n1 2\n2 3\n", "4 3\r\n0 1\r\n1 2\r\n2 3\r\n", "  4\t3 \n\n0  1\n\x0c1 2\r2 3", "4 3\n0 1\n# c\n1 2\n2 3\n",
        "004 3\n1 0\n2 1\n3 2\n", "4 3\n0 1\n1 2\n+2 3\n", "4 3\n0 1\n1 2\n2 3\n\u2028",
    ], ids=["plain", "crlf", "blanks", "comment", "leading-zeros-and-swapped", "signed", "unicode-line-break"])
    def test_every_layout_reads_alike(self, text):
        assert parse_edge_list_text(text) == Graph(4, [(0, 1), (1, 2), (2, 3)])

    @pytest.mark.parametrize("text,error,message", [
        ("3 1\n0 3\n", OutOfRangeError, "edge (0, 3) has an endpoint outside [0, 3)"),
        ("3 2\n0 1\n2 2\n", SelfLoopError, "edge (2, 2) is a self-loop"),
        ("3 2\n1 0\n0 1\n", DuplicateEdgeError, "edge (0, 1) duplicates (0, 1)"),
        ("3 1\n0 123456789012345678901\n", OutOfRangeError,
         "edge (0, 123456789012345678901) has an endpoint outside [0, 3)"),
    ], ids=["out-of-range", "self-loop", "duplicate", "beyond-int64"])
    def test_plain_documents_raise_the_graph_errors(self, text, error, message):
        with pytest.raises(error) as err:
            parse_edge_list_text(text)
        assert str(err.value) == message

    @given(st.integers(2, 8), st.data())
    @settings(max_examples=50, deadline=None)
    def test_round_trip_random(self, n, data):
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        pairs = data.draw(st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs)))
        g = Graph(n, pairs)
        back = parse_edge_list_text(to_edge_list_text(g))
        assert back == g and back.adjacency == g.adjacency


class TestDeterministicFamilies:
    def test_complete(self):
        g = generate(Complete(4))
        assert (g.n, g.m) == (4, 6)

    def test_hypercube(self):
        g = generate(Hypercube(3))
        assert (g.n, g.m) == (8, 12)
        assert set(g.degrees) == {3}

    def test_star_path_cycle(self):
        assert basic_stats(generate(Star(4))) .degrees == (4, 1, 1, 1, 1)
        assert generate(Path(3)).m == 3
        assert generate(Cycle(6)).degrees == (2,) * 6

    def test_cycle_too_short(self):
        with pytest.raises(ValueError, match="Cycle.length must be >= 3"):
            Cycle(2)

    def test_only_family_specs_generate(self):
        for spec in (None, "complete:3", Graph(3, [])):
            with pytest.raises(InfeasibleSpecError, match="unknown family spec"):
                generate(spec)
        assert generate(Complete(4)) == Complete(4).build()

    def test_gadget_counts(self):
        # a path edges, a*b attached cycles each on g-2 fresh vertices
        g = generate(PathCycleGadget(5, 3, 3))
        assert (g.n, g.m) == (21, 35)
        assert census.count_cycles(g, 3) == 15
        tiny = generate(PathCycleGadget(1, 1, 3))
        assert (tiny.n, tiny.m) == (3, 3)

    def test_gadget_general_length(self):
        g = generate(PathCycleGadget(2, 2, 5))
        assert (g.n, g.m) == (2 * 2 * 3 + 3, 2 * 2 * 4 + 2)
        assert census.count_cycles(g, 5) == 4


class TestRandomFamilies:
    def test_er_deterministic(self):
        a = generate(ErdosRenyi(40, 0.2, 7))
        b = generate(ErdosRenyi(40, 0.2, 7))
        assert a == b
        assert to_edge_list_text(a) == to_edge_list_text(b)
        assert a != generate(ErdosRenyi(40, 0.2, 8))

    def test_er_extremes(self):
        assert generate(ErdosRenyi(10, 0.0, 1)).m == 0
        assert generate(ErdosRenyi(10, 1.0, 1)) == generate(Complete(10))

    def test_er_edge_count_plausible(self):
        g = generate(ErdosRenyi(200, 0.1, 3))
        mean = 0.1 * 199 * 100
        assert abs(g.m - mean) < 5 * (mean * 0.9) ** 0.5

    def test_inhomogeneous_indicator_grid(self):
        n = 5
        grid = [[0.0] * n for _ in range(n)]
        grid[0][1] = grid[1][0] = 1.0
        grid[2][3] = grid[3][2] = 1.0
        g = generate(Inhomogeneous(n, tuple(map(tuple, grid)), 3))
        assert g.edges.tolist() == [[0, 1], [2, 3]]

    def test_inhomogeneous_validation(self):
        with pytest.raises(ValueError, match="Inhomogeneous.kernel must be a symmetric square grid"):
            Inhomogeneous(2, ((0.0, 0.4), (0.6, 0.0)), 1)

    def test_regular_degrees(self):
        for n, d, seed in ((10, 3, 0), (20, 4, 1), (15, 2, 2), (12, 4, 3)):
            g = generate(RandomRegular(n, d, seed))
            assert set(g.degrees) == {d}

    def test_regular_rejection_cap(self):
        # d = n - 1 admits only the complete graph; rejection cannot succeed
        with pytest.raises(GenerationTimeoutError):
            generate(RandomRegular(8, 7, 0))

    def test_regular_degree_zero_is_edgeless(self):
        g = generate(RandomRegular(6, 0, 1))
        assert (g.n, g.edges.shape, g.edges.dtype) == (6, (0, 2), np.int64)

    def test_regular_deterministic(self):
        assert generate(RandomRegular(16, 3, 5)) == generate(RandomRegular(16, 3, 5))

    def test_regular_infeasible(self):
        with pytest.raises(InfeasibleSpecError):
            generate(RandomRegular(5, 3, 0))
        with pytest.raises(InfeasibleSpecError):
            generate(RandomRegular(4, 4, 0))

    def test_galton_watson_is_tree(self):
        spec = GaltonWatson((0.2, 0.3, 0.5), 6, 11)
        g = generate(spec)
        stats = basic_stats(g)
        assert stats.components == 1
        assert stats.m == stats.n - 1
        assert g == generate(spec)

    def test_galton_watson_subcritical_allowed(self):
        g = generate(GaltonWatson((0.7, 0.3), 4, 2))
        assert g.m == g.n - 1

    def test_galton_watson_validation(self):
        for pmf in ((0.5, 0.4), ()):
            with pytest.raises(ValueError, match="GaltonWatson.offspring must be a nonempty, nonnegative pmf"):
                GaltonWatson(pmf, 3, 1)


def _grid(n, entry):
    """The symmetric n x n grid with entry(i, j) at i <= j."""
    return tuple(tuple(float(entry(min(i, j), max(i, j))) for j in range(n)) for i in range(n))


# sha256 of to_edge_list_text(generate(spec)), frozen from the vertex-by-vertex builders: an array
# builder must give every family the same n and the same edges, word for word of the same streams
FROZEN_EDGE_DIGESTS = [
    ("hypercube:0",
     "f4a8ae8e74ddfb896a256de4e3099911dcaa6a9302591713898069b0bcd6e3d7"),  # n=1 m=0
    ("hypercube:1",
     "4a6ae7226283a4b6277ce3e77a91585c0cad93929046f3c7bd9105d7ed101834"),  # n=2 m=1
    ("hypercube:12",
     "4fc006fbebf0e59ca28d0889b92ec9eb8cf5b46312708a53183a6d31404d0811"),  # n=4096 m=24576
    ("gw:0.2,0.3,0.5:0:1",
     "f4a8ae8e74ddfb896a256de4e3099911dcaa6a9302591713898069b0bcd6e3d7"),  # n=1 m=0
    ("gw:0.6,0.2,0.2:10:7",
     "0b7bf3892268f58dc62da8481683868de50faf17c6bdd35867fbe282709bc5cd"),  # n=6 m=5
    ("gw:1:5:3",
     "f4a8ae8e74ddfb896a256de4e3099911dcaa6a9302591713898069b0bcd6e3d7"),  # n=1 m=0
    ("gw:0.2,0.2,0.2,0.4:12:5",
     "b7dcc4903f5f49ac5f6e2030dfdc297469c609c3c31fb2008045df028584c44e"),  # n=1197 m=1196
    ("gw:0.2,0.3,0.5:6:11",
     "5355419258e74273a6c9b8297aa83dd1d38cfbb95976daa323b95ea4716a8fc3"),  # n=25 m=24
    ("gadget:1:1:3",
     "7c0343f77a3c54a7b291511fde0fd472255dbdfd45e57dc93771a4b4e021c6ad"),  # n=3 m=3
    ("gadget:3:3:3",
     "fd4128ad810949120d9b8aa4b46248c97d8015c05a09d546f80d12bf11777d70"),  # n=13 m=21
    ("gadget:5:2:7",
     "ae9ff6af29044c42c5de911b54af69f7557b8eb6d1f869e4765a9784e0942d49"),  # n=56 m=65
    ("gadget:30:30:3",
     "6c2533bacef45bc87e3b5814eceeaa4fd5a4d55e8964cdae68bfebc5afa8b53d"),  # n=931 m=1830
    ("er:0:0.5:1",
     "0ccdb5a77ba5bf7687f2565a8ed97dfb9c1af45503c496fb646312239fab5101"),  # n=0 m=0
    ("er:1:0.5:1",
     "f4a8ae8e74ddfb896a256de4e3099911dcaa6a9302591713898069b0bcd6e3d7"),  # n=1 m=0
    ("er:10:0:1",
     "88401cdce0f0466b01d2dbdde250d17cab1a783cd5a7d82bba6da2a3cb8c3338"),  # n=10 m=0
    ("er:10:1:1",
     "1df85460ce06d8c58223cfd1f4578b56f4ca71b66182291bfa1732f3659ee352"),  # n=10 m=45
    ("er:100:0.05:7",
     "7264d3d4269c5bf25472ca99122caa085e61d29c68b2f557da5162245d27416d"),  # n=100 m=256
    ("er:300:0.1:7",
     "4e948c72b997072ad2145178c7dd7f0e2ac7355d7aacf2ec1c57eb318556c060"),  # n=300 m=4412
    ("er:40:0.2:7",
     "a318de7c353e6095fc2851f655c645f5267c6edd1dff2777fde9089c4ec807c4"),  # n=40 m=155
    ("regular:6:0:1",
     "3e6a55c946ac49027ba9b8aa0aed2362f58b55fd739cb84287ea16693421fb1b"),  # n=6 m=0
    ("regular:0:0:1",
     "0ccdb5a77ba5bf7687f2565a8ed97dfb9c1af45503c496fb646312239fab5101"),  # n=0 m=0
    ("regular:2000:3:5",
     "5b0305a62c142fe709284b3734d6fc3095e9ceffa4511a0fb50861d4e5c3ae58"),  # n=2000 m=3000
    ("regular:16:3:5",
     "776bfdbfd32c2cc7f98e0922eec0e5ff83a8961cdf7c33e1f4fcb1f36d798bb2"),  # n=16 m=24
    ("complete:0",
     "0ccdb5a77ba5bf7687f2565a8ed97dfb9c1af45503c496fb646312239fab5101"),  # n=0 m=0
    ("complete:23",
     "762497d3e378afc811aa0181ea35f51f2287a3b7e22506ed3ed07172e1ff7519"),  # n=23 m=253
    ("bipartite:3:4",
     "422344b30ee4125595a0f354ac8ac5e0e00d7a56f4ae4565a39f389c4eff9730"),  # n=7 m=12
    ("star:5",
     "3db5e8ddfb250b11597146c3001b4182211d2629675162634231a1de71388b0a"),  # n=6 m=5
    ("path:0",
     "f4a8ae8e74ddfb896a256de4e3099911dcaa6a9302591713898069b0bcd6e3d7"),  # n=1 m=0
    ("path:4",
     "750640d6ef4dfdeaef090e73e34a5a10560b26ebcd4d75960b8037acedee3b39"),  # n=5 m=4
    ("cycle:3",
     "7c0343f77a3c54a7b291511fde0fd472255dbdfd45e57dc93771a4b4e021c6ad"),  # n=3 m=3
    ("cycle:7",
     "27a7f20c8c1ac069284c4322f47695fb2d6f86e9d201a3fbd466947ce89b97ef"),  # n=7 m=7
    pytest.param(Inhomogeneous(12, _grid(12, lambda i, j: (i * 7 + j * 3 + i * j) % 11 / 10), 4),  # n=12 m=31
                 "00bc89a006ed42ed8b4bcc6af93940b1b4055874fa5ff5ff22df9218ec4f8820", id="inhomogeneous-random"),
    pytest.param(Inhomogeneous(8, _grid(8, lambda i, j: 0.0), 1),  # n=8 m=0
                 "f20d961db0814769179475eefc5d1075b03dab5a12ff4a53e5f1676def9f89f7", id="inhomogeneous-zero"),
    pytest.param(Inhomogeneous(8, _grid(8, lambda i, j: 1.0), 1),  # n=8 m=28
                 "1e2ecc1e89815835b832f4fc8a274b799d7931ac93e5aaed4b80773ced878bec", id="inhomogeneous-one"),
]


@pytest.mark.parametrize("spec,digest", FROZEN_EDGE_DIGESTS,
                         ids=[getattr(row, "id", None) or row[0] for row in FROZEN_EDGE_DIGESTS])
def test_family_edges_are_frozen(spec, digest):
    g = generate(parse_family(spec) if isinstance(spec, str) else spec)
    assert hashlib.sha256(to_edge_list_text(g).encode()).hexdigest() == digest


@pytest.mark.parametrize("spec", [ErdosRenyi(3000, 0.001, 1), Inhomogeneous(40, _grid(40, lambda i, j: (i + j) % 7 / 7), 3)],
                         ids=["er3000", "inhomogeneous-40"])
def test_independent_edges_ignore_the_batch_budget(spec, monkeypatch):
    # rows of pairs are drawn in blocks of the batch budget, so a small budget keeps the peak small
    edges = generate(spec).edges
    monkeypatch.setattr(graph_module.rng, "BATCH_ENTRIES", 10**5)
    tracemalloc.start()
    try:
        small = generate(spec).edges
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(small, edges)
    assert peak < 16 * 2**20


class TestArrayBuilders:
    # each array builder against its vertex-by-vertex oracle, on more parameters than the frozen table

    def test_hypercube(self):
        for dim in range(9):
            assert generate(Hypercube(dim)) == loop_hypercube(dim), dim

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=4).filter(any), st.integers(0, 7),
           st.integers(0, 2**64 - 1))
    def test_galton_watson(self, weights, height, seed):
        pmf = tuple(w / sum(weights) for w in weights)
        assert generate(GaltonWatson(pmf, height, seed)) == loop_galton_watson(pmf, height, seed)

    @pytest.mark.parametrize("a,b,g", list(itertools.product((1, 2, 5), (1, 3), (3, 4, 8))))
    def test_gadget(self, a, b, g):
        assert generate(PathCycleGadget(a, b, g)) == loop_gadget(a, b, g)


class TestFamilyGrammar:
    def test_examples(self):
        assert parse_family("complete:23") == Complete(23)
        assert parse_family("er:100:0.05:seed7") == ErdosRenyi(100, 0.05, 7)
        assert parse_family("gadget:30:30:3") == PathCycleGadget(30, 30, 3)
        assert parse_family("gw:0.2,0.3,0.5:4:9") == GaltonWatson((0.2, 0.3, 0.5), 4, 9)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            parse_family("torus:3")

    def test_bad_arity(self):
        with pytest.raises(ValueError):
            parse_family("complete:3:4")

    def test_grammar_lists_every_family_and_its_arity(self):
        # errors.FAMILY_GRAMMAR is written out by hand, so the CLI reads it without importing graph
        quoted = {name: len(args) for name, *args in (part.strip().split(":") for part in FAMILY_GRAMMAR.split("|"))}
        assert quoted == {name: len(dataclasses.fields(cls)) for name, cls in graph_module._FAMILIES.items()}

    def test_argument_types_come_from_the_fields(self):
        assert parse_family("ER:100:0.05:7") == ErdosRenyi(100, 0.05, 7)
        with pytest.raises(ValueError, match="bad family spec"):
            parse_family("er:100:0.05:x")
        with pytest.raises(ValueError, match="bad family spec"):
            parse_family("complete:2.5")


class TestBasicStats:
    def test_complete(self):
        assert basic_stats(generate(Complete(4))) == basic_stats(Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))
        s = basic_stats(generate(Complete(4)))
        assert (s.n, s.m, s.components) == (4, 6, 1)
        assert s.degrees == (3, 3, 3, 3)

    def test_two_disjoint_edges(self):
        s = basic_stats(Graph(4, [(0, 1), (2, 3)]))
        assert (s.n, s.m, s.degrees, s.components) == (4, 2, (1, 1, 1, 1), 2)

    def test_degree_sum(self):
        g = generate(ErdosRenyi(30, 0.3, 17))
        assert sum(g.degrees) == 2 * g.m


# one valid instance of every Params subclass in the package
VALID_PARAMS = [
    Complete(3), CompleteBipartite(2, 3), Star(3), Path(2), Cycle(4), Hypercube(2),
    ErdosRenyi(5, 0.5, 1), Inhomogeneous(2, ((0.0, 0.5), (0.5, 0.0)), 1), RandomRegular(4, 2, 1),
    GaltonWatson((0.5, 0.5), 2, 1), PathCycleGadget(1, 1, 3),
    limits.Poisson(1.0), limits.PoissonMixing(1.0),
    limits.EmpiricalMixing((1.0,)), limits.PoissonMixture(limits.PoissonMixing(1.0)),
    limits.Normal(0.0, 1.0), limits.WeightedChiSquare((1.0,), 1, 0.5),
    limits.AtomPlusNormal(0.5, 1.0), limits.Fixed(2), limits.Growing(1.0),
    colorsim.MonoEdges(), colorsim.MonoStars(2), colorsim.MonoCycles(3),
    moments.MomentRequest(moments.MomentKind.RAW_N, 2, 2),
]

# float fields that admit +-inf: a growing regime's m/c may be inf
INFINITE_OK = {(limits.Growing, "edge_color_ratio")}


def _subclasses(cls):
    return {s for sub in cls.__subclasses__() for s in (sub, *_subclasses(sub))}


class TestParams:
    def test_every_subclass_has_an_example(self):
        assert {type(p) for p in VALID_PARAMS} == _subclasses(Params)

    @pytest.mark.parametrize("valid", VALID_PARAMS, ids=lambda p: type(p).__name__)
    def test_fields_reject_values_outside_their_kind(self, valid):
        for f in dataclasses.fields(valid):
            bad = {"int": [2.5, True], "float": [math.nan], "tuple[float, ...]": [(math.nan,)]}
            bad = bad.get(f.type, [])
            if f.type == "float" and (type(valid), f.name) not in INFINITE_OK:
                bad += [math.inf, -math.inf]
            for value in bad:
                with pytest.raises(ValueError):
                    dataclasses.replace(valid, **{f.name: value})

    def test_values_are_not_converted(self):
        assert type(limits.Poisson(2).mean) is int

    @pytest.mark.parametrize("cls", sorted(_subclasses(Params), key=lambda c: c.__name__), ids=lambda c: c.__name__)
    def test_every_field_is_checked(self, cls):
        # a field with neither a FIELD_KINDS kind nor a ranges rule would take any value when its Params is made
        unchecked = [f.name for f in dataclasses.fields(cls) if f.type not in FIELD_KINDS and f.name not in cls.ranges]
        assert not unchecked


def _spec_row(cls, *args, field=None):
    """The row (cls, args, field) under the id ``repr(cls(*args))``, which a spec with a bad field cannot print."""
    shown = ", ".join(f"{f.name}={a!r}" for f, a in zip(dataclasses.fields(cls), args))
    return pytest.param(cls, args, field, id=f"{cls.__name__}({shown})")


@pytest.mark.parametrize("cls,args,field", [
    _spec_row(Complete, -1, field="n"), _spec_row(CompleteBipartite, -1, 2, field="a"),
    _spec_row(CompleteBipartite, 2, -1, field="b"), _spec_row(Star, -1, field="leaves"),
    _spec_row(Path, -1, field="edges"), _spec_row(Hypercube, -1, field="dim"),
    _spec_row(ErdosRenyi, -1, 0.5, 1, field="n"), _spec_row(ErdosRenyi, 5, 1.5, 1, field="p"),
    _spec_row(ErdosRenyi, 3, 7.0, 1, field="p"), _spec_row(RandomRegular, -4, 2, 1, field="n"),
    _spec_row(RandomRegular, 4, -2, 1, field="d"), _spec_row(GaltonWatson, (0.5, 0.5), -1, 1, field="height"),
    _spec_row(GaltonWatson, (1.5, -0.5), 2, 1, field="offspring"), _spec_row(PathCycleGadget, 0, 1, 3, field="a"),
    _spec_row(PathCycleGadget, 1, 0, 3, field="b"), _spec_row(PathCycleGadget, 1, 1, 2, field="g"),
    _spec_row(Inhomogeneous, 2, ((0.1, 1.5), (1.5, 0.1)), 1, field="kernel"),
    _spec_row(Inhomogeneous, 2, ((math.nan, 0.5), (0.5, 0.0)), 1, field="kernel"),
    _spec_row(Inhomogeneous, 2, ((0.1, 0.2, 0.3), (0.2, 0.1, 0.3)), 1, field="kernel"),
    _spec_row(Inhomogeneous, -1, (), 1, field="n"),
    # fields that are valid alone but cannot go together
    _spec_row(Inhomogeneous, 3, ((0.1, 0.2), (0.2, 0.1)), 1), _spec_row(RandomRegular, 5, 3, 0),
    _spec_row(RandomRegular, 4, 4, 0),
])
def test_input_checks_raise_typed_errors(cls, args, field):
    if field is None:  # found when the graph is built
        with pytest.raises(InfeasibleSpecError):
            generate(cls(*args))
    else:  # a single bad field is named when the spec is made
        with pytest.raises(ValueError, match=rf"^{cls.__name__}\.{field} must be "):
            cls(*args)
