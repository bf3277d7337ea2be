import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import blow_up, blow_up_specs, brute_twin_classes, tuple_twin_quotient

from colorgraph import census, colorsim, limits, moments
from colorgraph import graph as graph_module
from colorgraph.errors import (
    DuplicateEdgeError,
    GenerationTimeoutError,
    InfeasibleSpecError,
    OutOfRangeError,
    SelfLoopError,
)
from colorgraph.graph import (
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
        assert g.edges == ((0, 1), (0, 2), (1, 2))

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

    def test_numpy_integer_endpoints_round_trip(self):
        g = Graph(3, [(np.int64(2), np.int32(0)), (np.uint8(1), 2)])
        assert g.edges == ((0, 2), (1, 2)) and all(type(x) is int for e in g.edges for x in e)
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


# -- twin quotient -------------------------------------------------------------------


def assert_twin_quotient_rebuilds(g: Graph) -> tuple:
    """twin_quotient(g) rebuilds g exactly and its classes are the brute-force twin classes."""
    labels, blocks, clique = g.twin_quotient()
    k = clique.size
    assert labels.shape == (g.n,) and blocks.shape == (k, k)
    assert np.array_equal(blocks, blocks.T) and set(np.unique(blocks)) <= {0.0, 1.0}
    assert np.array_equal(clique, np.diagonal(blocks))
    firsts = [labels.tolist().index(i) for i in range(k)]
    assert firsts == sorted(firsts)  # classes are numbered by their smallest vertex
    rebuilt = Graph(g.n, [(u, v) for u, v in itertools.combinations(range(g.n), 2)
                          if blocks[labels[u], labels[v]]])
    assert rebuilt == g
    classes = {frozenset(np.flatnonzero(labels == i).tolist()) for i in range(k)}
    assert classes == brute_twin_classes(g)
    assert np.array_equal(g.twin_quotient(max_classes=k)[0], labels)
    assert g.twin_quotient(max_classes=k - 1) is None
    assert_twin_quotient_matches_tuples(g)
    return labels, blocks, clique


def assert_twin_quotient_matches_tuples(g: Graph) -> None:
    """The numpy grouping returns the tuple oracle's arrays byte for byte, or None where it does."""
    k = len(brute_twin_classes(g))
    for dtype, max_classes in ((np.float64, None), (np.float32, None), (np.float32, k), (np.float32, k - 1),
                               (np.float32, 1)):
        got, want = g.twin_quotient(dtype, max_classes), tuple_twin_quotient(g, dtype, max_classes)
        assert (got is None) == (want is None), (dtype, max_classes)
        for a, b in zip(got or (), want or ()):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), (dtype, max_classes)


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
        *_, clique = assert_twin_quotient_rebuilds(blow_up(*spec))
        assert clique.size <= len(spec[2])  # each block lies inside one twin class

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
        labels, blocks, clique = generate(spec).twin_quotient()
        assert [np.flatnonzero(labels == i).tolist() for i in range(clique.size)] == classes
        assert clique.tolist() == cliques

    def test_twin_free_host_is_its_own_quotient(self):
        g = generate(ErdosRenyi(40, 0.5, 3))
        labels, blocks, clique = g.twin_quotient(np.float32)
        assert labels.tolist() == list(range(g.n))
        assert blocks.dtype == np.float32
        assert np.array_equal(blocks, g.adjacency_matrix(np.float32))
        assert not clique.any()

    def test_max_classes(self, monkeypatch):
        g = generate(CompleteBipartite(3, 4))
        assert g.twin_quotient(max_classes=1) is None
        assert g.twin_quotient(max_classes=2)[2].size == 2
        # three disjoint edges: six open singletons of degree 1 need at least 3 classes, and get 3
        matching = Graph(6, [(0, 1), (2, 3), (4, 5)])
        assert matching.twin_quotient(max_classes=2) is None
        assert matching.twin_quotient(max_classes=3)[0].tolist() == [0, 0, 1, 1, 2, 2]
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
            assert salts == [0, 1] * 5, name  # every call hashed twice

    def test_closed_hash_collision_is_caught(self, monkeypatch):
        # on P4, words (1, 4, 2, 3) give distinct open hashes (4, 3, 7, 2) but equal closed
        # hashes 5 to the ends 0 and 3, which are not twins: the blow-up check refuses them
        real, salts = graph_module.rng.words, []

        def words(salt, *path):
            salts.append(salt)
            return np.array([1, 4, 2, 3], dtype=np.uint64) if salt == 0 else real(salt, *path)

        monkeypatch.setattr(graph_module.rng, "words", words)
        g = generate(Path(3))
        labels, _, _ = g.twin_quotient()
        assert labels.tolist() == [0, 1, 2, 3] and salts == [0, 1]

    def test_edgeless_and_empty(self):
        labels, blocks, clique = Graph(3, []).twin_quotient()
        assert labels.tolist() == [0, 0, 0] and blocks.tolist() == [[0.0]]
        labels, blocks, clique = Graph(0, []).twin_quotient()
        assert labels.size == 0 and blocks.shape == (0, 0) and clique.size == 0


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
        with pytest.raises(InfeasibleSpecError):
            generate(Cycle(2))

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
        assert g.edges == ((0, 1), (2, 3))

    def test_inhomogeneous_validation(self):
        with pytest.raises(InfeasibleSpecError):
            generate(Inhomogeneous(2, ((0.0, 0.4), (0.6, 0.0)), 1))

    def test_regular_degrees(self):
        for n, d, seed in ((10, 3, 0), (20, 4, 1), (15, 2, 2), (12, 4, 3)):
            g = generate(RandomRegular(n, d, seed))
            assert set(g.degrees) == {d}

    def test_regular_rejection_cap(self):
        # d = n - 1 admits only the complete graph; rejection cannot succeed
        with pytest.raises(GenerationTimeoutError):
            generate(RandomRegular(8, 7, 0))

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
        with pytest.raises(InfeasibleSpecError):
            generate(GaltonWatson((0.5, 0.4), 3, 1))
        with pytest.raises(InfeasibleSpecError):
            generate(GaltonWatson((), 3, 1))


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
    limits.Poisson(1.0), limits.PointMass(1.0), limits.PoissonMixing(1.0),
    limits.EmpiricalMixing((1.0,)), limits.PoissonMixture(limits.PointMass(1.0)),
    limits.Normal(0.0, 1.0), limits.WeightedChiSquare((1.0,), 1, 0.5),
    limits.AtomPlusNormal(0.5, 1.0), limits.Fixed(2), limits.Growing(1.0),
    colorsim.MonoEdges(), colorsim.MonoStars(2), colorsim.MonoCycles(3),
    moments.MomentRequest(moments.MomentKind.RAW_N, 2, 2),
]

# float fields that admit +-inf: a growing regime's m/c may be inf, and a family spec's
# generator, not the spec, checks the spec's ranges
INFINITE_OK = {(limits.Growing, "edge_color_ratio"), (ErdosRenyi, "p")}


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
