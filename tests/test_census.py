import contextlib
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    blow_up,
    blow_up_specs,
    brute_automorphisms,
    brute_count_cycles,
    brute_count_subgraph,
    brute_cycles,
    dfs_cycles,
    enumerate_multigraph_tuples,
    graphs_isomorphic,
    permutation_canonical_rep,
    trace_cycle_counts,
)

from colorgraph import census, colorsim, rng
from colorgraph.census import (
    CycleFactor,
    DoubledEdgeFactor,
    MultiGraphPattern,
    PatternCounts,
    all_patterns,
    count_cycles,
    count_multigraph_tuples,
    count_subgraph,
    cycle_counts,
    cycle_list,
    decompose_tight_multigraph,
    hom_density_cycle,
    injective_homomorphisms,
)
from colorgraph.errors import (
    PatternTooLargeError,
    PreconditionViolatedError,
    SizeGateExceededError,
    UnsupportedLengthError,
)
from colorgraph.graph import (
    Complete,
    CompleteBipartite,
    Cycle,
    ErdosRenyi,
    Graph,
    Hypercube,
    Path,
    PathCycleGadget,
    RandomRegular,
    Star,
    generate,
)


def er(n, p, seed):
    return generate(ErdosRenyi(n, p, seed))


class TestCountCycles:
    def test_frozen_examples(self):
        assert count_cycles(generate(Complete(4)), 3) == 4  # = brute enumeration
        assert count_cycles(generate(CompleteBipartite(2, 4)), 4) == 6  # C(4,2)
        c5 = generate(Cycle(5))
        assert count_cycles(c5, 5) == 1
        assert count_cycles(c5, 3) == 0

    def test_unsupported_length(self):
        g = generate(Complete(4))
        with pytest.raises(UnsupportedLengthError):
            count_cycles(g, 2)
        with pytest.raises(UnsupportedLengthError):
            count_cycles(g, 9)

    @pytest.mark.parametrize("fn,length", [
        (count_cycles, 2), (count_cycles, 9), (count_cycles, 3.5), (count_cycles, 4.0),
        (cycle_list, 2), (cycle_list, 9), (cycle_list, 3.5), (cycle_list, 4.0),
    ])
    def test_unsupported_length_raises_the_typed_error(self, fn, length):
        # a float passes a range comparison; the census takes integer lengths only
        with pytest.raises(UnsupportedLengthError, match=r"cycle length must be in \[3, 8\]"):
            fn(generate(Complete(4)), length)

    def test_matches_brute_force(self):
        for seed in range(30):
            g = er(9, 0.45, seed)
            for length in range(3, 7):
                assert count_cycles(g, length) == brute_count_cycles(g, length)

    def test_matches_edge_subset_count(self):
        # m <= 15 hosts: the cycle census equals the edge-subset census
        hosts = [er(7, 0.5, s) for s in range(8)] + [generate(Complete(5))]
        for g in hosts:
            if g.m > 15:
                continue
            for length in range(3, 7):
                cg = generate(Cycle(length))
                assert count_cycles(g, length) == count_subgraph(g, cg)

    def test_trace_identity_ten_thousand_hosts(self):
        # cycle_counts asserts the walk against the closed form at lengths 3 and 4;
        # sweep 10^4 random hosts so a mismatch would surface
        for seed in range(10_000):
            n = 4 + seed % 27
            d = 1.0 + 2.5 * ((seed * 11) % 13) / 13
            g = er(n, d / n, seed)
            cycle_counts(g, (3, 4))

    def test_four_cycle_trace_helper(self):
        for seed in range(20):
            g = er(12, 0.35, seed)
            assert count_cycles(g, 4) == cycle_counts(g, (4,))[4]

    def test_short_lengths_run_no_walk(self, monkeypatch):
        def no_walk(g, lengths):
            raise AssertionError("walked")

        monkeypatch.setattr(census, "_cycle_blocks", no_walk)
        g = generate(Complete(7))
        assert count_cycles(g, 3) == math.comb(7, 3)
        assert count_cycles(g, 4) == 3 * math.comb(7, 4)
        with pytest.raises(AssertionError, match="walked"):
            count_cycles(g, 5)


def assert_walk_matches_oracles(g, lengths=census.CYCLE_LENGTHS, brute=True):
    """count_cycles, cycle_counts and cycle_list against the depth-first search, each row's orientation
    included but not the row order, and against the vertex-subset enumeration when ``brute``."""
    found = {length: dfs_cycles(g, length) for length in lengths}
    for length, cycles in found.items():
        listed = cycle_list(g, length)
        assert listed.dtype == np.int64 and listed.shape == (len(cycles), length), length
        assert sorted(map(tuple, listed.tolist())) == sorted(cycles), length
        assert count_cycles(g, length) == len(cycles), length
        if brute:
            assert sorted(cycles) == sorted(brute_cycles(g, length)), length
    assert cycle_counts(g, lengths) == {length: len(cycles) for length, cycles in found.items()}


class TestCycleWalk:
    def test_cycle_list_gate(self, monkeypatch):
        g = generate(Complete(6))  # 20 triangles, 60 entries
        monkeypatch.setattr(census, "_MAX_CYCLE_ENTRIES", 60)
        assert len(cycle_list(g, 3)) == 20
        monkeypatch.setattr(census, "_MAX_CYCLE_ENTRIES", 59)
        stat = colorsim.MonoCycles(3)
        for call in (lambda: cycle_list(g, 3), lambda: colorsim.simulate(g, 2, stat, 10, 1),
                     lambda: colorsim.exact_distribution(g, 2, stat), lambda: colorsim.mono_count(g, [0] * 6, stat)):
            with pytest.raises(SizeGateExceededError, match="more than 59 entries"):
                call()

    def test_catalog_matches_oracles(self, catalog):
        for name, g in catalog:
            assert_walk_matches_oracles(g)

    @given(st.integers(0, 9), st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_graphs_match_oracles(self, n, data):
        pool = list(itertools.combinations(range(n), 2))
        pairs = data.draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool))) if pool else []
        assert_walk_matches_oracles(Graph(n, pairs), brute=n <= 8)

    def test_sparse_hosts_match_the_search(self):
        for g in (er(60, 0.08, 2), generate(RandomRegular(40, 3, 1)), generate(Hypercube(4))):
            assert_walk_matches_oracles(g, brute=False)

    def test_gadget_triangles(self):
        # 900 triangles across a path whose vertices have degree about 60: many half-paths per root
        assert_walk_matches_oracles(generate(PathCycleGadget(30, 30, 3)), lengths=(3,), brute=False)
        assert count_cycles(generate(PathCycleGadget(30, 30, 3)), 3) == 900

    def test_readme_host_counts(self):
        assert cycle_counts(er(100, 0.05, 7)) == {3: 21, 4: 82, 5: 320, 6: 1261, 7: 5073, 8: 20807}

    @pytest.mark.parametrize("budget", [1, 300])
    def test_blocks_do_not_change_results(self, budget, monkeypatch):
        # a budget of 1 puts each root and each pair of paths in a block of its own; at 300 a pair
        # block holds a few dozen pairs
        hosts = [er(9, 0.5, 1), generate(Complete(6))] + ([er(30, 0.2, 4)] if budget > 1 else [])

        def lists(g):
            return [sorted(map(tuple, cycle_list(g, length).tolist())) for length in census.CYCLE_LENGTHS]

        want = [(cycle_counts(g), lists(g)) for g in hosts]
        monkeypatch.setattr(rng, "BATCH_ENTRIES", budget)
        for g, (counts, listed) in zip(hosts, want):
            if budget == 1:
                assert len(census._root_blocks(g, 4)) == g.n
            assert cycle_counts(g) == counts
            assert lists(g) == listed

    @pytest.mark.parametrize("spec", [ErdosRenyi(100, 0.05, 7), Cycle(4000)], ids=["er100", "C4000"])
    def test_peak_memory_stays_bounded(self, spec):
        g = generate(spec)
        tracemalloc.start()
        try:
            cycle_counts(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_cycle_list_peak_is_its_blocks_and_one_copy(self):
        g = generate(Complete(10))
        tracemalloc.start()
        try:
            cycles = cycle_list(g, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cycles.shape == (math.comb(10, 8) * math.factorial(7) // 2, 8)
        assert peak <= 2.5 * cycles.nbytes

    def test_one_closed_form_check_per_walk(self, monkeypatch):
        real, built = census.PatternCounts, []
        monkeypatch.setattr(census, "PatternCounts", lambda g: built.append(g) or real(g))
        cycle_counts(er(30, 0.2, 1))
        assert len(built) == 1


# single edges, stars, unions of alike components, isolated vertices and the empty pattern
INJECTIVE_PATTERNS = [
    *(Graph(2 * k, [(2 * i, 2 * i + 1) for i in range(k)]) for k in (1, 2, 3, 4)),
    *(generate(Star(k)) for k in (2, 3, 5)),
    Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
    Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]),
    Graph(6, [(0, 4), (2, 4), (3, 5)]),
    Graph(5, [(1, 2), (2, 3), (1, 3)]),
    Graph(3, []),
    Graph(0, []),
    generate(Cycle(5)),
    Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]),
]


class TestCountSubgraph:
    def test_frozen_examples(self):
        k4 = generate(Complete(4))
        p2 = Graph(3, [(0, 1), (1, 2)])
        assert count_subgraph(k4, p2) == 12  # sum_v C(deg v, 2) = 4 * 3
        k3 = generate(Complete(3))
        assert count_subgraph(k3, k3) == 1
        assert count_subgraph(generate(Star(4)), generate(Star(2))) == 6  # C(4,2)

    def test_matches_brute_force(self):
        patterns = [
            generate(Cycle(4)),
            Graph(4, [(0, 1), (1, 2), (2, 3)]),
            generate(Star(3)),
            Graph(4, [(0, 1), (2, 3)]),
            generate(Complete(3)),
        ]
        for seed in range(6):
            g = er(8, 0.4, seed)
            for h in patterns:
                assert count_subgraph(g, h) == brute_count_subgraph(g, h)

    def test_pattern_gate(self):
        with pytest.raises(PatternTooLargeError):
            count_subgraph(generate(Complete(5)), generate(Cycle(7)))

    def test_isolated_vertex_rejected(self):
        h = Graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            count_subgraph(generate(Complete(4)), h)

    def test_six_edge_matching_pattern(self):
        # 12-vertex pattern: exercises per-component canonicalization
        h = Graph(12, [(2 * i, 2 * i + 1) for i in range(6)])
        got = count_subgraph(generate(CompleteBipartite(2, 6)), h)
        assert got == brute_count_subgraph(generate(CompleteBipartite(2, 6)), h)

    @pytest.mark.parametrize("host,pattern,copies", [
        (Complete(10), Complete(4), math.comb(10, 4)),
        (Complete(8), Cycle(6), math.comb(8, 6) * math.factorial(5) // 2),
        (Complete(7), Path(6), math.factorial(7) // 2),
    ], ids=["K4-in-K10", "C6-in-K8", "six-edge-path-in-K7"])
    def test_closed_forms_beyond_an_edge_subset_scan(self, host, pattern, copies):
        start = time.perf_counter()
        assert count_subgraph(generate(host), generate(pattern)) == copies
        assert time.perf_counter() - start < 1.0

    def test_search_depth_is_not_bounded_by_the_recursion_limit(self):
        # a hub with two leaves and a 2,996-edge tail: one placement per vertex, and the leaves swap
        h = Graph(3000, [(0, 1), (0, 2), (0, 3)] + [(i, i + 1) for i in range(3, 2999)])
        assert injective_homomorphisms(h, h) == 2

    @given(st.integers(0, 8), st.data())
    @settings(max_examples=120, deadline=None)
    def test_injective_homomorphisms_match_the_oracles(self, n, data):
        pool = list(itertools.combinations(range(n), 2))
        g = Graph(n, data.draw(st.lists(st.sampled_from(pool), unique=True, max_size=12)) if pool else [])
        h = data.draw(st.sampled_from(INJECTIVE_PATTERNS))
        core = {v: i for i, v in enumerate(v for v in range(h.n) if h.degree(v))}
        support = Graph(len(core), [(core[u], core[v]) for u, v in h.edges])
        # each copy of the support takes |Aut| maps, and the isolated vertices any distinct others
        spread = math.perm(max(g.n - support.n, 0), h.n - support.n)
        assert injective_homomorphisms(h, g) == brute_count_subgraph(g, support) * brute_automorphisms(support) * spread
        assert injective_homomorphisms(h, h) == brute_automorphisms(h)


class TestPatternCanonicalization:
    def test_isomorphic_relabelings_agree(self):
        base = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]
        for perm in itertools.permutations(range(4)):
            relabeled = [(perm[u], perm[v]) for u, v in base]
            assert MultiGraphPattern.from_edges(relabeled) == MultiGraphPattern.from_edges(base)

    def test_multiplicity_distinguishes(self):
        doubled = MultiGraphPattern.from_edges([(0, 1), (0, 1)])
        single = MultiGraphPattern.from_edges([(0, 1)])
        assert doubled != single
        assert doubled.edge_count == 2 and doubled.simple_edge_count == 1

    def test_share_vs_disjoint_doubled(self):
        shared = MultiGraphPattern.from_edges([(0, 1), (0, 1), (1, 2), (1, 2)])
        disjoint = MultiGraphPattern.from_edges([(0, 1), (0, 1), (2, 3), (2, 3)])
        assert shared != disjoint
        assert shared.component_count() == 1
        assert disjoint.component_count() == 2

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_random_relabel_invariance(self, data):
        nv = data.draw(st.integers(2, 6))
        pool = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
        pairs = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
        perm = data.draw(st.permutations(range(nv)))
        relabeled = [(perm[u], perm[v]) for u, v in pairs]
        assert MultiGraphPattern.from_edges(pairs) == MultiGraphPattern.from_edges(relabeled)

    def test_refinement_search_matches_the_permutation_search(self):
        # every connected block of every tuple class, and cycles, each under random relabelings
        blocks = []
        for k in (1, 2, 3, 4):
            for pat in all_patterns(k):
                for comp in census.components(pat.vertex_count, [(u, v) for u, v, _ in pat.multi_edges]):
                    local = {x: i for i, x in enumerate(comp)}
                    blocks.append((len(comp), {(local[u], local[v]): mu for u, v, mu in pat.multi_edges if u in local}))
        blocks += [(g, {(min(i, (i + 1) % g), max(i, (i + 1) % g)): 1 for i in range(g)}) for g in range(3, 9)]
        rnd = np.random.default_rng(5)
        for nv, mult in blocks:
            want = permutation_canonical_rep(nv, mult)
            for _ in range(4):
                perm = rnd.permutation(nv).tolist()
                relabeled = {(min(perm[u], perm[v]), max(perm[u], perm[v])): mu for (u, v), mu in mult.items()}
                assert census._canonical_rep(nv, relabeled) == want, (nv, mult)

    @pytest.mark.parametrize("g", range(3, 11))
    def test_cycles_canonicalize_to_the_ladder(self, g):
        # the least labeling of C_g walks out from 0 along both arms: 0-1, 0-2, i-(i+2), (g-2)-(g-1)
        ladder = ((0, 1, 1), (0, 2, 1)) + tuple((i, i + 2, 1) for i in range(1, g - 2)) + ((g - 2, g - 1, 1),)
        pairs = [(i, (i + 1) % g) for i in range(g)]
        assert MultiGraphPattern.from_edges(pairs).multi_edges == tuple(sorted(ladder))
        if g <= 8:
            assert permutation_canonical_rep(g, {(min(u, v), max(u, v)): 1 for u, v in pairs}) == tuple(sorted(ladder))

    def test_ten_cycle_is_fast(self, monkeypatch):
        monkeypatch.setattr(census, "_classify_cache", {})
        start = time.perf_counter()
        MultiGraphPattern.from_edges([(i, (i + 1) % 10) for i in range(10)])
        assert time.perf_counter() - start < 0.05

    def test_non_isomorphic_differ(self):
        path3 = MultiGraphPattern.from_edges([(0, 1), (1, 2), (2, 3)])
        star3 = MultiGraphPattern.from_edges([(0, 1), (0, 2), (0, 3)])
        assert path3 != star3

    @pytest.mark.parametrize("pairs,name", [
        ([(0, 1), (1, 2), (0, 2)], "C3"),
        ([(0, 1), (1, 2), (2, 3), (0, 3)], "C4"),
        ([(0, 1), (1, 2), (2, 3)], "P3"),
        ([(0, 1), (0, 2), (0, 3)], "star3"),
        ([(0, 1), (1, 2), (0, 2), (2, 3)], "[0-3,1-2,1-3,2-3]"),  # the paw, by its canonical edges
        ([(0, 1), (2, 3)], "edge + edge"),
        ([(0, 1), (0, 1)], "edge^2"),
    ], ids=["triangle", "four-cycle", "path", "star", "paw", "two-edges", "doubled-edge"])
    def test_describe(self, pairs, name):
        assert MultiGraphPattern.from_edges(pairs).describe() == name


class TestMultigraphTuples:
    def test_triangle_pairs(self):
        out = count_multigraph_tuples(generate(Complete(3)), 2)
        by_desc = {p.describe(): c for p, c in out.items()}
        assert by_desc == {"edge^2": 3, "star2": 6}

    def test_disjoint_edges_pairs(self):
        g = Graph(4, [(0, 1), (2, 3)])
        out = count_multigraph_tuples(g, 2)
        by_desc = {p.describe(): c for p, c in out.items()}
        assert by_desc == {"edge^2": 2, "edge + edge": 2}

    def test_single(self):
        out = count_multigraph_tuples(generate(Complete(3)), 1)
        assert list(out.values()) == [3]

    @pytest.mark.parametrize("name,spec", [("K4", Complete(4)), ("K23", CompleteBipartite(2, 3))])
    def test_totals_and_known_classes(self, name, spec):
        g = generate(spec)
        for k in (1, 2, 3, 4):
            out = count_multigraph_tuples(g, k)
            assert sum(out.values()) == g.m**k
        out4 = count_multigraph_tuples(g, 4)
        c4_class = MultiGraphPattern.from_edges([(0, 1), (1, 2), (2, 3), (0, 3)])
        assert out4.get(c4_class, 0) == 24 * count_cycles(g, 4)
        shared = MultiGraphPattern.from_edges([(0, 1), (0, 1), (1, 2), (1, 2)])
        disjoint = MultiGraphPattern.from_edges([(0, 1), (0, 1), (2, 3), (2, 3)])
        doubled_pairs = out4.get(shared, 0) + out4.get(disjoint, 0)
        assert doubled_pairs == 6 * math.comb(g.m, 2)

    def test_star_101_at_k4(self):
        # 101^4 > 10^8 tuples: past the reach of any walk over edge multisets
        g = generate(Star(101))
        out = count_multigraph_tuples(g, 4)
        assert sum(out.values()) == g.m**4
        c4_class = MultiGraphPattern.from_edges([(0, 1), (1, 2), (2, 3), (0, 3)])
        assert out.get(c4_class, 0) == 24 * count_cycles(g, 4) == 0
        shared = MultiGraphPattern.from_edges([(0, 1), (0, 1), (1, 2), (1, 2)])
        disjoint = MultiGraphPattern.from_edges([(0, 1), (0, 1), (2, 3), (2, 3)])
        assert out.get(shared, 0) + out.get(disjoint, 0) == 6 * math.comb(g.m, 2)
        # every tuple of a star spans a star: 4 distinct leaves in 4! orders, and so on
        star4 = MultiGraphPattern.from_edges([(0, 1), (0, 2), (0, 3), (0, 4)])
        assert out[star4] == 24 * math.comb(101, 4)
        assert out[shared] == 6 * math.comb(101, 2) and disjoint not in out

    def test_all_patterns_sizes(self):
        assert len(all_patterns(1)) == 1
        pats2 = all_patterns(2)
        assert {p.describe() for p in pats2} == {"edge^2", "star2", "edge + edge"}
        for p in all_patterns(4):
            assert p.vertex_count <= 8
            assert p.edge_count == 4


class TestHomDensity:
    def test_frozen_examples(self):
        assert hom_density_cycle(generate(Complete(2)), 4) == pytest.approx(0.125)
        assert hom_density_cycle(generate(Complete(3)), 3) == pytest.approx(2 / 9)
        assert hom_density_cycle(Graph(5, []), 3) == 0.0

    def test_requires_length_two(self):
        with pytest.raises(ValueError):
            hom_density_cycle(generate(Complete(3)), 1)

    def test_even_length_nonnegative(self):
        for seed in range(5):
            g = er(12, 0.4, seed)
            for length in (2, 4, 6):
                assert hom_density_cycle(g, length) >= -1e-12


class TestDecomposeTight:
    def test_cycle(self):
        pat = MultiGraphPattern.from_edges([(0, 1), (1, 2), (2, 3), (0, 3)])
        assert decompose_tight_multigraph(pat) == (CycleFactor(4),)

    def test_doubled_plus_triangle(self):
        pat = MultiGraphPattern.from_edges([(0, 1), (0, 1), (2, 3), (3, 4), (2, 4)])
        factors = decompose_tight_multigraph(pat)
        assert sorted(factors, key=repr) == sorted((DoubledEdgeFactor(), CycleFactor(3)), key=repr)

    def test_unbalanced_rejected(self):
        pat = MultiGraphPattern.from_edges([(0, 1), (0, 1), (1, 2), (0, 2)])
        with pytest.raises(PreconditionViolatedError):
            decompose_tight_multigraph(pat)

    def test_degree_one_rejected(self):
        pat = MultiGraphPattern.from_edges([(0, 1), (1, 2), (2, 3), (1, 3)])
        with pytest.raises(PreconditionViolatedError):
            decompose_tight_multigraph(pat)

    def test_every_tight_class_decomposes(self):
        for k in (2, 3, 4):
            for pat in all_patterns(k):
                if pat.min_multi_degree >= 2 and pat.vertex_count == pat.edge_count:
                    factors = decompose_tight_multigraph(pat)
                    assert factors  # raises instead of producing bad factors


class TestIsomorphismOracleAgreement:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_pattern_equality_matches_permutation_search(self, data):
        nv = data.draw(st.integers(2, 5))
        pool = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
        e1 = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
        e2 = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
        v1 = sorted({x for e in e1 for x in e})
        v2 = sorted({x for e in e2 for x in e})
        g1 = Graph(len(v1), [(v1.index(u), v1.index(v)) for u, v in e1])
        g2 = Graph(len(v2), [(v2.index(u), v2.index(v)) for u, v in e2])
        same = MultiGraphPattern.from_edges(g1.edges) == MultiGraphPattern.from_edges(g2.edges)
        assert same == graphs_isomorphic(g1, g2)


# settings forcing each route of PatternCounts: the quotient B = A with no twin search, the twin
# quotient, the wedges; a batch of 16 leaves the quotient blocks one row and the wedge blocks one up-edge
_QUOTIENT = {"_SMALL_HOST": 0, "_MATMUL_PER_WEDGE": 10**9}
_WEDGE = {"_SMALL_HOST": 0, "_MATMUL_PER_WEDGE": 0}
ROUTES = {
    "adjacency": {"_SMALL_HOST": 10**9},
    "quotient": _QUOTIENT,
    "quotient-rows": {**_QUOTIENT, "BATCH_ENTRIES": 16},
    "wedge": _WEDGE,
    "wedge-blocks": {**_WEDGE, "BATCH_ENTRIES": 16},
}


@contextlib.contextmanager
def forced_route(name):
    with pytest.MonkeyPatch.context() as mp:
        for attr, value in ROUTES[name].items():
            mp.setattr(rng if attr == "BATCH_ENTRIES" else census, attr, value)
        yield


def routes_taken(g, monkeypatch):
    """The route functions that ``PatternCounts(g)`` calls."""
    calls = []
    for fn in ("_quotient_invariants", "_wedge_invariants"):
        real = getattr(census, fn)
        monkeypatch.setattr(census, fn, lambda *a, real=real, fn=fn: calls.append(fn) or real(*a))
    PatternCounts(g)
    return calls


def assert_engine_matches_oracles(g, tuple_budget=20_000):
    """Tuple classes for k = 1..4 (while the multiset walk stays cheap), N(K3), N(C4) and the
    triangles at each vertex, on every route, against the enumeration and the dense traces."""
    tables = {k: enumerate_multigraph_tuples(g, k) for k in range(1, 5) if math.comb(g.m + k - 1, k) <= tuple_budget}
    k3, c4 = trace_cycle_counts(g)
    a = g.adjacency_matrix(np.int64)
    for name in ROUTES:
        with forced_route(name):
            counts = PatternCounts(g)
            assert counts.copies(census._CYCLES[3]) == k3, name
            assert counts.copies(census._CYCLES[4]) == count_cycles(g, 4) == c4, name
            assert counts.triangles.tolist() == (np.diag(a @ a @ a) // 2).tolist(), name
            for k, table in tables.items():
                assert count_multigraph_tuples(g, k) == table, (name, k)


class TestPatternCounts:
    def test_catalog_matches_oracles(self, catalog):
        for name, g in catalog:
            assert_engine_matches_oracles(g)

    @given(st.integers(1, 9), st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_graphs_match_oracles(self, n, data):
        pool = list(itertools.combinations(range(n), 2))
        pairs = data.draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool))) if pool else []
        assert_engine_matches_oracles(Graph(n, pairs))

    @given(blow_up_specs())
    @settings(max_examples=30, deadline=None)
    def test_blow_ups_match_oracles(self, spec):
        assert_engine_matches_oracles(blow_up(*spec))

    @pytest.mark.parametrize("name", sorted(ROUTES))
    def test_forced_route_is_taken(self, name, monkeypatch):
        with forced_route(name):
            calls = routes_taken(er(12, 0.4, 3), monkeypatch)
        assert calls == ["_wedge_invariants" if name.startswith("wedge") else "_quotient_invariants"]

    @pytest.mark.parametrize("spec,route", [
        (ErdosRenyi(30, 0.2, 1), "_quotient_invariants"),  # B = A
        (Star(20000), "_quotient_invariants"),  # two twin classes
        (Complete(800), "_quotient_invariants"),  # one
        (ErdosRenyi(300, 0.5, 1), "_quotient_invariants"),  # twin-free, but dense
        (RandomRegular(2000, 3, 5), "_wedge_invariants"),
        (ErdosRenyi(2000, 0.01, 1), "_wedge_invariants"),
    ])
    def test_route_choice(self, spec, route, monkeypatch):
        assert routes_taken(generate(spec), monkeypatch) == [route]

    @pytest.mark.parametrize("n", [4, 5, 9, 30, 200])
    def test_complete_graphs(self, n):
        counts = PatternCounts(generate(Complete(n)))
        assert counts.copies(census._CYCLES[4]) == 3 * math.comb(n, 4)
        assert counts.copies(census._CYCLES[3]) == math.comb(n, 3)
        assert counts.triangles.tolist() == [math.comb(n - 1, 2)] * n

    @pytest.mark.parametrize("a,b", [(1, 5), (2, 2), (3, 7), (40, 90)])
    def test_complete_bipartite_graphs(self, a, b):
        counts = PatternCounts(generate(CompleteBipartite(a, b)))
        assert counts.copies(census._CYCLES[4]) == math.comb(a, 2) * math.comb(b, 2)
        assert counts.copies(census._CYCLES[3]) == 0

    @pytest.mark.parametrize("dim", [2, 3, 4, 6, 9])
    def test_hypercubes(self, dim):
        # a four-cycle of Q_d flips two coordinates and fixes the other d - 2
        g = generate(Hypercube(dim))
        for name in ROUTES:
            with forced_route(name):
                assert count_cycles(g, 4) == math.comb(dim, 2) * 2 ** (dim - 2)

    def test_automorphisms_of_every_support(self):
        for h in census._supports(4):
            assert census._automorphisms(h) == brute_automorphisms(h.simple_support())

    def test_supports_are_every_simple_graph_with_few_edges(self):
        # the simple classes among all_patterns(k) are the simple graphs with exactly k edges
        for k in (1, 2, 3, 4):
            simple = {p for p in census._supports(k) if p.edge_count == k}
            assert simple == {p for p in all_patterns(k) if p.simple_edge_count == k}
        assert [sum(p.edge_count == e for p in census._supports(4)) for e in (1, 2, 3, 4)] == [1, 2, 5, 11]

    def test_all_patterns_match_the_enumeration_on_k2k(self):
        for k in (1, 2, 3):
            host = generate(Complete(2 * k))
            assert set(all_patterns(k)) == set(enumerate_multigraph_tuples(host, k))
        assert len(all_patterns(4)) == 23

    @pytest.mark.parametrize("spec", [Star(20000), Complete(800)], ids=["star20000", "K800"])
    def test_peak_memory_stays_bounded(self, spec):
        g = generate(spec)
        tracemalloc.start()
        try:
            count_cycles(g, 4)
            count_multigraph_tuples(g, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_counts_stay_exact_past_int64(self):
        # sum d^4 = 60000^4 + 60000 > 2^63 on this star, so the sums run in Python ints
        star4 = MultiGraphPattern.from_edges([(0, 1), (0, 2), (0, 3), (0, 4)])
        assert PatternCounts(generate(Star(60_000))).copies(star4) == math.comb(60_000, 4)

    def test_edgeless_hosts(self):
        for g in (Graph(0, []), Graph(5, [])):
            counts = PatternCounts(g)
            assert counts.copies(census._CYCLES[4]) == 0
            assert count_multigraph_tuples(g, 3) == {}
