import math
from fractions import Fraction

import pytest

from oracles import brute_automorphisms, brute_deficiency, brute_gamma

from colorgraph.errors import (
    NoSpanningCycleEdgeFactorError,
    PatternTooLargeError,
    SolutionMismatchError,
)
from colorgraph.extremal import (
    alon_asymptotic,
    automorphism_count,
    condition_report,
    deficiency,
    gamma,
    structural_check,
)
from colorgraph.graph import (
    Complete,
    CompleteBipartite,
    Cycle,
    ErdosRenyi,
    Graph,
    Path,
    Star,
    generate,
)

HALF = Fraction(1, 2)


def random_no_isolated(n, p, seed):
    g = generate(ErdosRenyi(n, p, seed))
    keep = [v for v in range(g.n) if g.degree(v) > 0]
    if len(keep) < 2:
        return None
    relabel = {v: i for i, v in enumerate(keep)}
    return Graph(len(keep), [(relabel[u], relabel[v]) for u, v in g.edges])


class TestDeficiency:
    def test_frozen_examples(self):
        assert deficiency(generate(Star(3))) == 2  # leaves vs center
        assert deficiency(generate(Cycle(4))) == 0
        assert deficiency(generate(Complete(3))) == 0

    def test_matches_brute_force(self):
        for seed in range(60):
            g = random_no_isolated(7, 0.4, seed)
            if g is None:
                continue
            assert deficiency(g) == brute_deficiency(g)

    def test_larger_instances(self):
        # brute force stays feasible to 16 vertices (2^16 subsets)
        for n, seed in ((12, 1), (12, 2), (16, 3), (16, 4)):
            g = random_no_isolated(n, 0.2, seed)
            if g is None:
                continue
            assert deficiency(g) == brute_deficiency(g)

    def test_isolated_vertex_rejected(self):
        with pytest.raises(ValueError):
            deficiency(Graph(3, [(0, 1)]))


class TestGamma:
    def test_star_attains_edge_count(self):
        sol = gamma(generate(Star(4)))
        assert sol.gamma == 4
        assert sorted(sol.phi) == [0, 1, 1, 1, 1]

    def test_odd_cycle_all_halves(self):
        sol = gamma(generate(Cycle(5)))
        assert sol.gamma == Fraction(5, 2)
        assert set(sol.phi) == {HALF}

    def test_three_edge_path(self):
        assert gamma(generate(Path(3))).gamma == 2

    def test_solution_contract(self):
        # objective, feasibility, half-integrality; never a specific phi
        for seed in range(80):
            g = random_no_isolated(7, 0.45, seed)
            if g is None:
                continue
            sol = gamma(g)
            assert sol.gamma == brute_gamma(g)
            assert all(p in (Fraction(0), HALF, Fraction(1)) for p in sol.phi)
            assert sum(sol.phi) == sol.gamma
            for u, v in g.edges:
                assert sol.phi[u] + sol.phi[v] <= 1
            v0, vhalf, v1 = sol.partition
            assert sorted(v0 + vhalf + v1) == list(range(g.n))
            ones = set(v1)
            assert not any(u in ones and v in ones for u, v in g.edges)

    def test_gamma_equals_half_n_plus_deficiency(self):
        for seed in range(40):
            g = random_no_isolated(8, 0.35, seed + 100)
            if g is None:
                continue
            assert gamma(g).gamma == Fraction(g.n + deficiency(g), 2)


class TestStructuralCheck:
    def test_star(self):
        g = generate(Star(3))
        rep = structural_check(gamma(g), g)
        assert rep.saturating_matching and rep.half_part_spanning and rep.union_of_stars

    def test_odd_cycle(self):
        g = generate(Cycle(5))
        rep = structural_check(gamma(g), g)
        assert rep.saturating_matching  # vacuous at gamma = n/2
        assert rep.half_part_spanning
        assert not rep.union_of_stars

    def test_triangle_plus_star(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (3, 5)])
        rep = structural_check(gamma(g), g)
        assert not rep.union_of_stars

    def test_union_of_stars_detection(self):
        g = Graph(7, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6)])
        assert structural_check(gamma(g), g).union_of_stars

    def test_mismatched_solution_rejected(self):
        sol = gamma(generate(Star(3)))
        with pytest.raises(SolutionMismatchError):
            structural_check(sol, generate(Cycle(4)))

    def test_certificates_hold_generally(self):
        for seed in range(60):
            g = random_no_isolated(8, 0.4, seed + 300)
            if g is None:
                continue
            rep = structural_check(gamma(g), g)
            assert rep.saturating_matching
            assert rep.half_part_spanning


class TestGammaInequalities:
    def test_upper_bound_vertices_minus_components(self):
        # equality exactly on unions of stars
        cases = [
            (generate(Star(4)), True),
            (Graph(5, [(0, 1), (2, 3), (3, 4)]), True),
            (generate(Cycle(5)), False),
            (generate(Complete(4)), False),
            (Graph(4, [(0, 1), (1, 2), (2, 3)]), False),  # P3 is not a star
        ]
        for g, is_stars in cases:
            sol = gamma(g)
            bound = Fraction(g.n - g.component_count())
            assert sol.gamma <= bound
            assert (sol.gamma == bound) == is_stars
            assert structural_check(sol, g).union_of_stars == is_stars

    def test_min_degree_two_half_edge_bound(self):
        for seed in range(120):
            g = random_no_isolated(8, 0.5, seed)
            if g is None or min(g.degrees) < 2:
                continue
            assert gamma(g).gamma <= Fraction(g.m, 2)

    def test_large_gamma_forces_leaf(self):
        for seed in range(120):
            g = random_no_isolated(8, 0.35, seed + 500)
            if g is None:
                continue
            if gamma(g).gamma > Fraction(g.m, 2):
                assert min(g.degrees) == 1


class TestConditionReport:
    def test_k2_100(self):
        rep = condition_report(generate(CompleteBipartite(2, 100)))
        assert rep.acf4_ratio == pytest.approx(4950 / 40000)

    def test_star_usn(self):
        rep = condition_report(generate(Star(50)))
        assert rep.acf4_ratio == 0.0
        assert rep.usn_ratio == pytest.approx(1 / math.sqrt(2))

    def test_single_edge(self):
        rep = condition_report(generate(Complete(2)))
        assert all(v == 0 for v in rep.cycle_ratios.values())

    def test_acf4_below_half_usn_squared(self):
        for seed in range(25):
            g = random_no_isolated(20, 0.25, seed)
            if g is None:
                continue
            rep = condition_report(g)
            assert rep.acf4_ratio <= rep.usn_ratio**2 / 2 + 1e-12

    def test_requires_an_edge(self):
        with pytest.raises(ValueError):
            condition_report(Graph(3, []))


class TestAutomorphismsAndAsymptotics:
    def test_automorphism_counts(self):
        assert automorphism_count(generate(Complete(2))) == 2
        assert automorphism_count(generate(Cycle(3))) == 6
        assert automorphism_count(generate(Cycle(4))) == 8
        assert automorphism_count(generate(Star(3))) == 6

    def test_automorphisms_match_brute_force(self):
        for seed in range(25):
            g = random_no_isolated(6, 0.45, seed)
            if g is None:
                continue
            assert automorphism_count(g) == brute_automorphisms(g)

    def test_frozen_examples(self):
        assert alon_asymptotic(generate(Complete(2)), 9.0) == pytest.approx(9.0)
        assert alon_asymptotic(generate(Cycle(3)), 50.0) == pytest.approx(100.0**1.5 / 6)
        assert alon_asymptotic(generate(Cycle(4)), 8.0) == pytest.approx(32.0)

    def test_requires_spanning_cycle_edge_factor(self):
        with pytest.raises(NoSpanningCycleEdgeFactorError):
            alon_asymptotic(generate(Star(3)), 10.0)

    def test_size_gate(self):
        with pytest.raises(PatternTooLargeError):
            alon_asymptotic(generate(Cycle(12)), 10.0)

    def test_cycle_bound_consistency(self):
        # for the cycle itself the asymptotic equals the closed-walk bound
        for g_len in (3, 4, 5, 6):
            cyc = generate(Cycle(g_len))
            budget = 37.0
            expect = (2 * budget) ** (g_len / 2) / (2 * g_len)
            assert alon_asymptotic(cyc, budget) == pytest.approx(expect)
