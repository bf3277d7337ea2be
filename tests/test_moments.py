import math
from fractions import Fraction

import pytest

from oracles import pmf_moment

from colorgraph import limits
from colorgraph.census import MultiGraphPattern, all_patterns, count_cycles
from colorgraph.colorsim import MonoEdges, exact_distribution
from colorgraph.errors import PatternTooLargeError
from colorgraph.graph import (
    Complete,
    CompleteBipartite,
    Cycle,
    ErdosRenyi,
    Path,
    RandomRegular,
    Star,
    generate,
)
from colorgraph.moments import (
    MomentKind,
    MomentRequest,
    bernoulli_central_moment,
    conditional_moment,
    expected_central_products,
    fourth_moment_report,
    stirling_moment,
)


def pattern(*pairs):
    return MultiGraphPattern.from_edges(pairs)


def binomial_raw_moment(m, c, k):
    """Direct oracle: sum over j of C(m, j) p^j (1-p)^(m-j) j^k."""
    p = Fraction(1, c)
    return sum(
        Fraction(math.comb(m, j)) * p**j * (1 - p) ** (m - j) * Fraction(j) ** k
        for j in range(m + 1)
    )


class TestStirlingMoment:
    def test_frozen_examples(self):
        assert stirling_moment(3, 2, 1) == Fraction(3, 2)
        assert stirling_moment(3, 2, 2) == Fraction(3)
        assert stirling_moment(3, 2, 3) == Fraction(27, 4)

    def test_matches_direct_binomial(self):
        for m in range(0, 31, 5):
            for c in (2, 3, 7):
                for k in range(0, 7):
                    assert stirling_moment(m, c, k) == binomial_raw_moment(m, c, k)


class TestExpectedCentralProducts:
    def test_doubled_edge(self):
        ez, ew = expected_central_products(pattern((0, 1), (0, 1)), 2)
        assert ez == ew == Fraction(1, 4)

    def test_four_cycle(self):
        ez, ew = expected_central_products(pattern((0, 1), (1, 2), (2, 3), (0, 3)), 2)
        assert ez == Fraction(1, 16)
        assert ew == 0

    def test_two_doubled_edges_sharing_vertex(self):
        ez, ew = expected_central_products(pattern((0, 1), (0, 1), (1, 2), (1, 2)), 2)
        assert ez == ew == Fraction(1, 16)

    def test_general_c_doubled(self):
        for c in (2, 3, 5):
            ez, ew = expected_central_products(pattern((0, 1), (0, 1)), c)
            expect = Fraction(1, c) * (1 - Fraction(1, c))
            assert ez == ew == expect

    def test_four_cycle_general_c(self):
        for c in (2, 3, 4):
            ez, _ = expected_central_products(pattern((0, 1), (1, 2), (2, 3), (0, 3)), c)
            assert ez == Fraction(1, c**3) * (1 - Fraction(1, c))

    def test_gate(self):
        with pytest.raises(PatternTooLargeError):
            expected_central_products(pattern(*[(i, i + 1) for i in range(7)]), 2)

    def test_tree_support_equality_all_small_patterns(self):
        for k in (1, 2, 3, 4):
            for pat in all_patterns(k):
                support = pat.simple_support()
                is_tree = (
                    support.component_count() == 1
                    and support.m == support.n - 1
                )
                if is_tree:
                    for c in (2, 3):
                        ez, ew = expected_central_products(pat, c)
                        assert ez == ew

    def test_degree_one_annihilation_all_small_patterns(self):
        for k in (1, 2, 3, 4):
            for pat in all_patterns(k):
                if 1 in pat.multi_degrees():
                    for c in (2, 3):
                        assert expected_central_products(pat, c) == (0, 0)

    def test_bernoulli_central_moments(self):
        for c in (2, 3, 5):
            p = Fraction(1, c)
            assert bernoulli_central_moment(c, 1) == 0
            assert bernoulli_central_moment(c, 2) == p * (1 - p)
            assert bernoulli_central_moment(c, 3) == p * (1 - p) * (1 - 2 * p)


class TestConditionalMoments:
    def test_raw_n_triangle(self):
        got = conditional_moment(generate(Complete(3)), MomentRequest(MomentKind.RAW_N, 2, 2))
        assert got.value == 3  # oracle: (2*9 + 6*1)/8

    def test_raw_difference_third_order(self):
        k3 = generate(Complete(3))
        raw_n = conditional_moment(k3, MomentRequest(MomentKind.RAW_N, 3, 2)).value
        raw_m = conditional_moment(k3, MomentRequest(MomentKind.RAW_M, 3, 2)).value
        assert raw_n == Fraction(30, 4)
        assert raw_m == Fraction(27, 4)
        assert raw_n - raw_m == Fraction(3, 4)

    def test_central_z_four_cycle(self):
        got = conditional_moment(generate(Cycle(4)), MomentRequest(MomentKind.CENTRAL_Z, 4, 2))
        assert got.value == 1

    def test_raw_m_equals_stirling(self):
        for spec, c in ((Complete(4), 2), (CompleteBipartite(2, 3), 3), (Star(5), 2)):
            g = generate(spec)
            for k in (1, 2, 3, 4):
                got = conditional_moment(g, MomentRequest(MomentKind.RAW_M, k, c)).value
                assert got == stirling_moment(g.m, c, k)

    def test_raw_n_second_moment_pairwise_independence(self):
        for seed in range(6):
            g = generate(ErdosRenyi(8, 0.5, seed))
            if g.m == 0:
                continue
            for c in (2, 3):
                got = conditional_moment(g, MomentRequest(MomentKind.RAW_N, 2, c)).value
                assert got == stirling_moment(g.m, c, 2)

    def test_raw_n_matches_enumeration(self):
        for spec, c in ((Complete(4), 2), (Cycle(5), 3), (CompleteBipartite(2, 3), 2)):
            g = generate(spec)
            pmf = exact_distribution(g, c, MonoEdges())
            for k in (1, 2, 3, 4):
                got = conditional_moment(g, MomentRequest(MomentKind.RAW_N, k, c)).value
                assert got == pmf_moment(pmf, k)

    def test_central_z_matches_enumeration(self):
        for spec, c in ((Complete(4), 2), (Cycle(5), 2), (Star(4), 3)):
            g = generate(spec)
            pmf = exact_distribution(g, c, MonoEdges())
            center = Fraction(g.m, c)
            scale2 = Fraction(g.m, c)
            for k in (2, 4):
                direct = sum((Fraction(v) - center) ** k * p for v, p in pmf.items())
                direct /= scale2 ** (k // 2)
                got = conditional_moment(g, MomentRequest(MomentKind.CENTRAL_Z, k, c)).value
                assert got == direct

    def test_central_z_order_four_on_a_host_the_multiset_walk_found_slow(self):
        # er:14:0.5:1 has m = 51: C(54, 4) edge multisets, against 2^14 colorings enumerated
        g = generate(ErdosRenyi(14, 0.5, 1))
        assert g.m == 51
        pmf = exact_distribution(g, 2, MonoEdges())
        center = scale2 = Fraction(g.m, 2)
        direct = sum((Fraction(v) - center) ** 4 * p for v, p in pmf.items()) / scale2**2
        assert conditional_moment(g, MomentRequest(MomentKind.CENTRAL_Z, 4, 2)).value == direct

    def test_odd_central_scaling(self):
        # m/c a perfect rational square: scaled value exists
        g = generate(Complete(3))  # m = 3
        got = conditional_moment(g, MomentRequest(MomentKind.CENTRAL_Z, 3, 3))
        assert got.value == got.unscaled  # (m/c) = 1
        # m/c not a perfect square: unscaled reported, value None
        g2 = generate(Complete(4))  # m = 6, c = 2 -> m/c = 3
        got2 = conditional_moment(g2, MomentRequest(MomentKind.CENTRAL_Z, 3, 2))
        assert got2.value is None
        assert got2.scale_exponent == Fraction(3, 2)

    def test_request_validation(self):
        with pytest.raises(ValueError):
            MomentRequest(MomentKind.RAW_N, 5, 2)
        with pytest.raises(ValueError):
            MomentRequest(MomentKind.RAW_N, 2, 1)


class TestFourthMomentReport:
    def test_four_cycle_exact(self):
        rep = fourth_moment_report(generate(Cycle(4)), 2)
        assert rep.exact == 1
        assert rep.leading == Fraction(3, 4)
        assert rep.c4_term == Fraction(1, 64)
        assert rep.remainder == Fraction(15, 64)

    def test_single_edge_degenerate(self):
        rep = fourth_moment_report(generate(Complete(2)), 2)
        assert rep.exact == Fraction(1, 4)
        assert rep.leading == Fraction(3, 4)
        assert rep.c4_term == 0
        assert rep.remainder == Fraction(-1, 2)

    def test_c4_free_graph_has_zero_term(self):
        g = generate(Path(4))
        rep = fourth_moment_report(g, 3)
        assert rep.c4_term == 0

    def test_large_sparse_host(self):
        # m^4 = 2e19 tuples; the four-cycle term carries the DFS count
        g = generate(RandomRegular(100_000, 3, 1))
        rep = fourth_moment_report(g, 2)
        assert rep.exact == rep.leading + rep.c4_term + rep.remainder
        assert rep.c4_term == Fraction(1, 4) * Fraction(count_cycles(g, 4), g.m**2)
        assert abs(rep.exact - rep.leading) < Fraction(1, 1000)

    def test_identity_always(self):
        for spec, c in ((Complete(5), 2), (CompleteBipartite(2, 4), 3), (Cycle(6), 2)):
            rep = fourth_moment_report(generate(spec), c)
            assert rep.exact == rep.leading + rep.c4_term + rep.remainder


class TestGaussianSurrogateAgreement:
    @pytest.mark.parametrize(
        "pairs",
        [
            ((0, 1), (0, 1)),  # doubled edge
            ((0, 1), (1, 2), (0, 2)),  # triangle
            ((0, 1), (1, 2), (2, 3), (0, 3)),  # four-cycle
        ],
    )
    def test_balanced_patterns_match_moments(self, pairs):
        pat = pattern(*pairs)
        assert pat.vertex_count == pat.edge_count and pat.min_multi_degree >= 2
        c = 2
        ez, _ = expected_central_products(pat, c)
        draws = limits.gaussian_surrogate_product(pat, c, 1_000_000, seed=31)
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - float(ez)) <= 4 * se
