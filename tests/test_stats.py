import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import block_jackknife_moments_loop, brute_two_sample_ks, exact_jackknife_moments

from colorgraph import limits, rng, stats
from colorgraph.colorsim import MonoEdges, MonoStars, simulate
from colorgraph.graph import generate, parse_family
from colorgraph.stats import (
    ecdf,
    empirical_moments,
    empirical_pmf,
    ks_statistic,
    tv_distance,
    two_sample_ks,
)


def normal_cdf(x):
    return 0.5 * (1 + math.erf(x / math.sqrt(2)))


class TestTvDistance:
    def test_identical(self):
        p = {0: 0.3, 1: 0.7}
        assert tv_distance(p, p) == 0.0

    def test_disjoint(self):
        assert tv_distance({0: 1.0}, {1: 1.0}) == 1.0

    def test_binomial_vs_poisson(self):
        # oracle: 1/2 (|.25 - e^-1| + |.5 - e^-1| + |.25 - e^-1/2| + tail)
        binom = {0: 0.25, 1: 0.5, 2: 0.25}
        pois = {k: limits.law_pmf(limits.Poisson(1.0), k) for k in range(120)}
        e = math.exp(-1)
        tail = 1.0 - sum(pois[k] for k in (0, 1, 2))
        oracle = 0.5 * (abs(0.25 - e) + abs(0.5 - e) + abs(0.25 - e / 2) + tail)
        assert oracle == pytest.approx(0.198180838, abs=1e-8)
        assert tv_distance(binom, pois) == pytest.approx(oracle, abs=1e-12)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_metric_properties(self, data):
        support = list(range(4))

        def draw_pmf():
            w = data.draw(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))
            total = sum(w)
            return {k: x / total for k, x in zip(support, w)}

        p, q, r = draw_pmf(), draw_pmf(), draw_pmf()
        assert tv_distance(p, q) == pytest.approx(tv_distance(q, p))
        assert tv_distance(p, q) <= tv_distance(p, r) + tv_distance(r, q) + 1e-12
        assert 0.0 <= tv_distance(p, q) <= 1.0


class TestKsStatistic:
    def test_samples_from_cdf_small(self):
        u = rng.uniforms(123, 0, np.arange(100_000))
        assert ks_statistic(u, lambda x: min(1.0, max(0.0, x))) < 0.01

    def test_all_zeros_vs_normal(self):
        assert ks_statistic(np.zeros(1000), normal_cdf) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic([], normal_cdf)

    def test_ties_match_per_sample_evaluation(self):
        def per_sample(samples, cdf):
            arr = np.sort(np.asarray(samples, dtype=np.float64))
            n = arr.size
            ref = np.array([cdf(float(x)) for x in arr])
            upper = np.arange(1, n + 1) / n - ref
            lower = ref - np.arange(0, n) / n
            return float(max(upper.max(), lower.max(), 0.0))

        calls = []

        def counted(x):
            calls.append(x)
            return normal_cdf((x - 40.0) / 6.0)

        counts = rng.poissons(8, 40.0, 0, np.arange(20_000)).astype(np.float64)
        for data in (counts, counts[:7], np.array([3.0, 3.0, 3.0]), np.array([2.0, 0.0, 1.0])):
            calls.clear()
            got = ks_statistic(data, counted)
            assert len(calls) == len(np.unique(data))
            assert got == per_sample(data, counted)

    def test_weights_match_repetition(self):
        values = np.array([3.0, 1.0, 2.0, 5.0])
        counts = np.array([4, 1, 0, 7])
        expanded = np.repeat(values, counts)
        assert ks_statistic(values, normal_cdf, weights=counts) == ks_statistic(expanded, normal_cdf)

    def test_fractional_weights(self):
        # P(1) = 3/4, P(3) = 1/4 against U(0, 4): gaps 1/2 at 1 and 1/4 below 3
        cdf = lambda x: min(1.0, max(0.0, x / 4.0))
        assert ks_statistic([3.0, 1.0], cdf, weights=[0.25, 0.75]) == pytest.approx(0.5)

    def test_empirical_pmf(self):
        assert empirical_pmf([2.0, 1.0, 2.0], [1.0, 2.0, 1.0]) == {2.0: 0.5, 1.0: 0.5}

    def test_bad_weights_rejected(self):
        for weights in ([1.0], [1.0, -1.0], [0.0, 0.0]):
            with pytest.raises(ValueError):
                ks_statistic([1.0, 2.0], normal_cdf, weights=weights)
            with pytest.raises(ValueError, match="weights must be nonnegative"):  # TV's pmf, checked alike
                empirical_pmf([1.0, 2.0], weights)

    def test_invariant_under_increasing_transform(self):
        samples = rng.normals(5, 1, np.arange(20_000))
        base = ks_statistic(samples, normal_cdf)

        def transformed_cdf(x):
            # cdf of exp(X): P(e^X <= x) = Phi(log x)
            return 0.0 if x <= 0 else normal_cdf(math.log(x))

        moved = ks_statistic(np.exp(samples), transformed_cdf)
        assert moved == pytest.approx(base, abs=1e-12)

    def test_two_sample(self):
        a = rng.normals(1, 2, np.arange(50_000))
        b = rng.normals(2, 3, np.arange(50_000))
        assert two_sample_ks(a, b) < 0.02
        # true KS between N(0,1) and N(3,1) is Phi(1.5) - Phi(-1.5) ~ 0.866
        assert two_sample_ks(a, b + 3.0) == pytest.approx(0.8664, abs=0.01)
        # agreement with the ecdf-based one-sample route
        assert two_sample_ks(a, b) == pytest.approx(
            max(ks_statistic(a, ecdf(b)), ks_statistic(b, ecdf(a))), abs=1e-12
        )

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=40), st.lists(st.integers(-4, 4), min_size=1, max_size=40),
           st.floats(0.1, 10.0))
    def test_two_sample_matches_brute_force(self, a, b, step):
        # few distinct values, so most points are tied on their own side and across the sides
        xa, xb = np.array(a) * step, np.array(b) * step
        assert two_sample_ks(xa, xb) == brute_two_sample_ks(xa, xb)

    @pytest.mark.parametrize("a,b", [([1.0], [1.0]), ([1.0], [2.0]), ([2.0], [1.0, 2.0, 2.0, 3.0]),
                                     ([0.0, 0.0, 1.0], [0.5]), ([np.inf], [-np.inf, 3.0, 3.0])],
                             ids=["equal-points", "apart", "one-in-ties", "one-between", "infinities"])
    def test_two_sample_one_element_sides(self, a, b):
        assert two_sample_ks(a, b) == two_sample_ks(b, a) == brute_two_sample_ks(a, b)

    @pytest.mark.parametrize("a,b", [
        (np.round(rng.normals(5, 0, np.arange(300)), 1), np.round(rng.normals(5, 1, np.arange(40)) + 0.2, 1)),
        ([3.0, 1.0, 2.0, 2.0, 2.0, 5.0, 1.0], [2.0, 2.0, 4.0, 1.0]),
        ([0.0, 1.0, 1.0, 2.0, 3.0, 3.0, 3.0], [3.0]),
        ([0.0, 1.0, 1.0, 2.0, 3.0, 3.0, 3.0], [-1.0]),
        ([0.0, 1.0, 1.0, 2.0, 3.0, 3.0, 3.0], [9.0]),
    ], ids=["longer-first-rounded", "ties-on-both-sides", "one-point-on-a-tie", "one-point-below", "one-point-above"])
    def test_two_sample_uneven_sides(self, a, b):
        # the longer side first: its points are the ones not searched for
        assert len(a) > len(b)
        assert two_sample_ks(a, b) == two_sample_ks(b, a) == brute_two_sample_ks(a, b)

    @pytest.mark.parametrize("a,b", [([np.nan, 1.0], [1.0, 2.0]), ([1.0, 2.0], [2.0, np.nan]), ([np.nan], [np.nan])],
                             ids=["left", "right", "both"])
    def test_two_sample_rejects_nan(self, a, b):
        with pytest.raises(ValueError, match="NaN"):
            two_sample_ks(a, b)

    def test_one_sample_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            ks_statistic([np.nan, 1.0], normal_cdf)
        with pytest.raises(ValueError, match="NaN"):
            ks_statistic([1.0, np.nan], normal_cdf, weights=[1.0, 2.0])


MOMENT_INPUTS = {
    "large-mean": lambda: 10.0**9 + rng.normals(21, rng.STREAM_LAW, np.arange(5000)) * 40,
    "ties": lambda: rng.uniform_ints(22, 4, rng.STREAM_LAW, np.arange(12_001)).astype(np.float64),
}
# sha256 prefixes of every field of empirical_moments(x, k_max) for k_max = 1..8, recorded with numpy 2.4
# on x86-64 while the central terms were summed as one (estimator, order, term) array along its last axis
FROZEN_MOMENTS = {
    "large-mean": ["f0a157cae5c29641", "5748894186b6a79a", "1bfa7c1d59944263", "01e02e8641689538",
                   "5926fb0655ed5e6d", "eabd56149b125935", "d1539386704e4666", "208f7ab9cfb8f4a7"],
    "ties": ["b313bb41133cc780", "a6bc9d0d0ce8e4e7", "707db19261b13159", "af28599886d7905f",
             "67321aa328a86244", "dc66b1be45b03ede", "e5c3fc37e3222efd", "cd473f43f1f3a7fd"],
}


class TestEmpiricalMoments:
    def test_constant_sequence(self):
        em = empirical_moments(np.full(1000, 3.0), 4)
        assert em.central == (0.0, 0.0, 0.0, 0.0)
        assert em.raw[0] == pytest.approx(3.0)

    def test_alternating(self):
        em = empirical_moments(np.array([1.0, -1.0] * 500), 2)
        assert em.raw[1] == pytest.approx(1.0)
        assert em.central[1] == pytest.approx(1.0)

    def test_normal_fourth_moment(self):
        z = rng.normals(9, 4, np.arange(1_000_000))
        em = empirical_moments(z, 4)
        assert em.central[3] == pytest.approx(3.0, abs=0.05)
        # jackknife SE is honest: the error is within a few SEs
        assert abs(em.central[3] - 3.0) <= 5 * em.central_se[3]

    def test_se_scales_with_n(self):
        big = empirical_moments(rng.normals(1, 1, np.arange(400_000)), 2)
        small = empirical_moments(rng.normals(1, 1, np.arange(10_000)), 2)
        assert big.central_se[1] < small.central_se[1]

    @pytest.mark.parametrize("n,k_max,max_blocks", [
        (5000, 4, 10_000), (12345, 4, 1000), (37, 8, 10), (1001, 3, 7), (2, 2, 10_000),
    ])
    def test_matches_block_loop_oracle(self, n, k_max, max_blocks, monkeypatch):
        # uneven splits: linspace bounds give blocks of two different sizes
        x = np.floor(rng.normals(n, 3, np.arange(n)) * 4 + 10)
        monkeypatch.setattr(stats, "_MAX_BLOCKS", max_blocks)
        got = empirical_moments(x, k_max)
        want = block_jackknife_moments_loop(x, k_max, max_blocks)
        for got_part, want_part in zip((got.raw, got.central, got.raw_se, got.central_se), want):
            scale = np.maximum(np.abs(want_part), 1.0)
            assert np.allclose(np.asarray(got_part) / scale, np.asarray(want_part) / scale,
                               rtol=0, atol=1e-11)

    @pytest.mark.parametrize("spec,c,stat", [("regular:2000:3:5", 2, MonoEdges()), ("er:300:0.1:7", 10, MonoStars(2))])
    def test_large_mean_matches_exact_oracle(self, spec, c, stat):
        # means near 1,500 and 1,289: power sums about 0 cancelled, and mu_4 was off by 1.9e-7 relative
        x = simulate(generate(parse_family(spec)), c, stat, 5000, 11).counts
        got = empirical_moments(x, 4)
        for got_part, want_part in zip((got.raw, got.central, got.raw_se, got.central_se),
                                       exact_jackknife_moments(x, 4)):
            for value, exact in zip(got_part, want_part):
                assert abs(value - exact) <= 1e-13 * abs(exact), (got_part, want_part)

    @pytest.mark.parametrize("name", FROZEN_MOMENTS)
    def test_fields_are_frozen(self, name):
        # k_max 7 and 8 sum the central terms pairwise (8 and 9 terms), k_max 1-6 from left to right
        x = MOMENT_INPUTS[name]()
        got = []
        for k_max in range(1, 9):
            em = empirical_moments(x, k_max)
            fields = np.array(em.raw + em.central + em.raw_se + em.central_se)
            got.append(hashlib.sha256(fields.tobytes()).hexdigest()[:16])
        assert got == FROZEN_MOMENTS[name]

    def test_validation(self):
        with pytest.raises(ValueError):
            empirical_moments(np.arange(10.0), 9)
        with pytest.raises(ValueError):
            empirical_moments(np.array([1.0]), 2)


@pytest.mark.parametrize("a, b", [([], [1]), ([1], []), ([], [])], ids=["left", "right", "both"])
def test_two_sample_ks_needs_both_samples(a, b):
    with pytest.raises(ValueError, match="at least one sample"):
        two_sample_ks(a, b)
