import cmath
import hashlib
import math
import sys

import numpy as np
import pytest
from test_purity import LAWS as PURITY_LAWS

from colorgraph import census, limits, rng, spectral, stats
from colorgraph.errors import (
    AmbiguousRegimeError,
    ColorGraphError,
    DomainExceededError,
    SizeGateExceededError,
    WrongLawKindError,
)
from colorgraph.graph import (
    Complete,
    CompleteBipartite,
    ErdosRenyi,
    GaltonWatson,
    Graph,
    RandomRegular,
    Star,
    generate,
)
from colorgraph.limits import (
    ACF4_GRAY_UPPER,
    ACF4_NORMAL_THRESHOLD,
    AtomPlusNormal,
    EmpiricalMixing,
    Fixed,
    Growing,
    Normal,
    Poisson,
    PoissonMixing,
    PoissonMixture,
    WeightedChiSquare,
    delta_conditional_mgf,
    gadget_char_function,
    gaussian_surrogate_delta,
    law_cdf,
    law_pmf,
    limit_for,
    sample_law,
    weighted_chisq_mgf,
)

SQ2 = math.sqrt(2.0)


DISCRETE_LAWS = {
    **{name: law for name, law in PURITY_LAWS.items() if isinstance(law, (Poisson, PoissonMixture))},
    # e^-800 underflows: the pmf reads 0.0 for k = 0..10, far below the mean
    "poisson-zero-below-mean": Poisson(800.0),
    "mixture-zero-below-mean": PoissonMixture(EmpiricalMixing((810.0, 800.0))),
}

# one law of every kind, with a weighted chi-square of each sign pattern
FAR_LAWS = {
    "poisson": Poisson(1.0), "poisson-mixing": PoissonMixture(PoissonMixing(1.0)),
    "empirical-mixing": PoissonMixture(EmpiricalMixing((0.5, 2.0))), "normal": Normal(0.0, 1.0),
    "atom-plus-normal": AtomPlusNormal(0.3, 2.0), "chi-square": WeightedChiSquare((1.0,), 1, 0.25),
    "signed-chi-square": WeightedChiSquare((1 / SQ2, -1 / SQ2), 1, 1.0),
    "negative-chi-square": WeightedChiSquare((0.6, 0.8), 2, -1.0),
}


class TestLawEvaluation:
    def test_poisson_pmf(self):
        assert law_pmf(Poisson(1.0), 0) == pytest.approx(math.exp(-1))
        assert sum(law_pmf(Poisson(2.5), k) for k in range(80)) == pytest.approx(1.0, abs=1e-12)

    def test_mixture_poisson_mixing(self):
        # P(W=0) = E e^{-Z} = exp(e^{-1} - 1) for Z ~ Poisson(1)
        mix = PoissonMixture(PoissonMixing(1.0))
        assert law_pmf(mix, 0) == pytest.approx(math.exp(math.exp(-1) - 1), abs=1e-12)
        assert sum(law_pmf(mix, k) for k in range(120)) == pytest.approx(1.0, abs=1e-9)

    def test_mixture_pmf_raises_when_mixing_weights_underflow(self):
        # exp(-800) is 0: the truncated sum used to stop at j = 10000 and
        # return 0 for every k
        for mean in (709.0, 800.0):
            with pytest.raises(DomainExceededError):
                law_pmf(PoissonMixture(PoissonMixing(mean)), 3)

    def test_underflow_threshold_is_the_smallest_normal_double(self):
        # mixed_pmf compares against sys.float_info.min so that a discrete law's pmf needs no numpy
        assert sys.float_info.min == np.finfo(np.float64).tiny

    def test_mixture_pmf_large_mean_terminates(self):
        # the rounded mixing tail stays above its tolerance here, so the sum
        # must stop once the mixing weights underflow, not at its term limit
        mix = PoissonMixture(PoissonMixing(500.0))
        assert law_pmf(mix, 0) == pytest.approx(math.exp(500.0 * (math.exp(-1) - 1)), rel=1e-12)
        assert sum(law_pmf(mix, k) for k in range(1200)) == pytest.approx(1.0, abs=1e-9)

    def test_mixture_empirical(self):
        mix = PoissonMixture(EmpiricalMixing((0.5, 1.5)))
        expect = 0.5 * (math.exp(-0.5) + math.exp(-1.5))
        assert law_pmf(mix, 0) == pytest.approx(expect, abs=1e-12)

    def test_normal_cdf(self):
        assert law_cdf(Normal(0.0, 0.5), 0.0) == pytest.approx(0.5)
        assert law_cdf(Normal(1.0, 1.0), 1.0) == pytest.approx(0.5)

    def test_pmf_wrong_kind(self):
        with pytest.raises(WrongLawKindError):
            law_pmf(Normal(0, 1), 0)
        with pytest.raises(WrongLawKindError):
            law_pmf(AtomPlusNormal(0.5, 1.0), 0)
        # the pmf table checks the kind before it reads a mixing or a mean
        for law in (Normal(0, 1), AtomPlusNormal(0.5, 1.0), WeightedChiSquare((1.0,), 1, 0.25)):
            with pytest.raises(WrongLawKindError, match="has no pmf"):
                list(limits.law_pmf_terms(law, 5))

    def test_atom_plus_normal_cdf(self):
        law = AtomPlusNormal(0.5, 1.0)
        assert law_cdf(law, -1e-9) == pytest.approx(0.5 * stats_phi(-1e-9), abs=1e-9)
        assert law_cdf(law, 0.0) == pytest.approx(0.5 + 0.5 * 0.5)
        assert law_cdf(law, 10.0) == pytest.approx(1.0, abs=1e-9)

    def test_cdf_monotone(self):
        laws = [Poisson(2.0), PoissonMixture(PoissonMixing(1.0)), Normal(0, 1), AtomPlusNormal(0.3, 2.0)]
        xs = np.linspace(-4, 8, 60)
        for law in laws:
            vals = [law_cdf(law, float(x)) for x in xs]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            Poisson(-1.0)
        with pytest.raises(ValueError):
            Normal(0.0, 0.0)
        with pytest.raises(ValueError):
            WeightedChiSquare((0.9, 0.1), 1, 1.0)  # squares sum to 0.82
        with pytest.raises(ValueError):
            AtomPlusNormal(1.5, 1.0)

    @pytest.mark.parametrize("make", [
        lambda: Poisson(math.nan),
        lambda: Normal(0.0, math.nan),
        lambda: Normal(math.nan, 1.0),
        lambda: WeightedChiSquare((math.nan,), 1, 0.1),
        lambda: WeightedChiSquare((1.0,), 1, math.nan),
        lambda: AtomPlusNormal(0.5, math.nan),
        lambda: PoissonMixture(PoissonMixing(math.nan)),
        lambda: PoissonMixture(EmpiricalMixing((1.0, math.nan))),
        lambda: Growing(math.nan),
        lambda: PoissonMixture(Normal(0.0, 1.0)),
    ], ids=["poisson", "normal-variance", "normal-mean", "wcs-weight", "wcs-scale", "atom-variance",
            "poisson-mixing", "empirical-mixing", "growing", "normal-mixing"])
    def test_validation_rejects_nan(self, make):
        with pytest.raises(ValueError):
            make()

    def test_infinite_growing_ratio_is_standard_normal(self):
        assert limit_for(None, Growing(math.inf)) == Normal(0.0, 1.0)

    @pytest.mark.parametrize("call,message", [
        (lambda: law_pmf(Poisson(1.0), 2.5), "k = 2.5"),
        (lambda: law_pmf(PoissonMixture(PoissonMixing(1.0)), 2.5), "k = 2.5"),
        (lambda: law_cdf(Poisson(1.0), math.nan), "x = nan"),
        (lambda: law_cdf(PoissonMixture(PoissonMixing(1.0)), math.nan), "x = nan"),
        (lambda: law_cdf(Normal(0.0, 1.0), math.nan), "x = nan"),
    ], ids=["poisson-pmf-half", "mixture-pmf-half", "poisson-cdf-nan", "mixture-cdf-nan", "normal-cdf-nan"])
    def test_bad_evaluation_point(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize("law", [Poisson(1.0), PoissonMixture(PoissonMixing(1.0))],
                             ids=["poisson", "mixture"])
    def test_discrete_cdf_at_infinity_is_one(self, law):
        assert law_cdf(law, math.inf) == 1.0

    @pytest.mark.parametrize("name", FAR_LAWS)
    def test_cdf_at_the_far_ends(self, name):
        # exactly 0 and 1 at -inf and +inf; far out, Davies' smoothing bound underflowed to 0 and was divided by
        law = FAR_LAWS[name]
        assert law_cdf(law, -math.inf) == 0.0 and law_cdf(law, math.inf) == 1.0
        for x in (1e154, 1e160, 1e300):
            assert law_cdf(law, -x) == 0.0
            assert law_cdf(law, x) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name", FAR_LAWS)
    def test_cdf_is_a_probability(self, name):
        law = FAR_LAWS[name]
        for x in (-1e300, -1.0, 0.0, 0.5, 3.0, 40.0, 2500.0, 1e6, 1e154, 1e300):
            assert 0.0 <= law_cdf(law, x) <= 1.0, x

    def test_discrete_cdf_is_clamped_to_one(self):
        # its pmf terms sum to 1.0000000000000002 in floating point
        law = PoissonMixture(EmpiricalMixing((0.5, 2.0)))
        assert sum(limits.law_pmf_terms(law, 10**6)) > 1.0
        assert law_cdf(law, 1e300) == 1.0

    def test_cdf_of_an_unknown_law_raises_at_infinity_too(self):
        with pytest.raises(WrongLawKindError, match="unknown law"):
            law_cdf(PoissonMixing(1.0), math.inf)

    @pytest.mark.parametrize("name", DISCRETE_LAWS)
    def test_discrete_cdf_equals_the_full_sum(self, name):
        # the sum stops where the pmf underflows to 0.0; the terms it skips add nothing
        law = DISCRETE_LAWS[name]
        for x in (0.0, 0.5, 2.0, 7.9, 30.0, 150.0, 349.0, 350.0, 600.0, 1000.0, 2500.0):
            assert law_cdf(law, x) == sum(law_pmf(law, k) for k in range(int(x) + 1)), x

    @pytest.mark.parametrize("name", DISCRETE_LAWS)
    def test_discrete_cdf_far_out_stops_early(self, name, monkeypatch):
        law = DISCRETE_LAWS[name]
        near = law_cdf(law, 2500.0)
        calls = []
        real = limits.law_pmf
        monkeypatch.setattr(limits, "law_pmf", lambda law, k: calls.append(k) or real(law, k))
        assert law_cdf(law, 1e6) == near
        assert len(calls) < 2500


def _digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()[:16]


# -dof * scale * sum(weights) of each chi-square law: the left end of a positive one's support
CHISQ_ENDS = [-law.dof * law.scale * math.fsum(law.weights)
              for law in PURITY_LAWS.values() if isinstance(law, WeightedChiSquare)]
CDF_GRID = [-math.inf, math.inf, 0.0] + [end + d for end in CHISQ_ENDS for d in (-1e-6, 1e-6)]

# sha256 prefixes of (sample_law(law, 1000, 4), law_cdf on CDF_GRID) per law, then of law_pmf at k = 0..60
FROZEN_LAWS = {
    "poisson": ("4d7c5228b4d9fc32", "e7e5a066669549e7"),
    "mixture-poisson": ("63141695ac9061b9", "3adf5f4e64f95af2"),
    "mixture-empirical": ("a28258f2fe6ef873", "1701e9b5ffa1ee97"),
    "normal": ("7a222b1093b2e7bf", "3728a3c5bd0ca395"),
    "atom-plus-normal": ("ba229f4b8dc8cf35", "49c33d070fe7d0a4"),
    "chisq-1-weight": ("e6f28ee2e07ffe7a", "1afad86c9c39a26c"),
    "chisq-2-weights": ("d8b5084111f3730f", "87163d9a2b904001"),
    "chisq-60-weights": ("d3979877752e3daf", "4db7ed573e69ba54"),
}
FROZEN_PMFS = {
    "poisson": "9f80d473ee595098",
    "mixture-poisson": "d121fc8d4601821a",
    "mixture-empirical": "de180448ab8b0900",
    "poisson-800": "256958bc39dff36b",
}


def test_laws_are_frozen():
    laws = {**PURITY_LAWS, "poisson-800": Poisson(800.0)}
    assert {name: (_digest(sample_law(laws[name], 1000, 4)), _digest([law_cdf(laws[name], x) for x in CDF_GRID]))
            for name in FROZEN_LAWS} == FROZEN_LAWS
    assert {name: _digest([law_pmf(laws[name], k) for k in range(61)]) for name in FROZEN_PMFS} == FROZEN_PMFS


def _unit_sines(k: int) -> tuple[float, ...]:
    w = np.sin(np.arange(1, k + 1))
    return tuple((w / np.linalg.norm(w)).tolist())


# sha256 prefixes of sample_law(law, 1000, 4) for chi-square laws either side of the 8-term switch of both
# per-draw sums (over a weight's components, then over the weights); not in test_purity.LAWS, whose
# chi-square ends set CDF_GRID
SUM_ORDER_LAWS = {
    "chisq-7-weights-dof-1": (WeightedChiSquare(_unit_sines(7), 1, 0.5), "f863bbd3ea505c03"),
    "chisq-8-weights-dof-1": (WeightedChiSquare(_unit_sines(8), 1, 0.5), "960d74c18e382235"),
    "chisq-1-weight-dof-8": (WeightedChiSquare((1.0,), 8, 0.25), "21452217c95475fb"),
    "chisq-3-weights-dof-9": (WeightedChiSquare(_unit_sines(3), 9, 1 / 6), "99e20acd6e1b61bb"),
}


@pytest.mark.parametrize("name", SUM_ORDER_LAWS)
def test_chisq_draws_are_frozen_across_the_sum_switch(name):
    law, digest = SUM_ORDER_LAWS[name]
    assert len(law.effective_weights()[0]) == len(law.weights)  # every weight is drawn
    assert _digest(sample_law(law, 1000, 4)) == digest


@pytest.mark.parametrize("length", range(1, 21))
def test_short_axis_sum_is_ndarray_sum(length):
    # magnitudes over 16 decades and signed zeros, so any change of order or start shows in the bits
    gen = np.random.default_rng(length)
    a = gen.standard_normal((40, 3, 2 * length)) * 10.0 ** gen.integers(-8, 8, (40, 3, 2 * length))
    a[gen.random(a.shape) < 0.2] = -0.0
    for x in (a[..., :length], a[..., ::2], a[::3, :, 1::2], np.ascontiguousarray(a[..., :length]),
              np.moveaxis(np.ascontiguousarray(np.moveaxis(a[..., :length], -1, 0)), 0, -1)):
        # the summed axis first, in any layout, against ndarray.sum over a contiguous last axis
        got, want = limits._sum_first_axis(np.moveaxis(x, -1, 0)), np.ascontiguousarray(x).sum(axis=-1)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (length, x.strides)


class TestLawDocuments:
    @pytest.mark.parametrize("doc", [
        {"kind": "poisson"},
        {"kind": "normal", "mean": 0, "variance": "x"},
        [1, 2],
        {"kind": "poisson_mixture", "mixing": {"kind": "gamma", "shape": 2.0}},
        {"kind": "poisson_mixture", "mixing": {"kind": "point_mass", "value": 1.0}},
    ], ids=["missing-field", "string-variance", "not-an-object", "unknown-mixing", "point-mass-mixing"])
    def test_malformed_document_raises_value_error(self, doc):
        with pytest.raises(ValueError):
            limits.law_from_dict(doc)

    def test_document_is_kind_plus_fields(self):
        law = PoissonMixture(EmpiricalMixing((0.5, 1.5)))
        assert limits.law_to_dict(law) == {
            "kind": "poisson_mixture", "mixing": {"kind": "empirical", "samples": [0.5, 1.5]}}
        assert limits.law_to_dict(Normal(0.0, 0.5)) == {"kind": "normal", "mean": 0.0, "variance": 0.5}


def stats_phi(x):
    return 0.5 * (1 + math.erf(x / math.sqrt(2)))


# grid offsets from a support endpoint, then points across the bulk
NEAR_ENDPOINT = (1e-12, 1e-9, 1e-6, 1e-3)


def chisq_cdf(y, dof):
    """P(chi^2_dof <= y) in closed form for dof 1 (erf) and even dof (Erlang sum)."""
    if y <= 0:
        return 0.0
    if dof == 1:
        return math.erf(math.sqrt(y / 2))
    h = y / 2
    return 1.0 - math.exp(-h) * sum(h**i / math.factorial(i) for i in range(dof // 2))


class TestWeightedChiSquareCdf:
    """law_cdf inverts the characteristic function to within 1e-6."""

    def test_smoothing_bound_gives_up_past_exponent_100(self):
        # weights (1, 0.5) at c = 0.1: the exponent is 2 dof, so 50 dof reach 100 and 51 pass it
        assert limits._Inversion(np.array([1.0, 0.5]), 50)._smoothing_error(0.1) == pytest.approx(
            2.0**25 / (math.pi * 0.1**2), rel=1e-12)
        assert limits._Inversion(np.array([1.0, 0.5]), 51)._smoothing_error(0.1) is None

    @pytest.mark.parametrize("dof", [1, 2, 4])
    def test_single_weight_closed_form(self, dof):
        law = WeightedChiSquare((1.0,), dof, 0.25)
        left = -0.25 * dof
        xs = [left + d for d in NEAR_ENDPOINT] + list(np.linspace(left + 0.01, 4.0, 40))
        for x in xs:
            expect = chisq_cdf(float(x) / 0.25 + dof, dof)
            assert law_cdf(law, float(x)) == pytest.approx(expect, abs=1e-6), x

    def test_negative_weight_mirrors(self):
        law = WeightedChiSquare((-1.0,), 1, 0.25)
        xs = [0.25 - d for d in NEAR_ENDPOINT] + list(np.linspace(-4.0, 0.24, 40))
        for x in xs:
            expect = 1.0 - chisq_cdf(1.0 - 4.0 * float(x), 1)
            assert law_cdf(law, float(x)) == pytest.approx(expect, abs=1e-6), x
        assert law_cdf(law, 0.25) == 1.0
        assert law_cdf(law, 7.0) == 1.0

    def test_exact_zero_at_and_below_left_endpoint(self):
        law = WeightedChiSquare((1.0,), 1, 0.25)
        assert law_cdf(law, -0.25) == 0.0
        assert law_cdf(law, -3.0) == 0.0

    def test_two_positive_weights_hypoexponential(self):
        # 0.25 (0.8 chi^2_2 + 0.6 chi^2_2) = a E + b E' with a = 0.4, b = 0.3
        law = WeightedChiSquare((0.8, 0.6), 2, 0.25)
        a, b, left = 0.4, 0.3, -0.7
        xs = [left + d for d in NEAR_ENDPOINT] + list(np.linspace(left + 0.01, 4.0, 40))
        for x in xs:
            y = float(x) - left
            expect = 1.0 - (a * math.exp(-y / a) - b * math.exp(-y / b)) / (a - b)
            assert law_cdf(law, float(x)) == pytest.approx(expect, abs=1e-6), x
        assert law_cdf(law, left) == 0.0

    def test_balanced_bipartite_three_colors_is_laplace(self):
        # criterion 9's K_{100,100} c=3 law: (1/12)(chi^2_2 - chi^2_2') = (1/6)(E - E')
        law = WeightedChiSquare((1 / SQ2, -1 / SQ2), 2, SQ2 / 12)
        b = 1 / 6
        for x in np.linspace(-3.0, 3.0, 61):
            x = float(x)
            expect = 0.5 * math.exp(x / b) if x < 0 else 1.0 - 0.5 * math.exp(-x / b)
            assert law_cdf(law, x) == pytest.approx(expect, abs=1e-6), x

    def test_balanced_bipartite_two_colors_is_symmetric(self):
        law = WeightedChiSquare((1 / SQ2, -1 / SQ2), 1, 0.25)
        assert law_cdf(law, 0.0) == pytest.approx(0.5, abs=1e-6)
        for x in np.linspace(0.01, 3.0, 30):
            assert law_cdf(law, float(x)) + law_cdf(law, -float(x)) == pytest.approx(1.0, abs=1e-6)

    def test_monotone(self):
        laws = [
            WeightedChiSquare((1.0,), 1, 0.25),
            WeightedChiSquare((1 / SQ2, -1 / SQ2), 1, 0.25),
            WeightedChiSquare((0.6, 0.8), 3, 1 / 8),
            WeightedChiSquare((0.8, -0.48, 0.36), 2, 1 / 6),
        ]
        xs = np.linspace(-2.0, 3.0, 80)
        for law in laws:
            vals = [law_cdf(law, float(x)) for x in xs]
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert all(b >= a - 2e-6 for a, b in zip(vals, vals[1:]))

    def test_draws_no_random_numbers(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("law_cdf drew random numbers")

        monkeypatch.setattr(rng, "normals", refuse)
        law = WeightedChiSquare((1.0,), 1, 0.25)
        assert law_cdf(law, 0.0) == pytest.approx(math.erf(math.sqrt(0.5)), abs=1e-6)


class TestSampling:
    def test_poisson_mean_band(self):
        s = sample_law(Poisson(1.0), 1_000_000, 5)
        assert 0.996 <= s.mean() <= 1.004

    def test_poisson_mean_too_large_for_inversion(self):
        # exp(-800) is 0: inversion used to return its clamp, 1200, for every draw
        for mean in (709.0, 800.0, 1e6):
            with pytest.raises(DomainExceededError):
                sample_law(Poisson(mean), 5, 3)
        with pytest.raises(DomainExceededError):
            sample_law(PoissonMixture(PoissonMixing(800.0)), 5, 3)

    def test_poisson_streams_frozen(self):
        assert sample_law(Poisson(5.0), 5, 3).tolist() == [5, 6, 6, 6, 7]
        assert sample_law(Poisson(708.0), 5, 3).tolist() == [713, 725, 718, 718, 736]

    def test_weighted_chisq_centered(self):
        law = WeightedChiSquare((1 / SQ2, -1 / SQ2), 1, 0.25)
        s = sample_law(law, 1_000_000, 6)
        se = s.std() / math.sqrt(s.size)
        assert abs(s.mean()) <= 4 * se

    def test_atom_fraction(self):
        s = sample_law(AtomPlusNormal(0.5, 1.0), 1_000_000, 7)
        frac = float((s == 0.0).mean())
        assert 0.498 <= frac <= 0.502

    def test_deterministic(self):
        law = Normal(0.0, 1.0)
        assert np.array_equal(sample_law(law, 1000, 3), sample_law(law, 1000, 3))
        assert not np.array_equal(sample_law(law, 1000, 3), sample_law(law, 1000, 4))

    def test_mixture_sampling_matches_pmf(self):
        mix = PoissonMixture(PoissonMixing(1.0))
        s = sample_law(mix, 400_000, 11)
        emp = {int(v): c / s.size for v, c in zip(*np.unique(s, return_counts=True))}
        ref = {k: law_pmf(mix, k) for k in range(40)}
        assert stats.tv_distance(emp, ref) < 0.01

    def test_wcs_truncation_report(self):
        base = [0.6, -0.5, 0.4, 0.3, 0.2, 0.25, 0.14, 0.05, 0.004]
        norm = math.sqrt(sum(w * w for w in base))
        law = WeightedChiSquare(tuple(w / norm for w in base), 2, 1.0)
        kept, dropped = law.effective_weights()
        assert dropped < 1e-6
        assert len(kept) <= len(base)

    def test_wcs_row_cost_prices_only_the_kept_weights(self):
        # all 101 weights were priced, so sample_law cut blocks of 19,801 draws where one drawn weight fits 2,000,000
        law = WeightedChiSquare((math.sqrt(1 - 1e-8),) + (1e-5,) * 100, 3, 1.0)
        kept, _ = law.effective_weights()
        assert len(kept) == 1
        assert law.row_cost == len(kept) * law.dof

    def test_wcs_empirical_mgf_matches_formula(self):
        law = WeightedChiSquare((1 / SQ2, -1 / SQ2), 1, 1.0)
        s = sample_law(law, 1_000_000, 13)
        for t in (0.15, -0.2, 0.3):
            emp = np.exp(t * s)
            se = emp.std() / math.sqrt(emp.size)
            assert abs(emp.mean() - weighted_chisq_mgf(law.weights, law.dof, t)) <= 4 * se


class TestMgfs:
    def test_weighted_frozen_examples(self):
        got = weighted_chisq_mgf((1 / SQ2, -1 / SQ2), 1, 0.5)
        assert got == pytest.approx(SQ2, abs=1e-12)
        got2 = weighted_chisq_mgf((1.0,), 2, 0.1)
        assert got2 == pytest.approx(0.8**-1 * math.exp(-0.2), abs=1e-12)
        assert weighted_chisq_mgf((0.6, 0.8), 3, 0.0) == pytest.approx(1.0)

    def test_weighted_domain(self):
        with pytest.raises(DomainExceededError):
            weighted_chisq_mgf((1.0,), 1, 0.5)

    def test_delta_frozen_examples(self):
        k33 = generate(CompleteBipartite(3, 3))
        assert delta_conditional_mgf(k33, 2, 1.0) == pytest.approx((1 - 1 / 8) ** -0.5, abs=1e-12)
        assert delta_conditional_mgf(k33, 2, 0.0) == pytest.approx(1.0)
        k2 = generate(Complete(2))
        assert delta_conditional_mgf(k2, 3, 0.3) == pytest.approx(1 / (1 - 0.005), abs=1e-12)

    def test_delta_domain(self):
        k2 = generate(Complete(2))
        with pytest.raises(DomainExceededError):
            delta_conditional_mgf(k2, 2, 2.0)

    def test_delta_equals_weighted_after_substitution(self):
        # same product once t is rescaled by 2c and dof is c - 1
        for spec, c in ((CompleteBipartite(3, 3), 2), (Complete(5), 3), (ErdosRenyi(20, 0.5, 4), 2)):
            g = generate(spec)
            from colorgraph.spectral import eigenvalues

            lam = eigenvalues(g).normalized
            w = tuple(float(x) for x in lam)
            for t in (0.4, -0.3, 0.9):
                got = delta_conditional_mgf(g, c, t)
                expect = weighted_chisq_mgf(w, c - 1, t / (2 * c))
                assert got == pytest.approx(expect, rel=1e-10)

    def test_surrogate_draws_use_their_own_stream(self):
        # a weighted chi-square law draws rng.normals(seed, STREAM_LAW, i, weight, component)
        tags = [v for name, v in vars(rng).items() if name.startswith("STREAM_")]
        assert len(set(tags)) == len(tags)
        c, idx = 3, np.arange(6)[:, None, None]
        x = rng.normals(17, rng.STREAM_SURROGATE, idx, np.arange(2)[None, :, None],
                        np.arange(c)[None, None, :]) / math.sqrt(c)
        s = x - x.mean(axis=2, keepdims=True)
        expect = (s[:, 0, :] * s[:, 1, :]).sum(axis=1) / math.sqrt(2)
        got = gaussian_surrogate_delta(generate(Complete(2)), c, 6, seed=17)
        np.testing.assert_allclose(got, expect, rtol=1e-13)

    def test_surrogate_draws_match_mgf(self):
        k33 = generate(CompleteBipartite(3, 3))
        draws = gaussian_surrogate_delta(k33, 2, 400_000, seed=17)
        t = 1.0
        emp = np.exp(t * draws)
        se = emp.std() / math.sqrt(emp.size)
        assert abs(emp.mean() - delta_conditional_mgf(k33, 2, t)) <= 4 * se


class TestGadgetCharFunction:
    def test_triangle_at_pi(self):
        got = gadget_char_function(1, 1, 2, 3, math.pi)
        assert got.real == pytest.approx(0.5, abs=1e-12)
        assert got.imag == pytest.approx(0.0, abs=1e-12)

    def test_at_zero(self):
        assert gadget_char_function(7, 3, 4, 5, 0.0) == pytest.approx(1.0)

    def test_modulus_bounded(self):
        for t in np.linspace(-math.pi, math.pi, 9):
            assert abs(gadget_char_function(6, 4, 3, 3, float(t))) <= 1.0 + 1e-12

    def test_matches_mixture_cf_at_scale(self):
        # a = lambda*n, b = n^{g-2}, c = n: the cf approaches the
        # Poisson-of-Poisson cf; gap checked numerically at n = 30
        lam = 1.0
        n = 30
        for t in np.linspace(-math.pi, math.pi, 13):
            got = gadget_char_function(int(lam * n), n, n, 3, float(t))
            w = cmath.exp(lam * (cmath.exp(cmath.exp(1j * t) - 1) - 1))
            assert abs(got - w) < 0.02


def fixed_outcome(subject, c):
    """``limit_for(subject, Fixed(c))``, or the type and message of the error it raises."""
    try:
        return limit_for(subject, Fixed(c))
    except (ColorGraphError, ValueError) as exc:
        return type(exc), str(exc)


class TestLimitSelector:
    def test_growing_finite(self):
        assert limit_for(None, Growing(0.5)) == Poisson(0.5)

    def test_growing_infinite(self):
        assert limit_for(None, Growing(math.inf)) == Normal(0.0, 1.0)

    def test_fixed_sparse_regular_is_normal(self):
        g = generate(RandomRegular(600, 3, 2))
        assert limit_for(g, Fixed(2)) == Normal(0.0, 0.5)
        assert limit_for(g, Fixed(4)) == Normal(0.0, 0.75)

    def test_fixed_dense_complete(self):
        g = generate(Complete(30))
        law = limit_for(g, Fixed(2))
        assert isinstance(law, WeightedChiSquare)
        assert law.dof == 1
        assert law.scale == pytest.approx(0.25)
        assert max(law.weights) == pytest.approx(1.0, abs=0.05)  # single dominant weight

    def test_fixed_er_family(self):
        # the complete graph's law is wrong for p < 1, so the spec's own graph decides: here the gray zone
        spec = ErdosRenyi(500, 0.4, 1)
        assert fixed_outcome(spec, 3) == fixed_outcome(generate(spec), 3)
        assert fixed_outcome(spec, 3)[0] is AmbiguousRegimeError

    def test_fixed_bipartite_family(self):
        law = limit_for(CompleteBipartite(100, 100), Fixed(2))
        assert law.weights == pytest.approx((1 / SQ2, -1 / SQ2))
        assert law.dof == 1

    @pytest.mark.parametrize("spec", [Complete(0), Complete(1), CompleteBipartite(0, 3),
                                      CompleteBipartite(4, 0)])
    def test_family_without_edges_has_no_fixed_law(self, spec):
        # the same error as for its concrete graph, not the law of a host with edges
        with pytest.raises(ValueError, match="needs at least one edge"):
            limit_for(generate(spec), Fixed(2))
        with pytest.raises(ValueError, match="needs at least one edge"):
            limit_for(spec, Fixed(2))

    def test_sparse_host_skips_the_spectrum(self, monkeypatch):
        def refuse(g):
            raise AssertionError("spectrum built for a sparse host")

        monkeypatch.setattr(spectral, "eigenvalues", refuse)
        assert limit_for(generate(RandomRegular(600, 3, 2)), Fixed(2)) == Normal(0.0, 0.5)

    def test_size_gate_applies_only_to_the_spectrum(self, monkeypatch):
        n = spectral.DENSE_SIZE_GATE + 1
        assert limit_for(Graph(n, [(0, 1)]), Fixed(2)) == Normal(0.0, 0.5)
        # K_{2, n-2} has four-cycle ratio C(n-2, 2) / (2(n-2))^2 > 0.1: dense, so it needs the
        # spectrum, and its two twin classes pass the gate on classes
        law = limit_for(Graph(n, [(i, j) for i in range(2) for j in range(2, n)]), Fixed(2))
        assert isinstance(law, WeightedChiSquare)
        assert np.allclose(law.weights, (1 / SQ2, -1 / SQ2), rtol=0, atol=1e-12)
        # er:60:0.5:3 is dense and twin-free: 60 classes
        monkeypatch.setattr(spectral, "DENSE_SIZE_GATE", 59)
        with pytest.raises(SizeGateExceededError):
            limit_for(generate(ErdosRenyi(60, 0.5, 3)), Fixed(2))

    @pytest.mark.parametrize("spec,k", [(CompleteBipartite(60, 3000), 2), (Complete(300), 1)])
    def test_concrete_dense_host_reads_its_quotient(self, spec, k, monkeypatch):
        real, shapes = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or real(a))
        law = limit_for(generate(spec), Fixed(2))
        assert shapes and set(shapes) == {(k, k)}
        if isinstance(spec, CompleteBipartite):
            want = limit_for(spec, Fixed(2)).weights
        else:  # K_n's exact spectrum n - 1 and -1 (n - 1 times), normalized; the family law is its n -> inf limit
            n = spec.n
            want = ((n - 1) / math.sqrt(n * (n - 1)),) + (-1 / math.sqrt(n * (n - 1)),) * (n - 1)
        assert len(law.weights) == len(want)
        assert np.allclose(law.weights, want, rtol=0, atol=1e-12)

    def test_matches_spectrum_first_selection_on_catalog(self, catalog):
        # the selection as made when the spectrum was built before the ratio
        def spectrum_first(g, c):
            lam = spectral.eigenvalues(g).normalized
            acf4 = census.count_cycles(g, 4) / g.m**2
            if acf4 < ACF4_NORMAL_THRESHOLD:
                return Normal(0.0, 1.0 - 1.0 / c)
            if acf4 <= ACF4_GRAY_UPPER:
                return AmbiguousRegimeError
            weights = tuple(float(x) for x in lam if abs(x) > 1e-12)
            return WeightedChiSquare(weights=weights, dof=c - 1, scale=1.0 / (2.0 * c))

        for name, g in catalog:
            for c in (2, 3):
                expect = spectrum_first(g, c)
                if expect is AmbiguousRegimeError:
                    with pytest.raises(AmbiguousRegimeError):
                        limit_for(g, Fixed(c))
                else:
                    assert limit_for(g, Fixed(c)) == expect, name

    def test_gray_zone_reported(self):
        g = generate(CompleteBipartite(2, 4))  # ratio 6/64 in [1e-2, 1e-1]
        with pytest.raises(AmbiguousRegimeError):
            limit_for(g, Fixed(2))
        assert ACF4_NORMAL_THRESHOLD < 6 / 64 < ACF4_GRAY_UPPER

    def test_family_without_closed_form(self):
        # a family with no closed-form law gets the law, or the error, of the graph it builds
        for spec in (GaltonWatson((0.5, 0.5), 3, 1), Star(200), RandomRegular(2000, 3, 5)):
            assert fixed_outcome(spec, 2) == fixed_outcome(generate(spec), 2), spec

    def test_star_family_and_concrete_star_are_normal(self):
        # stars are four-cycle free yet fail the spectral condition; the
        # selector reports the normal law from the four-cycle ratio for the
        # family spec and for the generated graph alike
        assert limit_for(Star(200), Fixed(2)) == Normal(0.0, 0.5)
        assert limit_for(generate(Star(200)), Fixed(2)) == Normal(0.0, 0.5)


@pytest.mark.parametrize("call, error, message", [
    (lambda: sample_law(Poisson(1.0), 0, 1), ValueError, "at least one sample"),
    (lambda: sample_law(object(), 5, 1), WrongLawKindError, "unknown law"),
    (lambda: weighted_chisq_mgf([1.0], 0, 0.1), ValueError, "dof"),
    (lambda: delta_conditional_mgf(generate(Complete(4)), 1, 0.1), ValueError, "at least 2 colors"),
    (lambda: delta_conditional_mgf(Graph(3, []), 2, 0.1), ValueError, "one edge"),
    (lambda: gadget_char_function(1, 1, 2, 2, 0.1), ValueError, "cycle length"),
    (lambda: gadget_char_function(0, 1, 2, 3, 0.1), ValueError, "a >= 1"),
    (lambda: gaussian_surrogate_delta(Graph(3, []), 2, 5, 1), ValueError, "one edge"),
    (lambda: gaussian_surrogate_delta(generate(Complete(4)), 1, 3, 1), ValueError, "at least 2 colors"),
    (lambda: gaussian_surrogate_delta(generate(Complete(4)), 0, 3, 1), ValueError, "at least 2 colors"),
    (lambda: limits.gaussian_surrogate_product(census.MultiGraphPattern.from_edges([(0, 1)]), 1, 3, 1), ValueError,
     "at least 2 colors"),
    (lambda: limit_for(generate(Complete(4)), object()), TypeError, "unknown regime"),
], ids=["zero-samples", "unknown-law", "zero-dof", "delta-one-color", "delta-no-edge", "gadget-g2", "gadget-a0",
        "surrogate-no-edge", "surrogate-one-color", "surrogate-no-color", "product-one-color", "unknown-regime"])
def test_input_checks_raise_typed_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_degenerate_points_and_laws():
    assert law_pmf(Poisson(1.0), -1) == 0.0
    zero = WeightedChiSquare((1.0,), 1, 0.0)  # scale 0: all mass at 0
    assert (zero.cdf(-1e-9), zero.cdf(0.0), zero.cdf(1.0)) == (0.0, 1.0, 1.0)
