import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import blow_up, blow_up_specs, dense_eigenvalues

from colorgraph import census
from colorgraph.errors import SizeGateExceededError
from colorgraph.graph import (
    Complete,
    CompleteBipartite,
    Cycle,
    ErdosRenyi,
    Graph,
    Hypercube,
    RandomRegular,
    Star,
    generate,
)
from colorgraph.spectral import cycle_upper_bound, eigenvalues


def closed_form_spectrum(name, n):
    """Known spectra used as independent references."""
    if name == "complete":
        return sorted([n - 1.0] + [-1.0] * (n - 1), reverse=True)
    if name == "cycle":
        return sorted((2 * math.cos(2 * math.pi * k / n) for k in range(n)), reverse=True)
    if name == "star":
        return sorted([math.sqrt(n)] + [0.0] * (n - 1) + [-math.sqrt(n)], reverse=True)
    raise ValueError(name)


class TestEigenvalues:
    def test_complete_graphs(self):
        for n in (2, 4, 9):
            got = eigenvalues(generate(Complete(n))).eigenvalues
            assert np.allclose(got, closed_form_spectrum("complete", n), atol=1e-9)

    def test_complete_bipartite(self):
        got = eigenvalues(generate(CompleteBipartite(3, 3))).eigenvalues
        assert np.allclose(got, [3, 0, 0, 0, 0, -3], atol=1e-9)

    def test_cycles(self):
        for n in (4, 5, 8):
            got = eigenvalues(generate(Cycle(n))).eigenvalues
            assert np.allclose(got, closed_form_spectrum("cycle", n), atol=1e-9)

    def test_stars(self):
        got = eigenvalues(generate(Star(50))).eigenvalues
        assert np.allclose(got, closed_form_spectrum("star", 50), atol=1e-9)

    def test_trace_identities(self):
        for seed in range(10):
            g = generate(ErdosRenyi(40, 0.3, seed))
            spec = eigenvalues(g)
            lam = spec.eigenvalues
            assert abs(lam.sum()) <= 1e-8
            assert abs((lam**2).sum() - 2 * g.m) <= 1e-8 * (1 + 2 * g.m)
            cubic = (lam**3).sum()
            assert abs(cubic - 6 * census.count_cycles(g, 3)) <= 1e-8 * (1 + np.abs(lam) ** 3 @ np.ones_like(lam))

    def test_size_gate(self):
        # the gate counts twin classes: 4001 isolated vertices are one class, a 4001-cycle is 4001
        assert eigenvalues(Graph(4001, [])).eigenvalues.tolist() == [0.0] * 4001
        with pytest.raises(SizeGateExceededError, match="k <= 4000 twin classes"):
            eigenvalues(generate(Cycle(4001)))

    def test_empty_graph(self):
        spec = eigenvalues(Graph(0, []))
        assert spec.eigenvalues.size == 0
        assert spec.usn_ratio == 0.0
        assert spec.max_abs == 0.0

    def test_edgeless_spectrum_normalizes_to_zeros(self):
        spec = eigenvalues(Graph(3, []))
        assert spec.l2_norm == 0.0
        assert spec.normalized.tolist() == [0.0, 0.0, 0.0]

    def test_usn_star_exactly_isqrt2(self):
        spec = eigenvalues(generate(Star(50)))
        assert spec.usn_ratio == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_usn_at_most_one(self):
        for seed in range(5):
            g = generate(ErdosRenyi(25, 0.3, seed))
            assert eigenvalues(g).usn_ratio <= 1.0 + 1e-12


def assert_matches_dense(g: Graph) -> None:
    """The quotient spectrum is within 1e-12 * max(1, max |lambda|) of dense eigvalsh."""
    got, want = eigenvalues(g).eigenvalues, dense_eigenvalues(g)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * max(1.0, float(np.abs(want).max(initial=0.0))))


class TestQuotientSpectrum:
    def test_catalog_matches_dense(self, catalog):
        for name, g in catalog:
            assert_matches_dense(g)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_hypothesis_graphs_match_dense(self, data):
        n = data.draw(st.integers(0, 9))
        pairs = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        assert_matches_dense(Graph(n, edges))

    @settings(max_examples=80, deadline=None)
    @given(blow_up_specs())
    def test_hypothesis_blow_ups_match_dense(self, spec):
        assert_matches_dense(blow_up(*spec))

    @pytest.mark.parametrize("spec", [ErdosRenyi(60, 0.5, 3), RandomRegular(200, 3, 1)])
    def test_twin_free_hosts_are_bit_identical(self, spec):
        g = generate(spec)
        assert g.twin_quotient(g.n).k == g.n  # so the k x k matrix is A itself
        assert np.array_equal(eigenvalues(g).eigenvalues, dense_eigenvalues(g))

    @pytest.mark.parametrize("spec,minus_ones,zeros", [
        (Complete(2), 1, 0),
        (Complete(5), 4, 0),
        (Complete(300), 299, 0),
        (CompleteBipartite(3, 3), 0, 4),
        (CompleteBipartite(60, 3000), 0, 3058),
        (Star(1), 1, 0),  # K2: one clique class
        (Star(4), 0, 3),
        (Star(50), 0, 49),
    ])
    def test_class_eigenvalues_are_exact(self, spec, minus_ones, zeros):
        lam = eigenvalues(generate(spec)).eigenvalues
        assert np.count_nonzero(lam == -1.0) == minus_ones
        assert np.count_nonzero(lam == 0.0) == zeros


class TestCycleUpperBound:
    def test_frozen_examples(self):
        k4 = generate(Complete(4))
        b = cycle_upper_bound(k4, 3, eigenvalues(k4))
        assert b.edge_bound == pytest.approx(12**1.5 / 6)
        assert b.edge_bound >= census.count_cycles(k4, 3)
        c5 = generate(Cycle(5))
        assert cycle_upper_bound(c5, 5).edge_bound == pytest.approx(10**2.5 / 10)
        assert cycle_upper_bound(Graph(3, []), 4).edge_bound == 0.0

    def test_trace_bound_present_only_with_spectrum(self):
        g = generate(Complete(4))
        assert cycle_upper_bound(g, 3).trace_bound is None
        assert cycle_upper_bound(g, 3, eigenvalues(g)).trace_bound == pytest.approx(4.0)

    def test_chain_on_random_graphs(self):
        # count <= tr(A^g)/(2g) <= (2m)^{g/2}/(2g) on a mixed sample
        for seed in range(40):
            n = 10 + (seed * 7) % 30
            g = generate(ErdosRenyi(n, 2.5 / n, seed))
            if g.m == 0:
                continue
            spec = eigenvalues(g)
            for length in range(3, 9):
                bound = cycle_upper_bound(g, length, spec)
                cnt = census.count_cycles(g, length)
                assert cnt <= bound.trace_bound + 1e-7
                assert bound.trace_bound <= bound.edge_bound + 1e-7

    def test_hypercube_regular_spectrum(self):
        g = generate(Hypercube(4))
        spec = eigenvalues(g)
        # Hamming cube eigenvalues are dim - 2*popcount with binomial multiplicity
        expect = sorted(
            (4 - 2 * bin(x).count("1") for x in range(16)), reverse=True
        )
        assert np.allclose(spec.eigenvalues, expect, atol=1e-9)


@pytest.mark.parametrize("length", [2, 0, -1, 3.5, 4.0, True])
def test_cycle_bound_needs_length_three(length):
    with pytest.raises(ValueError, match="length >= 3"):
        cycle_upper_bound(generate(Complete(4)), length)
