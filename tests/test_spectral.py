import math

import numpy as np
import pytest

from colorgraph import census
from colorgraph.errors import SizeGateExceededError
from colorgraph.graph import (
    Complete,
    CompleteBipartite,
    Cycle,
    ErdosRenyi,
    Graph,
    Hypercube,
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
        with pytest.raises(SizeGateExceededError):
            eigenvalues(Graph(4001, []))

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
