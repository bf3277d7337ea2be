"""Every counter-based draw is a pure function of (seed, i).

Neither the number of draws asked for nor the batch budget of
``rng.batches`` may change a single bit of draw i: the draws for count n
equal the first n draws for count 1000, and a budget of 7 array entries,
which cuts every range into blocks of at most 7 rows, gives the same
draws as the default budget.
"""
import functools
import math

import numpy as np
import pytest

from colorgraph import limits, rng
from colorgraph.census import MultiGraphPattern
from colorgraph.colorsim import MonoCycles, MonoEdges, MonoStars, exact_distribution, simulate
from colorgraph.graph import Complete, CompleteBipartite, ErdosRenyi, generate

TINY_BUDGET = 7

_W60 = np.sin(np.arange(1, 61))
_W60 = tuple((_W60 / np.linalg.norm(_W60)).tolist())

LAWS = {
    "poisson": limits.Poisson(3.0),
    "mixture-point-mass": limits.PoissonMixture(limits.PointMass(1.5)),
    "mixture-poisson": limits.PoissonMixture(limits.PoissonMixing(2.0)),
    "mixture-empirical": limits.PoissonMixture(limits.EmpiricalMixing((0.5, 3.0, 7.0))),
    "normal": limits.Normal(1.0, 2.0),
    "atom-plus-normal": limits.AtomPlusNormal(0.3, 2.0),
    "chisq-1-weight": limits.WeightedChiSquare((1.0,), 1, 0.25),
    "chisq-2-weights": limits.WeightedChiSquare((1 / math.sqrt(2), -1 / math.sqrt(2)), 2, 1 / 6),
    "chisq-60-weights": limits.WeightedChiSquare(_W60, 2, 1 / 6),
}

DRAWS = {
    **{name: functools.partial(limits.sample_law, law, seed=4) for name, law in LAWS.items()},
    "surrogate-delta": lambda count: limits.gaussian_surrogate_delta(
        generate(CompleteBipartite(5, 5)), 3, count, 4),
    "surrogate-product": lambda count: limits.gaussian_surrogate_product(
        MultiGraphPattern.from_edges(((0, 1), (0, 1), (1, 2), (0, 2))), 3, count, 4),
}


@pytest.mark.parametrize("name", DRAWS)
def test_draws_ignore_count_and_batch_budget(name, monkeypatch):
    draw = DRAWS[name]
    full = draw(1000)
    for count in (1, 2, 3, 10, 999):
        assert draw(count).tobytes() == full[:count].tobytes(), count
    monkeypatch.setattr(rng, "BATCH_ENTRIES", TINY_BUDGET)
    assert draw(1000).tobytes() == full.tobytes()


@pytest.mark.parametrize("spec,c,stat", [
    (Complete(6), 3, MonoEdges()),
    (ErdosRenyi(12, 0.5, 3), 2, MonoStars(2)),
    (ErdosRenyi(12, 0.5, 3), 2, MonoCycles(3)),
])
def test_counts_ignore_batch_budget(spec, c, stat, monkeypatch):
    g = generate(spec)
    sim = simulate(g, c, stat, 500, 8).counts
    exact = exact_distribution(g, c, stat)
    monkeypatch.setattr(rng, "BATCH_ENTRIES", TINY_BUDGET)
    assert np.array_equal(simulate(g, c, stat, 500, 8).counts, sim)
    assert exact_distribution(g, c, stat) == exact
