"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see every verdict line.
Criterion 9's complete host is checked against its exact lattice law: with
2 colors the standardized count of K_n lives on the lattice (j^2 - n/4)/n
with an atom of mass C(n, n/2)/2^n at the limit law's left endpoint -1/4,
where the limit CDF is 0. Its Kolmogorov distance to the limit is therefore
that atom (0.0563 at n = 200) whatever the sampler, and first drops below
the criterion's 0.03 gate at n = 708. The gate is applied to the exact
distance at n = 800; the n = 200 simulation is checked against the exact
n = 200 distance. See README for the analysis.
"""
import itertools
import math
import time
from fractions import Fraction

import numpy as np

from oracles import (
    complete_graph_mono_edge_pmf,
    complete_two_color_lattice_law,
    pmf_moment,
    poisson_pmf_dict,
)
from conftest import small_catalog

from colorgraph import census, colorsim, extremal, limits, moments, spectral, stats
from colorgraph.colorsim import MonoCycles, MonoEdges, MonoStars
from colorgraph.graph import (
    Complete,
    CompleteBipartite,
    Cycle,
    ErdosRenyi,
    Graph,
    PathCycleGadget,
    RandomRegular,
    Star,
    generate,
)

CATALOG = small_catalog()


def verdict(number: int, name: str, ok: bool, details: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {number:02d}] {name}: {status} ({details})")
    return ok


def test_01_oracle_equivalence_colorings():
    started = time.time()
    worst = 0.0
    for i, (name, g) in enumerate(CATALOG):
        for c in (2, 3):
            exact = {k: float(v) for k, v in colorsim.exact_distribution(g, c, MonoEdges()).items()}
            run = colorsim.simulate(g, c, MonoEdges(), 100_000, seed=1000 + 7 * i + c)
            worst = max(worst, stats.tv_distance(run.pmf(), exact))
    elapsed = time.time() - started
    ok = worst < 0.01 and elapsed < 120
    assert verdict(1, "oracle equivalence on the 25-graph catalog", ok,
                   f"worst TV {worst:.4f} < 0.01, {elapsed:.1f}s < 120s")


def test_02_moment_engine_exactness():
    for name, g in CATALOG:
        for c in (2, 3):
            pmf = colorsim.exact_distribution(g, c, MonoEdges())
            for k in (1, 2, 3, 4):
                got = moments.conditional_moment(
                    g, moments.MomentRequest(moments.MomentKind.RAW_N, k, c)
                ).value
                assert got == pmf_moment(pmf, k), (name, c, k)
    for m in range(0, 31):
        for c in (2, 3, 5):
            p = Fraction(1, c)
            for k in range(0, 7):
                direct = sum(
                    Fraction(math.comb(m, j)) * p**j * (1 - p) ** (m - j) * Fraction(j) ** k
                    for j in range(m + 1)
                )
                assert moments.stirling_moment(m, c, k) == direct, (m, c, k)
    assert verdict(2, "moment engine exactness", True,
                   "raw moments equal enumeration moments as rationals; "
                   "Stirling formula equals binomial moments for m <= 30, k <= 6")


def _drop_isolated(g: Graph) -> Graph | None:
    keep = [v for v, d in enumerate(g.degrees) if d > 0]
    if len(keep) < 2:
        return None
    relabel = {v: i for i, v in enumerate(keep)}
    return Graph(len(keep), [(relabel[u], relabel[v]) for u, v in g.edges])


_BRUTE_GRIDS: dict[int, np.ndarray] = {}


def _brute_gamma_fast(g: Graph) -> Fraction:
    if g.n not in _BRUTE_GRIDS:
        _BRUTE_GRIDS[g.n] = np.array(
            list(itertools.product((0, 1, 2), repeat=g.n)), dtype=np.int8
        )
    grid = _BRUTE_GRIDS[g.n]
    ok = np.ones(len(grid), dtype=bool)
    for u, v in g.edges:
        ok &= grid[:, u] + grid[:, v] <= 2
    return Fraction(int(grid[ok].sum(axis=1).max()), 2)


def test_03_gamma_correctness():
    started = time.time()
    checked = 0

    def check(g: Graph):
        nonlocal checked
        sol = extremal.gamma(g)
        assert sol.gamma == _brute_gamma_fast(g)
        # consistency of the two optimum formulas
        assert sol.gamma == Fraction(g.n + extremal.deficiency(g), 2)
        bound = Fraction(g.n - g.component_count())
        stars = extremal.structural_check(sol, g).union_of_stars
        assert sol.gamma <= bound
        assert (sol.gamma == bound) == stars
        if min(g.degrees) >= 2:
            assert sol.gamma <= Fraction(g.m, 2)
        checked += 1

    # every connected graph on <= 5 vertices (all labelings)
    for n in (2, 3, 4, 5):
        pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for bits in range(1, 1 << len(pool)):
            edges = [pool[i] for i in range(len(pool)) if bits >> i & 1]
            g = Graph(n, edges)
            if g.has_isolated_vertices() or g.component_count() != 1:
                continue
            check(g)
    # the named catalog (connected, <= 7 vertices)
    for _, g in CATALOG:
        check(g)
    # 10^4 random graphs on <= 8 vertices
    for seed in range(10_000):
        n = 4 + seed % 5
        p = 0.15 + 0.5 * ((seed * 37) % 97) / 97
        g = _drop_isolated(generate(ErdosRenyi(n, p, seed)))
        if g is not None:
            check(g)
    elapsed = time.time() - started
    ok = elapsed < 300
    assert verdict(3, "fractional stable number vs brute force", ok,
                   f"{checked} graphs checked, {elapsed:.1f}s < 300s")


def test_04_cycle_bounds():
    tested = 0
    for seed in range(1000):
        n = 10 + (seed * 13) % 41
        d = 1.5 + 2.0 * ((seed * 7) % 11) / 11
        g = generate(ErdosRenyi(n, d / n, seed))
        if g.m == 0:
            continue
        spec = spectral.eigenvalues(g)
        for length in range(3, 9):
            cnt = census.count_cycles(g, length)
            bound = spectral.cycle_upper_bound(g, length, spec)
            assert cnt <= bound.trace_bound + 1e-7, (seed, length)
            assert bound.trace_bound <= bound.edge_bound + 1e-7, (seed, length)
        report = extremal.condition_report(g)
        assert report.acf4_ratio <= report.usn_ratio**2 / 2 + 1e-12, seed
        tested += 1
    assert verdict(4, "spectral cycle bound chain", True,
                   f"{tested} random hosts, lengths 3..8, plus the four-cycle/spectral ratio inequality")


def test_05_birthday():
    def no_match(people: int, days: int = 365) -> float:
        prob = 1.0
        for i in range(people):
            prob *= 1.0 - i / days
        return prob

    exact = no_match(23)
    minimal = next(n for n in range(1, 400) if no_match(n) < 0.5)
    ok = abs(exact - 0.4927) <= 1e-4 and minimal == 23
    assert verdict(5, "birthday collision probabilities", ok,
                   f"exact P(no match, 23 people) = {exact:.6f}, minimal group below 1/2 = {minimal}")


def test_06_poisson_regime():
    started = time.time()
    tvs = {}
    pois = poisson_pmf_dict(1.0, 60)
    for n in (20, 40, 60):
        c = math.comb(n, 2)
        pmf = complete_graph_mono_edge_pmf(n, c, 60)
        support = set(pmf) | set(pois)
        tail = abs(1.0 - sum(pmf.values())) + abs(1.0 - sum(pois.values()))
        tvs[n] = 0.5 * (sum(abs(pmf.get(k, 0.0) - pois.get(k, 0.0)) for k in support) + tail)
    # tie the simulator to the exact occupancy law at the smallest size
    run = colorsim.simulate(generate(Complete(20)), math.comb(20, 2), MonoEdges(), 100_000, 31)
    mc_gap = stats.tv_distance(run.pmf(), complete_graph_mono_edge_pmf(20, 190, 60))
    elapsed = time.time() - started
    ok = tvs[20] > tvs[40] > tvs[60] and tvs[60] < 0.02 and mc_gap < 0.01 and elapsed < 60
    assert verdict(6, "Poisson regime on growing complete hosts", ok,
                   f"TV = {tvs[20]:.4f} > {tvs[40]:.4f} > {tvs[60]:.4f}, last < 0.02; "
                   f"simulator within {mc_gap:.4f} of the exact law; {elapsed:.1f}s < 60s")


def test_07_normal_regime_fixed_colors():
    started = time.time()
    g = generate(RandomRegular(2000, 3, 42))
    run = colorsim.simulate(g, 2, MonoEdges(), 100_000, seed=707)
    z = run.standardized(g.m / 2, math.sqrt(g.m / 2))
    ks = stats.ks_statistic(z, lambda x: limits.law_cdf(limits.Normal(0.0, 0.5), x))
    elapsed = time.time() - started
    ok = ks < 0.02 and elapsed < 180
    assert verdict(7, "normal regime on a sparse regular host", ok,
                   f"KS {ks:.4f} < 0.02, {elapsed:.1f}s < 180s")


def test_08_atom_plus_normal_counterexample():
    # note the exact atom probability is 1/2 + P(left pair same) *
    # P(Binomial(2000, 1/2) = 1000) ~ 0.5089, close to the band's edge
    g = generate(CompleteBipartite(2, 2000))
    run = colorsim.simulate(g, 2, MonoEdges(), 100_000, seed=41)
    z = run.standardized(g.m / 2, math.sqrt(g.m / 2))
    frac_zero = float((z == 0.0).mean())
    nonzero = z[z != 0.0]
    ks = stats.ks_statistic(nonzero, lambda x: limits.law_cdf(limits.Normal(0.0, 1.0), x))
    ok = 0.49 <= frac_zero <= 0.51 and ks < 0.03
    assert verdict(8, "atom-plus-normal mixture host", ok,
                   f"P(standardized = 0) = {frac_zero:.4f} in [0.49, 0.51]; KS of the rest {ks:.4f} < 0.03")


DKW_99 = math.sqrt(math.log(2 / 0.01) / 2)  # 99% Dvoretzky-Kiefer-Wolfowitz constant, ~1.63


def lattice_kolmogorov(law, pmf: dict[Fraction, Fraction]) -> float:
    """sup_x |F(x) - law_cdf(law, x)| for a lattice law F and a continuous limit.

    F jumps at each support point, so the supremum is taken on both sides of
    every jump: against F just below the point and F at the point.
    """
    below = Fraction(0)
    worst = 0.0
    for x, p in sorted(pmf.items()):
        g = limits.law_cdf(law, float(x))
        worst = max(worst, abs(float(below) - g), abs(float(below + p) - g))
        below += p
    return worst


def test_09_chi_square_regime():
    # part 1: complete host, 2 colors, against 0.25 (chi^2_1 - 1).
    # exact half: the lattice law's distance to the limit is at least its
    # atom C(n, n/2)/2^n at -1/4, where the limit CDF is 0; the 0.03 gate
    # applies at n = 800, past the first even size (708) the atom allows.
    law1 = limits.WeightedChiSquare((1.0,), 1, 0.25)
    lattices = {n: complete_two_color_lattice_law(n) for n in (200, 400, 800)}
    d = {n: lattice_kolmogorov(law1, pmf) for n, pmf in lattices.items()}
    atom200 = math.comb(200, 100) / 2**200
    crossing = next(n for n in itertools.count(2, 2) if math.comb(n, n // 2) / 2**n < 0.03)
    # Monte Carlo half at n = 200: the simulation must reproduce the exact
    # lattice law and its distance, within 99% DKW bounds
    k200 = generate(Complete(200))
    run1 = colorsim.simulate(k200, 2, MonoEdges(), 100_000, seed=909)
    z1 = run1.standardized(k200.m / 2, 200.0)
    ref1 = limits.sample_law(law1, 1_000_000, seed=910)
    ks1 = stats.two_sample_ks(z1, ref1)
    ks1_tol = DKW_99 * (1 / math.sqrt(z1.size) + 1 / math.sqrt(ref1.size))
    points = np.array([float(x) for x in lattices[200]])
    lattice_cdf = np.cumsum([float(p) for p in lattices[200].values()])
    z1_cdf = np.searchsorted(np.sort(z1), points, side="right") / z1.size
    cdf_gap = float(np.max(np.abs(z1_cdf - lattice_cdf)))
    cdf_tol = DKW_99 / math.sqrt(z1.size)
    # part 2: balanced bipartite host, 3 colors
    kb = generate(CompleteBipartite(100, 100))
    run2 = colorsim.simulate(kb, 3, MonoEdges(), 100_000, seed=911)
    z2 = run2.standardized(kb.m / 3, 200.0)
    law2 = limits.WeightedChiSquare(
        (1 / math.sqrt(2), -1 / math.sqrt(2)), dof=2, scale=math.sqrt(2) / 12
    )
    ref2 = limits.sample_law(law2, 1_000_000, seed=912)
    ks2 = stats.two_sample_ks(z2, ref2)
    checks = {
        "limit CDF 0 at -1/4": limits.law_cdf(law1, -0.25) == 0.0,
        "d_n decreasing": d[200] > d[400] > d[800],
        "d_200 is the atom": abs(d[200] - atom200) <= 1e-3,
        "d_800 < 0.03": d[800] < 0.03,
        "crossing at 708": crossing == 708,
        "simulated KS near d_200": abs(ks1 - d[200]) <= ks1_tol,
        "simulated CDF near lattice CDF": cdf_gap <= cdf_tol,
        "bipartite KS < 0.03": ks2 < 0.03,
    }
    ok = all(checks.values())
    verdict(9, "chi-square regime on dense hosts", ok,
            f"complete host: exact lattice KS d_200 {d[200]:.4f} (atom {atom200:.4f}), "
            f"d_400 {d[400]:.4f}, d_800 {d[800]:.4f} < 0.03 (first below 0.03 at n = {crossing}); "
            f"K200 simulated KS {ks1:.4f} within {ks1_tol:.4f} of d_200, lattice CDF gap "
            f"{cdf_gap:.4f} <= {cdf_tol:.4f}; bipartite-host KS {ks2:.4f} < 0.03")
    assert ok, [name for name, passed in checks.items() if not passed]


def test_10_fourth_moment_identity():
    worst = Fraction(0)
    for name, g in CATALOG:
        for c in (2, 3):
            rep = moments.fourth_moment_report(g, c)
            assert rep.exact == rep.leading + rep.c4_term + rep.remainder, (name, c)
            if g.m >= 4:
                assert abs(rep.remainder) <= Fraction(40, g.m), (name, c)
                worst = max(worst, abs(rep.remainder) * g.m)
    c4_rep = moments.fourth_moment_report(generate(Cycle(4)), 2)
    assert c4_rep.exact == 1
    assert verdict(10, "fourth-moment decomposition", True,
                   f"identity exact on the catalog; worst |remainder|*m = {float(worst):.2f} <= 40; "
                   "four-cycle host value exactly 1")


def test_11_mgf_agreement():
    k33 = generate(CompleteBipartite(3, 3))
    t = 1.0
    closed = limits.delta_conditional_mgf(k33, 2, t)
    target = (1 - 1 / 8) ** -0.5
    gap = abs(closed - target)
    draws = limits.gaussian_surrogate_delta(k33, 2, 1_000_000, seed=1111)
    emp = np.exp(t * draws)
    se = emp.std() / math.sqrt(emp.size)
    mc_gap = abs(float(emp.mean()) - closed)
    ok = gap <= 1e-10 and mc_gap <= 4 * se
    assert verdict(11, "quadratic-surrogate MGF agreement", ok,
                   f"closed form off by {gap:.2e} <= 1e-10; Monte Carlo off by "
                   f"{mc_gap:.2e} <= 4 SE = {4 * se:.2e}")


def test_12_gadget_poisson_mixture():
    g = generate(PathCycleGadget(30, 30, 3))
    run = colorsim.simulate(g, 30, MonoCycles(3), 100_000, seed=1212)
    law = limits.PoissonMixture(limits.PoissonMixing(1.0))
    ref = {k: limits.law_pmf(law, k) for k in range(80)}
    tv = stats.tv_distance(run.pmf(), ref)
    cf_gaps = []
    for t in (1.0, 2.0, math.pi):
        empirical = complex(np.exp(1j * t * run.counts).mean())
        cf_gaps.append(abs(empirical - limits.gadget_char_function(30, 30, 30, 3, t)))
    ok = tv < 0.05 and max(cf_gaps) < 0.02
    assert verdict(12, "path-cycle gadget mixture law", ok,
                   f"TV {tv:.4f} < 0.05; char-function gaps "
                   + ", ".join(f"{x:.4f}" for x in cf_gaps) + " all < 0.02")


def test_13_star_identity():
    g = generate(Star(50))
    seed = 1313
    edges = colorsim.simulate(g, 10, MonoEdges(), 10_000, seed).counts
    exact_everywhere = True
    for r in (2, 3):
        stars = colorsim.simulate(g, 10, MonoStars(r), 10_000, seed).counts
        expect = np.array([math.comb(int(k), r) for k in edges])
        exact_everywhere &= bool(np.array_equal(stars, expect))
    assert verdict(13, "star-count combinatorial identity", exact_everywhere,
                   "all 10^4 colorings satisfy stars_r = C(edge count, r) for r in {2, 3}")


def test_14_tree_equality_and_annihilation():
    trees = 0
    leaves = 0
    for k in (1, 2, 3, 4):
        for pat in census.all_patterns(k):
            support = pat.simple_support()
            for c in (2, 3):
                ez, ew = moments.expected_central_products(pat, c)
                if 1 in pat.multi_degrees():
                    assert ez == ew == 0, (pat, c)
                    leaves += 1
                if support.component_count() == 1 and support.m == support.n - 1:
                    assert ez == ew, (pat, c)
                    trees += 1
    assert verdict(14, "tree equality and leaf annihilation", True,
                   f"{trees} tree-supported and {leaves} leaf-bearing pattern/color pairs, all exact")
