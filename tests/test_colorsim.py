import functools
import hashlib
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    blow_up,
    blow_up_specs,
    complete_graph_mono_edge_pmf,
    complete_two_color_lattice_law,
    gadget_mono_cycle_pmf,
    loop_mono_counts,
    pmf_moment,
)

from colorgraph import census, colorsim, graph, rng, stats
from colorgraph.colorsim import (
    EXACT_ENUMERATION_GATE,
    MonoCycles,
    MonoEdges,
    MonoStars,
    _classes_of,
    _digit_colors,
    _drawn_colors,
    _gemm_counts,
    _kernel_for,
    _matrix_colors,
    _sieve_index,
    _sorted_counts,
    exact_distribution,
    mono_count,
    simulate,
)
from colorgraph.errors import BadColorVectorError, DomainExceededError, EnumerationGateExceededError
from colorgraph.graph import (
    Blowup,
    Complete,
    CompleteBipartite,
    Cycle,
    Graph,
    Path,
    PathCycleGadget,
    RandomRegular,
    Star,
    generate,
    parse_family,
)


class TestMonoCount:
    def test_edges(self):
        assert mono_count(generate(Complete(3)), [1, 1, 2], MonoEdges()) == 1

    def test_stars(self):
        g = generate(Star(4))  # center first
        assert mono_count(g, [1, 1, 1, 2, 2], MonoStars(2)) == 1

    def test_cycles(self):
        assert mono_count(generate(Cycle(4)), [1, 1, 1, 1], MonoCycles(4)) == 1
        assert mono_count(generate(Cycle(4)), [1, 1, 1, 2], MonoCycles(4)) == 0

    def test_bad_vector(self):
        with pytest.raises(BadColorVectorError):
            mono_count(generate(Complete(3)), [1, 1], MonoEdges())
        with pytest.raises(BadColorVectorError):
            mono_count(generate(Complete(3)), [0, -1, 0], MonoEdges())

    @pytest.mark.parametrize("colors", [[0.5, 0.7, 1], [1.0, 1.0, 2.0], [True, True, False]],
                             ids=["fractions", "whole-floats", "bools"])
    def test_non_integer_colors(self, colors):
        # the cast to int64 truncated 0.5 and 0.7 to one color
        with pytest.raises(BadColorVectorError, match="nonnegative integers"):
            mono_count(Graph(3, [(0, 1)]), colors, MonoEdges())

    @pytest.mark.parametrize("host", ["regular:200:3:1", "complete:30"], ids=["gather", "quotient"])
    def test_unknown_statistic(self, host, monkeypatch):
        # anything not a statistic was counted as edges, or died in a quotient kernel
        g = generate(parse_family(host))

        def searched(*args):
            raise AssertionError("a twin search or cycle listing ran")

        monkeypatch.setattr(Graph, "twin_quotient", searched)
        monkeypatch.setattr(graph, "cycle_list", searched)
        for stat in ("cycles", None, MonoCycles):
            for call in (lambda: simulate(g, 2, stat, 5, 1), lambda: mono_count(g, [0] * g.n, stat)):
                with pytest.raises(TypeError, match="unknown statistic"):
                    call()

    def test_colors_wider_than_narrow_dtypes(self):
        # mono_count has no c: a uint8 or uint16 cast would make 256 or 65536 equal 0
        k2 = generate(Complete(2))
        for big in (256, 65536, 2**32, 2**40):
            assert mono_count(k2, [0, big], MonoEdges()) == 0
            assert mono_count(k2, [big, big], MonoEdges()) == 1
        assert mono_count(generate(Star(2)), [300, 44, 300], MonoStars(1)) == 2

    def test_counts_past_narrow_counters(self):
        # the gathers count in the narrowest dtype holding their bound; one color makes every
        # edge monochromatic, and star:70000's counts pass uint16
        star = generate(parse_family("star:69999"))  # a center and 69,999 leaves
        assert mono_count(star, np.zeros(star.n, dtype=np.int64), MonoEdges()) == 69_999
        assert mono_count(star, np.zeros(star.n, dtype=np.int64), MonoStars(2)) == math.comb(69_999, 2) == 2_449_895_001
        k24 = generate(Complete(24))
        assert mono_count(k24, [5] * 24, MonoEdges()) == 276
        assert mono_count(k24, [5] * 24, MonoStars(1)) == 552

    def test_gather_block_past_uint8(self):
        # 276 monochromatic edges in one column of a block, past 255, beside columns that count less
        g = generate(Complete(24))
        colors = np.zeros((24, 3), dtype=np.uint8)
        colors[:12, 1] = 1
        colors[:, 2] = np.arange(24)
        counts = matrix_count(_kernel_for(g, 24, MonoEdges(), "gather").count, colors)
        assert counts.dtype == np.int64
        assert counts.tolist() == [276, 2 * math.comb(12, 2), 0]

    def test_stat_validation(self):
        with pytest.raises(ValueError):
            MonoStars(0)
        with pytest.raises(ValueError):
            MonoCycles(9)


class TestExactDistribution:
    def test_triangle(self):
        pmf = exact_distribution(generate(Complete(3)), 2, MonoEdges())
        assert pmf == {1: Fraction(3, 4), 3: Fraction(1, 4)}

    def test_single_edge(self):
        pmf = exact_distribution(generate(Complete(2)), 2, MonoEdges())
        assert pmf == {0: Fraction(1, 2), 1: Fraction(1, 2)}

    def test_path_is_binomial(self):
        # edge indicators on a path are independent Bernoulli(1/c)
        for edges, c in ((2, 2), (3, 2), (4, 3), (5, 2)):
            pmf = exact_distribution(generate(Path(edges)), c, MonoEdges())
            p = Fraction(1, c)
            binom = {
                k: Fraction(math.comb(edges, k)) * p**k * (1 - p) ** (edges - k)
                for k in range(edges + 1)
            }
            assert pmf == {k: v for k, v in binom.items() if v > 0}

    def test_probabilities_sum_to_one(self):
        pmf = exact_distribution(generate(CompleteBipartite(2, 3)), 3, MonoEdges())
        assert sum(pmf.values()) == 1

    def test_gate(self):
        with pytest.raises(EnumerationGateExceededError) as err:
            exact_distribution(generate(Complete(30)), 3, MonoEdges())
        assert err.value.total == 3**30
        assert err.value.total > EXACT_ENUMERATION_GATE

    def test_gate_names_a_power_past_ten_to_the_100(self):
        # str() refuses an int of more than 4,300 digits, so c^n = 2^20001 is named as the power
        with pytest.raises(EnumerationGateExceededError, match="c\\^n = 2\\^20001 exceeds") as err:
            exact_distribution(generate(Path(20000)), 2, MonoEdges())
        assert err.value.total == 2**20001

    def test_star_statistic_law(self):
        # closed form: center color fixed, leaves match independently
        g = generate(Star(3))
        pmf = exact_distribution(g, 2, MonoStars(2))
        # N ~ Binomial(3, 1/2); T = C(N, 2) in {0, 1, 3}
        expect = {0: Fraction(4, 8), 1: Fraction(3, 8), 3: Fraction(1, 8)}
        assert pmf == expect

    def test_gadget_cycle_law_matches_mixture_formula(self):
        g = generate(PathCycleGadget(2, 2, 3))
        pmf = exact_distribution(g, 2, MonoCycles(3))
        oracle = gadget_mono_cycle_pmf(2, 2, 2, 3, zmax=4)
        for k in range(5):
            assert float(pmf.get(k, 0)) == pytest.approx(oracle.get(k, 0.0), abs=1e-12)


    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_complete_two_color_lattice_oracle(self, n):
        # the lattice oracle behind criterion 9, checked against both exact paths
        g = generate(Complete(n))
        lattice = complete_two_color_lattice_law(n)
        standardized = {(Fraction(k) - Fraction(g.m, 2)) / n: p
                        for k, p in exact_distribution(g, 2, MonoEdges()).items()}
        assert lattice == standardized
        partitions = complete_graph_mono_edge_pmf(n, 2, g.m)
        assert sum(lattice.values()) == 1
        assert len(partitions) == len(lattice)
        for value, p in lattice.items():
            count = value * n + Fraction(g.m, 2)
            assert count.denominator == 1
            assert partitions[int(count)] == pytest.approx(float(p), abs=1e-12)

class TestSimulate:
    def test_deterministic_and_worker_invariant(self):
        g = generate(CompleteBipartite(2, 3))
        a = simulate(g, 3, MonoEdges(), 4000, 99)
        b = simulate(g, 3, MonoEdges(), 4000, 99)
        c = simulate(g, 3, MonoEdges(), 4000, 99, workers=4)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.counts, c.counts)
        assert not np.array_equal(a.counts, simulate(g, 3, MonoEdges(), 4000, 100).counts)

    def test_a_dying_worker_raises(self):
        # a Pool replaces a dead worker and never returns its block, so simulate must raise, not wait forever
        code = ("import os\n"
                "from colorgraph import colorsim, errors, graph\n"
                "run_range = colorsim._simulate_range\n"
                "def dying(kernel, seed, c, lo, hi):\n"
                "    if lo:\n"
                "        os._exit(1)  # as under the OOM killer\n"
                "    return run_range(kernel, seed, c, lo, hi)\n"
                "colorsim._simulate_range = dying\n"
                "try:\n"
                "    colorsim.simulate(graph.generate(graph.Complete(4)), 3, colorsim.MonoEdges(), 100, 1, workers=2)\n"
                "except errors.WorkerDiedError as exc:\n"
                "    print(exc)\n")
        src = os.path.dirname(os.path.dirname(colorsim.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30)
        assert "exited with code 1 before returning its samples" in out.stdout, out.stderr

    def test_single_edge_half(self):
        run = simulate(generate(Complete(2)), 2, MonoEdges(), 100_000, 1)
        assert 0.49 <= run.pmf()[1] <= 0.51

    def test_mean_identity(self):
        # empirical mean within 4 standard errors of m/c
        for seed, (spec, c) in enumerate(
            [(Complete(6), 3), (CompleteBipartite(3, 4), 2), (Star(6), 4)]
        ):
            g = generate(spec)
            run = simulate(g, c, MonoEdges(), 60_000, seed)
            target = g.m / c
            se = run.counts.std() / math.sqrt(run.sample_count)
            assert abs(run.mean() - target) <= 4 * max(se, 1e-9)

    def test_tv_against_exact(self):
        for seed, (spec, c) in enumerate(
            [(Complete(5), 2), (Cycle(6), 3), (Star(5), 2)]
        ):
            g = generate(spec)
            exact = {k: float(v) for k, v in exact_distribution(g, c, MonoEdges()).items()}
            run = simulate(g, c, MonoEdges(), 100_000, seed + 7)
            assert stats.tv_distance(run.pmf(), exact) < 0.01

    def test_star_identity_every_sample(self):
        # on stars the r-star count is exactly C(edge count, r), per coloring
        g = generate(Star(9))
        seed = 123
        edges = simulate(g, 2, MonoEdges(), 10_000, seed).counts
        for r in (2, 3):
            stars = simulate(g, 2, MonoStars(r), 10_000, seed).counts
            expect = np.array([math.comb(int(n), r) for n in edges])
            assert np.array_equal(stars, expect)

    def test_mono_cycles_run(self):
        g = generate(PathCycleGadget(3, 2, 3))
        run = simulate(g, 3, MonoCycles(3), 5000, 5)
        assert run.counts.min() >= 0
        assert run.counts.max() <= 6

    def test_standardized(self):
        run = simulate(generate(Complete(4)), 2, MonoEdges(), 100, 3)
        z = run.standardized(3.0, 1.5)
        assert z == pytest.approx((run.counts - 3.0) / 1.5)

    def test_validation(self):
        g = generate(Complete(3))
        with pytest.raises(ValueError):
            simulate(g, 1, MonoEdges(), 10, 0)
        with pytest.raises(ValueError):
            simulate(g, 2, MonoEdges(), 0, 0)
        for workers in (0, -1):
            with pytest.raises(ValueError):
                simulate(g, 2, MonoEdges(), 10, 0, workers=workers)

    def test_colors_beyond_two_to_the_53_rejected(self):
        # 53-bit uniforms only reach multiples of 128 when c = 2^60
        k2 = generate(Complete(2))
        with pytest.raises(DomainExceededError):
            simulate(k2, 2**60, MonoEdges(), 10, 1)
        with pytest.raises(DomainExceededError, match="exceed 2\\^53"):
            simulate(k2, 2**53 + 1, MonoEdges(), 10, 1)
        assert set(simulate(k2, 2**53, MonoEdges(), 10, 1).counts.tolist()) <= {0, 1}

    def test_colors_beyond_two_to_the_53_rejected_before_a_kernel_is_built(self, monkeypatch):
        # the cycle kernel of K_12 lists its 1.25M 8-cycles before the first draw would check c
        monkeypatch.setattr(colorsim, "_kernel_for", lambda *args: pytest.fail("a kernel was built"))
        with pytest.raises(DomainExceededError, match="exceed 2\\^53"):
            simulate(generate(Complete(12)), 2**60, MonoCycles(8), 3, 1)

    def test_kernel_choice_recorded(self):
        k200 = generate(Complete(200))
        assert _kernel_for(k200, 2, MonoEdges()).name == "gemm"
        assert _kernel_for(k200, 2, MonoStars(2)).name == "gemm"
        assert _kernel_for(generate(Complete(6)), 2, MonoCycles(3)).name == "gather"
        assert _kernel_for(generate(Path(200)), 2, MonoEdges()).name == "gather"
        assert simulate(generate(Complete(40)), 2, MonoEdges(), 10, 1).kernel == "gemm"
        assert simulate(generate(Cycle(5)), 2, MonoCycles(5), 10, 1).kernel == "gather"
        # the twin quotient has 2 classes, so c*(n + k^2) is small where c*n^2 was not
        assert _kernel_for(generate(Star(300)), 2, MonoStars(2)).name == "gemm"
        assert _kernel_for(generate(CompleteBipartite(100, 100)), 3, MonoEdges()).name == "gemm"

    @pytest.mark.parametrize("spec,c,stat,kernel", [
        # the birthday regime: sorting 60 colors beats 1,770 compares and c passes of a GEMM
        ("complete:60", 300, MonoEdges(), "sorted"),
        ("complete:60", 1770, MonoEdges(), "sorted"),
        # dense-chisq's hosts: few colors, so the GEMM's c passes are cheapest
        ("complete:200", 2, MonoEdges(), "gemm"),
        ("bipartite:100:100", 3, MonoEdges(), "gemm"),
        # twin-free hosts: k = n makes both quotient kernels dearer than the m compares
        ("regular:2000:3:5", 2, MonoEdges(), "gather"),
        ("er:300:0.1:7", 10, MonoStars(2), "gather"),
        # cycles: at few colors most pairs survive the first compare, so the gather; at many the sieve
        ("gadget:30:30:3", 2, MonoCycles(3), "gather"),
        ("gadget:30:30:3", 30, MonoCycles(3), "sieve"),
        ("gadget:30:30:3", 300, MonoCycles(3), "sieve"),
        ("gadget:10:10:5", 10, MonoCycles(5), "sieve"),
        ("er:60:0.3:1", 5, MonoCycles(4), "gather"),
        ("hypercube:8", 4, MonoCycles(4), "gather"),
        ("er:100:0.05:7", 3, MonoCycles(5), "gather"),
        ("complete:12", 30, MonoCycles(6), "sieve"),
        # today's prices put the GEMM's c passes over the colors and the sort's same-color runs above the
        # m compares, but the GEMM measured faster on all three rows: 0.82-1.18 against 2.6-3.3 us/sample
        # at c=50, 1.35-1.73 against 2.7-3.1 at c=100, 0.87-1.05 against 1.36-1.55 on the star. These rows
        # pin today's prices until the unit costs are fitted again
        ("complete:60", 50, MonoEdges(), "gather"),
        ("complete:60", 100, MonoEdges(), "gather"),
        ("star:300", 2, MonoEdges(), "gather"),
        # the star gather's narrow mono-degrees beat the GEMM's c passes on twin-free hosts at c = 2 or 3,
        # not the two-class GEMM of a star
        ("er:300:0.1:7", 2, MonoStars(2), "gather"),
        ("er:30:0.3:1", 3, MonoStars(2), "gather"),
        ("star:300", 2, MonoStars(2), "gemm"),
        # picks that the measured kernel times settle by 1.3x or more: the sieve 4x faster than the
        # gather's 40,677 compares, the gather 2x faster than a GEMM on 30 classes, the GEMM 1.4-1.7x
        # faster than a gather whose blocks hold 22 samples
        ("er:60:0.3:1", 30, MonoCycles(4), "sieve"),
        ("er:30:0.3:1", 2, MonoEdges(), "gather"),
        ("er:600:0.5:1", 30, MonoEdges(), "gemm"),
        # readme-cli's K40, like dense-chisq's hosts
        ("complete:40", 2, MonoEdges(), "gemm"),
        # the birthday regime on a twin-free host past a block's 1,414 classes: the sort's blocks would
        # hold one sample each, so the gather counts
        ("regular:2000:3:5", 10**9, MonoStars(2), "gather"),
        # twin-free hosts in the birthday regime, where the sort pays a B h of k^2 per run: the gather measured
        # 3-8x faster than the sort per 2,000 samples, 38 against 116 ms, 0.29 against 2.2 s, 11 against 35 ms
        ("er:300:0.5:1", 1770, MonoEdges(), "gather"),
        ("er:600:0.5:1", 100, MonoEdges(), "gather"),
        ("path:200", 10**5, MonoStars(2), "gather"),
        ("regular:5000:3:1", 10**9, MonoEdges(), "gather"),
    ])
    def test_kernel_chooser_grid(self, spec, c, stat, kernel):
        assert _kernel_for(generate(parse_family(spec)), c, stat).name == kernel

    def test_gemm_gate_is_on_the_quotient_size(self, monkeypatch):
        # n^2 = 3,600 entries exceed the budget, k^2 = 1 does not
        monkeypatch.setattr(rng, "BATCH_ENTRIES", 1000)
        g, stat = generate(Complete(60)), MonoEdges()
        run = simulate(g, 2, stat, 200, 5)
        assert run.kernel == "gemm"
        colors = rng.uniform_ints(5, 2, rng.STREAM_COLORS, np.arange(200)[None, :], np.arange(60)[:, None])
        assert np.array_equal(run.counts, matrix_count(_kernel_for(g, 2, stat, "gather").count, colors))

    def test_no_twin_search_when_even_one_class_is_too_costly(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("twin_quotient called")
        monkeypatch.setattr(Graph, "twin_quotient", refuse)
        # the gather's m compares and their rows are below the GEMM's c passes of 3n and the sort's
        # n*ceil(log2 n) steps and its links, each at k = 1
        assert _kernel_for(generate(Cycle(200)), 300, MonoEdges()).name == "gather"
        assert _kernel_for(generate(RandomRegular(2000, 3, 5)), 2, MonoEdges()).name == "gather"

    def test_twin_search_stops_at_a_block(self, monkeypatch):
        # both quotient kernels keep B in one block, so no twin search looks past isqrt(BATCH_ENTRIES) classes
        real, caps = Graph.twin_quotient, []
        monkeypatch.setattr(Graph, "twin_quotient", lambda self, max_classes=None:
                            caps.append(max_classes) or real(self, max_classes))
        assert _kernel_for(generate(RandomRegular(2000, 3, 5)), 10**9, MonoStars(2)).name == "gather"
        assert caps and all(cap is not None and cap <= math.isqrt(rng.BATCH_ENTRIES) for cap in caps)

    @pytest.mark.parametrize("spec,c,order,kernel", [
        ("er:60:0.3:1", 5, 4, "gather"),
        ("hypercube:8", 4, 4, "gather"),
        ("er:60:0.3:1", 30, 4, "sieve"),
        ("gadget:30:30:3", 30, 3, "sieve"),
    ])
    def test_sieve_index_built_only_for_the_sieve(self, spec, c, order, kernel, monkeypatch):
        # the sieve is priced from its dense and first-edge sizes; its index is built only once it wins
        built = []
        monkeypatch.setattr(colorsim, "_sieve_index", lambda cycles: built.append(len(cycles)) or _sieve_index(cycles))
        g = generate(parse_family(spec))
        assert _kernel_for(g, c, MonoCycles(order)).name == kernel
        assert built == ([len(census.cycle_list(g, order))] if kernel == "sieve" else [])

    def test_named_gather_builds_no_sieve_index(self, monkeypatch):
        # the chooser takes the sieve here; the gather needs only the cycle list
        built = []
        monkeypatch.setattr(colorsim, "_sieve_index", lambda cycles: built.append(len(cycles)) or _sieve_index(cycles))
        assert _kernel_for(generate(PathCycleGadget(30, 30, 3)), 30, MonoCycles(3), "gather").name == "gather"
        assert built == []

    def test_mono_count_runs_no_twin_search(self, monkeypatch):
        # mono_count names the gather, so complete:30 counts without its one-class quotient
        def refuse(self, *args, **kwargs):
            raise AssertionError("twin_quotient called")
        monkeypatch.setattr(Graph, "twin_quotient", refuse)
        g = generate(Complete(30))
        assert mono_count(g, [0] * 30, MonoEdges()) == 435
        assert mono_count(g, [0] * 15 + [1] * 15, MonoStars(2)) == 30 * math.comb(14, 2)

    def test_named_kernels_meet_only_the_hard_bounds(self):
        # the chooser takes the gather on path:200 at c=2; the GEMM and the sort still count its 200 classes
        g, stat = generate(Path(200)), MonoEdges()
        colors = kernel_test_colorings(g.n, 2, 3)
        gathered = matrix_count(_kernel_for(g, 2, stat, "gather").count, colors)
        for name in ("gemm", "sorted"):
            kernel = _kernel_for(g, 2, stat, name)
            assert kernel.name == name
            assert np.array_equal(matrix_count(kernel.count, colors), gathered), name

    @pytest.mark.parametrize("c,stat,name,budget", [
        (3, MonoCycles(3), "sorted", rng.BATCH_ENTRIES),
        (3, MonoCycles(3), "gemm", rng.BATCH_ENTRIES),
        (3, MonoEdges(), "sieve", rng.BATCH_ENTRIES),
        (3, MonoEdges(), "bitsliced", rng.BATCH_ENTRIES),
        (3, MonoEdges(), "gemm", 100),  # B of 200 x 200 classes is past a 100-entry block
        (3, MonoEdges(), "sorted", 100),  # so is the sort's B
        (2**62, MonoEdges(), "sorted", rng.BATCH_ENTRIES),  # keys c * 200 are past int64
    ], ids=["sorted-cycles", "gemm-cycles", "sieve-edges", "unknown", "gemm-past-a-block", "sorted-past-a-block",
            "sorted-past-int64"])
    def test_named_kernel_that_cannot_count_raises(self, c, stat, name, budget, monkeypatch):
        monkeypatch.setattr(rng, "BATCH_ENTRIES", budget)
        with pytest.raises(ValueError, match=name):
            _kernel_for(generate(Path(200)), c, stat, name)

    def test_one_cycle_list_per_call(self, monkeypatch):
        real, calls = graph.cycle_list, []
        monkeypatch.setattr(graph, "cycle_list", lambda g, length: calls.append(length) or real(g, length))
        g = generate(PathCycleGadget(3, 3, 3))
        simulate(g, 3, MonoCycles(3), 500, 1)
        assert calls == [3]
        exact_distribution(generate(Cycle(6)), 3, MonoCycles(6))
        assert calls == [3, 6]

    def test_sieve_counts_ignore_blocks_tiles_and_workers(self, monkeypatch):
        g, stat = generate(PathCycleGadget(6, 5, 4)), MonoCycles(4)
        base = simulate(g, 7, stat, 1500, 21)
        assert base.kernel == "sieve"
        assert np.array_equal(base.counts, simulate(g, 7, stat, 1500, 21, workers=2).counts)
        monkeypatch.setattr(rng, "BATCH_ENTRIES", 7)
        monkeypatch.setattr(rng, "TILE_WORDS", 7)
        assert np.array_equal(base.counts, simulate(g, 7, stat, 1500, 21).counts)
        # the same counts as the gather drawing every vertex
        colors = rng.uniform_ints(21, 7, rng.STREAM_COLORS, np.arange(1500)[None, :], np.arange(g.n)[:, None])
        assert np.array_equal(base.counts, matrix_count(_kernel_for(g, 7, stat, "gather").count, colors))

    @pytest.mark.parametrize("spec,stat", [("gadget:6:5:4", MonoCycles(4)), ("regular:200:3:1", MonoEdges())])
    def test_tuple_gather_chunks_change_nothing(self, spec, stat, monkeypatch):
        # 91 entries a chunk cut 13 samples into chunks of 7 rows: 30 cycles or 300 edges end on a short one
        g = generate(parse_family(spec))
        gather = _kernel_for(g, 7, stat, "gather")
        colors = kernel_test_colorings(g.n, 7, 5)[:, :13]
        whole = matrix_count(gather.count, colors)
        monkeypatch.setattr(colorsim, "_CHUNK_ENTRIES", 91)
        assert np.array_equal(matrix_count(gather.count, colors), whole)
        kind, order = ("cycles", stat.g) if isinstance(stat, MonoCycles) else ("edges", 0)
        assert whole.tolist() == loop_mono_counts(g, colors.T.astype(np.int64).tolist(), kind, order)

    def test_sieve_draws_few_colors(self, monkeypatch):
        # at c = 30 the 31 path vertices are drawn densely and about 30 triangle tips per sample pointwise
        real, drawn = rng.uniform_ints, {"dense": 0, "pointwise": 0}

        def counted(*args, **kwargs):
            out = real(*args, **kwargs)
            drawn["dense" if kwargs.get("at") is None else "pointwise"] += out.size
            return out

        monkeypatch.setattr(rng, "uniform_ints", counted)
        g, samples = generate(PathCycleGadget(30, 30, 3)), 20_000
        assert simulate(g, 30, MonoCycles(3), samples, 5).kernel == "sieve"
        assert drawn["dense"] > 0 and drawn["pointwise"] > 0
        assert sum(drawn.values()) < 0.1 * g.n * samples

    @pytest.mark.parametrize("c", [2, 3, 30, 1770, 2**31, 2**33, 2**40 + 3, 2**53])
    @pytest.mark.parametrize("tile", [None, 7])
    def test_position_reads_equal_dense_draws(self, c, tile, monkeypatch):
        # the sieve reads a vertex past its dense set at a position in the block; 1,003 and 40,009 reads
        # are multiples of neither tile, and the block starts past sample 0
        if tile is not None:
            monkeypatch.setattr(rng, "TILE_WORDS", tile)
        gen, samples = np.random.default_rng(c % 1000), np.arange(5000, 5400)
        for reads in (1003, 40_009):
            at, vertices = gen.integers(0, samples.size, reads), gen.integers(0, 931, reads)
            got = _drawn_colors(11, c, vertices, samples, at=at)
            expected = rng.uniform_ints(11, c, rng.STREAM_COLORS, samples[at], vertices)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("at", [[-1, 3], [0, 4]], ids=["negative", "past-the-block"])
    def test_every_source_refuses_positions_outside_the_block(self, at):
        # a negative position would wrap to the block's end and read another sample's colors
        colors = np.arange(8).reshape(2, 4)
        with pytest.raises(ValueError, match="positions must lie in"):
            _matrix_colors(colors, [0, 1], np.arange(4), at=at)
        with pytest.raises(ValueError, match="positions must lie in"):
            _digit_colors(3, np.array([3, 1]), np.uint8, [0, 1], np.arange(4), at=at)
        with pytest.raises(ValueError, match="positions must lie in"):
            _drawn_colors(11, 3, [0, 1], np.arange(4), at=at)
        assert _matrix_colors(colors, [0, 1], np.arange(4), at=[3, 0]).tolist() == [3, 4]

    @pytest.mark.parametrize("spec,order,c", [("complete:5", 4, 3), ("cycle:6", 6, 3), ("complete:6", 5, 2)],
                             ids=["dense-and-pointwise", "pointwise", "three-later-columns"])
    def test_named_sieve_reads_digits_and_matrices_by_position(self, spec, order, c, monkeypatch):
        # blocks of a few colorings start past 0, so a position read as a sample index would count wrong
        monkeypatch.setattr(rng, "BATCH_ENTRIES", 60)
        g, stat = generate(parse_family(spec)), MonoCycles(order)
        total = c ** g.n
        digits = functools.partial(_digit_colors, c, c ** np.arange(g.n - 1, -1, -1, dtype=np.int64),
                                   rng._narrow_dtype(c - 1))
        sieve = _kernel_for(g, c, stat, "sieve")
        blocks = list(rng.batches(0, total, sieve.row_cost))
        assert len(blocks) > 2
        colors = digits(np.arange(g.n)[:, None], np.arange(total)[None, :])
        expected = loop_mono_counts(g, colors.T.astype(np.int64).tolist(), "cycles", order)
        assert np.concatenate([sieve.count(digits, idx) for idx in blocks]).tolist() == expected
        matrix = functools.partial(_matrix_colors, colors)
        assert np.concatenate([sieve.count(matrix, idx) for idx in blocks]).tolist() == expected
        # mono_count's source: one coloring as a column, read at sample 0
        for j in (0, total // 3, total - 1):
            one = functools.partial(_matrix_colors, colors[:, j].astype(np.int64)[:, None])
            assert sieve.count(one, np.zeros(1, dtype=np.int64)).tolist() == [expected[j]]
            assert mono_count(g, colors[:, j], stat) == expected[j]

    def test_empty_graph(self):
        empty = Graph(0, [])
        assert exact_distribution(empty, 2, MonoEdges()) == {0: Fraction(1)}
        assert simulate(empty, 2, MonoEdges(), 5, 1).counts.tolist() == [0] * 5

    def test_worker_invariant_on_every_kernel(self):
        for spec, c, kernel in ((CompleteBipartite(20, 25), 3, "gemm"), (Cycle(30), 300, "gather"),
                                (Complete(20), 1770, "sorted")):
            g = generate(spec)
            for stat in (MonoEdges(), MonoStars(2)):
                one, four = (simulate(g, c, stat, 3000, 17, workers=w) for w in (1, 4))
                assert one.kernel == four.kernel == kernel
                assert np.array_equal(one.counts, four.counts)


# -- the counting kernels against plain loops ----------------------------------------

KERNEL_COLORS = (2, 3, 7, 300, 70000)
KERNEL_STATS = (
    ("edges", 0, MonoEdges()),
    ("stars", 1, MonoStars(1)),
    ("stars", 2, MonoStars(2)),
    ("stars", 3, MonoStars(3)),
    *(("cycles", length, MonoCycles(length)) for length in census.CYCLE_LENGTHS),
)


def kernel_test_colorings(n: int, c: int, seed: int) -> np.ndarray:
    """(n, 51) vertex-major colorings in the dtype ``rng.uniform_ints`` draws for c.

    Uniform columns, columns over colors that collide when cut to 8 or 16
    bits, one constant column. The colliding colors check that the draw's
    dtype holds c - 1.
    """
    gen = np.random.default_rng(seed)
    top = c - 1
    clash = np.array(sorted({0, top, top % 256, top % 65536}), dtype=np.int64)
    samples = np.vstack([
        gen.integers(0, c, size=(25, n)),
        gen.choice(clash, size=(25, n)),
        np.full((1, n), top),
    ]).astype(np.int64)
    colors = samples.T.astype(rng.uniform_ints(0, c, 0).dtype, order="C")
    assert np.array_equal(colors, samples.T), f"the draw's dtype {colors.dtype} cannot hold {top}"
    return colors


def matrix_count(count, colors: np.ndarray) -> np.ndarray:
    """A kernel's ``count`` of every column of the (n, samples) ``colors``, read as a coloring source."""
    return count(functools.partial(_matrix_colors, colors), np.arange(colors.shape[1]))


def assert_kernels_match_loops(g: Graph, c: int, colors: np.ndarray, lengths=census.CYCLE_LENGTHS) -> None:
    """Every kernel against the loop oracle, named on g: the GEMM and the sort on its twin quotient,
    the gather and the sieve on the cycles of ``lengths``. The GEMM and the sort also count on the
    quotient of singletons (labels 0..n-1, B = A), which any graph also is."""
    rows = colors.T.astype(np.int64).tolist()
    singletons = Blowup.singletons(g)
    for kind, order, stat in KERNEL_STATS:
        if kind == "cycles" and order not in lengths:
            continue
        expected = np.array(loop_mono_counts(g, rows, kind, order), dtype=np.int64)
        for name in ("gather", "sieve") if kind == "cycles" else ("gather", "gemm", "sorted"):
            counts = matrix_count(_kernel_for(g, c, stat, name).count, colors)
            assert counts.dtype == np.int64
            assert np.array_equal(counts, expected), (name, kind, order, c)
        if kind != "cycles":
            r, share = (1, 2) if kind == "edges" else (order, 1)  # edges are 1-stars halved
            gemm = matrix_count(functools.partial(_gemm_counts, _classes_of(singletons), c, r, share), colors)
            assert np.array_equal(gemm, expected), ("gemm", kind, order, c, "singletons")
            by_sort = matrix_count(functools.partial(_sorted_counts, singletons, c, r, share), colors)
            assert by_sort.dtype == np.int64
            assert np.array_equal(by_sort, expected), ("sorted", kind, order, c, "singletons")


class TestKernelsAgainstLoops:
    @pytest.mark.parametrize("c", KERNEL_COLORS)
    def test_catalog(self, catalog, c):
        for i, (name, g) in enumerate(catalog):
            assert_kernels_match_loops(g, c, kernel_test_colorings(g.n, c, 1000 * c + i))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_hypothesis_graphs(self, data):
        n = data.draw(st.integers(1, 9))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        c = data.draw(st.sampled_from(KERNEL_COLORS))
        seed = data.draw(st.integers(0, 2**32 - 1))
        g = Graph(n, sorted(edges))
        assert_kernels_match_loops(g, c, kernel_test_colorings(n, c, seed))

    @settings(max_examples=60, deadline=None)
    @given(blow_up_specs(), st.sampled_from(KERNEL_COLORS), st.integers(0, 2**32 - 1))
    def test_hypothesis_blow_ups(self, spec, c, seed):
        # up to 20 vertices: a dense one has too many long cycles for the loop oracle
        g = blow_up(*spec)
        assert_kernels_match_loops(g, c, kernel_test_colorings(g.n, c, seed), lengths=(3, 4))

    @settings(max_examples=60, deadline=None)
    @given(blow_up_specs(max_size=2), st.sampled_from(KERNEL_COLORS), st.integers(0, 2**32 - 1))
    def test_hypothesis_small_blow_ups(self, spec, c, seed):
        g = blow_up(*spec)
        assert_kernels_match_loops(g, c, kernel_test_colorings(g.n, c, seed))


# blow-ups whose class sizes take each side of the GEMM's cut of its class rows: (blocks, clique, sizes),
# then the columns and tails that cut gives; no class of a host is the twin of another
_C8 = [[1 if abs(i - j) in (1, 7) else 0 for j in range(8)] for i in range(8)]
_P5 = [[1 if abs(i - j) == 1 else 0 for j in range(5)] for i in range(5)]
GEMM_CLASS_HOSTS = {
    "one-class": (([[0]], [1], [12]), 0, 1),
    "two-large-classes": (([[0, 1], [1, 0]], [0, 0], [10, 10]), 0, 2),
    "twin-pairs": ((_C8, [0, 1] * 4, [2] * 8), 2, 0),
    "large-class-and-singletons": ((_P5, [0] * 5, [10, 1, 1, 1, 1]), 1, 1),
    "mixed-sizes": ((_P5, [0, 1, 0, 1, 0], [6, 2, 2, 1, 1]), 2, 1),
    "class-past-uint8": (([[0, 1], [1, 0]], [0, 0], [300, 2]), 0, 2),
}


class TestRowLayouts:
    @pytest.mark.parametrize("spec,c", [("complete:400", 65536), ("complete:400", 65537),
                                        ("bipartite:150:150", 32768), ("bipartite:150:150", 32769)])
    def test_sort_keys_either_side_of_uint16(self, spec, c):
        # the sort's keys c * k - 1 are 65,535 on K400 (k = 1) at c = 65,536 and on K150,150 (k = 2) at
        # c = 32,768, in uint16; one color more takes uint32. Drawn blocks start past sample 0, and the
        # colors of the matrix source are ones whose keys a 16-bit dtype would wrap onto each other
        g = generate(parse_family(spec))
        near = np.array([x for x in (0, 1, 32768, 32769, c - 1) if x < c])
        colors = near[np.random.default_rng(c).integers(0, near.size, (g.n, 300))].astype(rng._narrow_dtype(c - 1))
        for stat in (MonoEdges(), MonoStars(2)):
            sorted_kernel, gather = (_kernel_for(g, c, stat, name) for name in ("sorted", "gather"))
            drawn = [np.concatenate([kernel.count(functools.partial(_drawn_colors, 3, c), idx)
                                     for idx in rng.batches(5000, 7000, kernel.row_cost)])
                     for kernel in (sorted_kernel, gather)]
            assert np.array_equal(*drawn), (spec, c, stat)
            assert drawn[0].sum() > 0
            assert np.array_equal(matrix_count(sorted_kernel.count, colors), matrix_count(gather.count, colors))

    @pytest.mark.parametrize("spec,order", [("complete:6", 3), ("complete:6", 5), ("gadget:3:3:4", 4)])
    def test_sieve_blocks_with_no_match_or_every_match(self, spec, order):
        # every vertex its own color: no first edge matches in any sample; one color: all match in all
        g = generate(parse_family(spec))
        sieve = _kernel_for(g, g.n, MonoCycles(order), "sieve")
        distinct = np.argsort(np.random.default_rng(order).random((37, g.n)), axis=1).T.astype(np.uint8)
        constant = np.full((g.n, 37), 2, dtype=np.uint8)
        cycles = len(census.cycle_list(g, order))
        for colors, want in ((distinct, 0), (constant, cycles)):
            counts = matrix_count(sieve.count, colors)
            assert counts.tolist() == [want] * 37
            assert counts.tolist() == loop_mono_counts(g, colors.T.astype(np.int64).tolist(), "cycles", order)

    @pytest.mark.parametrize("n,edges,order", [
        (4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)], 3),
        (7, [(0, 6), (1, 2), (1, 4), (2, 3), (2, 5), (2, 6), (3, 4), (3, 5), (4, 5), (5, 6)], 4),
        (6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (1, 5), (2, 3), (3, 4), (3, 5)], 5),
    ], ids=["triangles", "4-cycles", "5-cycles"])
    def test_sieve_rows_of_equal_first_edges_with_dense_slots(self, n, edges, order):
        # every first edge has as many cycles, so the sieve takes whole rows, and a later vertex is also dense
        g = Graph(n, edges)
        index = _sieve_index(census.cycle_list(g, order))
        assert index.size and any(slots is not None for slots in index.slots)
        for c in (2, 3):
            assert_kernels_match_loops(g, c, kernel_test_colorings(n, c, 7 * c + order), lengths=(order,))


class TestGemmClassSums:
    @pytest.mark.parametrize("host", GEMM_CLASS_HOSTS)
    def test_cut_of_the_class_rows(self, host):
        spec, columns, tails = GEMM_CLASS_HOSTS[host]
        g = blow_up(*spec)
        quotient = g.twin_quotient(g.n)
        assert sorted(quotient.sizes.tolist(), reverse=True) == sorted(spec[2], reverse=True)
        classes = _classes_of(quotient)
        assert (len(classes.columns), len(classes.tails)) == (columns, tails)
        # the rows run class by class, the classes by falling size
        runs = [len(list(rows)) for _, rows in itertools.groupby(quotient.labels[classes.vertices].tolist())]
        assert runs == sorted(spec[2], reverse=True)
        assert classes.counter == (np.uint16 if max(spec[2]) > 255 else np.uint8)

    @pytest.mark.parametrize("c", [2, 3, 7])
    @pytest.mark.parametrize("host", GEMM_CLASS_HOSTS)
    def test_simulate_matches_loops_over_split_blocks(self, host, c, monkeypatch):
        # a 200-entry budget cuts 20 samples into blocks of 1 to 8
        monkeypatch.setattr(rng, "BATCH_ENTRIES", 200)
        g = blow_up(*GEMM_CLASS_HOSTS[host][0])
        samples = 20
        colors = rng.uniform_ints(9, c, rng.STREAM_COLORS, np.arange(samples)[None, :], np.arange(g.n)[:, None])
        rows = colors.T.astype(np.int64).tolist()
        for kind, order, stat in (("edges", 0, MonoEdges()), ("stars", 1, MonoStars(1)), ("stars", 2, MonoStars(2))):
            run = simulate(g, c, stat, samples, 9)
            assert run.kernel == "gemm", (host, c, stat)
            assert run.counts.tolist() == loop_mono_counts(g, rows, kind, order), (host, c, stat)

    def test_class_of_300_one_color(self):
        # all of a 300-vertex class in one color: its histogram entry needs the uint16 counter
        g = blow_up(*GEMM_CLASS_HOSTS["class-past-uint8"][0])
        colors = np.zeros((g.n, 3), dtype=np.uint8)
        colors[-1, 1] = colors[::2, 2] = 1
        rows = colors.T.astype(np.int64).tolist()
        for kind, order, stat in (("edges", 0, MonoEdges()), ("stars", 2, MonoStars(2))):
            got = matrix_count(_kernel_for(g, 2, stat, "gemm").count, colors)
            assert got.tolist() == loop_mono_counts(g, rows, kind, order), kind

    def test_star_past_two_to_the_24_leaves(self):
        # all of a star's 2^24 + 1 leaves in one color: float32 rounds its class size to 2^24, so the
        # GEMM counts in B's float64
        leaves = 2**24 + 1
        quotient = Blowup(np.concatenate(([0], np.ones(leaves, np.int64))), np.array([1, leaves]),
                          np.array([[0.0, 1.0], [1.0, 0.0]]))
        one_color = lambda vertices, samples: np.zeros(np.broadcast_shapes(vertices.shape, samples.shape), np.uint8)
        edges = _gemm_counts(_classes_of(quotient), 2, 1, 2, one_color, np.zeros(1, np.int64))
        assert edges.tolist() == [leaves]


class TestMomentsAgainstOracle:
    def test_exact_mean_is_m_over_c(self):
        for spec, c in ((Complete(5), 2), (CompleteBipartite(2, 4), 3)):
            g = generate(spec)
            pmf = exact_distribution(g, c, MonoEdges())
            assert pmf_moment(pmf, 1) == Fraction(g.m, c)

    def test_exact_variance_matches_binomial(self):
        # pairwise independence: the second moment matches the binomial one
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)])
        c = 3
        pmf = exact_distribution(g, c, MonoEdges())
        m = g.m
        assert pmf_moment(pmf, 2) == Fraction(m, c) + Fraction(m * (m - 1), c * c)


# -- counts frozen at the sample-major int64 drawing path ----------------------------

# sha256 of simulate(generate(spec), c, stat, 3000, 11).counts, one case per kernel
# and color dtype, recorded before colorings were drawn vertex-major in narrow dtypes
FROZEN_DIGESTS = [
    ("complete:30", 2, MonoEdges(), "gemm", "ac355202b414edba164d220a476250df7eed35f8c242ec58cd048af91fb39f9e"),
    ("complete:30", 3, MonoEdges(), "gemm", "d179e741f18c3682e00d79587bc713c710253e58a26792a4733b6c76dd2dc101"),
    ("regular:200:3:1", 2, MonoEdges(), "gather", "f24d428d2ef21bd283dc2ba20a313a103b8d356f972f0f9be47027b89760bdc9"),
    ("regular:200:3:1", 1770, MonoEdges(), "gather", "0a7cc7fef6610010feb879a525ca16785ee7bb937421ae33fc9e088828b81525"),
    ("regular:200:3:1", 70000, MonoEdges(), "gather", "871dc291ea72b232238d750da9131f40e206831f36fd8aad328676664bba0cd0"),
    ("regular:200:3:1", 2**40 + 3, MonoEdges(), "gather", "151ff79f29e96d211576b9a2e3e78f518b26109916616945d50cdee82dd2ba8b"),
    ("gadget:5:5:3", 3, MonoCycles(3), "gather", "d102aadc0a71fa57f6fee256a93f81405ec47ac784eb0781ecc4962e03501f71"),
]


# the same digests on twin hosts, recorded before the GEMM ran on the twin quotient
FROZEN_DIGESTS += [
    ("complete:200", 2, MonoEdges(), "gemm", "23864ad62dc87c092627bca5ea933d4f817858b6a82cdd5abc3f5bd8ec234c48"),
    ("bipartite:100:100", 3, MonoEdges(), "gemm", "ba74367a61b32861249bcbfe00bd66010f964495f277d2bf2541e9b98f717cfa"),
    ("bipartite:100:100", 3, MonoStars(2), "gemm", "2c5721a30a73a2c06437bdf80c8ac66c0051b0c43abfdd5312fd69f85bafdf1f"),
    ("star:300", 2, MonoStars(2), "gemm", "e53f5738a205986958380e81ecfc0566d8b15dab2a71ce7ef0778817b7216470"),
]


# the same digests in the birthday regime, recorded while these hosts ran the gather
# (the GEMM for complete:60 at c=300), before the sorted kernel existed
FROZEN_DIGESTS += [
    ("complete:60", 1770, MonoEdges(), "sorted", "3cc7610b25766c412ed508d15a4df5a85f9f383de71ef04c5c54634d56ab4804"),
    ("complete:60", 1770, MonoStars(2), "sorted", "f98c7652fd42644b83ef92deab3c1963dc678bb90293968a10bb02a4771bcd78"),
    ("complete:60", 300, MonoEdges(), "sorted", "0616f8894a898f5644f4db592fdafa84f7eb9eb7053edd0355dc68fc04c427f4"),
    ("bipartite:30:30", 1770, MonoEdges(), "sorted", "40c32f96ff945776f0f0ac8941c62675b51b5c0284d3249a5964bdfc508295e9"),
    ("bipartite:30:30", 1770, MonoStars(2), "sorted", "21d7df6eef208a6ade3f68e2e1f7246504b0acaf74183063dacb4aada5c8e296"),
]


# stars through the gather, recorded while its neighbour columns were sorted from edge_arrays();
# gadget:30:30:3 cuts its columns with 31 tails
FROZEN_DIGESTS += [
    ("er:300:0.1:7", 10, MonoStars(2), "gather", "5d6ba58ee737aa8dbb9be86e3a870900fc4040e7913d2bdef49418f5f3cbb2f3"),
    ("gadget:30:30:3", 30, MonoStars(2), "gather", "4130ddf3b92cdb7c3271a7c94078d6eae66802346656d9fb13a2e7bee4997673"),
]


# the GEMM on a twin-free host (k = n = 300), recorded while edges and stars each had their own
# accumulation in it
FROZEN_DIGESTS += [
    ("er:300:0.5:1", 2, MonoEdges(), "gemm", "b63adbaf1bbc7ed7b52edded13675bda6ddf4aac6c23bdce73f611b42d086fc8"),
    ("er:300:0.5:1", 2, MonoStars(2), "gemm", "f9e3c839a06fe7e0b8350ad6af1800b774e810787c4a53b6d5598a61bbc0b77b"),
]


# cycles in the birthday regime, recorded while every cycle host ran the gather, before the sieve existed
FROZEN_DIGESTS += [
    ("gadget:30:30:3", 10, MonoCycles(3), "sieve", "78efe9291d39ff581f327a0077ba143eb85091a0d41e1bcf9c7552d0b90c21b1"),
    ("gadget:30:30:3", 30, MonoCycles(3), "sieve", "9fc6e7b0737f5697dc0899386c79c271bd334797030528833a86a9c9c1aa7b67"),
    ("gadget:30:30:3", 300, MonoCycles(3), "sieve", "442cf51d2a544c9fd5d97150ad644984ac9a3e770cd0698f8198aba0c3c6e4d5"),
    ("gadget:10:10:5", 10, MonoCycles(5), "sieve", "bb1c178be8a37218c0b62905b89452e46e72e857c95c9a603661ed47960fd074"),
]


# the sieve with later columns that mix dense slots and pointwise reads, recorded while a pointwise
# read was a sample index and not a position in the block
FROZEN_DIGESTS += [
    ("er:60:0.3:1", 30, MonoCycles(4), "sieve", "084b317ea9b51aab3688349295c6ff23eb191dace8cc897b18de6b2fb5a295b5"),
]


@pytest.mark.parametrize("spec,c,stat,kernel,digest", FROZEN_DIGESTS)
def test_frozen_simulate_digest(spec, c, stat, kernel, digest):
    run = simulate(generate(parse_family(spec)), c, stat, 3000, 11)
    assert run.kernel == kernel
    assert run.counts.dtype == np.int64
    assert hashlib.sha256(run.counts.tobytes()).hexdigest() == digest


def test_frozen_sieve_digest_over_blocks():
    # regime-sweep's gadget op, cycles:3 at c = 30 over 20,000 samples: four blocks, so most pointwise reads
    # sit in blocks that start past sample 0; recorded while those reads were sample indices
    run = simulate(generate(PathCycleGadget(30, 30, 3)), 30, MonoCycles(3), 20_000, 11)
    assert run.kernel == "sieve"
    assert hashlib.sha256(run.counts.tobytes()).hexdigest() == \
        "015116b8d6add4bbe05c26a3e01d5d492599e8606d0fc623736b3ee8f8416ded"


def test_frozen_named_gather_past_uint8_degrees():
    # star:300 stars:2 at c = 3 by the named gather: the hub's degree 300 keeps uint16 mono-degrees and its
    # C(d, 2) table, up to 44,850, is uint16; recorded while the table was int64 and compares were cast
    g = generate(Star(300))
    kernel = _kernel_for(g, 3, MonoStars(2), "gather")
    source = functools.partial(_drawn_colors, 11, 3)
    counts = np.concatenate([kernel.count(source, idx) for idx in rng.batches(0, 3000, kernel.row_cost)])
    assert counts.dtype == np.int64
    assert hashlib.sha256(counts.tobytes()).hexdigest() == \
        "d19e33011447fc24239552f60d307a5da419a6ba61219991cee7391856780d06"
    colors = rng.uniform_ints(11, 3, rng.STREAM_COLORS, np.arange(200)[None, :], np.arange(g.n)[:, None])
    assert counts[:200].tolist() == loop_mono_counts(g, colors.T.astype(np.int64).tolist(), "stars", 2)


def test_frozen_exact_law_on_a_twin_host():
    # exact_distribution(complete:8, 3), recorded before the GEMM ran on the twin quotient
    assert exact_distribution(generate(Complete(8)), 3, MonoEdges()) == {
        7: Fraction(560, 2187), 8: Fraction(140, 729), 9: Fraction(560, 2187),
        11: Fraction(112, 729), 12: Fraction(70, 2187), 13: Fraction(112, 2187),
        15: Fraction(56, 2187), 16: Fraction(56, 2187), 21: Fraction(16, 2187),
        28: Fraction(1, 2187),
    }


def test_frozen_exact_law_on_the_sorted_kernel():
    # exact_distribution(complete:4, 50) on uint8 digits, recorded while it ran the gather; both
    # statistics run the gather there, so the sorted kernel counts every coloring here too
    g = generate(Complete(4))
    assert _kernel_for(g, 50, MonoEdges()).name == "gather"
    assert _kernel_for(g, 50, MonoStars(2)).name == "gather"
    laws = {
        MonoEdges(): {
            0: Fraction(13818, 15625), 1: Fraction(1764, 15625), 2: Fraction(147, 125000),
            3: Fraction(49, 31250), 6: Fraction(1, 125000),
        },
        MonoStars(2): {0: Fraction(124803, 125000), 3: Fraction(49, 31250), 12: Fraction(1, 125000)},
    }
    digits = functools.partial(_digit_colors, 50, 50 ** np.arange(3, -1, -1), np.uint8)
    for stat, law in laws.items():
        assert exact_distribution(g, 50, stat) == law
        sort = _kernel_for(g, 50, stat, "sorted")
        counts = np.concatenate([sort.count(digits, idx) for idx in rng.batches(0, 50**4, sort.row_cost)])
        values, freq = np.unique(counts, return_counts=True)
        assert {int(v): Fraction(int(f), 50**4) for v, f in zip(values, freq)} == law


def test_frozen_exact_law_on_the_sieve():
    # exact_distribution(gadget:1:3:4, 7, cycles:4) on base-7 digits, recorded while it ran the gather
    g = generate(PathCycleGadget(1, 3, 4))
    assert _kernel_for(g, 7, MonoCycles(4)).name == "sieve"
    assert exact_distribution(g, 7, MonoCycles(4)) == {
        0: Fraction(816486, 823543), 1: Fraction(6912, 823543), 2: Fraction(144, 823543), 3: Fraction(1, 823543),
    }


class TestStarCountsPastInt64:
    def test_every_kernel_refuses(self):
        # K600 in one color: 600 * C(599, 10) passes int64, and C(599, 12) passes it on its own
        g = generate(Complete(600))
        colors = np.zeros((g.n, 1), dtype=np.uint8)
        for r in (10, 12):
            counts = [_kernel_for(g, 2, MonoStars(r), name).count for name in ("gemm", "sorted", "gather")]
            counts.append(functools.partial(_gemm_counts, _classes_of(Blowup.singletons(g)), 2, r, 1))
            for count in counts:
                with pytest.raises(DomainExceededError, match="int64"):
                    matrix_count(count, colors)
            with pytest.raises(DomainExceededError, match="int64"):
                mono_count(g, [0] * g.n, MonoStars(r))

    def test_simulate_refuses(self):
        # the exact counts of these samples are about 10^21; int64 wrapped them to negative numbers
        with pytest.raises(DomainExceededError, match="int64"):
            simulate(generate(Complete(600)), 2, MonoStars(10), 3, 1)

    def test_counts_inside_int64_are_kept(self):
        # K600 at c = 2: sum over colors of h * C(h - 1, 6), h the color's class size
        g = generate(Complete(600))
        run = simulate(g, 2, MonoStars(6), 3, 1)
        colors = rng.uniform_ints(1, 2, rng.STREAM_COLORS, np.arange(3)[None, :], np.arange(g.n)[:, None])
        sizes = [np.bincount(column, minlength=2).tolist() for column in colors.T]
        assert run.counts.tolist() == [sum(h * math.comb(h - 1, 6) for h in hs) for hs in sizes]

    def test_one_color_star_past_the_coarse_bound_is_counted(self):
        # 3,000,001 * C(3,000,000, 2) passes int64, but the hub's C(3,000,000, 2) ~ 4.5e12 is the whole count
        g = generate(Star(3_000_000))
        assert mono_count(g, np.zeros(g.n, dtype=np.uint8), MonoStars(2)) == math.comb(3_000_000, 2)

    def test_exact_totals_decide(self):
        # two stars of 14,500 leaves, hubs 0 and 14,501: C(14,500, 5) fits int64 and twice it does not
        leaves = 14_500
        g = Graph(2 * (leaves + 1), [(hub, hub + i) for hub in (0, leaves + 1) for i in range(1, leaves + 1)])
        apart = np.repeat(np.array([0, 1], dtype=np.uint8), leaves + 1)  # each star in a color of its own
        split = apart.copy()
        split[leaves + 2::2] = 0  # half of the second star's leaves join the first color
        kept = math.comb(leaves, 5) + math.comb(leaves // 2, 5)
        for name in ("gemm", "sorted", "gather"):
            count = _kernel_for(g, 2, MonoStars(5), name).count
            assert matrix_count(count, np.stack((split, split[::-1]), axis=1)).tolist() == [kept, kept], name
            with pytest.raises(DomainExceededError, match="int64"):  # the GEMM: one color at a time fits
                matrix_count(count, apart[:, None])

    def test_comb_sums_at_the_int64_edge(self):
        values = np.array([[2**62, 2**62], [2**62 - 1, 2**62]])
        with pytest.raises(DomainExceededError, match="int64"):
            colorsim._comb_sums(values, 1, 2, colorsim._row_sums)
        assert colorsim._comb_sums(values[:, :1], 1, 2, colorsim._row_sums).tolist() == [2**63 - 1]
        # C(3e10, 2) passes int64 on its own, but its class holds no vertex of the color
        weights = np.array([[0], [3]])
        assert colorsim._comb_sums(np.array([[3 * 10**10], [5]]), 2, 3,
                                   functools.partial(colorsim._column_dots, weights)).tolist() == [30]


# C(top, 2) just below and just above 2^8, 2^16 and 2^32: 253 / 276, 65,341 / 65,703, 4,294,930,521 / 4,295,023,203
NARROW_TABLE_TOPS = (23, 24, 362, 363, 92_682, 92_683)


class TestNarrowCombTables:
    @pytest.mark.parametrize("top", NARROW_TABLE_TOPS)
    def test_every_caller_sums_exactly(self, top):
        # values as the star gather keeps them (narrow) and as the GEMM and the sort pass them (int64)
        gen = np.random.default_rng(top)
        values = gen.integers(0, top + 1, (40, 9))
        values[gen.integers(0, 40, 9), np.arange(9)] = top
        weights = gen.integers(0, 4, values.shape)
        exact = [sum(math.comb(v, 2) for v in column) for column in values.T.tolist()]
        weighted = [sum(w * math.comb(v, 2) for v, w in zip(vs, ws))
                    for vs, ws in zip(values.T.tolist(), weights.T.tolist())]
        member_col = np.repeat(np.arange(9), 40)

        def column_sums(terms):  # the sort's per-column add.at over its run members
            out = np.zeros(9, dtype=np.int64)
            np.add.at(out, member_col, terms)
            return out

        for dtype in (rng._narrow_dtype(top), np.int64):
            typed = values.astype(dtype)
            assert colorsim._comb_sums(typed, 2, 40, colorsim._row_sums).tolist() == exact
            assert colorsim._comb_sums(typed, 2, 120, functools.partial(colorsim._column_dots, weights)).tolist() \
                == weighted
            assert colorsim._comb_sums(np.ascontiguousarray(typed.T).reshape(-1), 2, 40, column_sums).tolist() \
                == exact

    @pytest.mark.parametrize("dtype,rows", [(np.uint8, 300), (np.uint8, 2), (np.uint16, 300), (np.uint16, 70_000)])
    def test_row_sums_widen_narrow_input(self, dtype, rows):
        # every entry at its dtype's largest value: 300 uint8 rows pass uint16, 70,000 uint16 rows pass uint32
        top = np.iinfo(dtype).max
        got = colorsim._row_sums(np.full((rows, 3), top, dtype=dtype))
        assert got.dtype == np.int64
        assert got.tolist() == [rows * top] * 3


class TestIntegerArguments:
    def test_float_colors_and_seeds_raise(self):
        # 2.5 colors drew 2 and recorded 2.5; seed 1.5 drew the seed-1 colors
        g = generate(Path(50))
        for call in (lambda: simulate(g, 2.5, MonoEdges(), 10, 1), lambda: simulate(g, 2, MonoEdges(), 10, 1.5),
                     lambda: exact_distribution(generate(Path(3)), 2.0, MonoEdges())):
            with pytest.raises(TypeError):
                call()

    @pytest.mark.parametrize("stat", [MonoEdges(), MonoStars(2), MonoCycles(3)], ids=["edges", "stars", "cycles"])
    def test_numpy_integer_colors(self, stat):
        # 2**63 // np.int64(3) overflowed, and c ** -j is no numpy integer power
        g = generate(Complete(5))
        run = simulate(g, np.int64(3), stat, 50, 7)
        assert type(run.colors) is int and run.colors == 3
        assert np.array_equal(run.counts, simulate(g, 3, stat, 50, 7).counts)
        assert exact_distribution(g, np.int64(3), stat) == exact_distribution(g, 3, stat)


def standardized_k4(center: float, scale: float) -> np.ndarray:
    return simulate(generate(Complete(4)), 2, MonoEdges(), 10, 1).standardized(center, scale)


@pytest.mark.parametrize("call, message", [
    (lambda: standardized_k4(0.0, 0.0), "scale must be positive"),
    # a NaN scale or center returned all NaN, an infinite scale all zeros
    (lambda: standardized_k4(0.0, math.nan), "scale must be positive"),
    (lambda: standardized_k4(0.0, math.inf), "scale must be positive"),
    (lambda: standardized_k4(math.nan, 1.0), "scale must be positive"),
    (lambda: exact_distribution(generate(Complete(4)), 1, MonoEdges()), "at least 2 colors"),
], ids=["zero-scale", "nan-scale", "inf-scale", "nan-center", "one-color"])
def test_input_checks_raise_typed_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()
