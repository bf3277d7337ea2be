"""The benchmark's workloads: their hosts, their operations and the checks on each output.

Every op is a function of (hosts, op seed); its check recomputes the
expected output with ``reference`` and returns a list of failures. Sample
counts are sized so that each op of a workload costs about the same at the
commit that defined the benchmark, which keeps the median and the tail of
op latency inside one cluster instead of on the edge between two.
"""
from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import reference as R
from colorgraph import colorsim, graph, limits, stats

HOSTS = {
    "dense-chisq": {"K200": "complete:200", "K100,100": "bipartite:100:100"},
    "regime-sweep": {
        "K60": "complete:60",
        "R2000": "regular:2000:3:5",
        "gadget": "gadget:30:30:3",
        "ER300": "er:300:0.1:7",
    },
    "readme-cli": {},
}


def build_hosts(workload: str) -> dict:
    return {key: graph.generate(graph.parse_family(spec)) for key, spec in HOSTS[workload].items()}


def op_seed(seed: int, pass_index: int, op_index: int) -> int:
    text = f"{seed}:{pass_index}:{op_index}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:6], "little")


@dataclass(frozen=True)
class Op:
    name: str
    colorings: int
    run: Callable
    check: Callable


# -- shared checks --------------------------------------------------------------


def _expect_counts(errs: list, label: str, got, expected) -> str:
    got = np.asarray(got)
    if got.shape != expected.shape or not np.array_equal(got, expected):
        errs.append(f"{label}: simulated counts differ from the reference "
                    f"(digest {R.digest(got)} != {R.digest(expected)})")
    return R.digest(expected)


def _expect_close(errs: list, label: str, got, expected, tol: float) -> None:
    got, expected = np.asarray(got, np.float64), np.asarray(expected, np.float64)
    if got.shape != expected.shape or not np.all(np.abs(got - expected) <= tol):
        gap = float(np.max(np.abs(got - expected))) if got.shape == expected.shape else math.inf
        errs.append(f"{label}: off by {gap:.3g} > {tol:g}")


def _expect_pmf(errs: list, label: str, ref: dict, closed: Callable[[int], float], tol: float) -> None:
    keys = sorted(ref)
    _expect_close(errs, label, [ref[k] for k in keys], [closed(k) for k in keys], tol)


def _record(host: str, c: int, stat: str, seed: int, samples: int, digest: str) -> dict:
    return {"host": host, "c": c, "stat": stat, "seed": seed, "samples": samples, "digest": digest}


# -- dense-chisq ----------------------------------------------------------------------

# reference draws per simulated coloring, as in acceptance criterion 9
DENSE_REF_FACTOR = 10


def _dense_op(key: str, c: int, samples: int, law: limits.WeightedChiSquare,
              closed_cdf: Callable[[float], float], expected_counts: Callable) -> Op:
    def run(hosts, seed):
        g = hosts[key]
        sim = colorsim.simulate(g, c, colorsim.MonoEdges(), samples, seed, workers=1)
        z = sim.standardized(g.m / c, 200.0)
        ref = limits.sample_law(law, DENSE_REF_FACTOR * samples, seed + 1)
        return {"counts": sim.counts, "z": z, "ref": ref, "ks": stats.two_sample_ks(z, ref)}

    def check(hosts, out, seed):
        g = hosts[key]
        errs: list = []
        expected = expected_counts(seed)
        digest = _expect_counts(errs, key, out["counts"], expected)
        z = (expected - g.m / c) / 200.0
        _expect_close(errs, "standardized counts", out["z"], z, 1e-12)
        law_ks = R.ks_one_sample(out["ref"], closed_cdf)
        if law_ks > R.dkw_bound(out["ref"].size):
            errs.append(f"sample_law draws sit {law_ks:.4f} from the closed-form cdf "
                        f"(bound {R.dkw_bound(out['ref'].size):.4f})")
        _expect_close(errs, "two_sample_ks", out["ks"], R.ks_two_sample(z, out["ref"]), 1e-12)
        return errs, _record(HOSTS["dense-chisq"][key], c, "edges", seed, samples, digest)

    return Op(f"{key} c={c}", samples, run, check)


def dense_ops() -> list[Op]:
    # K200, c=2: 0.25 (chi2_1 - 1). K100,100, c=3: (1/12)(chi2_2 - chi2_2') is Laplace(0, 1/6).
    return [
        _dense_op("K200", 2, 2000, limits.WeightedChiSquare((1.0,), 1, 0.25),
                  lambda x: R.scaled_chisq1_cdf(x, 0.25),
                  lambda seed: R.counts_complete(seed, 200, 2, 2000)),
        _dense_op("K100,100", 3, 5000,
                  limits.WeightedChiSquare((1 / math.sqrt(2), -1 / math.sqrt(2)), 2, math.sqrt(2) / 12),
                  lambda x: R.laplace_cdf(x, 1.0 / 6.0),
                  lambda seed: R.counts_bipartite(seed, 100, 100, 3, 5000)),
    ]


# -- regime-sweep ---------------------------------------------------------------------


def _edge_array(g) -> np.ndarray:
    return np.asarray(g.edges, dtype=np.int64).reshape(-1, 2)


def _pmf_table(law, pmf: dict) -> dict:
    return {k: limits.law_pmf(law, k) for k in range(int(max(pmf)) + 80)}


def _poisson_op() -> Op:
    key, c, samples = "K60", 1770, 35000

    def run(hosts, seed):
        g = hosts[key]
        sim = colorsim.simulate(g, c, colorsim.MonoEdges(), samples, seed, workers=1)
        pmf = sim.pmf()
        ref = _pmf_table(limits.Poisson(g.m / c), pmf)
        return {"counts": sim.counts, "ref": ref, "tv": stats.tv_distance(pmf, ref)}

    def check(hosts, out, seed):
        g = hosts[key]
        errs: list = []
        expected = R.counts_complete(seed, g.n, c, samples)
        digest = _expect_counts(errs, key, out["counts"], expected)
        lam = g.m / c
        _expect_pmf(errs, "Poisson law_pmf", out["ref"], lambda k: R.poisson_pmf(lam, k), 1e-14)
        own_ref = {k: R.poisson_pmf(lam, k) for k in out["ref"]}
        _expect_close(errs, "tv_distance", out["tv"], R.tv(R.empirical_pmf(expected), own_ref), 1e-12)
        return errs, _record("complete:60", c, "edges", seed, samples, digest)

    return Op("K60 c=1770 Poisson", samples, run, check)


def _normal_op() -> Op:
    key, c, samples = "R2000", 2, 8000

    def run(hosts, seed):
        g = hosts[key]
        sim = colorsim.simulate(g, c, colorsim.MonoEdges(), samples, seed, workers=1)
        mu = g.m / c
        z = sim.standardized(mu, math.sqrt(mu))
        law = limits.Normal(0.0, 1.0 - 1.0 / c)
        return {"counts": sim.counts, "ks": stats.ks_statistic(z, lambda x: limits.law_cdf(law, x))}

    def check(hosts, out, seed):
        g = hosts[key]
        errs: list = []
        expected = R.counts_edges(seed, g.n, _edge_array(g), c, samples)
        digest = _expect_counts(errs, key, out["counts"], expected)
        mu = g.m / c
        z = (expected - mu) / math.sqrt(mu)
        own = R.ks_one_sample(z, lambda x: R.normal_cdf(x, 1.0 - 1.0 / c))
        _expect_close(errs, "ks_statistic against Normal", out["ks"], own, 1e-12)
        return errs, _record("regular:2000:3:5", c, "edges", seed, samples, digest)

    return Op("R2000 c=2 Normal", samples, run, check)


def _mixture_op() -> Op:
    key, c, samples = "gadget", 30, 20000
    triangles: dict = {}

    def run(hosts, seed):
        g = hosts[key]
        sim = colorsim.simulate(g, c, colorsim.MonoCycles(3), samples, seed, workers=1)
        pmf = sim.pmf()
        ref = _pmf_table(limits.PoissonMixture(limits.PoissonMixing(1.0)), pmf)
        return {"counts": sim.counts, "ref": ref, "tv": stats.tv_distance(pmf, ref)}

    def check(hosts, out, seed):
        g = hosts[key]
        errs: list = []
        if "tri" not in triangles:
            triangles["tri"] = R.triangles(g.n, _edge_array(g))
        expected = R.counts_cycles(seed, g.n, triangles["tri"], c, samples)
        digest = _expect_counts(errs, key, out["counts"], expected)
        _expect_pmf(errs, "Poisson-mixture law_pmf", out["ref"],
                    lambda k: R.poisson_poisson_pmf(1.0, k), 1e-10)
        own_ref = {k: R.poisson_poisson_pmf(1.0, k) for k in out["ref"]}
        _expect_close(errs, "tv_distance", out["tv"], R.tv(R.empirical_pmf(expected), own_ref), 1e-9)
        return errs, _record("gadget:30:30:3", c, "cycles:3", seed, samples, digest)

    return Op("gadget c=30 cycles:3 mixture", samples, run, check)


def _moments_op() -> Op:
    key, c, samples, order = "ER300", 10, 5000, 4

    def run(hosts, seed):
        g = hosts[key]
        sim = colorsim.simulate(g, c, colorsim.MonoStars(2), samples, seed, workers=1)
        return {"counts": sim.counts, "moments": stats.empirical_moments(sim.counts, order)}

    def check(hosts, out, seed):
        g = hosts[key]
        errs: list = []
        expected = R.counts_stars(seed, g.n, _edge_array(g), c, 2, samples)
        digest = _expect_counts(errs, key, out["counts"], expected)
        x = expected.astype(np.float64)
        raw = [float(np.mean(x**k)) for k in range(1, order + 1)]
        central = [float(np.mean((x - x.mean()) ** k)) for k in range(1, order + 1)]
        em = out["moments"]
        for label, got, want in (("raw", em.raw, raw), ("central", em.central, central)):
            scale = np.maximum(np.abs(want), 1.0)
            _expect_close(errs, f"{label} moments (relative)", np.asarray(got) / scale,
                          np.asarray(want) / scale, 1e-9)
        exact_mean = sum(math.comb(d, 2) for d in g.degrees) / c**2
        if abs(em.raw[0] - exact_mean) > 6 * em.raw_se[0]:
            errs.append(f"mean {em.raw[0]:.4f} is more than 6 jackknife SE "
                        f"({em.raw_se[0]:.4f}) from E = {exact_mean:.4f}")
        return errs, _record("er:300:0.1:7", c, "stars:2", seed, samples, digest)

    return Op("ER300 c=10 stars:2 moments", samples, run, check)


def regime_ops() -> list[Op]:
    return [_poisson_op(), _normal_op(), _mixture_op(), _moments_op()]


# -- readme-cli -----------------------------------------------------------------------
# Each command of the README in README order, then simulate, limit and a KS
# compare on complete:40. Graph seeds stay as the README prints them (the
# cycle census of a random graph costs a different amount on each graph);
# the simulation seeds come from the workload seed.

K40_CENTER = 780 / 2
K40_SCALE = math.sqrt(2 * 780)


@dataclass(frozen=True)
class Command:
    name: str
    args: list
    colorings: int
    check: Callable  # (workdir, stdout, exit code) -> list of failures


def _json(stdout: str) -> dict:
    return json.loads(stdout)


def _csv_rows(text: str) -> list[list[str]]:
    rows = [ln.strip() for ln in text.splitlines()]
    return [r.split(",") for r in rows[1:] if r and not r.startswith("#")]


def _histogram(path: Path) -> dict[int, int]:
    return {int(v): int(n) for v, n in _csv_rows(path.read_text())}


def _expect(errs: list, label: str, ok: bool, detail: str = "") -> None:
    if not ok:
        errs.append(f"{label} {detail}".strip())


def _expect_exit(errs: list, code: int, wanted: int = 0) -> None:
    _expect(errs, "exit code", code == wanted, f"{code} != {wanted}")


def _manifest(errs: list, workdir: Path, out: str) -> None:
    path = workdir / f"{out}.manifest.json"
    try:
        ok = isinstance(json.loads(path.read_text()), dict)
    except (OSError, ValueError):
        ok = False
    _expect(errs, f"manifest beside {out}", ok)


@functools.lru_cache(maxsize=None)
def _er100_edges() -> list[tuple[int, int]]:
    return R.er_edges(100, 0.05, 7)


@functools.lru_cache(maxsize=None)
def _er100_cycles() -> dict[int, int]:
    return R.cycle_counts(100, _er100_edges(), range(3, 9))


def _check_generate(workdir, stdout, code):
    errs: list = []
    _expect_exit(errs, code)
    rows = (workdir / "g.edges").read_text().split("\n")
    edges = _er100_edges()
    _expect(errs, "header", rows[0].split() == ["100", str(len(edges))], rows[0])
    got = [tuple(int(x) for x in r.split()) for r in rows[1:] if r.strip()]
    _expect(errs, "edge list", got == edges, "differs from the package's ER(100, 0.05, 7)")
    _manifest(errs, workdir, "g.edges")
    return errs


def _check_census(workdir, stdout, code):
    errs: list = []
    _expect_exit(errs, code)
    doc = _json(stdout)
    edges = _er100_edges()
    counts = sorted(p["count"] for p in doc["patterns"].values())
    _expect(errs, "tuple census", counts == R.tuple_census_counts(100, edges, 2), str(counts))
    got = {int(k): v for k, v in doc["cycles"].items()}
    _expect(errs, "cycle counts", got == _er100_cycles(), f"{got} != {_er100_cycles()}")
    return errs


def _check_extremal(workdir, stdout, code):
    errs: list = []
    _expect_exit(errs, code)
    doc = _json(stdout)
    star = [(0, i) for i in range(1, 5)]
    gamma = R.half_integral_optimum(5, star)
    _expect(errs, "gamma", Fraction(doc["gamma"]) == gamma, f"{doc['gamma']} != {gamma}")
    _expect(errs, "delta", doc["delta"] == R.deficiency(5, star), str(doc["delta"]))
    phi = [Fraction(p) for p in doc["phi"]]
    feasible = all(phi[u] + phi[v] <= 1 for u, v in star) and sum(phi) == gamma
    _expect(errs, "phi", feasible, "is not an optimal feasible point")
    return errs


def _check_spectrum(workdir, stdout, code):
    errs: list = []
    _expect_exit(errs, code)
    values = [float(v) for _, v in _csv_rows(stdout)]
    # K_{3,3}: +-sqrt(3 * 3) and four zeros
    _expect_close(errs, "K3,3 spectrum", values, [3.0, 0, 0, 0, 0, -3.0], 1e-9)
    ratio = [ln for ln in stdout.splitlines() if ln.startswith("# usn_ratio")]
    _expect(errs, "usn_ratio line", len(ratio) == 1)
    if ratio:
        _expect_close(errs, "usn_ratio", float(ratio[0].split(",")[1]), 3.0 / math.sqrt(18.0), 1e-12)
    return errs


def _check_simulate(out: str, n: int, c: int, samples: int, seed: int):
    def check(workdir, stdout, code):
        errs: list = []
        _expect_exit(errs, code)
        expected = R.counts_complete(seed, n, c, samples)
        values, freq = np.unique(expected, return_counts=True)
        want = {int(v): int(f) for v, f in zip(values, freq)}
        _expect(errs, f"{out} histogram", _histogram(workdir / out) == want,
                f"differs from the reference (digest {R.digest(expected)})")
        _manifest(errs, workdir, out)
        return errs

    return check


def _check_exact(workdir, stdout, code):
    errs: list = []
    _expect_exit(errs, code)
    got = {int(v): Fraction(p) for v, p in _csv_rows(stdout)}
    want = R.exact_edge_law(3, [(0, 1), (0, 2), (1, 2)], 2)
    _expect(errs, "exact law", got == want, f"{got} != {want}")
    return errs


def _check_moments(workdir, stdout, code):
    errs: list = []
    _expect_exit(errs, code)
    doc = _json(stdout)
    c4 = [(0, 1), (1, 2), (2, 3), (0, 3)]
    exact = R.central_z_moment(4, c4, 2, 4)
    leading = 3 * (1 - Fraction(1, 2)) ** 2
    c4_term = Fraction(1, 2) * (1 - Fraction(1, 2)) * Fraction(R.cycle_counts(4, c4, [4])[4], 16)
    fourth = doc["fourth_moment"]
    for label, got, want in (("value", doc["value"], exact), ("exact", fourth["exact"], exact),
                             ("leading", fourth["leading"], leading),
                             ("c4_term", fourth["c4_term"], c4_term),
                             ("remainder", fourth["remainder"], exact - leading - c4_term)):
        _expect(errs, f"moment {label}", Fraction(got) == want, f"{got} != {want}")
    return errs


def _check_law(expected: dict, out: str | None = None):
    def check(workdir, stdout, code):
        errs: list = []
        _expect_exit(errs, code)
        doc = _json((workdir / out).read_text() if out else stdout)
        for key, want in expected.items():
            _expect(errs, f"law {key}", doc.get(key) == want, f"{doc.get(key)!r} != {want!r}")
        if out:
            _manifest(errs, workdir, out)
        return errs

    return check


def _check_compare_tv(workdir, stdout, code):
    errs: list = []
    hist = _histogram(workdir / "sim.csv")
    total = sum(hist.values())
    emp = {v: f / total for v, f in hist.items()}
    ref = {k: R.poisson_pmf(1.0, k) for k in range(max(emp) + 80)}
    own = R.tv(emp, ref)
    doc = _json(stdout)
    _expect_close(errs, "compare tv value", doc["value"], own, 1e-9)
    _expect(errs, "compare verdict", doc["pass"] == (own < 0.02))
    _expect_exit(errs, code, 0 if own < 0.02 else 1)
    return errs


def _check_compare_ks(workdir, stdout, code):
    errs: list = []
    hist = _histogram(workdir / "sim40.csv")
    values = np.repeat(np.array(list(hist), dtype=np.float64), list(hist.values()))
    own = R.ks_one_sample((values - K40_CENTER) / K40_SCALE, lambda x: R.scaled_chisq1_cdf(x, 0.25))
    doc = _json(stdout)
    # law_cdf may be approximate (today a 1e7-draw quantile table): 2e-3 bounds its error
    _expect_close(errs, "compare ks value", doc["value"], own, 2e-3)
    _expect(errs, "compare verdict", doc["pass"] == (doc["value"] < 0.5))
    _expect_exit(errs, code, 0 if doc["value"] < 0.5 else 1)
    return errs


def _check_birthday(workdir, stdout, code):
    errs: list = []
    _expect_exit(errs, code)
    doc = _json(stdout)
    exact = math.prod(1.0 - i / 365 for i in range(23))
    _expect_close(errs, "exact_no_match", doc["exact_no_match"], exact, 1e-12)
    _expect_close(errs, "poisson_approx", doc["poisson_approx_no_match"], math.exp(-253 / 365), 1e-12)
    _expect_close(errs, "match_prob", doc["match_prob"], 1.0 - exact, 1e-12)
    return errs


def _check_birthday_lambda(workdir, stdout, code):
    errs: list = []
    _expect_exit(errs, code)
    doc = _json(stdout)
    lam = 1.2e11 / 365.0**4
    _expect_close(errs, "lambda", doc["lambda"] / lam, 1.0, 1e-12)
    _expect_close(errs, "no_match_prob", doc["no_match_prob"], math.exp(-lam), 1e-12)
    _expect_close(errs, "match_prob", doc["match_prob"], 1.0 - math.exp(-lam), 1e-12)
    return errs


def readme_commands(seed_a: int, seed_b: int) -> list[Command]:
    wcs = {"kind": "weighted_chi_square", "weights": [1.0], "dof": 1, "scale": 0.25}
    return [
        Command("generate", ["generate", "--family", "er:100:0.05:7", "--out", "g.edges"], 0, _check_generate),
        Command("census", ["census", "--graph", "g.edges", "--tuples", "2", "--cycles"], 0, _check_census),
        Command("extremal", ["extremal", "--graph", "star:4"], 0, _check_extremal),
        Command("spectrum", ["spectrum", "--graph", "bipartite:3:3"], 0, _check_spectrum),
        Command("simulate K60", ["simulate", "--graph", "complete:60", "--colors", "1770", "--stat", "edges",
                                 "--samples", "100000", "--seed", str(seed_a), "--out", "sim.csv"],
                100_000, _check_simulate("sim.csv", 60, 1770, 100_000, seed_a)),
        Command("exact", ["exact", "--graph", "complete:3", "--colors", "2", "--stat", "edges"], 0, _check_exact),
        Command("moments", ["moments", "--graph", "cycle:4", "--colors", "2", "--kind", "centralz",
                            "--order", "4", "--fourth-report"], 0, _check_moments),
        Command("limit regular", ["limit", "--graph", "regular:2000:3:5", "--colors", "2"], 0,
                _check_law({"kind": "normal", "mean": 0.0, "variance": 0.5})),
        Command("limit growing", ["limit", "--growing-ratio", "1.0", "--out", "law.json"], 0,
                _check_law({"kind": "poisson", "mean": 1.0}, "law.json")),
        Command("compare tv", ["compare", "--empirical", "sim.csv", "--law", "law.json", "--metric", "tv",
                               "--tol", "0.02"], 0, _check_compare_tv),
        Command("birthday", ["birthday", "--people", "23", "--days", "365"], 0, _check_birthday),
        Command("birthday lambda", ["birthday", "--lambda-from", "--edges", "1.2e11", "--days-power", "365:4"],
                0, _check_birthday_lambda),
        Command("simulate K40", ["simulate", "--graph", "complete:40", "--colors", "2", "--stat", "edges",
                                 "--samples", "20000", "--seed", str(seed_b), "--out", "sim40.csv"],
                20_000, _check_simulate("sim40.csv", 40, 2, 20_000, seed_b)),
        Command("limit K40", ["limit", "--graph", "complete:40", "--colors", "2", "--out", "law40.json"], 0,
                _check_law(wcs, "law40.json")),
        Command("compare ks", ["compare", "--empirical", "sim40.csv", "--law", "law40.json", "--metric", "ks",
                               "--center", repr(K40_CENTER), "--scale", repr(K40_SCALE), "--tol", "0.5"],
                0, _check_compare_ks),
    ]


def output_bytes(workdir: Path, args: list, stdout: str) -> int:
    """Bytes of a command's primary output: stdout and its --out file, without the manifest."""
    size = len(stdout.encode())
    if "--out" in args:
        path = workdir / args[args.index("--out") + 1]
        size += path.stat().st_size if path.exists() else 0
    return size


OPS = {"dense-chisq": dense_ops, "regime-sweep": regime_ops}
