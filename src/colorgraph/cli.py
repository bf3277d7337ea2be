"""Batch command-line interface.

Graphs are passed either as an edge-list file (header ``n m``, then one
``u v`` line per edge) or as a family spec string such as ``complete:23``,
``er:100:0.05:7``, or ``gadget:30:30:3``. Every run that writes an output
file also writes ``<out>.manifest.json`` beside it with every option the
command parsed, the library version, and the wall time.

Exit codes: 0 ok, 1 failed comparison, 2 usage error or a path that cannot
be read or written, 3 enumeration or size gate exceeded or an allocation the
host cannot make, 4 numerical failure.

Each command loads only the modules it runs: the package's modules, numpy,
``dataclasses`` and ``fractions`` are ``errors.lazy`` handles. ``--version``
and ``birthday`` run none of numpy, ``dataclasses`` or ``fractions``.
``limit --growing-ratio``, ``limit`` on a complete or complete bipartite
family, and a TV ``compare`` against a Poisson law or a ``PoissonMixing``
mixture run without numpy; an ``EmpiricalMixing`` mixture's pmf takes ``np.mean``.
"""
from __future__ import annotations

import functools
import json
import math
import sys
import time
from pathlib import Path

import click

from . import __version__
from .errors import (
    FAMILY_GRAMMAR,
    AmbiguousRegimeError,
    ColorGraphError,
    ConvergenceFailureError,
    DomainExceededError,
    GateExceededError,
    GenerationTimeoutError,
    lazy,
)

np, census, colorsim = lazy("numpy"), lazy("colorgraph.census"), lazy("colorgraph.colorsim")
extremal, graph, limits = lazy("colorgraph.extremal"), lazy("colorgraph.graph"), lazy("colorgraph.limits")
moments, spectral, stats = lazy("colorgraph.moments"), lazy("colorgraph.spectral"), lazy("colorgraph.stats")
dataclasses, fractions = lazy("dataclasses"), lazy("fractions")

EXIT_USAGE = 2
EXIT_GATE = 3
EXIT_NUMERICAL = 4

_NUMERICAL_ERRORS = (ConvergenceFailureError, GenerationTimeoutError, DomainExceededError, AmbiguousRegimeError)


def _load_graph(source: str, keep_family: bool = False) -> graph.Graph | graph.FamilySpec:
    """The graph in the edge-list file ``source``, else the family spec's graph.

    With ``keep_family`` a family spec is returned without generating it. A
    subcritical Galton-Watson spec gets a warning on stderr either way.
    """
    path = Path(source)
    if path.exists():
        return graph.parse_edge_list_text(path.read_text())
    spec = graph.parse_family(source)
    if isinstance(spec, graph.GaltonWatson) and (mean := sum(k * p for k, p in enumerate(spec.offspring))) <= 1.0:
        click.echo(
            f"warning: offspring mean {mean:.4g} <= 1; "
            "the tree stays small with high probability",
            err=True,
        )
    return spec if keep_family else graph.generate(spec)


def _jsonable(obj):
    """JSON form of the values ``json`` cannot encode: a Fraction as "p/q", a dataclass as its fields."""
    if isinstance(obj, fractions.Fraction):
        return str(obj)
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _json_doc(kind: str, payload: dict) -> str:
    return json.dumps({"schema": f"colorgraph.{kind}/1", **payload}, indent=2, default=_jsonable)


graph_option = click.option(
    "--graph", "graph_source", required=True, metavar="FILE|FAMILY",
    help=f"Edge-list file or family spec ({FAMILY_GRAMMAR}).",
)


@click.group()
@click.version_option(version=__version__, prog_name="colorgraph")
def main():
    """Monochromatic-subgraph statistics of uniform random colorings."""


def _command(name: str):
    """Register the decorated function as the subcommand ``name``.

    The function returns its ``text``, or ``(text, learned)``, or ``(text,
    learned, exit_code)``. The command adds ``--out``, maps library errors
    onto the documented exit codes (an OSError is a usage error), and writes
    ``text`` to stdout, or to ``--out`` with ``<out>.manifest.json`` beside
    it, before it exits with ``exit_code``. The manifest's ``config`` holds
    every option but ``--out``, in declaration order and by long name
    (``--growing-ratio`` as ``growing_ratio``), then what the run
    ``learned``: ``simulate``'s kernel, ``compare``'s resolved metric.
    """

    def register(fn):
        @functools.wraps(fn)
        def run(out, **kwargs):
            started = time.time()
            try:
                result = fn(**kwargs)
                text, learned, *exit_code = (result, {}) if isinstance(result, str) else result
                if out is None:
                    click.echo(text, nl=not text.endswith("\n"))
                else:
                    path = Path(out)
                    path.write_text(text if text.endswith("\n") else text + "\n")
                    config = {p.opts[0][2:].replace("-", "_"): kwargs[p.name] for p in cmd.params if p.name != "out"}
                    manifest = {
                        "schema": "colorgraph.manifest/1",
                        "command": name,
                        "config": {**config, **learned},
                        "version": __version__,
                        "wall_time_seconds": round(time.time() - started, 6),
                        "outputs": [str(path)],
                    }
                    Path(str(path) + ".manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
            except GateExceededError as exc:
                click.echo(f"gate exceeded: {exc}", err=True)
                sys.exit(EXIT_GATE)
            except MemoryError as exc:  # an allocation the host cannot make is a size limit, not a failed comparison
                click.echo(f"out of memory: {exc}", err=True)
                sys.exit(EXIT_GATE)
            except _NUMERICAL_ERRORS as exc:
                click.echo(f"numerical failure: {exc}", err=True)
                sys.exit(EXIT_NUMERICAL)
            except (ColorGraphError, ValueError, OSError) as exc:
                raise click.UsageError(str(exc)) from exc
            if exit_code and exit_code[0]:
                sys.exit(exit_code[0])

        cmd = main.command(name)(run)
        cmd.params.append(click.Option(["--out"], default=None, metavar="PATH",
                                       help="Output file; manifest written beside it."))
        return cmd

    return register


# -- generate -----------------------------------------------------------------


@_command("generate")
@click.option("--family", default=None, metavar="FAMILY", help="Family spec string.")
@click.option("--kernel-csv", default=None, metavar="PATH",
              help="CSV grid of edge probabilities for an inhomogeneous graph (alternative to --family).")
@click.option("--seed", default=None, type=int, help="Seed for --kernel-csv mode.")
def generate_cmd(family, kernel_csv, seed):
    """Generate a graph and emit its edge list."""
    if (family is None) == (kernel_csv is None):
        raise click.UsageError("pass exactly one of --family or --kernel-csv")
    if kernel_csv is not None:
        if seed is None:
            raise click.UsageError("--kernel-csv requires --seed")
        grid = np.loadtxt(Path(kernel_csv).read_text().splitlines(), delimiter=",", ndmin=2)
        g = graph.generate(graph.Inhomogeneous(grid.shape[0], tuple(map(tuple, grid.tolist())), seed))
    else:
        g = _load_graph(family)
    return graph.to_edge_list_text(g)


# -- census --------------------------------------------------------------------


@_command("census")
@graph_option
@click.option("--tuples", "k", default=2, show_default=True, type=int,
              help="Ordered edge-tuple length to classify.")
@click.option("--cycles/--no-cycles", default=False, help="Include cycle counts for g = 3..8.")
def census_cmd(graph_source, k, cycles):
    """Classify ordered edge tuples by multigraph class; optionally count cycles."""
    g = _load_graph(graph_source)
    table = census.count_multigraph_tuples(g, k)
    patterns = {
        pat.key_string(): {"count": cnt, "description": pat.describe()}
        for pat, cnt in sorted(table.items(), key=lambda kv: kv[0].canonical_key)
    }
    payload = {"n": g.n, "m": g.m, "tuple_length": k, "patterns": patterns}
    if cycles:
        payload["cycles"] = {str(length): count for length, count in census.cycle_counts(g).items()}
    return _json_doc("census", payload)


# -- extremal --------------------------------------------------------------------


@_command("extremal")
@graph_option
def extremal_cmd(graph_source):
    """Fractional stable number, deficiency, and structure flags."""
    g = _load_graph(graph_source)
    sol = extremal.gamma(g)
    report = extremal.structural_check(sol, g)
    v0, vhalf, v1 = sol.partition
    payload = {
        "gamma": sol.gamma,
        "delta": int(2 * sol.gamma) - g.n,  # gamma = (n + delta) / 2
        "phi": sol.phi,
        "partition_sizes": {"zero": len(v0), "half": len(vhalf), "one": len(v1)},
        "structure": report,
    }
    return _json_doc("extremal", payload)


# -- spectrum --------------------------------------------------------------------


@_command("spectrum")
@graph_option
def spectrum_cmd(graph_source):
    """Adjacency eigenvalues as CSV, descending, plus the spectral ratio."""
    g = _load_graph(graph_source)
    spec = spectral.eigenvalues(g)
    lines = ["index,eigenvalue"]
    lines.extend(f"{i},{v!r}" for i, v in enumerate(spec.eigenvalues.tolist()))
    lines.append(f"# usn_ratio,{spec.usn_ratio!r}")
    return "\n".join(lines) + "\n"


# -- simulate / exact -------------------------------------------------------------


_STAT_HELP = "edges | stars:r | cycles:g"


def _parse_stat(text: str) -> colorsim.Statistic:
    statistics = {"edges": colorsim.MonoEdges, "stars": colorsim.MonoStars, "cycles": colorsim.MonoCycles}
    return graph.read_spec(text, statistics, "statistic", _STAT_HELP)


stat_option = click.option("--stat", default="edges", show_default=True,
                           help=f"Statistic: {_STAT_HELP}.")


@_command("simulate")
@graph_option
@click.option("--colors", required=True, type=int, help="Number of colors c.")
@stat_option
@click.option("--samples", required=True, type=int, help="Number of colorings to draw.")
@click.option("--seed", required=True, type=int, help="Base seed; results are a pure function of it.")
@click.option("--workers", default=1, show_default=True, type=click.IntRange(min=1),
              help="Process parallelism bound. Never affects results.")
def simulate_cmd(graph_source, colors, stat, samples, seed, workers):
    """Monte Carlo of a monochromatic statistic; CSV of value,count."""
    g = _load_graph(graph_source)
    run = colorsim.simulate(g, colors, _parse_stat(stat), samples, seed, workers=workers)
    lines = ["value,count"]
    lines.extend(f"{v},{cnt}" for v, cnt in sorted(run.counts_by_value().items()))
    return "\n".join(lines) + "\n", {"kernel": run.kernel}


@_command("exact")
@graph_option
@click.option("--colors", required=True, type=int, help="Number of colors c.")
@stat_option
def exact_cmd(graph_source, colors, stat):
    """Exact law by full enumeration; CSV of value,probability (p/q)."""
    g = _load_graph(graph_source)
    pmf = colorsim.exact_distribution(g, colors, _parse_stat(stat))
    lines = ["value,probability"]
    lines.extend(f"{v},{p.numerator}/{p.denominator}" for v, p in pmf.items())
    return "\n".join(lines) + "\n"


# -- moments -----------------------------------------------------------------------

# the values of moments.MomentKind, spelled out so that the CLI loads without numpy
_MOMENT_KINDS = ("rawn", "rawm", "centralz", "centralw")


@_command("moments")
@graph_option
@click.option("--colors", required=True, type=int)
@click.option("--kind", type=click.Choice(_MOMENT_KINDS), default="rawn", show_default=True)
@click.option("--order", default=2, show_default=True, type=int)
@click.option("--fourth-report/--no-fourth-report", default=False,
              help="Also emit the exact fourth-moment decomposition.")
def moments_cmd(graph_source, colors, kind, order, fourth_report):
    """Exact conditional moments as p/q strings."""
    g = _load_graph(graph_source)
    req = moments.MomentRequest(moments.MomentKind(kind), order, colors)
    val = moments.conditional_moment(g, req)
    payload = {"kind": kind, "order": order, "colors": colors, **_jsonable(val)}
    if fourth_report:
        payload["fourth_moment"] = moments.fourth_moment_report(g, colors)
    return _json_doc("moments", payload)


# -- limit --------------------------------------------------------------------------


@_command("limit")
@click.option("--graph", "graph_source", default=None, metavar="FILE|FAMILY",
              help="Concrete graph or family spec for the fixed-color regime.")
@click.option("--colors", default=None, type=int, help="Fixed color count c.")
@click.option("--growing-ratio", default=None, type=float,
              help="Growing-color regime: the limit of m/c (inf allowed).")
@click.option("--sample", default=None, type=int, help="Emit this many samples of the law as CSV.")
@click.option("--seed", default=None, type=int, help="Seed for --sample.")
def limit_cmd(graph_source, colors, growing_ratio, sample, seed):
    """Select the limit law for a host and regime; print it or sample it."""
    if (colors is None) == (growing_ratio is None):
        raise click.UsageError("pass exactly one of --colors (fixed) or --growing-ratio")
    if growing_ratio is not None and graph_source is not None:
        raise click.UsageError("--growing-ratio is the limit of m/c itself and takes no --graph")
    if colors is not None and graph_source is None:
        raise click.UsageError("the fixed-color regime needs --graph")
    if sample is not None and seed is None:
        raise click.UsageError("--sample requires --seed")
    if growing_ratio is not None:
        law = limits.limit_for(None, limits.Growing(growing_ratio))
    else:
        law = limits.limit_for(_load_graph(graph_source, keep_family=True), limits.Fixed(colors))
    if sample is None:
        return _json_doc("law", limits.law_to_dict(law))
    values = limits.sample_law(law, sample, seed)
    return "value\n" + "\n".join(repr(float(v)) for v in values) + "\n"


# -- compare -----------------------------------------------------------------------


@_command("compare")
@click.option("--empirical", required=True, metavar="CSV",
              help="CSV from simulate/exact (value,count or value,p/q) or one value per line.")
@click.option("--law", "law_path", required=True, metavar="JSON", help="Law document from `limit`.")
@click.option("--metric", type=click.Choice(["tv", "ks"]), default=None,
              help="Default: tv for discrete laws, ks otherwise.")
@click.option("--tol", required=True, type=float, help="Pass/fail threshold.")
@click.option("--center", default=0.0, show_default=True, type=float,
              help="Subtract before a ks comparison.")
@click.option("--scale", default=1.0, show_default=True, type=float,
              help="Divide by before a ks comparison.")
def compare_cmd(empirical, law_path, metric, tol, center, scale):
    """Compare an empirical distribution against a law; exit 1 on failure."""
    for name, value in (("--tol", tol), ("--center", center), ("--scale", scale)):
        if not math.isfinite(value):
            raise click.UsageError(f"{name} must be a finite number, got {value}")
    if scale <= 0:
        raise click.UsageError(f"--scale must be positive, got {scale}")
    law = limits.law_from_dict(json.loads(Path(law_path).read_text()))
    rows = [ln.strip() for ln in Path(empirical).read_text().splitlines()]
    rows = [r for r in rows if r and not r.startswith("#")]
    if rows and rows[0][0].isalpha():  # a header is only ever the first row, and never a float such as nan
        try:
            float(rows[0].split(",")[0])
        except ValueError:
            rows = rows[1:]
    values, weights = [], []
    try:
        for r in rows:
            parts = r.split(",")
            values.append(float(fractions.Fraction(parts[0])))
            weights.append(float(fractions.Fraction(parts[1])) if len(parts) > 1 else 1.0)
    except OverflowError:
        raise click.UsageError(f"--empirical row {r!r} holds a number outside the float range") from None
    except ZeroDivisionError:
        raise click.UsageError(f"--empirical row {r!r} divides by zero") from None
    except ValueError:
        raise click.UsageError(f"--empirical row {r!r} holds a field that is not a number") from None
    if not values:
        raise click.UsageError(f"--empirical {empirical} has no value rows")
    if metric is None:
        metric = "tv" if isinstance(law, limits.DiscreteLaw) else "ks"
    if metric == "tv":
        emp = stats.empirical_pmf(values, weights)
        # the table stops where law_cdf stops its sum: past it every term is 0.0
        ref = {float(k): p for k, p in enumerate(limits.law_pmf_terms(law, int(max(emp)) + 79))}
        # emp has no mass past the summed range, so the law's mass there counts in full
        beyond = max(0.0, 1.0 - sum(ref.values()))
        value = stats.tv_distance(emp, ref) + 0.5 * beyond
    else:
        standardized = (np.asarray(values) - center) / scale
        value = stats.ks_statistic(standardized, lambda x: limits.law_cdf(law, x), weights=weights)
    passed = value < tol
    return (_json_doc("compare", {"metric": metric, "value": value, "tol": tol, "pass": passed}),
            {"metric": metric}, 0 if passed else 1)


# -- birthday -----------------------------------------------------------------------


@_command("birthday")
@click.option("--people", default=None, type=click.IntRange(min=0),
              help="Group size n for the classic question.")
@click.option("--days", default=365, show_default=True, type=click.IntRange(min=1),
              help="Number of equally likely days.")
@click.option("--lambda-from", "lambda_from", is_flag=True,
              help="Compute the collision rate lambda = edges / days^power instead.")
@click.option("--edges", default=None, type=float, help="Pair count for --lambda-from.")
@click.option("--days-power", default=None, metavar="BASE:K",
              help="Color count as BASE**K for --lambda-from.")
def birthday_cmd(people, days, lambda_from, edges, days_power):
    """Exact no-collision probability and its Poisson approximation."""
    if lambda_from:
        if edges is None or days_power is None:
            raise click.UsageError("--lambda-from needs --edges and --days-power BASE:K")
        if not 0 <= edges < math.inf:
            raise click.UsageError(f"--edges must be a finite nonnegative count, got {edges}")
        try:
            base, power = days_power.split(":")
            c = float(base) ** int(power)
        except ValueError:
            raise click.UsageError(f"--days-power must be BASE:K, a number and an integer, got {days_power}") from None
        except OverflowError:
            raise DomainExceededError(f"{base}**{power} overflows a double") from None
        except ZeroDivisionError:
            raise click.UsageError(f"--days-power {days_power} divides by zero") from None
        if not math.isfinite(float(base)):
            raise click.UsageError(f"--days-power base must be a finite number, got {base}")
        if not c >= 1.0:
            raise click.UsageError(f"--days-power {days_power} gives {c!r} days; need at least 1")
        lam = edges / c
        payload = {
            "colors": c,
            "lambda": lam,
            "match_prob": 1.0 - math.exp(-lam),
            "no_match_prob": math.exp(-lam),
        }
    else:
        if people is None:
            raise click.UsageError("pass --people N (or --lambda-from)")
        exact, i = float(people <= days + 1), 0  # prod (1 - i/days) over i < people, rounded step by step
        while i < people and exact:
            step = exact * (1.0 - i / days)
            if step == exact:  # the factors only shrink, so steps that change nothing form a run: bisect its end
                i, hi = i + 1, people
                while i < hi:
                    mid = (i + hi) // 2
                    i, hi = (mid + 1, hi) if exact * (1.0 - mid / days) == exact else (i, mid)
            else:
                exact, i = step, i + 1
        pairs = people * (people - 1) // 2
        payload = {
            "people": people,
            "days": days,
            "exact_no_match": exact,
            "poisson_approx_no_match": math.exp(-pairs / days),
            "match_prob": 1.0 - exact,
        }
    return _json_doc("birthday", payload)


if __name__ == "__main__":
    main()
