import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

import colorgraph
from colorgraph import limits, spectral, stats
from colorgraph.cli import main
from colorgraph.graph import ErdosRenyi, generate, to_edge_list_text


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    result = runner.invoke(main, list(args), catch_exceptions=False)
    return result


class TestGenerate:
    def test_stdout_edge_list(self, runner):
        res = invoke(runner, "generate", "--family", "complete:3")
        assert res.exit_code == 0
        assert res.output.splitlines()[0] == "3 3"

    def test_writes_file_and_manifest(self, runner, tmp_path):
        out = tmp_path / "g.edges"
        res = invoke(runner, "generate", "--family", "cycle:5", "--out", str(out))
        assert res.exit_code == 0
        assert out.read_text().splitlines()[0] == "5 5"
        manifest = json.loads((tmp_path / "g.edges.manifest.json").read_text())
        assert manifest["schema"] == "colorgraph.manifest/1"
        assert manifest["command"] == "generate"
        assert "wall_time_seconds" in manifest

    def test_graph_file_round_trip(self, runner, tmp_path):
        out = tmp_path / "g.edges"
        invoke(runner, "generate", "--family", "er:30:0.2:7", "--out", str(out))
        res = invoke(runner, "spectrum", "--graph", str(out))
        assert res.exit_code == 0
        assert res.output.startswith("index,eigenvalue")

    def test_kernel_csv(self, runner, tmp_path):
        grid = tmp_path / "kernel.csv"
        grid.write_text("0,1\n1,0\n")
        res = invoke(runner, "generate", "--kernel-csv", str(grid), "--seed", "3")
        assert res.exit_code == 0
        assert "0 1" in res.output

    def test_generate_needs_one_source(self, runner):
        assert runner.invoke(main, ["generate"]).exit_code == 2

    def test_gw_subcritical_warns(self, runner):
        res = invoke(runner, "generate", "--family", "gw:0.8,0.2:3:1")
        assert res.exit_code == 0
        assert "warning" in res.output  # CliRunner merges stderr by default

    def test_gw_subcritical_limit_warns(self, runner):
        # limit keeps the family spec, and limit_for builds it: the warning comes as the spec is parsed
        res = runner.invoke(main, ["limit", "--graph", "gw:0.8,0.2:3:1", "--colors", "2"])
        assert "warning: offspring mean 0.2 <= 1" in res.output


class TestCensusExtremalSpectrum:
    def test_census_json(self, runner):
        res = invoke(runner, "census", "--graph", "complete:3", "--tuples", "2", "--cycles")
        doc = json.loads(res.output)
        assert doc["schema"] == "colorgraph.census/1"
        counts = {v["description"]: v["count"] for v in doc["patterns"].values()}
        assert counts == {"edge^2": 3, "star2": 6}
        assert doc["cycles"]["3"] == 1

    def test_extremal_json(self, runner):
        res = invoke(runner, "extremal", "--graph", "star:4")
        doc = json.loads(res.output)
        assert doc["gamma"] == "4"
        assert doc["delta"] == 3
        assert doc["structure"]["union_of_stars"] is True

    def test_spectrum_csv(self, runner):
        res = invoke(runner, "spectrum", "--graph", "bipartite:3:3")
        lines = res.output.strip().splitlines()
        assert lines[0] == "index,eigenvalue"
        assert float(lines[1].split(",")[1]) == pytest.approx(3.0)
        assert lines[-1].startswith("# usn_ratio,")


class TestSimulateExactCompare:
    def test_simulate_csv_deterministic(self, runner):
        args = ("simulate", "--graph", "complete:3", "--colors", "2",
                "--stat", "edges", "--samples", "4000", "--seed", "5")
        a = invoke(runner, *args)
        b = invoke(runner, *args)
        assert a.output == b.output
        rows = dict(tuple(r.split(",")) for r in a.output.strip().splitlines()[1:])
        assert set(rows) <= {"1", "3"}

    def test_exact_rational_csv(self, runner):
        res = invoke(runner, "exact", "--graph", "complete:3", "--colors", "2", "--stat", "edges")
        assert res.output.strip().splitlines()[1:] == ["1,3/4", "3,1/4"]

    def test_exact_gate_exit_code(self, runner):
        res = runner.invoke(main, ["exact", "--graph", "complete:30", "--colors", "3"])
        assert res.exit_code == 3

    def test_cycle_listing_gate_exit_code(self, runner, monkeypatch):
        from colorgraph import graph

        monkeypatch.setattr(graph, "_MAX_CYCLE_ENTRIES", 59)  # complete:6 has 20 triangles, 60 entries
        res = runner.invoke(main, ["simulate", "--graph", "complete:6", "--colors", "2",
                                   "--stat", "cycles:3", "--samples", "10", "--seed", "1"])
        assert res.exit_code == 3
        assert "more than 59 entries" in res.output

    def test_usage_error_exit_code(self, runner):
        res = runner.invoke(main, ["simulate", "--graph", "nosuch:1", "--colors", "2",
                                   "--stat", "edges", "--samples", "10", "--seed", "1"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("stat,message", [
        ("Stars:2", None),
        ("CYCLES:4", None),
        ("stars", "bad statistic spec"),
        ("stars:0", "bad statistic spec"),
        ("cycles:x", "bad statistic spec"),
        ("triangles", "unknown statistic"),
    ])
    def test_stat_spec(self, runner, stat, message):
        res = runner.invoke(main, ["exact", "--graph", "complete:4", "--colors", "2", "--stat", stat])
        assert res.exit_code == (0 if message is None else 2)
        assert message is None or message in res.output

    @pytest.mark.parametrize("graph,colors,kernel", [
        ("complete:40", "2", "gemm"),
        ("complete:60", "1770", "sorted"),
        ("cycle:200", "300", "gather"),
    ])
    def test_manifest_records_kernel(self, runner, tmp_path, graph, colors, kernel):
        out = tmp_path / "sim.csv"
        res = invoke(runner, "simulate", "--graph", graph, "--colors", colors,
                     "--samples", "200", "--seed", "1", "--out", str(out))
        assert res.exit_code == 0
        manifest = json.loads((tmp_path / "sim.csv.manifest.json").read_text())
        assert manifest["config"]["kernel"] == kernel

    def test_workers_write_the_same_csv(self, runner, tmp_path):
        # the second worker's block starts past sample 0, so the sieve's pointwise reads sit past its start
        args = ["simulate", "--graph", "gadget:30:30:3", "--colors", "30", "--stat", "cycles:3", "--samples", "500",
                "--seed", "1"]
        for workers in ("1", "2"):
            res = invoke(runner, *args, "--workers", workers, "--out", str(tmp_path / f"w{workers}.csv"))
            assert res.exit_code == 0
            assert json.loads((tmp_path / f"w{workers}.csv.manifest.json").read_text())["config"]["kernel"] == "sieve"
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()

    def test_colors_beyond_two_to_the_53_exit_code(self, runner):
        res = runner.invoke(main, ["simulate", "--graph", "complete:2", "--colors", str(2**60),
                                   "--samples", "10", "--seed", "1"])
        assert res.exit_code == 4

    def test_star_counts_past_int64_exit_code(self, runner):
        # the counts are about 10^21: int64 wrapped them to negative numbers and the command exited 0
        res = runner.invoke(main, ["simulate", "--graph", "complete:600", "--colors", "2", "--stat", "stars:10",
                                   "--samples", "3", "--seed", "1"])
        assert res.exit_code == 4 and "int64" in res.output

    def test_compare_tv_pass_and_fail(self, runner, tmp_path):
        emp = tmp_path / "emp.csv"
        law = tmp_path / "law.json"
        invoke(runner, "simulate", "--graph", "complete:60", "--colors", "1770",
               "--stat", "edges", "--samples", "20000", "--seed", "2", "--out", str(emp))
        invoke(runner, "limit", "--growing-ratio", "1.0", "--out", str(law))
        ok = runner.invoke(main, ["compare", "--empirical", str(emp), "--law", str(law),
                                  "--metric", "tv", "--tol", "0.05"])
        assert ok.exit_code == 0, ok.output
        doc = json.loads(ok.output)
        assert doc["pass"] is True and doc["value"] < 0.05
        bad = runner.invoke(main, ["compare", "--empirical", str(emp), "--law", str(law),
                                   "--metric", "tv", "--tol", "1e-6"])
        assert bad.exit_code == 1

    def test_failed_compare_writes_output_and_manifest_then_exits_1(self, runner, tmp_path):
        emp = tmp_path / "emp.csv"
        law = tmp_path / "law.json"
        out = tmp_path / "cmp.json"
        emp.write_text("value,count\n10,100\n")
        invoke(runner, "limit", "--growing-ratio", "5.0", "--out", str(law))
        res = runner.invoke(main, ["compare", "--empirical", str(emp), "--law", str(law),
                                   "--metric", "tv", "--tol", "0.9", "--out", str(out)])
        assert res.exit_code == 1
        assert json.loads(out.read_text())["pass"] is False
        manifest = json.loads((tmp_path / "cmp.json.manifest.json").read_text())
        assert manifest["command"] == "compare"

    def test_compare_tv_counts_law_mass_below_the_sample(self, runner, tmp_path):
        emp = tmp_path / "emp.csv"
        law = tmp_path / "law.json"
        emp.write_text("value,count\n10,100\n")
        invoke(runner, "limit", "--growing-ratio", "5.0", "--out", str(law))
        res = runner.invoke(main, ["compare", "--empirical", str(emp), "--law", str(law),
                                   "--metric", "tv", "--tol", "0.9"])
        assert res.exit_code == 1
        p10 = math.exp(-5) * 5**10 / math.factorial(10)
        assert json.loads(res.output)["value"] == pytest.approx(1 - p10, abs=1e-12)
        assert json.loads(res.output)["value"] == pytest.approx(0.98187, abs=1e-5)

    def test_compare_tv_table_stops_where_the_pmf_vanishes(self, runner, tmp_path, monkeypatch):
        # one stray value far in the tail cost one law_pmf call per integer below it
        emp = tmp_path / "emp.csv"
        law_path = tmp_path / "law.json"
        emp.write_text("value,count\n1,40\n2,30\n100000,1\n")
        law = limits.PoissonMixture(limits.PoissonMixing(1.0))
        law_path.write_text(json.dumps(limits.law_to_dict(law)))
        full = {float(k): limits.law_pmf(law, k) for k in range(100000 + 80)}
        pmf = {1.0: 40 / 71, 2.0: 30 / 71, 100000.0: 1 / 71}
        expect = stats.tv_distance(pmf, full) + 0.5 * max(0.0, 1.0 - sum(full.values()))
        real, calls = limits.law_pmf, []
        monkeypatch.setattr(limits, "law_pmf", lambda law, k: calls.append(k) or real(law, k))
        res = runner.invoke(main, ["compare", "--empirical", str(emp), "--law", str(law_path),
                                   "--metric", "tv", "--tol", "0.9"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["value"] == expect
        assert len(calls) < 400

    def test_compare_tv_mixing_mean_underflow_exit_code(self, runner, tmp_path):
        emp = tmp_path / "emp.csv"
        law = tmp_path / "law.json"
        emp.write_text("value,count\n3,10\n")
        law.write_text(json.dumps({"kind": "poisson_mixture",
                                   "mixing": {"kind": "poisson", "mean": 800.0}}))
        res = runner.invoke(main, ["compare", "--empirical", str(emp), "--law", str(law),
                                   "--metric", "tv", "--tol", "0.5"])
        assert res.exit_code == 4

    def test_compare_ks_on_exact_probabilities(self, runner, tmp_path):
        # exact writes p/q weights, which an integer expansion truncated to 0
        emp = tmp_path / "exact.csv"
        law = tmp_path / "law.json"
        invoke(runner, "exact", "--graph", "complete:3", "--colors", "2", "--out", str(emp))
        invoke(runner, "limit", "--graph", "complete:3", "--colors", "2", "--out", str(law))
        res = runner.invoke(main, ["compare", "--empirical", str(emp), "--law", str(law),
                                   "--metric", "ks", "--tol", "0.9",
                                   "--center", "1.5", "--scale", str(math.sqrt(6))])
        assert res.exit_code == 0, res.output
        # N = 1 w.p. 3/4 and 3 w.p. 1/4; the limit is 0.25 (chi^2_1 - 1)
        below = math.erf(math.sqrt((4 * (1 - 1.5) / math.sqrt(6) + 1) / 2))
        at3 = math.erf(math.sqrt((4 * (3 - 1.5) / math.sqrt(6) + 1) / 2))
        expect = max(0.75 - below, below, 1.0 - at3, at3 - 0.75)
        assert json.loads(res.output)["value"] == pytest.approx(expect, abs=1e-6)

    def test_compare_ks(self, runner, tmp_path):
        emp = tmp_path / "emp.csv"
        law = tmp_path / "law.json"
        invoke(runner, "simulate", "--graph", "regular:300:3:4", "--colors", "2",
               "--stat", "edges", "--samples", "30000", "--seed", "3", "--out", str(emp))
        invoke(runner, "limit", "--graph", "regular:300:3:4", "--colors", "2", "--out", str(law))
        m = 450
        res = runner.invoke(main, [
            "compare", "--empirical", str(emp), "--law", str(law), "--metric", "ks",
            "--tol", "0.08", "--center", str(m / 2), "--scale", str(math.sqrt(m / 2)),
        ])
        assert res.exit_code == 0, res.output

    @pytest.mark.parametrize("tol,code", [(0.5, 1), (1.5, 0)], ids=["fail", "pass"])
    def test_compare_ks_at_a_far_point_exits_by_its_verdict(self, runner, tmp_path, tol, code):
        # the cdf at 1e300 divided by a smoothing bound that underflowed to 0: a traceback and exit 1
        emp, law = tmp_path / "emp.csv", tmp_path / "law.json"
        emp.write_text("1e300,1\n")
        law.write_text(json.dumps({"kind": "weighted_chi_square", "weights": [1.0], "dof": 1, "scale": 0.25}))
        res = runner.invoke(main, ["compare", "--empirical", str(emp), "--law", str(law),
                                   "--metric", "ks", "--tol", str(tol)])
        assert res.exit_code == code, res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)  # no traceback
        assert json.loads(res.output)["value"] == 1.0

    @pytest.mark.parametrize("law,metric", [(limits.Poisson(3.0), "tv"), (limits.Normal(0.0, 1.0), "ks")],
                             ids=["poisson", "normal"])
    def test_compare_default_metric(self, runner, tmp_path, law, metric):
        # with no --metric a discrete law is judged by tv and any other by ks
        emp, doc = tmp_path / "emp.csv", tmp_path / "law.json"
        emp.write_text("value,count\n2,3\n3,4\n")
        doc.write_text(json.dumps(limits.law_to_dict(law)))
        args = ["compare", "--empirical", str(emp), "--law", str(doc), "--tol", "1.5"]
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["metric"] == metric
        assert res.output == runner.invoke(main, args + ["--metric", metric]).output


# per command: arguments, the manifest's config keys in order, and some of their values
MANIFEST_CASES = {
    "generate": (["--family", "cycle:5"], ["family", "kernel_csv", "seed"], {"family": "cycle:5"}),
    "census": (["--graph", "cycle:5"], ["graph", "tuples", "cycles"], {"tuples": 2, "cycles": False}),
    "extremal": (["--graph", "cycle:5"], ["graph"], {"graph": "cycle:5"}),
    "spectrum": (["--graph", "cycle:5"], ["graph"], {"graph": "cycle:5"}),
    "simulate": (["--graph", "cycle:5", "--colors", "2", "--samples", "10", "--seed", "1"],
                 ["graph", "colors", "stat", "samples", "seed", "workers", "kernel"], {"workers": 1, "stat": "edges"}),
    "exact": (["--graph", "cycle:5", "--colors", "2"], ["graph", "colors", "stat"], {"colors": 2}),
    "moments": (["--graph", "complete:5", "--colors", "2", "--order", "4", "--fourth-report"],
                ["graph", "colors", "kind", "order", "fourth_report"], {"kind": "rawn", "fourth_report": True}),
    "limit": (["--growing-ratio", "1.0", "--sample", "3", "--seed", "2"],
              ["graph", "colors", "growing_ratio", "sample", "seed"], {"graph": None, "sample": 3, "seed": 2}),
    "compare": (["--empirical", "emp.csv", "--law", "law.json", "--tol", "0.5", "--scale", "2"],
                ["empirical", "law", "metric", "tol", "center", "scale"], {"metric": "ks", "center": 0.0, "scale": 2.0}),
    "birthday": (["--people", "23"], ["people", "days", "lambda_from", "edges", "days_power"],
                 {"days": 365, "lambda_from": False, "edges": None}),
}


def test_manifest_cases_cover_every_command():
    assert sorted(MANIFEST_CASES) == sorted(main.commands)


@pytest.mark.parametrize("command", sorted(MANIFEST_CASES))
def test_manifest_config_holds_every_option(runner, tmp_path, monkeypatch, command):
    args, keys, values = MANIFEST_CASES[command]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "emp.csv").write_text("value\n0.1\n0.7\n")
    invoke(runner, "limit", "--graph", "complete:40", "--colors", "2", "--out", "law.json")  # a ks law
    res = runner.invoke(main, [command, *args, "--out", "out.txt"])
    assert res.exit_code in (0, 1), res.output  # compare exits by its verdict
    config = json.loads((tmp_path / "out.txt.manifest.json").read_text())["config"]
    assert list(config) == keys
    assert {k: config[k] for k in values} == values


def test_compare_manifests_record_center_and_scale(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    invoke(runner, "simulate", "--graph", "complete:40", "--colors", "2", "--samples", "2000", "--seed", "11",
           "--out", "sim40.csv")
    invoke(runner, "limit", "--graph", "complete:40", "--colors", "2", "--out", "law40.json")
    configs = []
    for center, scale, code in (("390.0", repr(math.sqrt(1560)), 0), ("0", "1", 1)):
        res = runner.invoke(main, ["compare", "--empirical", "sim40.csv", "--law", "law40.json", "--metric", "ks",
                                   "--tol", "0.5", "--center", center, "--scale", scale, "--out", f"cmp{code}.json"])
        assert res.exit_code == code
        configs.append(json.loads((tmp_path / f"cmp{code}.json.manifest.json").read_text())["config"])
    assert list(configs[0]) == list(configs[1])
    assert {k for k in configs[0] if configs[0][k] != configs[1][k]} == {"center", "scale"}


class TestLimitCommand:
    def test_growing_law_json(self, runner):
        res = invoke(runner, "limit", "--growing-ratio", "0.5")
        doc = json.loads(res.output)
        assert doc == {"schema": "colorgraph.law/1", "kind": "poisson", "mean": 0.5}

    def test_fixed_family(self, runner):
        from colorgraph import limits
        from colorgraph.graph import generate, parse_family

        # an ER spec has no family law: limit_for builds the spec and returns its graph's law
        res = invoke(runner, "limit", "--graph", "er:100:0.5:1", "--colors", "3")
        doc = json.loads(res.output)
        law = limits.limit_for(generate(parse_family("er:100:0.5:1")), limits.Fixed(3))
        assert doc == json.loads(json.dumps({"schema": "colorgraph.law/1", **limits.law_to_dict(law)}))
        assert doc["kind"] == "weighted_chi_square"
        assert doc["dof"] == 2
        # er:100:0.4:1 has four-cycle ratio 0.077, in the gray zone, so it exits 4
        assert runner.invoke(main, ["limit", "--graph", "er:100:0.4:1", "--colors", "3"]).exit_code == 4
        # and a graph with no edges has no fixed-color law at all
        assert runner.invoke(main, ["limit", "--graph", "er:30:0:1", "--colors", "3"]).exit_code == 2

    @pytest.mark.parametrize("graph", ["regular:5000:3:1", "star:5000"])
    def test_sparse_host_above_the_size_gate(self, runner, graph):
        # the four-cycle ratio needs no spectrum, so n = 5000 meets no size gate
        res = invoke(runner, "limit", "--graph", graph, "--colors", "2")
        assert res.exit_code == 0
        assert json.loads(res.output) == {"schema": "colorgraph.law/1", "kind": "normal", "mean": 0.0,
                                          "variance": 0.5}

    def test_sample_csv(self, runner):
        res = invoke(runner, "limit", "--growing-ratio", "2.0", "--sample", "50", "--seed", "9")
        lines = res.output.strip().splitlines()
        assert lines[0] == "value"
        assert len(lines) == 51

    def test_needs_exactly_one_regime(self, runner):
        res = runner.invoke(main, ["limit", "--graph", "complete:5"])
        assert res.exit_code == 2

    def test_law_json_round_trips(self, runner):
        from colorgraph import limits

        doc = json.loads(invoke(runner, "limit", "--growing-ratio", "1.0").output)
        assert doc["schema"] == "colorgraph.law/1"
        laws = [
            limits.Poisson(0.7),
            limits.Normal(0.0, 0.5),
            limits.WeightedChiSquare((1.0,), 2, 0.25),
            limits.AtomPlusNormal(0.5, 1.0),
            limits.PoissonMixture(limits.PoissonMixing(1.0)),
            limits.PoissonMixture(limits.EmpiricalMixing((0.5, 1.5))),
        ]
        for law in laws:
            assert limits.law_from_dict(json.loads(json.dumps(limits.law_to_dict(law)))) == law

    def test_compare_malformed_law_exit_code(self, runner, tmp_path):
        # law_from_dict's ValueError cases are in test_limits
        emp = tmp_path / "emp.csv"
        law = tmp_path / "law.json"
        emp.write_text("value,count\n1,10\n")
        for doc in ({"kind": "normal", "mean": 0, "variance": "x"},
                    {"kind": "poisson_mixture", "mixing": {"kind": "point_mass", "value": 1.0}}):
            law.write_text(json.dumps(doc))
            res = runner.invoke(main, ["compare", "--empirical", str(emp), "--law", str(law),
                                       "--metric", "ks", "--tol", "0.5"])
            assert res.exit_code == 2, res.output


COMPARE_KS = ["compare", "--empirical", "e.csv", "--law", "law.json", "--metric", "ks", "--tol", "0.5"]


# a path that cannot be read or written, an empirical CSV with no value rows and an edge file with a bad line: usage errors
PATH_ERRORS = [
    (["compare", "--empirical", "e.csv", "--law", "missing.json", "--tol", "0.5"],
     "No such file or directory: 'missing.json'"),
    (["compare", "--empirical", "missing.csv", "--law", "law.json", "--tol", "0.5"],
     "No such file or directory: 'missing.csv'"),
    (["generate", "--kernel-csv", "missing.csv", "--seed", "1"], "No such file or directory: 'missing.csv'"),
    (["census", "--graph", "a-directory"], "Is a directory: 'a-directory'"),
    (["simulate", "--graph", "complete:3", "--colors", "2", "--samples", "5", "--seed", "1",
      "--out", "no-such-dir/x.csv"], "No such file or directory: 'no-such-dir/x.csv'"),
    (["compare", "--empirical", "empty.csv", "--law", "law.json", "--tol", "0.5"],
     "--empirical empty.csv has no value rows"),
    (["census", "--graph", "bad.edges"], "bad edge line '0 x'"),
]
PATH_ERROR_IDS = ["missing-law", "missing-empirical", "missing-kernel-csv", "graph-is-a-directory",
                  "out-in-missing-directory", "empirical-without-rows", "edge-file-with-a-non-integer"]


@pytest.mark.parametrize("args,message", PATH_ERRORS, ids=PATH_ERROR_IDS)
def test_path_error_names_its_cause(runner, args, message, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "e.csv").write_text("value,count\n3,10\n")
    (tmp_path / "empty.csv").write_text("value,count\n# no rows\n")
    (tmp_path / "law.json").write_text(json.dumps({"kind": "poisson", "mean": 5.0}))
    (tmp_path / "a-directory").mkdir()
    (tmp_path / "bad.edges").write_text("3 1\n0 x\n")
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert message in res.output
    assert "Traceback" not in res.output


# usage errors caught before any file is read or law computed: the message names the missing option
USAGE_ERRORS = [
    (["generate", "--kernel-csv", "missing.csv"], "--kernel-csv requires --seed"),
    (["limit", "--graph", "gadget:3:3:3", "--colors", "2", "--sample", "5"], "--sample requires --seed"),
    (["limit", "--colors", "2"], "the fixed-color regime needs --graph"),
    (["birthday"], "pass --people N"),
    # a single bad field is named when the spec is made, also on limit's closed-form path that builds no graph
    (["limit", "--graph", "complete:-1", "--colors", "2"], "bad family spec 'complete:-1': Complete.n must be >= 0"),
    (["limit", "--graph", "bipartite:-3:5", "--colors", "2"], "CompleteBipartite.a must be >= 0, got -3"),
    (["generate", "--family", "gw:0.5,0.6:3:1"], "GaltonWatson.offspring must be a nonempty, nonnegative pmf"),
    (["birthday", "--lambda-from", "--days-power", "365:4"], "--lambda-from needs --edges"),
    *((["birthday", "--lambda-from", "--edges", "5", "--days-power", bad], "--days-power must be BASE:K")
      for bad in ("abc", "2:x", "1:2:3")),
]
USAGE_ERROR_IDS = ["kernel-csv-without-seed", "sample-without-seed", "fixed-colors-without-graph",
                   "birthday-without-people", "negative-complete", "negative-bipartite-side",
                   "offspring-summing-past-one", "lambda-from-without-edges",
                   "days-power-without-colon", "days-power-non-integer-k", "days-power-two-colons"]


@pytest.mark.parametrize("args,message", USAGE_ERRORS, ids=USAGE_ERROR_IDS)
def test_usage_error_names_its_cause(runner, args, message, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # no missing.csv here; gadget:3:3:3 would be in the gray zone (exit 4)
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert message in res.output


# inputs compare cannot judge: usage errors (exit 2), never a failed comparison (exit 1)
COMPARE_TV = ["compare", "--metric", "tv", "--tol", "0.5", "--empirical"]
UNJUDGEABLE_COMPARES = [
    (COMPARE_TV + ["e.csv", "--law", "normal.json"], "Normal has no pmf"),
    (COMPARE_TV + ["e.csv", "--law", "chi-square.json"], "WeightedChiSquare has no pmf"),
    (COMPARE_TV + ["e.csv", "--law", "atom.json"], "AtomPlusNormal has no pmf"),
    (COMPARE_TV + ["zero-counts.csv", "--law", "law.json"], "weights must be nonnegative"),
    (COMPARE_TV + ["negative-count.csv", "--law", "law.json"], "weights must be nonnegative"),
    (COMPARE_KS[:2] + ["negative-count.csv"] + COMPARE_KS[3:], "weights must be nonnegative"),
    (COMPARE_TV + ["huge.csv", "--law", "law.json"], "row '1e400,2' holds a number outside the float range"),
    (COMPARE_KS[:2] + ["huge.csv"] + COMPARE_KS[3:], "row '1e400,2' holds a number outside the float range"),
    (COMPARE_TV + ["huge-count.csv", "--law", "law.json"], "row '3,1e400' holds a number outside the float range"),
    (COMPARE_TV + ["zero-denominator-count.csv", "--law", "law.json"], "row '1,1/0' divides by zero"),
    (COMPARE_KS[:2] + ["zero-denominator-value.csv"] + COMPARE_KS[3:], "row '1/0,3' divides by zero"),
    (COMPARE_TV + ["word-count.csv", "--law", "law.json"], "row '3,x' holds a field that is not a number"),
    (COMPARE_KS[:2] + ["word-value.csv"] + COMPARE_KS[3:], "row '1.5.2,3' holds a field that is not a number"),
    # past the first row nothing is a header: a row that does not parse is named, not skipped
    (COMPARE_KS[:2] + ["nan-row.csv"] + COMPARE_KS[3:], "row 'nan,3' holds a field that is not a number"),
    (COMPARE_TV + ["inf-row.csv", "--law", "law.json"], "row 'inf,3' holds a field that is not a number"),
    (COMPARE_KS[:2] + ["stray-row.csv"] + COMPARE_KS[3:], "row 'x,1' holds a field that is not a number"),
    # a first row that float() reads is data, not a header, even when it starts with a letter
    (COMPARE_TV + ["nan-first.csv", "--law", "law.json"], "row 'nan,3' holds a field that is not a number"),
    (COMPARE_KS[:2] + ["inf-first.csv"] + COMPARE_KS[3:], "row 'inf,5' holds a field that is not a number"),
]
UNJUDGEABLE_IDS = ["tv-normal", "tv-weighted-chi-square", "tv-atom-plus-normal", "tv-zero-counts",
                   "tv-negative-count", "ks-negative-count", "tv-huge-value", "ks-huge-value", "tv-huge-count",
                   "tv-zero-denominator-count", "ks-zero-denominator-value", "tv-word-count", "ks-word-value",
                   "ks-nan-row", "tv-inf-row", "ks-stray-row", "tv-nan-first-row", "ks-inf-first-row"]


def write_compare_inputs(tmp_path) -> None:
    """The CSVs and law documents that ``UNJUDGEABLE_COMPARES`` and the start-up tests read."""
    for name, text in (("e.csv", "value,count\n3,10\n"), ("zero-counts.csv", "value,count\n1,0\n2,0\n"),
                       ("negative-count.csv", "value,count\n1,-3\n2,5\n"),
                       ("huge.csv", "value,count\n1e400,2\n3,5\n"), ("huge-count.csv", "value,count\n3,1e400\n"),
                       ("zero-denominator-count.csv", "value,count\n1,1/0\n"),
                       ("zero-denominator-value.csv", "value,count\n1/0,3\n"),
                       ("word-count.csv", "value,count\n3,x\n"), ("word-value.csv", "value,count\n1.5.2,3\n"),
                       ("nan-row.csv", "value,count\n1,2\nnan,3\n2,5\n"), ("inf-row.csv", "value,count\n1,2\ninf,3\n"),
                       ("stray-row.csv", "# a comment\nvalue,count\n1,2\nx,1\n"),
                       ("nan-first.csv", "nan,3\n1,2\n"), ("inf-first.csv", "inf,5\n1,2\n")):
        (tmp_path / name).write_text(text)
    for name, law in (("law.json", limits.Poisson(5.0)), ("normal.json", limits.Normal(0.0, 1.0)),
                      ("chi-square.json", limits.WeightedChiSquare((1.0,), 1, 0.25)),
                      ("atom.json", limits.AtomPlusNormal(0.5, 1.0)),
                      ("mixture.json", limits.PoissonMixture(limits.PoissonMixing(1.0))),
                      ("empirical-mixture.json", limits.PoissonMixture(limits.EmpiricalMixing((1.0, 2.5))))):
        (tmp_path / name).write_text(json.dumps(limits.law_to_dict(law)))


@pytest.mark.parametrize("args,message", UNJUDGEABLE_COMPARES, ids=UNJUDGEABLE_IDS)
def test_unjudgeable_compare_names_its_cause(runner, args, message, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_compare_inputs(tmp_path)
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert message in res.output
    assert "Traceback" not in res.output


class TestBirthday:
    def test_classic(self, runner):
        res = invoke(runner, "birthday", "--people", "23", "--days", "365")
        doc = json.loads(res.output)
        assert doc["exact_no_match"] == pytest.approx(0.492703, abs=1e-6)
        assert doc["poisson_approx_no_match"] == pytest.approx(math.exp(-253 / 365), abs=1e-9)

    def test_lambda_from(self, runner):
        res = invoke(runner, "birthday", "--lambda-from", "--edges", "1.2e11",
                     "--days-power", "365:4")
        doc = json.loads(res.output)
        assert doc["lambda"] == pytest.approx(6.7609, abs=5e-4)
        assert doc["match_prob"] == pytest.approx(0.998843, abs=1e-5)

    def test_minimal_group_size(self, runner):
        probs = {}
        for people in (22, 23):
            doc = json.loads(invoke(runner, "birthday", "--people", str(people)).output)
            probs[people] = doc["exact_no_match"]
        assert probs[22] > 0.5 > probs[23]

    def test_more_people_than_days(self, runner):
        doc = json.loads(invoke(runner, "birthday", "--people", "400", "--days", "365").output)
        assert doc["exact_no_match"] == 0.0
        assert doc["match_prob"] == 1.0

    @pytest.mark.parametrize("people,days", [
        (0, 5), (2, 1), (3, 1), (23, 365), (366, 365), (367, 365), (1000, 10**30),
        (40_000, 200_000), (99_999, 200_000), (100_001, 200_000), (200_001, 200_000),
    ])
    def test_exact_is_the_product_rounded_step_by_step(self, runner, people, days):
        plain = 1.0
        for i in range(min(people, days + 1)):  # the factor at i = days is 0
            plain *= 1.0 - i / days
        doc = json.loads(invoke(runner, "birthday", "--people", str(people), "--days", str(days)).output)
        assert repr(doc["exact_no_match"]) == repr(plain)

    def test_huge_group_skips_the_steps_that_change_nothing(self, runner):
        # a product stuck at the least subnormal stays there until its factor falls to 1/2, so a
        # step-by-step loop took a billion steps here
        started = time.perf_counter()
        res = invoke(runner, "birthday", "--people", "2000000000", "--days", "2000000000")
        assert time.perf_counter() - started < 0.5
        assert json.loads(res.output) == {"schema": "colorgraph.birthday/1", "people": 2_000_000_000,
                                          "days": 2_000_000_000, "exact_no_match": 0.0,
                                          "poisson_approx_no_match": 0.0, "match_prob": 1.0}

    @pytest.mark.parametrize("people,days,exact", [
        (2**64, 365, 0.0),  # more people than days, past sys.maxsize
        (10**16, 10**15, 0.0),
        (2**64, 2**200, 1.0),  # every factor rounds to 1: one bisection over more than sys.maxsize steps
    ])
    def test_huge_inputs_answer_at_once(self, runner, people, days, exact):
        started = time.perf_counter()
        res = invoke(runner, "birthday", "--people", str(people), "--days", str(days))
        assert time.perf_counter() - started < 0.5
        assert json.loads(res.output)["exact_no_match"] == exact

    @pytest.mark.parametrize("args,code", [
        (["birthday", "--people", "23", "--days", "0"], 2),
        (["birthday", "--lambda-from", "--edges", "1.2e11", "--days-power", "365:1000"], 4),
        (["birthday", "--people", "-3"], 2),
        (["birthday", "--lambda-from", "--edges", "-5", "--days-power", "365:4"], 2),
        (["birthday", "--lambda-from", "--edges", "nan", "--days-power", "365:4"], 2),
        (["birthday", "--lambda-from", "--edges", "5", "--days-power", "0:4"], 2),
        (["birthday", "--lambda-from", "--edges", "inf", "--days-power", "365:4"], 2),
        (["birthday", "--lambda-from", "--edges", "5", "--days-power", "inf:2"], 2),
        (["birthday", "--lambda-from", "--edges", "5", "--days-power", "0:-1"], 2),
        (["limit", "--graph", "complete:1", "--colors", "2"], 2),
        (["simulate", "--graph", "complete:3", "--colors", "2", "--samples", "10", "--seed", "1",
          "--workers", "0"], 2),
        (["limit", "--growing-ratio", "nan"], 2),
        (["limit", "--graph", "star:5", "--growing-ratio", "2.0"], 2),
        (COMPARE_KS + ["--scale", "0"], 2),
        (COMPARE_KS + ["--scale", "-1"], 2),
        (COMPARE_KS + ["--scale", "nan"], 2),
        (COMPARE_KS + ["--scale", "inf"], 2),
        (COMPARE_KS + ["--center", "nan"], 2),
        (COMPARE_KS + ["--center", "inf"], 2),
        (["compare", "--empirical", "e.csv", "--law", "law.json", "--metric", "tv", "--tol", "nan"], 2),
        (["compare", "--empirical", "e.csv", "--law", "inf-mean.json", "--tol", "0.5"], 2),
        (["compare", "--empirical", "e.csv", "--law", "half-dof.json", "--tol", "0.5"], 2),
        (["generate", "--family", "gw:nan,1.0:3:1"], 2),
        (["limit", "--graph", "regular:5000:3:1", "--colors", "2"], 0),
        (["limit", "--graph", "star:5000", "--colors", "2"], 0),
        (["limit", "--graph", "dense.edges", "--colors", "2"], 3),
        (["limit", "--graph", "blowup.edges", "--colors", "2"], 0),
        (["extremal", "--graph", "cycle:3001"], 0),
        (["census", "--graph", "complete:20", "--cycles"], 3),
        (["census", "--graph", "complete:5", "--tuples", "4"], 0),
        # c^n past 4,300 digits, which str() refuses to format
        (["exact", "--graph", "path:20000", "--colors", "2"], 3),
        (["exact", "--graph", "complete:3000", "--colors", "30"], 3),
        # c = 2^60 is past 2^53: checked before the cycle walk lists K_20's 8-cycles
        (["simulate", "--graph", "complete:20", "--colors", str(2**60), "--stat", "cycles:8", "--samples", "3",
          "--seed", "1"], 4),
        # numpy refuses the 745 GiB and 8 TiB arrays at once, without allocating
        (["generate", "--family", "complete:100000000000"], 3),
        (["generate", "--family", "hypercube:40"], 3),
        (["limit", "--graph", "complete:99999999999999", "--colors", "2"], 0),
        *((args, 2) for args, _ in PATH_ERRORS),
        *((args, 2) for args, _ in UNJUDGEABLE_COMPARES),
        *((args, 2) for args, _ in USAGE_ERRORS),
    ], ids=["zero-days", "days-power-overflow", "negative-people", "negative-edges", "nan-edges",
            "zero-days-power", "inf-edges", "inf-days-power", "zero-base-negative-power",
            "edgeless-family", "zero-workers", "nan-growing-ratio", "graph-with-growing-ratio",
            "zero-scale", "negative-scale",
            "nan-scale", "inf-scale", "nan-center", "inf-center", "nan-tol", "inf-poisson-mean",
            "fractional-dof", "nan-offspring", "sparse-host-above-size-gate", "star-above-size-gate",
            "dense-host-above-size-gate", "dense-blow-up-below-class-gate", "long-cycle-extremal",
            "cycle-walk-gate", "longest-tuples", "exact-gate-long-path", "exact-gate-large-complete",
            "colors-past-2-53-before-cycle-walk", "complete-past-memory", "hypercube-past-memory",
            "closed-form-huge-complete", *PATH_ERROR_IDS, *UNJUDGEABLE_IDS, *USAGE_ERROR_IDS])
    def test_out_of_range_input_exit_code(self, runner, args, code, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the compare rows read these files
        write_compare_inputs(tmp_path)
        (tmp_path / "empty.csv").write_text("value,count\n# no rows\n")
        (tmp_path / "a-directory").mkdir()
        (tmp_path / "inf-mean.json").write_text(json.dumps({"kind": "poisson", "mean": math.inf}))
        (tmp_path / "half-dof.json").write_text(json.dumps(
            {"kind": "weighted_chi_square", "weights": [1.0], "dof": 1.5, "scale": 0.25}))
        if "dense.edges" in args:  # dense (four-cycle ratio above 0.1), so a spectrum is needed, and twin-free
            (tmp_path / "dense.edges").write_text(to_edge_list_text(generate(ErdosRenyi(60, 0.5, 3))))
            monkeypatch.setattr(spectral, "DENSE_SIZE_GATE", 59)  # below its 60 twin classes
        if "blowup.edges" in args:  # K_{2,3999}: n = 4001 and four-cycle ratio 0.125, but 2 twin classes
            edges = [(i, j) for i in range(2) for j in range(2, 4001)]
            (tmp_path / "blowup.edges").write_text(f"4001 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        res = runner.invoke(main, args)
        assert res.exit_code == code, res.output


# -- start-up: what a fresh interpreter loads -------------------------------------------


def child_output(code: str) -> str:
    """The last stdout line of ``python -c code`` in a fresh interpreter that imports this colorgraph."""
    src = str(Path(colorgraph.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    return out.stdout.splitlines()[-1]


def modules_after_cli(*args: str) -> set[str]:
    """The modules loaded once ``python -m colorgraph.cli ARGS`` has run (and exited 0).

    A lazy handle (``errors.lazy``) that was never read is registered in ``sys.modules`` but has not
    run, so it is not loaded; ``type`` reads it without loading it.
    """
    code = ("import importlib.util, runpy, sys\n"
            f"sys.argv = ['colorgraph', *{list(args)!r}]\n"
            "try:\n"
            "    runpy.run_module('colorgraph.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    assert not exc.code, exc.code\n"
            "print(*sorted(name for name, module in list(sys.modules.items())\n"
            "              if type(module) is not importlib.util._LazyModule))\n")
    return set(child_output(code).split())


def test_cli_start_up_skips_the_process_pool():
    # import multiprocessing (its pickle, socket and selectors) costs a CLI start 7-12 ms; only --workers > 1 reads it
    loaded = modules_after_cli("simulate", "--graph", "complete:6", "--colors", "2", "--stat", "edges",
                               "--samples", "10", "--seed", "1")
    assert "colorgraph.colorsim" in loaded
    assert not {m for m in loaded if m.split(".")[0] == "multiprocessing"}


def test_colorsim_loads_no_concurrent():
    # a lazy handle on concurrent.futures imported the concurrent package when colorsim loaded
    code = "import sys, colorgraph.colorsim; print(sorted(m for m in sys.modules if m.split('.')[0] == 'concurrent'))"
    assert child_output(code) == "[]"


@pytest.mark.parametrize("args", [("birthday", "--people", "23", "--days", "365"), ("--version",)],
                         ids=["birthday", "version"])
def test_numpy_free_commands_load_no_numpy(args):
    loaded = modules_after_cli(*args)
    assert not {"numpy", "dataclasses", "fractions"} & loaded
    assert {m for m in loaded if m.startswith("colorgraph")} == {"colorgraph", "colorgraph.errors"}


def test_census_loads_only_what_it_runs():
    loaded = modules_after_cli("census", "--graph", "complete:4")
    assert {"colorgraph.graph", "colorgraph.census"} <= loaded
    assert not {"colorgraph.limits", "colorgraph.colorsim", "colorgraph.moments"} & loaded


@pytest.mark.parametrize("args,loads_numpy", [
    (("limit", "--growing-ratio", "2"), False),
    (("compare", "--empirical", "e.csv", "--law", "law.json", "--metric", "ks", "--tol", "1.5"), True),
    # an EmpiricalMixing pmf averages its Poisson terms with np.mean
    (("compare", "--empirical", "e.csv", "--law", "empirical-mixture.json", "--metric", "tv", "--tol", "1.5"), True),
], ids=["limit-growing", "compare-ks", "compare-tv-empirical-mixture"])
def test_law_commands_load_no_census_or_spectrum(args, loads_numpy, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_compare_inputs(tmp_path)
    loaded = modules_after_cli(*args)
    assert "colorgraph.limits" in loaded
    assert not {"colorgraph.census", "colorgraph.spectral"} & loaded
    assert ("numpy" in loaded) == loads_numpy  # a KS comparison sums arrays, an EmpiricalMixing pmf takes np.mean


# a discrete law's pmf arithmetic runs without numpy, and so without rng, which needs it
_NO_ARRAYS = {"numpy", "numpy._core", "colorgraph.rng", "colorgraph.graph", "colorgraph.census",
              "colorgraph.spectral"}
# a complete or complete bipartite family's law is closed-form: the spec is parsed, and no graph is built
_CLOSED_FORM = {"numpy", "numpy._core", "colorgraph.rng", "colorgraph.census", "colorgraph.spectral"}


@pytest.mark.parametrize("args,unloaded", [
    (("simulate", "--graph", "complete:6", "--colors", "2", "--stat", "edges", "--samples", "10", "--seed", "1"),
     {"colorgraph.census"}),
    (("exact", "--graph", "complete:4", "--colors", "2"), {"colorgraph.census"}),
    (("limit", "--growing-ratio", "1.0", "--out", "law.json"), _NO_ARRAYS),
    (("compare", "--empirical", "e.csv", "--law", "law.json", "--metric", "tv", "--tol", "1.5"), _NO_ARRAYS),
    (("compare", "--empirical", "e.csv", "--law", "mixture.json", "--metric", "tv", "--tol", "1.5"), _NO_ARRAYS),
    (("limit", "--graph", "complete:40", "--colors", "2", "--out", "law40.json"), _CLOSED_FORM),
    (("limit", "--graph", "bipartite:3:3", "--colors", "3"), _CLOSED_FORM),
], ids=["simulate", "exact", "limit-growing", "compare-tv", "compare-tv-mixture", "limit-complete",
        "limit-bipartite"])
def test_commands_load_only_the_modules_they_run(args, unloaded, tmp_path, monkeypatch):
    # simulate and exact list no cycles; the laws subclass errors.Params, so a law needs no graph
    monkeypatch.chdir(tmp_path)
    write_compare_inputs(tmp_path)
    loaded = modules_after_cli(*args)
    assert {"colorgraph.colorsim", "colorgraph.limits"} & loaded
    assert not unloaded & loaded


def test_lazy_handle_loads_its_module_on_first_read():
    code = ("import importlib.util, sys\n"
            "from colorgraph.errors import lazy\n"
            "np = lazy('numpy')\n"
            "print(type(np) is importlib.util._LazyModule, 'numpy._core' in sys.modules, end=' ')\n"
            "np.zeros(1)\n"
            "import numpy\n"
            "print(numpy is np, lazy('numpy') is np, 'numpy._core' in sys.modules)\n")
    assert child_output(code) == "True False True True True"


def test_import_colorgraph_loads_no_submodule():
    code = "import sys, colorgraph; print(*sorted(m for m in sys.modules if m.split('.')[0] in ('colorgraph', 'numpy')))"
    assert child_output(code) == "colorgraph"


def test_submodules_load_on_first_access():
    code = ("import sys, colorgraph\n"
            "census = colorgraph.census\n"
            "from colorgraph import rng\n"
            "print(census.__name__, rng.__name__, 'colorgraph.limits' in sys.modules, "
            "{'census', 'limits', 'rng', '__version__'} <= set(dir(colorgraph)))\n")
    assert child_output(code) == "colorgraph.census colorgraph.rng False True"


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'census_table'"):
        colorgraph.census_table  # noqa: B018
    assert not hasattr(colorgraph, "numpy")


def test_package_version_is_the_project_version():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "(.*)"$', pyproject, re.M).group(1) == colorgraph.__version__


def test_kind_choices_are_the_moment_kinds():
    from colorgraph import cli, moments

    assert list(cli._MOMENT_KINDS) == [k.value for k in moments.MomentKind]
