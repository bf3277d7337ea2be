"""Golden CLI outputs: stdout, stderr, exit code and every ``--out`` file, byte for byte.

The commands run in order in one working directory, so later commands read
the files earlier ones wrote (``census`` reads ``g.edges``, ``compare`` reads
``sim.csv`` and ``law.json``). A manifest is compared without its
``wall_time_seconds`` line. After a deliberate output change, rewrite the
goldens with ``PYTHONPATH=src python tests/test_golden_cli.py [NAME ...]``:
with names it rewrites only those entries (every case still runs, since
later cases read earlier outputs), without names it rewrites them all.
"""
import json
import math
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from colorgraph.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli.json"

CASES = [
    # the README commands, in README order
    ("readme-generate", "generate --family er:100:0.05:7 --out g.edges"),
    ("readme-census", "census --graph g.edges --tuples 2 --cycles"),
    ("readme-extremal", "extremal --graph star:4"),
    ("readme-spectrum", "spectrum --graph bipartite:3:3"),
    ("readme-simulate", "simulate --graph complete:60 --colors 1770 --stat edges "
                        "--samples 100000 --seed 1 --out sim.csv"),
    ("readme-exact", "exact --graph complete:3 --colors 2 --stat edges"),
    ("readme-moments", "moments --graph cycle:4 --colors 2 --kind centralz --order 4 --fourth-report"),
    ("readme-limit-regular", "limit --graph regular:2000:3:5 --colors 2"),
    ("readme-limit-growing", "limit --growing-ratio 1.0 --out law.json"),
    ("readme-compare-tv", "compare --empirical sim.csv --law law.json --metric tv --tol 0.02"),
    ("readme-birthday", "birthday --people 23 --days 365"),
    ("readme-birthday-lambda", "birthday --lambda-from --edges 1.2e11 --days-power 365:4"),
    # simulate, limit and a KS compare on K40
    ("k40-simulate", "simulate --graph complete:40 --colors 2 --stat edges "
                     "--samples 20000 --seed 11 --out sim40.csv"),
    ("k40-limit", "limit --graph complete:40 --colors 2 --out law40.json"),
    ("k40-compare-ks", f"compare --empirical sim40.csv --law law40.json --metric ks "
                       f"--center 390.0 --scale {math.sqrt(1560)!r} --tol 0.5"),
    # other limit families and statistics
    ("limit-er", "limit --graph er:60:0.5:3 --colors 3"),
    ("limit-bipartite-sample", "limit --graph bipartite:5:5 --colors 3 --sample 20 --seed 4"),
    ("simulate-stars", "simulate --graph er:30:0.3:1 --colors 3 --stat stars:2 --samples 2000 --seed 7"),
    ("simulate-cycles", "simulate --graph er:30:0.3:1 --colors 3 --stat cycles:3 "
                        "--samples 2000 --seed 7 --out cycles.csv"),
    ("simulate-gadget-cycles", "simulate --graph gadget:30:30:3 --colors 30 --stat cycles:3 "
                               "--samples 2000 --seed 7 --out gadget.csv"),
    # documented failure exits
    ("exit-usage", "limit --graph complete:5"),
    ("exit-gate", "exact --graph complete:30 --colors 3"),
    ("exit-gray-zone", "limit --graph gadget:3:3:3 --colors 2"),
]

_WALL_TIME = re.compile(r'^(\s*"wall_time_seconds": ).*$', re.MULTILINE)


def _runner() -> CliRunner:
    try:
        return CliRunner(mix_stderr=False)  # click < 8.2 merges stderr otherwise
    except TypeError:
        return CliRunner()


def _outputs(workdir: Path, args: list[str]) -> dict[str, str]:
    if "--out" not in args:
        return {}
    out = args[args.index("--out") + 1]
    files = {out: (workdir / out).read_text()}
    manifest = f"{out}.manifest.json"
    files[manifest] = _WALL_TIME.sub(r"\1<elided>,", (workdir / manifest).read_text())
    return files


def run_cases(workdir: Path) -> dict[str, dict]:
    runner = _runner()
    results = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        for name, command in CASES:
            args = command.split()
            res = runner.invoke(main, args, prog_name="colorgraph")
            results[name] = {
                "command": command,
                "exit_code": res.exit_code,
                "stdout": res.stdout,
                "stderr": res.stderr,
                "files": _outputs(workdir, args),
            }
    return results


@pytest.fixture(scope="module")
def actual(tmp_path_factory):
    return run_cases(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", [name for name, _ in CASES])
def test_cli_output_matches_golden(actual, golden, name):
    assert actual[name] == golden[name]


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(name for name, _ in CASES)


if __name__ == "__main__":
    import sys
    import tempfile

    names = sys.argv[1:]
    unknown = sorted(set(names) - {name for name, _ in CASES})
    if unknown:
        sys.exit(f"no golden case named {', '.join(unknown)}")
    with tempfile.TemporaryDirectory() as tmp:
        fresh = run_cases(Path(tmp))
    doc = json.loads(GOLDEN.read_text()) if names else {}
    doc.update({name: fresh[name] for name in names or fresh})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=2) + "\n")
