"""Record the benchmark's trajectory: run ``bench/run.py --workload all`` for several seeds and keep one summary file.

    python3 scripts/trajectory.py --seeds 9101 9102 9103 9104 9105 --out BENCH_<n>.json
    python3 scripts/trajectory.py --read BENCH_<n>.json --against BENCH_<k>.json   # compare two records
    python3 scripts/trajectory.py --seeds 9101 9102 9103 --out new.json --against BENCH_<k>.json

Run from the root of a checkout. The benchmark runs unchanged, one process
per seed with its default settings; this script reads the JSON on its last
stdout line and the per-op records of ``.bench_out/<workload>-seed<seed>-
trace0.json``, and never imports ``colorgraph``. The record holds the commit,
the environment, the seeds, each end-to-end metric's median and quartiles over
the seeds, each op's raw median latency over every run of it, and, as readings
and not gates, the Tier-1 suite's wall time and test counts and the lines of
``src/colorgraph/*.py``, in total and split by ``ast`` into docstring,
comment, blank and code lines. ``--against`` prints each metric's ratio to a
reference record and whether its median moved by more than the reference's
IQR, then each op's raw-median ratio (which README command or library op
moved), then the line deltas if both records hold them; the evidence for a
claimed gain stays interleaved parent/change pairs.
"""
from __future__ import annotations

import argparse
import ast
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

SCHEMA = "colorgraph.trajectory/1"
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def _git(root: Path, *args: str) -> str | None:
    try:
        return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _quartiles(values: list[float]) -> dict:
    """Median, first and third quartile (the inclusive method) and IQR of ``values``."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": len(values)}


def run_bench(root: Path, seed: int) -> tuple[dict, dict]:
    """One ``bench/run.py --workload all`` run: its final JSON line, and each workload's report."""
    cmd = [sys.executable, "bench/run.py", "--workload", "all", "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench run for seed {seed} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    final = json.loads(lines[-1])
    reports = {}
    for path in sorted((root / ".bench_out").glob(f"*-seed{seed}-trace0.json")):
        report = json.loads(path.read_text())
        reports[report["workload"]] = report
    return final, reports


def run_tier1(root: Path) -> dict:
    """The Tier-1 suite's wall time and counts, as the summary line prints them."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=root, capture_output=True, text=True, env=env)
    wall = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {word: int(num) for num, word in re.findall(r"(\d+) (passed|failed|errors?|skipped)", summary)}
    return {"wall_s": round(wall, 2), "counts": counts, "summary": summary, "exit_code": proc.returncode}


def source_lines(root: Path) -> dict:
    """``src/colorgraph/*.py``'s lines: the total, and each line as docstring, comment, blank or code.

    A docstring line is any line of a module, class or function docstring,
    blank ones included; a comment line holds only a comment.
    """
    split = {"lines": 0, "docstring": 0, "comment": 0, "blank": 0, "code": 0}
    for path in sorted((root / "src" / "colorgraph").glob("*.py")):
        text = path.read_text()
        docs = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and ast.get_docstring(node, clean=False) is not None:
                docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        for number, line in enumerate(text.splitlines(), 1):
            split["lines"] += 1
            split["docstring" if number in docs else "blank" if not line.strip()
                  else "comment" if line.lstrip().startswith("#") else "code"] += 1
    return split


def record(root: Path, seeds: list[int]) -> dict:
    metrics: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    op_ms: dict[str, list[float]] = {}
    runs, env = [], {}
    for seed in seeds:
        final, reports = run_bench(root, seed)
        runs.append({"seed": seed, "correct": final["correct"], "attempted": final["attempted"],
                     "failed": final["failed"]})
        for name, m in final["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        for workload, report in reports.items():
            env = env or report["environment"]
            for op in report["ops"]:
                op_ms.setdefault(f"{workload}/{op['name']}", []).append(op["ms"])
        print(f"seed {seed}: correct={final['correct']} failed={final['failed']} of {final['attempted']}",
              file=sys.stderr, flush=True)
    return {
        "schema": SCHEMA,
        "sha": _git(root, "rev-parse", "HEAD"),
        "dirty": bool(_git(root, "status", "--porcelain", "--untracked-files=no")),
        "environment": {"python": sys.version.split()[0], "numpy": env.get("numpy"), "blas": env.get("blas"),
                        "cpu_count": os.cpu_count(), "platform": sys.platform},
        "command": "python3 bench/run.py --workload all --seed <seed>",
        "seeds": seeds,
        "runs": runs,
        "metrics": {name: {"unit": units[name], **_quartiles(values), "values": values}
                    for name, values in sorted(metrics.items())},
        "op_raw_ms": {name: {"median": statistics.median(ms), "runs": len(ms)} for name, ms in sorted(op_ms.items())},
        "tier1": run_tier1(root),
        "source_lines": source_lines(root),
    }


def compare(new: dict, ref: dict, root: Path) -> None:
    """Print each metric's ratio to ``ref`` and whether it moved by more than ``ref``'s IQR, then each op's."""
    better = {}
    bench = root / "BENCHMARK.json"
    if bench.is_file():
        better = {m["name"]: m["better"] for m in json.loads(bench.read_text())["end_to_end"]}
    print(f"{'metric':44s} {'reference':>12s} {'this':>12s} {'ratio':>7s}  moved")
    for name, m in new["metrics"].items():
        if name not in ref["metrics"]:
            continue
        r = ref["metrics"][name]
        ratio = m["median"] / r["median"] if r["median"] else float("nan")
        moved = abs(m["median"] - r["median"]) > r["iqr"]
        direction = ""
        if moved:
            lower_is_better = better.get(name.split(".", 1)[-1], "lower") == "lower"
            direction = "better" if (m["median"] < r["median"]) == lower_is_better else "worse"
        print(f"{name:44s} {r['median']:12.6g} {m['median']:12.6g} {ratio:7.3f}  {direction or 'within IQR'}")
    ref_ops = ref.get("op_raw_ms", {})
    print(f"\n{'op':44s} {'reference ms':>12s} {'this ms':>12s} {'ratio':>7s}  (raw medians over every run)")
    for name, op in new.get("op_raw_ms", {}).items():
        if name in ref_ops:
            r = ref_ops[name]["median"]
            print(f"{name:44s} {r:12.6g} {op['median']:12.6g} {op['median'] / r if r else float('nan'):7.3f}")
    print(f"tier1 wall {ref['tier1']['wall_s']} s -> {new['tier1']['wall_s']} s; "
          f"passed {ref['tier1']['counts'].get('passed')} -> {new['tier1']['counts'].get('passed')}")
    if "source_lines" in new and "source_lines" in ref:  # older records hold no line readings
        old = ref["source_lines"]
        print("src/colorgraph/*.py " + "; ".join(f"{kind} {old[kind]} -> {count} ({count - old[kind]:+d})"
                                                 for kind, count in new["source_lines"].items()))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", help="one benchmark run per seed")
    ap.add_argument("--out", type=Path, help="where to write the record")
    ap.add_argument("--read", type=Path, help="a record to compare instead of running")
    ap.add_argument("--against", type=Path, help="a reference record: print each metric's ratio to it")
    args = ap.parse_args()
    root = Path.cwd()
    if not (root / "bench" / "run.py").is_file():
        print("trajectory: run from a checkout root (no bench/run.py here)", file=sys.stderr)
        return 2
    if args.read:
        doc = json.loads(args.read.read_text())
    elif args.seeds:
        doc = record(root, args.seeds)
        if args.out:
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    else:
        ap.error("give --seeds to run, or --read to compare a record")
    if args.against:
        compare(doc, json.loads(args.against.read_text()), root)
    elif not args.out:
        print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
