"""colorgraph benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

    python3 bench/run.py --workload dense-chisq --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload, one after another

Run from the root of a checkout; the program is imported from ./src. The
process starts at most one child at a time: one fresh worker per workload
(bench/worker.py), which times the set-up probes between its ops. BLAS and
OpenMP pools are pinned to one thread and ``simulate`` runs with one worker.

``--seconds`` fixes the work, not a time budget: it becomes a number of
passes over the workload's ops through PASS_SECONDS, the time one pass took
on the 2-core x86 machine that defined the benchmark. Both sides of a
comparison therefore run identical ops, so op counts, percentile ranks and
work counts line up. The last line of stdout is the result as JSON; a full
report (environment, every op, digests, spans) goes to .bench_out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("dense-chisq", "regime-sweep", "readme-cli")
# seconds one pass took, its checks included, on the 2-core x86 machine that defined the benchmark
PASS_SECONDS = {"dense-chisq": 1.05, "regime-sweep": 2.8, "readme-cli": 11.6}
# the nominal times of the host reference's parts (worker.py times hostref.reference_seconds before
# each op and after each pass): its computation, and for readme-cli its child start-up. They are
# round figures near a quiet stretch of the 2-core x86 machine that defined the benchmark; setup_s
# and the *_norm_* metrics give times at the host speed where the reference takes them
REF_NOMINAL_S = (0.015, 0.100)
# readme-cli's 15 commands differ in cost by up to 10x. With 4 passes (60 ops) the tail rank
# lands inside one command's cluster (limit on regular:2000:3:5) instead of on the edge
# between two, and the op tail always compares the same command across commits.
MIN_PASSES = {"dense-chisq": 6, "regime-sweep": 3, "readme-cli": 4}
TAIL_BEYOND = 10  # op tail: highest percentile with at least this many ops above it
IMPORT_PROBES = 3
TRACED_PROCESSES = 2  # their work counts must agree exactly
TRACED_SHARE = 6  # each process of a traced run runs 1/TRACED_SHARE of the passes, at least one
# a run stops with an error after the longer of TIME_LIMIT_S and LIMIT_FACTOR times its planned work
TIME_LIMIT_S = 170.0
LIMIT_FACTOR = 3.0
# traced run: program time that no layer span covers may be at most this share of the traced wall
UNATTRIBUTED_MAX_FRAC = 0.05
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

BENCH_DIR = Path(__file__).resolve().parent


class BenchError(RuntimeError):
    pass


def passes_for(workload: str, seconds: int) -> int:
    return max(MIN_PASSES[workload], round(seconds / PASS_SECONDS[workload]))


def traced_passes(workload: str, seconds: int) -> int:
    return max(1, passes_for(workload, seconds) // TRACED_SHARE)


def time_limit(workload: str, seconds: int, trace: int) -> float:
    if trace == 0:
        planned = passes_for(workload, seconds) * PASS_SECONDS[workload]
    else:
        planned = (1 + TRACED_PROCESSES) * traced_passes(workload, seconds) * PASS_SECONDS[workload]
    return max(TIME_LIMIT_S, LIMIT_FACTOR * planned)


def pinned_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["COLORGRAPH_WORKERS"] = "1"
    env["PYTHONPATH"] = str(root / "src")
    return env


# -- children ----------------------------------------------------------------------


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("the run exceeded its time limit")
        return left


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def run_worker(args: list, env: dict, deadline: Deadline) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), *args, "--deadline-s", f"{deadline.left():.1f}"]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=deadline.left())
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} exceeded the time limit") from None
    finally:
        _stop(proc)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} failed ({proc.returncode}): {err.strip()[-800:]}")
    return json.loads(lines[-1])


IMPORT_PROBE = ("import time; t = time.perf_counter(); import colorgraph.cli; "
                "print(repr(time.perf_counter() - t))")


def import_seconds(env: dict, deadline: Deadline) -> list:
    out = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                              text=True, timeout=deadline.left())
        if proc.returncode != 0:
            raise BenchError(f"import probe failed: {proc.stderr.strip()[-500:]}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


# -- metrics -----------------------------------------------------------------------


def tail(values: list) -> tuple[float, float]:
    """(value, percentile) of the highest rank with at least TAIL_BEYOND values above it."""
    ordered = sorted(values)
    rank = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


# measured times that BENCHMARK.json does not gate: the summary and the report show them
RAW_UNITS = {"setup_measured_s": "s", "wall_s": "s", "colorings_per_s": "colorings/s", "op_ms_p50": "ms",
             "op_ms_tail": "ms", "host_ref_ms": "ms"}


def e2e_metrics(res: dict) -> tuple[dict, dict]:
    """Measured and normalized end-to-end values.

    An op's speed factor is the nominal reference time over the mean of the
    reference times taken just before and just after it. setup_s and the
    *_norm_* metrics are times multiplied by the factor of their op (a
    set-up probe takes the factor of the op it precedes), which cancels
    the host's drift.
    """
    refs = res["pass_ref_s"]
    nominal = sum(REF_NOMINAL_S[:len(refs[0][0])])
    per_pass = len(refs[0]) - 1
    factor = [nominal / ((sum(pass_refs[i]) + sum(pass_refs[i + 1])) / 2)
              for pass_refs in refs for i in range(per_pass)]
    setup = res["setup_s"]
    norm_setup = [t * factor[k] for t, k in zip(setup, res["setup_op"])]
    ms = [op["ms"] for op in res["ops"]]
    norm_ms = [m * f for m, f in zip(ms, factor)]
    walls = res["pass_wall_s"]
    norm_walls = [sum(norm_ms[p * per_pass:(p + 1) * per_pass]) / 1e3 for p in range(len(walls))]
    colorings = res["pass_colorings"]
    tail_ms, tail_pct = tail(ms)
    norm_tail_ms, _ = tail(norm_ms)
    values = {
        "setup_s": statistics.median(norm_setup),
        "wall_norm_s": statistics.median(norm_walls),
        "colorings_per_norm_s": statistics.median(c / w for c, w in zip(colorings, norm_walls)),
        "op_norm_ms_p50": statistics.median(norm_ms),
        "op_norm_ms_tail": norm_tail_ms,
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_measured_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "colorings_per_s": statistics.median(c / w for c, w in zip(colorings, walls)),
        "op_ms_p50": statistics.median(ms),
        "op_ms_tail": tail_ms,
        "host_ref_ms": 1e3 * statistics.median(sum(r) for pass_refs in refs for r in pass_refs),
    }
    passes = f"median of {len(walls)} passes"
    tail_note = f"p{tail_pct:.1f} of {len(ms)} ops"
    samples = {"setup_s": f"median of {len(setup)} set-ups spread over the run",
               "setup_measured_s": f"median of {len(setup)} set-ups spread over the run",
               "wall_norm_s": passes, "colorings_per_norm_s": passes, "op_norm_ms_p50": f"{len(ms)} ops",
               "op_norm_ms_tail": tail_note, "peak_rss_mb": "1 process",
               "wall_s": passes, "colorings_per_s": passes, "op_ms_p50": f"{len(ms)} ops",
               "op_ms_tail": tail_note,
               "host_ref_ms": f"median of {sum(len(r) for r in refs)} reference runs"}
    return values, samples


def layer_metrics(import_s: list, untraced: dict, traced: list) -> tuple[dict, list]:
    """Mean of the traced processes; every work count must repeat exactly across them."""
    from spans import COUNTS  # noqa: E402  (stdlib-only otherwise)

    problems = []
    first = traced[0]["metrics"]
    for other in traced[1:]:
        for name in COUNTS:
            if other["metrics"][name] != first[name]:
                problems.append(f"{name} did not repeat: {first[name]} vs {other['metrics'][name]}")
    values = {}
    for name in first:
        vals = [t["metrics"][name] for t in traced]
        values[name] = vals[0] if name in COUNTS else statistics.fmean(vals)
    traced_wall = statistics.fmean(t["wall_s"] for t in traced)
    values["cli.import_s"] = statistics.median(import_s)
    values["trace.overhead_frac"] = (traced_wall - untraced["wall_s"]) / untraced["wall_s"]
    for t in traced:  # the layer spans must cover nearly all of the traced wall
        share = t["metrics"]["trace.unattributed_s"] / t["wall_s"]
        if not 0.0 <= share <= UNATTRIBUTED_MAX_FRAC:
            problems.append(f"layer spans leave {share:.1%} of the traced wall unattributed "
                            f"(limit {UNATTRIBUTED_MAX_FRAC:.0%})")
    return values, problems


# -- environment ---------------------------------------------------------------------


def _git(root: Path, *args) -> str | None:
    try:
        proc = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(root: Path, env: dict, worker: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "colorgraph").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    in_repo = _git(root, "rev-parse", "--show-toplevel") == str(root)
    sha = _git(root, "rev-parse", "HEAD") if in_repo else None
    status = _git(root, "status", "--porcelain") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": worker.get("numpy"),
        "blas": worker.get("blas"),
        "blas_version": worker.get("blas_version"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {var: env[var] for var in THREAD_VARS},
        "colorgraph_workers": env["COLORGRAPH_WORKERS"],
    }


# -- one workload ----------------------------------------------------------------------


def run_workload(root: Path, workload: str, seed: int, seconds: int, trace: int, deadline: Deadline) -> dict:
    env = pinned_env(root)
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    passes = passes_for(workload, seconds)
    base = ["--workload", workload, "--seed", str(seed)]
    workdir = out_dir / f"work-{workload}-{seed}"
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}

    if trace == 0:
        res = run_worker([*base, "--mode", "run", "--passes", str(passes), "--workdir", str(workdir)],
                         env, deadline)
        values, samples = e2e_metrics(res)
        units = declared_units("end_to_end")
        ops, problems = res["ops"], []
        report.update(passes=passes, setup_s_samples=res["setup_s"], setup_op=res["setup_op"],
                      pass_wall_s=res["pass_wall_s"], pass_ref_s=res["pass_ref_s"])
    else:
        tp = traced_passes(workload, seconds)
        work = [*base, "--passes", str(tp), "--workdir", str(workdir)]
        untraced = run_worker([*work, "--mode", "untraced"], env, deadline)
        traced = []
        for k in range(TRACED_PROCESSES):
            spans_out = out_dir / f"spans-{workload}-{seed}-{k}.json"
            traced.append(run_worker([*work, "--mode", "traced", "--spans-out", str(spans_out)],
                                     env, deadline))
        values, problems = layer_metrics(import_seconds(env, deadline), untraced, traced)
        units = declared_units("per_layer")
        samples = {}
        res = traced[0]
        ops = untraced["ops"] + [op for t in traced for op in t["ops"]]
        report.update(passes=tp, traced_wall_s=[t["wall_s"] for t in traced],
                      untraced_wall_s=untraced["wall_s"],
                      layer_self_s=[t["layer_self_s"] for t in traced])

    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    failed = sum(1 for op in ops if not op["ok"])
    report.update(environment=environment(root, env, res), metrics=values, samples=samples,
                  problems=problems, ops=ops, attempted=len(ops), failed=failed)
    (out_dir / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(report, indent=1))
    return {
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items() if name in units},
        "measured": {name: {"value": v, "unit": RAW_UNITS[name]} for name, v in values.items() if name in RAW_UNITS},
        "samples": samples,
        "problems": problems,
        "failures": [f"{op['name']} (pass {op['pass']}): {op['errors'][0]}" for op in ops if not op["ok"]][:5],
    }


def declared_units(kind: str) -> dict:
    """name -> unit of every metric BENCHMARK.json declares under ``kind``."""
    doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def print_summary(workload: str, result: dict) -> None:
    print(f"== {workload}")
    for name, m in {**result["metrics"], **result["measured"]}.items():
        note = result["samples"].get(name, "")
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']:<12s} {note}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'ops_failed_frac':34s} {frac:>16.6g} {'fraction':<12s} "
          f"{result['failed']} of {result['attempted']} ops")
    for line in result["problems"] + result["failures"]:
        print(f"  FAIL {line}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = Path.cwd()
    if not (root / "src" / "colorgraph" / "__init__.py").is_file():
        print(f"bench: no colorgraph sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = Deadline(sum(time_limit(name, args.seconds, args.trace) for name in names))
    results = {}
    try:
        for name in names:
            results[name] = run_workload(root, name, args.seed, args.seconds, args.trace, deadline)
            print_summary(name, results[name])
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}}
    else:
        r = results[args.workload]
        final = {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
