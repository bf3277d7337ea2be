"""One workload in one fresh process; started by run.py, one at a time.

Modes:
  setup     import colorgraph, build the workload's hosts, print "ready" and exit
  run       the untraced timed run; set-up probes are spread over its ops, and
            the host reference (hostref.py) is timed before each op and after
            each pass: a computation, plus a child start-up for readme-cli
  untraced  the fixed work of a traced run, without the tracer
  traced    the same work with every layer wrapped; spans go to --spans-out

Library workloads run their ops in this process. readme-cli runs each command
as a child process in ``run`` mode and in process through ``cli.main`` in the
other two modes. Every op is timed alone and checked right after its timed
region. The process starts at most one child at a time. The last line of
stdout is one JSON object for run.py.
"""
from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import importlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostref
import workloads as W
from spans import LAYERS, Tracer

SETUP_PROBES = 15


def _checked(check, *args) -> tuple[list, dict | None]:
    try:
        out = check(*args)
    except Exception:  # a check that cannot read the output fails the op
        return [f"check raised: {traceback.format_exc(limit=3)}"], None
    return out if isinstance(out, tuple) else (out, None)


def _op_record(name: str, pass_index: int, seconds: float, errs: list, extra: dict | None) -> dict:
    rec = {"name": name, "pass": pass_index, "ms": seconds * 1e3, "ok": not errs, "errors": errs[:5]}
    if extra:
        rec["simulation"] = extra
    return rec


def _blas_info() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = deps.get("blas", {})
        return {"numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version")}
    except (TypeError, AttributeError):
        return {"numpy": np.__version__, "blas": None, "blas_version": None}


def _no_span(name: str):
    return contextlib.nullcontext()


# -- set-up probes ---------------------------------------------------------------


def setup_probe_argv(workload: str, seed: int) -> list:
    if workload == "readme-cli":
        return [sys.executable, "-m", "colorgraph.cli", "--version"]
    return [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--mode", "setup"]


def time_to_first_line(argv: list, deadline: float) -> float:
    """Seconds from process start to its first line of stdout; the process must then exit 0."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if not line.strip() or proc.returncode != 0:
        raise RuntimeError(f"set-up probe {argv[1:]} failed: {err.strip()[-500:]}")
    return dt


class SetupProbes:
    """SETUP_PROBES fresh set-up processes, spread evenly between a run's ops.

    Spreading them over the run, instead of timing them all before it, lets
    the median see the same stretch of host speed as the ops do. Each probe
    records the index of the op it precedes, so run.py can scale it by that
    op's speed factor.
    """

    def __init__(self, argv: list, total_ops: int, deadline: float):
        self.argv, self.deadline = argv, deadline
        self.before = collections.Counter(k * total_ops // SETUP_PROBES for k in range(SETUP_PROBES))
        self.next_op = 0
        self.seconds: list[float] = []
        self.ops: list[int] = []

    def before_op(self) -> None:
        for _ in range(self.before[self.next_op]):
            self.seconds.append(time_to_first_line(self.argv, self.deadline))
            self.ops.append(self.next_op)
        self.next_op += 1


# -- library workloads -------------------------------------------------------------


def run_library(workload: str, seed: int, passes: int, tracer: Tracer | None = None,
                probes: SetupProbes | None = None, ref=None) -> dict:
    span = tracer.span if tracer else _no_span
    ops = W.OPS[workload]()
    t0 = time.perf_counter()
    with span("bench.setup"):
        hosts = W.build_hosts(workload)
    build_s = time.perf_counter() - t0
    records, walls, refs = [], [], []
    for p in range(passes):
        wall, pass_refs = 0.0, []
        for i, op in enumerate(ops):
            if probes:
                probes.before_op()
            if ref:
                pass_refs.append(ref())
            s = W.op_seed(seed, p, i)
            t0 = time.perf_counter()
            with span(f"bench.op:{op.name}"):
                try:
                    out, failure = op.run(hosts, s), None
                except Exception:
                    out, failure = None, f"op raised: {traceback.format_exc(limit=3)}"
            dt = time.perf_counter() - t0
            errs, extra = ([failure], None) if failure else _checked(op.check, hosts, out, s)
            records.append(_op_record(op.name, p, dt, errs, extra))
            wall += dt
        walls.append(wall)
        if ref:
            pass_refs.append(ref())
            refs.append(pass_refs)
    return {"ops": records, "pass_wall_s": walls, "pass_ref_s": refs, "wall_s": build_s + sum(walls),
            "pass_colorings": [sum(op.colorings for op in ops)] * passes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


# -- readme-cli ----------------------------------------------------------------------


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def invoke_child(args: list, cwd: Path, deadline: float) -> tuple[int, str, str]:
    """One command as `python3 -m colorgraph.cli`; returns (exit code, stdout, stderr)."""
    proc = subprocess.run([sys.executable, "-m", "colorgraph.cli", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    return proc.returncode, proc.stdout, proc.stderr


def invoke_in_process(args: list, cwd: Path, deadline: float) -> tuple[int, str, str]:
    """cli.main in this process, with its output captured; returns (exit code, stdout, stderr)."""
    import click

    cli = importlib.import_module("colorgraph.cli")
    buf, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            try:
                cli.main(args, prog_name="colorgraph", standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except click.exceptions.ClickException as exc:
                code = exc.exit_code
    finally:
        os.chdir(here)
    return code, buf.getvalue(), err.getvalue()


def run_cli(seed: int, passes: int, workdir: Path, deadline: float, invoke, tracer: Tracer | None = None,
            probes: SetupProbes | None = None, ref=None) -> dict:
    span = tracer.span if tracer else _no_span
    records, walls, colorings, refs = [], [], [], []
    dirs = [_fresh_dir(workdir / f"pass{p}") for p in range(passes)]
    for p, cwd in enumerate(dirs):
        wall, pass_refs = 0.0, []
        commands = W.readme_commands(W.op_seed(seed, p, 100), W.op_seed(seed, p, 101))
        for cmd in commands:
            if probes:
                probes.before_op()
            if ref:
                pass_refs.append(ref())
            t0 = time.perf_counter()
            with span(f"bench.op:{cmd.name}"), span("cli.main"):
                try:
                    code, stdout, stderr = invoke(cmd.args, cwd, deadline)
                    failure = None
                except Exception:
                    code, stdout, stderr = None, "", ""
                    failure = f"op raised: {traceback.format_exc(limit=3)}"
            dt = time.perf_counter() - t0
            errs = [failure] if failure else _checked(cmd.check, cwd, stdout, code)[0]
            if errs and stderr:
                errs.append(f"stderr: {stderr.strip()[-300:]}")
            if tracer:
                tracer.counts["cli.bytes_written"] += W.output_bytes(cwd, cmd.args, stdout)
            records.append(_op_record(cmd.name, p, dt, errs, None))
            wall += dt
        walls.append(wall)
        colorings.append(sum(cmd.colorings for cmd in commands))
        if ref:
            pass_refs.append(ref())
            refs.append(pass_refs)
    shutil.rmtree(workdir, ignore_errors=True)
    return {"ops": records, "pass_wall_s": walls, "pass_ref_s": refs, "wall_s": sum(walls),
            "pass_colorings": colorings,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}


# -- entry point -----------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--mode", choices=("setup", "run", "untraced", "traced"), required=True)
    ap.add_argument("--workdir", type=Path, default=None)
    ap.add_argument("--spans-out", type=Path, default=None)
    ap.add_argument("--deadline-s", type=float, default=150.0)
    args = ap.parse_args()
    deadline = time.monotonic() + args.deadline_s
    cli_workload = args.workload == "readme-cli"

    if args.mode == "setup":
        W.build_hosts(args.workload)
        print("ready", flush=True)
        return 0
    probes = tracer = ref = None
    if args.mode == "run":
        ref = functools.partial(hostref.reference_seconds, cli_workload)
        per_pass = len(W.readme_commands(0, 0)) if cli_workload else len(W.OPS[args.workload]())
        probes = SetupProbes(setup_probe_argv(args.workload, args.seed), per_pass * args.passes, deadline)
    else:
        for layer in LAYERS:  # both modes import every layer before the timed region
            importlib.import_module(f"colorgraph.{layer}")
        if args.mode == "traced":
            tracer = Tracer()
            tracer.install()
    if cli_workload:
        invoke = invoke_child if args.mode == "run" else invoke_in_process
        result = run_cli(args.seed, args.passes, args.workdir, deadline, invoke, tracer, probes, ref)
    else:
        result = run_library(args.workload, args.seed, args.passes, tracer, probes, ref)
    if probes:
        result["setup_s"], result["setup_op"] = probes.seconds, probes.ops
    if tracer:
        tracer.uninstall()
        result["metrics"] = tracer.layer_metrics(result["wall_s"])
        result["layer_self_s"] = tracer.self_by_layer()
        result["span_records"] = len(tracer.records)
        if args.spans_out:
            args.spans_out.write_text(json.dumps(tracer.dump()))
    result.update(_blas_info())
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
