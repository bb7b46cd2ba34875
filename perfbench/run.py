#!/usr/bin/env python3
"""Benchmark for cavitystream.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload quad-cosine --seed 1 --seconds 30 --trace 0

One process, one caller, one operation at a time (a closed loop), with
BLAS/OpenMP threads pinned to 1.  A run measures set-up (fresh
interpreters importing ``cavitystream.cli``), makes one warm-up pass
over the workload's operations, then timed passes for at most
``--seconds`` (at least one).  During the timed passes a reference
kernel is sampled (see ``reference.py``), and the bounded latency is
reported in units of that kernel's time, which follows the host's
speed.  With ``--trace 1`` one more pass runs with span wrappers
installed (see ``tracing.py``) and the per-layer metrics are printed
instead of the end-to-end ones.  Every operation's output is checked
against an independent reference; a nonzero exit, an uncaught exception
or a failed check counts the operation as failed and the run goes on.

The last line of stdout is the result object; the line before it holds
the run metadata, per-operation times, failures and, when traced, the
span table.  Metric names, units and directions come from BENCHMARK.json.
"""

import os

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)  # before numpy is imported, here or in a child

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import numpy

from oracles import CheckFailed, tree_digest
from reference import HostClock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 7


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing cavitystream.cli."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-c", "import cavitystream.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)  # writes bytecode caches
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Runner:
    """Runs operations, checks their outputs and keeps the failure tally."""

    def __init__(self, ops, clock: HostClock):
        self.ops = ops
        self.clock = clock
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: dict[tuple[str, str, str], dict] = {}

    def run_pass(self) -> list[dict]:
        return [self.run_op(op) for op in self.ops]

    def run_op(self, op) -> dict:
        if op.out:
            shutil.rmtree(op.out, ignore_errors=True)
        captured = io.StringIO()
        error = value = None
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            spent = self.clock.spent
            t0 = perf_counter()
            try:
                value = op.call()
            except (Exception, SystemExit) as exc:
                error = (type(exc).__name__, str(exc))
            seconds = perf_counter() - t0 - (self.clock.spent - spent)
        facts = {}
        if error is None:
            try:
                facts = op.check(value)
                if op.out:
                    digest = self.digests.setdefault(op.name, tree_digest(op.out))
                    if tree_digest(op.out) != digest:
                        raise CheckFailed("outputs differ from the first pass")
            except CheckFailed as exc:
                error = ("CheckFailed", str(exc))
                self.wrong += 1
        self.attempted += 1
        if error is not None:
            self.failed += 1
            rec = self.failures.setdefault((op.name, *error), {"op": op.name, "error": error[0], "message": error[1][:300],
                                                   "output_tail": captured.getvalue()[-300:], "count": 0})
            rec["count"] += 1
        return {"op": op.name, "command": op.command, "seconds": seconds, "ok": error is None, "facts": facts}


def _median_or_zero(values: list) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def latency_ref(passes, ops) -> float:
    """Latency of one pass in reference-kernel units: the sum over the
    gated operations of the median, over passes, of each call's time
    divided by the pass's median reference time."""
    return sum(statistics.median(r["seconds"] / r["ref_s"] for results in passes for r in results if r["op"] == op.name)
               for op in ops if op.gated)


def command_seconds(passes, command):
    """Median over passes of the summed time of the command's successful calls."""
    per_pass = []
    for results in passes:
        ok = [r["seconds"] for r in results if r["command"] == command and r["ok"]]
        per_pass.append(sum(ok) if ok else None)
    return _median_or_zero(per_pass)


def command_rate(passes, command, fact=None):
    """Median over passes of work done per second of the command's
    successful calls; work is the call count or a summed fact."""
    per_pass = []
    for results in passes:
        ok = [r for r in results if r["command"] == command and r["ok"]]
        seconds = sum(r["seconds"] for r in ok)
        work = sum(r["facts"][fact] for r in ok) if fact else len(ok)
        per_pass.append(work / seconds if seconds > 0 else None)
    return _median_or_zero(per_pass)


def metadata(args) -> dict:
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "cavitystream")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            with open(os.path.join(dirpath, name), "rb") as fh:
                src.update(name.encode() + hashlib.sha256(fh.read()).digest())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "loop": "closed, one caller, one operation at a time",
    }


def emit(spec_metrics: list[dict], values: dict) -> dict:
    want = [m["name"] for m in spec_metrics]
    if sorted(want) != sorted(values):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(want)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def bench(args, spec, work) -> int:
    # both import cavitystream, which main() has just put on sys.path
    import tracing
    import workloads

    setup_s = measure_setup()
    clock = HostClock(workloads.REFERENCE[args.workload])
    runner = Runner(workloads.build(args.workload, args.seed, work), clock)
    warm = runner.run_pass()
    timed = []
    start = perf_counter()
    pass_s = 0.0
    with clock.sampling():
        # no pass starts that would be expected to end past the deadline
        while not timed or perf_counter() - start + pass_s < args.seconds:
            t0, first = perf_counter(), len(clock.samples)
            results = runner.run_pass()
            pass_s = perf_counter() - t0
            if len(clock.samples) == first:
                raise RuntimeError("a timed pass took no reference sample")
            ref_s = statistics.median(clock.samples[first:])
            timed.append([dict(r, ref_s=ref_s) for r in results])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = [sum(r["seconds"] for r in results) for results in timed]
    wall_s = statistics.median(walls)

    report = {"meta": metadata(args), "passes": len(timed), "pass_wall_s": walls, "wall_s": wall_s,
              "pass_ref_s": [results[0]["ref_s"] for results in timed], "ref_samples": len(clock.samples)}
    if args.trace:
        with tracing.traced() as t:
            traced = runner.run_pass()
        layers = tracing.layer_metrics(t)
        rel_errs = [r["facts"]["psi_rel_err"] for r in traced if r["ok"] and "psi_rel_err" in r["facts"]]
        layers.update({
            "solver.psi_rel_err": max(rel_errs, default=0.0),
            "trace.overhead_s": sum(r["seconds"] for r in traced) - wall_s,
            "check_s": command_seconds(timed, "check"),
            "solve_s": command_seconds(timed, "solve"),
            "flow_s": command_seconds(timed, "flow"),
            "examples_s": command_seconds(timed, "examples"),
            "grid_pts_per_s": command_rate(timed, "solve", "grid_rows"),
            "symbolic_solves_per_s": command_rate(timed, "solve-symbolic"),
            "exact_solves_per_s": command_rate(timed, "solve-bound"),
            "ops_failed_frac": runner.failed / runner.attempted,
        })
        silent = [name for name in workloads.MUST_FIRE[args.workload] if not layers[name] > 0]
        if silent:
            raise RuntimeError(f"wrappers recorded nothing on {args.workload}: {', '.join(silent)}")
        metrics = emit(spec["per_layer"], layers)
        report["spans"] = tracing.span_table(t)
    else:
        metrics = emit(spec["end_to_end"], {
            "setup_s": setup_s,
            "latency_ref": latency_ref(timed, runner.ops),
            "peak_rss_mb": peak_rss_mb,
            "ops_ok_frac": 1.0 - runner.failed / runner.attempted,
        })

    all_passes = [warm, *timed] + ([traced] if args.trace else [])
    report["ops"] = {
        op.name: {
            "command": op.command,
            "median_s": statistics.median(r["seconds"] for p in timed for r in p if r["op"] == op.name),
            "median_ref": statistics.median(r["seconds"] / r["ref_s"] for p in timed for r in p if r["op"] == op.name),
            "gated": op.gated,
            "failed": sum(1 for p in all_passes for r in p if r["op"] == op.name and not r["ok"]),
        }
        for op in runner.ops
    }
    report["failures"] = list(runner.failures.values())
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "cavitystream", "cli.py")):
        print(f"error: no cavitystream sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work_root = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        return bench(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)


if __name__ == "__main__":
    sys.exit(main())
