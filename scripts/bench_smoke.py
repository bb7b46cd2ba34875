#!/usr/bin/env python3
"""Run every benchmark workload once traced and once untraced, and fail
unless each run exits 0, correct, with no failed operation.

The traced run (seed 1) also fails unless its psi.csv error against the
closed form (`solver.psi_rel_err`) is at most 1e-12 and its
`verify.min_headroom` (tolerance over value of the tightest verify
check) is at least 2.  Every verify tolerance is `verify.SAFETY` = 4
times its error model, so a check under half its safety factor is
drifting toward its bound.  A traced run fails loudly when a must-fire
counter reads 0, so this also catches a renamed wrapped function (such
as `integrate_rect`) and a broken oracle.  The benchmark's own oracle
tolerance on psi.csv is 1e-5, loose enough to pass a quadrature rule
that has lost ten digits; the exported grids are right to about 1e-14
of max|psi|.

The traced work counters are deterministic, so the traced run also
fails when a counter exceeds its ceiling in COUNTER_CEILINGS: a
regression there shows even when timings are too noisy to.  Each
ceiling is the count traced at seed 1.  A change that lowers a count
lowers its ceiling; a change that raises one re-sets it, and CHANGES.md
gives the reason.

The untraced run (seed 2, 2 s) takes the paths that the benchmark's
timed passes take and the traced pass does not, such as the reference
kernel's sampling, which raises when a pass takes no sample.

Usage: python scripts/bench_smoke.py [--seconds S]
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
PSI_REL_ERR_MAX = 1e-12
HEADROOM_MIN = 2.0
UNTRACED_SECONDS = "2"
COUNTER_CEILINGS = {
    "quad-cosine": {"quadrature.nodes": 1_533, "quadrature.stress_evals": 316_706,
                    "quadrature.riemann_nodes": 156_230, "verify.riemann_psi_calls": 2,
                    "kinematics.rk4_steps": 96, "kinematics.velocity_evals": 683},
    "symbolic-exact": {"polyalg.compose_calls": 51, "polyalg.mul_calls": 34,
                       "compatibility.exact_residual_calls": 93},
    "builtin-flow": {"polyalg.compose_calls": 6, "compatibility.exact_residual_calls": 2,
                     "kinematics.velocity_evals": 24_751, "kinematics.rk4_steps": 2_413,
                     "kinematics.jacobian_calls": 6_435, "solver.psi_evals": 2_437},
}


def run(name: str, *flags: str):
    """perfbench/run.py on one workload: the finished process and its
    result object (None when the last line of stdout is not one)."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", name, *flags],
                          cwd=ROOT, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    return proc, result if isinstance(result, dict) else None


def clean(proc, result) -> bool:
    """The run exited 0, correct, with no failed operation."""
    return proc.returncode == 0 and result is not None and result.get("correct") is True and result.get("failed") == 0


def report(label: str, ok: bool, proc, detail: str) -> bool:
    print(f"{label}: {'ok' if ok else 'FAILED'} (exit {proc.returncode}, {detail})")
    if not ok:
        sys.stdout.write(proc.stdout[-4000:])
        sys.stdout.write(proc.stderr[-4000:])
    return ok


def check_traced(name: str, seconds: str) -> bool:
    proc, result = run(name, "--seed", "1", "--seconds", seconds, "--trace", "1")
    over = []
    try:
        metrics = result["metrics"]
        psi_err = metrics["solver.psi_rel_err"]["value"]
        headroom = metrics["verify.min_headroom"]["value"]
        over = [f"{key} {metrics[key]['value']} > {ceiling}"
                for key, ceiling in COUNTER_CEILINGS.get(name, {}).items()
                if metrics[key]["value"] > ceiling]
        ok = clean(proc, result) and psi_err <= PSI_REL_ERR_MAX and headroom >= HEADROOM_MIN and not over
    except (KeyError, TypeError):
        ok, psi_err, headroom = False, None, None
    return report(f"{name} traced", ok, proc,
                  f"psi_rel_err {psi_err}, verify.min_headroom {headroom}" + "".join(f"; {o}" for o in over))


def check_untraced(name: str) -> bool:
    proc, result = run(name, "--seed", "2", "--seconds", UNTRACED_SECONDS)
    ok = clean(proc, result)
    latency = result["metrics"].get("latency_ref", {}).get("value") if ok else None
    return report(f"{name} untraced", ok, proc, f"latency_ref {latency}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seconds", default="1")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    ok = True
    for name in names:
        ok &= check_traced(name, args.seconds)
        ok &= check_untraced(name)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
