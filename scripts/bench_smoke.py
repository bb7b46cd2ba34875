#!/usr/bin/env python3
"""Run every benchmark workload once, traced, and fail unless each run
is correct with no failed operation, its traced psi.csv error against
the closed form (`solver.psi_rel_err`) is at most 1e-12 and its traced
`verify.min_headroom` (tolerance over value of the tightest verify
check) is at least 2.  Every verify tolerance is `verify.SAFETY` = 4
times its error model, so a check under half its safety factor is
drifting toward its bound.

A traced run fails loudly when a must-fire counter reads 0, so this
also catches a renamed wrapped function (such as `integrate_rect`) and
a broken oracle.  The benchmark's own oracle tolerance on psi.csv is
1e-5, loose enough to pass a quadrature rule that has lost ten digits;
the exported grids are right to about 1e-14 of max|psi|.

The traced work counters are deterministic, so each run also fails when
a counter exceeds its ceiling in COUNTER_CEILINGS (the counts at seed 1):
a regression there shows even when timings are too noisy to.  The
streamline counters (`kinematics.rk4_steps`, the accepted
Dormand-Prince steps, and the velocity and psi evaluations they make)
were set when the tracer became error-controlled (ROADMAP item 1); a
change to its tolerances re-sets them, on builtin-flow and on the
ungated quad-cosine `flow` op, whose streamline now closes.  A change to
the verify lattice, to the Riemann oracle (one `riemann_psi` call per
quadrature solve, summing one midpoint table at each of n, n/2, n/4 and
n/8 cells per axis, n about half of N = 4 ceil(max(256, 64 m) / 4), for
two Richardson levels; ROADMAP item 12 set `quadrature.riemann_nodes`
from 616,770 to 156,230 and `quadrature.stress_evals` from 1,090,609 to
531,700 when it replaced one level at N), to the Gauss order of
`default_quadrature_spec`, to the 1-D ridge rule that `integrate_rect`
runs for a cosine stress (`ridge=True`; ROADMAP item 9) or to the export
lattice's `cell_table`, which integrates its cells through
`integrate_rect` (one cell per diagonal for a ridge), re-sets the
quad-cosine quadrature and verify ones; a change that lowers a count
should lower its ceiling.  The `kinematics.velocity_evals` ceilings
(builtin-flow from 32,659 to 24,751, quad-cosine new at 683, 697
before) were set when the stagnation search came to evaluate each
Newton iterate once.  The symbolic-exact `polyalg.compose_calls` (381
to 51) and `polyalg.mul_calls` (364 to 34) ceilings, and builtin-flow's
`polyalg.compose_calls` (18 to 6), were set when the characteristic
antiderivative H, psi and the residual R came to be read off their
input's terms by binomial expansion: `compose` is left to the AB gate
and the exact boundary checks of each solve.

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
COUNTER_CEILINGS = {
    "quad-cosine": {"quadrature.nodes": 343_114, "quadrature.stress_evals": 531_700,
                    "quadrature.riemann_nodes": 156_230, "verify.riemann_psi_calls": 2,
                    "kinematics.rk4_steps": 96, "kinematics.velocity_evals": 683},
    "symbolic-exact": {"polyalg.compose_calls": 51, "polyalg.mul_calls": 34,
                       "compatibility.exact_residual_calls": 93},
    "builtin-flow": {"polyalg.compose_calls": 6, "compatibility.exact_residual_calls": 2,
                     "kinematics.velocity_evals": 24_751, "kinematics.rk4_steps": 2_413,
                     "kinematics.jacobian_calls": 6_435, "solver.psi_evals": 2_437},
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seconds", default="1")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    bad = []
    for name in names:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "1",
             "--seconds", args.seconds, "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        over = []
        try:
            result = json.loads(lines[-1])
            metrics = result["metrics"]
            psi_err = metrics["solver.psi_rel_err"]["value"]
            headroom = metrics["verify.min_headroom"]["value"]
            over = [f"{key} {metrics[key]['value']} > {ceiling}"
                    for key, ceiling in COUNTER_CEILINGS.get(name, {}).items()
                    if metrics[key]["value"] > ceiling]
            ok = (proc.returncode == 0 and result["correct"] is True and result["failed"] == 0
                  and psi_err <= PSI_REL_ERR_MAX and headroom >= HEADROOM_MIN and not over)
        except (IndexError, ValueError, KeyError, TypeError):
            ok, psi_err, headroom = False, None, None
        print(f"{name}: {'ok' if ok else 'FAILED'} (exit {proc.returncode}, psi_rel_err {psi_err}, "
              f"verify.min_headroom {headroom})"
              + "".join(f"; {o}" for o in over))
        if not ok:
            bad.append(name)
            sys.stdout.write(proc.stdout[-4000:])
            sys.stdout.write(proc.stderr[-4000:])
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
