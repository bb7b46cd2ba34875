"""The three benchmark workloads, built from a seed.

Each workload is a list of operations.  An operation is one call into
the program (``cavitystream.cli.run`` or a library function) and a
check of its output against a reference from ``oracles``.  The seed
fixes the order of the operations and, for symbolic-exact, the
polynomials solved; the program sees only the generated inputs.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

# Library calls go through the module attribute, so that the traced
# pass's wrappers (installed on the modules) see them.
from cavitystream import cli, compatibility, solver
from cavitystream.geometry import TriangleDomain
from cavitystream.polyalg import BivariatePoly

import oracles as o
import reference
from oracles import require

# Shared with the closed-form psi.csv comparison; today's worst case
# (m=15, a=0.25) sits at 1.4e-6.
COSINE_REL_TOL = 1e-5
EXACT_REL_TOL = 1e-9


@dataclass
class Op:
    """One timed call and the check of what it returned.

    ``command`` groups operations for the per-command metrics; ``out``
    is the CLI output directory, emptied before the call and compared
    byte for byte across passes.  An operation that is not ``gated``
    still counts in ``attempted`` and ``failed`` but stays out of the
    bounded latency.
    """

    name: str
    command: str
    call: Callable[[], Any]
    check: Callable[[Any], dict]
    out: str | None = None
    gated: bool = True


def _write_config(work: str, name: str, doc: dict) -> str:
    path = os.path.join(work, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _cli_op(name: str, command: str, args: list[str], out: str, check: Callable[[str], dict],
            gated: bool = True) -> Op:
    def call():
        return cli.run([command, *args, "--out", out, "--quiet"])

    def full_check(rc):
        require(rc == 0, f"exit code {rc}")
        return check(out)

    return Op(name, command, call, full_check, out, gated)


def _poly_terms(p: dict) -> list[dict]:
    return [{"i": i, "j": j, "coefficient": c} for (i, j, _), c in sorted(p.items())]


def _check_verify_pass(out: str) -> None:
    require(o.read_json(os.path.join(out, "verify.json"))["overall_pass"], f"{out}: verify.json overall_pass is false")


def _check_grid(out: str, n: int, ref: Callable, tol: float) -> dict:
    x, y, psi = o.grid_columns(os.path.join(out, "psi.csv"))
    want = o.clipped_lattice_count(n)
    require(len(psi) == want, f"psi.csv has {len(psi)} rows, expected {want}")
    err = o.max_rel_error(psi, ref(x, y))
    require(err <= tol, f"psi.csv relative error {err:.3e} > {tol:g}")
    return {"grid_rows": len(psi), "psi_rel_err": err}


def _check_streamline_psi(out: str, ref: Callable, scale: float, tol: float) -> None:
    rows = o.read_csv(os.path.join(out, "streamlines.csv"))
    require(rows, "streamlines.csv is empty")
    x = np.array([float(r["x"]) for r in rows])
    y = np.array([float(r["y"]) for r in rows])
    psi = np.array([float(r["psi"]) for r in rows])
    err = float(np.max(np.abs(psi - ref(x, y)))) / scale
    require(err <= tol, f"streamlines.csv psi relative error {err:.3e} > {tol:g}")


def _centers(out: str) -> list[tuple[float, float]]:
    rows = o.read_csv(os.path.join(out, "stagnation.csv"))
    return [(float(r["x"]), float(r["y"])) for r in rows if r["class"] == "center"]


def _check_linear_center(out: str, a: float) -> None:
    centers = _centers(out)
    require(len(centers) == 1, f"{out}: {len(centers)} centers, expected 1")
    cx, cy = centers[0]
    require(abs(cx - a) <= 1e-8 * a and abs(cy - a / 3) <= 1e-8 * a,
            f"{out}: linear center at ({cx}, {cy}), expected ({a}, {a / 3})")


def _lattice_scale(ref: Callable, a: float, n: int = 101) -> float:
    x, y = np.meshgrid(np.linspace(0, 2 * a, n), np.linspace(0, a, n))
    inside = (y <= x) & (x + y <= 2 * a)
    return float(np.max(np.abs(ref(x[inside], y[inside]))))


# ----------------------------------------------------------------------
# quad-cosine

def quad_cosine(rng: random.Random, work: str) -> list[Op]:
    """Quadrature-backed psi evaluation: grid export plus the scattered
    points of verify, scale() and check_boundary, at two cavity sizes.
    The flow op crashes today and stays in as a counted failure."""
    def cosine(A, m, a):
        return lambda x, y: o.cosine_psi(A, m, a, x, y)

    big = {"a": 1, "stress": {"kind": "cosine", "A": 10, "m": 3}, "grid_n": 101}
    fine = {"a": 0.25, "stress": {"kind": "cosine", "A": 1, "m": 15}, "grid_n": 51}
    flow = {"a": 1, "stress": {"kind": "cosine", "A": 10, "m": 3}, "seeds_per_axis": 3,
            "streamlines": {"seeds": [[1.0, 0.2]], "max_steps": 400}}
    c_big = _write_config(work, "cos-m3", big)
    c_fine = _write_config(work, "cos-m15", fine)
    c_flow = _write_config(work, "cos-m3-flow", flow)
    big_scale = _lattice_scale(cosine(10, 3, 1.0), 1.0)

    def check_compatible(out):
        verdict = o.read_json(os.path.join(out, "compat.json"))["verdict"]
        require(verdict == "compatible", f"odd harmonic judged {verdict}")
        return {}

    def check_solve(n, ref):
        def check(out):
            _check_verify_pass(out)
            return _check_grid(out, n, ref, COSINE_REL_TOL)
        return check

    def check_flow(out):
        _check_streamline_psi(out, cosine(10, 3, 1.0), big_scale, COSINE_REL_TOL)
        return {}

    return [
        _cli_op("check:cos-m3", "check", ["--config", c_big], os.path.join(work, "check-cos-m3"), check_compatible),
        _cli_op("solve:cos-m3", "solve", ["--config", c_big], os.path.join(work, "solve-cos-m3"),
                check_solve(101, cosine(10, 3, 1.0))),
        _cli_op("solve:cos-m15", "solve", ["--config", c_fine], os.path.join(work, "solve-cos-m15"),
                check_solve(51, cosine(1, 15, 0.25))),
        # crashes today (ROADMAP item 2); kept out of the latency so that
        # the fix does not read as a slowdown, its time shows in flow_s
        _cli_op("flow:cos-m3", "flow", ["--config", c_flow], os.path.join(work, "flow-cos-m3"), check_flow,
                gated=False),
    ]


# ----------------------------------------------------------------------
# builtin-flow

def builtin_flow(rng: random.Random, work: str) -> list[Op]:
    """Exact-polynomial kinematics: stagnation search, RK4 tracing and
    profiles, with no quadrature.  The a=2 flow shows whether the exact
    flow path depends on the unit of length."""
    def check_examples(out):
        for name in ("linear", "sinusoidal", "realistic"):
            _check_verify_pass(os.path.join(out, name))
        for name, want in (("linear", 1), ("sinusoidal", 4), ("realistic", 2)):
            got = len(_centers(os.path.join(out, name)))
            require(got == want, f"{name}: {got} centers, expected {want}")
        _check_linear_center(os.path.join(out, "linear"), 1.0)
        rows = o.read_csv(os.path.join(out, "fig6_u_profiles.csv"))
        y = np.array([float(r["y"]) for r in rows])
        for col in ("u_linear", "u_sinusoidal"):
            u = np.array([float(r[col]) for r in rows])
            at = float(np.interp(1.0 / 3.0, y, u))
            require(abs(at) <= 1e-3 * float(np.max(np.abs(u))), f"fig6 {col} is {at:.3e} at y=a/3")
        return {}

    a = 2.0
    linear = {"a": a, "stress": {"kind": "polynomial", "terms": [
        {"i": 0, "j": 1, "coefficient": 16}, {"i": 0, "j": 0, "coefficient": -8 * a}]}}
    c_linear = _write_config(work, "linear-a2", linear)
    ref = lambda x, y: o.linear_psi(a, x, y)
    scale = _lattice_scale(ref, a)

    def check_flow(out):
        _check_linear_center(out, a)
        _check_streamline_psi(out, ref, scale, EXACT_REL_TOL)
        return {}

    return [
        _cli_op("examples:a1", "examples", ["--a", "1"], os.path.join(work, "examples"), check_examples),
        _cli_op("flow:linear-a2", "flow", ["--config", c_linear], os.path.join(work, "flow-linear-a2"), check_flow),
    ]


# ----------------------------------------------------------------------
# symbolic-exact

ROUND_TRIPS = 8  # per binding of a; keeps the pass near 2 s
MONOMIAL_DEGREE = 8
GENERIC_A = Fraction(3, 7)  # specialises the symbolic nullspace for the rank test
NONZERO = [c for c in range(-5, 6) if c]


def _seeded_psi0(rng: random.Random) -> dict:
    """2y(y-x)(x+y-2a) q with q of full degree 4 and nonzero coefficients,
    so every seed costs about the same."""
    q = {(i, j, 0): rng.choice(NONZERO) for i in range(5) for j in range(5 - i)}
    return o.pmul(o.BOUNDARY_FACTOR, q)


def symbolic_exact(rng: random.Random, work: str) -> list[Op]:
    """Fraction arithmetic in polyalg, compatibility and solver with no
    floats and no quadrature; the same layer is run with a symbolic and
    with a bound to 1."""
    psi_sym = [_seeded_psi0(rng) for _ in range(ROUND_TRIPS)]
    psi_one = [o.bind_a(p, 1) for p in psi_sym]
    f_sym = [o.wave(p) for p in psi_sym]
    f_one = [o.wave(p) for p in psi_one]
    unit = TriangleDomain(1)
    basis_keys = [(i, j) for i in range(MONOMIAL_DEGREE + 1) for j in range(MONOMIAL_DEGREE + 1 - i)]
    basis = [BivariatePoly({(i, j, 0): 1}) for i, j in basis_keys]
    # boundary-vanishing psi of degree <= 10 is 2y(y-x)(x+y-2a) q with
    # deg q <= 7, and the solve is a bijection onto the admissible stresses
    admissible_dim = MONOMIAL_DEGREE * (MONOMIAL_DEGREE + 1) // 2

    def round_trip(f: dict, psi0: dict, d):
        F = BivariatePoly(f)
        want = o.as_fractions(psi0)

        def call():
            return solver.solve_exact_poly(F, d)

        def check(got):
            require(got.poly.coefficients == want, "round trip did not return psi0")
            return {}
        return call, check

    index = {key: n for n, key in enumerate(basis_keys)}

    def check_constraints(a_value: Fraction, members: list[dict]):
        """Theory fixes the rank and nullspace dimension; every seeded
        admissible stress must lie in the span of the returned vectors."""
        def coordinates(f: dict) -> list[Fraction]:
            out = [Fraction(0)] * len(basis_keys)
            for (i, j, k), c in f.items():
                out[index[(i, j)]] += c * a_value**k
            return out

        def check(cs):
            require(cs.rank == len(basis_keys) - admissible_dim, f"rank {cs.rank}")
            require(len(cs.nullspace) == admissible_dim, f"nullspace dimension {len(cs.nullspace)}")
            rows = [[sum(c * a_value**k for (_, _, k), c in e.coefficients.items()) for e in vec]
                    for vec in cs.nullspace]
            base = o.rank(rows)
            require(base == admissible_dim, f"nullspace vectors have rank {base}")
            full = o.rank(rows + [coordinates(f) for f in members])
            require(full == base, "a seeded admissible stress lies outside the nullspace")
            return {}
        return check

    def check_ray(cs):
        got = [[e.coefficients for e in vec] for vec in cs.nullspace]
        require(got == [[{(0, 0, 0): 2}, {(0, 0, 1): -1}]], f"ray {got}, expected (2, -a)")
        return {}

    ops = []
    for n in range(ROUND_TRIPS):
        call, check = round_trip(f_sym[n], psi_sym[n], None)
        ops.append(Op(f"solve-symbolic:{n}", "solve-symbolic", call, check))
        call, check = round_trip(f_one[n], psi_one[n], unit)
        ops.append(Op(f"solve-bound:{n}", "solve-bound", call, check))
    ops.append(Op("constraints:symbolic", "constraints", lambda: compatibility.compat_constraints(basis, None),
                  check_constraints(GENERIC_A, f_sym)))
    ops.append(Op("constraints:bound", "constraints", lambda: compatibility.compat_constraints(basis, unit),
                  check_constraints(Fraction(1), f_one)))
    ray_basis = [BivariatePoly.v2(), BivariatePoly.const(1)]
    ops.append(Op("constraints:ray", "constraints", lambda: compatibility.compat_constraints(ray_basis, None), check_ray))

    config = _write_config(work, "poly-seeded", {"a": 1, "stress": {"kind": "polynomial", "terms": _poly_terms(f_one[0])}})
    ref = lambda x, y: o.peval(psi_one[0], x, y)

    def check_poly_check(out):
        verdict = o.read_json(os.path.join(out, "compat.json"))["verdict"]
        require(verdict == "compatible", f"seeded stress judged {verdict}")
        return {}

    def check_poly_solve(out):
        _check_verify_pass(out)
        return _check_grid(out, 101, ref, EXACT_REL_TOL)

    ops.append(_cli_op("check:seeded", "check", ["--config", config], os.path.join(work, "check-seeded"), check_poly_check))
    ops.append(_cli_op("solve:seeded", "solve", ["--config", config], os.path.join(work, "solve-seeded"), check_poly_solve))
    return ops


WORKLOADS = {
    "quad-cosine": quad_cosine,
    "builtin-flow": builtin_flow,
    "symbolic-exact": symbolic_exact,
}

# The reference kernel of the same kind of work as the workload; its
# time is the unit of the workload's latency_ref.
REFERENCE = {
    "quad-cosine": reference.grid_work,
    "builtin-flow": reference.float_work,
    "symbolic-exact": reference.exact_work,
}


def build(name: str, seed: int, work: str) -> list[Op]:
    rng = random.Random(seed)
    ops = WORKLOADS[name](rng, work)
    rng.shuffle(ops)
    return ops


# Per-layer counters that must be nonzero after the traced pass; a zero
# means a wrapper no longer sits where the program calls it.
MUST_FIRE = {
    "quad-cosine": [
        "quadrature.integrate_calls", "quadrature.nodes", "quadrature.stress_evals",
        "quadrature.riemann_nodes", "solver.psi_evals", "solver.grid_points",
        "compatibility.check_s", "verify.residual_calls", "verify.riemann_psi_calls",
        "geometry.classify_calls", "cli.self_s",
    ],
    "builtin-flow": [
        "solver.exact_solves", "solver.psi_evals", "solver.grid_points", "polyalg.mul_calls",
        "polyalg.compose_calls", "polyalg.diff_calls", "polyalg.float_evaluator_calls",
        "compatibility.exact_residual_calls", "kinematics.velocity_evals", "kinematics.jacobian_calls",
        "kinematics.newton_seeds", "kinematics.stagnation_found", "kinematics.rk4_steps",
        "kinematics.profile_s", "geometry.classify_calls", "verify.residual_calls", "cli.self_s",
    ],
    "symbolic-exact": [
        "solver.exact_solves", "polyalg.mul_calls", "polyalg.compose_calls", "polyalg.diff_calls",
        "compatibility.exact_residual_calls", "compatibility.constraints_s", "compatibility.check_s",
        "solver.grid_points", "verify.residual_calls", "cli.self_s",
    ],
}
