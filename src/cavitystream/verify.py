"""Independent oracles for produced stream functions.

Everything here avoids the solution formula's own machinery: the strong
form is checked by second differences, the boundary condition by direct
sampling, quadrature backings by midpoint Riemann sums, and the
existence/uniqueness construction by exact round trips through randomly
generated boundary-vanishing polynomials.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .geometry import (
    CharPoint,
    TriangleDomain,
    PhysicalPoint,
    Rect,
    boundary_sample,
    classify,
    interior_lattice,
    require_in_char_image,
    to_characteristic,
)
from .polyalg import BivariatePoly, wave_operator
from .quadrature import riemann_rect
from .compatibility import StressField, cosine_harmonic, stress_char_evaluator
from . import solver as _solver
from .solver import QuadratureStreamFunction, StreamFunction, solve_exact_poly


@dataclass(frozen=True)
class VerificationReport:
    max_interior_residual: float
    max_boundary_value: float
    quadrature_vs_riemann: float | None
    checks: dict

    @property
    def overall_pass(self) -> bool:
        return all(c["pass"] for c in self.checks.values())

    def to_json_dict(self) -> dict:
        return {
            "max_interior_residual": self.max_interior_residual,
            "max_boundary_value": self.max_boundary_value,
            "quadrature_vs_riemann": self.quadrature_vs_riemann,
            "checks": self.checks,
            "overall_pass": self.overall_pass,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


class _SigmaDecomposition(NamedTuple):
    """The two rectangles the solution formula integrates over."""

    rect1: Rect
    rect2: Rect


def _sigma_rectangles(d: TriangleDomain, q: CharPoint) -> _SigmaDecomposition:
    """Integration rectangles [-Y, X] x [Y, 0] and [X, 2a] x [-X, 0] of
    a point ``q`` of the closed triangle's image (``in_char_image``)."""
    X, Y = q
    require_in_char_image(d, X, Y)
    return _SigmaDecomposition(Rect(-Y, X, Y, 0 * Y), Rect(X, 2 * float(d.a), -X, 0 * X))


def riemann_psi(stress: StressField, d: TriangleDomain, p: PhysicalPoint, cells_per_axis: int = 256) -> float:
    """Stream-function value by midpoint Riemann sums over the two
    sigma rectangles; deliberately independent of the Gauss machinery,
    and of the solver's use of admissibility to drop the second one.

    Uses the same -1/4 prefactor as the solver (the value forced by the
    Green-theorem bookkeeping and by the exact operator identity).
    """
    g = stress_char_evaluator(stress, float(d.a))
    rects = _sigma_rectangles(d, to_characteristic(PhysicalPoint(float(p[0]), float(p[1]))))
    return -0.25 * (riemann_rect(g, rects.rect1, cells_per_axis) + riemann_rect(g, rects.rect2, cells_per_axis))


# Second-difference step as a fraction of a, the side of the interior
# lattice the strong form is checked on, and the factor every tolerance
# puts over the error model.
FD_STEP = 1e-4
LATTICE_N = 32
SAFETY = 4


def _tolerances(psi: StreamFunction, f: StressField, h, pts, edge) -> tuple[float, float]:
    """(tol_pde, tol_bc) from one error model, at the checked points.

    L = -d_xx + d_yy commutes with the Laplacian, so the five-point
    stencil misses L psi by h^2/12 (f_xx + f_yy) + O(h^4): the truncation
    is the stress's own, read from the same stencil applied to f at the
    interior points ``pts``.  The backing enters only through
    ``psi.rounding_bound``, delta; the stencil's four outer values put
    4 delta / h^2 on the residual, and exact psi vanishes on the boundary
    samples ``edge``, so the boundary check reads delta alone.  ``h`` is
    a numpy float: an h*h that underflows gives nan, a failed check.
    """
    fv = f.evaluator(float(psi.domain.a))
    x, y = np.asarray(pts, dtype=float).reshape(-1, 2).T
    lap_f = (fv(x - h, y) + fv(x + h, y) + fv(x, y - h) + fv(x, y + h) - 4 * fv(x, y)) / (h * h)
    trunc = h * h / 12 * np.max(np.abs(lap_f), initial=0.0)
    tol_pde = SAFETY * (trunc + 4 * np.max(psi.rounding_bound(x, y), initial=0.0) / (h * h))
    bx, by = np.asarray(edge, dtype=float).T
    return float(tol_pde), float(SAFETY * np.max(psi.rounding_bound(bx, by), initial=0.0))


def verify_solution(psi: StreamFunction, f: StressField) -> VerificationReport:
    """Strong-form + boundary + (for quadrature backings) Riemann checks
    of ``psi`` against the stress ``f`` on ``psi.domain``.

    The strong form is checked by second differences of step FD_STEP*a
    on the LATTICE_N interior lattice, less a margin of 1.5 steps from
    every edge (which, at that lattice, drops only the points on the
    edges); the boundary at 10*LATTICE_N samples.  ``_tolerances`` sizes
    both from the stress's truncation and the backing's rounding.  A
    quadrature backing meets ``riemann_psi`` at 20 seeded points within
    5e-3 of its scale, with max(256, 16 m) cells per axis for a cosine
    stress of harmonic m (256 otherwise).
    """
    d = psi.domain
    a = float(d.a)
    h = np.float64(FD_STEP * a)
    pts = interior_lattice(d, LATTICE_N, margin=h * 1.5)
    edge = boundary_sample(d, 10 * LATTICE_N)
    tol_pde, tol_bc = _tolerances(psi, f, h, pts, edge)
    max_resid = float(np.max(_solver.residual(psi, f, pts, h), initial=0.0))
    max_bc = psi.max_abs(edge)

    quad_vs_riemann = None
    checks = {
        "interior_residual": {"value": max_resid, "tol": tol_pde, "pass": max_resid <= tol_pde},
        "boundary_value": {"value": max_bc, "tol": tol_bc, "pass": max_bc <= tol_bc},
    }
    if isinstance(psi, QuadratureStreamFunction):
        cells = max(256, math.ceil(16 * cosine_harmonic(f, a) - 1e-9))
        rng = random.Random(20260808)
        worst = 0.0
        count = 0
        while count < 20:
            x = rng.uniform(0.0, 2 * a)
            y = rng.uniform(0.0, a)
            p = PhysicalPoint(x, y)
            if not classify(d, p, 1e-12 * a).is_interior:
                continue
            count += 1
            worst = max(worst, abs(psi.evaluate(x, y) - riemann_psi(f, d, p, cells)))
        quad_vs_riemann = worst
        tq = 5e-3 * max(psi.scale(), 1e-12)
        checks["quadrature_vs_riemann"] = {"value": worst, "tol": tq, "pass": worst <= tq}

    return VerificationReport(
        max_interior_residual=max_resid,
        max_boundary_value=max_bc,
        quadrature_vs_riemann=quad_vs_riemann,
        checks=checks,
    )


# ----------------------------------------------------------------------
# existence/uniqueness property suite

def boundary_vanishing_poly(q: BivariatePoly) -> BivariatePoly:
    """2*y*(y-x)*(x+y-2a) * q -- vanishes on all three edges by construction."""
    x, y, a = BivariatePoly.v1(), BivariatePoly.v2(), BivariatePoly.sym_a()
    return 2 * y * (y - x) * (x + y - 2 * a) * q


def random_poly(rng: random.Random, max_degree: int = 4, coeff_range: int = 5) -> BivariatePoly:
    """Random polynomial with small integer coefficients (some zero)."""
    terms = {}
    for i in range(max_degree + 1):
        for j in range(max_degree + 1 - i):
            c = rng.randint(-coeff_range, coeff_range)
            if c:
                terms[(i, j)] = c
    return BivariatePoly.from_terms(terms)


@dataclass(frozen=True)
class UniquenessSummary:
    trials: int
    passed: int
    failures: tuple[int, ...]

    @property
    def all_passed(self) -> bool:
        return self.passed == self.trials


def uniqueness_suite(d: TriangleDomain | None, trials: int, seed: int) -> UniquenessSummary:
    """Round-trip construction check: random boundary-vanishing psi0,
    f = L(psi0), exact solve, require coefficient-map equality with psi0.

    Any inequality falsifies the uniqueness of the construction.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    failures = []
    for trial in range(trials):
        rng = random.Random(f"{seed}:{trial}")
        q = random_poly(rng)
        psi0 = boundary_vanishing_poly(q)
        if d is not None:
            psi0 = psi0.subs_a(Fraction(d.a))
        f = wave_operator(psi0)
        got = solve_exact_poly(f, d)
        if got.poly != psi0:
            failures.append(trial)
    return UniquenessSummary(trials=trials, passed=trials - len(failures), failures=tuple(failures))
