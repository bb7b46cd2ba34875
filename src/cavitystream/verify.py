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


def _midpoint_psi(g, d: TriangleDomain, q: CharPoint, n: int) -> np.ndarray:
    """-1/4 times the midpoint sums of g over both sigma rectangles of
    each lattice point q, from one n x n table over the characteristic
    square [0, 2a] x [-2a, 0].  With X and Y multiples of h = 2a/n the
    rectangles [-Y, X] x [Y, 0] and [X, 2a] x [-X, 0] are the rows
    -Y/h <= p < X/h, q < -Y/h and X/h <= p < n, q < X/h of its cells,
    all below the diagonal q < p."""
    a = float(d.a)
    parts = [np.stack(np.broadcast_arrays(r.t0, r.t1, -r.s0), 1) for r in _sigma_rectangles(d, q)]
    cells = np.rint(np.concatenate(parts) * (n / (2 * a))).astype(np.int64)
    sums = riemann_rect(g, Rect(0.0, 2 * a, -2 * a, 0.0), n, cells)
    return -0.25 * sums.reshape(2, -1).sum(axis=0)


def riemann_psi(stress: StressField, d: TriangleDomain, points, cells_per_axis: int = 256):
    """(value, error): stream-function values by Romberg-extrapolated
    midpoint Riemann sums over the two sigma rectangles, and their error
    estimate; deliberately independent of the Gauss machinery, and of
    the solver's use of admissibility to drop the second one.

    ``points`` is one physical point (floats) or a sequence of them
    (arrays).  With n = cells_per_axis, a multiple of 8, and h = 2a/n,
    every point's X and Y must be multiples of 8h, so that at each of
    n, n/2, n/4 and n/8 cells per axis all rectangles are unions of the
    cells of one table (``_midpoint_psi``), giving the midpoint sums
    M_n, M_{n/2}, M_{n/4} and M_{n/8}.  The midpoint error expands in
    even powers of the cell width (Euler-Maclaurin), so Romberg's scheme
    applies: R1_k = (4 M_k - M_{k/2}) / 3 is O(k^-4), the value
    R2_n = (16 R1_n - R1_{n/2}) / 15 is O(n^-6), and the error estimate
    is |R2_n - R2_{n/2}| / 63.  Uses the same -1/4 prefactor as the
    solver (the value forced by the Green-theorem bookkeeping and by the
    exact operator identity).
    """
    if cells_per_axis % 8:
        raise ValueError("cells_per_axis must be a multiple of 8")
    a = float(d.a)
    xy = np.asarray(points, dtype=float)
    x, y = xy.reshape(-1, 2).T
    q = to_characteristic(PhysicalPoint(x, y))
    j = np.asarray(q) * (cells_per_axis / (16 * a))
    if np.any(np.abs(j - np.rint(j)) > 1e-9):
        raise ValueError(f"riemann_psi needs X and Y in multiples of 16a/cells_per_axis = {16 * a / cells_per_axis}")
    g = stress_char_evaluator(stress, a)
    m = [_midpoint_psi(g, d, q, cells_per_axis // k) for k in (1, 2, 4, 8)]
    r1 = [(4 * fine - coarse) / 3 for fine, coarse in zip(m, m[1:])]
    r2 = [(16 * fine - coarse) / 15 for fine, coarse in zip(r1, r1[1:])]
    error = np.abs(r2[0] - r2[1]) / 63
    return (float(r2[0][0]), float(error[0])) if xy.ndim == 1 else (r2[0], error)


# Second-difference step as a fraction of a, the side of the interior
# lattice the strong form is checked on, and the factor every tolerance
# puts over the error model.
FD_STEP = 1e-4
LATTICE_N = 32
SAFETY = 4
# Seeded points at which a quadrature backing meets the Riemann oracle.
RIEMANN_POINTS = 20


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


def _riemann_check(psi: QuadratureStreamFunction, f: StressField) -> tuple[float, float]:
    """(value, tol) of the Riemann check: psi against the Romberg
    midpoint oracle at RIEMANN_POINTS seeded lattice points.

    With N = 4 ceil(max(256, 64 m) / 4) (m the cosine harmonic, 0 for
    any other stress), the oracle takes n = 8 ceil(N / 16) cells per
    axis, about N/2, and h = 2a/n; the points are drawn from the
    interior points whose X and Y are multiples of 8h, so
    ``riemann_psi`` sums one table at each of n, n/2, n/4 and n/8 cells
    per axis.  Two Richardson levels over the midpoint sums give the
    O(h^6) value R2_n and its error estimate |R2_n - R2_{n/2}| / 63.
    The check reads max |psi - R2_n| against SAFETY times the largest
    estimate plus a roundoff floor of 2 delta, delta =
    ``psi.rounding_bound``: once for psi and once for the oracle, which
    sums the same integrand over the same rectangles.
    """
    d = psi.domain
    a = float(d.a)
    big_n = 4 * math.ceil(max(256, 64 * cosine_harmonic(f, a)) / 4 - 1e-9)
    n = 8 * math.ceil(big_n / 16)
    rng = random.Random(20260808)
    lattice = []
    while len(lattice) < RIEMANN_POINTS:
        jx, jy = rng.randrange(1, n // 8), rng.randrange(1, n // 8)
        if jy < jx:  # X = 8h jx and Y = -8h jy strictly inside the triangle's image
            lattice.append((jx, jy))
    jx, jy = np.array(lattice).T
    x, y = (jx + jy) * (8 * a / n), (jx - jy) * (8 * a / n)
    r_n, error = riemann_psi(f, d, np.stack([x, y], 1), n)
    value = float(np.max(np.abs(psi.evaluate_many(x, y) - r_n)))
    delta = float(np.max(psi.rounding_bound(x, y)))
    return value, SAFETY * (float(np.max(error)) + 2 * delta)


def verify_solution(psi: StreamFunction, f: StressField) -> VerificationReport:
    """Strong-form + boundary + (for quadrature backings) Riemann checks
    of ``psi`` against the stress ``f`` on ``psi.domain``.

    The strong form is checked by second differences of step FD_STEP*a
    on the LATTICE_N interior lattice, less a margin of 1.5 steps from
    every edge (which, at that lattice, drops only the points on the
    edges); the boundary at 10*LATTICE_N samples.  ``_tolerances`` sizes
    both from the stress's truncation and the backing's rounding.  A
    quadrature backing also meets the extrapolated Riemann oracle within
    the oracle's own error estimate (``_riemann_check``).
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
        quad_vs_riemann, tq = _riemann_check(psi, f)
        checks["quadrature_vs_riemann"] = {"value": quad_vs_riemann, "tol": tq, "pass": quad_vs_riemann <= tq}

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
