"""Stream-function construction from an admissible stress field.

The solution value at a point is -1/4 times the stress integrated (in
characteristic coordinates, after the inverse coordinate substitution)
over the two rectangles of that point's sigma decomposition.  The -1/4
is forced by the Green-theorem bookkeeping: the boundary line integral
of the gradient equals the area integral of half the source, and the
resulting field is the one that actually satisfies both the operator
identity and the boundary condition (checked exactly below for every
polynomial solve).  The second rectangle [X, 2a] x [-X, 0] is, term for
term, the admissibility residual R(X), which is zero once the
admissibility gate has passed, so both paths integrate the first
rectangle [-Y, X] x [Y, 0] alone and are valid only behind the gate.
For polynomial stresses that integral is read from the corners of one
exact double antiderivative H of the rotated stress
(``char_antiderivative``), yielding the stream function as an exact
polynomial, and the gate is that polynomial's own trace on AB, which
is -R/4 (``solve_exact_poly``); otherwise ``solve_quadrature`` runs the
admissibility sweep first and psi is evaluated by a subdivided Gauss
rule batched over points (1-D on each rectangle for a cosine stress,
whose integrand depends on t + s alone; a tensor rule otherwise), and
on the export lattice from one summed-area table of lattice cells, the
discrete form of the same corner rule, each cell integrated by the same
rule.  The closed-form sinusoidal case is provided as a builtin.  Every
backing differentiates itself: derivative polynomials, the closed-form
derivatives, or the Leibniz rule on the first rectangle (three line
integrals of the stress).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

import numpy as np

from .geometry import (
    TriangleDomain,
    PhysicalPoint,
    Rect,
    boundary_sample,
    clipped_lattice,
    require_in_char_image,
    signed_edge_distances,
    to_characteristic,
)
from .polyalg import BivariatePoly, binomial_row, wave_operator
from .compatibility import (
    CosineStress,
    PolynomialStress,
    StressField,
    char_antiderivative,
    compat_check,
    cosine_harmonic,
    is_ridge,
    stress_char_evaluator,
    stress_scale,
)
from .quadrature import (
    cell_table,
    default_quadrature_spec,
    integrate_rect,
    integrate_segments,
)

SOLUTION_PREFACTOR = Fraction(-1, 4)
# unit roundoff of IEEE double precision
UNIT_ROUNDOFF = 2.0**-53


class IncompatibleStress(ValueError):
    """The stress violates the admissibility condition; no confined flow exists."""


# ----------------------------------------------------------------------
# exact path

def solve_poly_symbolic(f: BivariatePoly) -> BivariatePoly:
    """Exact psi = (H(x+y, y-x) - H(x-y, y-x)) / 4 for a polynomial
    stress, H = ``char_antiderivative(f)``: -1/4 times the integral over
    the first rectangle [-Y, X] x [Y, 0] alone.  Why it is the solution:

    - in (X, Y) = (x+y, y-x) the operator is 4 d2/dXdY and H_XY = f, so
      H/4 satisfies the operator;
    - subtracting its trace H(-Y, Y)/4 makes psi vanish on OA (X = -Y)
      and OB (Y = 0);
    - on AB (X = 2a), psi = -R(-Y)/4 with R = ``exact_residual_poly``,
      so psi vanishes there iff R is zero: ``solve_exact_poly`` reads R
      from this trace and raises unless it is zero.

    Read off H's terms in one pass: h t^M s^L a^k adds
    h (-1)^L [(x-y)^L (x+y)^M - (x-y)^(M+L)] a^k / 4 to psi.
    The symbol a, if present, passes through untouched.
    """
    num, den = char_antiderivative(f).integer_form()
    p = SOLUTION_PREFACTOR
    out = {}
    for (M, L, k), h in num.items():
        # the prefactor -1/4 times H(x-y, y-x) - H(x+y, y-x)
        h *= -p.numerator if L & 1 else p.numerator
        n = M + L
        for m, (b1, b2) in enumerate(zip(binomial_row(n, 0), binomial_row(L, M))):
            if b1 != b2:
                key = (m, n - m, k)
                out[key] = out.get(key, 0) + h * (b1 - b2)
    return BivariatePoly.from_integer_form(out, den * p.denominator)


def _check_poly_boundary_exact(psi: BivariatePoly) -> bool:
    """Psi restricted to OA and OB must be the zero polynomial (AB is
    the admissibility gate)."""
    v1 = BivariatePoly.v1()
    return psi.compose(v1, 0).is_zero and psi.compose(v1, v1).is_zero


# ----------------------------------------------------------------------
# stream function backings

class StreamFunction:
    """Evaluable scalar field vanishing on the cavity boundary.

    Subclasses supply ``_raw_eval`` (scalar or numpy arrays).  ``domain``
    is None only for symbolic-parameter polynomial solutions, which must
    be bound with ``bind_a`` before numeric use.
    """

    kind = "abstract"

    def __init__(self, domain: TriangleDomain | None):
        self.domain = domain
        self._scale: float | None = None
        self._rounding: float | None = None

    def _raw_eval(self, x, y):
        raise NotImplementedError

    def evaluate(self, x, y) -> float:
        return float(self._raw_eval(float(x), float(y)))

    def evaluate_many(self, x, y) -> np.ndarray:
        """psi at each point (x[i], y[i]) of two 1-d sequences, in one
        ``_raw_eval`` on float arrays."""
        x = np.asarray(x, dtype=float)
        return np.array(np.broadcast_to(self._raw_eval(x, np.asarray(y, dtype=float)), x.shape), dtype=float)

    def lattice_values(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ix, iy, psi) at the points x = 2a ix/(n-1), y = a iy/(n-1)
        of the n x n bounding-box lattice clipped to the closed triangle,
        row-major (iy outer)."""
        if self.domain is None:
            raise ValueError("bind a before evaluating on a lattice")
        ix, iy = clipped_lattice(n)
        a = float(self.domain.a)
        return ix, iy, self.evaluate_many(2 * a * ix / (n - 1), a * iy / (n - 1))

    def max_abs(self, points) -> float:
        """max |psi| over a sequence of points (0 for none)."""
        values = self.evaluate_many([p[0] for p in points], [p[1] for p in points])
        return float(np.max(np.abs(values), initial=0.0))

    def velocity_functions(self) -> tuple[Callable, Callable]:
        """(vel, jac) on Python floats: vel(x, y) = (u, v) with
        u = d psi/dy and v = -d psi/dx, jac(x, y) = (du/dx, du/dy,
        dv/dx, dv/dy).  Each backing differentiates itself."""
        raise NotImplementedError(f"{type(self).__name__} does not provide a velocity")

    @property
    def source_stress(self) -> StressField:
        raise NotImplementedError

    def scale(self) -> float:
        """max |psi| over the interior points of the n x n clipped
        lattice, n = max(51, 2m + 1) for a source stress of cosine
        harmonic m (51 for any other stress), so that the lattice
        resolves every half period of psi (cached)."""
        if self._scale is None:
            m = math.ceil(cosine_harmonic(self.source_stress, float(self.domain.a)) - 1e-9)
            n = max(51, 2 * m + 1)
            ix, iy, values = self.lattice_values(n)
            interior = (iy > 0) & (iy < 2 * ix) & (2 * ix + iy < 2 * (n - 1))
            self._scale = float(np.max(np.abs(values[interior]), initial=0.0))
        return self._scale

    def rounding_bound(self, x, y):
        """Bound on how far one float evaluation of psi at (x, y) can
        round, the same everywhere: psi is -1/4 of the stress integrated
        over a rectangle of area at most a^2, and each stress value is off
        by u times its phase (at most 2 pi m across 2a, m the cosine
        harmonic) plus u, so u (1 + 2 pi m) max|f| a^2 / 4 (cached)."""
        if self._rounding is None:
            f, a = self.source_stress, float(self.domain.a)
            self._rounding = UNIT_ROUNDOFF * (1 + 2 * math.pi * cosine_harmonic(f, a)) \
                * stress_scale(f, self.domain) * a * a / 4
        return self._rounding

    def check_boundary(self, tol: float = 1e-9) -> float:
        """max |psi| over 100 boundary samples; raises when above tol."""
        worst = self.max_abs(boundary_sample(self.domain, 100))
        if worst > tol:
            raise ValueError(f"stream function fails to vanish on the boundary: {worst:g} > {tol:g}")
        return worst


class PolyStreamFunction(StreamFunction):
    kind = "exact_poly"

    def __init__(self, poly: BivariatePoly, domain: TriangleDomain | None, stress: PolynomialStress | None = None):
        super().__init__(domain)
        self.poly = poly
        self._stress = stress if stress is not None else PolynomialStress(wave_operator(poly))
        if domain is not None and poly.has_symbol_a:
            raise ValueError("numeric domain with symbolic polynomial; bind a first")
        self._velocity_fns = None
        self._abs_eval = None

    def _raw_eval(self, x, y):
        return self.poly.float_evaluator()(x, y)

    def rounding_bound(self, x, y):
        """First-order bound of Horner's rule, 2u times psi with every
        coefficient made positive at (|x|, |y|) (Higham, Accuracy and
        Stability of Numerical Algorithms, 2nd ed., 5.1); the rigorous
        gamma_2n bound overstates the measured error 60-1500 times."""
        if self._abs_eval is None:
            self._abs_eval = BivariatePoly({key: abs(c) for key, c in self.poly.terms()}).float_evaluator()
        return 2 * UNIT_ROUNDOFF * self._abs_eval(np.abs(x), np.abs(y))

    @property
    def u_poly(self) -> BivariatePoly:
        return self.poly.diff(2)

    @property
    def v_poly(self) -> BivariatePoly:
        return -self.poly.diff(1)

    def velocity_functions(self) -> tuple[Callable, Callable]:
        """Exact derivative polynomials, compiled once."""
        if self._velocity_fns is None:
            u_poly, v_poly = self.u_poly, self.v_poly
            u, v = u_poly.float_evaluator(), v_poly.float_evaluator()
            ux, uy, vx, vy = (q.diff(i).float_evaluator() for q in (u_poly, v_poly) for i in (1, 2))
            self._velocity_fns = (lambda x, y: (u(x, y), v(x, y)),
                                  lambda x, y: (ux(x, y), uy(x, y), vx(x, y), vy(x, y)))
        return self._velocity_fns

    @property
    def source_stress(self) -> PolynomialStress:
        return self._stress

    def bind_a(self, a) -> "PolyStreamFunction":
        d = TriangleDomain(a)
        return PolyStreamFunction(self.poly.subs_a(Fraction(a)), d)


class SinusoidalStreamFunction(StreamFunction):
    """The builtin three-cosine closed form.

    Implements the printed expression verbatim for m = 3.  Applying the
    operator to it yields 2*A*cos(3*pi*y/a) (the two characteristic-
    direction cosines are annihilated), so that is the source stress this
    object reports; the coefficient is measured from the formula, not
    rescaled away.
    """

    kind = "sinusoidal"

    def __init__(self, amplitude: float, domain: TriangleDomain):
        super().__init__(domain)
        self.amplitude = float(amplitude)
        a = float(domain.a)
        self._c = 2.0 * self.amplitude * a * a / (9.0 * math.pi**2)
        self._k = 3.0 * math.pi / a
        # the speed ck = 2A a/(3 pi) formed as c k, below a = 1/2 at
        # s = a 2^-e in [1/2, 1): c k's own bits wherever c is normal, and
        # normal where c underflows; at a huge a it overflows with psi
        e = min(math.frexp(a)[1], 0)
        s = math.ldexp(a, -e)
        self._ck = math.ldexp(2.0 * self.amplitude * s * s / (9.0 * math.pi**2) * (3.0 * math.pi / s), e)

    def _raw_eval(self, x, y):
        k = self._k
        return -self._c * (np.cos(k * y) + np.cos(k * (x - y) / 2.0) - 2.0 * np.cos(k * (x + y) / 4.0) ** 2)

    def velocity_functions(self) -> tuple[Callable, Callable]:
        """Closed-form derivatives.  With al = k(x-y)/2 and be = k(x+y)/2,
        u = ck (sin ky - (sin al + sin be)/2), v = ck (sin be - sin al)/2,
        and the Jacobian carries ck^2/4 times cosines of the same angles."""
        k, ck = self._k, self._ck
        q = ck * k / 4.0
        sin, cos = math.sin, math.cos

        def vel(x, y):
            sa, sb = sin(k * (x - y) / 2.0), sin(k * (x + y) / 2.0)
            return ck * (sin(k * y) - 0.5 * (sa + sb)), 0.5 * ck * (sb - sa)

        def jac(x, y):
            ca, cb = cos(k * (x - y) / 2.0), cos(k * (x + y) / 2.0)
            return -q * (ca + cb), q * (4.0 * cos(k * y) + ca - cb), q * (cb - ca), q * (ca + cb)

        return vel, jac

    @property
    def source_stress(self) -> CosineStress:
        return CosineStress(2.0 * self.amplitude, self._k)


class QuadratureStreamFunction(StreamFunction):
    """psi = -1/4 times the Gauss integral over [-Y, X] x [Y, 0].

    Valid only behind the admissibility gate: the second rectangle of
    the solution formula is the residual R(X) and is left out.
    """

    kind = "quadrature"

    def __init__(self, stress: StressField, domain: TriangleDomain):
        super().__init__(domain)
        self.stress = stress
        self.spec = default_quadrature_spec(cosine_harmonic(stress, float(domain.a)))
        self._g = stress_char_evaluator(stress, float(domain.a))
        self._ridge = is_ridge(stress)

    def _raw_eval(self, x, y):
        return self.evaluate_many([x], [y])[0]

    def evaluate_many(self, x, y) -> np.ndarray:
        """All points in one batched ``integrate_rect`` call.  A stress
        that reads only y = (t + s)/2 (``is_ridge``: a cosine) has a ridge
        integrand and takes the 1-D rule; any other stress the tensor
        rule."""
        X, Y = to_characteristic(PhysicalPoint(np.asarray(x, dtype=float), np.asarray(y, dtype=float)))
        require_in_char_image(self.domain, X, Y)
        rect1 = Rect(-Y, X, Y, np.zeros_like(Y))
        return float(SOLUTION_PREFACTOR) * integrate_rect(self._g, rect1, self.spec, 2 * float(self.domain.a),
                                                          ridge=self._ridge)

    def lattice_values(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One summed-area table of lattice cells answers every point.

        With h = a/(n-1) the point (ix, iy) has X = (2 ix + iy) h and
        Y = (iy - 2 ix) h, so its rectangle [-Y, X] x [Y, 0] is the union
        of the cells [p h, (p+1) h] x [-(q+1) h, -q h] with
        2 ix - iy <= p < 2 ix + iy and q < 2 ix - iy, all below the
        diagonal q < p.  Each cell is integrated once (``cell_table``)
        by ``integrate_rect`` under the rule and the ridge flag of
        ``evaluate_many``; a ridge integrand needs one cell per diagonal.
        """
        ix, iy = clipped_lattice(n)
        a = float(self.domain.a)
        table = cell_table(self._g, 2 * (n - 1), a / (n - 1), self.spec, 2 * a, ridge=self._ridge)
        q = 2 * ix - iy
        return ix, iy, float(SOLUTION_PREFACTOR) * (table[2 * ix + iy, q] - table[q, q])

    def velocity_functions(self) -> tuple[Callable, Callable]:
        return self._velocity, self._velocity_jacobian

    def _velocity(self, x, y):
        """The Leibniz rule on the first rectangle:
        psi_X = -1/4 int_Y^0 g(X, s) ds,
        psi_Y = -1/4 [int_Y^0 g(-Y, s) ds - int_{-Y}^X g(t, Y) dt],
        u = psi_X + psi_Y, v = psi_Y - psi_X; the three line integrals
        take one stress call.  Defined on the closed triangle."""
        X, Y = x + y, -x + y
        require_in_char_image(self.domain, X, Y)
        i_x, i_top, i_side = integrate_segments(
            self._g, (X, -Y, -Y), (X, -Y, X), (Y, Y, Y), (0.0, 0.0, Y), self.spec, 2 * float(self.domain.a))
        p = float(SOLUTION_PREFACTOR)
        psi_X, psi_Y = p * i_x, p * (i_top - i_side)
        return float(psi_X + psi_Y), float(psi_Y - psi_X)

    def _velocity_jacobian(self, x, y):
        """Central differences of the exact velocity (an opaque stress
        gives no derivative of g), step 1e-5 a; the stencil must stay
        inside the cavity."""
        h = 1e-5 * float(self.domain.a)
        if min(signed_edge_distances(self.domain, PhysicalPoint(x, y))) < h:
            raise ValueError("difference stencil leaves the cavity for a quadrature backing")
        up, vp = self._velocity(x + h, y)
        um, vm = self._velocity(x - h, y)
        uq, vq = self._velocity(x, y + h)
        ur, vr = self._velocity(x, y - h)
        return (up - um) / (2 * h), (uq - ur) / (2 * h), (vp - vm) / (2 * h), (vq - vr) / (2 * h)

    @property
    def source_stress(self) -> StressField:
        return self.stress


# ----------------------------------------------------------------------
# constructors

def solve_exact_poly(
    f: BivariatePoly | PolynomialStress,
    d: TriangleDomain | None,
) -> PolyStreamFunction:
    """Exact stream function for a polynomial stress.

    Pass d=None to keep the length parameter symbolic.  Raises
    IncompatibleStress when the admissibility polynomial is nonzero; it
    is read from psi on AB, R(X) = -4 psi((2a + X)/2, (2a - X)/2).
    """
    fp = f if isinstance(f, BivariatePoly) else f.poly
    if d is None:
        a_poly = BivariatePoly.sym_a()
    else:
        a_poly = BivariatePoly.const(Fraction(d.a))
        if fp.has_symbol_a:
            fp = fp.subs_a(Fraction(d.a))
    psi = solve_poly_symbolic(fp)
    half = BivariatePoly.v1() * Fraction(1, 2)
    constraint = psi.compose(a_poly + half, a_poly - half) * -4
    if not constraint.is_zero:
        raise IncompatibleStress(
            "stress fails the admissibility condition; constraint polynomial: "
            + constraint.to_text(names=("X", "_"))
        )
    if wave_operator(psi) != fp:
        raise ArithmeticError("internal error: operator identity violated by the exact solve")
    if not _check_poly_boundary_exact(psi):
        raise ArithmeticError("internal error: exact solution does not vanish on the boundary")
    out = PolyStreamFunction(psi, d, PolynomialStress(fp))
    if d is not None:
        out.check_boundary(1e-9 * max(out.scale(), 1.0))
    return out


def solve_quadrature(f: StressField, d: TriangleDomain) -> QuadratureStreamFunction:
    """Quadrature-backed stream function for a general admissible stress,
    behind ``compat_check`` with its default sweep and tolerance, under
    the rule ``default_quadrature_spec`` derives from the stress."""
    report = compat_check(f, d)
    if not report.is_compatible:
        raise IncompatibleStress(
            f"stress fails the admissibility sweep: max residual {report.max_abs_residual:g} "
            f"(normalization {report.normalization:g})"
        )
    out = QuadratureStreamFunction(f, d)
    out.check_boundary(1e-6 * max(out.scale(), 1e-12))
    return out


def sinusoidal_closed_form(amplitude: float, d: TriangleDomain) -> SinusoidalStreamFunction:
    """The builtin sinusoidal-stress stream function (verbatim closed form)."""
    out = SinusoidalStreamFunction(amplitude, d)
    c = abs(out._c)
    if c > 0:
        out.check_boundary(1e-13 * c)
    return out


def realistic_example(d: TriangleDomain | None) -> PolyStreamFunction:
    """Two-gyre polynomial flow: the admissible cubic times two tilting factors."""
    x, y, a = BivariatePoly.v1(), BivariatePoly.v2(), BivariatePoly.sym_a()
    psi = (2 * y**3 - 2 * x**2 * y - 4 * a * y**2 + 4 * a * x * y) \
        * (y - 100 * x**2 - a) * (y + x * Fraction(1, 4) - a * Fraction(5, 6))
    if d is not None:
        psi = psi.subs_a(Fraction(d.a))
    out = PolyStreamFunction(psi, d)
    if d is not None:
        out.check_boundary(1e-9 * max(out.scale(), 1.0))
    return out


def linear_example(d: TriangleDomain | None) -> PolyStreamFunction:
    """The linear-stress flow: source 16y - 8a, one recirculation gyre."""
    y, a = BivariatePoly.v2(), BivariatePoly.sym_a()
    f = 16 * y - 8 * a
    if d is not None:
        f = f.subs_a(Fraction(d.a))
    return solve_exact_poly(f, d)


# ----------------------------------------------------------------------
# strong-form residual

def residual(psi: StreamFunction, f: StressField, p, h: float):
    """|second-difference operator applied to psi minus f| at interior points.

    ``p`` is one point (the result is a float) or a sequence of points
    (the result is an array); all stencil values go to one
    ``evaluate_many`` call.  The 5-point stencil may leave the triangle
    only for backings whose formulas extend (polynomial, sinusoidal);
    the quadrature backing's own evaluation raises ValueError at any
    stencil point outside the closed triangle.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    d = psi.domain
    a = float(d.a)
    single = np.ndim(p) == 1 and len(p) == 2
    xy = np.asarray(p, dtype=float).reshape(-1, 2)
    x, y = xy[:, 0], xy[:, 1]
    margin = np.min([y, x - y, 2 * a - x - y], axis=0)
    if np.any(margin <= 0):
        i = np.argmax(margin <= 0)
        raise ValueError(f"point {(float(x[i]), float(y[i]))} is not interior")
    e = psi.evaluate_many(np.concatenate([x, x - h, x + h, x, x]), np.concatenate([y, y, y, y - h, y + h]))
    center, west, east, south, north = e.reshape(5, -1)
    lap = (-west + 2 * center - east) / h**2 + (south - 2 * center + north) / h**2
    fv = f.evaluator(a)(x, y)
    out = np.abs(lap - fv)
    return float(out[0]) if single else out


# ----------------------------------------------------------------------
# grid export

def _lattice_axes(d: TriangleDomain, n: int) -> tuple[list[float], list[float]]:
    """The n column values x = 2a i/(n-1) and the n row values
    y = a j/(n-1) of the export lattice."""
    a = float(d.a)
    return [2 * a * i / (n - 1) for i in range(n)], [a * j / (n - 1) for j in range(n)]


def grid_rows(psi: StreamFunction, d: TriangleDomain, n: int) -> list[tuple[float, float, float]]:
    """Row-major (x, y, psi) over the n x n bounding-box lattice clipped
    to the closed triangle, read from ``psi.lattice_values``."""
    ix, iy, values = psi.lattice_values(n)
    columns, rows = _lattice_axes(d, n)
    # coordinates repeat along the lattice: one shared float per column and row
    xs = np.array(columns, dtype=object)[ix].tolist()
    ys = np.array(rows, dtype=object)[iy].tolist()
    vs = values.tolist()
    del ix, iy, values  # the lists hold all the rows need
    return list(zip(xs, ys, vs))


def format_float(v: float) -> str:
    """Fixed 17-significant-digit decimal formatting (round-trip exact)."""
    return f"{v + 0.0:.17g}"


def write_grid_csv(psi: StreamFunction, d: TriangleDomain, n: int, path) -> None:
    """One row per lattice point of ``grid_rows``; each float as
    ``format_float`` writes it.  A coordinate takes one of n values per
    axis, so each is formatted once, and only psi once per row."""
    columns, rows = _lattice_axes(d, n)
    cx = {x: "%.17g," % x for x in columns}
    cy = {y: "%.17g," % y for y in rows}
    with open(path, "w", newline="\n") as fh:
        fh.write("x,y,psi\n")
        fh.writelines("%s%s%.17g\n" % (cx[x], cy[y], v + 0.0) for x, y, v in grid_rows(psi, d, n))
