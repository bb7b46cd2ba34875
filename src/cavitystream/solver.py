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
admissibility sweep first.  A cosine stress's integrand depends on
t + s alone, so the same corner rule holds with one tabulated second
antiderivative Phi of it, and psi, the velocity, the Jacobian and the
export lattice each read a few values of Phi, Phi' or the stress
(``QuadratureStreamFunction``).  Any other stress is integrated point by
point, on the export lattice too, by a subdivided Gauss tensor rule
batched over points.  The closed-form sinusoidal case is provided as a
builtin.  Every backing differentiates itself: derivative polynomials,
the closed-form derivatives, Phi' and the stress, or the Leibniz rule
on the first rectangle (three line integrals of the stress).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .geometry import (
    TriangleDomain,
    PhysicalPoint,
    Rect,
    clipped_lattice,
    require_in_char_image,
    signed_edge_distances,
    to_characteristic,
)
from .polyalg import BivariatePoly, binomial_row, joint_float_evaluator, stacked_float_evaluator, wave_operator
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
    default_quadrature_spec,
    gauss_nodes,
    integrate_rect,
    integrate_segments,
)

SOLUTION_PREFACTOR = Fraction(-1, 4)
# the most points on which a polynomial's velocity makes one call per
# point rather than one stacked pass, whose twenty-odd array calls cost
# more below about ten points (the realistic builtin, 2 vCPU)
FEW_POINTS = 8
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
    # whether the functions of ``velocity_functions`` take float arrays
    velocity_takes_arrays = False

    def __init__(self, domain: TriangleDomain | None):
        self.domain = domain
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
        dv/dx, dv/dy).  Each backing differentiates itself.  Where
        ``velocity_takes_arrays``, they also take two float arrays and
        give each element the bits of a call on its point."""
        raise NotImplementedError(f"{type(self).__name__} does not provide a velocity")

    @property
    def source_stress(self) -> StressField:
        raise NotImplementedError

    def rounding_bound(self, x, y):
        """The scale of how far one float evaluation of psi at (x, y)
        rounds, the same everywhere: psi is -1/4 of the stress integrated
        over a rectangle of area at most a^2, and each stress value is off
        by u times its phase (at most 2 pi m across 2a, m the cosine
        harmonic) plus u, so u (1 + 2 pi m) max|f| a^2 / 4 (cached).

        It is an error scale, not a bound: the rule's own sums round too,
        and verify allows ``verify.SAFETY`` = 4 times it.  The n = 101
        lattice of 10 cos(pi y / a) behind an ``OpaqueStress`` reads 2.8
        times it at a = 1 and 3.0 times at a = 1e-3."""
        if self._rounding is None:
            f, a = self.source_stress, float(self.domain.a)
            self._rounding = UNIT_ROUNDOFF * (1 + 2 * math.pi * cosine_harmonic(f, a)) \
                * stress_scale(f, self.domain) * a * a / 4
        return self._rounding


class PolyStreamFunction(StreamFunction):
    kind = "exact_poly"
    # Horner's rule performs the same float operations on each element
    velocity_takes_arrays = True

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

    def evaluate(self, x, y) -> float:
        """psi at one point, by psi's compiled Horner code called
        straight (bound on first use)."""
        return float(self._horner(float(x), float(y)))

    @cached_property
    def _horner(self) -> Callable:
        return self.poly.float_evaluator()

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
        """Exact derivative polynomials, compiled once into two functions
        (``_poly_kernel``): one of the two velocity polynomials and one of
        the four Jacobian ones, each a single generated body that takes
        Python floats straight, with each polynomial's own Horner bits."""
        if self._velocity_fns is None:
            vel_polys = (self.u_poly, self.v_poly)
            jac_polys = tuple(q.diff(i) for q in vel_polys for i in (1, 2))
            self._velocity_fns = (_poly_kernel(vel_polys), _poly_kernel(jac_polys))
        return self._velocity_fns

    @property
    def source_stress(self) -> PolynomialStress:
        return self._stress

    def bind_a(self, a) -> "PolyStreamFunction":
        d = TriangleDomain(a)
        return PolyStreamFunction(self.poly.subs_a(Fraction(a)), d)


def _poly_kernel(polys) -> Callable:
    """``joint_float_evaluator`` of polys: on two float arrays, each
    point's own call up to ``FEW_POINTS`` points and one stacked Horner
    pass above, one row per polynomial; both with the bits of a call on
    each point."""
    stacked = stacked_float_evaluator(polys)
    width = len(polys)

    def arrays(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if x.size > FEW_POINTS:
            return stacked(x, y)
        # one call per point, its values a column
        return np.array([kernel(*p) for p in zip(x.tolist(), y.tolist())], dtype=float).reshape(-1, width).T

    kernel = joint_float_evaluator(polys, arrays)
    return kernel


def _sin_many(a: np.ndarray) -> np.ndarray:
    # math.sin on each element: np.sin need not give its bits; it raises
    # ValueError at an infinite angle, as math.sin does
    return np.fromiter(map(math.sin, a.tolist()), dtype=float, count=a.size)


def _cos_many(a: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.cos, a.tolist()), dtype=float, count=a.size)


class SinusoidalStreamFunction(StreamFunction):
    """The builtin three-cosine closed form.

    Implements the printed expression verbatim for m = 3.  Applying the
    operator to it yields 2*A*cos(3*pi*y/a) (the two characteristic-
    direction cosines are annihilated), so that is the source stress this
    object reports; the coefficient is measured from the formula, not
    rescaled away.
    """

    kind = "sinusoidal"
    velocity_takes_arrays = True

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

    def evaluate(self, x, y) -> float:
        """psi at one point, on math.cos: a third of the cost of numpy's
        ufuncs on one float.  It gave np.cos's bits on every traced
        vertex of the sinusoidal builtin checked, at a from 1e-300 to
        1e3, so ``streamlines.csv`` keeps its bytes there."""
        k, cos = self._k, math.cos
        x, y = float(x), float(y)
        return -self._c * (cos(k * y) + cos(k * (x - y) / 2.0) - 2.0 * cos(k * (x + y) / 4.0) ** 2)

    def velocity_functions(self) -> tuple[Callable, Callable]:
        """Closed-form derivatives.  With al = k(x-y)/2 and be = k(x+y)/2,
        u = ck (sin ky - (sin al + sin be)/2), v = ck (sin be - sin al)/2,
        and the Jacobian carries ck^2/4 times cosines of the same angles.
        On arrays, math.sin and math.cos are mapped over the angles and
        the rest is the same float arithmetic elementwise."""
        k, ck = self._k, self._ck
        q = ck * k / 4.0
        # bound once: a float point pays one class test and no global lookup
        sin1, sin_many, cos1, cos_many, ndarray = math.sin, _sin_many, math.cos, _cos_many, np.ndarray

        def vel(x, y):
            sin = sin_many if x.__class__ is ndarray else sin1
            sa, sb = sin(k * (x - y) / 2.0), sin(k * (x + y) / 2.0)
            return ck * (sin(k * y) - 0.5 * (sa + sb)), 0.5 * ck * (sb - sa)

        def jac(x, y):
            cos = cos_many if x.__class__ is ndarray else cos1
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

    A stress that reads only y (``is_ridge``: a cosine) has a ridge
    integrand g(t, s) = F(t + s), and its integral over a rectangle is a
    corner rule on one second antiderivative of F, Phi'' = F with
    Phi(0) = Phi'(0) = 0:
    psi = -1/4 [Phi(x+y) - Phi(x-y) - Phi(2y)], every argument in [0, 2a]
    on the closed triangle.  Phi and Phi' are tabulated once per field
    (``_ridge_knots``) and completed by one Gauss cell at each argument
    (``_ridge_phi``).  Any other stress takes the tensor rule per point.
    """

    kind = "quadrature"

    def __init__(self, stress: StressField, domain: TriangleDomain):
        super().__init__(domain)
        self.stress = stress
        self.spec = default_quadrature_spec(cosine_harmonic(stress, float(domain.a)))
        self._g = stress_char_evaluator(stress, float(domain.a))
        self._ridge = is_ridge(stress)
        self._knots = None

    def _raw_eval(self, x, y):
        if self._ridge:
            require_in_char_image(self.domain, x + y, y - x)
            return self._ridge_psi(x, y)
        return self.evaluate_many([x], [y])[0]

    def evaluate_many(self, x, y) -> np.ndarray:
        """All points in one batch: three Phi values each for a ridge
        stress, one batched ``integrate_rect`` call under the tensor rule
        otherwise."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        X, Y = to_characteristic(PhysicalPoint(x, y))
        require_in_char_image(self.domain, X, Y)
        if self._ridge:
            return self._ridge_psi(x, y)
        rect1 = Rect(-Y, X, Y, np.zeros_like(Y))
        return float(SOLUTION_PREFACTOR) * integrate_rect(self._g, rect1, self.spec, 2 * float(self.domain.a))

    def _ridge_psi(self, x, y):
        """-1/4 [Phi(x+y) - Phi(x-y) - Phi(2y)] on floats or arrays."""
        phi = self._ridge_phi(np.array([x + y, x - y, y + y]))[0]
        return float(SOLUTION_PREFACTOR) * (phi[0] - phi[1] - phi[2])

    def _ridge_knots(self) -> tuple[float, np.ndarray, np.ndarray]:
        """(h, Phi, Phi') at the knots u_j = j h of the S cells across
        [0, 2a] that ``_cell_counts`` cuts, h = 2a/S: Phi at j = 0..S,
        Phi' at j = 0..S-1 (built on first use).

        The second differences Phi(u_j + h) - 2 Phi(u_j) + Phi(u_j - h)
        are the integrals of g over the cells [u_j, u_j + h] x [-h, 0],
        j = 1..S-1, in one ``integrate_rect`` call.
        With P_j = int_{u_j}^{u_j + h} (u_j + h - w) F(w) dw
        (``_ridge_cells``), Phi(h) = P_0 and
        Phi'(u_j) = (Phi(u_{j+1}) - Phi(u_j) - P_j) / h.  Both running
        sums are compensated (Neumaier; Higham, Accuracy and Stability of
        Numerical Algorithms, 2nd ed., 4.3).
        """
        if self._knots is None:
            a = float(self.domain.a)
            S = self.spec.subdivision
            h = 2 * a / S
            j = np.arange(S)
            second = integrate_rect(self._g, Rect(j[1:] * h, (j[1:] + 1) * h, -h, 0.0), self.spec, 2 * a)
            weighted = self._ridge_cells(j * h, np.full(S, h))[0]
            first = _running_sum(np.concatenate((weighted[:1], second)))  # Phi(u_{j+1}) - Phi(u_j)
            self._knots = (h, np.concatenate(([0.0], _running_sum(first))), (first - weighted) / h)
        return self._knots

    def _ridge_cells(self, start: np.ndarray, width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(int (end - w) F(w) dw, int F(w) dw) from each start to
        end = start + width, by one Gauss cell of ``spec.order``; F is
        called as g(w, 0) on every node."""
        c, weights = _cell_rule(self.spec.order)
        F = np.asarray(self._g(start[..., None] + width[..., None] * c, 0.0), dtype=float)
        sums = F @ weights
        return width * width * sums[..., 1], width * sums[..., 0]

    def _ridge_phi(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(Phi(u), Phi'(u)) from the knot below u and the partial cell
        up to u; an argument up to the boundary slack outside [0, 2a]
        extends the first or the last cell."""
        h, phi, dphi = self._ridge_knots()
        j = np.minimum(np.maximum(u // h, 0.0), dphi.size - 1).astype(np.intp)
        start = j * h
        tau = u - start
        weighted, plain = self._ridge_cells(start, tau)
        return phi[j] + dphi[j] * tau + weighted, dphi[j] + plain

    def lattice_values(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A ridge stress reads Phi at the 2(n-1) + 1 multiples of
        h = a/(n-1): the point (ix, iy) has x + y = (2 ix + iy) h,
        x - y = (2 ix - iy) h and 2y = 2 iy h.  Any other stress takes
        the tensor rule per point (``StreamFunction.lattice_values``)."""
        if not self._ridge:
            return super().lattice_values(n)
        ix, iy = clipped_lattice(n)
        phi = self._ridge_phi(float(self.domain.a) * np.arange(2 * n - 1) / (n - 1))[0]
        return ix, iy, float(SOLUTION_PREFACTOR) * (phi[2 * ix + iy] - phi[2 * ix - iy] - phi[2 * iy])

    def velocity_functions(self) -> tuple[Callable, Callable]:
        if self._ridge:
            return self._ridge_velocity, self._ridge_jacobian
        return self._velocity, self._velocity_jacobian

    def _ridge_velocity(self, x, y):
        """u = -1/4 [Phi'(x+y) + Phi'(x-y) - 2 Phi'(2y)] and
        v = 1/4 [Phi'(x+y) - Phi'(x-y)], on the closed triangle."""
        require_in_char_image(self.domain, x + y, y - x)
        d1, d2, d3 = self._ridge_phi(np.array([x + y, x - y, y + y]))[1].tolist()
        p = float(SOLUTION_PREFACTOR)
        return p * (d1 + d2 - 2 * d3), -p * (d1 - d2)

    def _ridge_jacobian(self, x, y):
        """Exact, from F1 = F(x+y), F2 = F(x-y) and F3 = F(2y):
        du/dx = -1/4 (F1 + F2), du/dy = -1/4 (F1 - F2 - 4 F3),
        dv/dx = 1/4 (F1 - F2) and dv/dy = -du/dx, on the closed triangle."""
        require_in_char_image(self.domain, x + y, y - x)
        F1, F2, F3 = np.asarray(self._g(np.array([x + y, x - y, y + y]), 0.0), dtype=float).tolist()
        p = float(SOLUTION_PREFACTOR)
        ux = p * (F1 + F2)
        return ux, p * (F1 - F2 - 4 * F3), -p * (F1 - F2), -ux

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


@lru_cache(maxsize=32)
def _cell_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss nodes of ``order`` on [0, 1] and, as two columns, the
    weights of int_0^1 F(v) dv and of int_0^1 (1 - v) F(v) dv."""
    x, w = gauss_nodes(order)
    c = 0.5 * (1.0 + x)
    return c, 0.5 * np.stack([w, w * (1.0 - c)], 1)


def _running_sum(terms: np.ndarray) -> np.ndarray:
    """The prefix sums terms[0] + ... + terms[k], compensated
    (Neumaier's variant of Kahan's summation)."""
    out = np.empty(len(terms))
    s = c = 0.0
    for k, v in enumerate(terms.tolist()):
        t = s + v
        c += (s - t) + v if abs(s) >= abs(v) else (v - t) + s
        s = t
        out[k] = s + c
    return out


# ----------------------------------------------------------------------
# constructors

def solve_exact_poly(
    f: BivariatePoly | PolynomialStress,
    d: TriangleDomain | None,
) -> PolyStreamFunction:
    """Exact stream function for a polynomial stress.

    Pass d=None to keep the length parameter symbolic.  Raises
    IncompatibleStress when the admissibility polynomial is nonzero; it
    is read from psi on AB, R(X) = -4 psi((2a + X)/2, (2a - X)/2), with
    a symbolic and bound last: the powers of a domain's Fraction(a) meet
    R's coefficients once, never the products inside ``compose``.
    """
    fp = f if isinstance(f, BivariatePoly) else f.poly
    if d is not None and fp.has_symbol_a:
        fp = fp.subs_a(Fraction(d.a))
    psi = solve_poly_symbolic(fp)
    a, half = BivariatePoly.sym_a(), BivariatePoly.v1() * Fraction(1, 2)
    constraint = psi.compose(a + half, a - half) * -4
    if d is not None:
        constraint = constraint.subs_a(Fraction(d.a))
    if not constraint.is_zero:
        raise IncompatibleStress(
            "stress fails the admissibility condition; constraint polynomial: "
            + constraint.to_text(names=("X", "_"))
        )
    if wave_operator(psi) != fp:
        raise ArithmeticError("internal error: operator identity violated by the exact solve")
    if not _check_poly_boundary_exact(psi):
        raise ArithmeticError("internal error: exact solution does not vanish on the boundary")
    return PolyStreamFunction(psi, d, PolynomialStress(fp))


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
    return QuadratureStreamFunction(f, d)


def sinusoidal_closed_form(amplitude: float, d: TriangleDomain) -> SinusoidalStreamFunction:
    """The builtin sinusoidal-stress stream function (verbatim closed form)."""
    return SinusoidalStreamFunction(amplitude, d)


def realistic_example(d: TriangleDomain | None) -> PolyStreamFunction:
    """Two-gyre polynomial flow: the admissible cubic times two tilting factors."""
    x, y, a = BivariatePoly.v1(), BivariatePoly.v2(), BivariatePoly.sym_a()
    psi = (2 * y**3 - 2 * x**2 * y - 4 * a * y**2 + 4 * a * x * y) \
        * (y - 100 * x**2 - a) * (y + x * Fraction(1, 4) - a * Fraction(5, 6))
    if d is not None:
        psi = psi.subs_a(Fraction(d.a))
    return PolyStreamFunction(psi, d)


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
