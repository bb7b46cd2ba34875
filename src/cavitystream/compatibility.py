"""Admissibility of stress fields for a confined cavity flow.

A stress profile f = (1/mu) T_xy admits a boundary-vanishing stream
function iff the double integral of f over the rectangle
[X, 2a] x [-X, 0] (in characteristic coordinates, after the inverse
coordinate substitution) vanishes for every X in [0, 2a].  This module
evaluates that residual exactly for polynomial stresses, in closed form
for cosine stresses, and by Gauss quadrature for opaque evaluators; for
a polynomial basis it computes the exact subspace of admissible
coefficient vectors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .geometry import TriangleDomain, interior_lattice, boundary_sample
from .polyalg import BivariatePoly
from .quadrature import QuadratureSpec, default_quadrature_spec, integrate_rect
from .geometry import Rect

HALF = Fraction(1, 2)


# ----------------------------------------------------------------------
# stress fields

@dataclass(frozen=True)
class PolynomialStress:
    """Stress given by an exact polynomial in (x, y), optionally symbolic in a."""

    poly: BivariatePoly

    def evaluator(self, a: float | None = None) -> Callable:
        if self.poly.has_symbol_a:
            if a is None:
                raise ValueError("stress polynomial carries the symbol a; bind it first")
            p = self.poly.subs_a(Fraction(a))
        else:
            p = self.poly
        return p.float_evaluator()


@dataclass(frozen=True)
class CosineStress:
    """Stress of the form amplitude * cos(wavenumber * y)."""

    amplitude: float
    wavenumber: float

    def evaluator(self, a: float | None = None) -> Callable:
        A, k = self.amplitude, self.wavenumber
        return lambda x, y: A * np.cos(k * y)


@dataclass(frozen=True)
class OpaqueStress:
    """Stress known only through a continuous point evaluator f(x, y)."""

    fn: Callable
    vectorized: bool = True

    def evaluator(self, a: float | None = None) -> Callable:
        if self.vectorized:
            return self.fn
        return np.vectorize(self.fn, otypes=[float])


StressField = PolynomialStress | CosineStress | OpaqueStress


def cosine_from_harmonic(amplitude: float, m: int, d: TriangleDomain) -> CosineStress:
    """Cosine stress with wavenumber m*pi/a (odd m is the admissible family)."""
    if m < 1:
        raise ValueError("harmonic m must be >= 1")
    return CosineStress(amplitude, m * math.pi / float(d.a))


def stress_char_evaluator(f: StressField, a: float | None = None) -> Callable:
    """Evaluator of g(t, s) = f((t-s)/2, (t+s)/2) on numpy arrays."""
    ev = f.evaluator(a)
    return lambda t, s: ev((t - s) / 2.0, (t + s) / 2.0)


def stress_scale(f: StressField, d: TriangleDomain, n: int = 21) -> float:
    """max |f| over a clipped lattice plus the boundary sample."""
    ev = f.evaluator(float(d.a))
    pts = interior_lattice(d, n) + boundary_sample(d, 3 * n)
    return max(abs(float(ev(p.x, p.y))) for p in pts)


# ----------------------------------------------------------------------
# residuals

def exact_residual_poly(f: BivariatePoly, d: TriangleDomain | None) -> BivariatePoly:
    """The admissibility integral as an exact polynomial in X (slot v1).

    Pass d=None to keep the length parameter symbolic; the result is the
    zero polynomial iff the stress is admissible.
    """
    if d is None:
        a_poly = BivariatePoly.sym_a()
        fp = f
    else:
        a_poly = BivariatePoly.const(Fraction(d.a))
        fp = f.subs_a(Fraction(d.a)) if f.has_symbol_a else f
    t, s = BivariatePoly.v1(), BivariatePoly.v2()
    g = fp.compose((t - s) * HALF, (t + s) * HALF)
    h = g.antideriv(2)
    # inner integral over s in [-X, 0]; reinterpret v2 as X afterwards
    inner = h.compose(t, 0) - h.compose(t, -s)
    outer = inner.antideriv(1)
    # t from X to 2a; X currently sits in slot v2
    res = outer.compose(2 * a_poly, s) - outer.compose(s, s)
    # move X into slot v1
    return res.compose(s, t)


def _cosine_residual(A: float, k: float, a: float, X) -> float:
    """Closed-form residual for A*cos(k y); exact antiderivatives, no quadrature."""
    if k == 0:
        return A * X * (2 * a - X)
    c = 4.0 * A / (k * k)
    return c * (np.cos(k * X / 2.0) - np.cos(k * a) + np.cos(k * (2 * a - X) / 2.0) - 1.0)


def compat_residual(
    f: StressField,
    d: TriangleDomain,
    X: float,
    quad: QuadratureSpec | None = None,
) -> float:
    """Residual of the admissibility condition at a single X in [0, 2a]."""
    a = float(d.a)
    if not (-1e-12 * a <= X <= 2 * a * (1 + 1e-12)):
        raise ValueError(f"X={X} outside [0, {2 * a}]")
    if isinstance(f, PolynomialStress):
        r = exact_residual_poly(f.poly, d)
        return float(r.eval(Fraction(X), 0))
    if isinstance(f, CosineStress):
        return float(_cosine_residual(f.amplitude, f.wavenumber, a, X))
    g = stress_char_evaluator(f, a)
    return integrate_rect(g, Rect(X, 2 * a, -X, 0.0), quad or default_quadrature_spec(), 2 * a)


def chebyshev_nodes(n: int, lo: float, hi: float) -> list[float]:
    """n Chebyshev-distributed points including both endpoints."""
    if n < 2:
        raise ValueError("need at least 2 nodes")
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    return [mid - half * math.cos(math.pi * i / (n - 1)) for i in range(n)]


COMPATIBLE = "compatible"
INCOMPATIBLE = "incompatible"


@dataclass(frozen=True)
class CompatibilityReport:
    sweep: tuple[tuple[float, float], ...]
    max_abs_residual: float
    normalization: float
    tolerance: float
    verdict: str
    exact_constraints: str | None = None

    @property
    def is_compatible(self) -> bool:
        return self.verdict == COMPATIBLE

    def to_json_dict(self) -> dict:
        return {
            "sweep": [[x, r] for x, r in self.sweep],
            "max_abs_residual": self.max_abs_residual,
            "normalization": self.normalization,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "exact_constraints": self.exact_constraints,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def compat_check(
    f: StressField,
    d: TriangleDomain,
    n_sweep: int = 65,
    tol: float = 1e-10,
    quad: QuadratureSpec | None = None,
) -> CompatibilityReport:
    """Residual sweep over Chebyshev nodes plus, for polynomial stresses,
    the exact vanishing criterion (which then decides the verdict)."""
    if n_sweep < 2:
        raise ValueError("n_sweep must be >= 2")
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = float(d.a)
    nodes = chebyshev_nodes(n_sweep, 0.0, 2 * a)
    sweep = tuple((X, compat_residual(f, d, X, quad)) for X in nodes)
    max_abs = max(abs(r) for _, r in sweep)
    norm = (2 * a) ** 2 * stress_scale(f, d)
    exact_text = None
    if isinstance(f, PolynomialStress):
        r = exact_residual_poly(f.poly, d if not f.poly.has_symbol_a else None)
        exact_text = r.to_text(names=("X", "_"))
        verdict = COMPATIBLE if r.is_zero else INCOMPATIBLE
    else:
        verdict = COMPATIBLE if max_abs <= tol * max(norm, 1e-300) else INCOMPATIBLE
    return CompatibilityReport(
        sweep=sweep,
        max_abs_residual=max_abs,
        normalization=norm,
        tolerance=tol,
        verdict=verdict,
        exact_constraints=exact_text,
    )


def cosine_admissible_wavenumbers(d: TriangleDomain, n_max: int) -> list[float]:
    """Wavenumbers (2n+1)*pi/a for n = 0..n_max, each re-verified by a sweep."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    a = float(d.a)
    out = []
    for n in range(n_max + 1):
        k = (2 * n + 1) * math.pi / a
        report = compat_check(CosineStress(1.0, k), d, tol=1e-10)
        if not report.is_compatible:
            raise ArithmeticError(f"wavenumber {k} failed the admissibility sweep")
        out.append(k)
    return out


# ----------------------------------------------------------------------
# exact constraint subspace over the field of rational functions in a

def _trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _padd(p, q):
    n = max(len(p), len(q))
    return _trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def _pneg(p):
    return [-c for c in p]


def _pmul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, ci in enumerate(p):
        for j, cj in enumerate(q):
            out[i + j] += ci * cj
    return _trim(out)


def _pdivmod(p, q):
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    while len(rem) >= len(q):
        c = rem[-1] / q[-1]
        k = len(rem) - len(q)
        quo[k] = c
        for i, qc in enumerate(q):
            rem[k + i] -= c * qc
        _trim(rem)
        if not rem:
            break
    return _trim(quo), _trim(rem)


def _pgcd(p, q):
    p, q = _trim(list(p)), _trim(list(q))
    while q:
        _, r = _pdivmod(p, q)
        p, q = q, r
    if p:
        lead = p[-1]
        p = [c / lead for c in p]
    return p


class RatA:
    """Rational function in a over the rationals (gcd-normalized)."""

    __slots__ = ("num", "den")

    def __init__(self, num: Sequence[Fraction], den: Sequence[Fraction] = (Fraction(1),)):
        num = _trim([Fraction(c) for c in num])
        den = _trim([Fraction(c) for c in den])
        if not den:
            raise ZeroDivisionError("zero denominator")
        if num:
            g = _pgcd(num, den)
            if len(g) > 1:
                num, _ = _pdivmod(num, g)
                den, _ = _pdivmod(den, g)
            lead = den[-1]
            num = [c / lead for c in num]
            den = [c / lead for c in den]
        else:
            den = [Fraction(1)]
        self.num = tuple(num)
        self.den = tuple(den)

    @classmethod
    def zero(cls):
        return cls([])

    @classmethod
    def one(cls):
        return cls([Fraction(1)])

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, o):
        return RatA(_padd(_pmul(list(self.num), list(o.den)), _pmul(list(o.num), list(self.den))),
                    _pmul(list(self.den), list(o.den)))

    def __sub__(self, o):
        return RatA(_padd(_pmul(list(self.num), list(o.den)), _pneg(_pmul(list(o.num), list(self.den)))),
                    _pmul(list(self.den), list(o.den)))

    def __mul__(self, o):
        return RatA(_pmul(list(self.num), list(o.num)), _pmul(list(self.den), list(o.den)))

    def __truediv__(self, o):
        if o.is_zero:
            raise ZeroDivisionError
        return RatA(_pmul(list(self.num), list(o.den)), _pmul(list(self.den), list(o.num)))

    def __neg__(self):
        return RatA(_pneg(list(self.num)), list(self.den))

    def __eq__(self, o):
        return isinstance(o, RatA) and self.num == o.num and self.den == o.den

    def __repr__(self):
        return f"RatA({list(self.num)}/{list(self.den)})"


def _a_poly_from_list(coeffs: Sequence[Fraction]) -> BivariatePoly:
    return BivariatePoly({(0, 0, k): c for k, c in enumerate(coeffs)})


@dataclass(frozen=True)
class ConstraintSystem:
    """Linear admissibility constraints on stress-basis coefficients.

    rows[m][i] is the (polynomial in a) coefficient of X^m in the
    residual of basis element i; the admissible stresses are exactly the
    nullspace vectors (entries polynomials in a, normalized to coprime
    integer content with a positive leading entry).
    """

    x_powers: tuple[int, ...]
    rows: tuple[tuple[BivariatePoly, ...], ...]
    nullspace: tuple[tuple[BivariatePoly, ...], ...]
    rank: int

    @property
    def n_basis(self) -> int:
        return len(self.rows[0]) if self.rows else 0


def compat_constraints(
    basis: Sequence[BivariatePoly],
    d: TriangleDomain | None = None,
) -> ConstraintSystem:
    """Exact constraint matrix and admissible-subspace basis for a
    polynomial stress family f = sum_i c_i * basis_i.

    With d=None the computation is carried out over the field of
    rational functions in a, reproducing parameter-wise identities such
    as the admissible ray of the linear-stress family.
    """
    if not basis:
        raise ValueError("basis must be nonempty")
    residuals = [exact_residual_poly(b, d) for b in basis]
    powers = sorted({i for r in residuals for i in r.coefficients_in_v1()})
    rows: list[list[BivariatePoly]] = []
    for m in powers:
        rows.append([r.coefficients_in_v1().get(m, BivariatePoly.zero()) for r in residuals])

    # Gauss-Jordan over Q(a)
    mat = [[RatA(entry.univariate_a_coeffs()) for entry in row] for row in rows]
    ncols = len(basis)
    pivot_cols: list[int] = []
    prow = 0
    for col in range(ncols):
        pivot = next((r for r in range(prow, len(mat)) if not mat[r][col].is_zero), None)
        if pivot is None:
            continue
        mat[prow], mat[pivot] = mat[pivot], mat[prow]
        pv = mat[prow][col]
        mat[prow] = [e / pv for e in mat[prow]]
        for r in range(len(mat)):
            if r != prow and not mat[r][col].is_zero:
                factor = mat[r][col]
                mat[r] = [er - factor * ep for er, ep in zip(mat[r], mat[prow])]
        pivot_cols.append(col)
        prow += 1
        if prow == len(mat):
            break
    rank = len(pivot_cols)

    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    nullspace: list[tuple[BivariatePoly, ...]] = []
    for fc in free_cols:
        vec = [RatA.zero()] * ncols
        vec[fc] = RatA.one()
        for prow_idx, pc in enumerate(pivot_cols):
            vec[pc] = -mat[prow_idx][fc]
        # clear denominators: multiply by the product of distinct denominators
        den = [Fraction(1)]
        for e in vec:
            g = _pgcd(den, list(e.den))
            extra, _ = _pdivmod(list(e.den), g) if len(g) > 1 else (list(e.den), [])
            den = _pmul(den, extra if extra else [Fraction(1)])
        cleared = []
        for e in vec:
            num = _pmul(list(e.num), _pdivmod(den, list(e.den))[0]) if e.num else []
            cleared.append(num)
        # divide out any common polynomial factor
        g = []
        for c in cleared:
            g = _pgcd(g, c) if g else _trim(list(c))
        if len(g) > 1:
            cleared = [(_pdivmod(c, g)[0] if c else []) for c in cleared]
        # scale to coprime integers with positive leading nonzero entry
        denom_lcm = 1
        numer_gcd = 0
        for c in cleared:
            for q in c:
                denom_lcm = denom_lcm * q.denominator // math.gcd(denom_lcm, q.denominator)
                numer_gcd = math.gcd(numer_gcd, abs(q.numerator))
        scale = Fraction(denom_lcm, numer_gcd or 1)
        cleared = [[q * scale for q in c] for c in cleared]
        g_int = 0
        for c in cleared:
            for q in c:
                g_int = math.gcd(g_int, abs(q.numerator))
        if g_int > 1:
            cleared = [[q / g_int for q in c] for c in cleared]
        first = next((c for c in cleared if c), None)
        if first and first[0] < 0:
            cleared = [[-q for q in c] for c in cleared]
        nullspace.append(tuple(_a_poly_from_list(c) for c in cleared))

    return ConstraintSystem(
        x_powers=tuple(powers),
        rows=tuple(tuple(row) for row in rows),
        nullspace=tuple(nullspace),
        rank=rank,
    )
