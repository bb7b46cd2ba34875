"""Admissibility of stress fields for a confined cavity flow.

A stress profile f = (1/mu) T_xy admits a boundary-vanishing stream
function iff the double integral of f over the rectangle
[X, 2a] x [-X, 0] (in characteristic coordinates, after the inverse
coordinate substitution) vanishes for every X in [0, 2a].  This module
evaluates that residual exactly for polynomial stresses, as the corner
values of one double antiderivative of the rotated stress
(``char_antiderivative``), in closed form for cosine stresses, and by
Gauss quadrature for opaque evaluators; for a polynomial basis it
computes the exact subspace of admissible coefficient vectors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .geometry import TriangleDomain, interior_lattice, boundary_sample
from .polyalg import BivariatePoly, binomial_row, float_or_inf
from .quadrature import default_quadrature_spec, integrate_rect
from .geometry import Rect


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
    """Stress known only through a continuous evaluator f(x, y) that
    takes numpy arrays."""

    fn: Callable

    def evaluator(self, a: float | None = None) -> Callable:
        return self.fn


StressField = PolynomialStress | CosineStress | OpaqueStress


def cosine_from_harmonic(amplitude: float, m: int, d: TriangleDomain) -> CosineStress:
    """Cosine stress with wavenumber m*pi/a (odd m is the admissible family)."""
    if m < 1:
        raise ValueError("harmonic m must be >= 1")
    return CosineStress(amplitude, m * math.pi / float(d.a))


def cosine_harmonic(f: StressField, a: float) -> float:
    """m = k a / pi for a cosine stress cos(k y), 0 for any other."""
    return abs(f.wavenumber) * a / math.pi if isinstance(f, CosineStress) else 0.0


def is_ridge(f: StressField) -> bool:
    """True when f reads only y, so g(t, s) = f(., (t+s)/2) is a ridge
    in t + s: a cosine stress."""
    return isinstance(f, CosineStress)


def stress_char_evaluator(f: StressField, a: float | None = None) -> Callable:
    """Evaluator of g(t, s) = f((t-s)/2, (t+s)/2) on numpy arrays."""
    ev = f.evaluator(a)
    if is_ridge(f):
        # a cosine stress reads only y = (t+s)/2: x is never formed
        return lambda t, s: ev(None, (t + s) / 2.0)
    return lambda t, s: ev((t - s) / 2.0, (t + s) / 2.0)


def stress_scale(f: StressField, d: TriangleDomain) -> float:
    """max |f| over the clipped 21 x 21 lattice plus the boundary sample."""
    ev = f.evaluator(float(d.a))
    pts = interior_lattice(d, 21) + boundary_sample(d, 63)
    return max(abs(float(ev(p.x, p.y))) for p in pts)


# ----------------------------------------------------------------------
# residuals

def char_antiderivative(f: BivariatePoly) -> BivariatePoly:
    """H(t, s) = int_0^t int_0^s g, g(t, s) = f((t-s)/2, (t+s)/2), exact.

    H vanishes on both axes, so g integrates over [t0, t1] x [s0, s1] to
    H(t1, s1) - H(t0, s1) - H(t1, s0) + H(t0, s0), the parallelogram rule
    of the wave equation.  The symbol a passes through untouched.

    Read off f's terms in one pass: c x^i y^j a^k rotates to
    c 2^-n (t-s)^i (t+s)^j a^k (n = i + j), whose term t^m s^(n-m)
    integrates to t^M s^L / (M L) with M = m + 1, L = n - m + 1; each
    key's divisor 2^n M L is read from the key itself, so the sums over
    f's terms are integers until one common denominator.
    """
    num, den = f.integer_form()
    acc = {}
    for (i, j, k), c in num.items():
        n = i + j
        for m, b in enumerate(binomial_row(i, j)):
            if b:
                key = (m + 1, n - m + 1, k)
                acc[key] = acc.get(key, 0) + c * b
    divisors = {(M, L, k): (M * L) << (M + L - 2) for M, L, k in acc}
    lcm = math.lcm(*divisors.values())
    return BivariatePoly.from_integer_form({key: c * (lcm // divisors[key]) for key, c in acc.items()}, den * lcm)


def exact_residual_poly(f: BivariatePoly, d: TriangleDomain | None) -> BivariatePoly:
    """The admissibility integral as an exact polynomial in X (slot v1),
    R(X) = H(X, -X) - H(2a, -X): the corners of [X, 2a] x [-X, 0] off
    the t axis.

    Pass d=None to keep the length parameter symbolic; the result is the
    zero polynomial iff the stress is admissible.  Each term
    h t^M s^L a^k of H = ``char_antiderivative(f)`` gives
    h (-1)^L (X^(M+L) - (2a)^M X^L) a^k: with d=None (2a)^M is
    2^M a^M, with a domain (2 n/q)^M over the one denominator q^top
    (a = n/q exactly, top H's highest power of t).
    """
    if d is not None and f.has_symbol_a:
        f = f.subs_a(Fraction(d.a))
    num, den = char_antiderivative(f).integer_form()
    top = max((M for M, _, _ in num), default=0)
    if d is None:
        lift, shift = 1, 1
        powers = [1 << M for M in range(top + 1)]
    else:
        a = Fraction(d.a)
        two_n, q = 2 * a.numerator, a.denominator
        lift, shift = q**top, 0
        powers = [two_n**M * q ** (top - M) for M in range(top + 1)]
        den *= lift
    out = {}
    for (M, L, k), h in num.items():
        if L & 1:
            h = -h
        key = (M + L, 0, k)
        out[key] = out.get(key, 0) + h * lift
        key = (L, 0, k + shift * M)
        out[key] = out.get(key, 0) - h * powers[M]
    return BivariatePoly.from_integer_form(out, den)


def _cosine_residual(A: float, k: float, a: float, X) -> float:
    """Closed-form residual for A*cos(k y); exact antiderivatives, no quadrature."""
    if k == 0:
        return A * X * (2 * a - X)
    c = 4.0 * A / np.float64(k * k)  # inf, not a ZeroDivisionError, where k * k underflows
    return c * (np.cos(k * X / 2.0) - np.cos(k * a) + np.cos(k * (2 * a - X) / 2.0) - 1.0)


def compat_residual(f: StressField, d: TriangleDomain, X: float) -> float:
    """Residual of the admissibility condition at a single X in [0, 2a];
    an opaque stress is integrated under ``default_quadrature_spec()``."""
    a = float(d.a)
    if not (-1e-12 * a <= X <= 2 * a * (1 + 1e-12)):
        raise ValueError(f"X={X} outside [0, {2 * a}]")
    if isinstance(f, PolynomialStress):
        r = exact_residual_poly(f.poly, d)
        return float(r.eval(Fraction(X), 0))
    if isinstance(f, CosineStress):
        return float(_cosine_residual(f.amplitude, f.wavenumber, a, X))
    g = stress_char_evaluator(f, a)
    return integrate_rect(g, Rect(X, 2 * a, -X, 0.0), default_quadrature_spec(), 2 * a)


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


N_SWEEP = 65
TOLERANCE = 1e-10


def compat_check(f: StressField, d: TriangleDomain) -> CompatibilityReport:
    """Residual sweep over N_SWEEP Chebyshev nodes plus, for polynomial
    stresses, the exact vanishing criterion (which then decides the
    verdict); other stresses pass when the largest residual is at most
    TOLERANCE times (2a)^2 max|f|, which must then be finite."""
    a = float(d.a)
    nodes = chebyshev_nodes(N_SWEEP, 0.0, 2 * a)
    exact = None
    if isinstance(f, PolynomialStress):
        # one residual polynomial, symbolic in a iff the stress is, serves
        # the verdict and every sweep node
        exact = exact_residual_poly(f.poly, None if f.poly.has_symbol_a else d)
        sweep = tuple((X, float_or_inf(exact.eval(Fraction(X), 0, Fraction(d.a)))) for X in nodes)
    else:
        sweep = tuple((X, compat_residual(f, d, X)) for X in nodes)
    max_abs = max(abs(r) for _, r in sweep)
    norm = 4 * a * a * stress_scale(f, d)  # inf, not an OverflowError, past the float range
    exact_text = None
    if exact is not None:
        exact_text = exact.to_text(names=("X", "_"))
        ok = exact.is_zero
    else:
        # a normalization that overflows leaves the sweep unjudged
        ok = max_abs <= TOLERANCE * max(norm, 1e-300) and math.isfinite(norm)
    verdict = COMPATIBLE if ok else INCOMPATIBLE
    return CompatibilityReport(
        sweep=sweep,
        max_abs_residual=max_abs,
        normalization=norm,
        tolerance=TOLERANCE,
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
        report = compat_check(CosineStress(1.0, k), d)
        if not report.is_compatible:
            raise ArithmeticError(f"wavenumber {k} failed the admissibility sweep")
        out.append(k)
    return out


# ----------------------------------------------------------------------
# exact constraint subspace

@dataclass(frozen=True)
class ConstraintSystem:
    """Linear admissibility constraints on stress-basis coefficients.

    rows[m][i] is the (polynomial in a) coefficient of X^m in the
    residual of basis element i; the admissible stresses are exactly the
    nullspace vectors.  Each nullspace entry is a monomial n_i * a^k_i:
    the integers n_i are coprime and k_i = 0 for the entries of highest
    residual degree.  A vector is negated only when its first nonzero
    entry is negative and carries no power of a.
    """

    x_powers: tuple[int, ...]
    rows: tuple[tuple[BivariatePoly, ...], ...]
    nullspace: tuple[tuple[BivariatePoly, ...], ...]
    rank: int


def _primitive(row: list[int]) -> list[int]:
    g = math.gcd(*row)
    return [e // g for e in row] if g > 1 else row


def compat_constraints(
    basis: Sequence[BivariatePoly],
    d: TriangleDomain | None = None,
) -> ConstraintSystem:
    """Exact constraint matrix and admissible-subspace basis for a
    polynomial stress family f = sum_i c_i * basis_i.

    The residual of a stress of joint degree n in (x, y, a) is
    homogeneous of degree e = n + 2 in (X, a), so with d=None the
    constraint matrix over Q(a) is diag(a^-m) . R . diag(a^e_i) with R
    rational: its nullspace is R's, entry i scaled by a^(E - e_i) where
    E is the largest e_i over the vector's nonzero entries.  This
    reproduces parameter-wise identities such as the admissible ray of
    the linear-stress family.  With d=None each basis element must be
    homogeneous (ValueError otherwise); with a domain any basis works.
    """
    if not basis:
        raise ValueError("basis must be nonempty")
    residuals = [exact_residual_poly(b, d) for b in basis]
    by_power = [r.coefficients_in_v1() for r in residuals]
    powers = sorted({m for coeffs in by_power for m in coeffs})
    zero = BivariatePoly.zero()
    rows = [[coeffs.get(m, zero) for coeffs in by_power] for m in powers]

    # one term per power of X: c * a^(e_i - m), or c alone with a bound
    degrees = [0] * len(basis)
    if d is None:
        for i, r in enumerate(residuals):
            found = {m + k for m, _, k in r.integer_form()[0]}
            if len(found) > 1:
                raise ValueError(f"basis element {i} ({basis[i].to_text()}) has a residual that is "
                                 "not homogeneous in (X, a); bind a with a domain")
            degrees[i] = found.pop() if found else 0
    # entry i is the sum of its coefficients (one term with d=None, none
    # of a with a domain): its numerator sum over its denominator.  Clear
    # each row's denominators; Gauss-Jordan over Z, each new row divided
    # by its gcd, so every row stays a multiple of the rational one
    mat = []
    for row in rows:
        forms = [e.integer_form() for e in row]
        den = math.lcm(*(d for _, d in forms))
        mat.append(_primitive([sum(num.values()) * (den // d) for num, d in forms]))

    ncols = len(basis)
    pivot_cols: list[int] = []
    prow = 0
    for col in range(ncols):
        pivot = next((r for r in range(prow, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[prow], mat[pivot] = mat[pivot], mat[prow]
        prow_vals = mat[prow]
        pv = prow_vals[col]
        for r in range(len(mat)):
            if r != prow and mat[r][col]:
                factor = mat[r][col]
                mat[r] = _primitive([pv * er - factor * ep for er, ep in zip(mat[r], prow_vals)])
        pivot_cols.append(col)
        prow += 1
        if prow == len(mat):
            break

    nullspace: list[tuple[BivariatePoly, ...]] = []
    for fc in (c for c in range(ncols) if c not in pivot_cols):
        # vec[fc] = 1, vec[pc] = -mat[p][fc] / mat[p][pc], scaled to integers
        scale = math.lcm(*(mat[p][pc] for p, pc in enumerate(pivot_cols) if mat[p][fc]))
        ints = [0] * ncols
        ints[fc] = scale
        for p, pc in enumerate(pivot_cols):
            ints[pc] = -mat[p][fc] * (scale // mat[p][pc])
        g = math.gcd(*ints)
        ints = [n // g for n in ints]
        top = max(degrees[i] for i, n in enumerate(ints) if n)
        first = next(i for i, n in enumerate(ints) if n)
        if ints[first] < 0 and degrees[first] == top:
            ints = [-n for n in ints]
        nullspace.append(tuple(BivariatePoly.monomial(n, 0, 0, top - degrees[i]) if n else zero
                               for i, n in enumerate(ints)))

    return ConstraintSystem(
        x_powers=tuple(powers),
        rows=tuple(tuple(row) for row in rows),
        nullspace=tuple(nullspace),
        rank=len(pivot_cols),
    )
