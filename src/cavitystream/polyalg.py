"""Exact bivariate polynomial arithmetic over the rationals.

Polynomials live in two abstract variables (v1, v2) plus an optional
symbolic length parameter ``a``.  The two variables are bound to (x, y),
(t, s) or (X, Y) purely by context; the coefficient map is the canonical
representation either way.  Coefficients are ``fractions.Fraction``, so
every ring operation, differentiation, antidifferentiation and
substitution below is exact.  Numeric evaluation falls back to floats as
soon as a float argument appears.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Union

Scalar = Union[int, Fraction, float]
Key = tuple[int, int, int]  # exponents of (v1, v2, a)


def _frac(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, float):
        # exact binary value of the float; keeps downstream arithmetic exact
        return Fraction(c)
    raise TypeError(f"unsupported coefficient type: {type(c).__name__}")


def _numerators(p: "BivariatePoly") -> tuple[dict[Key, int], int]:
    """(integer numerators, common denominator) of p's coefficients."""
    den = math.lcm(*(c.denominator for c in p._coef.values()))
    return {key: c.numerator * (den // c.denominator) for key, c in p._coef.items()}, den


def _int_mul(p: dict[Key, int], q: dict[Key, int]) -> dict[Key, int]:
    out: dict[Key, int] = {}
    for (i1, j1, k1), c1 in p.items():
        for (i2, j2, k2), c2 in q.items():
            key = (i1 + i2, j1 + j2, k1 + k2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _grlex(key: Key) -> tuple[int, int, int]:
    # graded lexicographic, x-major within each total degree
    i, j, k = key
    return (i + j, -i, k)


def float_or_inf(c: Fraction) -> float:
    """float(c), or +-inf where c is beyond the float range, so that an
    overflowing coefficient gives inf or nan values and a failed check,
    not an exception."""
    try:
        return float(c)
    except OverflowError:
        return math.inf if c > 0 else -math.inf


class BivariatePoly:
    """Immutable polynomial in (v1, v2, a) with Fraction coefficients.

    Zero coefficients are never stored; two polynomials are equal iff
    their coefficient maps are equal.
    """

    __slots__ = ("_coef", "_hash", "_compiled")

    def __init__(self, coef: Mapping[Key, Scalar]):
        clean: dict[Key, Fraction] = {}
        for key, c in coef.items():
            i, j, k = key
            if i < 0 or j < 0 or k < 0:
                raise ValueError(f"negative exponent in {key}")
            f = _frac(c)
            if f:
                clean[(i, j, k)] = f
        self._coef = clean
        self._hash = None
        self._compiled = None

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls) -> "BivariatePoly":
        return cls({})

    @classmethod
    def const(cls, c: Scalar) -> "BivariatePoly":
        return cls({(0, 0, 0): c})

    @classmethod
    def v1(cls) -> "BivariatePoly":
        return cls({(1, 0, 0): 1})

    @classmethod
    def v2(cls) -> "BivariatePoly":
        return cls({(0, 1, 0): 1})

    @classmethod
    def sym_a(cls) -> "BivariatePoly":
        return cls({(0, 0, 1): 1})

    @classmethod
    def monomial(cls, c: Scalar, i: int, j: int, k: int = 0) -> "BivariatePoly":
        return cls({(i, j, k): c})

    @classmethod
    def from_terms(cls, terms: Mapping[tuple[int, int], Scalar]) -> "BivariatePoly":
        """Build from an (i, j) -> coefficient map with no symbolic a."""
        return cls({(i, j, 0): c for (i, j), c in terms.items()})

    # ------------------------------------------------------------------
    # inspection

    @property
    def coefficients(self) -> dict[Key, Fraction]:
        return dict(self._coef)

    def terms(self) -> list[tuple[Key, Fraction]]:
        """Terms in graded-lex order (deterministic)."""
        return sorted(self._coef.items(), key=lambda kv: _grlex(kv[0]))

    @property
    def is_zero(self) -> bool:
        return not self._coef

    def degree_in(self, var: int) -> int:
        if not self._coef:
            return -1
        if var == 1:
            return max(i for i, _, _ in self._coef)
        if var == 2:
            return max(j for _, j, _ in self._coef)
        raise ValueError("var must be 1 or 2")

    @property
    def has_symbol_a(self) -> bool:
        return any(k for _, _, k in self._coef)

    # ------------------------------------------------------------------
    # ring operations

    def _promote(self, other) -> "BivariatePoly":
        if isinstance(other, BivariatePoly):
            return other
        return BivariatePoly.const(other)

    def __add__(self, other) -> "BivariatePoly":
        other = self._promote(other)
        coef = dict(self._coef)
        for key, c in other._coef.items():
            coef[key] = coef.get(key, Fraction(0)) + c
        return BivariatePoly(coef)

    __radd__ = __add__

    def __sub__(self, other) -> "BivariatePoly":
        return self + (-self._promote(other))

    def __rsub__(self, other) -> "BivariatePoly":
        return self._promote(other) + (-self)

    def __neg__(self) -> "BivariatePoly":
        return BivariatePoly({key: -c for key, c in self._coef.items()})

    def __mul__(self, other) -> "BivariatePoly":
        # integer numerators, one division per result coefficient
        num1, den1 = _numerators(self)
        num2, den2 = _numerators(self._promote(other))
        den = den1 * den2
        return BivariatePoly({key: Fraction(c, den) for key, c in _int_mul(num1, num2).items()})

    __rmul__ = __mul__

    def __truediv__(self, c: Scalar) -> "BivariatePoly":
        f = _frac(c)
        if not f:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        return self * (1 / f)

    def __pow__(self, n: int) -> "BivariatePoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = BivariatePoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, float)):
            other = BivariatePoly.const(other)
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return self._coef == other._coef

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._coef.items()))
        return self._hash

    # ------------------------------------------------------------------
    # calculus

    def diff(self, var: int, order: int = 1) -> "BivariatePoly":
        """Exact partial derivative with respect to v1 or v2."""
        if var not in (1, 2):
            raise ValueError("var must be 1 or 2")
        if order < 0:
            raise ValueError("order must be >= 0")
        p = self
        for _ in range(order):
            coef: dict[Key, Fraction] = {}
            for (i, j, k), c in p._coef.items():
                e = i if var == 1 else j
                if e == 0:
                    continue
                key = (i - 1, j, k) if var == 1 else (i, j - 1, k)
                coef[key] = coef.get(key, Fraction(0)) + c * e
            p = BivariatePoly(coef)
        return p

    def antideriv(self, var: int) -> "BivariatePoly":
        """Term-wise antiderivative with zero integration constant."""
        if var not in (1, 2):
            raise ValueError("var must be 1 or 2")
        coef: dict[Key, Fraction] = {}
        for (i, j, k), c in self._coef.items():
            if var == 1:
                coef[(i + 1, j, k)] = c / (i + 1)
            else:
                coef[(i, j + 1, k)] = c / (j + 1)
        return BivariatePoly(coef)

    # ------------------------------------------------------------------
    # substitution

    def compose(self, img1: "BivariatePoly | Scalar", img2: "BivariatePoly | Scalar") -> "BivariatePoly":
        """Substitute polynomials (or scalars) for v1 and v2.

        The symbol a passes through untouched, so images may themselves
        contain a (e.g. substituting the upper limit t = 2a).  Works on
        integer numerators: with self = P/D and the images n1/d1, n2/d2
        the result is sum_i G_i (n1/d1)^i, G_i collecting the terms of
        v1 power i with v2 -> n2/d2; Horner in n1 then needs no division
        until the single denominator D d1^I d2^J (I, J the top powers).
        """
        num, den = _numerators(self)
        if not num:
            return BivariatePoly.zero()
        n1, d1 = _numerators(self._promote(img1))
        n2, d2 = _numerators(self._promote(img2))
        top1 = max(i for i, _, _ in num)
        top2 = max(j for _, j, _ in num)

        pow2 = [{(0, 0, 0): 1}]
        for _ in range(top2):
            pow2.append(_int_mul(pow2[-1], n2))
        groups: dict[int, dict[Key, int]] = {}
        for (i, j, k), c in num.items():
            g = groups.setdefault(i, {})
            c *= d2 ** (top2 - j)
            for (i2, j2, k2), c2 in pow2[j].items():
                key = (i2, j2, k2 + k)
                g[key] = g.get(key, 0) + c * c2

        acc: dict[Key, int] = {}
        for i in range(top1, -1, -1):
            if acc:
                acc = _int_mul(acc, n1)
            g = groups.get(i)
            if g:
                scale = d1 ** (top1 - i)
                for key, c in g.items():
                    acc[key] = acc.get(key, 0) + c * scale
        total = den * d1**top1 * d2**top2
        return BivariatePoly({key: Fraction(c, total) for key, c in acc.items() if c})

    def subs_a(self, value: Scalar) -> "BivariatePoly":
        """Bind the symbolic parameter a to an exact numeric value."""
        v = _frac(value)
        coef: dict[Key, Fraction] = {}
        for (i, j, k), c in self._coef.items():
            key = (i, j, 0)
            coef[key] = coef.get(key, Fraction(0)) + c * v**k
        return BivariatePoly(coef)

    # ------------------------------------------------------------------
    # evaluation

    def eval(self, x, y, a=None):
        """Evaluate at (x, y); exact when the inputs are exact.

        ``a`` must be supplied iff the polynomial carries the symbol.
        Exact (int or Fraction) inputs are summed as integers over one
        denominator; a float input goes to ``float_evaluator``, after
        binding a.
        """
        symbolic = self.has_symbol_a
        if symbolic and a is None:
            raise ValueError("polynomial carries the symbol a; pass a value for it")
        if not self._coef:
            return 0
        args = (x, y, a) if symbolic else (x, y)
        if all(isinstance(v, (int, Fraction)) for v in args):
            return self._eval_exact(Fraction(x), Fraction(y), Fraction(a if symbolic else 1))
        return (self.subs_a(a) if symbolic else self).float_evaluator()(x, y)

    def _eval_exact(self, x: Fraction, y: Fraction, a: Fraction) -> Fraction:
        # sum of N_ijk x^i y^j a^k with every power over its top power's
        # denominator: one integer sum, one division
        num, den = _numerators(self)
        tables = []
        for slot, v in enumerate((x, y, a)):
            top = max(key[slot] for key in num)
            n, d = v.numerator, v.denominator
            tables.append([n**e * d ** (top - e) for e in range(top + 1)])
            den *= d**top
        px, py, pa = tables
        return Fraction(sum(c * px[i] * py[j] * pa[k] for (i, j, k), c in num.items()), den)

    def float_evaluator(self) -> Callable:
        """Compiled Horner evaluator; requires a to be bound.

        Accepts scalars or numpy arrays. Cached on the instance
        (idempotent, so benign under concurrent use).
        """
        if self._compiled is None:
            if self.has_symbol_a:
                raise ValueError("bind a before compiling a float evaluator")
            if not self._coef:
                self._compiled = lambda x, y: 0.0 * x * y
            else:
                ni = self.degree_in(1) + 1
                nj = self.degree_in(2) + 1
                rows = [[0.0] * nj for _ in range(ni)]
                for (i, j, _), c in self._coef.items():
                    rows[i][j] = float_or_inf(c)

                def evaluate(x, y, _rows=rows):
                    acc = 0.0
                    for row in reversed(_rows):
                        inner = 0.0
                        for c in reversed(row):
                            inner = inner * y + c
                        acc = acc * x + inner
                    return acc

                self._compiled = evaluate
        return self._compiled

    # ------------------------------------------------------------------
    # univariate views

    def coefficients_in_v1(self) -> dict[int, "BivariatePoly"]:
        """Map power-of-v1 -> coefficient polynomial (in v2 and a)."""
        out: dict[int, dict[Key, Fraction]] = {}
        for (i, j, k), c in self._coef.items():
            out.setdefault(i, {})[(0, j, k)] = c
        return {i: BivariatePoly(m) for i, m in sorted(out.items())}

    # ------------------------------------------------------------------
    # formatting

    def to_text(self, names: tuple[str, str] = ("x", "y"), a_name: str = "a") -> str:
        """Serialize as a sum of c * x^i * y^j terms in graded-lex order."""
        if not self._coef:
            return "0"
        parts: list[str] = []
        for (i, j, k), c in self.terms():
            factors: list[str] = []
            if k:
                factors.append(a_name if k == 1 else f"{a_name}^{k}")
            if i:
                factors.append(names[0] if i == 1 else f"{names[0]}^{i}")
            if j:
                factors.append(names[1] if j == 1 else f"{names[1]}^{j}")
            mag = abs(c)
            cs = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
            if factors and mag == 1:
                body = "*".join(factors)
            elif factors:
                body = "*".join([cs] + factors)
            else:
                body = cs
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"BivariatePoly({self.to_text(('v1', 'v2'))})"


def poly_vars() -> tuple[BivariatePoly, BivariatePoly, BivariatePoly]:
    """Generators (v1, v2, a) for expression-style construction."""
    return BivariatePoly.v1(), BivariatePoly.v2(), BivariatePoly.sym_a()


def wave_operator(p: BivariatePoly) -> BivariatePoly:
    """Apply -d2/dv1^2 + d2/dv2^2 (the shear-flow operator on (x, y))."""
    return -p.diff(1, 2) + p.diff(2, 2)
