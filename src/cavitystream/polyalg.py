"""Exact bivariate polynomial arithmetic over the rationals.

Polynomials live in two abstract variables (v1, v2) plus an optional
symbolic length parameter ``a``.  The two variables are bound to (x, y),
(t, s) or (X, Y) purely by context.  A polynomial is stored as integer
numerators over one common denominator, in lowest terms (den > 0 and
gcd(den, *numerators) == 1), which is canonical either way.  Every ring
operation, differentiation, antidifferentiation, substitution and exact
evaluation below works on Python ints and reduces its result once;
``fractions.Fraction`` coefficients are built only where a caller asks
for them (``coefficients``, ``terms``, ``to_text``).  Numeric evaluation
falls back to floats as soon as a float argument appears.
"""

from __future__ import annotations

import decimal
import functools
import math
import types
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np

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


# significant digits of a coefficient too long for int -> str
ROUNDED_DIGITS = 17


def _coefficient_text(c: Fraction) -> str:
    """c > 0 exactly, as n or n/d, unless n or d has more decimal digits
    than the interpreter converts (``sys.get_int_max_str_digits``, 4300
    by default): then as ~d.dddde+N, c rounded to ROUNDED_DIGITS
    significant digits, the ~ marking the rounding."""
    try:
        return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    except ValueError:
        return "~" + _rounded_decimal(c)


def _rounded_decimal(c: Fraction) -> str:
    """c > 0 rounded half-even to ROUNDED_DIGITS significant digits, in
    scientific notation, without converting c's own integers to str."""
    ctx = decimal.Context(prec=ROUNDED_DIGITS, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    q = ctx.divide(decimal.Decimal(c.numerator), decimal.Decimal(c.denominator))
    return f"{q:.{ROUNDED_DIGITS - 1}e}"


def _make(num: dict[Key, int], den: int) -> "BivariatePoly":
    """The polynomial with numerators ``num`` (no zero among them) over
    ``den``, both already in lowest terms."""
    p = object.__new__(BivariatePoly)
    p._num, p._den, p._hash, p._compiled = num, den, None, None
    return p


def _reduced(num: dict[Key, int], den: int) -> "BivariatePoly":
    """The polynomial with numerators ``num`` (no zero among them) over
    ``den`` > 0, divided through by their one common gcd."""
    g = math.gcd(den, *num.values())
    if g != 1:
        num = {key: c // g for key, c in num.items()}
        den //= g
    return _make(num, den)


def _int_mul(p: dict[Key, int], q: dict[Key, int]) -> dict[Key, int]:
    out: dict[Key, int] = {}
    for (i1, j1, k1), c1 in p.items():
        for (i2, j2, k2), c2 in q.items():
            key = (i1 + i2, j1 + j2, k1 + k2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


@functools.lru_cache(maxsize=1024)
def binomial_row(i: int, j: int) -> tuple[int, ...]:
    """Coefficients of (v1 - v2)^i (v1 + v2)^j, homogeneous of degree
    n = i + j: entry m is the coefficient of v1^m v2^(n - m)."""
    row = [math.comb(j, m) for m in range(j + 1)]
    for _ in range(i):
        # times (v1 - v2): entry m takes entry m - 1 less entry m
        row = [lo - hi for lo, hi in zip([0] + row, row + [0])]
    return tuple(row)


def _grlex(key: Key) -> tuple[int, int, int]:
    # graded lexicographic, x-major within each total degree
    i, j, k = key
    return (i + j, -i, k)


def float_or_inf(c: Fraction) -> float:
    """float(c), or +-inf where c is beyond the float range, so that an
    overflowing coefficient gives inf or nan values and a failed check,
    not an exception."""
    return _ratio_or_inf(c.numerator, c.denominator)


def _ratio_or_inf(n: int, d: int) -> float:
    # n / d for d > 0: int true division is correctly rounded, so this is
    # float(Fraction(n, d)) without reducing first
    try:
        return n / d
    except OverflowError:
        return math.inf if n > 0 else -math.inf


# most Horner steps nested in one generated statement: far below the
# parser's nesting limit at any degree
_HORNER_RUN = 32


@functools.lru_cache(maxsize=128)
def _horner_code(tables: tuple[tuple[int, ...], ...], joint: bool = False) -> types.CodeType:
    """Code of ``evaluate(x, y, _c)`` for coefficient tables whose rows,
    top row first, hold tops[k] coefficients each up to their top
    nonzero one (at least the constant), ``tables`` giving each table's
    tops, and whose entries ``_c`` lists in that order, table by table,
    each row from its top power down.  For each table, unrolled, it
    performs every operation of

        acc = 0.0
        for row in reversed(table):
            inner = 0.0
            for c in reversed(row):
                inner = inner * y + c
            acc = acc * x + inner

    from each row's top nonzero coefficient on, in the same order, lower
    zero coefficients included.  The steps left out are those of leading
    zeros: there inner and acc stay +0.0 at a finite point, as at their
    start, so a row starts as 0.0 * y + c_top, and an all-zero top row
    is left out.  At an infinite or nan point each row is nan from its
    first 0.0 * y, as it was, so signed zeros, infinities and nans come
    out the same.  A table with no rows (a zero polynomial) is
    0.0 * x * y, with its signed zeros and nans.

    Without ``joint`` there is one table and the code returns its value.
    With it the code is ``evaluate(x, y, _c, _ndarray, _arrays)``: all
    tables in one body, returning the tuple of their values, and
    ``_arrays(x, y)`` where x is an ``_ndarray``, so that a float point
    pays one class test.
    """
    names = [f"c{k}" for k in range(sum(map(sum, tables)))]
    if joint:
        accs = [f"acc{t}" for t in range(len(tables))]
        lines = ["def evaluate(x, y, _c, _ndarray, _arrays):", "    if x.__class__ is _ndarray:",
                 "        return _arrays(x, y)"]
    else:
        (_,) = tables  # exactly one
        accs = ["acc"]
        lines = ["def evaluate(x, y, _c):"]
    if names:
        lines.append(f"    {', '.join(names)}, = _c")
    start = 0
    for acc, tops in zip(accs, tables):
        if not tops:
            lines.append(f"    {acc} = 0.0 * x * y")
            continue
        lines.append(f"    {acc} = 0.0")
        for top in tops:
            row, start = names[start:start + top], start + top
            inner = "0.0"
            for lo in range(0, top, _HORNER_RUN):
                for c in row[lo:lo + _HORNER_RUN]:
                    inner = f"({inner} * y + {c})"
                if lo + _HORNER_RUN < top:
                    lines.append(f"    inner = {inner}")
                    inner = "inner"
            lines.append(f"    {acc} = {acc} * x + {inner}")
    lines.append(f"    return {', '.join(accs)}" + ("," if joint else ""))
    namespace: dict = {}
    exec(compile("\n".join(lines), "<horner>", "exec"), namespace)
    return namespace["evaluate"].__code__


def joint_float_evaluator(polys: Sequence["BivariatePoly"], arrays: Callable) -> Callable:
    """One function of a float point that returns the tuple of each
    polynomial's ``float_evaluator`` value there, bit for bit: every
    table's own Horner steps, in the same order, in one generated body
    (``_horner_code``), with one tuple of coefficients.  Where x is a
    numpy array it returns ``arrays(x, y)`` instead.  Requires a to be
    bound."""
    layouts = [p._horner_layout() for p in polys]
    code = _horner_code(tuple(tops for tops, _ in layouts), True)
    coefs = tuple(c for _, table in layouts for c in table)
    return types.FunctionType(code, {}, "evaluate", (coefs, np.ndarray, arrays))


class BivariatePoly:
    """Immutable polynomial in (v1, v2, a) with rational coefficients,
    held as integer numerators over one common denominator.

    Zero coefficients are never stored and the numerators and
    denominator are in lowest terms, so two polynomials are equal iff
    their numerator maps and denominators are equal.
    """

    __slots__ = ("_num", "_den", "_hash", "_compiled")

    def __init__(self, coef: Mapping[Key, Scalar]):
        clean: dict[Key, Fraction] = {}
        for key, c in coef.items():
            i, j, k = key
            if i < 0 or j < 0 or k < 0:
                raise ValueError(f"negative exponent in {key}")
            f = _frac(c)
            if f:
                clean[(i, j, k)] = f
        # over the lcm of reduced denominators the numerators share no
        # factor with it: already lowest terms
        den = math.lcm(*(f.denominator for f in clean.values()))
        self._num = {key: f.numerator * (den // f.denominator) for key, f in clean.items()}
        self._den = den
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
    def from_integer_form(cls, num: Mapping[Key, int], den: int) -> "BivariatePoly":
        """The polynomial with coefficients num[key] / den, den > 0: the
        inverse of ``integer_form``, for any integers (zeros dropped,
        one reduction)."""
        return _reduced({key: c for key, c in num.items() if c}, den)

    @classmethod
    def from_terms(cls, terms: Mapping[tuple[int, int], Scalar]) -> "BivariatePoly":
        """Build from an (i, j) -> coefficient map with no symbolic a."""
        return cls({(i, j, 0): c for (i, j), c in terms.items()})

    # ------------------------------------------------------------------
    # inspection

    @property
    def coefficients(self) -> dict[Key, Fraction]:
        den = self._den
        return {key: Fraction(c, den) for key, c in self._num.items()}

    def terms(self) -> list[tuple[Key, Fraction]]:
        """Terms in graded-lex order (deterministic)."""
        return sorted(self.coefficients.items(), key=lambda kv: _grlex(kv[0]))

    def integer_form(self) -> tuple[dict[Key, int], int]:
        """(numerators, den): each coefficient is numerators[key] / den,
        with den > 0 and gcd(den, *numerators) == 1."""
        return dict(self._num), self._den

    @property
    def is_zero(self) -> bool:
        return not self._num

    def degree_in(self, var: int) -> int:
        if not self._num:
            return -1
        if var == 1:
            return max(i for i, _, _ in self._num)
        if var == 2:
            return max(j for _, j, _ in self._num)
        raise ValueError("var must be 1 or 2")

    @property
    def has_symbol_a(self) -> bool:
        return any(k for _, _, k in self._num)

    # ------------------------------------------------------------------
    # ring operations

    def _promote(self, other) -> "BivariatePoly":
        if isinstance(other, BivariatePoly):
            return other
        return BivariatePoly.const(other)

    def __add__(self, other) -> "BivariatePoly":
        other = self._promote(other)
        d1, d2 = self._den, other._den
        den = d1 if d1 == d2 else math.lcm(d1, d2)
        s1, s2 = den // d1, den // d2
        num = {key: c * s1 for key, c in self._num.items()} if s1 != 1 else dict(self._num)
        for key, c in other._num.items():
            num[key] = num.get(key, 0) + c * s2
        return _reduced({key: c for key, c in num.items() if c}, den)

    __radd__ = __add__

    def __sub__(self, other) -> "BivariatePoly":
        return self + (-self._promote(other))

    def __rsub__(self, other) -> "BivariatePoly":
        return self._promote(other) + (-self)

    def __neg__(self) -> "BivariatePoly":
        return _make({key: -c for key, c in self._num.items()}, self._den)

    def __mul__(self, other) -> "BivariatePoly":
        other = self._promote(other)
        num = _int_mul(self._num, other._num)
        return _reduced({key: c for key, c in num.items() if c}, self._den * other._den)

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
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._den, frozenset(self._num.items())))
        return self._hash

    # ------------------------------------------------------------------
    # calculus

    def diff(self, var: int, order: int = 1) -> "BivariatePoly":
        """Exact partial derivative with respect to v1 or v2."""
        if var not in (1, 2):
            raise ValueError("var must be 1 or 2")
        if order < 0:
            raise ValueError("order must be >= 0")
        num = self._num
        for _ in range(order):
            # the shifted keys are distinct, so nothing collects or cancels
            if var == 1:
                num = {(i - 1, j, k): c * i for (i, j, k), c in num.items() if i}
            else:
                num = {(i, j - 1, k): c * j for (i, j, k), c in num.items() if j}
        return _reduced(num, self._den) if order else self

    def antideriv(self, var: int) -> "BivariatePoly":
        """Term-wise antiderivative with zero integration constant."""
        if var not in (1, 2):
            raise ValueError("var must be 1 or 2")
        # every new power divides the lcm L of them: numerators times
        # L / power, over den * L
        slot = var - 1
        lcm = math.lcm(*(key[slot] + 1 for key in self._num))
        if var == 1:
            num = {(i + 1, j, k): c * (lcm // (i + 1)) for (i, j, k), c in self._num.items()}
        else:
            num = {(i, j + 1, k): c * (lcm // (j + 1)) for (i, j, k), c in self._num.items()}
        return _reduced(num, self._den * lcm)

    # ------------------------------------------------------------------
    # substitution

    def compose(self, img1: "BivariatePoly | Scalar", img2: "BivariatePoly | Scalar") -> "BivariatePoly":
        """Substitute polynomials (or scalars) for v1 and v2.

        The symbol a passes through untouched, so images may themselves
        contain a (e.g. substituting the upper limit t = 2a).  With
        self = P/D and the images n1/d1, n2/d2 the result is
        sum_i G_i (n1/d1)^i, G_i collecting the terms of v1 power i with
        v2 -> n2/d2; Horner in n1 then needs no division until the
        single denominator D d1^I d2^J (I, J the top powers).
        """
        num, den = self._num, self._den
        if not num:
            return self
        img1, img2 = self._promote(img1), self._promote(img2)
        n1, d1 = img1._num, img1._den
        n2, d2 = img2._num, img2._den
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
        return _reduced({key: c for key, c in acc.items() if c}, total)

    def subs_a(self, value: Scalar) -> "BivariatePoly":
        """Bind the symbolic parameter a to an exact numeric value."""
        v = _frac(value)
        if not self.has_symbol_a:
            return self
        n, d = v.numerator, v.denominator
        top = max(k for _, _, k in self._num)
        # a^k over a^top's denominator d^top
        powers = [n**k * d ** (top - k) for k in range(top + 1)]
        num: dict[Key, int] = {}
        for (i, j, k), c in self._num.items():
            key = (i, j, 0)
            num[key] = num.get(key, 0) + c * powers[k]
        return _reduced({key: c for key, c in num.items() if c}, self._den * d**top)

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
        if not self._num:
            return 0
        args = (x, y, a) if symbolic else (x, y)
        if all(isinstance(v, (int, Fraction)) for v in args):
            return self._eval_exact(x, y, a if symbolic else 1)
        return (self.subs_a(a) if symbolic else self).float_evaluator()(x, y)

    def _eval_exact(self, x: int | Fraction, y: int | Fraction, a: int | Fraction) -> Fraction:
        # sum of N_ijk x^i y^j a^k with every power over its top power's
        # denominator: one integer sum, one division
        num, den = self._num, self._den
        tables = []
        for slot, v in enumerate((x, y, a)):
            top = max(key[slot] for key in num)
            n, d = v.numerator, v.denominator
            tables.append([n**e * d ** (top - e) for e in range(top + 1)])
            den *= d**top
        px, py, pa = tables
        return Fraction(sum(c * px[i] * py[j] * pa[k] for (i, j, k), c in num.items()), den)

    def float_evaluator(self) -> Callable:
        """Horner evaluator over the coefficient table; requires a to be
        bound.

        The one-table case of ``_horner_code``, compiled once per
        pattern of row tops: each row starts at its top nonzero
        coefficient, and all-zero top rows are left out, with the bits
        of the dense table's Horner; the zero polynomial is
        0.0 * x * y.  This polynomial's coefficients, each its numerator
        over the denominator correctly rounded, are bound to it as one
        tuple (``_horner_layout``).  Accepts scalars or numpy arrays.
        Cached on the instance (idempotent, so benign under concurrent
        use).
        """
        if self._compiled is None:
            tops, coefs = self._horner_layout()
            self._compiled = types.FunctionType(_horner_code((tops,)), {}, "evaluate", (coefs,))
        return self._compiled

    def _horner_layout(self) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """(tops, coefficients) of ``_horner_code``'s table for this
        polynomial (a bound): each row up to its top coefficient other
        than +0.0 (an underflowed one may be -0.0), at least the
        constant, top row first, with all-zero top rows left out; the
        coefficients in the order the code reads them, each row from its
        top power down.  The zero polynomial has no rows."""
        if self.has_symbol_a:
            raise ValueError("bind a before compiling a float evaluator")
        if not self._num:
            return (), ()
        rows = [row[:max((j for j, c in enumerate(row) if c or math.copysign(1.0, c) < 0), default=0) + 1]
                for row in reversed(self._float_table())]
        while len(rows) > 1 and rows[0] == [0.0] and math.copysign(1.0, rows[0][0]) > 0:
            del rows[0]
        return tuple(map(len, rows)), tuple(c for row in rows for c in reversed(row))

    def _float_table(self) -> list[list[float]]:
        """The dense table of float coefficients, entry [i][j] that of
        v1^i v2^j: each numerator over the denominator, correctly
        rounded.  Requires a to be bound and the polynomial nonzero."""
        table = [[0.0] * (self.degree_in(2) + 1) for _ in range(self.degree_in(1) + 1)]
        for (i, j, _), c in self._num.items():
            table[i][j] = _ratio_or_inf(c, self._den)
        return table

    # ------------------------------------------------------------------
    # univariate views

    def coefficients_in_v1(self) -> dict[int, "BivariatePoly"]:
        """Map power-of-v1 -> coefficient polynomial (in v2 and a)."""
        out: dict[int, dict[Key, int]] = {}
        for (i, j, k), c in self._num.items():
            out.setdefault(i, {})[(0, j, k)] = c
        return {i: _reduced(m, self._den) for i, m in sorted(out.items())}

    # ------------------------------------------------------------------
    # formatting

    def to_text(self, names: tuple[str, str] = ("x", "y"), a_name: str = "a") -> str:
        """Serialize as a sum of c * x^i * y^j terms in graded-lex order,
        each coefficient as ``_coefficient_text`` writes it."""
        if not self._num:
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
            cs = _coefficient_text(mag)
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


def stacked_float_evaluator(polys: Sequence[BivariatePoly]) -> Callable:
    """One evaluator of several polynomials (a bound) on two 1-d float
    arrays x, y: an array with one row per polynomial, each element the
    bits of that polynomial's ``float_evaluator`` at its point.

    The tables are padded with zeros at their top powers to one shape,
    and every row is evaluated from the top of that shape: Horner's state
    stays +0.0 through leading zeros, as at its start, at every finite
    point (a non-finite one is nan from each row's first 0.0 * y, padded
    or not), which is why ``float_evaluator`` may skip them and still
    agree.  The rows of a table are independent until
    the outer sum, so each inner Horner step runs on every row of every
    polynomial at once: ni + nj steps of two array operations, not ni nj
    per polynomial.  A zero polynomial, whose evaluator forms
    0.0 * x * y with its own signed zeros, is evaluated apart.
    """
    polys = list(polys)
    if any(p.has_symbol_a for p in polys):
        raise ValueError("bind a before compiling a float evaluator")
    if not all(p._num for p in polys):
        fns = [p.float_evaluator() for p in polys]
        return lambda x, y: np.stack([np.broadcast_to(f(x, y), np.shape(x)) for f in fns])
    tables = [p._float_table() for p in polys]
    coef = np.zeros((max(map(len, tables)), max(len(t[0]) for t in tables), len(tables)))
    for k, t in enumerate(tables):
        coef[:len(t), :len(t[0]), k] = t
    # the columns in reading order, top power first, each (row, poly, 1)
    # with the top row first
    columns = [coef[::-1, j, :, None] for j in reversed(range(coef.shape[1]))]

    def evaluate(x, y):
        inner = 0.0 * y + columns[0]
        for c in columns[1:]:
            inner *= y
            inner += c
        acc = 0.0 * x + inner[0]
        for row in inner[1:]:
            acc *= x
            acc += row
        return acc

    return evaluate
