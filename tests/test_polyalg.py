"""Exact polynomial engine: ring behavior, calculus, substitution."""

import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavitystream.geometry import TriangleDomain
from cavitystream.polyalg import BivariatePoly, binomial_row, float_or_inf, joint_float_evaluator, poly_vars, \
    stacked_float_evaluator, wave_operator
from cavitystream.solver import FEW_POINTS, PolyStreamFunction, linear_example, realistic_example

from helpers import dense_float_evaluator

X, Y, A = poly_vars()


def small_polys(max_degree=4, max_terms=6, coeff=6):
    keys = st.tuples(
        st.integers(min_value=0, max_value=max_degree),
        st.integers(min_value=0, max_value=max_degree),
        st.integers(min_value=0, max_value=2),
    )
    coeffs = st.fractions(min_value=-coeff, max_value=coeff, max_denominator=4)
    return st.dictionaries(keys, coeffs, max_size=max_terms).map(BivariatePoly)


class TestRing:
    def test_eval_simple_cube(self):
        p = Y**3
        assert p.eval(2, 3) == 27

    def test_linear_case_stream_function_vanishes_at_apex(self):
        psi = 2 * Y**3 - 2 * X**2 * Y - 4 * Y**2 + 4 * X * Y
        assert psi.eval(1, 1) == 0

    def test_linear_stress_sign_change(self):
        f = 16 * Y - 8
        assert f.eval(Fraction(1, 2), Fraction(1, 2)) == 0

    def test_difference_of_squares(self):
        assert (X + Y) * (X - Y) == X**2 - Y**2

    def test_cancellation_to_zero(self):
        p = 3 * X**2 * Y - Y + 7
        assert (p + (-1) * p).is_zero

    def test_factored_stream_function_expands(self):
        expanded = 2 * Y**3 - 2 * X**2 * Y - 4 * A * Y**2 + 4 * A * X * Y
        factored = 2 * Y * (Y - X) * (X + Y - 2 * A)
        assert factored == expanded

    @settings(max_examples=40, deadline=None)
    @given(small_polys(), small_polys(), small_polys())
    def test_ring_axioms(self, p, q, r):
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + q == q + p
        assert p * q == q * p

    def test_pow_matches_repeated_mul(self):
        p = X + 2 * Y - 1
        assert p**3 == p * p * p
        assert p**0 == BivariatePoly.const(1)


class TestCalculus:
    def test_second_derivative(self):
        p = X**2 * Y
        assert p.diff(1, 2) == 2 * Y

    def test_wave_operator_reproduces_linear_stress(self):
        psi = 2 * Y**3 - 2 * X**2 * Y - 4 * Y**2 + 4 * X * Y
        assert wave_operator(psi) == 16 * Y - 8

    def test_velocity_component(self):
        psi = 2 * Y**3 - 2 * X**2 * Y - 4 * Y**2 + 4 * X * Y
        assert psi.diff(2) == -2 * X**2 + 6 * Y**2 + 4 * X - 8 * Y

    def test_antideriv_basic(self):
        assert X.antideriv(1) == X**2 * Fraction(1, 2)
        assert BivariatePoly.zero().antideriv(1).is_zero

    @settings(max_examples=40, deadline=None)
    @given(small_polys(), st.sampled_from([1, 2]))
    def test_diff_inverts_antideriv(self, p, var):
        assert p.antideriv(var).diff(var) == p


class TestSubstitution:
    def test_char_substitution_of_x(self):
        # x composed with ((t-s)/2, (t+s)/2)
        half = Fraction(1, 2)
        assert X.compose((X - Y) * half, (X + Y) * half) == (X - Y) * half

    def test_identity_map(self):
        p = 3 * X**2 - Y + 5
        assert p.compose(X, Y) == p

    def test_linear_stress_in_characteristic_coordinates(self):
        f = 16 * Y - 8
        half = Fraction(1, 2)
        g = f.compose((X - Y) * half, (X + Y) * half)
        assert g == 8 * X + 8 * Y - 8

    @settings(max_examples=40, deadline=None)
    @given(small_polys())
    def test_coordinate_change_round_trip(self, p):
        half = Fraction(1, 2)
        forward = p.compose(X + Y, -X + Y)
        back = forward.compose((X - Y) * half, (X + Y) * half)
        assert back == p

    def test_subs_a(self):
        p = 4 * A * X * Y - 8 * A**2
        assert p.subs_a(1) == 4 * X * Y - 8
        assert p.subs_a(Fraction(1, 2)) == 2 * X * Y - 2


def _dict_product(p, q):
    """p * q by Fraction products over both coefficient maps."""
    coef = {}
    for (i1, j1, k1), c1 in p.coefficients.items():
        for (i2, j2, k2), c2 in q.coefficients.items():
            key = (i1 + i2, j1 + j2, k1 + k2)
            coef[key] = coef.get(key, Fraction(0)) + c1 * c2
    return BivariatePoly(coef)


def _compose_reference(p, img1, img2):
    """Substitution by Fraction dict products, term by term."""
    img1, img2 = (i if isinstance(i, BivariatePoly) else BivariatePoly.const(i) for i in (img1, img2))
    out = BivariatePoly.zero()
    for (i, j, k), c in p.terms():
        term = BivariatePoly.monomial(c, 0, 0, k)
        for img in [img1] * i + [img2] * j:
            term = _dict_product(term, img)
        out = out + term
    return out


def _seeded_poly(rng, degree, with_a, dens=(1, 2, 3, 5, 7)):
    return BivariatePoly({(i, j, rng.randint(0, 2) if with_a else 0):
                          Fraction(rng.randint(-9, 9), rng.choice(dens))
                          for i in range(degree + 1) for j in range(degree + 1 - i)})


class TestIntegerCompose:
    """compose on integer numerators equals the Fraction dict products."""

    IMAGES = {
        "characteristic": ((X - Y) * Fraction(1, 2), (X + Y) * Fraction(1, 2)),
        "corners": (X + Y, Y - X),
        "odd denominators": (X * Fraction(5, 3) - Fraction(2, 7), Y * Fraction(-1, 9) + X),
        "symbolic edge": (X, 2 * A - X),
        "scalar 2a": (2 * A, -X),
        "a = 3/7": (2 * BivariatePoly.const(Fraction(3, 7)), -X),
        "a = 0.37": (X * 0.37, 2 * 0.37 - X),
        "scalar zero": (X, 0),
        "nonlinear 2aX": (2 * A * X, X * Y + Fraction(1, 3)),
        "nonlinear squares": (X**2 - A, Y**2 * Fraction(2, 5) + A * X),
    }

    @pytest.mark.parametrize("name", list(IMAGES))
    @pytest.mark.parametrize("with_a", [False, True], ids=["bound", "symbolic"])
    def test_matches_dict_products(self, name, with_a):
        img1, img2 = self.IMAGES[name]
        rng = random.Random(f"{name}-{with_a}")
        for degree in (0, 1, 4, 7):
            p = _seeded_poly(rng, degree, with_a)
            assert p.compose(img1, img2) == _compose_reference(p, img1, img2)

    def test_scalar_images(self):
        p = _seeded_poly(random.Random(5), 5, True)
        for v1, v2 in [(Fraction(3, 7), 2), (0.37, Fraction(-1, 3)), (0, 0)]:
            expected = _compose_reference(p, BivariatePoly.const(v1), BivariatePoly.const(v2))
            assert p.compose(v1, v2) == expected

    def test_zero_polynomial(self):
        assert BivariatePoly.zero().compose(X + 1, Y).is_zero


class TestIntegerMul:
    """The product on integer numerators equals the Fraction dict product."""

    @pytest.mark.parametrize("with_a", [False, True], ids=["bound", "symbolic"])
    def test_matches_dict_products(self, with_a):
        rng = random.Random(f"mul-{with_a}")
        for d1, d2 in [(0, 0), (1, 4), (4, 1), (5, 7)]:
            p, q = _seeded_poly(rng, d1, with_a), _seeded_poly(rng, d2, with_a, dens=(1, 3, 4, 9))
            assert p * q == _dict_product(p, q)
            assert q * p == _dict_product(p, q)

    def test_scalars(self):
        p = _seeded_poly(random.Random(3), 5, True)
        for c in (Fraction(3, 7), 0.37, -2, 0, Fraction(1, 2)):
            expected = _dict_product(p, BivariatePoly.const(c))
            assert p * c == expected and c * p == expected

    def test_zero(self):
        p = _seeded_poly(random.Random(4), 3, True)
        zero = BivariatePoly.zero()
        assert (p * zero).is_zero and (zero * p).is_zero and (zero * zero).is_zero


class TestBinomialRow:
    def test_matches_the_expanded_product(self):
        for i in range(7):
            for j in range(7):
                p = (X - Y) ** i * (X + Y) ** j
                n = i + j
                assert binomial_row(i, j) == tuple(p.coefficients.get((m, n - m, 0), 0) for m in range(n + 1))

    def test_integer_form_round_trip(self):
        p = _seeded_poly(random.Random(5), 5, True, dens=(1, 3, 4, 9))
        num, den = p.integer_form()
        assert BivariatePoly.from_integer_form(num, den) == p
        # any multiple, zeros included, reduces to the same form
        scaled = {key: 6 * c for key, c in num.items()} | {(9, 9, 0): 0}
        assert BivariatePoly.from_integer_form(scaled, 6 * den).integer_form() == (num, den)


# ----------------------------------------------------------------------
# every operation against a plain dict-of-Fraction reference


def _coef_maps(max_degree=12, max_terms=8, with_a=True):
    """(i, j, k) -> Fraction maps, zeros dropped: degrees up to 12,
    powers of a up to 3, and coefficients from small integers to
    40-digit numerators over 40-digit denominators."""
    keys = st.tuples(st.integers(0, max_degree), st.integers(0, max_degree), st.integers(0, 3 if with_a else 0))
    small = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    long = st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**40))
    return st.dictionaries(keys, st.one_of(small, long), max_size=max_terms).map(
        lambda m: {key: c for key, c in m.items() if c})


def _ref_add(p, q, sign=1):
    out = dict(p)
    for key, c in q.items():
        out[key] = out.get(key, Fraction(0)) + sign * c
    return {key: c for key, c in out.items() if c}


def _ref_mul(p, q):
    out = {}
    for (i1, j1, k1), c1 in p.items():
        for (i2, j2, k2), c2 in q.items():
            key = (i1 + i2, j1 + j2, k1 + k2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {key: c for key, c in out.items() if c}


def _ref_pow(p, n):
    out = {(0, 0, 0): Fraction(1)}
    for _ in range(n):
        out = _ref_mul(out, p)
    return out


def _ref_diff(p, var):
    slot = var - 1
    out = {}
    for key, c in p.items():
        if key[slot]:
            new = list(key)
            new[slot] -= 1
            out[tuple(new)] = c * key[slot]
    return out


def _ref_antideriv(p, var):
    slot = var - 1
    out = {}
    for key, c in p.items():
        new = list(key)
        new[slot] += 1
        out[tuple(new)] = c / new[slot]
    return out


def _ref_compose(p, img1, img2):
    out = {}
    for (i, j, k), c in p.items():
        term = _ref_mul(_ref_mul(_ref_pow(img1, i), _ref_pow(img2, j)), {(0, 0, k): c})
        out = _ref_add(out, term)
    return out


def _ref_subs_a(p, v):
    out = {}
    for (i, j, k), c in p.items():
        out[(i, j, 0)] = out.get((i, j, 0), Fraction(0)) + c * v**k
    return {key: c for key, c in out.items() if c}


def _ref_eval(p, x, y, a):
    return sum((c * x**i * y**j * a**k for (i, j, k), c in p.items()), Fraction(0))


def _checked(p):
    """p's coefficient map, after checking the representation's
    invariants: den > 0, lowest terms, no zero numerator, and the hash
    of an equal polynomial built from Fractions."""
    num, den = p.integer_form()
    assert den > 0 and math.gcd(den, *num.values()) == 1 and all(num.values())
    coef = p.coefficients
    twin = BivariatePoly(coef)
    assert twin == p and hash(twin) == hash(p) and twin.integer_form() == (num, den)
    return coef


rationals = st.one_of(st.fractions(min_value=-5, max_value=5, max_denominator=9),
                      st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30)))


class TestAgainstFractionDicts:
    """Each operation on integer numerators equals the same operation
    on plain (i, j, k) -> Fraction dicts."""

    @settings(max_examples=60, deadline=None)
    @given(_coef_maps(), _coef_maps())
    def test_ring(self, p, q):
        P, Q = BivariatePoly(p), BivariatePoly(q)
        assert _checked(P + Q) == _ref_add(p, q)
        assert _checked(P - Q) == _ref_add(p, q, -1)
        assert _checked(-P) == {key: -c for key, c in p.items()}
        assert _checked(P * Q) == _ref_mul(p, q)
        assert _checked(P - P) == {} and (P - P).integer_form() == ({}, 1)

    @settings(max_examples=30, deadline=None)
    @given(_coef_maps(max_degree=4, max_terms=4), st.integers(0, 3))
    def test_pow(self, p, n):
        assert _checked(BivariatePoly(p) ** n) == _ref_pow(p, n)

    @settings(max_examples=60, deadline=None)
    @given(_coef_maps(), st.sampled_from([1, 2]), st.integers(0, 3))
    def test_calculus(self, p, var, order):
        P = BivariatePoly(p)
        want = p
        for _ in range(order):
            want = _ref_diff(want, var)
        assert _checked(P.diff(var, order)) == want
        assert _checked(P.antideriv(var)) == _ref_antideriv(p, var)

    @settings(max_examples=25, deadline=None)
    @given(_coef_maps(max_terms=5), rationals, rationals, rationals, rationals)
    def test_compose_affine(self, p, c1, c2, c3, c4):
        img1 = _ref_add({(1, 0, 0): c1, (0, 1, 0): c2}, {(0, 0, 0): c3} if c3 else {})
        img2 = {key: c for key, c in {(0, 1, 0): c4, (1, 0, 0): Fraction(1), (0, 0, 1): c1}.items() if c}
        got = BivariatePoly(p).compose(BivariatePoly(img1), BivariatePoly(img2))
        assert _checked(got) == _ref_compose(p, img1, img2)

    @settings(max_examples=25, deadline=None)
    @given(_coef_maps(max_degree=6, max_terms=4), _coef_maps(max_degree=2, max_terms=3),
           _coef_maps(max_degree=2, max_terms=3))
    def test_compose_polynomial(self, p, img1, img2):
        got = BivariatePoly(p).compose(BivariatePoly(img1), BivariatePoly(img2))
        assert _checked(got) == _ref_compose(p, img1, img2)

    @settings(max_examples=40, deadline=None)
    @given(_coef_maps(), rationals, rationals)
    def test_scalar_images(self, p, v1, v2):
        got = BivariatePoly(p).compose(v1, v2)
        want = _ref_compose(p, {(0, 0, 0): v1} if v1 else {}, {(0, 0, 0): v2} if v2 else {})
        assert _checked(got) == want

    @settings(max_examples=60, deadline=None)
    @given(_coef_maps(), rationals, rationals, rationals)
    def test_subs_a_and_exact_eval(self, p, x, y, a):
        P = BivariatePoly(p)
        assert _checked(P.subs_a(a)) == _ref_subs_a(p, a)
        got = P.eval(x, y, a)
        assert got == _ref_eval(p, x, y, a)
        assert type(got) is Fraction or (not p and got == 0)

    @settings(max_examples=40, deadline=None)
    @given(_coef_maps(), st.sampled_from([Fraction(1, 3), Fraction(-7, 2), Fraction(10**30 + 1, 10**29), 2]))
    def test_equal_values_hash_equal(self, p, c):
        # one value reached along two paths of different denominators
        P = BivariatePoly(p)
        Q = (P * c + P) * (1 / Fraction(c + 1))
        assert Q == P and hash(Q) == hash(P) and Q.integer_form() == P.integer_form()


class TestSegmentRestriction:
    # the segment origin + tau * direction, tau in slot v1
    def test_stream_function_vanishes_on_base(self):
        psi = 2 * Y**3 - 2 * X**2 * Y - 4 * Y**2 + 4 * X * Y
        assert psi.compose(2 * X, 0).is_zero

    def test_stream_function_vanishes_on_diagonal(self):
        psi = 2 * Y * (Y - X) * (X + Y - 2 * A)
        assert psi.compose(A * X, A * X).is_zero

    def test_nonvanishing_restriction(self):
        r = X.compose(2 * A * X, 0)
        assert r == 2 * A * X  # 2a * tau in slot v1


class TestFormatting:
    def test_text_form(self):
        psi = 2 * Y**3 - 2 * X**2 * Y - 4 * A * Y**2 + 4 * A * X * Y
        assert psi.to_text() == "4*a*x*y - 4*a*y^2 - 2*x^2*y + 2*y^3"

    def test_zero_text(self):
        assert BivariatePoly.zero().to_text() == "0"

    def test_fraction_coefficients(self):
        p = X * Fraction(1, 2)
        assert p.to_text() == "1/2*x"

    def test_coefficients_past_the_int_to_str_limit_are_rounded_and_marked(self):
        # 4300 digits is the interpreter's default limit; the text never
        # raises and never raises the limit
        limit = sys.get_int_max_str_digits()
        big = 10**5000 * Fraction(2, 3)
        p = X * big - Y * Fraction(1, 7 * 10**6000) + A * Fraction(10**4000 + 1, 3)
        assert p.to_text() == f"{10**4000 + 1}/3*a + ~6.6666666666666667e+4999*x - ~1.4285714285714286e-6001*y"
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("value, text", [
        (Fraction(10**17 - 1, 10**5000), "~9.9999999999999999e-4984"),
        (Fraction(10**18 - 1, 10**5000), "~1.0000000000000000e-4982"),  # rounds up a decade
        (Fraction(10**5000 + 5 * 10**4983), "~1.0000000000000000e+5000"),  # half to even
        (Fraction(10**5000 + 15 * 10**4983), "~1.0000000000000002e+5000"),
    ])
    def test_rounded_coefficients_take_seventeen_digits(self, value, text):
        assert (X * value).to_text() == text + "*x"


class TestEvaluation:
    def test_exact_fraction_eval(self):
        p = X**2 - Y * Fraction(1, 3)
        assert p.eval(Fraction(1, 2), Fraction(3)) == Fraction(1, 4) - 1

    def test_symbolic_requires_a(self):
        p = A * X
        with pytest.raises(ValueError):
            p.eval(1.0, 2.0)
        assert p.eval(1, 2, a=3) == 3

    def test_exact_eval_equals_the_fraction_sum(self):
        rng = random.Random(11)
        points = [Fraction(0), Fraction(3, 7), Fraction(0.37), Fraction(-5, 2), 2, Fraction(1.9999999)]
        for with_a in (False, True):
            for degree in (0, 3, 9):
                p = _seeded_poly(rng, degree, with_a)
                for x, y, a in zip(points, reversed(points), points[2:] + points[:2]):
                    expected = sum((c * Fraction(x)**i * Fraction(y)**j * Fraction(a)**k
                                    for (i, j, k), c in p.terms()), Fraction(0))
                    got = p.eval(x, y, a if with_a else None)
                    assert type(got) is Fraction and got == expected

    def test_exact_eval_computes_no_lcm_or_gcd(self, monkeypatch):
        # compat_check evaluates one residual polynomial at 65 sweep
        # nodes: the stored numerators serve every one, and the only gcd
        # is the one that reduces each returned Fraction
        p = X**38 * Y**6 * Fraction(-15, 7) + A * X * Fraction(1, 3)
        points = [Fraction(i, 64) for i in range(65)]
        half = Fraction(1, 2)
        calls = {"lcm": 0, "gcd": 0}
        for name in calls:
            def spy(*v, _name=name, _real=getattr(math, name)):
                calls[_name] += 1
                return _real(*v)
            monkeypatch.setattr(math, name, spy)
        values = [p.eval(x, 0, half) for x in points]
        assert calls == {"lcm": 0, "gcd": 65}
        assert values[64] == Fraction(1, 6)

    def test_float_arguments_stay_on_the_float_path(self):
        p = X**3 * Fraction(1, 3) - A * Y
        assert type(p.eval(0.5, 2, Fraction(1, 2))) is float
        assert p.eval(0.5, 2, Fraction(1, 2)) == pytest.approx(1 / 24 - 1)
        assert BivariatePoly.zero().eval(Fraction(1, 3), 0) == 0

    def test_float_eval_is_the_float_evaluator(self):
        rng = random.Random(13)
        points = [(0.3, 0.1), (1.5, 0.2), (1.0, 1.0), (-0.7, 2.25)]
        bound = _seeded_poly(rng, 6, False)
        symbolic = _seeded_poly(rng, 6, True)
        for x, y in points:
            assert bound.eval(x, y) == bound.float_evaluator()(x, y)
            assert bound.eval(x, Fraction(1, 3)) == bound.float_evaluator()(x, Fraction(1, 3))
            for a in (0.37, Fraction(3, 7), 2):
                assert symbolic.eval(x, y, a) == symbolic.subs_a(a).float_evaluator()(x, y)
        assert symbolic.eval(Fraction(1, 3), 2, 0.37) == symbolic.subs_a(0.37).float_evaluator()(Fraction(1, 3), 2)

    def test_float_evaluator_matches_exact(self):
        p = 2 * Y**3 - 2 * X**2 * Y - 4 * Y**2 + 4 * X * Y
        ev = p.float_evaluator()
        for x, y in [(0.3, 0.1), (1.5, 0.2), (1.0, 1.0)]:
            assert ev(x, y) == pytest.approx(float(p.eval(Fraction(x), Fraction(y))), abs=1e-14)


def _loop_horner(p):
    """The nested-loop Horner evaluator over the dense coefficient table
    that the unrolled code replaced: the reference for its bits."""
    ni, nj = p.degree_in(1) + 1, p.degree_in(2) + 1
    rows = [[0.0] * nj for _ in range(ni)]
    for (i, j, _), c in p.coefficients.items():
        rows[i][j] = float_or_inf(c)

    def evaluate(x, y):
        acc = 0.0
        for row in reversed(rows):
            inner = 0.0
            for c in reversed(row):
                inner = inner * y + c
            acc = acc * x + inner
        return acc

    return evaluate


def _bits(v) -> bytes:
    """The float64 bits of a scalar or array, with every nan made one nan:
    CPython leaves the sign of nan + nan to whichever operand its C code
    takes first, which differs between its generic and specialised float
    paths, so even the loop does not fix it from one call to the next."""
    v = np.asarray(v, dtype=np.float64)
    return np.where(np.isnan(v), np.nan, v).tobytes()


# +-0.0 and +-1e300 (whose squares overflow) next to ordinary points
SPECIAL_INPUTS = [0.0, -0.0, math.nan, 1e300, -1e300, 0.37, -1.25, 1.0]
HUGE = Fraction(10) ** 400  # beyond the float range: an inf coefficient


def _table_poly(rng, ni, nj):
    """Random ni x nj table with its corners set (so the shape is exact),
    about a third of the entries zero, and +-inf and float entries."""
    choices = [
        lambda: Fraction(rng.randint(-99, 99), rng.choice((1, 3, 7))),
        lambda: Fraction(rng.uniform(-1e3, 1e3)),
        lambda: rng.choice((HUGE, -HUGE)),
        lambda: 0,
        lambda: 0,
    ]
    terms = {(i, j): rng.choice(choices)() for i in range(ni) for j in range(nj)}
    terms[(ni - 1, 0)] = terms[(0, nj - 1)] = 1
    return BivariatePoly.from_terms(terms)


class TestUnrolledHorner:
    """``float_evaluator`` gives the loop's bits: scalars and arrays,
    zero and infinite coefficients, signed zeros, nan and overflow."""

    SHAPES = [(1, 1), (1, 2), (2, 1), (3, 4), (33, 2), (2, 33), (65, 65), (65, 1), (1, 65)]

    @pytest.mark.parametrize("seed", range(6))
    def test_bits_match_the_nested_loop(self, seed):
        rng = random.Random(seed)
        shapes = self.SHAPES + [(rng.randint(1, 65), rng.randint(1, 65)) for _ in range(4)]
        xs = SPECIAL_INPUTS + [rng.uniform(-2, 2) for _ in range(4)]
        gx, gy = np.meshgrid(xs, xs)
        with np.errstate(all="ignore"):
            for ni, nj in shapes:
                p = _table_poly(rng, ni, nj)
                new, old = p.float_evaluator(), _loop_horner(p)
                for x in xs:
                    for y in xs:
                        got = new(x, y)
                        assert type(got) is float
                        assert _bits(got) == _bits(old(x, y)), (ni, nj, x, y)
                assert _bits(new(gx, gy)) == _bits(old(gx, gy)), (ni, nj)

    def test_zero_coefficients_are_added(self):
        # -x at (0, y) with y < 0: its constant row is 0.0 * y + 0.0 = +0.0
        # and -1 * 0.0 + 0.0 is +0.0; without the zero coefficient's
        # addition both would be -0.0
        p = -X
        for y in (-0.0, -1.25, -1e300):
            assert _bits(p.float_evaluator()(0.0, y)) == _bits(0.0) == _bits(_loop_horner(p)(0.0, y))

    def test_code_is_compiled_once_per_pattern_of_row_tops(self):
        # the rows' top powers of y are 3, 0 and 2 in both; the second's
        # coefficients and lower powers differ
        p = 2 * X**2 * Y**3 + 5 * X + X**0 * Y**2
        q = -7 * X**2 * Y**3 + X**2 * Y - 3 * X + Fraction(1, 3) * Y**2 + 1
        assert p.float_evaluator().__code__ is q.float_evaluator().__code__
        assert (p + X * Y).float_evaluator().__code__ is not p.float_evaluator().__code__
        assert (p + X**2 * Y**4).float_evaluator().__code__ is not p.float_evaluator().__code__


class TestLeadingZeros:
    """``float_evaluator`` skips each row's leading zero coefficients and
    all-zero top rows, and keeps the bits of the dense table's Horner
    (``dense_float_evaluator``): at signed zeros, infinities, nan, huge
    and subnormal points, on scalars and arrays."""

    POINTS = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, 0.37, -1.25]
    POLYS = {
        # rows whose top powers of y are 4, 1 and 0: leading zeros
        "leading-zeros": X**2 * Y - 3 * X**2 + 2 * X * Y**4 - Fraction(1, 7) * Y + 5,
        # the x row is zero between the x^2 row and the constant row
        "zero-middle-row": X**2 * Y**2 - Fraction(5, 3) * X**2 + Y - 2,
        "zero-constant-row": X**3 + X * Y**3,
        "constant": BivariatePoly.const(Fraction(-7, 2)),
        # coefficients that round to +0.0 (an all-zero top row) and -0.0
        "underflow": BivariatePoly.from_terms({(3, 1): Fraction(1, 10**400), (2, 0): Fraction(-1, 10**400),
                                               (1, 2): 3, (0, 0): -1}),
        # every coefficient -0.0: the sign of each zero step shows
        "all-underflow": BivariatePoly.from_terms({(1, 1): Fraction(-1, 10**400), (1, 0): Fraction(-1, 10**400),
                                                   (0, 0): Fraction(-1, 10**400)}),
        "huge": BivariatePoly.from_terms({(2, 3): Fraction(10) ** 400, (0, 1): 1}),
    }

    @pytest.mark.parametrize("name", sorted(POLYS))
    def test_bits_match_the_dense_horner(self, name):
        p = self.POLYS[name]
        new, old = p.float_evaluator(), dense_float_evaluator(p)
        # CPython takes the sign of a scalar nan + nan from whichever
        # operand its C code reads first (see _bits), so scalars compare
        # by float.hex, in which every nan reads "nan"; arrays by their
        # bytes, nan bits included
        for x in self.POINTS:
            for y in self.POINTS:
                got = new(x, y)
                assert type(got) is float
                assert got.hex() == old(x, y).hex(), (name, x, y)
        gx, gy = (g.ravel() for g in np.meshgrid(self.POINTS, self.POINTS))
        with np.errstate(all="ignore"):
            assert new(gx, gy).tobytes() == old(gx, gy).tobytes(), name

    def test_zero_polynomial(self):
        # 0.0 * x * y, with its own signed zeros and nans
        ev = BivariatePoly.zero().float_evaluator()
        for x in self.POINTS:
            for y in self.POINTS:
                assert ev(x, y).hex() == (0.0 * x * y).hex()
        gx, gy = (g.ravel() for g in np.meshgrid(self.POINTS, self.POINTS))
        with np.errstate(all="ignore"):
            assert ev(gx, gy).tobytes() == (0.0 * gx * gy).tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_random_tables(self, seed):
        # _table_poly's tables: about a third of the entries zero
        rng = random.Random(seed)
        xs = self.POINTS + [rng.uniform(-2, 2) for _ in range(4)]
        gx, gy = (g.ravel() for g in np.meshgrid(xs, xs))
        with np.errstate(all="ignore"):
            for _ in range(8):
                p = _table_poly(rng, rng.randint(1, 40), rng.randint(1, 40))
                new, old = p.float_evaluator(), dense_float_evaluator(p)
                assert new(gx, gy).tobytes() == old(gx, gy).tobytes()
                for x, y in zip(gx.tolist()[::7], gy.tolist()[::7]):
                    assert new(x, y).hex() == old(x, y).hex()


class TestStackedHorner:
    """``stacked_float_evaluator`` gives each polynomial's own
    ``float_evaluator`` bits on arrays: its table padded with leading
    zeros to the stack's shape, inf and nan points and coefficients
    included."""

    @pytest.mark.parametrize("seed", range(6))
    def test_bits_match_each_evaluator(self, seed):
        rng = random.Random(seed)
        xs = SPECIAL_INPUTS + [math.inf, -math.inf] + [rng.uniform(-2, 2) for _ in range(4)]
        gx, gy = (g.ravel() for g in np.meshgrid(xs, xs))
        with np.errstate(all="ignore"):
            for _ in range(6):
                polys = [_table_poly(rng, rng.randint(1, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 4))]
                got = stacked_float_evaluator(polys)(gx, gy)
                assert got.shape == (len(polys), gx.size)
                for row, p in zip(got, polys):
                    assert _bits(row) == _bits(p.float_evaluator()(gx, gy))

    def test_zero_polynomial_keeps_its_signed_zeros(self):
        x, y = np.array([1.0, -1.0, 2.0, -0.0]), np.array([-1.0, -1.0, 3.0, 2.0])
        got = stacked_float_evaluator([BivariatePoly.zero(), X * Y])(x, y)
        assert got[0].tobytes() == (0.0 * x * y).tobytes()
        assert got[1].tobytes() == (X * Y).float_evaluator()(x, y).tobytes()

    def test_symbolic_a_is_rejected(self):
        with pytest.raises(ValueError):
            stacked_float_evaluator([X * A])


def _kernel_fields():
    """The polynomial builtins' fields (the linear one also at a = 2) and
    one whose v is zero (psi = y^2 - a y at a = 1: u = 2y - 1, and three
    of its four Jacobian polynomials are zero)."""
    fields = {"linear": linear_example(TriangleDomain(1.0)), "realistic": realistic_example(TriangleDomain(1.0)),
              "linear-a2": linear_example(TriangleDomain(2.0)),
              "v-zero": PolyStreamFunction(Y**2 - Y, TriangleDomain(1.0))}
    out = {}
    for name, psi in fields.items():
        vel = (psi.u_poly, psi.v_poly)
        out[name + "/velocity"] = (vel, psi.velocity_functions()[0])
        out[name + "/jacobian"] = (tuple(q.diff(i) for q in vel for i in (1, 2)), psi.velocity_functions()[1])
    return out


KERNELS = _kernel_fields()


class TestJointHorner:
    """A field's velocity and Jacobian are each one generated function
    (``joint_float_evaluator``) that gives every polynomial the bits of
    its own dense Horner (``dense_float_evaluator``), a zero one
    0.0 * x * y: scalars by float.hex, in which every nan reads "nan";
    arrays through today's paths, each point's own call up to
    ``FEW_POINTS`` points and one stacked pass above."""

    POINTS = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, 0.37, -1.25]

    @staticmethod
    def _want(p):
        return dense_float_evaluator(p) if not p.is_zero else (lambda x, y: 0.0 * x * y)

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_scalars_match_each_dense_horner(self, name):
        polys, kernel = KERNELS[name]
        rng = random.Random(11)
        xs = self.POINTS + [rng.uniform(-3, 3) for _ in range(6)]
        wants = [self._want(p) for p in polys]
        assert name != "v-zero/velocity" or polys[1].is_zero
        for fn in (kernel, joint_float_evaluator(polys, None)):
            for x in xs:
                for y in xs:
                    got = fn(x, y)
                    assert type(got) is tuple and len(got) == len(polys)
                    for g, want in zip(got, wants):
                        assert type(g) is float
                        assert g.hex() == want(x, y).hex(), (name, x, y)

    @pytest.mark.parametrize("n", [0, 1, FEW_POINTS, FEW_POINTS + 1, 221])
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_arrays_keep_their_bits(self, name, n):
        polys, kernel = KERNELS[name]
        rng = random.Random(n)
        pts = [(x, y) for x in self.POINTS for y in self.POINTS]
        # special points, and seeded random ones from the ninth point on
        pts = rng.sample(pts, min(n, 60))
        pts += [(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(n - len(pts))]
        x, y = np.array(pts, dtype=float).reshape(-1, 2).T
        with np.errstate(all="ignore"):
            got = kernel(x, y)
            assert got.shape == (len(polys), n)
            for row, p, want in zip(got, polys, map(self._want, polys)):
                assert _bits(row) == _bits(want(x, y)), name
            if n > FEW_POINTS:
                # the stacked pass, nan bits included
                assert got.tobytes() == stacked_float_evaluator(polys)(x, y).tobytes()
            else:
                assert _bits(got) == _bits([[p.float_evaluator()(*q) for q in zip(x.tolist(), y.tolist())]
                                            for p in polys])

    def test_one_table_code_is_float_evaluators(self):
        # float_evaluator is the one-table case of the same generator;
        # the kernel's code is cached per pattern of tables too
        p = X**2 * Y - 3 * X + 1
        q = 5 * X**2 * Y + X - 2
        assert p.float_evaluator().__code__ is q.float_evaluator().__code__
        assert joint_float_evaluator((p, q), None).__code__ is joint_float_evaluator((q, p), None).__code__
        assert joint_float_evaluator((p, X), None).__code__ is not joint_float_evaluator((p, q), None).__code__
        # one polynomial is a tuple of one value
        assert joint_float_evaluator((p,), None)(0.5, -0.25) == (p.float_evaluator()(0.5, -0.25),)
        with pytest.raises(ValueError):
            joint_float_evaluator((p, X * A), None)
