"""Exact polynomial engine: ring behavior, calculus, substitution."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cavitystream.polyalg import BivariatePoly, poly_vars, wave_operator

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
