"""Solution formula: exact polynomial path, quadrature path, builtins."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cavitystream.geometry import Rect, TriangleDomain, PhysicalPoint, boundary_sample, classify, interior_lattice
from cavitystream.polyalg import BivariatePoly, poly_vars, wave_operator
from cavitystream import compatibility, solver
from cavitystream.compatibility import (
    CosineStress,
    OpaqueStress,
    PolynomialStress,
    char_antiderivative,
    compat_check,
    cosine_from_harmonic,
    exact_residual_poly,
)
from cavitystream.kinematics import velocity_field
from cavitystream.solver import (
    IncompatibleStress,
    QuadratureStreamFunction,
    StreamFunction,
    grid_rows,
    linear_example,
    realistic_example,
    residual,
    sinusoidal_closed_form,
    solve_exact_poly,
    solve_poly_symbolic,
    solve_quadrature,
    write_grid_csv,
)
from cavitystream.quadrature import QuadratureSpec, integrate_rect
from cavitystream.verify import FD_STEP, LATTICE_N, boundary_vanishing_poly, random_poly, riemann_psi

from helpers import lattice_scale

X, Y, A = poly_vars()
D1 = TriangleDomain(1.0)
LINEAR_CASE_PSI = 2 * Y**3 - 2 * X**2 * Y - 4 * A * Y**2 + 4 * A * X * Y


class TestExactSolve:
    def test_linear_stress_symbolic_recovery(self):
        psi = solve_exact_poly(16 * Y - 8 * A, None)
        assert psi.poly == LINEAR_CASE_PSI

    def test_zero_stress_gives_zero_field(self):
        psi = solve_exact_poly(BivariatePoly.zero(), D1)
        assert psi.poly.is_zero

    def test_round_trip_through_operator(self):
        psi0 = 2 * Y * (Y - X) * (X + Y - 2 * A) * (X + 3 * Y)
        f = wave_operator(psi0)
        assert solve_exact_poly(f, None).poly == psi0

    def test_incompatible_constant_stress_raises(self):
        with pytest.raises(IncompatibleStress):
            solve_exact_poly(BivariatePoly.const(1), D1)

    def test_incompatible_pure_linear_raises(self):
        with pytest.raises(IncompatibleStress):
            solve_exact_poly(16 * Y, D1)

    def test_numeric_binding(self):
        psi = solve_exact_poly((16 * Y - 8 * A).subs_a(1), D1)
        assert psi.poly == LINEAR_CASE_PSI.subs_a(1)
        assert psi.evaluate(1.0, 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_exposed_stress_matches_input(self):
        f = (16 * Y - 8 * A).subs_a(1)
        psi = solve_exact_poly(f, D1)
        assert psi.source_stress.poly == f

    def test_operator_identity_for_random_admissible_stresses(self):
        rng = random.Random(11)
        for _ in range(5):
            psi0 = boundary_vanishing_poly(random_poly(rng, max_degree=3))
            f = wave_operator(psi0)
            psi = solve_exact_poly(f, None)
            assert wave_operator(psi.poly) == f


HALF = Fraction(1, 2)


def _nested_psi(f):
    """Reference: -1/4 times [-Y, X] x [Y, 0] by nested antiderivatives
    with symbolic limits, then (X, Y) -> (x+y, -x+y)."""
    t, s = BivariatePoly.v1(), BivariatePoly.v2()
    h = f.compose((t - s) * HALF, (t + s) * HALF).antideriv(2)
    i1 = (h.compose(t, 0) - h).antideriv(1)
    phi = (i1 - i1.compose(-s, s)) * Fraction(-1, 4)
    return phi.compose(t + s, -t + s)


def _nested_residual(f, d):
    """Reference: [X, 2a] x [-X, 0] by nested antiderivatives."""
    if d is None:
        a_poly = A
    else:
        a_poly = BivariatePoly.const(Fraction(d.a))
        f = f.subs_a(Fraction(d.a)) if f.has_symbol_a else f
    t, s = BivariatePoly.v1(), BivariatePoly.v2()
    h = f.compose((t - s) * HALF, (t + s) * HALF).antideriv(2)
    outer = (h.compose(t, 0) - h.compose(t, -s)).antideriv(1)
    return (outer.compose(2 * a_poly, s) - outer.compose(s, s)).compose(s, t)


def _random_stress(rng):
    """Seeded stress of degree <= 5 in (x, y), some terms carrying a."""
    terms = {}
    for i in range(6):
        for j in range(6 - i):
            c = rng.randint(-4, 4)
            if c:
                terms[(i, j, rng.randint(0, 2))] = Fraction(c, rng.randint(1, 5))
    return BivariatePoly(terms)


def _stresses():
    """Stresses of joint degree up to 12 in (x, y), powers of a up to 3,
    coefficients from small integers to 40-digit numerators over 40-digit
    denominators."""
    key = st.builds(lambda n, i, k: (min(i, n), n - min(i, n), k),
                    st.integers(0, 12), st.integers(0, 12), st.integers(0, 3))
    small = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    long = st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**40))
    return st.dictionaries(key, st.one_of(small, long), max_size=8).map(BivariatePoly)


class TestClosedForms:
    """H, psi and R read off their input's terms equal the compose and
    antiderivative chains term for term."""

    DOMAINS = [None, TriangleDomain(Fraction(3, 7)), TriangleDomain(1e-30)]

    @settings(max_examples=40, deadline=None)
    @given(_stresses())
    @example(BivariatePoly({(12, 0, 3): Fraction(10**40 - 1, 10**39 + 7), (0, 12, 0): -3, (5, 7, 1): Fraction(1, 9),
                            (0, 0, 2): Fraction(-(10**40), 3**80)}))
    @example(BivariatePoly.zero())
    def test_against_the_nested_chains(self, f):
        t, s = BivariatePoly.v1(), BivariatePoly.v2()
        assert char_antiderivative(f) == f.compose((t - s) * HALF, (t + s) * HALF).antideriv(2).antideriv(1)
        assert solve_poly_symbolic(f) == _nested_psi(f)
        for d in self.DOMAINS:
            assert exact_residual_poly(f, d) == _nested_residual(f, d)


class TestCornerFormula:
    """psi and R read from the corners of one double antiderivative equal
    the nested antiderivative chains coefficient for coefficient."""

    # a tiny a makes Fraction(a)'s powers long, where binding a last matters
    DOMAINS = [None, TriangleDomain(Fraction(3, 7)), TriangleDomain(2.5), TriangleDomain(1e-30),
               TriangleDomain(1e-250)]

    @pytest.mark.parametrize("seed", range(6))
    def test_inadmissible_stresses_match_the_nested_chains(self, seed):
        f = _random_stress(random.Random(seed))
        assert solve_poly_symbolic(f) == _nested_psi(f)
        for d in self.DOMAINS:
            r = exact_residual_poly(f, d)
            assert r == _nested_residual(f, d)
            assert not r.is_zero

    @pytest.mark.parametrize("seed", range(4))
    def test_admissible_stresses_match_the_nested_chains(self, seed):
        psi0 = boundary_vanishing_poly(random_poly(random.Random(seed), max_degree=3))
        f = wave_operator(psi0)
        assert f.has_symbol_a
        assert solve_poly_symbolic(f) == _nested_psi(f) == psi0
        for d in self.DOMAINS:
            assert exact_residual_poly(f, d).is_zero and _nested_residual(f, d).is_zero
            fd = f if d is None else f.subs_a(Fraction(d.a))
            assert solve_poly_symbolic(fd) == _nested_psi(fd)

    @pytest.mark.parametrize("d", [None, D1], ids=["symbolic", "bound"])
    def test_compose_calls(self, monkeypatch, d):
        real = BivariatePoly.compose
        calls = []

        def counting(self, img1, img2):
            calls.append(1)
            return real(self, img1, img2)

        monkeypatch.setattr(BivariatePoly, "compose", counting)
        # H, psi and R are read off their input's terms: no compose at all
        exact_residual_poly(16 * Y - 8 * A, d)
        assert len(calls) == 0
        # the AB gate and the two exact boundary checks
        solve_exact_poly(16 * Y - 8 * A, d)
        assert len(calls) == 3


class TestGateFromTrace:
    """The gate read from psi on AB gives exact_residual_poly's verdict and
    message, and the solve never builds that residual itself."""

    @pytest.mark.parametrize("d", TestCornerFormula.DOMAINS, ids=["symbolic", "a=3/7", "a=2.5", "a=1e-30", "a=1e-250"])
    @pytest.mark.parametrize("seed", range(8))
    def test_verdict_and_message_match_the_residual(self, monkeypatch, seed, d):
        rng = random.Random(seed)
        admissible = wave_operator(boundary_vanishing_poly(random_poly(rng, max_degree=3)))
        stresses = [admissible, _random_stress(rng), admissible + Y * Fraction(rng.randint(1, 9), 7)]
        expected = [exact_residual_poly(f, d) for f in stresses]
        monkeypatch.setattr(compatibility, "exact_residual_poly", None)
        monkeypatch.setattr(solver, "exact_residual_poly", None, raising=False)
        for f, r in zip(stresses, expected):
            if r.is_zero:
                assert solve_exact_poly(f, d).poly == solve_poly_symbolic(f if d is None else f.subs_a(Fraction(d.a)))
                continue
            with pytest.raises(IncompatibleStress) as err:
                solve_exact_poly(f, d)
            assert str(err.value) == ("stress fails the admissibility condition; constraint polynomial: "
                                      + r.to_text(names=("X", "_")))


class TestQuadratureSolve:
    def test_matches_exact_at_interior_point(self):
        f = PolynomialStress((16 * Y - 8 * A).subs_a(1))
        psi = solve_quadrature(f, D1)
        assert psi.evaluate(1.0, 0.5) == pytest.approx(0.25, abs=1e-12)

    def test_vertex_value_is_zero(self):
        f = PolynomialStress((16 * Y - 8 * A).subs_a(1))
        psi = solve_quadrature(f, D1)
        assert psi.evaluate(0.0, 0.0) == 0.0

    def test_cosine_against_riemann_oracle(self):
        # Romberg midpoint oracle at 2400 cells per axis, whose coarsest
        # lattice (16a/2400 = 1/150) holds X = 1.5 and Y = -0.5
        stress = CosineStress(5.0, math.pi)
        psi = solve_quadrature(stress, D1)
        got = psi.evaluate(1.0, 0.5)
        ref, _ = riemann_psi(stress, D1, PhysicalPoint(1.0, 0.5), cells_per_axis=2400)
        assert got == pytest.approx(ref, abs=1e-8)

    def test_incompatible_stress_raises(self):
        with pytest.raises(IncompatibleStress):
            solve_quadrature(CosineStress(1.0, 2 * math.pi), D1)
        with pytest.raises(IncompatibleStress):
            solve_quadrature(PolynomialStress(BivariatePoly.const(2)), D1)

    def test_two_path_agreement_random_stresses(self):
        rng = random.Random(23)
        for trial in range(3):
            psi0 = boundary_vanishing_poly(random_poly(rng, max_degree=2)).subs_a(1)
            f = PolynomialStress(wave_operator(psi0))
            exact = solve_exact_poly(f, D1)
            quad = solve_quadrature(f, D1)
            scale = max(lattice_scale(exact), 1e-12)
            for _ in range(40):
                x = rng.uniform(0, 2)
                y = rng.uniform(0, 1)
                if not (0 < y < x and x + y < 2):
                    continue
                assert abs(exact.evaluate(x, y) - quad.evaluate(x, y)) <= 1e-10 * scale

    def test_linearity_of_solve(self):
        psi0a = boundary_vanishing_poly(BivariatePoly.const(1)).subs_a(1)
        psi0b = boundary_vanishing_poly((X + 3 * Y)).subs_a(1)
        fa, fb = wave_operator(psi0a), wave_operator(psi0b)
        combo = solve_exact_poly(2 * fa - 3 * fb, D1)
        assert combo.poly == 2 * psi0a - 3 * psi0b


class TestOpaqueStress:
    def test_solve_and_strong_form_residual(self):
        # admissible mixture known only through a numpy-vectorized evaluator
        import numpy as np

        def f(x, y):
            return 16.0 * y - 8.0 + 5.0 * np.cos(3 * math.pi * y)

        stress = OpaqueStress(f)
        psi = solve_quadrature(stress, D1)
        reference = linear_example(D1)
        closed = sinusoidal_closed_form(2.5, D1)
        for x, y in [(1.0, 0.5), (0.8, 0.3), (1.4, 0.4)]:
            expected = reference.evaluate(x, y) + closed.evaluate(x, y)
            assert psi.evaluate(x, y) == pytest.approx(expected, abs=1e-9)
        assert residual(psi, stress, PhysicalPoint(1.0, 0.5), 1e-3) <= 5e-3


class TestExactRationalDomain:
    def test_fraction_length_parameter(self):
        from fractions import Fraction

        d = TriangleDomain(Fraction(1, 3))
        psi = solve_exact_poly((16 * Y - 8 * A).subs_a(Fraction(1, 3)), d)
        expected = (2 * Y**3 - 2 * X**2 * Y - 4 * A * Y**2 + 4 * A * X * Y).subs_a(Fraction(1, 3))
        assert psi.poly == expected


class TestSinusoidal:
    def test_vertex_value(self):
        psi = sinusoidal_closed_form(5.0, D1)
        assert abs(psi.evaluate(1.0, 1.0)) < 1e-15

    def test_boundary_vanishing(self):
        psi = sinusoidal_closed_form(5.0, D1)
        c = 2 * 5.0 / (9 * math.pi**2)
        worst = max(abs(psi.evaluate(p.x, p.y)) for p in boundary_sample(D1, 100))
        assert worst <= 1e-13 * c

    def test_zero_amplitude(self):
        psi = sinusoidal_closed_form(0.0, D1)
        assert psi.evaluate(0.7, 0.3) == 0.0

    @pytest.mark.parametrize("a", [1e-3, 1.0, 1e3])
    def test_scalar_evaluate_matches_the_array_form(self, a):
        # evaluate runs math.cos, evaluate_many numpy's cos: the same
        # formula, within a few ulps of its scale 4c
        d = TriangleDomain(a)
        psi = sinusoidal_closed_form(5.0, d)
        rng = random.Random(5)
        pts = [(rng.uniform(0, 2 * a), rng.uniform(0, a)) for _ in range(200)]
        many = psi.evaluate_many([p[0] for p in pts], [p[1] for p in pts])
        c = 2 * 5.0 * a * a / (9 * math.pi**2)
        for (x, y), want in zip(pts, many):
            got = psi.evaluate(x, y)
            assert type(got) is float
            assert abs(got - want) <= 16 * 2.0**-52 * 4 * c

    def test_source_stress_is_doubled_cosine(self):
        psi = sinusoidal_closed_form(5.0, D1)
        src = psi.source_stress
        assert isinstance(src, CosineStress)
        assert src.amplitude == pytest.approx(10.0)
        assert src.wavenumber == pytest.approx(3 * math.pi)

    def test_finite_difference_residual_against_source(self):
        psi = sinusoidal_closed_form(5.0, D1)
        assert residual(psi, psi.source_stress, PhysicalPoint(1.0, 0.5), 1e-4) <= 2e-3

    def test_quadrature_solution_of_cosine_matches_closed_form(self):
        # solving 5*cos(3*pi*y) must reproduce the closed form at half amplitude
        stress = CosineStress(5.0, 3 * math.pi)
        quad = solve_quadrature(stress, D1)
        closed = sinusoidal_closed_form(2.5, D1)
        for x, y in [(1.0, 0.5), (0.6, 0.2), (1.5, 0.3)]:
            assert quad.evaluate(x, y) == pytest.approx(closed.evaluate(x, y), abs=5e-11)


class TestRealistic:
    def test_edge_restrictions_vanish(self):
        psi = realistic_example(None)
        # each edge as origin + tau * direction, tau in slot v1
        assert psi.poly.compose(2 * A * X, 0).is_zero
        assert psi.poly.compose(A * X, A * X).is_zero
        assert psi.poly.compose(2 * A - A * X, A * X).is_zero

    def test_base_shear_is_positive(self):
        psi = realistic_example(D1)
        u = psi.poly.diff(2).float_evaluator()
        for i in range(1, 1000):
            x = 2.0 * i / 1000
            assert u(x, 0.0) > 0.0

    def test_induced_stress_is_admissible(self):
        psi = realistic_example(None)
        report_poly = compat_check(PolynomialStress(wave_operator(psi.poly).subs_a(1)), D1)
        assert report_poly.is_compatible
        assert report_poly.exact_constraints == "0"

    def test_solve_recovers_the_product_form(self):
        psi = realistic_example(None)
        f = wave_operator(psi.poly)
        assert solve_exact_poly(f, None).poly == psi.poly


class TestResidualOperator:
    def test_linear_case_tiny_residual(self):
        psi = linear_example(D1)
        r = residual(psi, psi.source_stress, PhysicalPoint(1.0, 0.5), 1e-3)
        assert r <= 1e-9

    def test_zero_field(self):
        psi = solve_exact_poly(BivariatePoly.zero(), D1)
        assert residual(psi, psi.source_stress, PhysicalPoint(0.8, 0.3), 1e-4) == 0.0

    def test_rejects_non_interior_point(self):
        psi = linear_example(D1)
        with pytest.raises(ValueError):
            residual(psi, psi.source_stress, PhysicalPoint(1.0, 0.0), 1e-4)

    def test_quadrature_backing_needs_stencil_margin(self):
        f = PolynomialStress((16 * Y - 8 * A).subs_a(1))
        psi = solve_quadrature(f, D1)
        with pytest.raises(ValueError):
            residual(psi, f, PhysicalPoint(1.0, 1e-5), 1e-3)
        assert residual(psi, f, PhysicalPoint(1.0, 0.5), 1e-3) <= 1e-6


class TestGridExport:
    def test_rows_match_polynomial(self):
        psi = linear_example(D1)
        ev = psi.poly.float_evaluator()
        rows = grid_rows(psi, D1, 21)
        assert rows, "clipped grid must not be empty"
        for x, y, v in rows:
            assert v == ev(x, y)

    def test_clipping(self):
        rows = grid_rows(linear_example(D1), D1, 21)
        for x, y, _ in rows:
            assert y <= x + 1e-9 and x + y <= 2 + 1e-9 and y >= -1e-9

    def test_csv_format(self, tmp_path):
        path = tmp_path / "psi.csv"
        write_grid_csv(linear_example(D1), D1, 11, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,psi"
        assert lines[1] == "0,0,0"
        # deterministic rewrite
        again = tmp_path / "psi2.csv"
        write_grid_csv(linear_example(D1), D1, 11, again)
        assert path.read_bytes() == again.read_bytes()


def _odd_cosine_psi(A, m, a, x, y):
    """Closed form for A*cos(m*pi*y/a), m odd."""
    k = m * math.pi / a
    return -(A / k**2) * (np.cos(k * y) + np.cos(k * (x - y) / 2) - np.cos(k * (x + y) / 2) - 1)


class TestBatchedQuadratureEvaluation:
    def test_interior_point_sees_one_rectangle_of_nodes(self):
        seen = []

        def f(x, y):
            seen.append(np.size(x))
            return np.cos(3 * math.pi * y)

        psi = QuadratureStreamFunction(OpaqueStress(f), D1)
        psi.evaluate(1.0, 0.5)
        # [0.5, 1.5] x [-0.5, 0]: sides 1 and 0.5 of span 2 take 4 x 2 of
        # the default 8 cells across, each of order 12
        assert sum(seen) == 4 * 2 * 12**2

    def test_evaluate_many_matches_evaluate(self):
        psi = solve_quadrature(CosineStress(5.0, 3 * math.pi), D1)
        pts = interior_lattice(D1, 9) + boundary_sample(D1, 12)
        many = psi.evaluate_many([p.x for p in pts], [p.y for p in pts])
        one = [psi.evaluate(p.x, p.y) for p in pts]
        assert many.tolist() == pytest.approx(one, rel=1e-14, abs=1e-14 * lattice_scale(psi))

    def test_evaluate_many_rejects_exterior_point(self):
        psi = solve_quadrature(CosineStress(5.0, 3 * math.pi), D1)
        with pytest.raises(ValueError, match=r"characteristic point \(2\.5, -0\.5\) outside the closed triangle image"):
            psi.evaluate_many([1.0, 1.5], [0.5, 1.0])

    @pytest.mark.parametrize("A, m, a, n", [(10.0, 3, 1.0, 101), (1.0, 15, 0.25, 51)])
    def test_grid_rows_match_closed_form(self, A, m, a, n):
        d = TriangleDomain(a)
        stress = CosineStress(A, m * math.pi / a)
        rows = np.array(grid_rows(solve_quadrature(stress, d), d, n))
        want = _odd_cosine_psi(A, m, a, rows[:, 0], rows[:, 1])
        assert np.max(np.abs(rows[:, 2] - want)) <= 1e-5 * np.max(np.abs(want))

    @pytest.mark.parametrize("a", [0.05, 1.0, 100.0])
    def test_default_rule_does_not_depend_on_the_unit_of_length(self, a):
        d = TriangleDomain(a)
        rows = np.array(grid_rows(solve_quadrature(CosineStress(1.0, 15 * math.pi / a), d), d, 21))
        want = _odd_cosine_psi(1.0, 15, a, rows[:, 0], rows[:, 1])
        assert np.max(np.abs(rows[:, 2] - want)) <= 1e-9 * np.max(np.abs(want))
        seen = []

        def f(x, y):
            seen.append(np.size(x))
            return np.cos(15 * math.pi * y / a)

        QuadratureStreamFunction(OpaqueStress(f), d).evaluate(a, a / 2)
        # sides a and a/2 of span 2a: 4 x 2 cells of the default 8 across
        assert sum(seen) == 4 * 2 * 12**2

    def test_batched_residual_matches_scalar_form(self):
        f = OpaqueStress(lambda x, y: 16.0 * y - 8.0 + 5.0 * np.cos(3 * math.pi * y))
        psi = solve_quadrature(f, D1)
        pts = interior_lattice(D1, 12, margin=0.01)
        h = 1e-3
        batch = residual(psi, f, pts, h)
        for p, r in zip(pts, batch):
            x, y = p
            e = psi.evaluate
            lap = (-e(x - h, y) + 2 * e(x, y) - e(x + h, y)) / h**2 + (e(x, y - h) - 2 * e(x, y) + e(x, y + h)) / h**2
            scalar = abs(lap - float(f.evaluator(1.0)(x, y)))
            assert r == pytest.approx(scalar, rel=1e-9, abs=1e-9)
            assert residual(psi, f, p, h) == pytest.approx(scalar, rel=1e-9, abs=1e-9)

    def test_batched_residual_guards_every_point(self):
        f = PolynomialStress((16 * Y - 8 * A).subs_a(1))
        psi = solve_quadrature(f, D1)
        inside = PhysicalPoint(1.0, 0.5)
        with pytest.raises(ValueError, match="outside the closed triangle"):
            residual(psi, f, [inside, PhysicalPoint(1.0, 1e-5)], 1e-3)
        with pytest.raises(ValueError, match="is not interior"):
            residual(psi, f, [inside, PhysicalPoint(1.0, 0.0)], 1e-3)
        exact = linear_example(D1)
        with pytest.raises(ValueError, match="is not interior"):
            residual(exact, f, [inside, PhysicalPoint(1.0, 0.0)], 1e-3)


def _order_12_twin(psi):
    """The same backing under the fixed order 12 every rule used before
    the order followed the phase."""
    twin = QuadratureStreamFunction(psi.stress, psi.domain)
    twin.spec = QuadratureSpec(12, psi.spec.subdivision)
    return twin


class TestPhaseSizedOrder:
    @pytest.mark.parametrize("a", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("m", range(1, 20, 2))
    def test_stencil_values_match_order_12(self, m, a):
        d = TriangleDomain(a)
        psi = QuadratureStreamFunction(CosineStress(1.0, m * math.pi / a), d)
        assert psi.spec.order < 12
        h = FD_STEP * a
        x, y = np.array(interior_lattice(d, LATTICE_N, margin=1.5 * h)).T
        x, y = np.concatenate([x, x - h, x + h, x, x]), np.concatenate([y, y, y, y - h, y + h])
        got, want = psi.evaluate_many(x, y), _order_12_twin(psi).evaluate_many(x, y)
        assert np.max(np.abs(got - want)) <= np.max(psi.rounding_bound(x, y))

    @pytest.mark.parametrize("m, a, n", [
        (1, 1.0, 101), (3, 1.0, 101), (15, 0.25, 51), (17, 1e3, 51), (19, 1e-3, 21), (3, 1.0, 3), (13, 1.0, 2)])
    def test_lattice_values_are_bit_identical(self, m, a, n):
        # the table's cells take the phase-sized order of integrate_rect:
        # equal to order 12's values within rounding
        psi = QuadratureStreamFunction(CosineStress(10.0, m * math.pi / a), TriangleDomain(a))
        ix, iy, got = psi.lattice_values(n)
        want = _order_12_twin(psi).lattice_values(n)[2]
        x, y = 2 * a * ix / (n - 1), a * iy / (n - 1)
        assert np.max(np.abs(got - want)) <= psi.rounding_bound(x, y)


def _stencil_points(d):
    """verify's residual stencils: the lattice points and their four
    neighbours at FD_STEP a."""
    h = FD_STEP * float(d.a)
    x, y = np.array(interior_lattice(d, LATTICE_N, margin=1.5 * h)).T
    return np.concatenate([x, x - h, x + h, x, x]), np.concatenate([y, y, y, y - h, y + h])


def _opaque_twin(psi):
    """The same cosine behind an OpaqueStress, under the cosine's rule:
    the tensor path."""
    f = psi.stress
    twin = QuadratureStreamFunction(OpaqueStress(f.evaluator(float(psi.domain.a))), psi.domain)
    twin.spec = psi.spec
    return twin


class TestRidgeBacking:
    @pytest.mark.parametrize("a", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("A, m", [(10.0, 3), (1.0, 1), (1.0, 15), (2.0, 61)])
    def test_cosine_matches_its_opaque_twin(self, A, m, a):
        d = TriangleDomain(a)
        psi = QuadratureStreamFunction(CosineStress(A, m * math.pi / a), d)
        x, y = _stencil_points(d)
        got, want = psi.evaluate_many(x, y), _opaque_twin(psi).evaluate_many(x, y)
        assert np.max(np.abs(got - want)) <= psi.rounding_bound(x, y)

    def test_cosine_calls_the_integrand_on_the_ridge(self):
        # once the table is built, each partial cell calls g(u, 0) on
        # every node
        seen = []
        psi = QuadratureStreamFunction(CosineStress(1.0, 3 * math.pi), D1)
        psi._ridge_knots()
        g = psi._g
        psi._g = lambda t, s: seen.append(s) or g(t, s)
        psi.evaluate_many([1.0, 0.5], [0.3, 0.1])
        assert seen and all(np.ndim(s) == 0 and s == 0 for s in seen)

    def test_opaque_path_is_the_tensor_rule_bit_for_bit(self):
        f = OpaqueStress(lambda x, y: 16.0 * y - 8.0 + 5.0 * np.cos(3 * math.pi * y))
        psi = QuadratureStreamFunction(f, D1)
        x, y = _stencil_points(D1)
        X, Y = x + y, y - x
        rect = Rect(-Y, X, Y, np.zeros_like(Y))
        want = -0.25 * integrate_rect(psi._g, rect, psi.spec, 2.0)
        assert psi.evaluate_many(x, y).tobytes() == want.tobytes()

    def test_ridge_table_takes_one_cell_per_knot(self):
        # one integrate_rect call on the S - 1 cells
        # [u_j, u_j + h] x [-h, 0] (one Gauss tensor cell each), then one
        # partial-cell call on the S cells; for F = A cos(k u/2),
        # Phi = 4A/k^2 (1 - cos(k u/2)) and Phi' = 2A/k sin(k u/2)
        A, k, a = 1.0, 15 * math.pi / 0.25, 0.25
        psi = QuadratureStreamFunction(CosineStress(A, k), TriangleDomain(a))
        g, calls = psi._g, []
        psi._g = lambda t, s: calls.append(np.broadcast(t, s).size) or g(t, s)
        h, phi, dphi = psi._ridge_knots()
        S, order = psi.spec.subdivision, psi.spec.order
        assert calls == [(S - 1) * order**2, S * order]
        assert h == 2 * a / S and phi.size == S + 1 and dphi.size == S
        u = h * np.arange(S + 1)
        delta = psi.rounding_bound(0.0, 0.0)
        assert np.max(np.abs(phi - 4 * A / k**2 * (1 - np.cos(k * u / 2)))) <= delta
        assert np.max(np.abs(dphi - 2 * A / k * np.sin(k * u[:-1] / 2))) <= 4 * delta / a
        psi._ridge_knots()
        assert len(calls) == 2


def _odd_cosine_kinematics(A, m, a, x, y):
    """(u, v) and (du/dx, du/dy, dv/dx, dv/dy) of ``_odd_cosine_psi``."""
    k = m * math.pi / a
    c = A / k**2
    al, be, ky = k * (x - y) / 2, k * (x + y) / 2, k * y
    psi_x = -c * k / 2 * (math.sin(be) - math.sin(al))
    psi_y = c * k * (math.sin(ky) - (math.sin(al) + math.sin(be)) / 2)
    psi_xx = c * k * k / 4 * (math.cos(al) - math.cos(be))
    psi_xy = -c * k * k / 4 * (math.cos(al) + math.cos(be))
    psi_yy = c * k * k * (math.cos(ky) + (math.cos(al) - math.cos(be)) / 4)
    return (psi_y, -psi_x), (psi_xy, psi_yy, -psi_xx, -psi_xy)


class TestRidgeKinematics:
    """The velocity reads Phi' and the Jacobian F at x + y, x - y and 2y,
    defined on the closed triangle: each is held to the rounding bound
    of psi divided by a once and twice (a line integral of length at most
    2a and a stress value, each times 1/4 per term)."""

    @pytest.mark.parametrize("a", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("m", [1, 3, 15, 61])
    def test_velocity_and_jacobian_match_the_closed_form(self, m, a):
        d = TriangleDomain(a)
        psi = solve_quadrature(CosineStress(1.0, m * math.pi / a), d)
        vel, jac = psi.velocity_functions()
        r2 = math.sqrt(2.0)
        # a point of each edge and the inward unit normal there
        edges = [(lambda t: (2 * a * t, 0.0), (0.0, 1.0)),
                 (lambda t: (a * t, a * t), (1 / r2, -1 / r2)),
                 (lambda t: (2 * a - a * t, a * t), (-1 / r2, -1 / r2))]
        bound = 4 * psi.rounding_bound(0.0, 0.0) / a
        for point, normal in edges:
            for t in np.linspace(0.0, 1.0, 9).tolist():
                for depth in (-0.9e-9, 0.0, 0.5e-9, 1e-9, 0.25):
                    bx, by = point(t)
                    x, y = bx + depth * a * normal[0], by + depth * a * normal[1]
                    if depth == 0.25 and not classify(d, PhysicalPoint(x, y), 1e-9 * a).is_interior:
                        continue  # a vertex's inward step leaves through the other edge
                    want_v, want_j = _odd_cosine_kinematics(1.0, m, a, x, y)
                    assert max(abs(g - w) for g, w in zip(vel(x, y), want_v)) <= bound
                    assert max(abs(g - w) for g, w in zip(jac(x, y), want_j)) <= bound / a

    def test_jacobian_outside_the_slack_raises(self):
        psi = solve_quadrature(CosineStress(10.0, 3 * math.pi), D1)
        _, jac = psi.velocity_functions()
        assert all(math.isfinite(v) for v in jac(1.0, -0.9e-9))
        with pytest.raises(ValueError, match="outside the closed triangle image"):
            jac(1.0, -2e-9)


def _per_point(psi, n):
    """The base class's lattice: one ``evaluate_many`` on the clipped points."""
    return StreamFunction.lattice_values(psi, n)


class TestLatticeTable:
    @pytest.mark.parametrize("A, m, a, n", [
        (10.0, 3, 1.0, 101), (1.0, 15, 0.25, 51), (1.0, 15, 100.0, 51),
        # cells wider than 2a/S: sub-cells
        (10.0, 3, 1.0, 2), (10.0, 3, 1.0, 3), (10.0, 3, 1.0, 5), (1.0, 15, 0.25, 5),
    ])
    def test_table_matches_per_point(self, A, m, a, n):
        d = TriangleDomain(a)
        psi = solve_quadrature(CosineStress(A, m * math.pi / a), d)
        ix, iy, got = psi.lattice_values(n)
        # the cosine's own per-point path reads the same Phi table; the
        # table is checked against the tensor rule of its opaque twin
        jx, jy, want = _per_point(_opaque_twin(psi), n)
        assert ix.tolist() == jx.tolist() and iy.tolist() == jy.tolist()
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [3, 21])
    def test_table_matches_per_point_for_an_opaque_stress(self, n):
        # an opaque stress has no table: its lattice is the per-point rule
        f = OpaqueStress(lambda x, y: 16.0 * y - 8.0 + 5.0 * np.cos(3 * math.pi * y))
        psi = solve_quadrature(f, D1)
        assert psi.lattice_values(n)[2].tobytes() == _per_point(psi, n)[2].tobytes()

    @pytest.mark.parametrize("a", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("n", [3, 41, 101])
    @pytest.mark.parametrize("m", [1, 3])
    def test_opaque_lattice_matches_closed_form(self, m, n, a):
        # within verify.SAFETY = 4 times the rounding scale, as verify
        # reads it; m = 3 reads up to 1.86 times the scale (n = 101,
        # a = 1e-3), m = 1 up to 3.0 (n = 101, a = 1e-3) and 2.8 (n = 101,
        # a = 1)
        f = CosineStress(10.0, m * math.pi / a)
        psi = QuadratureStreamFunction(OpaqueStress(f.evaluator(a)), TriangleDomain(a))
        ix, iy, got = psi.lattice_values(n)
        x, y = 2 * a * ix / (n - 1), a * iy / (n - 1)
        assert np.max(np.abs(got - _odd_cosine_psi(10.0, m, a, x, y))) <= 4 * psi.rounding_bound(x, y)

    @pytest.mark.parametrize("a", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("n", [3, 41, 101])
    def test_opaque_lattice_of_a_mixed_stress_matches_a_30_digit_closed_form(self, n, a):
        # 16 y - 8a + 5 cos(3 pi y / a): psi is the linear case's
        # polynomial plus the cosine's closed form; read up to 3.0 times
        # the bound (n = 101, a = 1)
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        f = OpaqueStress(lambda x, y: 16.0 * y - 8.0 * a + 5.0 * np.cos(3 * math.pi * y / a))
        psi = QuadratureStreamFunction(f, TriangleDomain(a))
        ix, iy, got = psi.lattice_values(n)
        am, k = mpmath.mpf(a), 3 * mpmath.pi / a
        worst = 0.0
        for i, j, value in zip(ix.tolist(), iy.tolist(), got.tolist()):
            x, y = 2 * am * i / (n - 1), am * j / (n - 1)
            want = 2 * y**3 - 2 * x**2 * y - 4 * am * y**2 + 4 * am * x * y \
                - 5 / k**2 * (mpmath.cos(k * y) + mpmath.cos(k * (x - y) / 2) - mpmath.cos(k * (x + y) / 2) - 1)
            worst = max(worst, abs(float(value - want)))
        assert worst <= 4 * psi.rounding_bound(0.0, 0.0)

    @pytest.mark.parametrize("A, m, a, n", [(10.0, 3, 1.0, 101), (1.0, 15, 0.25, 51), (1.0, 15, 100.0, 51)])
    def test_table_matches_closed_form(self, A, m, a, n):
        d = TriangleDomain(a)
        rows = np.array(grid_rows(solve_quadrature(CosineStress(A, m * math.pi / a), d), d, n))
        want = _odd_cosine_psi(A, m, a, rows[:, 0], rows[:, 1])
        assert np.max(np.abs(rows[:, 2] - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("m, a", [(3, 1.0), (15, 0.25)])
    def test_scale_is_the_interior_lattice_max(self, m, a):
        d = TriangleDomain(a)
        psi = solve_quadrature(CosineStress(1.0, m * math.pi / a), d)
        pts = interior_lattice(d, 51)
        want = float(np.max(np.abs([psi.evaluate(p.x, p.y) for p in pts])))
        assert lattice_scale(psi) == pytest.approx(want, rel=1e-14)

    def test_scale_resolves_a_high_harmonic(self):
        # at n = 51 the lattice read 1.28e-6 against a max of 1.02e-5
        m = 199
        psi = QuadratureStreamFunction(CosineStress(1.0, m * math.pi), D1)
        x, y = np.meshgrid(np.linspace(0.0, 2.0, 2001), np.linspace(0.0, 1.0, 1001))
        inside = (y <= x) & (x + y <= 2.0)
        want = float(np.max(np.abs(_odd_cosine_psi(1.0, m, 1.0, x[inside], y[inside]))))
        assert lattice_scale(psi) == pytest.approx(want, rel=1e-2)

    def test_integer_clip_is_the_closed_triangle(self):
        psi = linear_example(D1)
        for n in (2, 3, 10, 21):
            ix, iy, _ = psi.lattice_values(n)
            pts = [(2 * i / (n - 1), j / (n - 1)) for j in range(n) for i in range(n)]
            inside = [p for p in pts if p[1] <= p[0] + 1e-12 and p[0] + p[1] <= 2 + 1e-12]
            assert list(zip((2 * ix / (n - 1)).tolist(), (iy / (n - 1)).tolist())) == inside

    def test_stress_calls_are_bounded_by_the_cells(self):
        psi = solve_quadrature(CosineStress(10.0, 3 * math.pi), D1)
        g, seen = psi._g, []

        def counted(t, s):
            seen.append(np.broadcast(t, s).size)
            return g(t, s)

        psi._g = counted
        n = 101
        psi.lattice_values(n)
        # the table: one Gauss tensor cell on each of the S - 1 cells
        # [u_j, u_j + h] x [-h, 0] and one partial cell per knot cell;
        # then one partial cell per multiple of a/(n-1)
        S, order = psi.spec.subdivision, psi.spec.order
        assert sum(seen) == (S - 1) * order**2 + (S + 2 * n - 1) * order

    @pytest.mark.parametrize("a", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("m", [1, 3, 15, 61, 199])
    def test_ridge_table_matches_closed_form(self, m, a):
        psi = QuadratureStreamFunction(CosineStress(1.0, m * math.pi / a), TriangleDomain(a))
        for n in (2, 3, 11, 51):
            ix, iy, got = psi.lattice_values(n)
            x, y = 2 * a * ix / (n - 1), a * iy / (n - 1)
            assert np.max(np.abs(got - _odd_cosine_psi(1.0, m, a, x, y))) <= psi.rounding_bound(x, y)

    @pytest.mark.parametrize("m", [1, 199])
    def test_lattice_is_within_the_rounding_bound_at_n_1001(self, m):
        # each Phi value sums O(S) cells: the summed-area table it
        # replaced read 2.7 times the bound at m = 1
        psi = QuadratureStreamFunction(CosineStress(1.0, m * math.pi), D1)
        n = 1001
        ix, iy, got = psi.lattice_values(n)
        x, y = 2 * ix / (n - 1), iy / (n - 1)
        assert np.max(np.abs(got - _odd_cosine_psi(1.0, m, 1.0, x, y))) <= psi.rounding_bound(x, y)

    def test_lattice_against_a_30_digit_closed_form(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        psi = QuadratureStreamFunction(CosineStress(1.0, math.pi), D1)
        n = 1001
        ix, iy, got = psi.lattice_values(n)
        pick = np.random.default_rng(5).choice(ix.size, 300, replace=False)
        k = mpmath.pi
        worst = 0.0
        for i in pick.tolist():
            x, y = mpmath.mpf(2 * ix[i] / (n - 1)), mpmath.mpf(iy[i] / (n - 1))
            want = -(mpmath.cos(k * y) + mpmath.cos(k * (x - y) / 2) - mpmath.cos(k * (x + y) / 2) - 1) / k**2
            worst = max(worst, abs(float(got[i] - want)))
        assert worst <= 0.5 * psi.rounding_bound(0.0, 0.0)

    def test_grid_rows_peak_memory(self):
        # the list of rows itself is about 57 MiB at n = 1001; the
        # per-point export peaked at 69 MiB
        psi = solve_quadrature(CosineStress(10.0, 3 * math.pi), D1)
        tracemalloc.start()
        try:
            rows = grid_rows(psi, D1, 1001)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 501_001
        assert peak <= 69 * 2**20


class TestBoundarySlack:
    """One slack, 1e-9 a in physical distance from each edge line, as in
    ``classify``."""

    @pytest.mark.parametrize("a", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("edge", ["OA", "OB", "AB"])
    def test_quadrature_psi_and_velocity_near_an_edge(self, a, edge):
        d = TriangleDomain(a)
        psi = solve_quadrature(cosine_from_harmonic(10.0, 3, d), d)
        V = velocity_field(psi)
        r2 = math.sqrt(2.0)
        # a point of the edge and its outward unit normal
        base, normal = {"OA": ((a, 0.0), (0.0, -1.0)), "OB": ((0.5 * a, 0.5 * a), (-1 / r2, 1 / r2)),
                        "AB": ((1.5 * a, 0.5 * a), (1 / r2, 1 / r2))}[edge]
        near = PhysicalPoint(base[0] + 0.9e-9 * a * normal[0], base[1] + 0.9e-9 * a * normal[1])
        assert classify(d, near, 1e-9 * a).is_boundary
        assert abs(psi.evaluate(*near)) <= 1e-6 * lattice_scale(psi)
        u, v = V.velocity(near)
        assert math.isfinite(u) and math.isfinite(v)
        far = PhysicalPoint(base[0] + 2e-9 * a * normal[0], base[1] + 2e-9 * a * normal[1])
        with pytest.raises(ValueError, match="outside the closed triangle image"):
            psi.evaluate(*far)
        with pytest.raises(ValueError):
            V.velocity(far)

    def test_point_just_outside_ob(self):
        psi = solve_quadrature(CosineStress(10.0, 3 * math.pi), D1)
        V = velocity_field(psi)
        p = PhysicalPoint(0.5, 0.5 + 0.9e-9 * math.sqrt(2.0))
        u, v = V.velocity(p)
        assert math.isfinite(u) and math.isfinite(v)
        assert math.isfinite(psi.evaluate(*p))
        with pytest.raises(ValueError):
            V.velocity(PhysicalPoint(0.5, 0.5 + 2e-9 * math.sqrt(2.0)))
