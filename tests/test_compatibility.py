"""Admissibility condition: exact criterion, closed forms, constraint subspace."""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cavitystream.geometry import TriangleDomain
from cavitystream.polyalg import BivariatePoly, poly_vars, wave_operator
from cavitystream import compatibility
from cavitystream.compatibility import (
    CosineStress,
    OpaqueStress,
    PolynomialStress,
    char_antiderivative,
    compat_check,
    compat_constraints,
    compat_residual,
    cosine_admissible_wavenumbers,
    cosine_from_harmonic,
    exact_residual_poly,
)
from cavitystream.verify import boundary_vanishing_poly, random_poly

X, Y, A = poly_vars()
D1 = TriangleDomain(1.0)
LINEAR_STRESS = 16 * Y - 8 * A


class TestExactResidual:
    def test_linear_stress_is_admissible_symbolically(self):
        assert exact_residual_poly(LINEAR_STRESS, None).is_zero

    def test_linear_stress_residual_zero_numerically(self):
        f = PolynomialStress(LINEAR_STRESS.subs_a(1))
        assert compat_residual(f, D1, 0.0) == 0.0

    def test_constant_stress_residual_is_rectangle_area(self):
        f = PolynomialStress(BivariatePoly.const(1))
        assert compat_residual(f, D1, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_residual_vanishes_at_right_endpoint(self):
        for f in (
            PolynomialStress(BivariatePoly.const(3)),
            CosineStress(2.0, 4.0),
            OpaqueStress(lambda x, y: x * 0 + y * 0 + 1.0),
        ):
            assert abs(compat_residual(f, D1, 2.0)) <= 1e-13

    def test_residual_vanishes_at_left_endpoint(self):
        for f in (
            PolynomialStress(Y**2 - X),
            CosineStress(2.0, 4.0),
        ):
            assert abs(compat_residual(f, D1, 0.0)) <= 1e-13

    def test_rejects_x_outside_range(self):
        f = PolynomialStress(BivariatePoly.const(1))
        with pytest.raises(ValueError):
            compat_residual(f, D1, -0.5)
        with pytest.raises(ValueError):
            compat_residual(f, D1, 2.5)

    @settings(max_examples=25, deadline=None)
    @given(
        st.fractions(min_value=-3, max_value=3, max_denominator=8),
        st.fractions(min_value=-3, max_value=3, max_denominator=8),
        st.floats(0.05, 1.95),
    )
    def test_residual_is_linear_in_stress(self, alpha, beta, x_val):
        f1, f2 = Y**2 - X, 3 * X * Y + 1
        combo = PolynomialStress(alpha * f1 + beta * f2)
        r = compat_residual(combo, D1, x_val)
        r1 = compat_residual(PolynomialStress(f1), D1, x_val)
        r2 = compat_residual(PolynomialStress(f2), D1, x_val)
        assert r == pytest.approx(float(alpha) * r1 + float(beta) * r2, abs=1e-11)

    def test_quadrature_agrees_with_exact_path(self):
        poly = 2 * X**2 * Y - Y**3 + X - 1
        exact = PolynomialStress(poly)
        ev = exact.evaluator(1.0)
        opaque = OpaqueStress(ev)
        for xv in (0.3, 0.9, 1.7):
            re = compat_residual(exact, D1, xv)
            rq = compat_residual(opaque, D1, xv)
            scale = max(1.0, abs(re))
            assert abs(re - rq) <= 1e-12 * scale


class TestCharAntiderivative:
    @pytest.mark.parametrize("f", [LINEAR_STRESS, X**3 * Y - 2 * A * X + 5, BivariatePoly.const(3)])
    def test_vanishes_on_both_axes_and_differentiates_back(self, f):
        # the two properties determine H = int_0^t int_0^s g uniquely
        t, s = X, Y
        h = char_antiderivative(f)
        assert h.compose(t, 0).is_zero and h.compose(0, s).is_zero
        assert h.diff(1).diff(2) == f.compose((t - s) / 2, (t + s) / 2)


class TestCompatCheck:
    def test_linear_family_exact_verdict(self):
        report = compat_check(PolynomialStress(LINEAR_STRESS), D1)
        assert report.is_compatible
        assert report.exact_constraints == "0"

    @pytest.mark.parametrize("bound", [False, True], ids=["symbolic", "bound"])
    def test_exact_verdict_past_the_float_range(self, bound):
        # (2a)^2 overflows at a = 1e300, but the exact criterion never
        # reads the normalization, so the admissible stress stays admissible
        d = TriangleDomain(1e300)
        f = LINEAR_STRESS.subs_a(Fraction(d.a)) if bound else LINEAR_STRESS
        report = compat_check(PolynomialStress(f), d)
        assert report.is_compatible and report.max_abs_residual == 0.0
        assert math.isinf(report.normalization)

    def test_broken_linear_family_is_incompatible(self):
        # c1 = 16 with c2 = -7 violates the admissible ray
        f = PolynomialStress(16 * Y - BivariatePoly.const(7))
        report = compat_check(f, D1)
        assert not report.is_compatible
        assert report.exact_constraints != "0"

    def test_cosine_odd_harmonic_compatible(self):
        report = compat_check(CosineStress(5.0, math.pi), D1)
        assert report.is_compatible
        assert report.max_abs_residual <= 1e-12

    def test_cosine_even_harmonic_incompatible(self):
        for m in (2, 4):
            report = compat_check(CosineStress(5.0, m * math.pi), D1)
            assert not report.is_compatible
            assert report.max_abs_residual >= 1e-2 * report.normalization

    def test_sweep_shape_and_max(self):
        report = compat_check(CosineStress(1.0, 2.0), D1)
        assert len(report.sweep) == 65
        assert report.sweep[0][0] == 0.0
        assert report.sweep[-1][0] == pytest.approx(2.0)
        assert report.max_abs_residual == max(abs(r) for _, r in report.sweep)

    def test_json_round_trip(self):
        import json

        report = compat_check(PolynomialStress(LINEAR_STRESS), D1)
        doc = json.loads(report.to_json())
        assert doc["verdict"] == "compatible"
        assert len(doc["sweep"]) == 65


class TestResidualBuiltOnce:
    @pytest.mark.parametrize("poly, builds", [(16 * Y - 8, 1), (LINEAR_STRESS, 1)], ids=["bound", "symbolic"])
    def test_polynomial_check_builds_the_residual_once(self, monkeypatch, poly, builds):
        real = compatibility.exact_residual_poly
        calls = []

        def counting(f, d):
            calls.append(d)
            return real(f, d)

        monkeypatch.setattr(compatibility, "exact_residual_poly", counting)
        report = compat_check(PolynomialStress(poly), D1)
        assert report.is_compatible
        assert len(calls) == builds
        # the sweep is the per-node residual, bit for bit
        assert report.sweep == tuple((x, compat_residual(PolynomialStress(poly), D1, x)) for x, _ in report.sweep)


def _rank(rows: list[list[Fraction]]) -> int:
    """Rank over Q by row reduction (independent of compat_constraints)."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _constraints_text(cs) -> str:
    lines = [str(cs.rank)]
    lines += [" | ".join(e.to_text() for e in row) for row in cs.rows]
    lines += [" | ".join(e.to_text() for e in vec) for vec in cs.nullspace]
    return "\n".join(lines)


def _fraction_nullspace(cs, basis, d):
    """(rank, nullspace) of cs.rows by Gauss-Jordan over Q, each vector
    normalised as ConstraintSystem documents."""
    zero = BivariatePoly.zero()
    mat = [[sum(e.coefficients.values(), Fraction(0)) for e in row] for row in cs.rows]
    ncols = len(basis)
    degrees = [0] * ncols
    if d is None:
        degrees = [max((m + k for m, _, k in exact_residual_poly(b, None).coefficients), default=0)
                   for b in basis]
    pivot_cols, prow = [], 0
    for col in range(ncols):
        pivot = next((r for r in range(prow, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[prow], mat[pivot] = mat[pivot], mat[prow]
        mat[prow] = [e / mat[prow][col] for e in mat[prow]]
        for r in range(len(mat)):
            if r != prow and mat[r][col]:
                mat[r] = [er - mat[r][col] * ep for er, ep in zip(mat[r], mat[prow])]
        pivot_cols.append(col)
        prow += 1
        if prow == len(mat):
            break
    nullspace = []
    for fc in (c for c in range(ncols) if c not in pivot_cols):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for p, pc in enumerate(pivot_cols):
            vec[pc] = -mat[p][fc]
        den = math.lcm(*(q.denominator for q in vec))
        ints = [int(q * den) for q in vec]
        g = math.gcd(*ints)
        ints = [n // g for n in ints]
        top = max(degrees[i] for i, n in enumerate(ints) if n)
        first = next(i for i, n in enumerate(ints) if n)
        if ints[first] < 0 and degrees[first] == top:
            ints = [-n for n in ints]
        nullspace.append(tuple(BivariatePoly.monomial(n, 0, 0, top - degrees[i]) if n else zero
                               for i, n in enumerate(ints)))
    return len(pivot_cols), tuple(nullspace)


def _random_bound_basis(rng):
    """Inadmissible elements, admissible ones and combinations of both."""
    free = [random_poly(rng, max_degree=rng.randint(1, 4)) * Fraction(1, rng.choice([1, 3, 7]))
            for _ in range(rng.randint(2, 5))]
    admissible = [wave_operator(boundary_vanishing_poly(random_poly(rng, max_degree=2)))
                  for _ in range(rng.randint(1, 3))]
    mixed = [sum((f * Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for f in free), admissible[0])
             for _ in range(2)]
    basis = free + admissible + mixed
    rng.shuffle(basis)
    return basis


class TestConstraints:
    def test_linear_family_admissible_ray(self):
        cs = compat_constraints([Y, BivariatePoly.const(1)], None)
        assert cs.rank == 1
        assert len(cs.nullspace) == 1
        c1, c2 = cs.nullspace[0]
        # the ray 2*c2 = -a*c1, normalized to integer-coprime entries
        assert c1 == BivariatePoly.const(2)
        assert c2 == -BivariatePoly.sym_a()

    def test_linear_family_numeric_domain(self):
        cs = compat_constraints([Y, BivariatePoly.const(1)], TriangleDomain(2.0))
        (c1, c2), = cs.nullspace
        assert c1 == BivariatePoly.const(1)
        assert c2 == BivariatePoly.const(-1)

    def test_constant_alone_has_trivial_nullspace(self):
        cs = compat_constraints([BivariatePoly.const(1)], None)
        assert cs.rank == 1
        assert cs.nullspace == ()

    def test_induced_stress_row_is_zero(self):
        rng = random.Random(7)
        for _ in range(5):
            q = random_poly(rng, max_degree=3)
            f = wave_operator(boundary_vanishing_poly(q))
            cs = compat_constraints([f], None)
            assert cs.rank == 0
            assert len(cs.nullspace) == 1

    def test_mixed_basis(self):
        # {y, 1, x*y} : x*y alone is not admissible, so the nullspace stays 1-D
        cs = compat_constraints([Y, BivariatePoly.const(1), X * Y], None)
        assert cs.rank == 2
        assert len(cs.nullspace) == 1

    def test_rejects_empty_basis(self):
        with pytest.raises(ValueError):
            compat_constraints([], None)

    def test_nonhomogeneous_symbolic_basis_is_rejected(self):
        with pytest.raises(ValueError, match=r"basis element 0 \(1 \+ y\)"):
            compat_constraints([Y + 1], None)
        cs = compat_constraints([Y + 1], TriangleDomain(2))
        assert cs.rank == 1
        assert cs.nullspace == ()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_symbolic_nullspace_specializes_to_the_bound_one(self, n):
        a = Fraction(5, 3)
        basis = [BivariatePoly.monomial(1, i, j, n - i - j) for i in range(n + 1) for j in range(n + 1 - i)]
        symbolic = [[e.eval(0, 0, a) for e in vec] for vec in compat_constraints(basis, None).nullspace]
        bound = [[e.eval(0, 0) for e in vec] for vec in compat_constraints(basis, TriangleDomain(a)).nullspace]
        assert len(symbolic) == len(bound) == _rank(symbolic) == _rank(bound)
        assert _rank(symbolic + bound) == len(bound)

    @pytest.mark.parametrize("d, digest", [
        (None, "19e01069ef41f6d855c0ae415d42bacc2ad8c5b5644b22d5e703a391ebbc200b"),
        (TriangleDomain(1), "af5c28cb7ea18fa2239381ab3728e9da0a26a3921909c314e93a1aefcf56a8ed"),
    ], ids=["symbolic", "a=1"])
    def test_degree8_monomial_basis_is_pinned(self, d, digest):
        # digests of the rank, rows and nullspace computed over Q(a) with
        # rational-function Gauss-Jordan, before the nullspace was taken
        # over Q and scaled by powers of a
        basis = [BivariatePoly.monomial(1, i, j) for i in range(9) for j in range(9 - i)]
        cs = compat_constraints(basis, d)
        assert (cs.rank, len(cs.nullspace)) == (9, 36)
        assert hashlib.sha256(_constraints_text(cs).encode()).hexdigest() == digest


    @pytest.mark.parametrize("d", [None, TriangleDomain(1), TriangleDomain(0.37)], ids=["symbolic", "a=1", "a=0.37"])
    def test_integer_elimination_matches_fraction_gauss_jordan(self, d):
        basis = [BivariatePoly.monomial(1, i, j) for i in range(9) for j in range(9 - i)]
        cs = compat_constraints(basis, d)
        assert (cs.rank, cs.nullspace) == _fraction_nullspace(cs, basis, d)

    @pytest.mark.parametrize("seed", range(6))
    def test_integer_elimination_on_random_bases(self, seed):
        rng = random.Random(seed)
        basis = _random_bound_basis(rng)
        for d in (TriangleDomain(Fraction(3, 7)), TriangleDomain(2.5)):
            cs = compat_constraints(basis, d)
            assert (cs.rank, cs.nullspace) == _fraction_nullspace(cs, basis, d)
        assert compat_constraints(basis, TriangleDomain(Fraction(3, 7))).nullspace


class TestCosineFamily:
    def test_odd_wavenumbers_a1(self):
        ks = cosine_admissible_wavenumbers(D1, 2)
        assert ks == pytest.approx([math.pi, 3 * math.pi, 5 * math.pi])

    def test_first_wavenumber_a2(self):
        ks = cosine_admissible_wavenumbers(TriangleDomain(2.0), 0)
        assert ks == pytest.approx([math.pi / 2])

    def test_even_wavenumber_fails(self):
        report = compat_check(CosineStress(1.0, 2 * math.pi / 1.0), D1)
        assert not report.is_compatible

    def test_harmonic_constructor(self):
        f = cosine_from_harmonic(5.0, 3, D1)
        assert f.wavenumber == pytest.approx(3 * math.pi)
        with pytest.raises(ValueError):
            cosine_from_harmonic(1.0, 0, D1)
