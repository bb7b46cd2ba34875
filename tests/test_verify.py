"""Independent verification oracles."""

import math
import random

import numpy as np
import pytest

from cavitystream.geometry import TriangleDomain, PhysicalPoint, interior_lattice
from cavitystream.polyalg import BivariatePoly, poly_vars, wave_operator
from cavitystream.compatibility import CosineStress, OpaqueStress, cosine_from_harmonic
from cavitystream.solver import (
    UNIT_ROUNDOFF,
    PolyStreamFunction,
    QuadratureStreamFunction,
    linear_example,
    residual,
    sinusoidal_closed_form,
    solve_exact_poly,
    solve_quadrature,
)
from cavitystream.verify import (
    FD_STEP,
    SAFETY,
    boundary_vanishing_poly,
    random_poly,
    riemann_psi,
    uniqueness_suite,
    verify_solution,
)

from helpers import lattice_scale

X, Y, A = poly_vars()
D1 = TriangleDomain(1.0)


def _rational_interior_points(n):
    from fractions import Fraction

    pts = []
    for iy in range(1, n):
        y = Fraction(iy, n)
        for ix in range(1, 2 * n):
            x = Fraction(ix, n)
            if 0 < y < x and x + y < 2:
                pts.append((x, y))
    return pts


def _exact_stencil_residual(psi_poly, f_poly, p, h):
    x, y = p
    e = psi_poly.eval
    lap = (-e(x - h, y) + 2 * e(x, y) - e(x + h, y)) / h**2 \
        + (e(x, y - h) - 2 * e(x, y) + e(x, y + h)) / h**2
    return abs(lap - f_poly.eval(x, y))


class TestVerifySolution:
    def test_linear_exact_case_passes(self):
        psi = linear_example(D1)
        report = verify_solution(psi, psi.source_stress)
        assert report.overall_pass
        assert report.max_boundary_value <= 1e-14
        assert report.quadrature_vs_riemann is None
        # cubic stream function: the stencil truncation is identically zero,
        # so h = 1e-3 leaves only ~1e-10 of float cancellation
        assert max(residual(psi, psi.source_stress, interior_lattice(D1, 32), 1e-3)) <= 1e-9

    def test_linear_case_exact_zero_residual_in_rational_arithmetic(self):
        # the polynomial-identity oracle: second differences of a cubic
        # reproduce the stress exactly at every rational lattice point
        from fractions import Fraction

        psi = linear_example(D1)
        f = psi.source_stress.poly
        h = Fraction(1, 1000)
        for p in _rational_interior_points(16):
            assert _exact_stencil_residual(psi.poly, f, p, h) == 0

    def test_sinusoidal_passes_at_documented_tolerance(self):
        psi = sinusoidal_closed_form(5.0, D1)
        report = verify_solution(psi, psi.source_stress)
        assert report.overall_pass

    def test_perturbed_field_fails_boundary_check(self):
        psi = linear_example(D1)
        bad = PolyStreamFunction(psi.poly + X * BivariatePoly.const(1e-3).subs_a(1), D1)
        report = verify_solution(bad, psi.source_stress)
        assert not report.checks["boundary_value"]["pass"]

    def test_quadrature_backing_gets_riemann_check(self):
        stress = CosineStress(5.0, math.pi)
        psi = solve_quadrature(stress, D1)
        report = verify_solution(psi, stress)
        assert report.quadrature_vs_riemann is not None
        assert report.checks["quadrature_vs_riemann"]["pass"]

    @pytest.mark.parametrize("m, cells", [(3, 256), (15, 960), (61, 3904)])
    def test_riemann_cells_grow_with_the_harmonic(self, monkeypatch, m, cells):
        # N = 4 ceil(max(256, 64 m) / 4), here a multiple of 16; the
        # oracle takes n = 8 ceil(N / 16) = N/2 cells per axis, and its
        # two Richardson levels and their error estimate n/2, n/4, n/8
        import cavitystream.verify as verify_mod

        seen = []
        inner = verify_mod.riemann_rect

        def spy(fn, rect, n, parts=None):
            seen.append(n)
            return inner(fn, rect, n, parts)

        monkeypatch.setattr(verify_mod, "riemann_rect", spy)
        stress = CosineStress(1.0, m * math.pi)
        psi = solve_quadrature(stress, D1)
        report = verify_solution(psi, stress)
        assert seen == [cells // 2, cells // 4, cells // 8, cells // 16]
        assert report.checks["quadrature_vs_riemann"]["pass"]

    def test_monotone_refinement(self):
        # in exact arithmetic the cubic's residual field is identically
        # zero, so refining the lattice cannot raise the maximum at all
        from fractions import Fraction

        psi = linear_example(D1)
        f = psi.source_stress.poly
        h = Fraction(1, 10000)
        r16 = max((_exact_stencil_residual(psi.poly, f, p, h) for p in _rational_interior_points(16)), default=0)
        r32 = max((_exact_stencil_residual(psi.poly, f, p, h) for p in _rational_interior_points(32)), default=0)
        assert r32 <= r16 + Fraction(1, 10**12)

    def test_monotone_refinement_float_sanity(self):
        psi = linear_example(D1)
        r16, r32 = (max(residual(psi, psi.source_stress, interior_lattice(D1, n), 1e-3)) for n in (16, 32))
        noise = 32 * 2.3e-16 * lattice_scale(psi) / 1e-3**2
        assert r32 <= r16 + noise

    def test_perturbation_sensitivity_scales_linearly(self):
        psi = linear_example(D1)
        worsts = []
        for eps in (1e-4, 1e-3):
            bump = (X * Y * (X + Y) * BivariatePoly.const(eps)).subs_a(1)
            bad = PolyStreamFunction(psi.poly + bump, D1)
            rep = verify_solution(bad, psi.source_stress)
            worsts.append(max(rep.max_interior_residual, rep.max_boundary_value))
        assert worsts[1] == pytest.approx(10 * worsts[0], rel=0.2)

    def test_report_json(self):
        import json

        psi = linear_example(D1)
        rep = verify_solution(psi, psi.source_stress)
        doc = json.loads(rep.to_json())
        assert doc["overall_pass"] is True
        assert set(doc["checks"]) == {"interior_residual", "boundary_value"}


class TestTolerances:
    """Every tolerance is SAFETY times one error model: the stencil's
    truncation h^2/12 |Laplacian f| from the stress, and the backing's
    ``rounding_bound`` delta, 4 delta / h^2 on the residual and delta
    on the boundary."""

    @staticmethod
    def _assert_cosine_model(checks, a):
        # f = 10 cos(3 pi y / a): delta = u (1 + 2 pi m) max|f| a^2 / 4,
        # and |Laplacian f| <= 10 k^2
        h, k = FD_STEP * a, 3 * math.pi / a
        bc = SAFETY * UNIT_ROUNDOFF * (1 + 6 * math.pi) * 10 * a**2 / 4
        assert checks["boundary_value"]["tol"] == pytest.approx(bc, rel=1e-15)
        rounding = 4 * bc / h**2
        assert rounding <= checks["interior_residual"]["tol"] <= rounding + SAFETY * h**2 * k**2 * 10 / 12

    @pytest.mark.parametrize("a", [1e-3, 0.37, 1.0, 2.5])
    def test_sinusoidal_builtin(self, a):
        psi = sinusoidal_closed_form(5.0, TriangleDomain(a))
        self._assert_cosine_model(verify_solution(psi, psi.source_stress).checks, a)

    def test_cosine_quadrature(self):
        stress = cosine_from_harmonic(10.0, 3, D1)
        psi = solve_quadrature(stress, D1)
        checks = verify_solution(psi, stress).checks
        self._assert_cosine_model(checks, 1.0)
        # tol = SAFETY (|R2_n - R2_{n/2}| / 63 + 2 delta): the estimate
        # tracks the extrapolated oracle's own error, O(h^6) at n = 128
        riemann = checks["quadrature_vs_riemann"]
        delta = checks["boundary_value"]["tol"] / SAFETY
        estimate = riemann["tol"] / SAFETY - 2 * delta
        assert estimate == pytest.approx(riemann["value"], rel=0.05)
        assert estimate <= 1e-7 * lattice_scale(psi)

    def test_stencil_truncation_is_the_stress_laplacian(self):
        # L commutes with the Laplacian: -psi_xxxx + psi_yyyy = f_xx + f_yy
        rng = random.Random(20261018)
        for _ in range(5):
            psi = boundary_vanishing_poly(random_poly(rng))
            f = wave_operator(psi)
            assert -psi.diff(1, 4) + psi.diff(2, 4) == f.diff(1, 2) + f.diff(2, 2)

    @staticmethod
    def _headroom(kind, s, a):
        d = TriangleDomain(a)
        if kind == "linear":
            psi = PolyStreamFunction(linear_example(d).poly * s, d)
        elif kind == "sinusoidal":
            psi = sinusoidal_closed_form(5 * s, d)
        else:
            psi = solve_quadrature(cosine_from_harmonic(s, 3, d), d)
        checks = verify_solution(psi, psi.source_stress).checks
        names = ("interior_residual", "boundary_value") + (("quadrature_vs_riemann",) if kind == "cosine" else ())
        assert all(checks[name]["pass"] for name in names)
        return [checks[name]["tol"] / checks[name]["value"] for name in names]

    @pytest.mark.parametrize("kind", ["linear", "sinusoidal", "cosine"])
    def test_headroom_is_invariant_under_scaling(self, kind):
        # f -> s f and a -> a' leave every verdict and, within a factor
        # of 2, every headroom, the Riemann check's included
        reference = self._headroom(kind, 1, 1.0)
        for s in (1e-6, 1, 1e6):
            for a in (1e-3, 1.0, 1e3):
                for got, ref in zip(self._headroom(kind, s, a), reference):
                    assert 0.5 <= got / ref <= 2, (s, a)


def _bubble(d):
    """A boundary-vanishing quartic of max 1 on the 101-lattice."""
    b = (2 * Y * (Y - X) * (X + Y - 2 * A) * (X + 2 * Y)).subs_a(d.a)
    return b / max(abs(b.float_evaluator()(p.x, p.y)) for p in interior_lattice(d, 101))


class _Bumped(QuadratureStreamFunction):
    """A quadrature field plus a polynomial error."""

    def __init__(self, psi, bump):
        super().__init__(psi.stress, psi.domain)
        self._bump = bump.float_evaluator()

    def evaluate_many(self, x, y):
        return super().evaluate_many(x, y) + self._bump(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


class TestMutationsFailTheStrongForm:
    """Wrong fields fail ``interior_residual`` at every amplitude and size."""

    @pytest.mark.parametrize("amplitude", [1e-6, 1.0, 1e6])
    def test_quadrature_off_by_a_bubble(self, amplitude):
        psi = solve_quadrature(cosine_from_harmonic(amplitude, 3, D1), D1)
        bad = _Bumped(psi, _bubble(D1) * (1e-6 * lattice_scale(psi)))
        assert not verify_solution(bad, psi.stress).checks["interior_residual"]["pass"]

    @pytest.mark.parametrize("a", [1e-3, 1.0, 1e3])
    def test_linear_off_by_a_bubble(self, a):
        d = TriangleDomain(a)
        psi = linear_example(d)
        bad = PolyStreamFunction(psi.poly + _bubble(d) * (1e-6 * lattice_scale(psi)), d)
        assert not verify_solution(bad, psi.source_stress).checks["interior_residual"]["pass"]

    @pytest.mark.parametrize("amplitude", [1e-6, 1.0, 1e6])
    def test_wrong_harmonic(self, amplitude):
        psi = solve_quadrature(cosine_from_harmonic(amplitude, 5, D1), D1)
        stress = cosine_from_harmonic(amplitude, 3, D1)
        assert not verify_solution(psi, stress).checks["interior_residual"]["pass"]


@pytest.mark.parametrize("seed", range(8))
def test_dense_degree_64_solves_verify(seed):
    # admissible stresses of joint degree 64 whose residual is nearly all
    # truncation; a tolerance sized from too few points failed half
    rng = random.Random(seed)
    q = BivariatePoly.from_terms({(i, j): rng.choice([-3, -2, -1, 1, 2, 3]) for i in range(64) for j in range(64 - i)})
    psi = solve_exact_poly(wave_operator(boundary_vanishing_poly(q).subs_a(1)), D1)
    assert verify_solution(psi, psi.source_stress).overall_pass


class TestRiemannOracle:
    def test_matches_exact_solution_for_linear_stress(self):
        psi = linear_example(D1)
        p = PhysicalPoint(1.0, 0.5)
        ref, _ = riemann_psi(psi.source_stress, D1, p, cells_per_axis=800)
        assert ref == pytest.approx(0.25, abs=5e-7)

    def test_independent_of_gauss_machinery(self):
        stress = CosineStress(5.0, math.pi)
        quad = solve_quadrature(stress, D1)
        p = PhysicalPoint(0.875, 0.375)  # X = 1.25, Y = -0.5: multiples of 16a/512
        ref, _ = riemann_psi(stress, D1, p, 512)
        assert ref == pytest.approx(quad.evaluate(*p), abs=5e-5)

    def test_extrapolation_and_its_error_estimate(self):
        # the linear stress is integrated exactly by the midpoint rule
        psi = linear_example(D1)
        p = PhysicalPoint(1.0, 0.5)
        value, error = riemann_psi(psi.source_stress, D1, p, 800)
        assert value == pytest.approx(0.25, abs=1e-14) and error <= 1e-15
        with pytest.raises(ValueError, match="multiple of 8"):
            riemann_psi(psi.source_stress, D1, p, 804)

    def test_points_off_the_coarsest_lattice_are_refused(self):
        # X = 1.3 is not a multiple of 16a/512 = 1/32, and neither is
        # X = 81/64, Y = -33/64, although both are multiples of 8a/512:
        # that point is on the n/4 lattice but not on the n/8 one
        for p in (PhysicalPoint(0.9, 0.4), PhysicalPoint(0.890625, 0.375)):
            with pytest.raises(ValueError, match="multiples of"):
                riemann_psi(CosineStress(5.0, math.pi), D1, p, 512)

    @pytest.mark.parametrize("m", [3, 15, 61])
    def test_quadrature_off_by_a_bubble_fails(self, m):
        # the check is tight enough to catch an error of 1e-6 of scale,
        # and of 1e-7, below the tolerance of one Richardson level at
        # m = 15 and 61 (about 2.6e-7 and 3.8e-7 of scale)
        psi = solve_quadrature(cosine_from_harmonic(1.0, m, D1), D1)
        for size in (1e-6, 1e-7):
            bad = _Bumped(psi, _bubble(D1) * (size * lattice_scale(psi)))
            assert not verify_solution(bad, psi.stress).checks["quadrature_vs_riemann"]["pass"], size

    @pytest.mark.parametrize("s", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("a", [1e-3, 1.0, 1e3])
    def test_roundoff_floor_holds_where_the_midpoint_rule_is_exact(self, s, a):
        # the linear stress leaves the oracle's error estimate at rounding
        # level, so the tolerance is all roundoff floor: psi and the
        # oracle must still agree within half of it
        d = TriangleDomain(a)
        f = OpaqueStress(lambda x, y: s * (16 * y - 8 * a))
        checks = verify_solution(solve_quadrature(f, d), f).checks
        assert all(c["pass"] for c in checks.values())
        riemann = checks["quadrature_vs_riemann"]
        assert riemann["value"] <= riemann["tol"] / 2


class TestUniquenessSuite:
    def test_unit_multiplier_recovers_cubic(self):
        psi0 = boundary_vanishing_poly(BivariatePoly.const(1))
        got = solve_exact_poly(wave_operator(psi0), None)
        assert got.poly == psi0
        assert got.poly == 2 * Y**3 - 2 * X**2 * Y - 4 * A * Y**2 + 4 * A * X * Y

    def test_zero_multiplier(self):
        psi0 = boundary_vanishing_poly(BivariatePoly.zero())
        assert psi0.is_zero
        assert solve_exact_poly(wave_operator(psi0), None).poly.is_zero

    def test_seeded_trials_pass(self):
        summary = uniqueness_suite(None, trials=20, seed=20260808)
        assert summary.all_passed
        assert summary.trials == 20

    def test_numeric_domain_trials(self):
        summary = uniqueness_suite(TriangleDomain(2.0), trials=5, seed=1)
        assert summary.all_passed

    def test_deterministic_given_seed(self):
        s1 = uniqueness_suite(None, trials=3, seed=5)
        s2 = uniqueness_suite(None, trials=3, seed=5)
        assert s1 == s2
