"""Flow observables: velocity, stagnation points, streamlines, profiles."""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from cavitystream import kinematics
from cavitystream.cli import BUILTIN_NAMES, SINUSOIDAL_AMPLITUDE, RunConfig, StressSpec, \
    build_stream_function, default_flow_seeds, render_flow_svg
from cavitystream.geometry import (
    TriangleDomain,
    PhysicalPoint,
    boundary_sample,
    classify,
    interior_lattice,
)
from cavitystream.polyalg import BivariatePoly, poly_vars, wave_operator
from cavitystream.compatibility import OpaqueStress, cosine_from_harmonic
from cavitystream.solver import (
    PolyStreamFunction,
    SinusoidalStreamFunction,
    StreamFunction,
    linear_example,
    realistic_example,
    sinusoidal_closed_form,
    solve_exact_poly,
    solve_quadrature,
)
from cavitystream.kinematics import (
    CENTER,
    CLOSED,
    DEGENERATE,
    HIT_BOUNDARY,
    SADDLE,
    STEP_LIMIT,
    Streamline,
    VelocityField,
    interior_centers,
    stagnation_points,
    trace_streamline,
    u_profile,
    velocity_field,
)
from cavitystream.verify import boundary_vanishing_poly, random_poly

from helpers import lattice_scale, reference_flow_svg, reference_streamlines_csv, scalar_stagnation_points

X, Y, A = poly_vars()
D1 = TriangleDomain(1.0)

# stagnation fixtures for the sinusoidal case, obtained by solving the
# closed-form velocity zeros: u on x=a reduces to cos(th)*(2*sin(th)+1)
# with th = 3*pi*y/(2*a), and v vanishes on x in {a/3, a, 5a/3}
SINUSOIDAL_CENTERS = [
    (1.0 / 3.0, 1.0 / 9.0),
    (1.0, 1.0 / 3.0),
    (1.0, 7.0 / 9.0),
    (5.0 / 3.0, 1.0 / 9.0),
]


@pytest.fixture(scope="module")
def lin_field():
    return velocity_field(linear_example(D1))


@pytest.fixture(scope="module")
def sin_field():
    return velocity_field(sinusoidal_closed_form(5.0, D1))


@pytest.fixture(scope="module")
def real_field():
    return velocity_field(realistic_example(D1))


class TestVelocity:
    def test_linear_case_matches_closed_form(self, lin_field):
        assert lin_field.source.u_poly == (-2 * X**2 + 6 * Y**2 + 4 * X - 8 * Y).subs_a(1)
        assert lin_field.source.v_poly == (4 * X * Y - 4 * Y).subs_a(1)

    def test_vertices_are_stagnant(self, lin_field):
        for v in D1.vertices():
            u, w = lin_field.velocity(v)
            assert math.hypot(u, w) == 0.0

    def test_zero_stream_function(self):
        V = velocity_field(solve_exact_poly(BivariatePoly.zero(), D1))
        assert V.velocity(PhysicalPoint(0.8, 0.2)) == (0.0, 0.0)

    def test_rejects_exterior_point(self, lin_field):
        with pytest.raises(ValueError):
            lin_field.velocity(PhysicalPoint(0.5, 0.8))

    def test_incompressibility_exact(self):
        rng = random.Random(3)
        for _ in range(5):
            psi = solve_exact_poly(
                wave_operator(boundary_vanishing_poly(random_poly(rng, max_degree=3))), None
            )
            bound = psi.bind_a(1)
            assert (bound.u_poly.diff(1) + bound.v_poly.diff(2)).is_zero

    def test_finite_differences_match_exact(self):
        # reference: central differences of psi at h = 1e-4; their error
        # is h^2/6 times a third derivative of psi
        h = 1e-4

        def fd_velocity(psi, p):
            e = psi.evaluate
            return ((e(p.x, p.y + h) - e(p.x, p.y - h)) / (2 * h),
                    -(e(p.x + h, p.y) - e(p.x - h, p.y)) / (2 * h))

        # both non-polynomial backings have third derivatives bounded by
        # C k^3 (1 + 2/8) for psi = -C (cos ky + cos k(x-y)/2 -/+ ...)
        k = 3 * math.pi
        sin_c = 2 * 5.0 / (9 * math.pi**2)
        cases = [
            (linear_example(D1), 1e-6),
            # C = 2*5/(9 pi^2): h^2/6 * 1.25 C k^3 = 1.9e-7
            (sinusoidal_closed_form(5.0, D1), h**2 / 6 * 1.25 * sin_c * k**3),
            # C = A/k^2, A = 1: h^2/6 * 1.25 k = 2.0e-8, plus 1e-10 for
            # the quadrature psi's rounding divided by h
            (solve_quadrature(cosine_from_harmonic(1.0, 3, D1), D1), h**2 / 6 * 1.25 * k + 1e-10),
        ]
        for psi, tol in cases:
            V = velocity_field(psi)
            worst = 0.0
            for p in interior_lattice(D1, 12, margin=1e-3):
                ue, ve = V.velocity(p)
                uf, vf = fd_velocity(psi, p)
                worst = max(worst, abs(ue - uf), abs(ve - vf))
            assert worst <= tol, (psi.kind, worst, tol)

    def test_sinusoidal_jacobian_matches_differences(self, sin_field):
        # central differences of the exact velocity, h = 1e-4; the error
        # is h^2/6 times third derivatives of u, v, at most
        # 1.25 C k^4 = 9.9e2 with C = 2*5/(9 pi^2), k = 3 pi
        h = 1e-4
        k = 3 * math.pi
        tol = h**2 / 6 * 1.25 * (2 * 5.0 / (9 * math.pi**2)) * k**4
        worst = 0.0
        for p in interior_lattice(D1, 12, margin=1e-3):
            up, vp = sin_field.velocity(PhysicalPoint(p.x + h, p.y))
            um, vm = sin_field.velocity(PhysicalPoint(p.x - h, p.y))
            uq, vq = sin_field.velocity(PhysicalPoint(p.x, p.y + h))
            ur, vr = sin_field.velocity(PhysicalPoint(p.x, p.y - h))
            fd = ((up - um) / (2 * h), (uq - ur) / (2 * h), (vp - vm) / (2 * h), (vq - vr) / (2 * h))
            worst = max(worst, max(abs(e - f) for e, f in zip(sin_field.jacobian(p), fd)))
        assert worst <= tol

    @pytest.mark.parametrize("name", ["linear", "realistic"])
    def test_few_point_arrays_have_the_bits_of_each_point(self, name):
        # up to solver.FEW_POINTS points a polynomial runs each point's
        # own Horner code, above it one stacked pass: both give each
        # point the bits of a call on it, nan and signed zeros included
        V = velocity_field({"linear": linear_example, "realistic": realistic_example}[name](D1))
        pts = [(0.3, 0.1), (-0.0, -0.0), (1.0, 0.5), (math.inf, 0.5), (1.0, math.nan), (2.0, 0.0),
               (1e300, -1e300), (0.7, 0.2), (1.3, 0.4), (0.5, 0.25)]
        with np.errstate(all="ignore"):
            for n in range(len(pts) + 1):
                x, y = np.array(pts[:n], dtype=float).reshape(-1, 2).T
                for many, one in ((V.velocity_many, lambda p: V._eval_raw(*p)), (V.jacobian_many, V.jacobian)):
                    values, failed = many(x, y)
                    assert values.shape[1] == n and not failed.any()
                    for k, p in enumerate(pts[:n]):
                        assert np.array(one(p), dtype=float).tobytes() == values[:, k].tobytes()

    def test_velocity_needs_a_backing_derivative(self):
        class Opaque(StreamFunction):
            def _raw_eval(self, x, y):
                return 0.0

        with pytest.raises(NotImplementedError):
            velocity_field(Opaque(D1))

    def test_boundary_velocity_is_tangent(self, lin_field, real_field):
        for V in (lin_field, real_field):
            for p, normal in _boundary_points_with_normals(D1, 120):
                u, v = V.velocity(p)
                speed = math.hypot(u, v)
                if speed == 0.0:
                    continue
                assert abs(u * normal[0] + v * normal[1]) <= 1e-10 * speed


def _boundary_points_with_normals(d, n):
    out = []
    r2 = math.sqrt(2.0)
    for p in boundary_sample(d, n):
        if p in d.vertices():
            continue
        if abs(p.y) < 1e-12:
            out.append((p, (0.0, 1.0)))
        elif abs(p.y - p.x) < 1e-12:
            out.append((p, (1 / r2, -1 / r2)))
        else:
            out.append((p, (1 / r2, 1 / r2)))
    return out


class TestStagnation:
    def test_linear_case_complete_set(self, lin_field):
        pts = stagnation_points(lin_field, D1, seeds_per_axis=15)
        locs = sorted((p.location.x, p.location.y) for p in pts)
        expected = [(0.0, 0.0), (1.0, 1.0 / 3.0), (1.0, 1.0), (2.0, 0.0)]
        assert len(locs) == 4
        for got, exp in zip(locs, expected):
            assert math.hypot(got[0] - exp[0], got[1] - exp[1]) <= 1e-10

    def test_linear_interior_center(self, lin_field):
        pts = stagnation_points(lin_field, D1, seeds_per_axis=15)
        centers = interior_centers(pts, D1)
        assert len(centers) == 1
        assert centers[0].location.x == pytest.approx(1.0, abs=1e-10)
        assert centers[0].location.y == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert centers[0].residual_speed <= 1e-10

    def test_linear_vertices_are_saddles(self, lin_field):
        pts = stagnation_points(lin_field, D1, seeds_per_axis=15)
        by_loc = {(round(p.location.x, 6), round(p.location.y, 6)): p.classification for p in pts}
        assert by_loc[(0.0, 0.0)] == SADDLE
        assert by_loc[(2.0, 0.0)] == SADDLE
        assert by_loc[(1.0, 1.0)] == SADDLE

    def test_null_field_reports_degenerate(self):
        V = velocity_field(solve_exact_poly(BivariatePoly.zero(), D1))
        pts = stagnation_points(V, D1, seeds_per_axis=5)
        assert pts
        assert all(p.classification == DEGENERATE for p in pts)

    def test_sinusoidal_four_centers(self, sin_field):
        pts = stagnation_points(sin_field, D1, seeds_per_axis=15)
        centers = interior_centers(pts, D1)
        assert len(centers) == 4
        for got, exp in zip(sorted((c.location.x, c.location.y) for c in centers), SINUSOIDAL_CENTERS):
            assert math.hypot(got[0] - exp[0], got[1] - exp[1]) <= 1e-9

    @pytest.mark.parametrize("a", [1e-3, 1.0, 1e3])
    def test_sinusoidal_roots_to_machine_precision(self, a):
        # u and v vanish together exactly at the 13 lattice points
        # (i a/3, j a/9) of the closed triangle
        d = TriangleDomain(a)
        V = velocity_field(sinusoidal_closed_form(5.0, d))
        pts = stagnation_points(V, d, seeds_per_axis=21)
        assert len(pts) == 13
        for p in pts:
            i, j = round(3 * p.location.x / a), round(9 * p.location.y / a)
            assert math.hypot(p.location.x - i * a / 3, p.location.y - j * a / 9) <= 1e-12 * a
            assert p.residual_speed <= 1e-14 * V.speed_scale()

    def test_seed_refinement_stability(self, lin_field):
        coarse = stagnation_points(lin_field, D1, seeds_per_axis=10)
        fine = stagnation_points(lin_field, D1, seeds_per_axis=20)
        assert len(coarse) == len(fine)
        for c, f in zip(coarse, fine):
            assert math.hypot(c.location.x - f.location.x, c.location.y - f.location.y) <= 1e-9

    @pytest.mark.parametrize("a", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("sx, sy", [(1 + 2**-52, 1.0), (1.0, 1 + 2**-52)], ids=["x", "y"])
    def test_order_survives_a_rounding_level_change(self, sx, sy, a):
        # the 47 roots of m = 9 lie in columns; a velocity read at
        # x (1 + 2^-52) or at y (1 + 2^-52) moves each by about 4e-16 a,
        # which reordered a sort on the raw floats within a column at
        # every a here
        d = TriangleDomain(a)
        V = velocity_field(solve_quadrature(cosine_from_harmonic(1.0, 9, d), d))
        W = velocity_field(V.source)
        vel = W._vel
        W._vel = lambda x, y: vel(x * sx, y * sy)
        pts, moved = stagnation_points(V, d), stagnation_points(W, d)
        assert len(pts) == len(moved) == 47
        for p, q in zip(pts, moved):
            assert math.hypot(p.location.x - q.location.x, p.location.y - q.location.y) <= 1e-14 * a
            assert p.classification == q.classification

    @pytest.mark.parametrize("a", [0.5, 2.0])
    def test_linear_center_scales_with_a(self, a):
        d = TriangleDomain(a)
        V = velocity_field(linear_example(d))
        centers = interior_centers(stagnation_points(V, d, seeds_per_axis=12), d)
        assert len(centers) == 1
        assert centers[0].location.x == pytest.approx(a, abs=1e-9 * a)
        assert centers[0].location.y == pytest.approx(a / 3, abs=1e-9 * a)

    def test_realistic_two_gyres(self, real_field):
        pts = stagnation_points(real_field, D1, seeds_per_axis=21)
        centers = interior_centers(pts, D1)
        assert len(centers) == 2
        # secondary gyre sits nearer the apex than the stressed base
        top = max(centers, key=lambda c: c.location.y)
        dist_apex = math.hypot(top.location.x - 1.0, top.location.y - 1.0)
        assert dist_apex < top.location.y

    @pytest.mark.parametrize("field", ["linear", "sinusoidal", "realistic", "cosine"])
    def test_each_point_evaluated_once(self, field, monkeypatch):
        # a Newton step keeps the velocity of the trial it accepts, a root
        # keeps its speed, and a trial at the seed's own point is not
        # evaluated: searched alone, a seed never evaluates a point in
        # two velocity calls in a row (a call takes an array of points)
        psi = {
            "linear": lambda: linear_example(D1),
            "sinusoidal": lambda: sinusoidal_closed_form(5.0, D1),
            "realistic": lambda: realistic_example(D1),
            "cosine": lambda: solve_quadrature(cosine_from_harmonic(1.0, 3, D1), D1),
        }[field]()
        V = velocity_field(psi)
        V.speed_scale()
        raw = V._eval_raw
        calls = []
        V._eval_raw = lambda x, y: calls.append(set(zip(np.ravel(x).tolist(), np.ravel(y).tolist()))) or raw(x, y)
        found = 0
        for seed in interior_lattice(D1, 23, margin=1e-6):
            monkeypatch.setattr(kinematics, "interior_lattice", lambda *args, **kwargs: [seed])
            calls.clear()
            pts = stagnation_points(V, D1)
            assert calls
            assert all(not p & q for p, q in zip(calls, calls[1:]))
            for p in pts:
                assert p.residual_speed == math.hypot(*raw(*p.location))
            found += len(pts)
        assert found

    @staticmethod
    def _in_units_of_a(make, a):
        d = TriangleDomain(a)
        pts = stagnation_points(velocity_field(make(d)), d)
        return [(p.location.x / a, p.location.y / a, p.classification) for p in pts]

    @pytest.mark.parametrize("name, a", [
        *(("linear", a) for a in (1e-150, 1e-120, 1e-3, 1e3)),
        *(("sinusoidal", a) for a in (1e-160, 1e-150, 1e-120, 1e-3, 1e3)),
    ])
    def test_same_points_at_every_unit_of_length(self, name, a):
        # the Newton step and the classification scale their Jacobians
        # by powers of two, so no product underflows at a tiny a
        make = {"linear": linear_example, "sinusoidal": lambda d: sinusoidal_closed_form(5.0, d)}[name]
        ref = self._in_units_of_a(make, 1.0)
        got = self._in_units_of_a(make, a)
        assert len(got) == len(ref)
        for x, y, cls in got:
            rx, ry, rcls = min(ref, key=lambda r: math.hypot(x - r[0], y - r[1]))
            assert math.hypot(x - rx, y - ry) <= 1e-9
            assert cls == rcls

    @pytest.mark.parametrize("a", [1e-162, 1e-300])
    def test_sinusoidal_speed_where_its_psi_prefactor_underflows(self, a):
        # c = 2A a^2/(9 pi^2) is 0 from a ~ 1e-162 on, but the speed
        # c k ~ a is formed at a scaled by a power of two
        ref = velocity_field(sinusoidal_closed_form(5.0, D1))
        d = TriangleDomain(a)
        V = velocity_field(sinusoidal_closed_form(5.0, d))
        assert V.speed_scale() / a == pytest.approx(ref.speed_scale(), rel=1e-12)
        ref_pts = [p.location for p in stagnation_points(ref, D1, seeds_per_axis=21)]
        pts = stagnation_points(V, d, seeds_per_axis=21)
        assert len(pts) == len(ref_pts) == 13
        for p in pts:
            x, y = min(ref_pts, key=lambda r: math.hypot(p.location.x - a * r.x, p.location.y - a * r.y))
            assert math.hypot(p.location.x - a * x, p.location.y - a * y) <= 1e-12 * a

    @pytest.mark.parametrize("a", [1e-3, 1.0, 1e3, 1e-150, 1e200])
    def test_sinusoidal_speed_keeps_its_bits_where_nothing_underflows(self, a):
        # at a = 1e200 psi and the speed overflow together, as before
        psi = SinusoidalStreamFunction(5.0, TriangleDomain(a))
        assert psi._ck == psi._c * psi._k

    @pytest.mark.parametrize("a", [1e-60, 1e-50, 1e-10])
    def test_realistic_points_at_a_tiny_a(self, a):
        # from about a = 1e-9 the term 100 x^2 of the tilting factor
        # y - 100 x^2 - a is negligible against a, and the field has 15
        # stagnation points, also where an unscaled Newton step's
        # products underflow
        pts = self._in_units_of_a(realistic_example, a)
        assert len(pts) == 15
        assert sum(cls == CENTER for _, _, cls in pts) == 2


def _bits(points):
    # every float by its bits, so that -0.0 and 0.0 differ
    return [(p.location.x.hex(), p.location.y.hex(), p.classification, p.residual_speed.hex()) for p in points]


class TestLockStepMatchesScalar:
    """The lock-step search against the scalar search it replaced, kept
    in tests/helpers.py: the same points, classes and speeds, bit for
    bit, on array and point-by-point backings alike."""

    @pytest.mark.parametrize("seeds", [5, 21, 41])
    @pytest.mark.parametrize("a", [1e-3, 1.0, 2.0, 1e3])
    @pytest.mark.parametrize("name", ["linear", "sinusoidal", "realistic"])
    def test_builtins(self, name, a, seeds):
        d = TriangleDomain(a)
        make = {"linear": linear_example, "realistic": realistic_example,
                "sinusoidal": lambda d: sinusoidal_closed_form(SINUSOIDAL_AMPLITUDE, d)}[name]
        V = velocity_field(make(d))
        got = stagnation_points(V, d, seeds_per_axis=seeds)
        assert got
        assert _bits(got) == _bits(scalar_stagnation_points(V, d, seeds_per_axis=seeds))

    @pytest.mark.parametrize("name", ["linear", "sinusoidal", "realistic", "cosine"])
    def test_array_calls_have_the_bits_of_each_point(self, name):
        # an infinite point raises ValueError in the sinusoidal field's
        # math.sin and the cosine field's cavity check: the call is taken
        # point by point, and only that point fails
        psi = {
            "linear": lambda: linear_example(D1),
            "sinusoidal": lambda: sinusoidal_closed_form(SINUSOIDAL_AMPLITUDE, D1),
            "realistic": lambda: realistic_example(D1),
            "cosine": lambda: solve_quadrature(cosine_from_harmonic(1.0, 3, D1), D1),
        }[name]()
        V = velocity_field(psi)
        pts = [*interior_lattice(D1, 9), PhysicalPoint(0.0, 0.0), PhysicalPoint(2.0, 0.0), PhysicalPoint(1.0, 1.0),
               PhysicalPoint(math.inf, 0.5), PhysicalPoint(1.0, math.nan), PhysicalPoint(-0.0, -0.0)]
        x, y = np.array([p.x for p in pts]), np.array([p.y for p in pts])
        for many, one in ((V.velocity_many, lambda p: V._eval_raw(*p)), (V.jacobian_many, V.jacobian)):
            with np.errstate(all="ignore"):  # Python floats do not warn
                values, failed = many(x, y)
            for k, p in enumerate(pts):
                try:
                    want = one(p)
                except ValueError:
                    assert failed[k]
                    continue
                assert not failed[k]
                assert np.array(want, dtype=float).tobytes() == values[:, k].tobytes()

    @pytest.mark.parametrize("stress, seeds", [
        (lambda: cosine_from_harmonic(1.0, 3, D1), 3),
        (lambda: cosine_from_harmonic(1.0, 3, D1), 21),
        # the Leibniz velocity and a difference Jacobian whose stencil
        # raises ValueError near an edge
        (lambda: OpaqueStress(lambda x, y: 16.0 * y - 8.0 + 0.0 * x), 5),
    ], ids=["cosine-3", "cosine-21", "opaque-5"])
    def test_quadrature_fields(self, stress, seeds):
        V = velocity_field(solve_quadrature(stress(), D1))
        got = stagnation_points(V, D1, seeds_per_axis=seeds)
        assert got
        assert _bits(got) == _bits(scalar_stagnation_points(V, D1, seeds_per_axis=seeds))

    def test_a_failed_trial_drops_its_seed_only_where_the_scalar_order_reaches_it(self):
        # a field that raises ValueError on one stripe in seven across x:
        # a batch holds trials that raise after the one a seed takes, and
        # the first trial a seed reaches raises for some seeds
        V = velocity_field(linear_example(D1))
        V.speed_scale()
        vel = V._vel

        def striped(x, y):
            if np.any(np.floor(np.asarray(x) * 1e4) % 7 == 0):
                raise ValueError("on a stripe")
            return vel(x, y)

        V._vel = striped
        got = stagnation_points(V, D1)
        assert got
        assert _bits(got) == _bits(scalar_stagnation_points(V, D1))


class TestDistinctRoots:
    """``_distinct`` against the pairwise loop it replaced: the same kept
    roots, in the same order, and admit asked at the same roots, once
    per distinct point."""

    @staticmethod
    def _pairwise(x, y, radius, admit):
        found = []
        for k, (px, py) in enumerate(zip(x.tolist(), y.tolist())):
            if any(math.hypot(px - x[q], py - y[q]) <= radius for q in found):
                continue
            if not admit(k):
                continue
            found.append(k)
        return found

    @pytest.mark.parametrize("spacing", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("radius, origin", [(1e-8, 0.0), (1e-8, 1.0), (2.5e-5, -3.0), (1e-318, 0.0)])
    def test_same_roots_as_the_pairwise_loop(self, spacing, radius, origin):
        # lattice roots at spacing * radius from an origin: at 0 they lie
        # on the edges of the cells (2 radius wide), at spacing 1 they are
        # exactly radius apart; jittered roots and repeats among them
        rng = random.Random(hash((spacing, radius, origin)) % 2**32)
        step = spacing * radius
        for _ in range(5):
            pts = [(origin + rng.randrange(12) * step, origin + rng.randrange(12) * step) for _ in range(200)]
            pts += [(origin + rng.uniform(0, 12) * step, origin + rng.uniform(0, 12) * step) for _ in range(100)]
            pts += rng.sample(pts, 50)
            rng.shuffle(pts)
            x, y = np.array(pts).T
            # admit reads the point alone, as classify does
            ok = {}
            for p in pts:
                ok.setdefault(p, rng.random() < 0.8)
            asked, want_asked = [], []
            got = kinematics._distinct(x, y, radius, lambda k: asked.append(k) or ok[pts[k]])
            want = self._pairwise(x, y, radius, lambda k: want_asked.append(k) or ok[pts[k]])
            assert got == want
            first = {}
            for k, p in enumerate(pts):
                first.setdefault(p, k)
            assert asked == [k for k in want_asked if first[pts[k]] == k]
            assert len(want) > 1


class TestStreamlines:
    def test_linear_closed_orbit(self, lin_field):
        tr = trace_streamline(lin_field, PhysicalPoint(1.0, 0.5), step=1e-3)
        assert tr.termination == CLOSED
        assert tr.psi_drift <= 1e-8

    def test_null_field_single_vertex(self):
        V = velocity_field(solve_exact_poly(BivariatePoly.zero(), D1))
        tr = trace_streamline(V, PhysicalPoint(0.8, 0.2))
        assert len(tr.vertices) == 1

    def test_stagnation_seed_single_vertex(self, lin_field):
        tr = trace_streamline(lin_field, PhysicalPoint(1.0, 1.0 / 3.0))
        assert len(tr.vertices) == 1

    def test_exterior_seed_rejected(self, lin_field):
        with pytest.raises(ValueError):
            trace_streamline(lin_field, PhysicalPoint(0.5, 0.9))

    def test_conservation_bound(self, lin_field):
        psi = lin_field.source
        for seed in [(1.0, 0.5), (1.0, 0.2), (0.7, 0.35)]:
            tr = trace_streamline(lin_field, PhysicalPoint(*seed), step=1e-3)
            assert tr.termination == CLOSED
            assert tr.psi_drift <= 100 * (1e-3) ** 4 * lattice_scale(psi)

    def test_realistic_loops_around_both_gyres(self, real_field):
        pts = stagnation_points(real_field, D1, seeds_per_axis=21)
        centers = interior_centers(pts, D1)
        assert len(centers) == 2
        for c in centers:
            seed = PhysicalPoint(c.location.x + 0.02, c.location.y)
            tr = trace_streamline(real_field, seed, step=1e-3, max_steps=50_000)
            assert tr.termination == CLOSED
            assert _winds_around(tr, c.location)

    def test_step_limit_termination(self, lin_field):
        tr = trace_streamline(lin_field, PhysicalPoint(1.0, 0.5), step=1e-3, max_steps=50)
        assert tr.termination == "step_limit"
        assert len(tr.vertices) == 51

    def test_step_must_be_positive(self, lin_field):
        # nan compares false both ways, so it is rejected, not ignored
        for step in (0.0, -1e-3, -math.inf, math.nan):
            with pytest.raises(ValueError, match="step must be positive"):
                trace_streamline(lin_field, PhysicalPoint(1.0, 0.5), step=step)
        # an infinite step is no cap: the error control alone sets the steps
        tr = trace_streamline(lin_field, PhysicalPoint(1.0, 0.5), step=math.inf)
        assert tr.termination == CLOSED


def _winds_around(tr, center) -> bool:
    total = 0.0
    prev = None
    for p in tr.vertices:
        ang = math.atan2(p.y - center.y, p.x - center.x)
        if prev is not None:
            delta = ang - prev
            while delta > math.pi:
                delta -= 2 * math.pi
            while delta <= -math.pi:
                delta += 2 * math.pi
            total += delta
        prev = ang
    return abs(total) >= 1.5 * math.pi


class TestProfiles:
    def test_linear_profile_zeros(self, lin_field):
        # u(1, y) = 2*(3y-1)*(y-1)
        rows = u_profile(lin_field, "x", 1.0, 101)
        for yv, uv in rows:
            assert uv == pytest.approx(2 * (3 * yv - 1) * (yv - 1), abs=1e-12)

    def test_sinusoidal_two_crossings(self, sin_field):
        # zeros in the open interval (0, a); the vertex zero at y=a is excluded
        rows = u_profile(sin_field, "x", 1.0, 2001)
        zeros = _sign_change_locations(rows)
        assert len(zeros) == 2
        assert min(abs(z - 1.0 / 3.0) for z in zeros) <= 1e-3
        assert min(abs(z - 7.0 / 9.0) for z in zeros) <= 1e-3

    def test_realistic_base_shear_positive(self, real_field):
        rows = u_profile(real_field, "y", 0.0, 1000)
        for xv, uv in rows:
            if 0 < xv < 2:
                assert uv > 0

    def test_quadrature_base_shear(self):
        # fig7 on a quadrature backing: u along the stressed base y = 0,
        # against d psi/dy of the odd-m closed form
        # psi = -(A/k^2)(cos ky + cos k(x-y)/2 - cos k(x+y)/2 - 1)
        A, k = 10.0, 3 * math.pi
        V = velocity_field(solve_quadrature(cosine_from_harmonic(A, 3, D1), D1))
        rows = u_profile(V, "y", 0.0)
        assert len(rows) == 201

        def u_closed(x, y):
            return (A / k) * (math.sin(k * y) - 0.5 * math.sin(k * (x - y) / 2) - 0.5 * math.sin(k * (x + y) / 2))

        want = [u_closed(xv, 0.0) for xv, _ in rows]
        scale = max(abs(w) for w in want)
        assert max(abs(uv - w) for (_, uv), w in zip(rows, want)) <= 1e-8 * scale

    def test_bad_lines_rejected(self, lin_field):
        with pytest.raises(ValueError):
            u_profile(lin_field, "x", 2.5)
        with pytest.raises(ValueError):
            u_profile(lin_field, "y", 1.5)
        with pytest.raises(ValueError):
            u_profile(lin_field, "z", 0.5)


def _sign_change_locations(rows, endpoint_pad=1e-6):
    lo, hi = rows[0][0], rows[-1][0]
    zeros = []
    for (c0, u0), (c1, u1) in zip(rows, rows[1:]):
        if u0 * u1 < 0:
            z = c0 - u0 * (c1 - c0) / (u1 - u0)
            if lo + endpoint_pad < z < hi - endpoint_pad:
                zeros.append(z)
    return zeros


def _default_seed_traces(name, a):
    """The stream function and the traces of ``cmd_flow``'s default
    seeds for a builtin at this a."""
    cfg = RunConfig(a=a, stress=StressSpec(kind="builtin", name=name))
    psi = build_stream_function(cfg)
    V = velocity_field(psi)
    seeds = default_flow_seeds(cfg.domain, stagnation_points(V, cfg.domain))
    assert seeds
    return psi, [trace_streamline(V, seed, max_steps=cfg.max_steps) for seed in seeds]


class TestTracerMatchesReference:
    """The error-controlled tracer against references outside it: psi at
    the seed (the drift), its own step counts at other units of length,
    and the exact end of a path that leaves the cavity."""

    @pytest.mark.parametrize("a", [0.37, 1.0, 2.5])
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins_with_default_seeds(self, name, a):
        # every default-seed orbit closes, psi drifts by at most 1e-9 of
        # its scale, and the accepted steps per orbit do not depend on the
        # unit of length: identical at a/1000 and 1000 a for the
        # homogeneous linear and sinusoidal fields; the realistic field's
        # factor y - 100 x^2 - a is not homogeneous in (x, y, a), so its
        # gyres move with a, and its sorted counts agree within 15%
        counts = {}
        for scaled in (a / 1000, a, 1000 * a):
            psi, traces = _default_seed_traces(name, scaled)
            for tr in traces:
                assert tr.termination == CLOSED
                assert tr.psi_drift <= 1e-9 * lattice_scale(psi)
            counts[scaled] = sorted(len(tr.vertices) - 1 for tr in traces)
        for other in (a / 1000, 1000 * a):
            if name == "realistic":
                assert all(abs(n - m) <= 0.15 * m for n, m in zip(counts[other], counts[a]))
            else:
                assert counts[other] == counts[a]

    def test_boundary_hit(self):
        # psi = a x + y^2 does not vanish on the base: its streamline
        # from (1.3 a, 0.65 a) is a x + y^2 = 1.7225 a^2 and ends on the
        # base at (1.7225 a, 0); the sinusoidal builtin's streamline
        # through the same seed stays inside and closes
        for a in (1e-3, 1.0, 1e3):
            d = TriangleDomain(a)
            V = velocity_field(PolyStreamFunction((A * X + Y**2).subs_a(a), d))
            tr = trace_streamline(V, PhysicalPoint(1.3 * a, 0.65 * a))
            assert tr.termination == HIT_BOUNDARY
            end = tr.vertices[-1]
            assert end.y == 0.0
            assert abs(end.x - 1.7225 * a) <= 1e-9 * a
            assert tr.psi_drift <= 1e-12 * a * a
        V = velocity_field(sinusoidal_closed_form(SINUSOIDAL_AMPLITUDE, D1))
        assert trace_streamline(V, PhysicalPoint(1.3, 0.65)).termination == CLOSED

    def test_stagnation_seed(self, lin_field):
        tr = trace_streamline(lin_field, PhysicalPoint(1.0, 1.0 / 3.0))
        assert tr.termination == STEP_LIMIT
        assert len(tr.vertices) == 1

    def test_quadrature_cosine_closes(self):
        psi = solve_quadrature(cosine_from_harmonic(10.0, 3, D1), D1)
        tr = trace_streamline(velocity_field(psi), PhysicalPoint(1.0, 0.2), max_steps=400)
        assert tr.termination == CLOSED
        assert tr.psi_drift <= 1e-9 * lattice_scale(psi)

    def test_error_norm_does_not_overflow(self):
        # at a = 1e100 the linear builtin's velocity is about 1e200, and a
        # product of two velocities overflows; its orbits still close in
        # the steps they take at a = 1
        counts = {}
        for a in (1.0, 1e100):
            _, traces = _default_seed_traces("linear", a)
            assert all(tr.termination == CLOSED for tr in traces)
            counts[a] = [len(tr.vertices) for tr in traces]
        assert counts[1e100] == counts[1.0]

    def test_step_tolerance_does_not_overflow(self):
        # 1 / (STEP_TOL a) overflows below a = 3.7e-298, which rejected
        # every step; scaled by a power of two, the sinusoidal builtin's
        # 12 default-seed orbits close at a = 1e-300 in the steps they
        # take at 1e-297, and as fast
        counts = {}
        for a in (1e-297, 1e-300):
            start = time.perf_counter()
            _, traces = _default_seed_traces("sinusoidal", a)
            assert time.perf_counter() - start < 2.0
            assert len(traces) == 12 and all(tr.termination == CLOSED for tr in traces)
            counts[a] = sorted(len(tr.vertices) for tr in traces)
        assert counts[1e-300] == counts[1e-297]

    def test_orbit_at_a_subnormal_unit_of_length(self):
        # at a = 1e-309 the scale 2^-e of the step ratio and of the edge
        # projection overflows as one factor
        a = 1e-309
        d = TriangleDomain(a)
        x, y, fa = BivariatePoly.v1(), BivariatePoly.v2(), Fraction(a)
        psi = PolyStreamFunction(((x - fa) ** 2 + (y - fa / 3) ** 2) * Fraction(1, 2), d)
        tr = trace_streamline(velocity_field(psi), PhysicalPoint(1.2 * a, a / 3))
        assert len(tr.vertices) > 1
        for v in tr.vertices:
            assert v.y >= 0 and v.x - v.y >= 0 and 2 * a - v.x - v.y >= 0

    def test_max_steps_counts_accepted_steps(self, lin_field):
        full = trace_streamline(lin_field, PhysicalPoint(1.0, 0.5))
        evals = []
        V = velocity_field(lin_field.source)
        V.speed_scale()
        raw = V._eval_raw
        V._eval_raw = lambda x, y: evals.append((x, y)) or raw(x, y)
        tr = trace_streamline(V, PhysicalPoint(1.0, 0.5), max_steps=5)
        assert tr.termination == STEP_LIMIT
        assert tr.vertices == full.vertices[:6]
        # the seed, then six stages per attempt: one attempt was rejected
        assert len(evals) == 1 + 6 * 6
        # as many rejected attempts end the trace too: a first step that
        # leaves the cavity is rejected
        V = velocity_field(PolyStreamFunction(X + Y**2, D1))
        tr = trace_streamline(V, PhysicalPoint(1.3, 1e-4), max_steps=1)
        assert tr.termination == STEP_LIMIT
        assert len(tr.vertices) == 1


class TestEvaluationCounts:
    """Every velocity the tracer takes goes through
    ``VelocityField._eval_raw`` and every vertex psi through
    ``StreamFunction.evaluate``, which is where the benchmark's traced
    pass counts them: wrapped on the classes, subclass overrides
    included, the default seeds of each builtin at a = 1 make exactly
    the calls counted before the tracer's velocity was compiled into
    one function per field."""

    # (velocity calls, psi calls) over the default seeds' traces
    COUNTS = {"linear": (2319, 351), "sinusoidal": (7734, 1154), "realistic": (3798, 581)}

    @staticmethod
    def _wrap(monkeypatch, cls, attr, calls):
        todo, seen = [cls], set()
        while todo:
            klass = todo.pop()
            if klass in seen:
                continue
            seen.add(klass)
            todo.extend(klass.__subclasses__())
            orig = klass.__dict__.get(attr)
            if orig is not None:
                def wrapper(*args, _orig=orig, **kwargs):
                    calls[attr] += 1
                    return _orig(*args, **kwargs)

                monkeypatch.setattr(klass, attr, wrapper)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_default_seed_traces(self, name, monkeypatch):
        cfg = RunConfig(a=1.0, stress=StressSpec(kind="builtin", name=name))
        V = velocity_field(build_stream_function(cfg))
        seeds = default_flow_seeds(cfg.domain, stagnation_points(V, cfg.domain))
        calls = {"_eval_raw": 0, "evaluate": 0}
        self._wrap(monkeypatch, VelocityField, "_eval_raw", calls)
        self._wrap(monkeypatch, StreamFunction, "evaluate", calls)
        traces = [trace_streamline(V, seed, max_steps=cfg.max_steps) for seed in seeds]
        assert (calls["_eval_raw"], calls["evaluate"]) == self.COUNTS[name]
        assert calls["evaluate"] == sum(len(tr.vertices) for tr in traces)


class TestEdgeFastPath:
    """The tracer takes a stage point clear of each edge line by more
    than ``_edge_margin(tol)`` (y > tol, x - y > far, 2a - x - y > far)
    as inside without asking ``inside()``; that test never accepts a
    point that ``classify`` at tol does not call interior, within a few
    ulps of each edge line and each vertex, where tol is subnormal too."""

    @pytest.mark.parametrize("a", [1e-300, 1e-3, 1.0, 1e3, 1e300])
    def test_never_accepts_what_classify_rejects(self, a):
        d = TriangleDomain(a)
        tol = 1e-12 * a
        far = kinematics._edge_margin(tol)
        two_a = 2 * a
        assert far / math.sqrt(2.0) > tol and far <= 3 * tol
        # the vertices and the edge midpoints, moved by offsets around tol
        # and far along each axis
        bases = [(0.0, 0.0), (two_a, 0.0), (a, a), (a, 0.0), (a / 2, a / 2), (1.5 * a, a / 2)]
        sizes = [0.0, tol, far / math.sqrt(2.0), far, 2 * far]
        offsets = sorted({s * sign for s in sizes for sign in (-1.0, 1.0)})
        rng = random.Random(7)
        points = [(bx + ox, by + oy) for bx, by in bases for ox in offsets for oy in offsets]
        points += [(rng.uniform(0, two_a), rng.uniform(-3, 3) * far) for _ in range(200)]
        t = [rng.uniform(0, a) for _ in range(200)]
        points += [(u + rng.uniform(-3, 3) * far, u) for u in t]
        points += [(two_a - u + rng.uniform(-3, 3) * far, u) for u in t]
        accepted = 0
        for x0, y0 in points:
            for x in _ulps_around(x0):
                for y in _ulps_around(y0):
                    if y > tol and x - y > far and two_a - x - y > far:
                        accepted += 1
                        assert classify(d, PhysicalPoint(x, y), tol).is_interior, (a, x, y)
        assert accepted > 1000


def _ulps_around(v, n=2):
    """v and the n floats on each side of it."""
    out = [v]
    lo = hi = v
    for _ in range(n):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


class TestTraceWriters:
    """``write_streamlines_csv`` and ``render_flow_svg`` format each trace
    with one ``%`` over a flat tuple, with the bytes of one ``%`` per
    vertex (``helpers``)."""

    @staticmethod
    def _cases():
        cases = {name: _default_seed_traces(name, 1.0)[1] for name in BUILTIN_NAMES}
        one = Streamline((PhysicalPoint(0.5, 0.25),), STEP_LIMIT, 0.0, (0.125,))
        odd = Streamline((PhysicalPoint(-0.0, 5e-324), PhysicalPoint(1e300, -0.0), PhysicalPoint(5e-324, 1.0)),
                         STEP_LIMIT, math.nan, (math.nan, math.inf, -0.0))
        cases.update({"empty": [], "single-vertex": [one], "no-vertex": [Streamline((), STEP_LIMIT, 0.0, ())],
                      "odd-values": [odd, one, odd]})
        return cases

    def test_streamlines_csv_bytes(self, tmp_path):
        for name, traces in self._cases().items():
            kinematics.write_streamlines_csv(traces, tmp_path / "new.csv")
            reference_streamlines_csv(traces, tmp_path / "old.csv")
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes(), name

    def test_flow_svg_bytes(self):
        stagnation = stagnation_points(velocity_field(realistic_example(D1)), D1)
        for name, traces in self._cases().items():
            for a in (1.0, 1e-3):
                want = "".join(reference_flow_svg(TriangleDomain(a), traces, stagnation))
                assert "".join(render_flow_svg(TriangleDomain(a), traces, stagnation)) == want, name
