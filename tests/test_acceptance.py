"""Acceptance suite: one test per contract criterion, printed pass/fail.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Tolerances are pinned here, not configurable.
"""

import filecmp
import math
import os
import random
from contextlib import contextmanager

import pytest

from cavitystream.geometry import TriangleDomain, PhysicalPoint, boundary_sample, distance_to_boundary
from cavitystream.polyalg import BivariatePoly, poly_vars, wave_operator
from cavitystream.compatibility import (
    CosineStress,
    PolynomialStress,
    compat_check,
    compat_constraints,
)
from cavitystream.solver import (
    linear_example,
    realistic_example,
    residual,
    sinusoidal_closed_form,
    solve_exact_poly,
    solve_quadrature,
)
from cavitystream.kinematics import (
    CLOSED,
    interior_centers,
    stagnation_points,
    trace_streamline,
    velocity_field,
)
from cavitystream.verify import boundary_vanishing_poly, random_poly
from cavitystream.cli import run as cli_run

from helpers import lattice_scale

X, Y, A = poly_vars()
D1 = TriangleDomain(1.0)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d}: FAIL - {title}")
        raise
    print(f"ACCEPTANCE {number:2d}: PASS - {title}")


@pytest.fixture(scope="module")
def linear():
    return linear_example(D1)


@pytest.fixture(scope="module")
def sinusoidal():
    return sinusoidal_closed_form(5.0, D1)


@pytest.fixture(scope="module")
def realistic():
    return realistic_example(D1)


def test_01_linear_exact_recovery():
    with criterion(1, "linear stress solves to the exact cubic (symbolic a)"):
        psi = solve_exact_poly(16 * Y - 8 * A, None)
        expected = 2 * Y**3 - 2 * X**2 * Y - 4 * A * Y**2 + 4 * A * X * Y
        assert psi.poly == expected


def test_02_linear_stagnation_set(linear):
    with criterion(2, "linear-case stagnation set located to 1e-10, interior center"):
        V = velocity_field(linear)
        pts = stagnation_points(V, D1, seeds_per_axis=15)
        expected = [(0.0, 0.0), (1.0, 1.0 / 3.0), (1.0, 1.0), (2.0, 0.0)]
        locs = sorted((p.location.x, p.location.y) for p in pts)
        assert len(locs) == 4
        for got, exp in zip(locs, expected):
            assert math.hypot(got[0] - exp[0], got[1] - exp[1]) <= 1e-10
        centers = interior_centers(pts, D1)
        assert len(centers) == 1
        c = centers[0].location
        assert math.hypot(c.x - 1.0, c.y - 1.0 / 3.0) <= 1e-10


def test_03_compatibility_identity():
    with criterion(3, "admissible ray of the linear family is exactly 2*c2 = -a*c1"):
        cs = compat_constraints([Y, BivariatePoly.const(1)], None)
        assert cs.rank == 1
        assert len(cs.nullspace) == 1
        c1, c2 = cs.nullspace[0]
        assert c1 == BivariatePoly.const(2)
        assert c2 == -BivariatePoly.sym_a()


def test_04_cosine_admissibility():
    with criterion(4, "odd cosine harmonics pass the sweep, even ones fail"):
        for k in (math.pi, 3 * math.pi, 5 * math.pi):
            report = compat_check(CosineStress(1.0, k), D1)
            assert report.max_abs_residual <= 1e-12
            assert report.is_compatible
        for k in (2 * math.pi, 4 * math.pi):
            report = compat_check(CosineStress(1.0, k), D1)
            assert report.max_abs_residual >= 1e-2 * report.normalization
            assert not report.is_compatible


def test_05_sinusoidal_closed_form(sinusoidal):
    with criterion(5, "sinusoidal closed form: boundary trace and FD residual"):
        c = 2 * 5.0 * 1.0 / (9 * math.pi**2)
        worst_bc = max(abs(sinusoidal.evaluate(p.x, p.y)) for p in boundary_sample(D1, 500))
        assert worst_bc <= 1e-13 * c
        src = sinusoidal.source_stress
        assert src.amplitude == pytest.approx(10.0) and src.wavenumber == pytest.approx(3 * math.pi)
        from cavitystream.geometry import interior_lattice

        worst = max(
            residual(sinusoidal, src, p, 1e-4)
            for p in interior_lattice(D1, 32, margin=1e-3)
        )
        assert worst <= 5e-3


def test_06_eddy_counts(linear, sinusoidal, realistic):
    with criterion(6, "eddy census: 1 linear, 4 sinusoidal, 2 realistic gyres"):
        assert len(interior_centers(stagnation_points(velocity_field(linear), D1, 15), D1)) == 1
        assert len(interior_centers(stagnation_points(velocity_field(sinusoidal), D1, 15), D1)) == 4

        Vr = velocity_field(realistic)
        centers = interior_centers(stagnation_points(Vr, D1, 21), D1)
        assert len(centers) == 2
        for c in centers:
            seed = PhysicalPoint(c.location.x + 0.25 * distance_to_boundary(D1, c.location), c.location.y)
            tr = trace_streamline(Vr, seed, step=1e-3, max_steps=50_000)
            assert tr.termination == CLOSED
            assert _winds_around(tr.vertices, c.location)
        secondary = max(centers, key=lambda c: c.location.y)
        dist_apex = math.hypot(secondary.location.x - 1.0, secondary.location.y - 1.0)
        dist_base = secondary.location.y
        assert dist_apex < dist_base


def test_07_u_profile_crossings(sinusoidal, realistic):
    with criterion(7, "profile zeros: two sinusoidal crossings (one at a/3), positive base shear"):
        Vs = velocity_field(sinusoidal)

        def u_at(yv: float) -> float:
            return Vs._eval_raw(1.0, yv)[0]

        zeros = _bisected_zeros(u_at, 0.0, 1.0, samples=4001)
        assert len(zeros) == 2
        assert min(abs(z - 1.0 / 3.0) for z in zeros) <= 1e-8

        Vr = velocity_field(realistic)
        for i in range(1, 1000):
            x = 2.0 * i / 1000
            assert Vr._eval_raw(x, 0.0)[0] > 0.0


def test_08_two_path_uniqueness():
    with criterion(8, "construction uniqueness: 100 exact round trips + quadrature agreement"):
        from cavitystream.verify import uniqueness_suite

        summary = uniqueness_suite(None, trials=100, seed=20260808)
        assert summary.all_passed, f"failed trials: {summary.failures}"

        rng = random.Random(991)
        checked = 0
        while checked < 200:
            psi0 = boundary_vanishing_poly(random_poly(rng, max_degree=2)).subs_a(1)
            if psi0.is_zero:
                continue
            f = PolynomialStress(wave_operator(psi0))
            exact = solve_exact_poly(f, D1)
            quad = solve_quadrature(f, D1)
            scale = max(lattice_scale(exact), 1e-12)
            for _ in range(50):
                x, y = rng.uniform(0, 2), rng.uniform(0, 1)
                if not (0 < y < x and x + y < 2):
                    continue
                assert abs(exact.evaluate(x, y) - quad.evaluate(x, y)) <= 1e-10 * scale
                checked += 1
                if checked == 200:
                    break


def test_09_streamline_conservation(linear, sinusoidal, realistic):
    with criterion(9, "10 closed streamlines per case conserve the stream function"):
        cases = {
            "linear": (linear, [(1.0, 1 / 3)], (0.15, 0.3, 0.45, 0.6, 0.75, 0.2, 0.35, 0.5, 0.65, 0.8)),
            "sinusoidal": (
                sinusoidal,
                [(1.0, 1 / 3), (1.0, 7 / 9), (1 / 3, 1 / 9), (5 / 3, 1 / 9)],
                (0.2, 0.4, 0.6),
            ),
            "realistic": (
                realistic,
                [(1.1269982449086284, 0.7004207335586952), (1.2585839942953217, 0.17746098152972676)],
                (0.05, 0.1, 0.15, 0.2, 0.25),
            ),
        }
        for name, (psi, centers, fractions) in cases.items():
            V = velocity_field(psi)
            tol = 1e-6 * lattice_scale(psi)
            closed = 0
            for cx, cy in centers:
                reach = distance_to_boundary(D1, PhysicalPoint(cx, cy))
                for fr in fractions:
                    tr = trace_streamline(V, PhysicalPoint(cx + fr * reach, cy), step=1e-3, max_steps=60_000)
                    assert tr.termination == CLOSED, f"{name}: seed at fr={fr} of ({cx},{cy}) not closed"
                    assert tr.psi_drift <= tol, f"{name}: drift {tr.psi_drift} > {tol}"
                    closed += 1
            assert closed >= 10, f"{name}: only {closed} closed streamlines"


def test_10_examples_determinism(tmp_path):
    with criterion(10, "examples command is byte-deterministic"):
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert cli_run(["examples", "--out", str(out1), "--quiet"]) == 0
        assert cli_run(["examples", "--out", str(out2), "--quiet"]) == 0
        mismatch = _tree_mismatch(str(out1), str(out2))
        assert not mismatch, f"differing files: {mismatch}"


def _winds_around(vertices, center) -> bool:
    total, prev = 0.0, None
    for p in vertices:
        ang = math.atan2(p.y - center.y, p.x - center.x)
        if prev is not None:
            d = ang - prev
            while d > math.pi:
                d -= 2 * math.pi
            while d <= -math.pi:
                d += 2 * math.pi
            total += d
        prev = ang
    return abs(total) >= 1.5 * math.pi


def _bisected_zeros(fn, lo, hi, samples=2001, pad=1e-6):
    xs = [lo + (hi - lo) * i / (samples - 1) for i in range(samples)]
    zeros = []
    for x0, x1 in zip(xs, xs[1:]):
        f0, f1 = fn(x0), fn(x1)
        if f0 == 0.0 and lo + pad < x0 < hi - pad:
            zeros.append(x0)
            continue
        if f0 * f1 < 0:
            a_, b_ = x0, x1
            # invariant: sign(f(a_)) == sign(f0)
            for _ in range(80):
                mid = (a_ + b_) / 2
                fm = fn(mid)
                if fm == 0.0:
                    a_ = b_ = mid
                    break
                if f0 * fm < 0:
                    b_ = mid
                else:
                    a_ = mid
            z = (a_ + b_) / 2
            if lo + pad < z < hi - pad:
                zeros.append(z)
    return zeros


def _tree_mismatch(dir1: str, dir2: str) -> list:
    problems = []

    def walk(c: filecmp.dircmp):
        problems.extend(os.path.join(c.left, n) for n in c.diff_files)
        problems.extend(c.left_only)
        problems.extend(c.right_only)
        for sub in c.subdirs.values():
            walk(sub)

    cmp_ = filecmp.dircmp(dir1, dir2)
    walk(cmp_)
    # byte-level confirmation, dircmp's shallow pass can miss content changes
    for root, _, files in os.walk(dir1):
        for name in files:
            p1 = os.path.join(root, name)
            p2 = os.path.join(dir2, os.path.relpath(p1, dir1))
            if os.path.exists(p2):
                with open(p1, "rb") as f1, open(p2, "rb") as f2:
                    if f1.read() != f2.read():
                        problems.append(p1)
    return problems
