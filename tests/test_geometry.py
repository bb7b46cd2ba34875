"""Cavity geometry: coordinate change, classification, sigma rectangles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavitystream.geometry import (
    TriangleDomain,
    PhysicalPoint,
    CharPoint,
    boundary_sample,
    classify,
    in_char_image,
    interior_lattice,
    require_in_char_image,
    signed_edge_distances,
    to_characteristic,
    to_physical,
)
from cavitystream.verify import _sigma_rectangles as sigma_rectangles

D1 = TriangleDomain(1.0)

fracs = st.fractions(min_value=-3, max_value=3, max_denominator=64)


class TestCoordinateChange:
    def test_origin_is_fixed(self):
        assert to_characteristic(PhysicalPoint(0, 0)) == CharPoint(0, 0)

    def test_apex_image(self):
        assert to_characteristic(PhysicalPoint(1, 1)) == CharPoint(2, 0)

    def test_right_vertex_image(self):
        assert to_characteristic(PhysicalPoint(2, 0)) == CharPoint(2, -2)

    def test_inverse_images(self):
        assert to_physical(CharPoint(0, 0)) == PhysicalPoint(0, 0)
        assert to_physical(CharPoint(2, 0)) == PhysicalPoint(1, 1)
        assert to_physical(CharPoint(1, -1)) == PhysicalPoint(1, 0)

    @settings(max_examples=200, deadline=None)
    @given(fracs, fracs)
    def test_round_trip_exact(self, x, y):
        p = PhysicalPoint(x, y)
        assert to_physical(to_characteristic(p)) == p

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-3, 3), st.floats(-3, 3))
    def test_round_trip_float(self, x, y):
        q = to_physical(to_characteristic(PhysicalPoint(x, y)))
        scale = max(1.0, abs(x), abs(y))
        assert abs(q.x - x) <= 4e-16 * scale
        assert abs(q.y - y) <= 4e-16 * scale

    def test_interior_maps_into_characteristic_triangle(self):
        # margin keeps float rounding of x+y away from the edges
        for p in interior_lattice(D1, 25, margin=1e-9):
            q = to_characteristic(p)
            assert 0 < q.X < 2
            assert -q.X < q.Y < 0

    def test_map_doubles_area(self):
        # triangle area a^2 vs image area 2a^2, via the shoelace formula
        d = TriangleDomain(1.5)
        verts = [to_characteristic(p) for p in d.vertices()]
        twice = abs(
            (verts[1].X - verts[0].X) * (verts[2].Y - verts[0].Y)
            - (verts[2].X - verts[0].X) * (verts[1].Y - verts[0].Y)
        )
        assert twice / 2 == pytest.approx(2 * d.area, rel=1e-15)


class TestClassify:
    def test_strict_interior(self):
        assert classify(D1, PhysicalPoint(0.9, 0.1), 1e-12).is_interior

    def test_apex_is_boundary(self):
        loc = classify(D1, PhysicalPoint(1, 1), 1e-12)
        assert loc.is_boundary
        assert loc.edge == 1  # lowest-index incident edge

    def test_above_diagonal_is_exterior(self):
        assert classify(D1, PhysicalPoint(0.5, 0.6), 1e-12).is_exterior

    def test_tolerance_band(self):
        assert classify(D1, PhysicalPoint(0.5, 1e-13), 1e-12).is_boundary
        assert classify(D1, PhysicalPoint(0.5, -1e-13), 1e-12).is_boundary
        assert classify(D1, PhysicalPoint(0.5, -1e-11), 1e-12).is_exterior

    def test_vertex_edge_ids(self):
        assert classify(D1, PhysicalPoint(0, 0), 1e-12).edge == 0
        assert classify(D1, PhysicalPoint(2, 0), 1e-12).edge == 0

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            classify(D1, PhysicalPoint(0, 0), -1.0)


class TestSigmaRectangles:
    def test_apex_degenerates(self):
        dec = sigma_rectangles(D1, CharPoint(2, 0))
        assert dec.rect1.is_degenerate
        assert dec.rect2.is_degenerate

    def test_interior_point(self):
        dec = sigma_rectangles(D1, CharPoint(1.0, -0.5))
        assert dec.rect1 == (0.5, 1.0, -0.5, 0.0)
        assert dec.rect2 == (1.0, 2.0, -1.0, 0.0)

    def test_origin_degenerates(self):
        dec = sigma_rectangles(D1, CharPoint(0, 0))
        assert dec.rect1.is_degenerate
        assert dec.rect2 == (0, 2.0, 0, 0)
        assert dec.rect2.is_degenerate

    def test_rejects_outside_image(self):
        with pytest.raises(ValueError):
            sigma_rectangles(D1, CharPoint(2.5, -0.5))
        with pytest.raises(ValueError):
            sigma_rectangles(D1, CharPoint(1.0, 0.5))

    def test_total_area_formula(self):
        for p in interior_lattice(D1, 13):
            q = to_characteristic(p)
            dec = sigma_rectangles(D1, q)
            expected = (q.X + q.Y) * (-q.Y) + (2 - q.X) * q.X
            assert dec.rect1.area + dec.rect2.area == pytest.approx(expected, rel=1e-12)

    def test_rectangles_share_only_the_seam(self):
        dec = sigma_rectangles(D1, CharPoint(1.2, -0.7))
        assert dec.rect1.t1 == dec.rect2.t0


class TestCharImageSlack:
    @pytest.mark.parametrize("a", [1e-3, 1.0, 1e3])
    def test_slack_is_a_physical_distance_from_each_edge(self, a):
        d = TriangleDomain(a)
        r2 = math.sqrt(2.0)
        # a point of each edge and the outward unit normal there
        for (x, y), (nx, ny) in (((a, 0.0), (0.0, -1.0)), ((a / 2, a / 2), (-1 / r2, 1 / r2)),
                                 ((1.5 * a, a / 2), (1 / r2, 1 / r2))):
            for dist, inside in ((0.9e-9 * a, True), (1.1e-9 * a, False)):
                p = PhysicalPoint(x + dist * nx, y + dist * ny)
                assert bool(in_char_image(d, *to_characteristic(p))) is inside
                assert classify(d, p, 1e-9 * a).is_boundary is inside

    def test_require_names_the_first_point_outside(self):
        require_in_char_image(D1, np.array([1.0, 2.0]), np.array([-0.5, 0.0]))
        with pytest.raises(ValueError, match=r"characteristic point \(2\.5, -0\.5\) outside"):
            require_in_char_image(D1, np.array([1.0, 2.5, 3.0]), np.array([-0.5, -0.5, 0.0]))


class TestBoundarySample:
    def test_three_points_are_the_vertices(self):
        assert set(boundary_sample(D1, 3)) == {
            PhysicalPoint(0.0, 0.0),
            PhysicalPoint(2.0, 0.0),
            PhysicalPoint(1.0, 1.0),
        }

    def test_vertices_appear_exactly_once(self):
        pts = boundary_sample(D1, 57)
        for v in D1.vertices():
            assert sum(1 for p in pts if p == v) == 1

    def test_requested_count_and_membership(self):
        for n in (3, 7, 24, 100):
            pts = boundary_sample(D1, n)
            assert len(pts) == n
            assert all(classify(D1, p, 1e-12).is_boundary for p in pts)

    def test_proportional_to_edge_length(self):
        # base (length 2) gets about 41% of the samples, legs ~29% each
        pts = boundary_sample(D1, 1000)
        on_base = sum(1 for p in pts if abs(p.y) < 1e-12)
        assert 0.38 < on_base / 1000 < 0.45

    def test_deterministic(self):
        assert boundary_sample(D1, 41) == boundary_sample(D1, 41)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            boundary_sample(D1, 2)


class TestInteriorLattice:
    @pytest.mark.parametrize("a", [1.0, 0.37, 2.5, 1e-3, 1e3])
    def test_same_points_as_the_per_point_loop(self, a):
        d = TriangleDomain(a)
        for n in (2, 3, 15, 23, 51):
            for margin in (0.0, 1e-9 * a, 1e-6 * a, 0.05 * a):
                want = []
                for iy in range(n):
                    for ix in range(n):
                        p = PhysicalPoint(2 * a * ix / (n - 1), a * iy / (n - 1))
                        if min(signed_edge_distances(d, p)) > margin:
                            want.append(p)
                got = interior_lattice(d, n, margin)
                assert got == want
                assert all(type(p.x) is float and type(p.y) is float for p in got)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            interior_lattice(D1, 1)


class TestDomain:
    def test_rejects_nonpositive_a(self):
        with pytest.raises(ValueError):
            TriangleDomain(0)
        with pytest.raises(ValueError):
            TriangleDomain(-1.0)

    def test_vertices_scale_with_a(self):
        d = TriangleDomain(2.0)
        assert d.vertices() == (
            PhysicalPoint(0.0, 0.0),
            PhysicalPoint(4.0, 0.0),
            PhysicalPoint(2.0, 2.0),
        )

    def test_area(self):
        assert TriangleDomain(3.0).area == 9.0
