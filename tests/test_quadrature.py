"""Gauss quadrature: batched rectangles and segments, degenerate cases, memory."""

import math
import tracemalloc

import numpy as np
import pytest

from cavitystream.compatibility import CosineStress, cosine_harmonic
from cavitystream.geometry import Rect
from cavitystream.quadrature import (
    MAX_BLOCK,
    QuadratureSpec,
    _cell_counts,
    default_quadrature_spec,
    gauss_nodes,
    gauss_order,
    integrate_rect,
    integrate_segments,
    riemann_rect,
)


def _meshgrid_reference(fn, rect, spec, span):
    """One rectangle at a time, one meshgrid per call: each side of
    length w cut by linspace into clip(ceil(S*w/span), 1, S) cells."""
    t0, t1, s0, s1 = rect
    if t1 <= t0 or s1 <= s0:
        return 0.0

    def axis(lo, hi):
        x, w = gauss_nodes(spec.order)
        n = min(max(math.ceil(spec.subdivision * (hi - lo) / span), 1), spec.subdivision)
        cells = np.linspace(lo, hi, n + 1)
        half = np.diff(cells) / 2.0
        mid = (cells[:-1] + cells[1:]) / 2.0
        return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()

    tn, tw = axis(t0, t1)
    sn, sw = axis(s0, s1)
    T, S = np.meshgrid(tn, sn, indexing="ij")
    return float(tw @ fn(T, S) @ sw)


def _positive(t, s):
    return np.exp(0.3 * t - 0.2 * s) + 0.1 * np.cos(t * s)


def _random_rects(seed, n):
    rng = np.random.default_rng(seed)
    t0 = rng.uniform(-1, 1, n)
    s0 = rng.uniform(-1, 0, n)
    # negative widths make some rectangles degenerate
    return Rect(t0, t0 + rng.uniform(-0.2, 2, n), s0, s0 + rng.uniform(-0.2, 1, n))


SPAN = 2.0


class TestBatchedIntegrateRect:
    # widths run up to the span, so cell counts vary over the batch, and
    # with the larger specs the cells of one rectangle straddle blocks
    @pytest.mark.parametrize("spec", [QuadratureSpec(4, 1), QuadratureSpec(12, 8), QuadratureSpec(12, 30)])
    def test_batch_matches_per_rect_loop(self, spec):
        rects = _random_rects(7, 40)
        batch = integrate_rect(_positive, rects, spec, SPAN)
        assert batch.shape == (40,)
        for k, rect in enumerate(zip(*rects)):
            ref = _meshgrid_reference(_positive, rect, spec, SPAN)
            one = integrate_rect(_positive, Rect(*rect), spec, SPAN)
            assert isinstance(one, float)
            assert abs(one - ref) <= 1e-14 * abs(ref)
            assert abs(batch[k] - ref) <= 1e-14 * abs(ref)

    def test_degenerate_rectangles_are_exactly_zero_and_not_evaluated(self):
        seen = []

        def fn(t, s):
            seen.append(np.size(t))
            return np.ones_like(t)

        spec = QuadratureSpec(3, 2)
        rects = Rect(np.array([0.0, 1.0, 0.0, 2.0]), np.array([0.0, 0.5, 1.0, 3.0]),
                     np.array([-1.0, 0.0, 0.0, -1.0]), np.array([0.0, 1.0, 0.0, 0.0]))
        out = integrate_rect(fn, rects, spec, 2.0)
        assert out[:3].tolist() == [0.0, 0.0, 0.0]
        assert out[3] == pytest.approx(1.0, rel=1e-14)
        assert sum(seen) == 3**2
        assert integrate_rect(fn, Rect(1.0, 1.0, 0.0, 1.0), spec, 2.0) == 0.0

    def test_blocks_respect_the_cap(self):
        sizes = []

        def fn(t, s):
            sizes.append(t.size)
            return np.cos(t) * s

        spec = QuadratureSpec(order=12, subdivision=30)
        integrate_rect(fn, _random_rects(3, 10), spec, SPAN)
        assert max(sizes) <= MAX_BLOCK

    def test_peak_memory_flat_for_a_huge_rule(self):
        # 5.8e6 nodes: a full meshgrid would need 46 MB per array
        spec = QuadratureSpec(order=12, subdivision=200)
        tracemalloc.start()
        try:
            got = integrate_rect(lambda t, s: np.cos(t) * s, Rect(0.0, 1.0, 0.0, 1.0), spec, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == pytest.approx(np.sin(1.0) / 2, rel=1e-12)
        assert peak < 8 * 2**20

    def test_sides_of_one_span_keep_the_full_rule(self):
        # both sides equal the span: S x S cells, the same rule as a
        # subdivision that ignores the rectangle's size
        seen = []

        def fn(t, s):
            seen.append(t.size)
            return _positive(t, s)

        spec = QuadratureSpec(order=5, subdivision=7)
        full = _meshgrid_reference(_positive, (-1.0, 1.0, -2.0, 0.0), spec, 2.0)
        got = integrate_rect(fn, Rect(-1.0, 1.0, -2.0, 0.0), spec, 2.0)
        assert sum(seen) == (spec.order * spec.subdivision) ** 2
        assert abs(got - full) <= 1e-14 * abs(full)

    def test_small_rectangles_get_proportionally_fewer_cells(self):
        seen = []

        def fn(t, s):
            seen.append(t.size)
            return np.ones_like(t)

        spec = QuadratureSpec(order=3, subdivision=10)
        # 0.45 of the span -> 5 cells, 0.1 -> 1 cell, 3 spans -> clipped to 10
        for rect, cells in [(Rect(0.0, 0.9, -0.2, 0.0), 5 * 1), (Rect(0.0, 6.0, -6.0, 0.0), 10 * 10)]:
            seen.clear()
            area = (rect.t1 - rect.t0) * (rect.s1 - rect.s0)
            assert integrate_rect(fn, rect, spec, 2.0) == pytest.approx(area, rel=1e-14)
            assert sum(seen) == cells * spec.order**2

    def test_many_small_rectangles_stay_in_bounded_memory(self):
        sizes = []

        def fn(t, s):
            sizes.append(t.size)
            return np.cos(t) * s

        rng = np.random.default_rng(5)
        n = 200_000
        t0 = rng.uniform(0.0, 1.0, n)
        s0 = rng.uniform(-1.0, 0.0, n)
        rects = Rect(t0, t0 + rng.uniform(0.0, 0.05, n), s0, s0 + rng.uniform(0.0, 0.05, n))
        spec = QuadratureSpec(order=12, subdivision=64)
        tracemalloc.start()
        try:
            got = integrate_rect(fn, rects, spec, 2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert max(sizes) <= MAX_BLOCK
        for k in range(0, n, 20_000):
            ref = _meshgrid_reference(lambda t, s: np.cos(t) * s, Rect(*(v[k] for v in rects)), spec, 2.0)
            assert abs(got[k] - ref) <= 1e-14 * abs(ref)


def _ridge_rects(a, seed=11):
    """Rectangles of the cavity's characteristic image, in units of a:
    the first rectangles [-Y, X] x [Y, 0] of random points of the
    triangle, then t-wide, s-wide, square, thin, full-span and
    degenerate ones."""
    rng = np.random.default_rng(seed)
    x, y = rng.uniform(0, 2, 40), rng.uniform(0, 1, 40)
    keep = (y <= x) & (x + y <= 2)
    X, Y = (x + y)[keep], (y - x)[keep]
    named = np.array([
        (0.0, 2.0, -0.1, 0.0), (0.2, 0.3, -2.0, 0.0),  # t-wide, s-wide
        (0.5, 1.5, -1.0, 0.0), (0.0, 2.0, -2.0, 0.0),  # square, full span
        (0.3, 0.3 + 1e-6, -1.5, -0.2), (0.1, 1.9, -0.7, -0.7 + 1e-7),  # thin in t, thin in s
        (0.4, 0.4, -1.0, 0.0), (0.0, 1.0, -0.5, -0.6),  # degenerate
    ])
    return Rect(*(np.concatenate([v, w]) * a for v, w in zip((-Y, X, Y, 0 * Y), named.T)))


def _cosine_ridge(A, m, a):
    """g(t, s) = A cos(k (t + s) / 2), the integrand of A cos(k y),
    k = m pi / a."""
    k = m * math.pi / a
    return lambda t, s: A * np.cos(k * (t + s) / 2)


def _cosine_ridge_exact(A, m, a, rect):
    """Its integral over each rectangle, from the closed form."""
    c = m * math.pi / a / 2
    t0, t1, s0, s1 = rect
    return A * (np.cos(c * (t0 + s1)) + np.cos(c * (t1 + s0)) - np.cos(c * (t1 + s1)) - np.cos(c * (t0 + s0))) / c**2


class TestCosineClosedForm:
    @pytest.mark.parametrize("a", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("m", [1, 3, 15, 61, 199])
    def test_matches_the_closed_form(self, m, a):
        # psi = -1/4 of the integral, and its rounding_bound,
        # u (1 + 2 pi m) |A| a^2 / 4, covers rectangles of area at most
        # a^2; a larger rectangle rounds in proportion to its area
        A = 10.0
        rect = _ridge_rects(a)
        got = integrate_rect(_cosine_ridge(A, m, a), rect, default_quadrature_spec(m), 2 * a)
        proper = (rect.t1 > rect.t0) & (rect.s1 > rect.s0)
        assert got[~proper].tolist() == [0.0] * int(np.sum(~proper))
        rounding = 2.0**-53 * (1 + 2 * math.pi * m) * A * a * a / 4
        area = (rect.t1 - rect.t0) * (rect.s1 - rect.s0)
        err = np.abs(got - _cosine_ridge_exact(A, m, a, rect)) / 4
        assert np.all(err[proper] <= 4 * rounding * np.maximum(1.0, area[proper] / a**2))

    def test_scalar_and_batch_forms_agree_with_the_closed_form(self):
        A, m, a = 2.0, 3, 1.0
        rect = _ridge_rects(a)
        spec = default_quadrature_spec(m)
        batch = integrate_rect(_cosine_ridge(A, m, a), rect, spec, 2 * a)
        assert batch.shape == rect.t0.shape
        want = _cosine_ridge_exact(A, m, a, rect)
        for k, one in enumerate(zip(*rect)):
            got = integrate_rect(_cosine_ridge(A, m, a), Rect(*one), spec, 2 * a)
            assert isinstance(got, float)
            assert abs(got - batch[k]) <= 1e-15 * A * a * a
            if one[1] > one[0] and one[3] > one[2]:
                assert abs(got - want[k]) <= 1e-14 * A * a * a

    @pytest.mark.parametrize("order", [1, 2, 3, 6])
    def test_exact_for_polynomial_ridges(self, order):
        # (t + s + 0.3)^p has degree p along each axis: exact when
        # p <= 2 order - 1, and not one order lower; the corner rule on
        # G(u) = (u + 0.3)^(p+2) / ((p+1)(p+2)) rounds in proportion to
        # its corner values
        p = 2 * order - 1
        fn = lambda t, s: (t + s + 0.3) ** p  # noqa: E731
        rect = _ridge_rects(1.0)
        t0, t1, s0, s1 = rect
        corners = [((t1 + s1), 1), ((t1 + s0), -1), ((t0 + s1), -1), ((t0 + s0), 1)]
        G = [(u + 0.3) ** (p + 2) / ((p + 1) * (p + 2)) for u, _ in corners]
        want = sum(sign * g for (_, sign), g in zip(corners, G))
        tol = 1e-14 * sum(np.abs(g) for g in G)
        proper = (t1 > t0) & (s1 > s0)
        got = integrate_rect(fn, rect, QuadratureSpec(order, 5), 2.0)
        assert np.all(np.abs(got - want)[proper] <= tol[proper])
        if order > 1:
            lower = integrate_rect(fn, rect, QuadratureSpec(order - 1, 5), 2.0)
            assert np.max(np.abs(lower - want)[proper] / tol[proper]) > 100


class TestIntegrateSegments:
    def test_axis_segments_match_closed_form(self):
        # int_{-1}^{0} e^{0.3 t} dt along s = 0.5, int_{0.2}^{1.7} cos(s) ds along t = -2
        spec = QuadratureSpec(order=6, subdivision=4)
        got = integrate_segments(lambda t, s: np.where(t == -2.0, np.cos(s), np.exp(0.3 * t)),
                                 (-1.0, -2.0), (0.0, -2.0), (0.5, 0.2), (0.5, 1.7), spec, 2.0)
        want = ((1 - math.exp(-0.3)) / 0.3, math.sin(1.7) - math.sin(0.2))
        assert got == pytest.approx(want, rel=1e-13)

    def test_oblique_segment_uses_arc_length(self):
        # f = 1 integrates to the length of the segment
        spec = QuadratureSpec(order=2, subdivision=3)
        got = integrate_segments(lambda t, s: np.ones_like(t), 0.0, 3.0, 0.0, 4.0, spec, 2.0)
        assert got == pytest.approx([5.0], rel=1e-15)

    def test_cells_follow_the_span_and_zero_length_is_zero(self):
        seen = []

        def fn(t, s):
            seen.append(t.shape)
            return t * 0 + 1.0

        spec = QuadratureSpec(order=3, subdivision=8)
        got = integrate_segments(fn, (0.0, 0.0, 0.5), (2.0, 0.5, 0.5), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), spec, 2.0)
        assert seen == [(8 + 2 + 1, 3)]  # one call: 8 cells across the span, 2 for a quarter, 1 for a point
        assert list(got) == pytest.approx([2.0, 0.5, 0.0], abs=1e-15)
        assert got[2] == 0.0


class TestGaussOrder:
    @pytest.mark.parametrize("m, a, n, want", [(3, 1.0, 101, 4), (15, 0.25, 51, 6), (15, 100.0, 51, 6)])
    def test_cosine_lattice_cells(self, m, a, n, want):
        # per-axis wavenumber k/2 of g(t, s) = cos(k (t + s) / 2), cell a/(n-1)
        assert gauss_order(0.5 * m * math.pi / a * a / (n - 1), 12) == want

    def test_chosen_order_meets_roundoff(self):
        for phase in (1e-3, 0.05, 0.5, 2.0):
            n = gauss_order(phase, 64)
            got = integrate_rect(lambda t, s: np.cos(phase * t), Rect(-0.5, 0.5, 0.0, 1.0), QuadratureSpec(n, 1), 1.0)
            assert got == pytest.approx(2 * math.sin(phase / 2) / phase, rel=1e-15, abs=1e-16)

    def test_bounds(self):
        assert gauss_order(0.0, 12) == 1
        assert gauss_order(50.0, 12) == 12
        assert gauss_order(0.05, 2) == 2


class TestDefaultSpec:
    # the order is the widest cell's gauss_order at phase m pi / S; any
    # other stress (m = 0) keeps order 12
    ORDER = {0: 12, 1: 6, 3: 7, 15: 11, 16: 12, 17: 11, 61: 12, 200: 12}

    @pytest.mark.parametrize("m, S", [(0, 8), (1, 8), (3, 8), (15, 8), (16, 8), (17, 9), (61, 31), (200, 100)])
    def test_subdivision_grows_with_the_harmonic(self, m, S):
        assert default_quadrature_spec(m) == QuadratureSpec(order=self.ORDER[m], subdivision=S)

    def test_order_is_the_widest_cells(self):
        for m in range(1, 201):
            spec = default_quadrature_spec(m)
            assert spec.order == gauss_order(m * math.pi / spec.subdivision, 12)
        assert default_quadrature_spec(21).order == 12

    @pytest.mark.parametrize("a", [1e-3, 1.0, 1e3])
    def test_lattice_sub_cells_never_need_more(self, a):
        # a lattice cell of width h is cut into sub-cells no wider than
        # the widest cell spec.order is sized for, at every grid_n;
        # gauss_order grows with the phase, so the widest sub-cell decides
        h = a / np.arange(1, 1001)
        for m in range(1, 201):
            k = m * math.pi / a
            spec = default_quadrature_spec(cosine_harmonic(CosineStress(1.0, k), a))
            phase = np.max(0.5 * k * h / _cell_counts(h, spec, 2 * a))
            assert gauss_order(phase, 12) <= spec.order


class TestRiemannRect:
    def test_row_blocks_match_one_meshgrid(self):
        fn = lambda t, s: np.cos(7 * t) * (1 + s)  # noqa: E731
        rect, cells = (0.1, 1.3, -0.7, 0.0), 600
        t0, t1, s0, s1 = rect
        ht, hs = (t1 - t0) / cells, (s1 - s0) / cells
        T, S = np.meshgrid(t0 + ht * (np.arange(cells) + 0.5), s0 + hs * (np.arange(cells) + 0.5), indexing="ij")
        want = float(fn(T, S).sum() * ht * hs)
        assert riemann_rect(fn, Rect(*rect), cells) == pytest.approx(want, rel=1e-13)

    def test_parts_sum_their_own_cells(self):
        fn = lambda t, s: np.cos(7 * t) * (1 + s)  # noqa: E731
        n, h = 40, 2.0 / 40
        parts = [(5, 30, 5), (30, 40, 30), (0, 40, 0)]
        sizes = []

        def counted(t, s):
            sizes.append(t.size)
            return fn(t, s)

        got = riemann_rect(counted, Rect(0.0, 2.0, -2.0, 0.0), n, parts)
        mid = (np.arange(n) + 0.5) * h
        T, S = np.meshgrid(mid, -mid, indexing="ij")  # cell (p, q) is centred at (mid[p], -mid[q])
        cells = fn(T, S) * h * h
        np.testing.assert_allclose(got, [cells[p0:p1, :q1].sum() for p0, p1, q1 in parts], rtol=1e-13, atol=1e-16)
        # only the cells some part covers are evaluated
        assert sum(sizes) == 25 * 5 + 10 * 30

    def test_table_parts_keep_memory_flat(self):
        # 40 parts of a 2048 x 2048 table below its diagonal, as the
        # verify oracle asks for them: no (n+1)^2 table is ever held
        n = 2048
        rng = np.random.default_rng(5)
        jx = rng.integers(2, n, 20)
        jy = rng.integers(1, jx)
        parts = np.concatenate([np.stack([jy, jx, jy], 1), np.stack([jx, np.full_like(jx, n), jx], 1)])
        sizes = []

        def fn(t, s):
            sizes.append(t.size)
            return np.cos(t) * s

        tracemalloc.start()
        try:
            riemann_rect(fn, Rect(0.0, 2.0, -2.0, 0.0), n, parts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert max(sizes) <= MAX_BLOCK and sum(sizes) < n * n / 2
        assert peak < 8 * 2**20

    def test_memory_stays_flat(self):
        sizes = []

        def fn(t, s):
            sizes.append(t.size)
            return np.cos(t) * s

        tracemalloc.start()
        try:
            got = riemann_rect(fn, Rect(0.0, 1.0, 0.0, 1.0), 3200)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == pytest.approx(math.sin(1.0) / 2, rel=1e-6)
        assert max(sizes) <= MAX_BLOCK and sum(sizes) == 3200**2
        assert peak < 8 * 2**20
