"""Triangular cavity geometry and the characteristic coordinate change.

The cavity is the isoceles right triangle with vertices O=(0,0),
A=(2a,0), B=(a,a).  The coordinate change X = x+y, Y = -x+y aligns the
axes with the operator's characteristic lines y = x and y = -x and maps
the triangle onto {0 <= X <= 2a, -X <= Y <= 0}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class PhysicalPoint(NamedTuple):
    x: float
    y: float


class CharPoint(NamedTuple):
    X: float
    Y: float


class Rect(NamedTuple):
    """Axis-aligned rectangle [t0, t1] x [s0, s1] in the (t, s) plane."""

    t0: float
    t1: float
    s0: float
    s1: float

    @property
    def area(self):
        return max(self.t1 - self.t0, 0) * max(self.s1 - self.s0, 0)

    @property
    def is_degenerate(self) -> bool:
        return self.t1 <= self.t0 or self.s1 <= self.s0


INTERIOR = "interior"
BOUNDARY = "boundary"
EXTERIOR = "exterior"

# edge ids: 0 = OA (y=0), 1 = OB (y=x), 2 = AB (x+y=2a)
EDGE_NAMES = ("OA", "OB", "AB")


@dataclass(frozen=True)
class PointLocation:
    kind: str
    edge: int | None = None

    @property
    def is_interior(self) -> bool:
        return self.kind == INTERIOR

    @property
    def is_boundary(self) -> bool:
        return self.kind == BOUNDARY

    @property
    def is_exterior(self) -> bool:
        return self.kind == EXTERIOR


@dataclass(frozen=True)
class TriangleDomain:
    """The cavity, parameterized by the half-base a > 0.

    Vertices are derived, never stored, so they can be produced exactly
    for exact ``a`` (int or Fraction).
    """

    a: float

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError(f"a must be positive, got {self.a!r}")

    @property
    def vertex_o(self) -> PhysicalPoint:
        return PhysicalPoint(0 * self.a, 0 * self.a)

    @property
    def vertex_a(self) -> PhysicalPoint:
        return PhysicalPoint(2 * self.a, 0 * self.a)

    @property
    def vertex_b(self) -> PhysicalPoint:
        return PhysicalPoint(self.a, self.a)

    def vertices(self) -> tuple[PhysicalPoint, PhysicalPoint, PhysicalPoint]:
        return (self.vertex_o, self.vertex_a, self.vertex_b)

    def edges(self) -> tuple[tuple[PhysicalPoint, PhysicalPoint], ...]:
        """Edges indexed 0=OA, 1=OB, 2=AB (endpoints in that orientation)."""
        o, a_, b = self.vertices()
        return ((o, a_), (o, b), (a_, b))

    @property
    def area(self):
        return self.a * self.a


def to_characteristic(p: PhysicalPoint) -> CharPoint:
    """(x, y) -> (x+y, -x+y); exact on the inputs."""
    x, y = p
    return CharPoint(x + y, -x + y)


def to_physical(q: CharPoint) -> PhysicalPoint:
    """(X, Y) -> ((X-Y)/2, (X+Y)/2), the inverse coordinate change."""
    X, Y = q
    return PhysicalPoint((X - Y) / 2, (X + Y) / 2)


def _nearest_on_segment(px, py, ax, ay, bx, by) -> tuple[float, float]:
    """The point of the segment from (ax, ay) to (bx, by) nearest to
    (px, py).  It is projected in units of a power of two near the
    segment's length: no square underflows however short the segment,
    and the scaling is exact, so no bit changes where none did.  Each
    operand is scaled by ``ldexp``, since the factor 2^-e alone
    overflows below a length of 2^-1024."""
    vx, vy = bx - ax, by - ay
    if vx == 0 and vy == 0:
        return ax, ay
    e = math.frexp(max(abs(vx), abs(vy)))[1]
    ux, uy = math.ldexp(vx, -e), math.ldexp(vy, -e)
    t = (math.ldexp(px - ax, -e) * ux + math.ldexp(py - ay, -e) * uy) / (ux * ux + uy * uy)
    t = 0.0 if t < 0 else (1.0 if t > 1 else t)
    return ax + t * vx, ay + t * vy


def _dist_point_segment(px, py, ax, ay, bx, by) -> float:
    qx, qy = _nearest_on_segment(px, py, ax, ay, bx, by)
    return math.hypot(px - qx, py - qy)


def signed_edge_distances(d: TriangleDomain, p: PhysicalPoint) -> tuple[float, float, float]:
    """Perpendicular distances to the three edge lines, positive inside."""
    x, y = float(p[0]), float(p[1])
    a = float(d.a)
    r2 = math.sqrt(2.0)
    return (y, (x - y) / r2, (2 * a - x - y) / r2)


def classify(d: TriangleDomain, p: PhysicalPoint, tol: float) -> PointLocation:
    """Interior / Boundary(edge) / Exterior with a Euclidean tolerance.

    Interior means every edge line is cleared by more than tol; Boundary
    means the point is within tol of an edge segment while violating no
    half-plane by more than tol.  Points near a vertex report the
    lowest-index incident edge.
    """
    if tol < 0:
        raise ValueError("tol must be >= 0")
    s = signed_edge_distances(d, p)
    if min(s) > tol:
        return PointLocation(INTERIOR)
    if min(s) >= -tol:
        x, y = float(p[0]), float(p[1])
        for eid, (pa, pb) in enumerate(d.edges()):
            if _dist_point_segment(x, y, float(pa.x), float(pa.y), float(pb.x), float(pb.y)) <= tol:
                return PointLocation(BOUNDARY, eid)
    return PointLocation(EXTERIOR)


def in_char_image(d: TriangleDomain, X, Y):
    """Whether (X, Y) lies in the image of the closed triangle, with a
    slack of 1e-9*a in physical distance from each edge line (the
    tolerance ``classify`` uses) that absorbs roundoff from the
    coordinate change.

    In (X, Y) the edges are OA: X + Y = 0, OB: Y = 0 and AB: X = 2a, at
    physical distances (X + Y)/2, -Y/sqrt2 and (2a - X)/sqrt2.
    Elementwise on numpy arrays.
    """
    a = float(d.a)
    slack = 1e-9 * a
    r2 = math.sqrt(2.0)
    return (X + Y >= -2 * slack) & (Y <= r2 * slack) & (X <= 2 * a + r2 * slack)


def require_in_char_image(d: TriangleDomain, X, Y) -> None:
    """Raise ValueError at the first (X, Y) outside ``in_char_image``;
    scalars or numpy arrays."""
    inside = in_char_image(d, X, Y)
    if inside is True:  # Python floats compare to a bool: no array to scan
        return
    outside = ~np.asarray(inside)
    if np.any(outside):
        i = np.argmax(outside)
        q = (float(np.ravel(X)[i]), float(np.ravel(Y)[i]))
        raise ValueError(f"characteristic point {q} outside the closed triangle image")


def boundary_sample(d: TriangleDomain, n: int) -> list[PhysicalPoint]:
    """n boundary points: the three vertices once, the rest spread over
    the edges proportionally to edge length (largest-remainder split,
    uniform placement inside each edge)."""
    if n < 3:
        raise ValueError("n must be >= 3")
    o, va, vb = d.vertices()
    pts = [o, va, vb]
    extra = n - 3
    if extra:
        a = float(d.a)
        lengths = (2 * a, a * math.sqrt(2.0), a * math.sqrt(2.0))
        total = sum(lengths)
        quotas = [extra * ln / total for ln in lengths]
        counts = [int(q) for q in quotas]
        rema = [q - c for q, c in zip(quotas, counts)]
        while sum(counts) < extra:
            best = max(range(3), key=lambda e: (rema[e], -e))
            counts[best] += 1
            rema[best] = -1.0
        for eid, (pa, pb) in enumerate(d.edges()):
            k = counts[eid]
            for jj in range(1, k + 1):
                t = jj / (k + 1)
                pts.append(
                    PhysicalPoint(
                        float(pa.x) + t * (float(pb.x) - float(pa.x)),
                        float(pa.y) + t * (float(pb.y) - float(pa.y)),
                    )
                )
    return pts


def clipped_lattice(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(ix, iy) of the n x n lattice x = 2a ix/(n-1), y = a iy/(n-1)
    that lie in the closed triangle, row-major (iy outer): the exact
    integer form of y <= x and x + y <= 2a."""
    if n < 2:
        raise ValueError("n must be >= 2")
    iy, ix = np.divmod(np.arange(n * n), n)
    keep = (iy <= 2 * ix) & (2 * ix + iy <= 2 * (n - 1))
    return ix[keep], iy[keep]


def interior_lattice(d: TriangleDomain, n: int, margin: float = 0.0) -> list[PhysicalPoint]:
    """Points of ``clipped_lattice(n)``, row-major, whose distance to
    every edge line (``signed_edge_distances``) exceeds ``margin`` >= 0."""
    x, y = interior_lattice_xy(d, n, margin)
    return [PhysicalPoint(px, py) for px, py in zip(x.tolist(), y.tolist())]


def interior_lattice_xy(d: TriangleDomain, n: int, margin: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The x and y of the points of ``interior_lattice``, as two arrays."""
    ix, iy = clipped_lattice(n)
    a = float(d.a)
    x, y = 2 * a * ix / (n - 1), a * iy / (n - 1)
    r2 = math.sqrt(2.0)
    keep = (y > margin) & ((x - y) / r2 > margin) & ((2 * a - x - y) / r2 > margin)
    return x[keep], y[keep]


def distance_to_boundary(d: TriangleDomain, p: PhysicalPoint) -> float:
    """Distance from an inside point to the nearest edge line."""
    return min(signed_edge_distances(d, p))
