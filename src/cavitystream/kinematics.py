"""Flow observables derived from a stream function.

Velocity is (d/dy psi, -d/dx psi), differentiated by each backing
itself: exact derivative polynomials, the closed-form derivatives of
the sinusoidal builtin, or the Leibniz rule on the quadrature integral
(three line integrals of the stress).  The one difference quotient left
is the quadrature Jacobian, taken from the exact velocity.
Stagnation points come from damped Newton iteration over a seed
lattice; streamlines from fixed-step classical Runge-Kutta, along which
the stream function is conserved (that conservation is the main
correctness witness for the tracer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .geometry import (
    TriangleDomain,
    PhysicalPoint,
    _dist_point_segment,
    _nearest_on_segment,
    classify,
    interior_lattice,
)
from .solver import StreamFunction, format_float

CENTER = "center"
SADDLE = "saddle"
DEGENERATE = "degenerate"

CLOSED = "closed"
HIT_BOUNDARY = "hit_boundary"
STEP_LIMIT = "step_limit"


class VelocityField:
    """Velocity (u, v) = (d psi/dy, -d psi/dx) of the flow described by
    a stream function, from the backing's own derivatives: exact
    polynomials, the sinusoidal closed form, or the Leibniz rule on the
    quadrature integral.  Only the quadrature Jacobian is a difference
    quotient (of the exact velocity).
    """

    def __init__(self, source: StreamFunction):
        self.source = source
        self.domain: TriangleDomain = source.domain
        if self.domain is None:
            raise ValueError("bind a before building a velocity field")
        self._vel, self._jac = source.velocity_functions()
        self._speed_scale: float | None = None

    def _eval_raw(self, x: float, y: float) -> tuple[float, float]:
        return self._vel(x, y)

    def velocity(self, p: PhysicalPoint) -> tuple[float, float]:
        """(u, v) at a point of the closed triangle."""
        tol = 1e-9 * float(self.domain.a)
        loc = classify(self.domain, p, tol)
        if loc.is_exterior:
            raise ValueError(f"point {tuple(p)} lies outside the closed cavity")
        return self._eval_raw(float(p[0]), float(p[1]))

    def jacobian(self, p: PhysicalPoint) -> tuple[float, float, float, float]:
        """(du/dx, du/dy, dv/dx, dv/dy)."""
        return self._jac(float(p[0]), float(p[1]))

    def speed_scale(self) -> float:
        """max speed over the interior of the 15 x 15 lattice (hypot
        norm), computed once; nan when a speed there is nan, as it is
        where the field overflows float arithmetic."""
        if self._speed_scale is None:
            speeds = [math.hypot(*self._eval_raw(p.x, p.y)) for p in interior_lattice(self.domain, 15)]
            self._speed_scale = math.nan if any(map(math.isnan, speeds)) else max(speeds, default=0.0)
        return self._speed_scale


def velocity_field(source: StreamFunction) -> VelocityField:
    return VelocityField(source)


# ----------------------------------------------------------------------
# stagnation points

@dataclass(frozen=True)
class StagnationPoint:
    location: PhysicalPoint
    classification: str
    residual_speed: float


def _classify_jacobian(jac: tuple[float, float, float, float], vscale: float, a: float) -> str:
    ux, uy, vx, vy = jac
    norm = max(abs(ux), abs(uy), abs(vx), abs(vy))
    if norm <= 1e-10 * max(vscale / a, 1e-300):
        return DEGENERATE
    tr = ux + vy
    det = ux * vy - uy * vx
    disc = tr * tr - 4 * det
    if disc < 0:
        re, im = tr / 2, math.sqrt(-disc) / 2
        mag = math.hypot(re, im)
        return CENTER if abs(re) <= 1e-8 * mag else DEGENERATE
    root = math.sqrt(disc)
    l1, l2 = (tr + root) / 2, (tr - root) / 2
    if l1 * l2 < 0:
        return SADDLE
    return DEGENERATE


def stagnation_points(
    V: VelocityField,
    d: TriangleDomain,
    seeds_per_axis: int = 21,
) -> list[StagnationPoint]:
    """Damped Newton search for zeros of the velocity over a seed lattice.

    Converged roots inside the closed triangle are deduplicated and
    classified through the velocity Jacobian.  Seeds that do not reach
    a speed of 1e-10 times the velocity scale within 60 damped steps
    are dropped.
    """
    a = float(d.a)
    vscale = V.speed_scale()
    tol = 1e-10 * max(vscale, 1e-300)

    if vscale == 0.0:
        # null field: every seed is already stagnant and degenerate
        seeds = interior_lattice(d, seeds_per_axis + 2, margin=1e-9 * a)
        return [StagnationPoint(p, DEGENERATE, 0.0) for p in seeds]

    def direction(x: float, y: float, u: float, v: float) -> tuple[float, float] | None:
        # the Newton step for velocity (u, v) at (x, y); None where the
        # Jacobian is singular
        ux, uy, vx, vy = V.jacobian(PhysicalPoint(x, y))
        det = ux * vy - uy * vx
        if det == 0 or not math.isfinite(det):
            return None
        return (-u * vy + v * uy) / det, (u * vx - v * ux) / det

    def polish(x: float, y: float) -> tuple[float, float]:
        # a few undamped steps drive the position to machine precision
        r = math.hypot(*V._eval_raw(x, y))
        for _ in range(4):
            step = direction(x, y, *V._eval_raw(x, y))
            if step is None:
                break
            xn, yn = x + step[0], y + step[1]
            rn = math.hypot(*V._eval_raw(xn, yn))
            if not rn < r:
                break
            x, y, r = xn, yn, rn
        return (x, y)

    def newton(x: float, y: float) -> tuple[float, float] | None:
        for _ in range(60):
            u, v = V._eval_raw(x, y)
            r = math.hypot(u, v)
            if r <= tol:
                return polish(x, y)
            newton_step = direction(x, y, u, v)
            if newton_step is None:
                return None
            dx, dy = newton_step
            step = 1.0
            for _ in range(30):
                xn, yn = x + step * dx, y + step * dy
                un, vn = V._eval_raw(xn, yn)
                if math.hypot(un, vn) < r:
                    x, y = xn, yn
                    break
                step /= 2
            else:
                return None
        u, v = V._eval_raw(x, y)
        return polish(x, y) if math.hypot(u, v) <= tol else None

    found: list[tuple[float, float]] = []
    dedup_radius = max(1e-8 * a, 10 * tol / vscale * a)
    for seed in interior_lattice(d, seeds_per_axis + 2, margin=1e-6 * a):
        try:
            root = newton(seed.x, seed.y)
        except ValueError:
            # a quadrature-backed field: Newton left the cavity, or the
            # Jacobian stencil would
            root = None
        if root is None:
            continue
        p = PhysicalPoint(root[0], root[1])
        if classify(d, p, 1e-7 * a).is_exterior:
            continue
        if any(math.hypot(p.x - qx, p.y - qy) <= dedup_radius for qx, qy in found):
            continue
        found.append((p.x, p.y))

    found.sort()
    out = []
    for x, y in found:
        u, v = V._eval_raw(x, y)
        cls = _classify_jacobian(V.jacobian(PhysicalPoint(x, y)), vscale, a)
        out.append(StagnationPoint(PhysicalPoint(x, y), cls, math.hypot(u, v)))
    return out


def interior_centers(points: Sequence[StagnationPoint], d: TriangleDomain) -> list[StagnationPoint]:
    """Stagnation points that are center-classified and interior by more
    than 1e-9*a."""
    tol = 1e-9 * float(d.a)
    return [
        sp for sp in points
        if sp.classification == CENTER and classify(d, sp.location, tol).is_interior
    ]


# ----------------------------------------------------------------------
# streamlines

@dataclass(frozen=True)
class Streamline:
    """Traced vertices with the stream function at each of them."""

    vertices: tuple[PhysicalPoint, ...]
    termination: str
    psi_drift: float
    psi: tuple[float, ...]


def _project_to_boundary(d: TriangleDomain, p: PhysicalPoint) -> PhysicalPoint:
    """Nearest point of the closed triangle (projection onto each edge)."""
    x, y = float(p[0]), float(p[1])
    nearest = (
        _nearest_on_segment(x, y, float(pa.x), float(pa.y), float(pb.x), float(pb.y))
        for pa, pb in d.edges()
    )
    return PhysicalPoint(*min(nearest, key=lambda q: math.hypot(x - q[0], y - q[1])))


def trace_streamline(
    V: VelocityField,
    seed: PhysicalPoint,
    step: float = 1e-3,
    max_steps: int = 100_000,
) -> Streamline:
    """Classical fixed-step RK4 on dx/dtau = u, dy/dtau = v.

    Terminates closed when the path returns within step/2 of the seed
    after at least 10 steps with at least three quarter-turns of
    accumulated heading (guards against false closure near saddles);
    hits the boundary when the next point leaves the closed triangle
    (final point projected back); otherwise runs to the step limit.
    A seed at a stagnation point yields a single-vertex streamline.
    The stream function is evaluated once per vertex; those values give
    the drift and are kept on the streamline.  The velocity at each
    vertex gives the heading and is the next step's first stage.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    d = V.domain
    a = float(d.a)
    if not classify(d, seed, 1e-9 * a).is_interior:
        raise ValueError(f"seed {tuple(seed)} is not interior")
    psi = V.source
    psi0 = psi.evaluate(seed.x, seed.y)
    vscale = V.speed_scale()
    xs, ys = float(seed.x), float(seed.y)
    u0, v0 = V._eval_raw(xs, ys)
    if math.hypot(u0, v0) <= 1e-12 * max(vscale, 1e-300):
        return Streamline((PhysicalPoint(xs, ys),), STEP_LIMIT, 0.0, (psi0,))

    tol = 1e-12 * a
    r2 = math.sqrt(2.0)
    two_a = 2 * a

    def inside(x: float, y: float) -> bool:
        # the signed edge distances of ``classify``; it decides only
        # within tol of an edge line; their min, compared as min() does
        m = y
        e = (x - y) / r2
        if e < m:
            m = e
        e = (two_a - x - y) / r2
        if e < m:
            m = e
        if m > tol:
            return True
        if m < -tol:
            return False
        return not classify(d, PhysicalPoint(x, y), tol).is_exterior

    # the step loop runs RK4 inline on locals; its arithmetic is that of
    # x + 0.5*step*k1, ..., x + step/6*(k1 + 2*k2 + 2*k3 + k4)
    vel_at = V._eval_raw
    psi_at = psi.evaluate
    half = 0.5 * step
    sixth = step / 6.0
    close_tol = step / 2
    atan2, pi, two_pi = math.atan2, math.pi, 2 * math.pi
    verts = [PhysicalPoint(xs, ys)]
    values = [psi0]
    drift = 0.0
    ku, kv = u0, v0
    heading = atan2(v0, u0)
    winding = 0.0
    x, y = xs, ys
    termination = STEP_LIMIT
    exit_from = None  # where the path left the triangle, if it did
    for n in range(1, max_steps + 1):
        px, py = x + half * ku, y + half * kv
        if not inside(px, py):
            exit_from = (x, y)
            break
        k2u, k2v = vel_at(px, py)
        px, py = x + half * k2u, y + half * k2v
        if not inside(px, py):
            exit_from = (x, y)
            break
        k3u, k3v = vel_at(px, py)
        px, py = x + step * k3u, y + step * k3v
        if not inside(px, py):
            exit_from = (x, y)
            break
        k4u, k4v = vel_at(px, py)
        xn = x + sixth * (ku + 2 * k2u + 2 * k3u + k4u)
        yn = y + sixth * (kv + 2 * k2v + 2 * k3v + k4v)
        if not inside(xn, yn):
            exit_from = (xn, yn)
            break
        verts.append(PhysicalPoint(xn, yn))
        val = psi_at(xn, yn)
        values.append(val)
        dv = abs(val - psi0)
        if dv > drift:
            drift = dv
        ku, kv = vel_at(xn, yn)
        hn = atan2(kv, ku)
        delta = hn - heading
        while delta > pi:
            delta -= two_pi
        while delta <= -pi:
            delta += two_pi
        winding += delta
        heading = hn
        if n >= 10 and abs(winding) >= 1.5 * pi:
            if _dist_point_segment(xs, ys, x, y, xn, yn) <= close_tol:
                termination = CLOSED
                break
        x, y = xn, yn
    if exit_from is not None:
        end = _project_to_boundary(d, PhysicalPoint(*exit_from))
        verts.append(end)
        values.append(psi_at(end.x, end.y))
        termination = HIT_BOUNDARY
    return Streamline(tuple(verts), termination, drift, tuple(values))


# ----------------------------------------------------------------------
# velocity profiles

def u_profile(
    V: VelocityField,
    axis: str,
    value: float,
    n: int = 201,
) -> list[tuple[float, float]]:
    """Samples of u along a vertical (axis="x") or horizontal (axis="y")
    line clipped to the closed triangle; returns (coordinate, u) pairs."""
    if n < 2:
        raise ValueError("n must be >= 2")
    a = float(d.a) if (d := V.domain) else 0.0
    if axis == "x":
        x0 = float(value)
        if not 0 <= x0 <= 2 * a:
            raise ValueError("vertical line misses the cavity")
        hi = x0 if x0 <= a else 2 * a - x0
        return [
            (y, V._eval_raw(x0, y)[0])
            for y in (hi * i / (n - 1) for i in range(n))
        ]
    if axis == "y":
        y0 = float(value)
        if not 0 <= y0 <= a:
            raise ValueError("horizontal line misses the cavity")
        xs = (y0 + (2 * a - 2 * y0) * i / (n - 1) for i in range(n))
        return [(xv, V._eval_raw(xv, y0)[0]) for xv in xs]
    raise ValueError("axis must be 'x' or 'y'")


# ----------------------------------------------------------------------
# CSV export

def write_streamlines_csv(traces: Sequence[Streamline], path) -> None:
    """One row per vertex with the psi value recorded while tracing;
    each float as ``format_float`` writes it, in one format per row."""
    with open(path, "w", newline="\n") as fh:
        fh.write("trace_id,step,x,y,psi\n")
        fh.writelines(
            "%d,%d,%.17g,%.17g,%.17g\n" % (tid, k, p.x + 0.0, p.y + 0.0, val + 0.0)
            for tid, tr in enumerate(traces)
            for k, (p, val) in enumerate(zip(tr.vertices, tr.psi))
        )


def write_stagnation_csv(points: Sequence[StagnationPoint], path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("x,y,class,speed\n")
        for sp in points:
            fh.write(
                f"{format_float(sp.location.x)},{format_float(sp.location.y)},"
                f"{sp.classification},{format_float(sp.residual_speed)}\n"
            )
