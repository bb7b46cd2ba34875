"""Flow observables derived from a stream function.

Velocity is (d/dy psi, -d/dx psi), differentiated by each backing
itself: exact derivative polynomials, the closed-form derivatives of
the sinusoidal builtin, the tabulated antiderivative of a cosine
stress, or the Leibniz rule on the quadrature integral (three line
integrals of the stress).  The one difference quotient left is the
Jacobian of an opaque stress, taken from the exact velocity.
Stagnation points come from damped Newton iteration over a seed
lattice; streamlines from the embedded Runge-Kutta pair of Dormand and
Prince under a local error tolerance that is a fraction of a, so that a
closed orbit costs the same number of steps at every unit of length.
The stream function is conserved along a streamline; that conservation,
evaluated but never enforced, is the main correctness witness for the
tracer.
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

# streamline lengths, as fractions of a: the default longest step, the
# local error of one step off its streamline, the length of the first
# step, the shortest step that may leave the cavity before the path
# counts as on its boundary, and the closest approach to the seed that
# closes an orbit (1e-9 a and less measured on closing orbits)
MAX_STEP = 0.05
STEP_TOL = 1.5e-11
FIRST_STEP = 1e-2
EDGE_STEP = 1e-6
CLOSE_TOL = 1e-6


class VelocityField:
    """Velocity (u, v) = (d psi/dy, -d psi/dx) of the flow described by
    a stream function, from the backing's own derivatives: exact
    polynomials, the sinusoidal closed form, the tabulated
    antiderivative of a cosine stress, or the Leibniz rule on the
    quadrature integral.  Only an opaque stress's Jacobian is a
    difference quotient (of the exact velocity).
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
    # an exact power of two brings the entries near 1, so that tr * tr
    # and det neither underflow nor change a bit where they did not
    s = math.ldexp(1.0, -math.frexp(norm)[1])
    ux, uy, vx, vy = ux * s, uy * s, vx * s, vy * s
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

    From each seed, Newton steps, each halved at most 30 times until the
    speed drops, run until the speed is at most 1e-10 times the velocity
    scale; a seed that takes more than 60 steps is dropped.  Then at most
    4 undamped steps polish the root while the speed keeps dropping.
    Every point is evaluated once: a step carries the velocity of the
    trial point it accepted.  Converged roots inside the closed triangle
    are deduplicated and classified through the velocity Jacobian.
    """
    a = float(d.a)
    vscale = V.speed_scale()
    tol = 1e-10 * max(vscale, 1e-300)

    if vscale == 0.0:
        # null field: every seed is already stagnant and degenerate
        seeds = interior_lattice(d, seeds_per_axis + 2, margin=1e-9 * a)
        return [StagnationPoint(p, DEGENERATE, 0.0) for p in seeds]

    # the Jacobian scales like vscale / a; an exact power of two brings
    # it near 1, so that Cramer's products neither underflow nor change
    # a bit where they did not
    s = math.ldexp(1.0, -math.frexp(vscale / a)[1])
    vel, hypot = V._eval_raw, math.hypot

    def descend(x, y, u, v, r, tries):
        # the Newton step from (x, y), where the velocity is (u, v) and
        # the speed r, halved until the speed drops below r: the trial
        # (x, y, u, v, r) it accepts, or None when the Jacobian is
        # singular, after `tries` trials, or at a trial that rounds to
        # (x, y), as every shorter one would
        ux, uy, vx, vy = V.jacobian(PhysicalPoint(x, y))
        ux, uy, vx, vy = ux * s, uy * s, vx * s, vy * s
        det = ux * vy - uy * vx
        if det == 0 or not math.isfinite(det):
            return None
        dx, dy = (-u * vy + v * uy) / det * s, (u * vx - v * ux) / det * s
        step = 1.0
        for _ in range(tries):
            xn, yn = x + step * dx, y + step * dy
            if xn == x and yn == y:
                return None
            un, vn = vel(xn, yn)
            rn = hypot(un, vn)
            if rn < r:
                return xn, yn, un, vn, rn
            step /= 2
        return None

    def newton(x: float, y: float) -> tuple[float, float, float] | None:
        # the root (x, y, speed) reached from the seed (x, y), or None
        u, v = vel(x, y)
        r = hypot(u, v)
        steps = 0
        while not r <= tol:
            trial = descend(x, y, u, v, r, 30) if steps < 60 else None
            if trial is None:
                return None
            x, y, u, v, r = trial
            steps += 1
        for _ in range(4):
            trial = descend(x, y, u, v, r, 1)
            if trial is None:
                break
            x, y, u, v, r = trial
        return x, y, r

    found: list[tuple[float, float, float]] = []
    dedup_radius = max(1e-8 * a, 10 * tol / vscale * a)
    for seed in interior_lattice(d, seeds_per_axis + 2, margin=1e-6 * a):
        try:
            root = newton(seed.x, seed.y)
        except ValueError:
            # a quadrature-backed field: Newton left the cavity, or an
            # opaque stress's Jacobian stencil would
            root = None
        if root is None:
            continue
        x, y, _ = root
        if classify(d, PhysicalPoint(x, y), 1e-7 * a).is_exterior:
            continue
        if any(hypot(x - qx, y - qy) <= dedup_radius for qx, qy, _ in found):
            continue
        found.append(root)

    # order on a key in units of 1e-9 a, so that roots on one line do not
    # reorder when they move at rounding level; x / a * 1e9, not
    # x / (1e-9 a), which would divide by zero at a subnormal a
    found.sort(key=lambda root: (round(root[0] / a * 1e9), round(root[1] / a * 1e9)))
    return [
        StagnationPoint(PhysicalPoint(x, y), _classify_jacobian(V.jacobian(PhysicalPoint(x, y)), vscale, a), r)
        for x, y, r in found
    ]


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

# Dormand-Prince 5(4), J. Comput. Appl. Math. 6 (1980) 19-26: the stage
# rows (the last one holds the fifth-order weights: first same as last),
# the error weights b5 - b4 and the dense-output weights of Hairer,
# Norsett & Wanner, Solving ODEs I, II.4-II.6; zeros of stage 2 dropped
_DP_ROWS = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_ERR = (71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
_DP_DENSE = (-12715105075 / 11282082432, 87487479700 / 32700410799, -10690763975 / 1880347072,
             701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423)


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
    step: float | None = None,
    max_steps: int = 100_000,
) -> Streamline:
    """Dormand-Prince 5(4) on dx/dtau = u, dy/dtau = v, each step's local
    error normal to the velocity held below ``STEP_TOL * a`` (the
    standard controller: safety 0.9, factor within [0.2, 5]), so a closed
    orbit costs the same number of steps at every unit of length.

    ``step`` is the largest length of one step (its time step times the
    speed at its start), ``MAX_STEP * a`` by default.  ``max_steps``
    bounds the accepted steps, and as many rejected attempts end the
    trace too (``STEP_LIMIT``).  A step with a stage point outside the
    triangle is rejected and shrunk; once it is shorter than
    ``EDGE_STEP * a`` the path has reached the boundary, and its last
    vertex is projected onto it.  The trace closes after at least 10
    steps and three quarter-turns of accumulated heading (guards against
    false closure near saddles), on the step whose dense-output
    interpolant passes within ``CLOSE_TOL * a`` of the seed.  A seed at
    a stagnation point yields a single-vertex streamline.  The stream
    function is evaluated once per vertex, with no projection onto its
    level set; those values give the drift and are kept on the
    streamline.  The velocity at each vertex is the last stage of the
    step that reached it, its heading and the next step's first stage.
    """
    d = V.domain
    a = float(d.a)
    if step is None:
        step = MAX_STEP * a
    if step <= 0:
        raise ValueError("step must be positive")
    if not classify(d, seed, 1e-9 * a).is_interior:
        raise ValueError(f"seed {tuple(seed)} is not interior")
    psi = V.source
    psi0 = psi.evaluate(seed.x, seed.y)
    vscale = V.speed_scale()
    xs, ys = float(seed.x), float(seed.y)
    ku, kv = V._eval_raw(xs, ys)
    speed = math.hypot(ku, kv)
    if speed <= 1e-12 * max(vscale, 1e-300):
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

    vel_at = V._eval_raw
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (a61, a62, a63, a64, a65), \
        (b1, b3, b4, b5, b6) = _DP_ROWS
    e1, e3, e4, e5, e6, e7 = _DP_ERR
    hypot = math.hypot

    def attempt(x, y, k1u, k1v, h):
        # one step from (x, y) with first stage (k1u, k1v): the new
        # vertex, the local error estimate and the stages 3 to 7; None
        # when a stage point lies outside the triangle
        px, py = x + h * (a21 * k1u), y + h * (a21 * k1v)
        if not inside(px, py):
            return None
        k2u, k2v = vel_at(px, py)
        px, py = x + h * (a31 * k1u + a32 * k2u), y + h * (a31 * k1v + a32 * k2v)
        if not inside(px, py):
            return None
        k3u, k3v = vel_at(px, py)
        px = x + h * (a41 * k1u + a42 * k2u + a43 * k3u)
        py = y + h * (a41 * k1v + a42 * k2v + a43 * k3v)
        if not inside(px, py):
            return None
        k4u, k4v = vel_at(px, py)
        px = x + h * (a51 * k1u + a52 * k2u + a53 * k3u + a54 * k4u)
        py = y + h * (a51 * k1v + a52 * k2v + a53 * k3v + a54 * k4v)
        if not inside(px, py):
            return None
        k5u, k5v = vel_at(px, py)
        px = x + h * (a61 * k1u + a62 * k2u + a63 * k3u + a64 * k4u + a65 * k5u)
        py = y + h * (a61 * k1v + a62 * k2v + a63 * k3v + a64 * k4v + a65 * k5v)
        if not inside(px, py):
            return None
        k6u, k6v = vel_at(px, py)
        xn = x + h * (b1 * k1u + b3 * k3u + b4 * k4u + b5 * k5u + b6 * k6u)
        yn = y + h * (b1 * k1v + b3 * k3v + b4 * k4v + b5 * k5v + b6 * k6v)
        if not inside(xn, yn):
            return None
        k7u, k7v = vel_at(xn, yn)
        # the error estimate's part normal to the velocity at the new
        # vertex: how far the step may leave the streamline (the part
        # along it only re-times the path)
        eu = e1 * k1u + e3 * k3u + e4 * k4u + e5 * k5u + e6 * k6u + e7 * k7u
        ev = e1 * k1v + e3 * k3v + e4 * k4v + e5 * k5v + e6 * k6v + e7 * k7v
        s7 = hypot(k7u, k7v)
        err = h * (abs(eu * (k7v / s7) - ev * (k7u / s7)) if s7 > 0 else hypot(eu, ev))
        return xn, yn, err, (k3u, k3v, k4u, k4v, k5u, k5v, k6u, k6v, k7u, k7v)

    psi_at = psi.evaluate
    # ratio = err / (STEP_TOL a), below a = 1/2 at s = a 2^-e in
    # [1/2, 1): the same bits wherever STEP_TOL a is normal, and no
    # overflow of its inverse where it is not; 2^-e is taken as two
    # factors, each finite where a is subnormal
    e = min(math.frexp(a)[1], 0)
    err_scale, err_scale2 = math.ldexp(1.0, -e // 2), math.ldexp(1.0, -e - -e // 2)
    inv_tol = 1.0 / (STEP_TOL * math.ldexp(a, -e))
    edge = EDGE_STEP * a
    close_tol = CLOSE_TOL * a
    h = min(FIRST_STEP * a, step) / speed
    atan2, pi, two_pi = math.atan2, math.pi, 2 * math.pi
    verts = [PhysicalPoint(xs, ys)]
    values = [psi0]
    drift = 0.0
    heading = atan2(kv, ku)
    winding = 0.0
    x, y = xs, ys
    termination = STEP_LIMIT
    accepted = rejected = 0
    while accepted < max_steps and rejected < max_steps:
        if h * speed > step:
            h = step / speed
        trial = attempt(x, y, ku, kv, h)
        if trial is None:
            if h * speed <= edge:
                end = _project_to_boundary(d, PhysicalPoint(x, y))
                verts.append(end)
                values.append(psi_at(end.x, end.y))
                termination = HIT_BOUNDARY
                break
            rejected += 1
            h *= 0.2
            continue
        xn, yn, err, ks = trial
        ratio = err * err_scale * err_scale2 * inv_tol
        if not ratio <= 1.0:
            # max() keeps 0.2 for a nan ratio
            rejected += 1
            h *= max(0.2, 0.9 * ratio ** -0.2)
            continue
        accepted += 1
        verts.append(PhysicalPoint(xn, yn))
        val = psi_at(xn, yn)
        values.append(val)
        dv = abs(val - psi0)
        if dv > drift:
            drift = dv
        k7u, k7v = ks[8], ks[9]
        hn = atan2(k7v, k7u)
        delta = hn - heading
        while delta > pi:
            delta -= two_pi
        while delta <= -pi:
            delta += two_pi
        winding += delta
        heading = hn
        if accepted >= 10 and abs(winding) >= 1.5 * pi:
            if _closest_approach(xs, ys, x, y, xn, yn, h, ku, kv, ks) <= close_tol:
                termination = CLOSED
                break
        x, y, ku, kv = xn, yn, k7u, k7v
        speed = hypot(ku, kv)
        h *= min(5.0, 0.9 * ratio ** -0.2) if ratio > 0 else 5.0
    return Streamline(tuple(verts), termination, drift, tuple(values))


def _closest_approach(sx, sy, x0, y0, x1, y1, h, k1u, k1v, ks) -> float:
    """Distance from (sx, sy) to the dense-output interpolant of the step
    from (x0, y0) to (x1, y1) (Hairer, Norsett & Wanner, II.6): golden
    section on its parameter, when the seed lies within a chord length
    of the chord (closer than the interpolant strays from it)."""
    chord = math.hypot(x1 - x0, y1 - y0)
    if _dist_point_segment(sx, sy, x0, y0, x1, y1) > chord:
        return math.inf
    k3u, k3v, k4u, k4v, k5u, k5v, k6u, k6v, k7u, k7v = ks
    d1, d3, d4, d5, d6, d7 = _DP_DENSE
    # y(t) = y0 + t (r2 + (1 - t) (r3 + t (r4 + (1 - t) r5)))
    r2u, r2v = x1 - x0, y1 - y0
    r3u, r3v = h * k1u - r2u, h * k1v - r2v
    r4u, r4v = r2u - h * k7u - r3u, r2v - h * k7v - r3v
    r5u = h * (d1 * k1u + d3 * k3u + d4 * k4u + d5 * k5u + d6 * k6u + d7 * k7u)
    r5v = h * (d1 * k1v + d3 * k3v + d4 * k4v + d5 * k5v + d6 * k6v + d7 * k7v)

    def gap(t: float) -> float:
        s = 1.0 - t
        return math.hypot(x0 - sx + t * (r2u + s * (r3u + t * (r4u + s * r5u))),
                          y0 - sy + t * (r2v + s * (r3v + t * (r4v + s * r5v))))

    g = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, 1.0
    for _ in range(40):
        p, q = hi - g * (hi - lo), lo + g * (hi - lo)
        if gap(p) <= gap(q):
            hi = q
        else:
            lo = p
    return gap(0.5 * (lo + hi))


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
