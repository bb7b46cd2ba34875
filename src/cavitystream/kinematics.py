"""Flow observables derived from a stream function.

Velocity is (d/dy psi, -d/dx psi), differentiated by each backing
itself: exact derivative polynomials, the closed-form derivatives of
the sinusoidal builtin, the tabulated antiderivative of a cosine
stress, or the Leibniz rule on the quadrature integral (three line
integrals of the stress).  The one difference quotient left is the
Jacobian of an opaque stress, taken from the exact velocity.
Stagnation points come from damped Newton iteration over a seed
lattice, all seeds in lock step on numpy arrays; streamlines from the
embedded Runge-Kutta pair of Dormand and Prince under a local error
tolerance that is a fraction of a, so that a closed orbit costs the
same number of steps at every unit of length.
The stream function is conserved along a streamline; that conservation,
evaluated but never enforced, is the main correctness witness for the
tracer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import (
    TriangleDomain,
    PhysicalPoint,
    _dist_point_segment,
    _nearest_on_segment,
    classify,
    interior_lattice,
    interior_lattice_xy,
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
        self._arrays = source.velocity_takes_arrays
        self._speed_scale: float | None = None

    def _eval_raw(self, x, y):
        return self._vel(x, y)

    def velocity(self, p: PhysicalPoint) -> tuple[float, float]:
        """(u, v) at a point of the closed triangle."""
        tol = 1e-9 * float(self.domain.a)
        loc = classify(self.domain, p, tol)
        if loc.is_exterior:
            raise ValueError(f"point {tuple(p)} lies outside the closed cavity")
        return self._eval_raw(float(p[0]), float(p[1]))

    def jacobian(self, p: PhysicalPoint) -> tuple[float, float, float, float]:
        """(du/dx, du/dy, dv/dx, dv/dy); elementwise where p holds two
        float arrays, as ``jacobian_many`` passes them."""
        x, y = p
        if not isinstance(x, np.ndarray):
            x, y = float(x), float(y)
        return self._jac(x, y)

    def velocity_many(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """((u, v), failed) at each point of two float arrays (``_many``)."""
        return self._many(lambda p: self._eval_raw(*p), x, y, 2)

    def jacobian_many(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """((du/dx, du/dy, dv/dx, dv/dy), failed) at each point of two
        float arrays (``_many``)."""
        return self._many(self.jacobian, x, y, 4)

    def _many(self, fn, x: np.ndarray, y: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
        """The `width` values of fn((x, y)) at each point of two 1-d float
        arrays, as the rows of one array, and the mask of the points where
        fn raised ValueError (their values are nan).  A backing whose
        velocity takes arrays (``velocity_takes_arrays``) gets one call on
        the arrays, with the bits of a call per point; any other gets one
        call per point on Python floats."""
        if self._arrays:
            try:
                return np.asarray(fn((x, y))), np.zeros(x.shape, dtype=bool)
            except ValueError:
                pass  # at some point: one call per point finds which
        values, failed = [], np.zeros(x.shape, dtype=bool)
        for k, p in enumerate(zip(x.tolist(), y.tolist())):
            try:
                values.extend(fn(p))
            except ValueError:
                values.extend((math.nan,) * width)
                failed[k] = True
        return np.array(values, dtype=float).reshape(-1, width).T, failed

    def speed_scale(self) -> float:
        """max speed over the interior of the 15 x 15 lattice (math.hypot
        norm), computed once, in one velocity call on a backing that
        takes arrays; nan when a speed there is nan, as it is where the
        field overflows float arithmetic."""
        if self._speed_scale is None:
            x, y = interior_lattice_xy(self.domain, 15)
            if self._arrays:
                u, v = self._eval_raw(x, y)
            else:
                u, v = np.array([self._eval_raw(*p) for p in zip(x.tolist(), y.tolist())]).T
            h = np.hypot(u, v)
            if np.isnan(h).any():
                self._speed_scale = math.nan
            else:
                # math.hypot where np.hypot is within its ulps of the top
                top = h >= h.max() * (1 - 2.0**-40) - 2.0**-1060
                self._speed_scale = float(_speeds(u[top], v[top]).max())
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
    All seeds advance together on arrays (``_newton``), and each takes
    the same trials, in the same order, as it would alone.  Of the roots
    inside the closed triangle, in seed order, the first of each cluster
    within the dedup radius is kept (``_distinct``).  Each kept root has
    its speed by math.hypot and is classified through the velocity
    Jacobian, taken at all of them in one call on a backing that takes
    arrays.
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
    seeds = interior_lattice(d, seeds_per_axis + 2, margin=1e-6 * a)
    x, y, u, v = _newton(V, *np.array(list(zip(*seeds)), dtype=float).reshape(2, -1), tol, s)
    # classify runs at the roots that no kept root is near
    keep = _distinct(x, y, max(1e-8 * a, 10 * tol / vscale * a), lambda k: not classify(
        d, PhysicalPoint(float(x[k]), float(y[k])), 1e-7 * a).is_exterior)
    found = list(zip(x[keep].tolist(), y[keep].tolist(), _speeds(u[keep], v[keep]).tolist()))

    # order on a key in units of 1e-9 a, so that roots on one line do not
    # reorder when they move at rounding level; x / a * 1e9, not
    # x / (1e-9 a), which would divide by zero at a subnormal a
    found.sort(key=lambda root: (round(root[0] / a * 1e9), round(root[1] / a * 1e9)))
    if V._arrays and found:
        x, y, _ = np.array(found).T
        jacs = np.asarray(V.jacobian((x, y))).T.tolist()
    else:
        jacs = [V.jacobian(PhysicalPoint(x, y)) for x, y, _ in found]
    return [
        StagnationPoint(PhysicalPoint(x, y), _classify_jacobian(jac, vscale, a), r)
        for (x, y, r), jac in zip(found, jacs)
    ]


def _distinct(x: np.ndarray, y: np.ndarray, radius: float, admit) -> list[int]:
    """The indices, in order, of the points (x, y) that lie farther than
    radius (``math.hypot``) from each point kept before them and that
    admit(index) accepts, reading the point alone: those that comparing
    every pair keeps, without comparing every pair.  admit is asked once
    per distinct point not within radius of a kept one.

    A point equal to an earlier one is within radius of a kept point,
    or refused again, so only the first of equal points is looked at.
    Each kept point is filed in its cell of a grid of square cells of
    side 2 radius and in the 8 cells around it, so a point is compared
    with the kept points of its own cell alone.  Two points within
    radius of each other lie in the same or in neighbouring cells: they
    are half a cell apart at most, and x / cell rounds by far less than
    the other half within 2^50 cells of the origin (the closed triangle
    lies within 1e8 cells of it).
    """
    cell = 2 * radius
    hypot = math.hypot
    first = np.sort(np.unique(x + 1j * y, return_index=True, equal_nan=False)[1])
    x, y = x[first], y[first]
    kept: list[int] = []
    grid: dict[tuple[float, float], list[tuple[float, float]]] = {}
    cells = zip(np.floor(x / cell).tolist(), np.floor(y / cell).tolist())
    for k, px, py, (i, j) in zip(first.tolist(), x.tolist(), y.tolist(), cells):
        for qx, qy in grid.get((i, j), ()):
            if hypot(px - qx, py - qy) <= radius:
                break
        else:
            if admit(k):
                kept.append(k)
                for key in ((i + di, j + dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)):
                    grid.setdefault(key, []).append((px, py))
    return kept


# the step fractions of the 29 halvings of a damped seed's Newton step
_HALVINGS = np.ldexp(1.0, -np.arange(1, 30))


def _speeds(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # math.hypot, as the speed scale takes it: np.hypot differs from it
    # in the last bit at some points, and stagnation.csv writes speeds
    return np.fromiter(map(math.hypot, u.tolist(), v.tolist()), dtype=float, count=u.size)


def _band(r):
    """The band around speeds r >= 0 in which an np.hypot speed may not
    order against r as the math.hypot speeds do: 2^-40 r plus 2^-1060.
    Each speed is within an ulp or two of the true norm, so np.hypot
    decides farther from r than that (many ulps, normal or subnormal)."""
    return r * 2.0**-40 + 2.0**-1060


def _slower(ut: np.ndarray, vt: np.ndarray, u: np.ndarray, v: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, ...]:
    """math.hypot(ut, vt) < math.hypot(u, v) elementwise, where h is
    np.hypot(u, v), and np.hypot(ut, vt); math.hypot only where the two
    np.hypot speeds are within ``_band(h)`` of each other."""
    ht = np.hypot(ut, vt)
    out = ht < h
    tied = np.abs(ht - h) <= _band(h)
    if np.count_nonzero(tied):
        u, v = (np.broadcast_to(w, ht.shape)[tied] for w in (u, v))
        out[tied] = _speeds(ut[tied], vt[tied]) < _speeds(u, v)
    return out, ht


def _newton(
    V: VelocityField,
    x: np.ndarray,
    y: np.ndarray,
    tol: float,
    s: float,
) -> np.ndarray:
    """The roots that damped Newton reaches from the seeds (x, y): the x,
    y, u and v of each seed that converges, in seed order, as rows.

    A seed above speed tol is damped: each step solves the Newton step in
    the Jacobian scaled by the power of two s and takes the first of it
    and its 29 halvings that lowers the speed.  It is dropped when it
    takes no step, at a singular Jacobian and after 60 steps.  A seed at
    speed tol or below polishes: at most 4 steps of the full step alone,
    and whatever drops a damped seed ends its polish at its point.  A
    ValueError, from the Jacobian or from the first trial the order
    reaches, drops a seed in either phase (a quadrature backing's point
    outside the cavity).  A trial at the seed's own point takes no step,
    as every shorter one would not; a full step there is not evaluated.

    The live seeds advance together: their x, y, u, v, np.hypot speed,
    seed index and polishing steps are the rows of one array, cut down
    to the seeds that step.  A seed stays live only by stepping at every
    iteration, and the speed only drops, so a polishing seed never damps
    again: a damped seed has taken one step per iteration, and the
    iteration count is its step count.  Each iteration makes one
    Jacobian call at the live seeds, one velocity call at their full
    steps and one at the halvings of the damped seeds that reject theirs
    (``_halvings``).  A step carries the velocity of the trial it
    accepted, so no seed evaluates a point in two calls in a row.
    Speeds are compared by np.hypot, and by math.hypot within ``_band``
    of each other; the band around the scalar tol is taken once.  The
    caller takes the roots' math.hypot speeds.
    """
    n = x.size
    band = _band(tol)
    # the columns of the seeds that end at their roots
    ends = [np.empty((7, 0))]
    with np.errstate(all="ignore"):
        (u, v), failed = V.velocity_many(x, y)
        # the live seeds' x, y, u, v, np.hypot speed, seed index and
        # polishing steps taken, as rows
        state = np.array([x, y, u, v, np.hypot(u, v), np.arange(n), np.zeros(n)]).take((~failed).nonzero()[0], axis=1)
        steps = 0
        while state.size:
            h = state[4]
            damped = ~(h <= tol)
            tied = np.abs(h - tol) <= band
            if np.count_nonzero(tied):
                damped[tied] = ~(_speeds(state[2, tied], state[3, tied]) <= tol)
            live = state[6] < 4
            if steps >= 60:
                live &= ~damped
            if np.count_nonzero(live) < live.size:
                ends.append(state.take((~live & ~damped).nonzero()[0], axis=1))
                keep = live.nonzero()[0]
                state, damped = state.take(keep, axis=1), damped[keep]
                if not state.size:
                    break
            x, y, u, v, h = state[:5]

            jac, failed = V.jacobian_many(x, y)
            J = jac * s
            det = J[0] * J[3] - J[1] * J[2]
            # Cramer's rule for (dx, dy), as rows: (v uy - u vy, u vx - v ux) / det
            step = (J[1:3] * state[3:1:-1] - J[3::-3] * state[2:4]) / det * s
            # the trial rows of a seed that does not step are never read
            trial = state.copy()
            tx, ty = np.add(state[:2], step, out=trial[:2])
            trial[6] += ~damped
            # a singular Jacobian takes no step, nor does a failed one
            # (nan, from ``_many``), nor a full step that rounds to the seed
            ask = ((det != 0) & np.isfinite(det) & ((tx != x) | (ty != y))).nonzero()[0]
            # where every seed asks, its rows are read as views
            at = ask if ask.size < x.size else slice(None)
            stepped = np.zeros(x.size, dtype=bool)
            if ask.size:
                trial[2:4, at], bad = V.velocity_many(tx[at], ty[at])
                stepped[at], trial[4, at] = _slower(trial[2, at], trial[3, at], u[at], v[at], h[at])
                # the damped seeds that reject their full step try its
                # halvings, unless it raised
                rows = ~stepped[at] & damped[at]
                if np.count_nonzero(bad):
                    failed[at] |= bad
                    rows &= ~bad
                rows = ask[rows]
                if rows.size:
                    stepped[rows], trial[:5, rows] = _halvings(V, state[:5].take(rows, axis=1),
                                                               step.take(rows, axis=1))

            # a polishing seed that takes no step ends at its root, unless
            # it failed; a damped one is dropped
            ended = ~(stepped | damped | failed)
            if np.count_nonzero(ended):
                ends.append(state.take(ended.nonzero()[0], axis=1))
            state = trial.take(stepped.nonzero()[0], axis=1)
            steps += 1
    roots = np.concatenate(ends, axis=1)
    return roots[:4, np.argsort(roots[5])]


def _halvings(V: VelocityField, state: np.ndarray, step: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each seed steps to one of the 29 halvings of its Newton
    step, and the x, y, u, v and np.hypot speed of the one it steps to,
    as rows.  ``state`` holds the seeds' x, y, u, v and speed as rows,
    and ``step`` their steps' dx and dy.  A seed steps to the first
    halving slower than it, unless a halving before that one is at the
    seed's own point (as every later one is) or raises ValueError.

    A backing that takes arrays evaluates every halving in one call, at
    its own point too (where it is the same call, and a halving there
    decides before its velocity counts).  Any other is evaluated point by
    point anyway, so it takes one halving at a time, for the seeds still
    undecided, and never at a seed's own point.  The trials' x and y,
    u and v, and speeds are one array each, a seed's halvings along a
    row, and the halving a seed stops at is gathered from them by its
    flat index.
    """
    xy, (u, v, h) = state[:2, :, None], state[2:]
    # each seed's halvings, in order along a row, as x and y
    txy = xy + _HALVINGS * step[:, :, None]
    same = txy == xy
    own = same[0] & same[1]
    if V._arrays:
        tuv, bad = V.velocity_many(*txy.reshape(2, -1))
        tuv = tuv.reshape(txy.shape)
        tuv[0, own] = math.nan  # never slower, nor tied
        took, th = _slower(tuv[0], tuv[1], u[:, None], v[:, None], h[:, None])
        stop = own | bad.reshape(own.shape) | took
    else:
        tuv, th = np.full(txy.shape, math.nan), np.full(own.shape, math.nan)
        took, stop = np.zeros(own.shape, dtype=bool), own.copy()
        for j in range(_HALVINGS.size):
            i = (~stop[:, :j + 1].any(axis=1)).nonzero()[0]
            if not i.size:
                break
            tuv[:, i, j], bad = V.velocity_many(txy[0, i, j], txy[1, i, j])
            took[i, j], th[i, j] = _slower(tuv[0, i, j], tuv[1, i, j], u[i], v[i], h[i])
            stop[i, j] = bad | took[i, j]
    k = np.argmax(stop, axis=1) + np.arange(0, stop.size, _HALVINGS.size)
    return took.take(k), np.concatenate([w.reshape(2, -1).take(k, axis=1) for w in (txy, tuv)] + [th.take(k)[None]])


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
    """Traced vertices, as the tuples of their x and of their y, with
    the stream function at each of them."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    termination: str
    psi_drift: float
    psi: tuple[float, ...]

    @property
    def vertices(self) -> tuple[PhysicalPoint, ...]:
        """The vertices as points, built on each read."""
        return tuple(map(PhysicalPoint, self.xs, self.ys))


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
    interpolant passes within ``CLOSE_TOL * a`` of the seed
    (``_closest_approach``, asked only where the seed lies within three
    chords of the step's start).  A seed at a stagnation point yields a
    single-vertex streamline.  The stream function is evaluated once per
    vertex, with no projection onto its level set; those values give the
    drift and are kept on the streamline.  The velocity at each vertex
    is the last stage of the step that reached it, its heading and the
    next step's first stage.

    The stages run inline in the step loop, each velocity one
    ``VelocityField._eval_raw`` call and each vertex psi one
    ``StreamFunction.evaluate`` call, and the vertices are appended as
    floats to the streamline's ``xs`` and ``ys``.  A stage point clear
    of every edge line by more than ``_edge_margin(tol)`` is inside by
    three comparisons; ``classify``'s test at tol = 1e-12 a decides only
    the points near an edge.  ``step`` must be positive (inf: no cap).
    """
    d = V.domain
    a = float(d.a)
    if step is None:
        step = MAX_STEP * a
    if not step > 0:
        raise ValueError("step must be positive")
    if not classify(d, seed, 1e-9 * a).is_interior:
        raise ValueError(f"seed {tuple(seed)} is not interior")
    psi = V.source
    psi0 = psi.evaluate(seed.x, seed.y)
    vscale = V.speed_scale()
    sx, sy = float(seed.x), float(seed.y)
    ku, kv = V._eval_raw(sx, sy)
    speed = math.hypot(ku, kv)
    if speed <= 1e-12 * max(vscale, 1e-300):
        return Streamline((sx,), (sy,), STEP_LIMIT, 0.0, (psi0,))

    tol = 1e-12 * a
    r2 = math.sqrt(2.0)
    two_a = 2 * a
    far = _edge_margin(tol)

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
    xs, ys, values = [sx], [sy], [psi0]
    drift = 0.0
    heading = atan2(kv, ku)
    winding = 0.0
    x, y = sx, sy
    termination = STEP_LIMIT
    accepted = rejected = 0
    while accepted < max_steps and rejected < max_steps:
        if h * speed > step:
            h = step / speed
        # one step from (x, y) with first stage (ku, kv); a stage point
        # clear of every edge line by more than `far` is inside, and
        # inside() decides the rest; ok is False from the first stage
        # point outside the triangle on, and no velocity is taken there
        px, py = x + h * (a21 * ku), y + h * (a21 * kv)
        ok = py > tol and px - py > far and two_a - px - py > far or inside(px, py)
        if ok:
            k2u, k2v = vel_at(px, py)
            px, py = x + h * (a31 * ku + a32 * k2u), y + h * (a31 * kv + a32 * k2v)
            ok = py > tol and px - py > far and two_a - px - py > far or inside(px, py)
        if ok:
            k3u, k3v = vel_at(px, py)
            px = x + h * (a41 * ku + a42 * k2u + a43 * k3u)
            py = y + h * (a41 * kv + a42 * k2v + a43 * k3v)
            ok = py > tol and px - py > far and two_a - px - py > far or inside(px, py)
        if ok:
            k4u, k4v = vel_at(px, py)
            px = x + h * (a51 * ku + a52 * k2u + a53 * k3u + a54 * k4u)
            py = y + h * (a51 * kv + a52 * k2v + a53 * k3v + a54 * k4v)
            ok = py > tol and px - py > far and two_a - px - py > far or inside(px, py)
        if ok:
            k5u, k5v = vel_at(px, py)
            px = x + h * (a61 * ku + a62 * k2u + a63 * k3u + a64 * k4u + a65 * k5u)
            py = y + h * (a61 * kv + a62 * k2v + a63 * k3v + a64 * k4v + a65 * k5v)
            ok = py > tol and px - py > far and two_a - px - py > far or inside(px, py)
        if ok:
            k6u, k6v = vel_at(px, py)
            xn = x + h * (b1 * ku + b3 * k3u + b4 * k4u + b5 * k5u + b6 * k6u)
            yn = y + h * (b1 * kv + b3 * k3v + b4 * k4v + b5 * k5v + b6 * k6v)
            ok = yn > tol and xn - yn > far and two_a - xn - yn > far or inside(xn, yn)
        if not ok:
            if h * speed <= edge:
                ex, ey = _project_to_boundary(d, PhysicalPoint(x, y))
                xs.append(ex)
                ys.append(ey)
                values.append(psi_at(ex, ey))
                termination = HIT_BOUNDARY
                break
            rejected += 1
            h *= 0.2
            continue
        k7u, k7v = vel_at(xn, yn)
        # the error estimate's part normal to the velocity at the new
        # vertex: how far the step may leave the streamline (the part
        # along it only re-times the path)
        eu = e1 * ku + e3 * k3u + e4 * k4u + e5 * k5u + e6 * k6u + e7 * k7u
        ev = e1 * kv + e3 * k3v + e4 * k4v + e5 * k5v + e6 * k6v + e7 * k7v
        s7 = hypot(k7u, k7v)
        err = h * (abs(eu * (k7v / s7) - ev * (k7u / s7)) if s7 > 0 else hypot(eu, ev))
        ratio = err * err_scale * err_scale2 * inv_tol
        if not ratio <= 1.0:
            # max() keeps 0.2 for a nan ratio
            rejected += 1
            h *= max(0.2, 0.9 * ratio ** -0.2)
            continue
        accepted += 1
        xs.append(xn)
        ys.append(yn)
        val = psi_at(xn, yn)
        values.append(val)
        dv = abs(val - psi0)
        if dv > drift:
            drift = dv
        hn = atan2(k7v, k7u)
        delta = hn - heading
        while delta > pi:
            delta -= two_pi
        while delta <= -pi:
            delta += two_pi
        winding += delta
        heading = hn
        # farther than three chords from the step's start, the seed is
        # more than a chord from its segment, where _closest_approach
        # returns inf; a nan fails both tests
        if accepted >= 10 and abs(winding) >= 1.5 * pi and hypot(sx - x, sy - y) <= 3 * hypot(xn - x, yn - y):
            ks = (k3u, k3v, k4u, k4v, k5u, k5v, k6u, k6v, k7u, k7v)
            if _closest_approach(sx, sy, x, y, xn, yn, h, ku, kv, ks) <= close_tol:
                termination = CLOSED
                break
        x, y, ku, kv = xn, yn, k7u, k7v
        speed = hypot(ku, kv)
        h *= min(5.0, 0.9 * ratio ** -0.2) if ratio > 0 else 5.0
    return Streamline(tuple(xs), tuple(ys), termination, drift, tuple(values))


def _edge_margin(tol: float) -> float:
    """The least float `far` from 2 tol up with fl(far / sqrt2) > tol:
    where a distance d along x - y or 2a - x - y exceeds it, the signed
    edge distance fl(d / sqrt2) exceeds tol too (correctly rounded
    division is monotone), so ``classify`` at tol would not call that
    edge line near.  The few ulps above 2 tol count where tol is
    subnormal."""
    r2 = math.sqrt(2.0)
    far = 2.0 * tol
    while not far / r2 > tol:
        far = math.nextafter(far, math.inf)
    return far


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
    each float as ``format_float`` writes it, in one format per row.
    Each trace is written as its rows' format repeated over one flat
    tuple of their fields."""
    with open(path, "w", newline="\n") as fh:
        fh.write("trace_id,step,x,y,psi\n")
        for tid, tr in enumerate(traces):
            # each row's trace id, step, x, y and psi
            n = len(tr.xs)
            fields = [tid] * (5 * n)
            fields[1::5] = range(n)
            fields[2::5] = [x + 0.0 for x in tr.xs]
            fields[3::5] = [y + 0.0 for y in tr.ys]
            fields[4::5] = [val + 0.0 for val in tr.psi]
            fh.write("%d,%d,%.17g,%.17g,%.17g\n" * n % tuple(fields))


def write_stagnation_csv(points: Sequence[StagnationPoint], path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("x,y,class,speed\n")
        for sp in points:
            fh.write(
                f"{format_float(sp.location.x)},{format_float(sp.location.y)},"
                f"{sp.classification},{format_float(sp.residual_speed)}\n"
            )
