"""Shared test helpers."""

import itertools
import math
import types

import numpy as np

from cavitystream.cli import _svg_marker
from cavitystream.compatibility import cosine_harmonic
from cavitystream.geometry import PhysicalPoint, TriangleDomain, classify, interior_lattice
from cavitystream.kinematics import DEGENERATE, StagnationPoint, VelocityField, _classify_jacobian


def lattice_scale(psi) -> float:
    """max |psi| over the interior points of the n x n clipped lattice,
    n = max(51, 2m + 1) for a source stress of cosine harmonic m (51 for
    any other stress), so that the lattice resolves every half period of
    psi: the size that test tolerances are fractions of."""
    m = math.ceil(cosine_harmonic(psi.source_stress, float(psi.domain.a)) - 1e-9)
    n = max(51, 2 * m + 1)
    ix, iy, values = psi.lattice_values(n)
    interior = (iy > 0) & (iy < 2 * ix) & (2 * ix + iy < 2 * (n - 1))
    return float(np.max(np.abs(values[interior]), initial=0.0))


def scalar_stagnation_points(
    V: VelocityField,
    d: TriangleDomain,
    seeds_per_axis: int = 21,
) -> list[StagnationPoint]:
    """The scalar damped Newton that ``stagnation_points`` replaced, one
    seed at a time, kept verbatim as an independent oracle: the lock-step
    search must return the same points, bit for bit."""
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


def dense_float_evaluator(p):
    """The Horner evaluator that ``float_evaluator`` compiled before it
    skipped leading zeros, kept verbatim as an independent oracle: every
    entry of the dense coefficient table, zeros and each row's leading
    0.0 * y included, in the order of the nested loop

        acc = 0.0
        for row in reversed(table):
            inner = 0.0
            for c in reversed(row):
                inner = inner * y + c
            acc = acc * x + inner

    unrolled in runs of 32 steps.  p is nonzero, with a bound."""
    table = p._float_table()
    ni, nj = len(table), len(table[0])
    names = [f"c{k}" for k in range(ni * nj)]
    lines = ["def evaluate(x, y, _c):", f"    {', '.join(names)}, = _c", "    acc = 0.0"]
    for i in range(ni):
        row = names[i * nj:(i + 1) * nj]
        inner = "0.0"
        for start in range(0, nj, 32):
            for c in row[start:start + 32]:
                inner = f"({inner} * y + {c})"
            if start + 32 < nj:
                lines.append(f"    inner = {inner}")
                inner = "inner"
        lines.append(f"    acc = acc * x + {inner}")
    lines.append("    return acc")
    namespace: dict = {}
    exec(compile("\n".join(lines), "<dense horner>", "exec"), namespace)
    coefs = tuple(c for row in reversed(table) for c in reversed(row))
    return types.FunctionType(namespace["evaluate"].__code__, {}, "evaluate", (coefs,))


def reference_streamlines_csv(traces, path) -> None:
    """``write_streamlines_csv`` as it was before it formatted each trace
    at once, one ``%`` per vertex, kept verbatim as the oracle of its
    bytes."""
    with open(path, "w", newline="\n") as fh:
        fh.write("trace_id,step,x,y,psi\n")
        fh.writelines(
            "%d,%d,%.17g,%.17g,%.17g\n" % (tid, k, p.x + 0.0, p.y + 0.0, val + 0.0)
            for tid, tr in enumerate(traces)
            for k, (p, val) in enumerate(zip(tr.vertices, tr.psi))
        )


def reference_flow_svg(d, traces, stagnation, width: float = 800.0):
    """``render_flow_svg`` as it was before it formatted each polyline at
    once, one ``%`` per vertex, kept verbatim as the oracle of its bytes."""
    a = float(d.a)
    margin = 0.05 * 2 * a
    x0, x1 = -margin, 2 * a + margin
    y0, y1 = -margin, a + margin
    w, h = x1 - x0, y1 - y0
    scale = width / w
    height = h * scale

    def sx(x: float) -> float:
        return (x - x0) * scale

    def sy(y: float) -> float:
        return (y1 - y) * scale

    yield '<?xml version="1.0" encoding="UTF-8"?>\n'
    yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.6f}" '
           f'viewBox="0 0 {width:.0f} {height:.6f}">\n')
    yield f'<rect x="0" y="0" width="{width:.0f}" height="{height:.6f}" fill="#ffffff"/>\n'
    o, va, vb = d.vertices()
    tri = " ".join(f"{sx(float(p.x)):.6f},{sy(float(p.y)):.6f}" for p in (o, va, vb))
    yield f'<polygon points="{tri}" fill="none" stroke="#000000" stroke-width="1.5"/>\n'
    for tr in traces:
        yield '<polyline points="'
        # sx and sy inline, a space before every vertex but the first
        seps = itertools.chain(("",), itertools.repeat(" "))
        yield from ("%s%.6f,%.6f" % (sep, (p.x - x0) * scale, (y1 - p.y) * scale)
                    for sep, p in zip(seps, tr.vertices))
        yield '" fill="none" stroke="#1f77b4" stroke-width="0.8"/>\n'
    r = 0.012 * width
    for sp in stagnation:
        yield _svg_marker(sp.classification, sx(sp.location.x), sy(sp.location.y), r) + "\n"
    yield "</svg>\n"
