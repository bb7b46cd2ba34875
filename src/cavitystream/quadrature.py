"""Gauss-Legendre quadrature over axis-aligned rectangles and segments.

``integrate_rect`` takes a subdivided tensor rule, or, when the caller
states that the integrand depends on t + s alone (a ridge, as for a
stress that reads only y), a 1-D rule on the trapezoidal overlap
length of each rectangle.  ``cell_table`` sums the cells of a square
lattice, each integrated by ``integrate_rect``; ``integrate_segments``
integrates along segments, and ``riemann_rect`` is the midpoint
cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .geometry import Rect

# Most float64 elements in one node block handed to the integrand
# (512 KiB); larger jobs are cut into blocks, so peak memory does not
# grow with the number of rectangles or with the rule's size.
MAX_BLOCK = 2**16
# Rectangles whose per-rectangle bookkeeping is held at once.
RECT_CHUNK = 2**12
# Relative size below which a Gauss remainder bound is lost in double
# roundoff (see ``gauss_order``).
ROUNDOFF = 1e-17


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss order per cell axis and the most cells across one span.

    Order n integrates polynomials of degree 2n-1 exactly per cell
    axis.  ``integrate_rect`` cuts each rectangle side into cells no
    wider than span / subdivision, so subdivision counts the cells
    across the widest side (the cavity rules pass span = 2a) and
    controls oscillatory integrands.  The cavity rules take both from
    ``default_quadrature_spec``, which sizes the order to the phase of
    the widest cell.
    """

    order: int = 12
    subdivision: int = 1

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.subdivision < 1:
            raise ValueError("subdivision must be >= 1")


def gauss_order(phase: float, max_order: int) -> int:
    """Smallest Gauss order n <= max_order whose Legendre remainder
    bound (phase)^(2n) (n!)^4 / ((2n+1) ((2n)!)^3) is below ROUNDOFF,
    else max_order.

    ``phase`` is the wavenumber along one axis times the cell width, so
    the bound is the n-point error on that cell relative to the
    integrand's amplitude times the width.
    """
    if phase <= 0:
        return 1
    for n in range(1, max_order):
        log_bound = (2 * n * math.log(phase) + 4 * math.lgamma(n + 1)
                     - math.log(2 * n + 1) - 3 * math.lgamma(2 * n + 1))
        if log_bound < math.log(ROUNDOFF):
            return n
    return max_order


def default_quadrature_spec(harmonic: float = 0.0) -> QuadratureSpec:
    """S = max(8, ceil(harmonic / 2)) cells across 2a, and the order
    that keeps the widest cell's remainder below roundoff.

    ``harmonic`` is m for a cosine stress cos(m pi y / a) (0 for any
    other stress).  Its integrand g(t, s) has wavenumber m pi / (2a)
    along each axis, so its phase across a cell of width 2a/S is at most
    m pi / S <= about 2 pi, and the order is gauss_order(m pi / S, 12):
    6 at m = 1, 7 at m = 3, 11 at m = 15 and 12 from m = 21 on.  Any
    other stress takes order 12 (exact through degree 23 per cell).
    The rule is the same for every a: cell widths are fractions of 2a,
    so accuracy and cost do not depend on the unit of length.
    """
    S = max(8, math.ceil(harmonic / 2 - 1e-9))
    return QuadratureSpec(order=gauss_order(harmonic * math.pi / S, 12) if harmonic > 0 else 12, subdivision=S)


@lru_cache(maxsize=32)
def gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _cell_counts(width: np.ndarray, spec: QuadratureSpec, span: float) -> np.ndarray:
    """Cells for each side: clip(ceil(S * width / span), 1, S).  The
    1e-9 slack absorbs roundoff in the widths, so a side that is k
    cells wide in units of span gets k cells at every scale."""
    S = spec.subdivision
    return np.clip(np.ceil(S * width / span - 1e-9), 1, S).astype(np.int64)


def integrate_rect(fn: Callable, rect: Rect, spec: QuadratureSpec, span: float, *, ridge: bool = False):
    """Integrate fn(t, s) over one rectangle or over a batch of them.

    ``rect`` holds floats (the result is a float) or four arrays of one
    shape, one rectangle per entry (the result is an array of that
    shape).  Each side of length w is cut into
    clip(ceil(S * w / span), 1, S) equal cells, S = spec.subdivision,
    and each cell carries one order x order Gauss tensor, so a small
    rectangle costs fewer nodes than a wide one.  Degenerate rectangles
    contribute exactly zero and are not evaluated.  The cells of all
    rectangles form one flat sequence; fn receives blocks of at most
    MAX_BLOCK // order**2 whole cells (full-shape node arrays), and the
    cell sums are added up per rectangle.

    ``ridge=True`` states that fn(t, s) depends on t + s alone, as the
    integrand of a stress that reads only y does.  Each rectangle is
    then one 1-D integral (``_ridge_chunk``): fn is called as fn(u, 0)
    on order nodes per cell, in blocks of at most MAX_BLOCK // (2 order)
    whole cells.  The caller states the fact, so a wrapped fn sees every
    node.
    """
    t0, t1, s0, s1 = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in rect))
    shape = t0.shape
    t0, t1, s0, s1 = (v.ravel() for v in (t0, t1, s0, s1))
    chunk = _ridge_chunk if ridge else _integrate_chunk
    out = np.zeros(t0.shape)
    for i in range(0, out.size, RECT_CHUNK):
        part = slice(i, i + RECT_CHUNK)
        out[part] = chunk(fn, t0[part], t1[part], s0[part], s1[part], spec, span)
    return float(out[0]) if not shape else out.reshape(shape)


def _cell_blocks(cells: np.ndarray, per: int):
    """Blocks of at most ``per`` cells of the flat sequence in which
    rectangle r holds cells[r] cells: (r, k) per block, each cell's
    rectangle and its index within that rectangle."""
    end = np.cumsum(cells)
    for c0 in range(0, int(end[-1]), per):
        k = np.arange(c0, min(c0 + per, end[-1]))
        r = np.searchsorted(end, k, side="right")
        yield r, k - (end[r] - cells[r])


def _integrate_chunk(fn, t0, t1, s0, s1, spec, span):
    x, w = gauss_nodes(spec.order)
    ww = np.outer(w, w).ravel() / 4.0  # tensor weights times the two half-width factors
    wt, ws = t1 - t0, s1 - s0
    nt, ns = _cell_counts(wt, spec, span), _cell_counts(ws, spec, span)
    cells = np.where((wt > 0) & (ws > 0), nt * ns, 0)
    out = np.zeros(t0.shape)
    for r, k in _cell_blocks(cells, max(1, MAX_BLOCK // spec.order**2)):
        it, js = np.divmod(k, ns[r])
        ht, hs = wt[r] / nt[r], ws[r] / ns[r]
        T = (t0[r] + (it + 0.5) * ht)[:, None] + (0.5 * ht)[:, None] * x
        S = (s0[r] + (js + 0.5) * hs)[:, None] + (0.5 * hs)[:, None] * x
        T, S = np.broadcast_arrays(T[:, :, None], S[:, None, :])
        vals = np.asarray(fn(T, S), dtype=float).reshape(len(k), -1)
        out[r[0]:r[-1] + 1] += np.bincount(r - r[0], weights=(vals @ ww) * ht * hs)
    return out


# slope of the overlap length K on each of its three pieces
_RIDGE_SLOPE = np.array([1.0, 0.0, -1.0])


def _ridge_chunk(fn, t0, t1, s0, s1, spec, span):
    """The double integral of F(t + s) over [t0, t1] x [s0, s1] is
    int F(u) K(u) du, K(u) the length of [t0, t1] ∩ [u - s1, u - s0]:
    the convolution of two boxes, a trapezoid with kinks at t0 + s1 and
    t1 + s0.  With short <= wide the two side lengths and u = t0 + s0 + v,
    K = v on [0, short], short on [short, wide] and short + wide - v on
    [wide, short + wide].  Each piece is cut like a side of the same
    length (``_cell_counts``; an empty middle piece gets no cell), and
    Gauss-Legendre of spec.order per cell integrates F times the linear K."""
    x, w = gauss_nodes(spec.order)
    wt, ws = t1 - t0, s1 - s0
    short, wide = np.minimum(wt, ws), np.maximum(wt, ws)
    width = np.stack([short, wide - short, short], 1)
    start = np.stack([np.zeros_like(short), short, wide], 1)
    n = np.where(width > 0, _cell_counts(width, spec, span), 0)
    n[(wt <= 0) | (ws <= 0)] = 0
    first = np.cumsum(n, 1) - n  # each piece's first cell within its rectangle
    origin = t0 + s0
    out = np.zeros(t0.shape)
    # half blocks: fn gets the nodes as one full array and makes its own
    # temporaries of that size, where the tensor rule hands it broadcast
    # views, so whole blocks would raise peak memory
    for r, k in _cell_blocks(n.sum(1), max(1, MAX_BLOCK // (2 * spec.order))):
        p = (k >= first[r, 1]).astype(np.int64) + (k >= first[r, 2])
        h = width[r, p] / n[r, p]
        v = ((k - first[r, p] + 0.5)[:, None] + 0.5 * x) * h[:, None]  # node offsets within the piece
        K = np.where(p == 0, 0.0, short[r])[:, None] + _RIDGE_SLOPE[p][:, None] * v
        vals = np.asarray(fn((origin[r] + start[r, p])[:, None] + v, 0.0), dtype=float)
        out[r[0]:r[-1] + 1] += np.bincount(r - r[0], weights=((vals * K) @ w) * (0.5 * h))
    return out


def integrate_segments(fn: Callable, t0, t1, s0, s1, spec: QuadratureSpec, span: float) -> np.ndarray:
    """Integrate fn(t, s) with respect to arc length along each segment
    from (t0[i], s0[i]) to (t1[i], s1[i]).

    The 1-D counterpart of ``integrate_rect``: each segment of length L
    is cut into clip(ceil(S * L / span), 1, S) equal cells carrying one
    order-point Gauss rule, and fn sees the nodes of all segments in one
    call.  Returns one integral per segment; a zero-length segment
    contributes exactly zero.
    """
    x, w = gauss_nodes(spec.order)
    t0, t1, s0, s1 = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (t0, t1, s0, s1))
    length = np.hypot(t1 - t0, s1 - s0)
    n = _cell_counts(length, spec, span)
    seg = np.repeat(np.arange(length.size), n)
    cell = np.arange(seg.size) - np.repeat(np.cumsum(n) - n, n)
    tau = ((cell + 0.5)[:, None] + 0.5 * x) / n[seg][:, None]  # cell nodes in [0, 1]
    T = t0[seg][:, None] + tau * (t1 - t0)[seg][:, None]
    S = s0[seg][:, None] + tau * (s1 - s0)[seg][:, None]
    vals = np.broadcast_to(np.asarray(fn(T, S), dtype=float), T.shape)
    return np.bincount(seg, weights=(vals @ w) * (0.5 * length / n)[seg], minlength=length.size)


def cell_table(fn: Callable, size: int, h: float, spec: QuadratureSpec, span: float, *,
               ridge: bool = False) -> np.ndarray:
    """Summed-area table of fn(t, s) over the cells of a square lattice
    of step h below its diagonal.

    Cell (p, q), 0 <= q < p < size, is [p h, (p+1) h] x [-(q+1) h, -q h],
    integrated by ``integrate_rect``.  Every cell is h wide, so each
    takes the same number of Gauss cells: the cells, row after row, go
    in groups that fill a quarter of MAX_BLOCK nodes, and fn sees blocks
    of one size (the last one shorter).  With
    ``ridge=True`` (fn depends on t + s alone) t + s spans
    [(p - q - 1) h, (p - q + 1) h] over cell (p, q), so its integral
    depends on p - q alone: the size - 1 cells (d, 0) are integrated in
    one ridge call and each row is a reversed slice of them.  Returns T
    of shape (size+1, size+1) with T[P, Q] the integral over the cells
    p < P, q < Q; cells with q >= p count zero and are not evaluated.
    Two in-place cumsums sum the cell integrals.
    """
    table = np.zeros((size + 1, size + 1))
    if ridge:
        d = np.arange(1, size)
        diagonals = integrate_rect(fn, Rect(d * h, (d + 1) * h, -h, 0.0), spec, span, ridge=True)
        for p in range(1, size):
            table[p + 1, 1:p + 1] = diagonals[p - 1::-1]  # cell (p, q) is cell (p - q, 0)
    else:
        # fn makes full-size temporaries of its own; at a quarter block
        # (128 KiB each) they stay in cache, and on 2 vCPU whole equal
        # blocks took about twice as long per node
        sides = int(_cell_counts(np.float64(h), spec, span))
        group = max(1, MAX_BLOCK // 4 // (spec.order * sides) ** 2)
        total = size * (size - 1) // 2
        starts = np.arange(size - 1) * np.arange(1, size) // 2  # row p's first cell is starts[p - 1]
        for f0 in range(0, total, group):
            f = np.arange(f0, min(f0 + group, total))
            p = np.searchsorted(starts, f, side="right")
            q = f - starts[p - 1]
            table[p + 1, q + 1] = integrate_rect(fn, Rect(p * h, (p + 1) * h, -(q + 1) * h, -q * h), spec, span)
    np.cumsum(table, axis=0, out=table)
    np.cumsum(table, axis=1, out=table)
    return table


def riemann_rect(fn: Callable, rect: Rect, cells_per_axis: int, parts=None):
    """Midpoint Riemann sum, the deliberately low-tech cross-check.

    The rectangle is cut into n x n equal cells, n = cells_per_axis,
    cell (p, q) being [t0 + p ht, t0 + (p+1) ht] x [s1 - (q+1) hs, s1 - q hs].
    Without ``parts`` the result is the sum over every cell (a float).
    ``parts`` holds integer rows (p0, p1, q1); the result then holds,
    for each, the sum over the cells p0 <= p < p1, q < q1, and only the
    cells some part covers are evaluated.  Between two consecutive part
    ends the same parts cover every row, so those rows need the same
    cells; fn sees them in blocks of whole rows of at most MAX_BLOCK
    nodes (one row when a row is longer), and their column sums go whole
    into the parts that cover them: memory stays flat however many cells
    or parts are asked for.
    """
    t0, t1, s0, s1 = (float(v) for v in rect)
    n = cells_per_axis
    p0, p1, q1 = np.asarray([(0, n, n)] if parts is None else parts, dtype=np.int64).reshape(-1, 3).T
    out = np.zeros(p0.size)
    if t1 > t0 and s1 > s0:
        ht, hs = (t1 - t0) / n, (s1 - s0) / n
        tn, sn = t0 + (np.arange(n) + 0.5) * ht, s1 - (np.arange(n) + 0.5) * hs
        # a set, not np.unique, which imports numpy.ma: about 1 MB resident
        ends = sorted({0, n, *p0.tolist(), *p1.tolist()})
        for b0, b1 in zip(ends[:-1], ends[1:]):
            inside = (p0 <= b0) & (b0 < p1)
            w = int(q1[inside].max(initial=0))
            if not w:
                continue
            col = np.zeros(w)
            rows = max(1, MAX_BLOCK // w)
            for r in range(b0, b1, rows):
                T, S = np.meshgrid(tn[r:min(r + rows, b1)], sn[:w], indexing="ij")
                col += np.broadcast_to(np.asarray(fn(T, S), dtype=float), T.shape).sum(axis=0)
            out[inside] += np.concatenate(([0.0], np.cumsum(col)))[q1[inside]]
        out *= ht * hs
    return float(out[0]) if parts is None else out
