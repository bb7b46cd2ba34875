"""Tensorized Gauss-Legendre quadrature over axis-aligned rectangles."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .geometry import Rect, TriangleDomain

# Most float64 elements in one node block handed to the integrand
# (512 KiB); larger jobs are cut into blocks, so peak memory does not
# grow with the number of rectangles or with the rule's size.
MAX_BLOCK = 2**16


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss order per axis and number of subdivision cells per axis.

    Order n integrates polynomials of degree 2n-1 exactly per axis;
    subdivision controls oscillatory integrands.
    """

    order: int = 12
    subdivision: int = 1

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.subdivision < 1:
            raise ValueError("subdivision must be >= 1")


def default_quadrature_spec(d: TriangleDomain) -> QuadratureSpec:
    """Order 12 (exact through degree 23); subdivision scaled with the cavity."""
    return QuadratureSpec(order=12, subdivision=max(1, math.ceil(8 * float(d.a))))


@lru_cache(maxsize=32)
def gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _axis_nodes(lo: np.ndarray, hi: np.ndarray, spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss nodes and weights on each [lo[p], hi[p]], as
    (P, order * subdivision) arrays."""
    x, w = gauss_nodes(spec.order)
    cells = np.linspace(lo, hi, spec.subdivision + 1, axis=-1)
    half = np.diff(cells, axis=-1) / 2.0
    mid = (cells[:, :-1] + cells[:, 1:]) / 2.0
    nodes = (mid[:, :, None] + half[:, :, None] * x).reshape(len(lo), -1)
    weights = (half[:, :, None] * w).reshape(len(lo), -1)
    return nodes, weights


def integrate_rect(fn: Callable, rect: Rect, spec: QuadratureSpec):
    """Integrate fn(t, s) over one rectangle or over a batch of them.

    ``rect`` holds floats (the result is a float) or four arrays of one
    shape, one rectangle per entry (the result is an array of that
    shape).  Degenerate rectangles contribute exactly zero and are not
    evaluated.  fn receives full-shape node arrays of at most MAX_BLOCK
    elements (or one row of s-nodes, if that alone is longer): several
    rectangles per call when they fit, otherwise one rectangle cut into
    blocks of t-nodes.
    """
    t0, t1, s0, s1 = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in rect))
    shape = t0.shape
    t0, t1, s0, s1 = (v.ravel() for v in (t0, t1, s0, s1))
    out = np.zeros(t0.shape)
    live = np.flatnonzero((t1 > t0) & (s1 > s0))
    n = spec.order * spec.subdivision
    rows = min(n, max(1, MAX_BLOCK // n))
    per = max(1, MAX_BLOCK // (rows * n))
    for i in range(0, live.size, per):
        idx = live[i:i + per]
        tn, tw = _axis_nodes(t0[idx], t1[idx], spec)
        sn, sw = _axis_nodes(s0[idx], s1[idx], spec)
        for j in range(0, n, rows):
            T, S = np.broadcast_arrays(tn[:, j:j + rows, None], sn[:, None, :])
            vals = np.asarray(fn(T, S), dtype=float)
            out[idx] += np.einsum("pi,pi->p", tw[:, j:j + rows], np.einsum("pij,pj->pi", vals, sw))
    return float(out[0]) if not shape else out.reshape(shape)


def riemann_rect(fn: Callable, rect: Rect, cells_per_axis: int) -> float:
    """Midpoint Riemann sum, the deliberately low-tech cross-check."""
    t0, t1, s0, s1 = (float(v) for v in rect)
    if t1 <= t0 or s1 <= s0:
        return 0.0
    ht = (t1 - t0) / cells_per_axis
    hs = (s1 - s0) / cells_per_axis
    tn = t0 + ht * (np.arange(cells_per_axis) + 0.5)
    sn = s0 + hs * (np.arange(cells_per_axis) + 0.5)
    T, S = np.meshgrid(tn, sn, indexing="ij")
    vals = np.asarray(fn(T, S), dtype=float)
    return float(vals.sum() * ht * hs)
