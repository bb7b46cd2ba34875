"""Reference results that share no code with the program under test.

Everything here is written from the problem statement alone: the
closed-form stream function of an odd-harmonic cosine stress, exact
polynomial arithmetic on plain ``{(i, j, k): int}`` dicts (exponents of
x, y and the length parameter a), the clipped grid lattice counted with
integers, and readers for the CSV and JSON artifacts the CLI writes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from fractions import Fraction

import numpy as np


class CheckFailed(Exception):
    """An operation returned an output that disagrees with its reference."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# ----------------------------------------------------------------------
# artifacts

def read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def tree_digest(root: str) -> str:
    """sha256 over the relative paths and bytes of every file below root."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def clipped_lattice_count(n: int) -> int:
    """Points of the n x n bounding-box lattice inside the closed triangle.

    With x = 2a*ix/(n-1) and y = a*iy/(n-1) the edges y <= x and
    x + y <= 2a become iy <= 2*ix and 2*ix + iy <= 2*(n-1).
    """
    return sum(1 for ix in range(n) for iy in range(n) if iy <= 2 * ix and 2 * ix + iy <= 2 * (n - 1))


def max_rel_error(got: np.ndarray, ref: np.ndarray) -> float:
    scale = float(np.max(np.abs(ref)))
    require(scale > 0, "reference field is identically zero")
    return float(np.max(np.abs(got - ref))) / scale


def grid_columns(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1], data[:, 2]


# ----------------------------------------------------------------------
# closed forms

def cosine_psi(A: float, m: int, a: float, x, y):
    """Stream function of the stress A*cos(k*y), k = m*pi/a, for odd m.

    psi = -(A/k^2) (cos ky + cos(k(x-y)/2) - cos(k(x+y)/2) - 1): the two
    characteristic-direction cosines are annihilated by the operator,
    and each edge cancels term by term when m is odd.
    """
    k = m * math.pi / a
    return -(A / k**2) * (np.cos(k * y) + np.cos(k * (x - y) / 2) - np.cos(k * (x + y) / 2) - 1.0)


def linear_psi(a: float, x, y):
    """Stream function of the linear stress 16y - 8a."""
    return 2 * y**3 - 2 * x**2 * y - 4 * a * y**2 + 4 * a * x * y


# ----------------------------------------------------------------------
# exact polynomials as {(i, j, k): int} over (x, y, a)

def pmul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (i1, j1, k1), c1 in p.items():
        for (i2, j2, k2), c2 in q.items():
            key = (i1 + i2, j1 + j2, k1 + k2)
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def pdiff2(p: dict, var: int) -> dict:
    """Second partial derivative in x (var 0) or y (var 1)."""
    out: dict = {}
    for key, c in p.items():
        e = key[var]
        if e >= 2:
            k = list(key)
            k[var] -= 2
            out[tuple(k)] = out.get(tuple(k), 0) + c * e * (e - 1)
    return out


def wave(p: dict) -> dict:
    """-psi_xx + psi_yy."""
    out = dict(pdiff2(p, 1))
    for key, c in pdiff2(p, 0).items():
        out[key] = out.get(key, 0) - c
    return {key: c for key, c in out.items() if c}


def bind_a(p: dict, a: int) -> dict:
    out: dict = {}
    for (i, j, k), c in p.items():
        out[(i, j, 0)] = out.get((i, j, 0), 0) + c * a**k
    return {key: c for key, c in out.items() if c}


def as_fractions(p: dict) -> dict:
    return {key: Fraction(c) for key, c in p.items()}


def peval(p: dict, x, y, a: float = 1.0):
    return sum(c * x**i * y**j * a**k for (i, j, k), c in p.items())


# 2y(y - x)(x + y - 2a): vanishes on y = 0, y = x and x + y = 2a
BOUNDARY_FACTOR = pmul(pmul({(0, 1, 0): 2}, {(0, 1, 0): 1, (1, 0, 0): -1}),
                       {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): -2})


PRIME = 2**61 - 1


def rank(rows: list[list[Fraction]]) -> int:
    """Rank by row reduction modulo a large prime.

    Equal to the rank over Q unless the prime divides a denominator or
    a pivot, which for these small integer systems is a 1-in-2^61 event.
    """
    m = [[c.numerator * pow(c.denominator, -1, PRIME) % PRIME for c in row] for row in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][col], -1, PRIME)
        for i in range(r + 1, len(m)):
            if m[i][col]:
                f = m[i][col] * inv % PRIME
                m[i] = [(u - f * v) % PRIME for u, v in zip(m[i], m[r])]
        r += 1
    return r
