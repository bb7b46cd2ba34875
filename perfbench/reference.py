"""Reference kernels and the clock that samples them.

On a shared host the same call's wall time drifts by up to 2x over
minutes, and its CPU time drifts with it, so neither is a steady measure
of the program.  While the timed passes run, ``HostClock`` interrupts
the program with an interval timer and times one call of a reference
kernel: a fixed piece of work, one to two milliseconds long, that shares
no code with cavitystream.  The program and the kernel slow down
together, so an operation's time divided by the kernel's median time
over the same pass is steady.

Kinds of work slow down by different amounts when the host is busy, so
each workload is paired with the kernel of its own kind (see
``workloads.REFERENCE``).
"""

from __future__ import annotations

import contextlib
import math
import signal
from fractions import Fraction
from time import perf_counter

import numpy

SAMPLE_INTERVAL_S = 0.05

_NODES = numpy.linspace(0.0, 1.0, 120)
_WEIGHTS = numpy.full(120, 1 / 120)
_ROWS = [[0.1 * (i + j) for j in range(6)] for i in range(6)]


def exact_work() -> float:
    """Fraction sums whose denominators grow, and a dict keyed by
    exponent tuples: the work of exact polynomial algebra."""
    s = Fraction(0)
    for i in range(1, 120):
        s += Fraction(i % 7 + 1, i + 3) * Fraction(3, i + 1)
    d: dict = {}
    for i in range(500):
        key = (i % 97, i % 13, 0)
        d[key] = d.get(key, 0) + s.denominator % (i + 2)
    return float(s) + len(d)


def float_work() -> float:
    """Horner evaluation of a bivariate polynomial at scalar points and
    short numpy vector maths: the work of the exact flow kinematics."""
    total = 0.0
    for k in range(300):
        px, py = 0.3 + k * 1e-4, 0.2
        acc = 0.0
        for row in reversed(_ROWS):
            inner = 0.0
            for c in reversed(row):
                inner = inner * py + c
            acc = acc * px + inner
        total += math.hypot(acc, px)
    x = numpy.linspace(0.0, 1.0, 2000)
    for _ in range(5):
        x = numpy.cos(3.0 * x) * numpy.exp(-x) + 0.5 * x * x
    return total + float(x.sum())


def grid_work() -> float:
    """A tensor rule summed over a meshgrid the size of one quadrature
    rectangle: the work of quadrature-backed psi."""
    T, S = numpy.meshgrid(_NODES, _NODES + 0.5, indexing="ij")
    vals = numpy.cos(3.0 * T) * numpy.cos(2.0 * S) - numpy.cos(T + S)
    return float(_WEIGHTS @ vals @ _WEIGHTS)


class HostClock:
    """Samples one reference kernel while the timed passes run.

    ``spent`` is the time the timer's handler took, which the runner
    takes out of the operation it interrupted.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.samples: list[float] = []
        self.spent = 0.0
        if not math.isfinite(kernel()):
            raise RuntimeError(f"reference kernel {kernel.__name__} computed a wrong result")

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.kernel()
        dt = perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
