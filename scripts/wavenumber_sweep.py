#!/usr/bin/env python3
"""Sweep cosine-stress harmonics and tabulate the admissibility residual.

Odd harmonics admit a confined flow (residual at rounding level), even
ones do not; the table makes the dichotomy visible.

Usage: python scripts/wavenumber_sweep.py [--a REAL] [--m-max N] [--csv PATH]
"""

import argparse
import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from cavitystream.compatibility import CosineStress, compat_check
from cavitystream.geometry import TriangleDomain


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--a", type=float, default=1.0)
    parser.add_argument("--m-max", type=int, default=8)
    parser.add_argument("--amplitude", type=float, default=1.0)
    parser.add_argument("--csv", help="optional CSV output path")
    args = parser.parse_args()

    d = TriangleDomain(args.a)
    rows = []
    for m in range(1, args.m_max + 1):
        k = m * math.pi / args.a
        report = compat_check(CosineStress(args.amplitude, k), d)
        rows.append((m, k, report.max_abs_residual, report.normalization, report.verdict))

    print(f"{'m':>3} {'k':>12} {'max residual':>14} {'relative':>12} {'verdict':<12}")
    for m, k, resid, norm, verdict in rows:
        print(f"{m:>3} {k:>12.6f} {resid:>14.3e} {resid / norm:>12.3e} {verdict:<12}")

    if args.csv:
        with open(args.csv, "w", newline="\n") as fh:
            fh.write("m,k,max_abs_residual,normalization,verdict\n")
            for m, k, resid, norm, verdict in rows:
                fh.write(f"{m},{k!r},{resid!r},{norm!r},{verdict}\n")
        print(f"\nwrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
