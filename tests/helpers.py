"""Shared test helpers."""

import math

import numpy as np

from cavitystream.compatibility import cosine_harmonic


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
