"""Stream-function solutions for shear-driven flow in a right-triangular cavity.

The cavity is the isoceles right triangle with vertices (0,0), (2a,0),
(a,a); a shear stress acting on the base drives a confined recirculating
flow.  The package computes the unique boundary-vanishing stream
function for any admissible stress (exactly for polynomial stresses),
decides admissibility, derives flow observables (velocity, stagnation
points, streamlines) and verifies every produced field with independent
oracles.
"""

from .geometry import (
    CharPoint,
    PhysicalPoint,
    TriangleDomain,
    boundary_sample,
    classify,
    to_characteristic,
    to_physical,
)
from .polyalg import BivariatePoly, poly_vars, wave_operator
from .compatibility import (
    CompatibilityReport,
    CosineStress,
    OpaqueStress,
    PolynomialStress,
    compat_check,
    compat_constraints,
    compat_residual,
    cosine_admissible_wavenumbers,
    cosine_from_harmonic,
)
from .quadrature import QuadratureSpec
from .solver import (
    IncompatibleStress,
    PolyStreamFunction,
    QuadratureStreamFunction,
    SinusoidalStreamFunction,
    StreamFunction,
    linear_example,
    realistic_example,
    residual,
    sinusoidal_closed_form,
    solve_exact_poly,
    solve_quadrature,
)
from .kinematics import (
    StagnationPoint,
    Streamline,
    VelocityField,
    interior_centers,
    stagnation_points,
    trace_streamline,
    u_profile,
    velocity_field,
)
from .verify import (
    VerificationReport,
    riemann_psi,
    uniqueness_suite,
    verify_solution,
)

__version__ = "0.1.0"
