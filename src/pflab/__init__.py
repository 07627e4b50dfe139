"""pflab - a desk-scale laboratory for power-law diffusion and power-law fluids.

The package simulates the scalar evolution p-Laplacian and the 2-D
incompressible power-law fluid system, tracks how far compactly supported
velocity fields spread, and checks the measured spreading against
two-branch power-law envelopes together with the local-energy and decay
machinery that underlies them.
"""

from .core import (
    GridSpec,
    ScalarField,
    VectorField,
    ModelParams,
    gradient,
    divergence,
    deformation_tensor,
    lp_norm,
)
from .errors import (
    BoundarySentinelError,
    ConfigError,
    NumericalError,
    VerificationError,
)

__version__ = "0.1.0"

__all__ = [
    "GridSpec",
    "ScalarField",
    "VectorField",
    "ModelParams",
    "gradient",
    "divergence",
    "deformation_tensor",
    "lp_norm",
    "NumericalError",
    "BoundarySentinelError",
    "VerificationError",
    "ConfigError",
    "__version__",
]
