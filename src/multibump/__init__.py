"""Numerical laboratory for normalized multibump standing waves of the
1D nonlinear Schrodinger equation with periodic potential.

Capabilities: spectral discretization on a periodic box, single-bump
ground states by bordered Newton iteration from the closed-form profile
of their mass (constrained local minimizers below the mass-critical
exponent 6, saddles with one negative direction above it), nonlinear
superposition of translated bumps, Morse-index and
nondegeneracy diagnostics of the linearization, semiclassical single-peak
families, and split-step time evolution for orbital (in)stability runs.
"""

__version__ = "0.1.0"

from .grid import Field, GridSpec
from .model import Nonlinearity, Potential
from .stationary import ConstrainedCriticalPoint

__all__ = [
    "__version__",
    "Field",
    "GridSpec",
    "Potential",
    "Nonlinearity",
    "ConstrainedCriticalPoint",
]
