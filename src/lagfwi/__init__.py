"""Desk-scale full waveform inversion workbench.

A space-time formulation of the scalar wave equation with a family of
inversion iterations (reduced adjoint-state, penalty and augmented
Lagrangian saddle formulations in both wavefield and multiplier
orientations, and scattering-type splittings), plus dense brute-force
oracles that verify every algebraic identity on tiny grids.
"""

from .errors import (
    ConfigurationError,
    DivergenceError,
    LagfwiError,
    OracleSizeError,
    SingularSystemError,
    SolverNotConvergedError,
)
from .grids import (
    AcquisitionGeometry,
    GridSpec,
    ModelGrid,
    SourceField,
    TraceData,
    Wavefield,
    build_model,
)

__version__ = "0.1.0"

__all__ = [
    "AcquisitionGeometry",
    "ConfigurationError",
    "DivergenceError",
    "GridSpec",
    "LagfwiError",
    "ModelGrid",
    "OracleSizeError",
    "SingularSystemError",
    "SolverNotConvergedError",
    "SourceField",
    "TraceData",
    "Wavefield",
    "build_model",
    "__version__",
]
