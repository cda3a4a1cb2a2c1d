"""Simulation and verification laboratory for the stochastically forced
1D isentropic Euler equations via their viscous parabolic approximation.

Submodules:
    pressure    -- pressure laws (polytropic / composite) and derived thermodynamics
    entropy     -- generating-function entropy pairs, the high-order energy
    goursat     -- characteristic-coordinate solver for the special entropy
    noise       -- finite-mode multiplicative forcing with truncation/mollification
    solver      -- IMEX Euler-Maruyama integration of the viscous system
    diagnostics -- energy balance, moments, invariant region, entropy residuals
    young       -- empirical Young measures, Tartar residual, concentration metrics
    config      -- run configuration and initial data
    cli         -- command-line interface
"""

from .pressure import PressureLaw
from .entropy import EntropySpec, EntropyPairValue
from .noise import NoiseModel
from .solver import Grid, GridState, SolverConfig

__all__ = [
    "PressureLaw",
    "EntropySpec",
    "EntropyPairValue",
    "NoiseModel",
    "Grid",
    "GridState",
    "SolverConfig",
]

__version__ = "0.1.0"
