"""Closed NPZ plankton ecosystem with maturity-structured juveniles.

Equilibrium analysis, delay-equation linear stability, stability-boundary
continuation in the (maturity, total biomass) plane, and time-domain
simulation of the transformed fixed-delay system.
"""

from .continuation import BoundaryCurve, BoundaryPoint, TraceOptions
from .equilibria import EquilibriumKind, EquilibriumPoint
from .linearize import LinearizationData
from .model import ModelParams, StateNPZ
from .simulate import HistorySpec, Termination, Trajectory

__all__ = [
    "BoundaryCurve",
    "BoundaryPoint",
    "EquilibriumKind",
    "EquilibriumPoint",
    "HistorySpec",
    "LinearizationData",
    "ModelParams",
    "StateNPZ",
    "Termination",
    "TraceOptions",
    "Trajectory",
]
__version__ = "0.1.0"
