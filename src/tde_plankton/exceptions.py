"""Exception types shared across the package."""


class TdePlanktonError(Exception):
    """Base class for all package errors."""


class ParamError(TdePlanktonError, ValueError):
    """Model parameters violate a structural constraint."""


class DomainError(TdePlanktonError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SingularRateError(TdePlanktonError, RuntimeError):
    """The maturation rate fell below the configured floor (phase-space boundary)."""


class NoCoexistenceError(TdePlanktonError, RuntimeError):
    """The required maturity exceeds the ceiling; no coexistence equilibrium for any biomass."""


class NotExistError(TdePlanktonError, RuntimeError):
    """The requested equilibrium does not exist at this total biomass."""


class NoConvergeError(TdePlanktonError, RuntimeError):
    """An iterative solve failed to converge."""


class NoSignChangeError(TdePlanktonError, RuntimeError):
    """A bracketing search found no sign change over the given interval."""


class InfeasibleBiomassError(TdePlanktonError, ValueError):
    """The initial history implies a nonpositive dissolved-nutrient pool."""


class InsufficientHistoryError(TdePlanktonError, ValueError):
    """The sampled window is too short to span the required delay."""


class OutOfRegionError(TdePlanktonError, ValueError):
    """The requested (time, maturity) point is not covered by the stored history."""


class ConfigError(TdePlanktonError, ValueError):
    """A run configuration is malformed or violates parameter constraints."""
