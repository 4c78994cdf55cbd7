"""Closed NPZ model with a maturity-structured juvenile zooplankton pool.

This module holds the parameter container, the saturating functional
responses (nutrient uptake, grazing, juvenile growth rate) together with
their derivatives and inverses, the right-hand side of the fixed-delay form
of the model written in transformed time, and the conserved total-biomass
functional evaluated over a uniformly sampled history window.

Units are fixed throughout the package: biomass pools in uM nitrogen, time
in days, and maturity in dimensionless units accumulated at rate R(P) with
sup R = 1 for both response variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from .exceptions import (
    DomainError,
    InsufficientHistoryError,
    ParamError,
    SingularRateError,
)

#: Default maturation-rate floor (1/day). R below this is treated as an
#: approach to the phase-space boundary rather than silently divided by.
R_FLOOR_DEFAULT = 1e-14

#: Saturation limit of both growth-response variants (maturity units/day).
R_INFINITY = 1.0


class ResponseKind(Enum):
    """Shape of the juvenile growth-rate response R(P)."""

    CONSTANT = "constant"
    MICHAELIS = "michaelis"


class StateNPZ(NamedTuple):
    """Nutrient, phytoplankton, mature-zooplankton triple (uM)."""

    n: float
    p: float
    z: float


@dataclass(frozen=True)
class ModelParams:
    """All rate constants and scenario parameters of the closed ecosystem.

    Attributes
    ----------
    mu : phytoplankton maximum uptake rate (1/day)
    lam : phytoplankton mortality (1/day)
    g : zooplankton maximum grazing rate (1/day)
    gamma : grazing efficiency, in (0, 1]
    delta : mature zooplankton mortality (1/day)
    delta0 : juvenile zooplankton mortality (1/day, may be zero)
    k : nutrient half-saturation of the uptake response (uM)
    kk : phytoplankton half-saturation of the grazing response (uM)
    l : half-saturation of the growth response (uM), or None for the
        constant response R(P) = 1
    m : required maturity (maturity units)
    n_total : total biomass in the system (uM)
    r_star : reference growth rate (maturity units/day); None means
        "resolve from the dominant equilibrium" (see equilibria.resolve_r_star)
    r_floor : floor below which R(P) counts as singular (1/day)
    """

    mu: float = 5.9
    lam: float = 0.017
    g: float = 7.0
    gamma: float = 0.7
    delta: float = 0.17
    delta0: float = 0.0
    k: float = 1.0
    kk: float = 1.0
    l: float | None = 0.159
    m: float = 0.0
    n_total: float = 1.0
    r_star: float | None = None
    r_floor: float = R_FLOOR_DEFAULT

    def __post_init__(self) -> None:
        for name in ("mu", "lam", "g", "delta", "k", "kk", "n_total"):
            if not getattr(self, name) > 0:
                raise ParamError(f"{name} must be positive, got {getattr(self, name)!r}")
        if not 0 < self.gamma <= 1:
            raise ParamError(f"gamma must lie in (0, 1], got {self.gamma!r}")
        if self.delta0 < 0:
            raise ParamError(f"delta0 must be nonnegative, got {self.delta0!r}")
        if self.m < 0:
            raise ParamError(f"m must be nonnegative, got {self.m!r}")
        if not self.mu > self.lam:
            raise ParamError("mu must exceed lam (uptake must be able to beat mortality)")
        if not self.gamma * self.g > self.delta:
            raise ParamError("gamma*g must exceed delta (grazing must be able to beat mortality)")
        if self.l is not None and not self.l > 0:
            raise ParamError(f"l must be positive when given, got {self.l!r}")
        if self.r_star is not None and not self.r_star > 0:
            raise ParamError(f"r_star must be positive when given, got {self.r_star!r}")
        if not self.r_floor > 0:
            raise ParamError("r_floor must be positive")

    @property
    def response_kind(self) -> ResponseKind:
        return ResponseKind.CONSTANT if self.l is None else ResponseKind.MICHAELIS

    def with_r_star(self, r_star: float) -> "ModelParams":
        return replace(self, r_star=r_star)

    def require_r_star(self) -> float:
        if self.r_star is None:
            raise ParamError(
                "r_star has not been resolved; call equilibria.resolve_r_star first"
            )
        return self.r_star


def _check_nonneg(x, name: str) -> None:
    if np.ndim(x) == 0:
        if x < 0:
            raise DomainError(f"{name} must be nonnegative, got {x!r}")
    elif np.any(np.asarray(x) < 0):
        raise DomainError(f"{name} must be nonnegative everywhere")


def f_uptake(n, params: ModelParams):
    """Nutrient uptake response N/(N+k), in [0, 1)."""
    _check_nonneg(n, "n")
    return n / (n + params.k)


def f_uptake_prime(n, params: ModelParams):
    """Derivative k/(N+k)^2 of the uptake response."""
    _check_nonneg(n, "n")
    return params.k / (n + params.k) ** 2


def f_inverse(y, params: ModelParams):
    """Inverse of the uptake response on (0, 1): N = k*y/(1-y)."""
    if np.ndim(y) == 0:
        if not 0 < y < 1:
            raise DomainError(f"f_inverse requires y in (0, 1), got {y!r}")
    elif np.any((np.asarray(y) <= 0) | (np.asarray(y) >= 1)):
        raise DomainError("f_inverse requires y in (0, 1) everywhere")
    return params.k * y / (1.0 - y)


def h_grazing(p, params: ModelParams):
    """Grazing response P/(P+kk), in [0, 1)."""
    _check_nonneg(p, "p")
    return p / (p + params.kk)


def h_grazing_prime(p, params: ModelParams):
    """Derivative kk/(P+kk)^2 of the grazing response."""
    _check_nonneg(p, "p")
    return params.kk / (p + params.kk) ** 2


def h_inverse(y, params: ModelParams):
    """Inverse of the grazing response on (0, 1): P = kk*y/(1-y)."""
    if np.ndim(y) == 0:
        if not 0 < y < 1:
            raise DomainError(f"h_inverse requires y in (0, 1), got {y!r}")
    elif np.any((np.asarray(y) <= 0) | (np.asarray(y) >= 1)):
        raise DomainError("h_inverse requires y in (0, 1) everywhere")
    return params.kk * y / (1.0 - y)


def r_growth(p, params: ModelParams):
    """Juvenile growth rate R(P): 1 for the constant variant, P/(P+l) otherwise."""
    _check_nonneg(p, "p")
    if params.l is None:
        return np.ones_like(p, dtype=float) if np.ndim(p) else 1.0
    return p / (p + params.l)


def r_growth_prime(p, params: ModelParams):
    """Derivative of R(P): 0 for the constant variant, l/(P+l)^2 otherwise."""
    _check_nonneg(p, "p")
    if params.l is None:
        return np.zeros_like(p, dtype=float) if np.ndim(p) else 0.0
    return params.l / (p + params.l) ** 2


def dde_rhs(
    current: StateNPZ,
    delayed: StateNPZ,
    tau_hat_m: float,
    params: ModelParams,
) -> StateNPZ:
    """Right-hand side of the fixed-delay model in transformed time.

    ``current`` is the state at transformed time t_hat, ``delayed`` the state
    one delay T = m/r_star earlier, and ``tau_hat_m`` the accumulated
    physical-time maturation lag over that window.  Raises SingularRateError
    when R(P) at either sample falls below ``params.r_floor``.
    """
    if not (current.p > 0 and delayed.p > 0):
        raise DomainError("dde_rhs requires strictly positive phytoplankton samples")
    params.require_r_star()
    _check_nonneg(current.n, "n")
    return StateNPZ(*_rhs(
        current.n, current.p, current.z, delayed.p, delayed.z, tau_hat_m, params
    ))


def _r(p: float, params: ModelParams) -> float:
    """R(P) on a plain float already known to be positive."""
    return 1.0 if params.l is None else p / (p + params.l)


def _rhs(
    n: float, p: float, z: float, p_del: float, z_del: float,
    tau_hat_m: float, params: ModelParams,
) -> tuple[float, float, float]:
    """Unvalidated :func:`dde_rhs` on plain floats, for the integrator loop.

    The caller guarantees p, p_del > 0, n >= 0 and a resolved r_star; the
    singular-rate guard stays here because it depends on the values.
    """
    r_cur = _r(p, params)
    r_del = _r(p_del, params)
    if r_cur < params.r_floor or r_del < params.r_floor:
        raise SingularRateError(
            f"growth rate below floor {params.r_floor:g} (approaching the phase-space boundary)"
        )
    rs = params.r_star
    pref = rs / r_cur
    growth = params.mu * p * (n / (n + params.k))
    graze = params.g * z * (p / (p + params.kk))
    recycle = (
        params.lam * p
        + params.delta * z
        + (1.0 - params.gamma) * graze
        + params.delta0 * (params.n_total - n - p - z)
    )
    birth = (
        params.gamma
        * params.g
        * math.exp(-params.delta0 * tau_hat_m)
        * (rs / r_del)
        * z_del
        * (p_del / (p_del + params.kk))
    )
    return (
        pref * (-growth + recycle),
        pref * (growth - params.lam * p - graze),
        birth - pref * params.delta * z,
    )


def juvenile_pool(
    p_window: np.ndarray,
    z_window: np.ndarray,
    dt_hat: float,
    params: ModelParams,
) -> float:
    """Integrated juvenile biomass over a uniformly sampled delay window.

    The window samples run in increasing transformed time and must span
    exactly the delay ``T = m/r_star`` (the last sample is "now").  The
    maturity integral uses the composite trapezoid rule on the grid mapped
    through s = r_star * (t_hat_now - r), with the maturation lag
    tau_hat(s) accumulated by the same rule.
    """
    rs = params.require_r_star()
    n_panels = p_window.shape[0] - 1
    if n_panels == 0:
        return 0.0
    r_vals = r_growth(p_window, params)
    if np.any(r_vals < params.r_floor):
        raise SingularRateError("growth rate below floor inside the history window")
    inv_r = rs / r_vals
    # tau_hat at s_j, accumulated right-to-left from "now"
    rev = inv_r[::-1]
    tau_hat = np.concatenate(([0.0], np.cumsum(dt_hat * 0.5 * (rev[:-1] + rev[1:]))))
    integrand = (
        np.exp(-params.delta0 * tau_hat)
        * params.gamma
        * params.g
        * z_window[::-1]
        * h_grazing(p_window[::-1], params)
        * inv_r[::-1]
        / rs
    )
    ds = rs * dt_hat
    return float(ds * (integrand[0] / 2 + integrand[1:-1].sum() + integrand[-1] / 2))


def conservation_value(
    t_hat: np.ndarray,
    n: np.ndarray,
    p: np.ndarray,
    z: np.ndarray,
    params: ModelParams,
) -> float:
    """Total biomass carried by a sampled trajectory window.

    Returns N + P + Z at the final sample plus the juvenile pool integrated
    over the trailing delay window.  The samples must be uniform in
    transformed time and span at least one delay T = m/r_star with T an
    integer number of steps.
    """
    rs = params.require_r_star()
    t_hat = np.asarray(t_hat, dtype=float)
    if t_hat.size < 2 and params.m > 0:
        raise InsufficientHistoryError("need at least one delay of history")
    big_t = params.m / rs
    if params.m == 0:
        return float(n[-1] + p[-1] + z[-1])
    dt = t_hat[1] - t_hat[0]
    if not np.allclose(np.diff(t_hat), dt, rtol=1e-9, atol=1e-12 * max(dt, 1.0)):
        raise DomainError("conservation_value requires a uniform transformed-time grid")
    n_panels = big_t / dt
    n_round = round(n_panels)
    if n_round < 1 or abs(n_panels - n_round) > 1e-6:
        raise DomainError("the delay must be an integer number of grid steps")
    if t_hat.size < n_round + 1:
        raise InsufficientHistoryError(
            f"window has {t_hat.size} samples but the delay spans {n_round + 1}"
        )
    pool = juvenile_pool(
        np.asarray(p, dtype=float)[-(n_round + 1):],
        np.asarray(z, dtype=float)[-(n_round + 1):],
        dt,
        params,
    )
    return float(n[-1] + p[-1] + z[-1] + pool)
