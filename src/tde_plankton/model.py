"""Closed NPZ model with a maturity-structured juvenile zooplankton pool.

This module holds the parameter container, the saturating functional
responses (nutrient uptake, grazing, juvenile growth rate) together with
their derivatives and inverses, the right-hand side of the fixed-delay form
of the model written in transformed time, the juvenile-pool quadrature over
every delay window of a sampled run, and the conserved total-biomass
functional of one window.

Units are fixed throughout the package: biomass pools in uM nitrogen, time
in days, and maturity in dimensionless units accumulated at rate R(P) with
sup R = 1 for both response variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
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

#: Largest rise of the discount exponent delta0*tau_hat across the "nows" of
#: one block of :func:`juvenile_pool`.  The prefix sums scale samples by up
#: to exp(POOL_EXP_SPAN), and their rounding grows by about 1e-16 per unit.
POOL_EXP_SPAN = 50.0

#: Most entries of one group of blocks of :func:`juvenile_pool`: its
#: temporaries hold (blocks, block + lag) entries, so a run whose blocks
#: shrink far below the lag takes them a group at a time.
POOL_GROUP_ENTRIES = 2**20


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
        # getattr, not vars(self): building __dict__ would slow every
        # attribute read in the integrator loop
        for field in fields(self):
            value = getattr(self, field.name)
            if value is not None and not math.isfinite(value):
                raise ParamError(f"{field.name} must be finite, got {value!r}")
        for name in ("mu", "lam", "g", "delta", "k", "kk", "n_total"):
            if not getattr(self, name) > 0:
                raise ParamError(f"{name} must be positive, got {getattr(self, name)!r}")
        if not 0 < self.gamma <= 1:
            raise ParamError(f"gamma must lie in (0, 1], got {self.gamma!r}")
        if not self.delta0 >= 0:
            raise ParamError(f"delta0 must be nonnegative, got {self.delta0!r}")
        if not self.m >= 0:
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

    def with_r_star(self, r_star: float) -> "ModelParams":
        return replace(self, r_star=r_star)

    def require_r_star(self) -> float:
        if self.r_star is None:
            raise ParamError(
                "r_star has not been resolved; call equilibria.resolve_r_star first"
            )
        return self.r_star


def _check_nonneg(x, name: str) -> None:
    if type(x) is float or np.ndim(x) == 0:  # plain floats skip np.ndim
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
    rs = params.require_r_star()
    _check_nonneg(current.n, "n")
    # R(P) as r_growth gives it: p / (p + 0) is exactly 1 for positive p
    el = 0.0 if params.l is None else params.l
    r_cur = current.p / (current.p + el)
    r_del = delayed.p / (delayed.p + el)
    if r_cur < params.r_floor or r_del < params.r_floor:
        raise SingularRateError(f"growth rate below floor {params.r_floor:g} "
                                "(approaching the phase-space boundary)")
    return StateNPZ(*rhs_kernel(params)(current.n, current.p, current.z, rs / r_cur,
                                        delayed.p, delayed.z, rs / r_del, tau_hat_m))


def rhs_kernel(params: ModelParams):
    """Unvalidated :func:`dde_rhs` on plain floats, with ``params`` bound.

    Returns ``rhs(n, p, z, pref, p_del, z_del, pref_del, tau_hat_m) -> (dn, dp, dz)``,
    built once per run so the integrator loop reads no parameter attribute.
    The caller passes the r_star/R(P) factors ``pref`` and ``pref_del`` of
    both samples and guarantees p, p_del > 0, n >= 0 and that both rates
    passed ``params.r_floor``; the kernel computes no R and raises nothing.
    """
    mu, lam, g, delta, delta0 = params.mu, params.lam, params.g, params.delta, params.delta0
    k, kk, n_total = params.k, params.kk, params.n_total
    gg, recycled = params.gamma * g, 1.0 - params.gamma

    def rhs(n, p, z, pref, p_del, z_del, pref_del, tau_hat_m):
        growth = mu * p * (n / (n + k))
        graze = g * z * (p / (p + kk))
        recycle = lam * p + delta * z + recycled * graze + delta0 * (n_total - n - p - z)
        birth = gg * math.exp(-delta0 * tau_hat_m) * pref_del * z_del * (p_del / (p_del + kk))
        return (
            pref * (-growth + recycle),
            pref * (growth - lam * p - graze),
            birth - pref * delta * z,
        )

    return rhs


def juvenile_pool(
    t_hat: np.ndarray,
    p: np.ndarray,
    z: np.ndarray,
    lag: int,
    params: ModelParams,
) -> np.ndarray:
    """Integrated juvenile biomass of every window of ``lag + 1`` samples.

    The samples run in increasing transformed time, one delay being ``lag``
    steps; window k covers samples k..k+lag, the last being "now", so the
    result has ``len(t_hat) - lag`` entries (zeros when ``lag == 0``).  The
    maturity integral uses the composite trapezoid rule on the grid mapped
    through s = r_star * (t_hat_now - r), with the maturation lag tau_hat(s)
    accumulated by the same rule and each window's step dt_k taken from its
    own first two stored times (stored times drift from multiples of the
    step by rounding; over the fig7 horizon a fixed step would move the pool
    by 1e-12*n_total).

    The cost is linear in the number of samples, whatever the lag.  With c
    the unit-step running trapezoid of r_star/R, the discount of sample i in
    window k is exp(-delta0*dt_k*(c_now - c_i)), which splits into a factor
    of "now" and one of the sample at a common step h.  So each window's sum
    is a difference of prefix sums, taken in blocks of at most ``lag``
    windows with c rebased at each block's first "now" (fewer windows where
    the exponent would pass POOL_EXP_SPAN) and h the step of the block's
    first window.  That window is then summed as in a call that holds it
    alone, so a run's first pool is bit-equal to its history's.  dt_k enters
    the exponent to first order, through a second prefix sum; the next term
    is about 1e-22 relative for stored times.  Each block spans its windows
    and the lag before them, so the blocks are summed in groups of at most
    POOL_GROUP_ENTRIES samples (one block at least), which bounds the
    memory where the blocks shrink.
    """
    rs = params.require_r_star()
    r_vals = r_growth(p, params)
    if np.any(r_vals < params.r_floor):
        raise SingularRateError("growth rate below floor inside the history window")
    n_out = t_hat.size - lag
    if lag == 0 or n_out == 0:
        return np.zeros(n_out)
    inv_r = rs / r_vals
    # per-sample birth flux over r_star
    weight = params.gamma * params.g * z * h_grazing(p, params) * inv_r / rs
    dt = t_hat[1:n_out + 1] - t_hat[:n_out]  # each window's own step
    panel = 0.5 * (inv_r[:-1] + inv_r[1:])

    block = lag
    if params.delta0 > 0:
        c_run = np.concatenate(([0.0], np.cumsum(panel)))
        rate_max = params.delta0 * np.max(dt)
        while block > 1:
            first = np.arange(lag, t_hat.size, block)
            last = np.minimum(first + block - 1, t_hat.size - 1)
            if rate_max * np.max(c_run[last] - c_run[first]) <= POOL_EXP_SPAN:
                break
            block //= 2
    # block b holds windows b*block.., that is samples b*block..b*block+width-1;
    # padding completes the last block and is dropped at the end
    n_blocks = -(-n_out // block)
    width = block + lag
    pad = n_blocks * block - n_out
    weight, panel, dt = (np.concatenate((x, np.full(pad, fill)))
                         for x, fill in ((weight, 0.0), (panel, 0.0), (dt, dt[-1])))
    dt = dt.reshape(n_blocks, block)
    windows = np.lib.stride_tricks.sliding_window_view
    panels = windows(panel, width - 1)[::block]
    weights = windows(weight, width)[::block]
    out = np.empty((n_blocks, block))
    # each block is summed on its own, so the groups change no value
    group = max(1, POOL_GROUP_ENTRIES // width)
    for b in range(0, n_blocks, group):
        rows = slice(b, b + group)
        out[rows] = _pool_blocks(panels[rows], weights[rows], dt[rows], lag, rs, params.delta0)
    return out.ravel()[:n_out]


def _pool_blocks(
    panels: np.ndarray, weights: np.ndarray, dt: np.ndarray, lag: int, rs: float,
    delta0: float,
) -> np.ndarray:
    """The pools of the windows of some blocks of :func:`juvenile_pool`: per
    block (a row), its ``width - 1`` panels of r_star/R, its ``width``
    weights and the steps of its windows."""
    n_blocks, block = dt.shape
    width = block + lag
    h = dt[:, :1]
    rate = delta0 * h
    # c summed outwards from the block's first "now", to keep its rounding
    # small on the samples that weigh most
    c = np.zeros((n_blocks, width))
    np.cumsum(panels[:, lag:], axis=1, out=c[:, lag + 1:])
    np.cumsum(panels[:, lag - 1::-1], axis=1, out=c[:, lag - 1::-1])
    c[:, :lag] *= -1.0
    g = np.exp(rate * c)
    g *= weights
    c_now = c[:, lag:]

    def window_sums(x):
        prefix = np.zeros((n_blocks, width + 1))
        np.cumsum(x, axis=1, out=prefix[:, 1:])
        return prefix[:, lag + 1:] - prefix[:, :block] - 0.5 * (x[:, :block] + x[:, lag:])

    total = window_sums(g)
    moment = window_sums(c * g)  # sum of c_i g_i
    return rs * dt * np.exp(-rate * c_now) * (
        total - delta0 * (dt - h) * (c_now * total - moment))


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
    window = slice(-(n_round + 1), None)
    pool = juvenile_pool(
        t_hat[window],
        np.asarray(p, dtype=float)[window],
        np.asarray(z, dtype=float)[window],
        n_round,
        params,
    )
    return float(n[-1] + p[-1] + z[-1] + pool[0])
