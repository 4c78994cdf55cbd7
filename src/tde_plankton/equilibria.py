"""Critical biomass thresholds, equilibria, and total-biomass sweeps.

Three named states organize the closed ecosystem: the plankton-free limit
point (n_total, 0, 0), the phytoplankton-only equilibrium, and the
coexistence equilibrium with positive mature zooplankton.  Which of them
dominates is decided by the total biomass relative to two thresholds, the
lower one set by the uptake response alone and the upper one additionally
carrying the standing phytoplankton stock required to sustain grazers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import model
from .exceptions import DomainError, NoCoexistenceError, NoSignChangeError, NotExistError
from .model import ModelParams, R_INFINITY

#: Relative closeness to a threshold at which a sweep point is tagged
#: degenerate instead of being assigned to a side.
DEGENERACY_RTOL = 1e-12

#: Relative width at which Brent's method stops: the tightest scipy accepts.
#: A plain float, so that the roots stay Python floats.
BRENT_RTOL = 4 * sys.float_info.epsilon


def brentq(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """Root of ``f`` on the sign-changing bracket [a, b] by Brent's method.

    A port of scipy's ``brentq.c`` (Brent 1973, *Algorithms for Minimization
    Without Derivatives*, ch. 4) in its order of operations, so it returns the
    same float as ``scipy.optimize.brentq``: an end where ``f`` is exactly 0,
    else the iterate once the bracket is narrower than ``xtol + rtol*|x|``.
    Raises ValueError when both ends have one sign or ``f`` returns NaN, and
    RuntimeError after scipy's default of 100 steps; what ``f`` raises
    propagates.
    """

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur, xtol, rtol = float(a), float(b), float(xtol), float(rtol)
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # an underflowed slope: C's inf or NaN step bisects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError("Failed to converge after 100 iterations.")


class EquilibriumKind(Enum):
    LIMIT_E0 = "e0"
    E1 = "E1"
    E2 = "E2"


@dataclass(frozen=True)
class EquilibriumPoint:
    """A steady state (or the plankton-free limit point) with its residual."""

    kind: EquilibriumKind
    n_star: float
    p_star: float
    z_star: float
    residual: float
    exists: bool


@dataclass(frozen=True)
class SweepRow:
    n_total: float
    kind: str
    n_star: float
    p_star: float
    z_star: float
    residual: float


def compute_nt1(params: ModelParams) -> float:
    """Minimum total biomass sustaining phytoplankton: f_inverse(lam/mu)."""
    return float(model.f_inverse(params.lam / params.mu, params))


def m_ceiling(params: ModelParams) -> float:
    """Largest maturity requirement admitting coexistence; +inf when delta0 = 0."""
    if params.delta0 == 0.0:
        return math.inf
    return R_INFINITY * math.log(params.gamma * params.g / params.delta) / params.delta0


def _maturity_residual(p: float, params: ModelParams) -> float:
    return (
        model.r_growth(p, params)
        * math.log(params.gamma * params.g * model.h_grazing(p, params) / params.delta)
        - params.delta0 * params.m
    )


def solve_p2star(params: ModelParams) -> float:
    """Coexistence phytoplankton level for the given maturity requirement.

    Closed form kk*r/(1-r) with r = delta/(gamma*g) when m = 0 or when
    juveniles do not die (delta0 = 0); otherwise the unique root of the
    maturity condition, found by Brent's method on a bracket whose upper end
    doubles until the residual changes sign.
    """
    p_base = float(model.h_inverse(params.delta / (params.gamma * params.g), params))
    if params.m == 0.0 or params.delta0 == 0.0:
        return p_base
    if params.m >= m_ceiling(params):
        raise NoCoexistenceError(
            f"m={params.m:g} is at or above the ceiling {m_ceiling(params):g}"
        )
    lo = p_base * (1.0 + 1e-12)
    if _maturity_residual(lo, params) >= 0.0:
        # delta0*m so small the root sits within 1e-12 of the grazing threshold
        return lo
    hi = 2.0 * lo
    for _ in range(200):
        if _maturity_residual(hi, params) > 0.0:
            return brentq(lambda p: _maturity_residual(p, params), lo, hi, xtol=1e-300,
                          rtol=BRENT_RTOL)
        hi *= 2.0
    raise NoSignChangeError(f"no sign change up to hi={hi:g}")


def compute_nt2(params: ModelParams) -> float:
    """Minimum total biomass sustaining zooplankton: nt1 + p2star."""
    return compute_nt1(params) + solve_p2star(params)


def maturity_discount(p_star: float, params: ModelParams) -> float:
    """The factor (1 - exp(-delta0*m/R))/delta0, read as m/R when delta0 = 0."""
    r = model.r_growth(p_star, params)
    if params.delta0 == 0.0:
        return params.m / r
    return (1.0 - math.exp(-params.delta0 * params.m / r)) / params.delta0


def residuals_at(
    n: float, p: float, z: float, m: float, n_total: float, params: ModelParams
) -> tuple[float, float, float]:
    """Residuals of the three steady-state equations at (n, p, z), with
    maturity and biomass passed explicitly.

    The biomass equation uses the conservation form (with the delta0 = 0
    replacement of the juvenile discount), so the triple is meaningful for
    zero juvenile mortality as well.  The boundary continuation's probe
    points carry their own (m, n_total) and may momentarily sit outside the
    validated parameter box.
    """
    f = model.f_uptake(n, params)
    h = model.h_grazing(p, params)
    r = model.r_growth(p, params)
    surv = math.exp(-params.delta0 * m / r)
    # maturity_discount at this m, from the survival already at hand
    disc = m / r if params.delta0 == 0.0 else (1.0 - surv) / params.delta0
    gg = params.gamma * params.g
    r1 = n + p + z + gg * z * h * disc - n_total
    r2 = params.mu * p * f - params.lam * p - params.g * z * h
    r3 = gg * surv * z * h - params.delta * z
    return r1, r2, r3


def limit_point(params: ModelParams) -> EquilibriumPoint:
    """The plankton-free limit point (n_total, 0, 0); not a true equilibrium."""
    return EquilibriumPoint(
        kind=EquilibriumKind.LIMIT_E0,
        n_star=params.n_total,
        p_star=0.0,
        z_star=0.0,
        residual=0.0,
        exists=True,
    )


def solve_e1(params: ModelParams) -> EquilibriumPoint:
    """Phytoplankton-only equilibrium (exists iff n_total > nt1)."""
    nt1 = compute_nt1(params)
    if params.n_total <= nt1:
        raise NotExistError(
            f"n_total={params.n_total:g} does not exceed nt1={nt1:g}"
        )
    n_star = nt1
    p_star = params.n_total - nt1
    res = float(np.max(np.abs(
        residuals_at(n_star, p_star, 0.0, params.m, params.n_total, params))))
    return EquilibriumPoint(
        kind=EquilibriumKind.E1,
        n_star=n_star,
        p_star=p_star,
        z_star=0.0,
        residual=res,
        exists=True,
    )


def _z_from_n(n: float, p2: float, params: ModelParams) -> float:
    return (
        (params.mu * model.f_uptake(n, params) - params.lam)
        * p2
        / (params.g * model.h_grazing(p2, params))
    )


def solve_e2(params: ModelParams) -> EquilibriumPoint:
    """Coexistence equilibrium (exists iff m is below the ceiling and n_total > nt2).

    The nutrient component is the unique root of the biomass balance on
    (nt1, n_total), bracketed by construction because the balance is strictly
    increasing in the nutrient level.
    """
    p2 = solve_p2star(params)
    nt1 = compute_nt1(params)
    nt2 = nt1 + p2
    if params.n_total <= nt2:
        raise NotExistError(
            f"n_total={params.n_total:g} does not exceed nt2={nt2:g}"
        )
    disc = maturity_discount(p2, params)
    h2 = model.h_grazing(p2, params)
    boost = 1.0 + params.gamma * params.g * h2 * disc

    def balance(n: float) -> float:
        return n + p2 + _z_from_n(n, p2, params) * boost - params.n_total

    n_star = brentq(balance, nt1, params.n_total, xtol=1e-300, rtol=BRENT_RTOL)
    z_star = _z_from_n(n_star, p2, params)
    res = float(np.max(np.abs(
        residuals_at(n_star, p2, z_star, params.m, params.n_total, params))))
    return EquilibriumPoint(
        kind=EquilibriumKind.E2,
        n_star=n_star,
        p_star=p2,
        z_star=z_star,
        residual=res,
        exists=n_star >= 0 and p2 >= 0 and z_star >= 0,
    )


def dominant_equilibrium(params: ModelParams) -> EquilibriumPoint:
    """The state plotted at this biomass: E2 if it exists, else E1, else the limit point."""
    if params.m < m_ceiling(params):
        try:
            return solve_e2(params)
        except NotExistError:
            pass
    try:
        return solve_e1(params)
    except NotExistError:
        return limit_point(params)


def resolve_r_star(params: ModelParams) -> ModelParams:
    """Fill in the reference growth rate unless the caller pinned one.

    Defaults to R at the dominant equilibrium's phytoplankton level, falling
    back to R(n_total) when no equilibrium exists.
    """
    if params.r_star is not None:
        return params
    eq = dominant_equilibrium(params)
    p_ref = eq.p_star if eq.kind is not EquilibriumKind.LIMIT_E0 else params.n_total
    return params.with_r_star(float(model.r_growth(p_ref, params)))


def classify_and_sweep(params: ModelParams, nt_grid) -> list[SweepRow]:
    """Dominant equilibrium per total-biomass grid point.

    Points within DEGENERACY_RTOL of either threshold are tagged degenerate
    rather than assigned to a side (both existence statements are strict).
    """
    nt_grid = np.asarray(nt_grid, dtype=float)
    if nt_grid.size and np.any(np.diff(nt_grid) <= 0):
        raise DomainError("nt_grid must be strictly increasing")
    nt1 = compute_nt1(params)
    nt2 = compute_nt2(params) if params.m < m_ceiling(params) else None
    rows: list[SweepRow] = []
    for nt in nt_grid:
        near1 = abs(nt - nt1) <= DEGENERACY_RTOL * nt
        near2 = nt2 is not None and abs(nt - nt2) <= DEGENERACY_RTOL * nt
        if near1 or near2:
            rows.append(SweepRow(float(nt), "degenerate", math.nan, math.nan, math.nan, math.nan))
            continue
        eq = dominant_equilibrium(replace(params, n_total=float(nt)))
        rows.append(
            SweepRow(
                float(nt), eq.kind.value, eq.n_star, eq.p_star, eq.z_star, eq.residual
            )
        )
    return rows
