from dataclasses import dataclass

import numpy as np
import pytest

from tde_plankton import model
from tde_plankton.equilibria import EquilibriumKind, EquilibriumPoint
from tde_plankton.exceptions import DomainError
from tde_plankton.model import ModelParams
from tde_plankton.simulate import HistorySpec, build_initial, integrate


@pytest.fixture
def table1():
    """Default rates with the saturating growth response at l = 0.159."""
    def make(**kw):
        base = dict(delta0=0.0, l=0.159, m=0.0, n_total=1.0)
        base.update(kw)
        return ModelParams(**base)
    return make


def bisect_oracle(fn, lo, hi, tol=1e-12, max_iter=500):
    """Plain bisection, independent of the package root finders."""
    f_lo = fn(lo)
    assert f_lo * fn(hi) < 0, "oracle bracket must straddle the root"
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol:
            return mid
        f_mid = fn(mid)
        if f_mid == 0:
            return mid
        if f_mid * f_lo < 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def trapezoid(y, x):
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    return float(np.sum(0.5 * np.diff(x) * (y[:-1] + y[1:])))


def equilibrium_spectrum(eq: EquilibriumPoint, s, params: ModelParams):
    """Equilibrium juvenile density over maturity: gg*Z*h(P)/R(P) * exp(-delta0*s/R(P))."""
    if eq.kind is EquilibriumKind.LIMIT_E0:
        raise DomainError("the plankton-free limit point has no juvenile spectrum")
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 0) or np.any(s_arr > params.m):
        raise DomainError("maturity argument outside [0, m]")
    if eq.z_star == 0.0:
        out = np.zeros_like(s_arr)
        return float(out) if np.ndim(s) == 0 else out
    r = model.r_growth(eq.p_star, params)
    amp = params.gamma * params.g * eq.z_star * model.h_grazing(eq.p_star, params) / r
    out = amp * np.exp(-params.delta0 * s_arr / r)
    return float(out) if np.ndim(s) == 0 else out


@dataclass(frozen=True)
class DeltaDecayReport:
    """Outcome of tracking a deliberately injected conservation offset."""

    kind: str  # "decay_fit" | "conserved" | "zero"
    rate: float | None
    delta_initial: float
    max_abs_deviation: float


def delta_decay_check(
    spec: HistorySpec,
    params: ModelParams,
    dt_hat: float,
    horizon_hat: float,
) -> DeltaDecayReport:
    """Fit the decay rate of the conservation mismatch along a run.

    The mismatch obeys d(Delta)/dt = -delta0 * Delta in physical time, so
    the log-magnitude slope recovers -delta0.  With delta0 = 0 (or a
    sign-crossing mismatch) the report carries the deviation from constancy
    instead of a rate.
    """
    traj = integrate(build_initial(spec, params, dt_hat), horizon_hat)
    delta = traj.cons_residual
    d0 = float(delta[0])
    if abs(d0) < 1e-13 * params.n_total:
        return DeltaDecayReport(
            kind="zero", rate=None, delta_initial=d0,
            max_abs_deviation=float(np.max(np.abs(delta))),
        )
    if params.delta0 == 0.0 or np.any(delta * d0 <= 0):
        return DeltaDecayReport(
            kind="conserved", rate=None, delta_initial=d0,
            max_abs_deviation=float(np.max(np.abs(delta - d0))),
        )
    # fit while the mismatch stays well above the quadrature noise floor
    keep = np.abs(delta) >= 1e-2 * abs(d0)
    idx = np.where(~keep)[0]
    stop = idx[0] if idx.size else delta.size
    t_fit = traj.t[:stop]
    y_fit = np.log(np.abs(delta[:stop]))
    slope = float(np.polyfit(t_fit, y_fit, 1)[0])
    return DeltaDecayReport(
        kind="decay_fit", rate=slope, delta_initial=d0,
        max_abs_deviation=float(np.max(np.abs(delta - d0))),
    )
