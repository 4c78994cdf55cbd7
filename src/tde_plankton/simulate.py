"""Time integration of the fixed-delay system with history management.

The integrator works in transformed time, where the delay is the constant
T = m/r_star and the state-dependence of the maturation lag survives only
inside the mortality discount exp(-delta0*tau_hat(m)).  A fixed step that
divides T exactly makes every delayed lookup land on a stored grid node, so
the two-stage second-order scheme (Heun / explicit trapezoid) keeps its
order without history interpolation.  The running threshold quadrature
tau_hat(m) is advanced panel-by-panel and refreshed from scratch
periodically to kill accumulation drift.

The conservation residual of every row (N + P + Z plus the juvenile pool,
minus the total biomass) is not needed by the step loop, so it is filled in
after the loop by one vectorised pass over the trailing delay windows.

Each run comes back with its physical-time clock.  Diagnostics read the
run's own parameters to reconstruct the juvenile maturity spectrum, measure
the threshold-delay residual, and fit the decay rate of a deliberately
injected conservation offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import equilibria, model
from .equilibria import EquilibriumKind
from .exceptions import (
    DomainError,
    InfeasibleBiomassError,
    InsufficientHistoryError,
    OutOfRegionError,
    SingularRateError,
)
from .model import ModelParams, StateNPZ

#: Phytoplankton level (relative to total biomass) treated as extinction.
EXTINCTION_FLOOR_FRAC = 1e-12

#: Steps between from-scratch refreshes of the running threshold quadrature.
TAU_REFRESH_INTERVAL = 1000

#: Window entries per block of the post-loop conservation pass.  Sizing the
#: blocks by entries rather than rows keeps the scratch arrays at a few
#: hundred kB whatever the number of panels per delay.
CONS_BLOCK_ENTRIES = 1 << 14


class Termination(Enum):
    HORIZON_REACHED = "horizon_reached"
    EXTINCTION = "extinction"
    SINGULAR_RATE = "singular_rate"


@dataclass(frozen=True)
class HistorySpec:
    """Initial history on one delay window, plus the conservation rule.

    The nutrient level at time zero is never free: it is set to the total
    biomass minus the other pools and the juvenile integral implied by the
    (p, z) history, then shifted by ``n0_offset`` (zero for runs meant to
    satisfy the conservation law; nonzero to study the decay of the
    mismatch).
    """

    kind: str  # "equilibrium" | "constant" | "sampled"
    eps_p: float = 0.0
    eps_z: float = 0.0
    p0: float | None = None
    z0: float | None = None
    t_grid: tuple[float, ...] | None = None
    p_samples: tuple[float, ...] | None = None
    z_samples: tuple[float, ...] | None = None
    n0_offset: float = 0.0

    @classmethod
    def at_equilibrium(cls, eps_p: float = 0.0, eps_z: float = 0.0,
                       n0_offset: float = 0.0) -> "HistorySpec":
        return cls(kind="equilibrium", eps_p=eps_p, eps_z=eps_z, n0_offset=n0_offset)

    @classmethod
    def constant(cls, p0: float, z0: float, n0_offset: float = 0.0) -> "HistorySpec":
        return cls(kind="constant", p0=p0, z0=z0, n0_offset=n0_offset)

    @classmethod
    def sampled(cls, t_grid, p_samples, z_samples,
                n0_offset: float = 0.0) -> "HistorySpec":
        return cls(
            kind="sampled",
            t_grid=tuple(float(t) for t in t_grid),
            p_samples=tuple(float(p) for p in p_samples),
            z_samples=tuple(float(z) for z in z_samples),
            n0_offset=n0_offset,
        )


class HistoryBuffer:
    """Uniform transformed-time samples covering at least one delay window.

    Stores the whole run (the window is a trailing slice); keeps the running
    trapezoid sum for tau_hat(m) alongside per-sample 1/R factors.
    """

    def __init__(self, dt_hat: float, n_delay_panels: int, params: ModelParams):
        self.dt_hat = dt_hat
        self.n_delay_panels = n_delay_panels
        self.params = params
        cap = n_delay_panels + 1024
        self.t_hat = np.empty(cap)
        self.n = np.empty(cap)
        self.p = np.empty(cap)
        self.z = np.empty(cap)
        self.inv_r = np.empty(cap)
        self.size = 0
        self.tau_m_running = 0.0

    def _grow(self) -> None:
        cap = self.t_hat.size * 2
        for name in ("t_hat", "n", "p", "z", "inv_r"):
            arr = getattr(self, name)
            new = np.empty(cap)
            new[: self.size] = arr[: self.size]
            setattr(self, name, new)

    def append(self, t_hat: float, state: StateNPZ, inv_r: float | None = None) -> None:
        if self.size == self.t_hat.size:
            self._grow()
        i = self.size
        self.t_hat[i] = t_hat
        self.n[i], self.p[i], self.z[i] = state
        if inv_r is None:
            r = model._r(state.p, self.params)
            if r < self.params.r_floor:
                raise SingularRateError("growth rate below floor while appending history")
            inv_r = self.params.require_r_star() / r
        self.inv_r[i] = inv_r
        self.size = i + 1

    @property
    def now_index(self) -> int:
        return self.size - 1

    def tau_m_from_scratch(self, i_now: int | None = None) -> float:
        """Trapezoid of r_star/R over the delay window ending at i_now."""
        if self.n_delay_panels == 0:
            return 0.0
        i = self.now_index if i_now is None else i_now
        w = self.inv_r[i - self.n_delay_panels: i + 1]
        return float(self.dt_hat * (0.5 * w[0] + w[1:-1].sum() + 0.5 * w[-1]))

    def window(self, i_now: int | None = None) -> tuple[np.ndarray, ...]:
        i = self.now_index if i_now is None else i_now
        j = i - self.n_delay_panels
        return (
            self.t_hat[j: i + 1],
            self.n[j: i + 1],
            self.p[j: i + 1],
            self.z[j: i + 1],
        )


@dataclass
class Trajectory:
    """Integration output: one row per accepted step from transformed time zero.

    ``t`` is the physical time of each row, zero at transformed time zero.
    The initial window (the history on [-T, 0], at physical times up to
    zero) rides along for the diagnostics that need to look back past time
    zero.
    """

    t_hat: np.ndarray
    t: np.ndarray
    n: np.ndarray
    p: np.ndarray
    z: np.ndarray
    tau_m: np.ndarray
    cons_residual: np.ndarray
    inv_r: np.ndarray
    termination: Termination
    dt_hat: float
    params: ModelParams
    hist_t: np.ndarray
    hist_p: np.ndarray
    hist_z: np.ndarray
    tau_drift_max: float = 0.0

    def __len__(self) -> int:
        return self.t_hat.size

    def final_state(self) -> StateNPZ:
        return StateNPZ(float(self.n[-1]), float(self.p[-1]), float(self.z[-1]))


def build_initial(spec: HistorySpec, params: ModelParams, dt_hat: float) -> HistoryBuffer:
    """Fill the delay window from a history specification.

    The juvenile integral implied by the (p, z) history and the maturation
    lags tau_hat(s) are both accumulated with the same composite trapezoid
    rule the integrator uses, so the conservation law holds exactly on the
    discrete grid at time zero (up to the requested offset).
    """
    params = equilibria.resolve_r_star(params)
    rs = params.require_r_star()
    big_t = params.m / rs
    if params.m > 0:
        n_panels = round(big_t / dt_hat)
        if n_panels < 1 or abs(n_panels * dt_hat - big_t) > 1e-9 * big_t:
            raise DomainError(
                f"dt_hat={dt_hat:g} must divide the delay T={big_t:g} exactly"
            )
    else:
        n_panels = 0

    grid = -big_t + dt_hat * np.arange(n_panels + 1) if n_panels else np.array([0.0])
    if spec.kind == "equilibrium":
        eq = equilibria.dominant_equilibrium(params)
        if eq.kind is not EquilibriumKind.E2:
            raise DomainError(
                "equilibrium history requires the coexistence equilibrium; "
                "use a constant history below the zooplankton threshold"
            )
        p_hist = np.full(grid.size, eq.p_star * (1.0 + spec.eps_p))
        z_hist = np.full(grid.size, eq.z_star * (1.0 + spec.eps_z))
    elif spec.kind == "constant":
        if spec.p0 is None or spec.z0 is None:
            raise DomainError("constant history needs p0 and z0")
        p_hist = np.full(grid.size, spec.p0)
        z_hist = np.full(grid.size, spec.z0)
    elif spec.kind == "sampled":
        if spec.t_grid is None:
            raise DomainError("sampled history needs a time grid")
        tg = np.asarray(spec.t_grid, dtype=float)
        if tg[0] > grid[0] or tg[-1] < grid[-1]:
            raise DomainError("sampled history must cover the whole delay window")
        p_hist = np.interp(grid, tg, np.asarray(spec.p_samples, dtype=float))
        z_hist = np.interp(grid, tg, np.asarray(spec.z_samples, dtype=float))
    else:
        raise DomainError(f"unknown history kind {spec.kind!r}")

    if np.any(p_hist <= 0):
        raise DomainError("phytoplankton history must be strictly positive")
    if np.any(z_hist < 0):
        raise DomainError("zooplankton history must be nonnegative")

    pool = model.juvenile_pool(p_hist, z_hist, dt_hat, params)
    n0 = params.n_total - p_hist[-1] - z_hist[-1] - pool + spec.n0_offset
    if n0 <= 0:
        raise InfeasibleBiomassError(
            f"history implies nonpositive nutrient pool n0={n0:g}"
        )

    buf = HistoryBuffer(dt_hat, n_panels, params)
    for i in range(grid.size):
        buf.append(float(grid[i]), StateNPZ(n0, float(p_hist[i]), float(z_hist[i])))
    buf.tau_m_running = buf.tau_m_from_scratch()
    return buf


def integrate(
    buf: HistoryBuffer,
    horizon_hat: float,
    *,
    tau_refresh_interval: int = TAU_REFRESH_INTERVAL,
) -> Trajectory:
    """Advance the buffer to ``horizon_hat`` with the two-stage scheme.

    The run takes its parameters from the buffer.  Stage one evaluates the
    rates at the current node with the running maturation lag; stage two at
    the Euler predictor with the lag updated by the predicted panel; the
    state advances by the stage average.  A step that crosses the extinction
    floor terminates the run at the crossing, located by linear
    interpolation inside the step.  The ``cons_residual`` and physical-time
    columns are computed after the loop from the stored samples.
    """
    params = buf.params
    dt = buf.dt_hat
    n_steps = int(round(horizon_hat / dt))
    p_floor = EXTINCTION_FLOOR_FRAC * params.n_total
    lag = buf.n_delay_panels

    row0 = buf.now_index  # the row for t_hat = 0 (the end of the history window)
    rows_tau = [buf.tau_m_running]
    termination = Termination.HORIZON_REACHED
    tau_drift_max = 0.0
    crossing = None

    for step in range(1, n_steps + 1):
        i = buf.now_index
        cn, cp, cz = float(buf.n[i]), float(buf.p[i]), float(buf.z[i])
        if cp <= p_floor:
            termination = Termination.EXTINCTION
            break
        tau_now = buf.tau_m_running
        try:
            k1n, k1p, k1z = model._rhs(
                cn, cp, cz, float(buf.p[i - lag]), float(buf.z[i - lag]), tau_now, params
            )
        except SingularRateError:
            termination = Termination.SINGULAR_RATE
            break

        pn, pp, pz = cn + dt * k1n, cp + dt * k1p, cz + dt * k1z
        if pp <= p_floor:
            theta = (cp - p_floor) / (cp - pp)
            crossing = (buf.t_hat[i] + theta * dt, StateNPZ(
                cn + theta * dt * k1n, p_floor, max(cz + theta * dt * k1z, 0.0)
            ))
            break
        if pn < 0:
            raise DomainError(
                "predictor left the positive domain; reduce dt_hat"
            )

        # lag over the predicted window: add the new panel, drop the oldest;
        # a predictor below the rate floor ends the run in stage two's _rhs
        if lag > 0:
            inv_r_pred = params.r_star / model._r(pp, params)
            oldest = dt * 0.5 * (buf.inv_r[i - lag] + buf.inv_r[i - lag + 1])
            tau_pred = tau_now + dt * 0.5 * (buf.inv_r[i] + inv_r_pred) - oldest
            p_del, z_del = float(buf.p[i + 1 - lag]), float(buf.z[i + 1 - lag])
        else:
            # no delay: the "delayed" sample at the next node is the node itself
            tau_pred = 0.0
            p_del, z_del = pp, pz
        try:
            k2n, k2p, k2z = model._rhs(pn, pp, pz, p_del, z_del, tau_pred, params)
        except SingularRateError:
            termination = Termination.SINGULAR_RATE
            break

        n_new = cn + 0.5 * dt * (k1n + k2n)
        p_new = cp + 0.5 * dt * (k1p + k2p)
        z_new = cz + 0.5 * dt * (k1z + k2z)
        if p_new <= p_floor:
            theta = (cp - p_floor) / (cp - p_new)
            crossing = (buf.t_hat[i] + theta * dt, StateNPZ(
                cn + theta * (n_new - cn), p_floor, max(cz + theta * (z_new - cz), 0.0)
            ))
            break
        if z_new < 0:
            if z_new > -1e-12 * params.n_total:
                z_new = 0.0  # roundoff in the collapsed tail
            else:
                raise DomainError(
                    "corrected step drove zooplankton negative; reduce dt_hat"
                )
        if n_new <= 0:
            raise DomainError("corrected step drove nutrient nonpositive; reduce dt_hat")

        buf.append(buf.t_hat[i] + dt, StateNPZ(n_new, p_new, z_new))
        if lag > 0:
            j = i + 1
            tau_new = tau_now + dt * 0.5 * (buf.inv_r[j - 1] + buf.inv_r[j]) - oldest
            if step % tau_refresh_interval == 0:
                scratch = buf.tau_m_from_scratch()
                tau_drift_max = max(tau_drift_max, abs(tau_new - scratch))
                tau_new = scratch
        else:
            tau_new = 0.0
        buf.tau_m_running = tau_new
        rows_tau.append(tau_new)

    cons = _conservation_residuals(buf, params, row0, buf.now_index)
    if crossing is not None:
        # The floor-crossing row sits off the uniform grid and the growth
        # rate has collapsed there, so it carries the last regular 1/R factor
        # (its physical time is then a lower bound; the true transform
        # diverges at the boundary), the last lag and the last on-grid
        # conservation residual.
        termination = Termination.EXTINCTION
        buf.append(*crossing, inv_r=float(buf.inv_r[buf.now_index]))
        rows_tau.append(rows_tau[-1])
        cons = np.append(cons, cons[-1])

    # appends never touch earlier samples, so the history is still in place
    sl, hist = slice(row0, buf.now_index + 1), slice(0, row0 + 1)
    t_hat, inv_r = buf.t_hat[sl].copy(), buf.inv_r[sl].copy()
    clock = to_physical_time(buf.t_hat[hist], buf.inv_r[hist])
    return Trajectory(
        t_hat=t_hat,
        t=to_physical_time(t_hat, inv_r),
        n=buf.n[sl].copy(),
        p=buf.p[sl].copy(),
        z=buf.z[sl].copy(),
        tau_m=np.array(rows_tau),
        cons_residual=cons,
        inv_r=inv_r,
        termination=termination,
        dt_hat=dt,
        params=params,
        hist_t=clock - clock[-1],
        hist_p=buf.p[hist].copy(),
        hist_z=buf.z[hist].copy(),
        tau_drift_max=tau_drift_max,
    )


def _conservation_residuals(
    buf: HistoryBuffer, params: ModelParams, first: int, last: int
) -> np.ndarray:
    """N + P + Z + juvenile pool - n_total at the grid rows first..last.

    Evaluates :func:`model.conservation_value` on the trailing delay window
    of every row at once: the same trapezoid rules, with 1/R from the stored
    r_star/R(P) factors and each window's step taken from its own first two
    stored times.  (The stored times drift from multiples of dt_hat by
    rounding; over the fig7 horizon a fixed dt_hat would move the residual
    by 1e-12*n_total.)  Windows are processed in blocks of about
    CONS_BLOCK_ENTRIES entries.
    """
    rows = slice(first, last + 1)
    out = buf.n[rows] + buf.p[rows] + buf.z[rows]
    lag = buf.n_delay_panels
    if lag == 0:
        return out - params.n_total
    rs = params.r_star
    span = slice(first - lag, last + 1)
    t_hat, inv_r = buf.t_hat[span], buf.inv_r[span]
    z, p = buf.z[span], buf.p[span]
    # per-sample birth flux over r_star, and the sums of neighbouring 1/R
    # factors that make up the lag trapezoid
    weight = params.gamma * params.g * z * model.h_grazing(p, params) * inv_r / rs
    pair = inv_r[:-1] + inv_r[1:]
    dt = t_hat[1:] - t_hat[:-1]
    # window k covers samples k..k+lag; reversed, it runs from "now" backwards
    weight_win = sliding_window_view(weight, lag + 1)[:, ::-1]
    pair_win = sliding_window_view(pair, lag)[:, ::-1]
    block = max(1, CONS_BLOCK_ENTRIES // (lag + 1))
    for a in range(0, out.size, block):
        b = min(a + block, out.size)
        tau = np.zeros((b - a, lag + 1))
        np.cumsum(dt[a:b, None] * 0.5 * pair_win[a:b], axis=1, out=tau[:, 1:])
        integrand = np.exp(-params.delta0 * tau) * weight_win[a:b]
        out[a:b] += rs * dt[a:b] * (
            integrand[:, 0] / 2 + integrand[:, 1:-1].sum(axis=1) + integrand[:, -1] / 2
        )
    return out - params.n_total


def to_physical_time(t_hat: np.ndarray, inv_r: np.ndarray) -> np.ndarray:
    """Physical time of the samples, zero at the first: the trapezoid
    quadrature of their r_star/R factors ``inv_r`` over ``t_hat``."""
    incr = 0.5 * np.diff(t_hat) * (inv_r[:-1] + inv_r[1:])
    return np.concatenate(([0.0], np.cumsum(incr)))


def _full_series(traj: Trajectory) -> tuple[np.ndarray, ...]:
    """(t, p, z) of history plus run, concatenated on the physical-time axis."""
    if traj.hist_t.size > 1:
        t = np.concatenate([traj.hist_t[:-1], traj.t])
        p = np.concatenate([traj.hist_p[:-1], traj.p])
        z = np.concatenate([traj.hist_z[:-1], traj.z])
    else:
        t, p, z = traj.t, traj.p, traj.z
    return t, p, z


def _cumulative_maturity(t: np.ndarray, p: np.ndarray, params: ModelParams) -> np.ndarray:
    r = model.r_growth(p, params)
    incr = 0.5 * np.diff(t) * (r[:-1] + r[1:])
    return np.concatenate(([0.0], np.cumsum(incr)))


def tde_residual(traj: Trajectory) -> float:
    """Max scaled defect of the threshold-delay form along the run.

    Interpolates the physical-time series, solves the threshold condition
    for the state-dependent lag at every interior node, forms the
    threshold-delay right-hand sides, and compares them against centered
    (three-point, nonuniform) finite-difference derivatives.  Scaled by
    max(1, n_total).

    Interior means past twice the delay: the constant-history start plants
    derivative kinks at times 0 and T that propagate and smooth one order
    per delay, so rows before 2T would contaminate the second-order defect
    with first-order stencil error at the kinks.
    """
    params = traj.params
    t_full, p_full, z_full = _full_series(traj)
    cum = _cumulative_maturity(t_full, p_full, params)
    t_rows = traj.t
    if t_rows.size < 5:
        raise InsufficientHistoryError("run too short for interior residuals")
    big_t_hat = params.m / params.require_r_star()
    t_hat_min = 2.0 * big_t_hat + 2.0 * traj.dt_hat
    eligible = np.where(traj.t_hat >= t_hat_min)[0]
    if eligible.size == 0 or eligible[0] >= t_rows.size - 1:
        raise InsufficientHistoryError("run too short to clear the start-up kinks")

    # the lag solves maturity(t) - maturity(t') = m by inverting the stored
    # integral; nodes whose lag reaches past the stored history are skipped
    idx = np.arange(max(eligible[0], 1), t_rows.size - 1)
    target = np.interp(t_rows[idx], t_full, cum) - params.m
    inside = target >= cum[0] - 1e-12
    idx, target = idx[inside], target[inside]
    t_del = np.interp(target, cum, t_full)
    p_d = np.interp(t_del, t_full, p_full)
    z_d = np.interp(t_del, t_full, z_full)
    ni, pi, zi = traj.n[idx], traj.p[idx], traj.z[idx]
    growth = params.mu * pi * model.f_uptake(ni, params)
    graze = params.g * zi * model.h_grazing(pi, params)
    rhs_n = (
        -growth + params.lam * pi + params.delta * zi
        + (1 - params.gamma) * graze
        + params.delta0 * (params.n_total - ni - pi - zi)
    )
    rhs_p = growth - params.lam * pi - graze
    rhs_z = (
        model.r_growth(pi, params)
        * np.exp(-params.delta0 * (t_rows[idx] - t_del))
        * params.gamma * params.g * z_d * model.h_grazing(p_d, params)
        / model.r_growth(p_d, params)
        - params.delta * zi
    )
    t0, t1, t2 = t_rows[idx - 1], t_rows[idx], t_rows[idx + 1]
    w0 = (t1 - t2) / ((t0 - t1) * (t0 - t2))
    w1 = (2 * t1 - t0 - t2) / ((t1 - t0) * (t1 - t2))
    w2 = (t1 - t0) / ((t2 - t0) * (t2 - t1))
    worst = 0.0
    for rhs, arr in ((rhs_n, traj.n), (rhs_p, traj.p), (rhs_z, traj.z)):
        deriv = w0 * arr[idx - 1] + w1 * arr[idx] + w2 * arr[idx + 1]
        worst = max(worst, float(np.max(np.abs(deriv - rhs), initial=0.0)))
    return worst / max(1.0, params.n_total)


def reconstruct_rho(traj: Trajectory, t: float, s_grid) -> np.ndarray:
    """Juvenile maturity spectrum at physical time ``t`` from the run history.

    Evaluates exp(-delta0*tau(s)) * gg * Z(t-tau) h(P(t-tau)) / R(P(t-tau))
    with the lag solved from the stored maturity integral; raises
    OutOfRegionError where the lag would reach past the stored history.
    """
    params = traj.params
    s_grid = np.asarray(s_grid, dtype=float)
    if np.any(s_grid < 0) or np.any(s_grid > params.m):
        raise DomainError("maturity grid outside [0, m]")
    t_full, p_full, z_full = _full_series(traj)
    if not t_full[0] <= t <= t_full[-1]:
        raise OutOfRegionError("query time outside the stored run")
    cum = _cumulative_maturity(t_full, p_full, params)
    target = float(np.interp(t, t_full, cum)) - s_grid
    if np.any(target < cum[0] - 1e-12):
        raise OutOfRegionError("threshold reaches past the stored history")
    t_del = np.interp(target, cum, t_full)
    p_d = np.interp(t_del, t_full, p_full)
    z_d = np.interp(t_del, t_full, z_full)
    # math.exp per element: np.exp can differ from it in the last bit
    decay = np.array([math.exp(x) for x in (-params.delta0 * (t - t_del)).tolist()])
    return (
        decay * (params.gamma * params.g) * z_d * model.h_grazing(p_d, params)
        / model.r_growth(p_d, params)
    )


def measure_frequency(traj: Trajectory) -> float | None:
    """Oscillation frequency (rad/day, physical time) from zero crossings.

    Uses upward crossings of the mean-removed phytoplankton series over the
    trailing half of the run; None when fewer than two crossings.
    """
    i0 = int(traj.t.size * 0.5)
    t, p = traj.t[i0:], traj.p[i0:]
    if t.size < 8:
        return None
    y = p - p.mean()
    ups = np.where((y[:-1] < 0) & (y[1:] >= 0))[0]
    if ups.size < 2:
        return None
    cross = t[ups] - y[ups] * (t[ups + 1] - t[ups]) / (y[ups + 1] - y[ups])
    period = (cross[-1] - cross[0]) / (ups.size - 1)
    return 2.0 * math.pi / period


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
