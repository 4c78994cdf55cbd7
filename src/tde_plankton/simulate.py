"""Time integration of the fixed-delay system from a sampled history.

The integrator works in transformed time, where the delay is the constant
T = m/r_star and the state-dependence of the maturation lag survives only
inside the mortality discount exp(-delta0*tau_hat(m)).  A fixed step that
divides T exactly makes every delayed lookup land on a stored grid node, so
the two-stage second-order scheme (Heun / explicit trapezoid) keeps its
order without history interpolation.  The running threshold quadrature
tau_hat(m) is advanced panel-by-panel and refreshed from scratch
periodically to kill accumulation drift.

A run is one series of samples: the history window followed by the steps.
The conservation residual of every row (N + P + Z plus the juvenile pool,
minus the total biomass) is not needed by the step loop, so it is filled in
after the loop by :func:`model.juvenile_pool`, the quadrature that also set
the nutrient level at time zero.

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

    kind: str  # "equilibrium" | "constant"
    eps_p: float = 0.0
    eps_z: float = 0.0
    p0: float | None = None
    z0: float | None = None
    n0_offset: float = 0.0

    @classmethod
    def at_equilibrium(cls, eps_p: float = 0.0, eps_z: float = 0.0,
                       n0_offset: float = 0.0) -> "HistorySpec":
        return cls(kind="equilibrium", eps_p=eps_p, eps_z=eps_z, n0_offset=n0_offset)

    @classmethod
    def constant(cls, p0: float, z0: float, n0_offset: float = 0.0) -> "HistorySpec":
        return cls(kind="constant", p0=p0, z0=z0, n0_offset=n0_offset)


@dataclass(frozen=True)
class HistoryBuffer:
    """The initial history: uniform transformed-time samples on one delay
    window [-T, 0], the last at time zero.

    ``inv_r`` holds the per-sample factors r_star/R(P) and ``tau_m`` the
    maturation lag tau_hat(m) at time zero, their trapezoid over the window.
    The arrays are read-only, so one history can start any number of runs.
    """

    t_hat: np.ndarray
    n: np.ndarray
    p: np.ndarray
    z: np.ndarray
    inv_r: np.ndarray
    tau_m: float
    dt_hat: float
    params: ModelParams

    def __post_init__(self) -> None:
        for arr in (self.t_hat, self.n, self.p, self.z, self.inv_r):
            arr.flags.writeable = False

    @property
    def n_delay_panels(self) -> int:
        return self.t_hat.size - 1


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


def _lag_trapezoid(inv_r: np.ndarray, dt_hat: float) -> float:
    """tau_hat(m) over one delay window: the trapezoid of its r_star/R
    factors ``inv_r`` (zero for a one-sample window, that is without delay)."""
    if inv_r.size < 2:
        return 0.0
    return float(dt_hat * (0.5 * inv_r[0] + inv_r[1:-1].sum() + 0.5 * inv_r[-1]))


def build_initial(spec: HistorySpec, params: ModelParams, dt_hat: float) -> HistoryBuffer:
    """Fill the delay window from a history specification.

    The nutrient level at time zero comes from :func:`model.juvenile_pool`,
    the quadrature that :func:`integrate` applies to every row's window, so
    the conservation law holds on the discrete grid at time zero up to the
    requested offset and the last bits of one sum.
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
    else:
        raise DomainError(f"unknown history kind {spec.kind!r}")

    if np.any(p_hist <= 0):
        raise DomainError("phytoplankton history must be strictly positive")
    if np.any(z_hist < 0):
        raise DomainError("zooplankton history must be nonnegative")

    # juvenile_pool also holds R above its floor on every sample
    pool = model.juvenile_pool(grid, p_hist, z_hist, n_panels, params)[0]
    n0 = params.n_total - p_hist[-1] - z_hist[-1] - pool + spec.n0_offset
    if n0 <= 0:
        raise InfeasibleBiomassError(
            f"history implies nonpositive nutrient pool n0={n0:g}"
        )
    inv_r = rs / model.r_growth(p_hist, params)
    return HistoryBuffer(grid, np.full(grid.size, n0), p_hist, z_hist, inv_r,
                         _lag_trapezoid(inv_r, dt_hat), dt_hat, params)


def integrate(
    buf: HistoryBuffer,
    horizon_hat: float,
    *,
    tau_refresh_interval: int = TAU_REFRESH_INTERVAL,
) -> Trajectory:
    """Advance the history ``buf`` to ``horizon_hat`` with the two-stage scheme.

    The run takes its parameters from the buffer and leaves it untouched:
    the history and the steps go into arrays sized once for the whole run,
    and the trajectory holds views of them.  Stage one evaluates the
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
    rs = params.r_star
    # the remedy for a step that leaves the positive domain: run.dt_hat must
    # divide T, so a finer step means more steps per delay
    finer = f"raise run.dt_panels (now {lag} steps per delay)" if lag else "reduce run.dt_hat"

    # the history window, then the steps and a spare row for a floor crossing
    size = lag + n_steps + 2
    t_hat, n, p, z, inv_r = (np.empty(size) for _ in range(5))
    hist = slice(0, lag + 1)
    t_hat[hist], n[hist], p[hist], z[hist], inv_r[hist] = (
        buf.t_hat, buf.n, buf.p, buf.z, buf.inv_r
    )
    tau_m = np.empty(n_steps + 2)
    tau_m[0] = tau_now = buf.tau_m
    # the loop reads and writes single samples as Python floats
    t_v, n_v, p_v, z_v, r_v, tau_v = map(memoryview, (t_hat, n, p, z, inv_r, tau_m))
    termination = Termination.HORIZON_REACHED
    tau_drift_max = 0.0
    crossing = None
    rhs = model.rhs_kernel(params)
    # R(p) = p / (p + el) at the predictor and the new sample, as in rhs
    el, r_floor = (0.0 if params.l is None else params.l), params.r_floor
    half_dt = 0.5 * dt

    # the loop carries the current node, its r_star/R factor and stage one's
    # delayed sample, which is stage two's delayed sample of the step before
    i = lag  # the last sample written, at t_hat = 0 before the first step
    t_now, cn, cp, cz, inv_r_now = t_v[i], n_v[i], p_v[i], z_v[i], r_v[i]
    p_del, z_del, inv_r_del = p_v[0], z_v[0], r_v[0]
    for step in range(1, n_steps + 1):
        if cp <= p_floor:
            termination = Termination.EXTINCTION
            break
        try:
            k1n, k1p, k1z = rhs(cn, cp, cz, p_del, z_del, tau_now)
        except SingularRateError:
            termination = Termination.SINGULAR_RATE
            break

        pn, pp, pz = cn + dt * k1n, cp + dt * k1p, cz + dt * k1z
        if pp <= p_floor:
            theta = (cp - p_floor) / (cp - pp)
            crossing = (t_now + theta * dt, StateNPZ(
                cn + theta * dt * k1n, p_floor, max(cz + theta * dt * k1z, 0.0)
            ))
            break
        if pn < 0:
            raise DomainError(f"predictor left the positive domain; {finer}")

        # lag over the predicted window: add the new panel, drop the oldest;
        # a predictor below the rate floor ends the run in stage two's rhs
        if lag > 0:
            d = i + 1 - lag
            p_del, z_del, inv_r_next = p_v[d], z_v[d], r_v[d]
            oldest = half_dt * (inv_r_del + inv_r_next)
            tau_pred = tau_now + half_dt * (inv_r_now + rs / (pp / (pp + el))) - oldest
        else:
            # no delay: the "delayed" sample at the next node is the node itself
            tau_pred = 0.0
            p_del, z_del = pp, pz
        try:
            k2n, k2p, k2z = rhs(pn, pp, pz, p_del, z_del, tau_pred)
        except SingularRateError:
            termination = Termination.SINGULAR_RATE
            break

        n_new = cn + half_dt * (k1n + k2n)
        p_new = cp + half_dt * (k1p + k2p)
        z_new = cz + half_dt * (k1z + k2z)
        if p_new <= p_floor:
            theta = (cp - p_floor) / (cp - p_new)
            crossing = (t_now + theta * dt, StateNPZ(
                cn + theta * (n_new - cn), p_floor, max(cz + theta * (z_new - cz), 0.0)
            ))
            break
        if z_new < 0:
            if z_new > -1e-12 * params.n_total:
                z_new = 0.0  # roundoff in the collapsed tail
            else:
                raise DomainError(f"corrected step drove zooplankton negative; {finer}")
        if n_new <= 0:
            raise DomainError(f"corrected step drove nutrient nonpositive; {finer}")
        r_new = p_new / (p_new + el)
        if r_new < r_floor:
            raise SingularRateError("growth rate below floor at a new sample")

        i += 1
        t_now += dt
        inv_r_new = rs / r_new
        t_v[i], n_v[i], p_v[i], z_v[i], r_v[i] = t_now, n_new, p_new, z_new, inv_r_new
        if lag > 0:
            tau_new = tau_now + half_dt * (inv_r_now + inv_r_new) - oldest
            if step % tau_refresh_interval == 0:
                scratch = _lag_trapezoid(inv_r[i - lag: i + 1], dt)
                tau_drift_max = max(tau_drift_max, abs(tau_new - scratch))
                tau_new = scratch
            inv_r_del = inv_r_next
        else:
            tau_new = 0.0
            p_del, z_del = p_new, z_new
        tau_v[step] = tau_now = tau_new
        cn, cp, cz, inv_r_now = n_new, p_new, z_new, inv_r_new

    on_grid = i + 1 - lag  # rows on the uniform grid
    end = i + 1
    if crossing is not None:
        # The floor-crossing row sits off the uniform grid and the growth
        # rate has collapsed there, so it carries the last regular 1/R factor
        # (its physical time is then a lower bound; the true transform
        # diverges at the boundary), the last lag and the last on-grid
        # conservation residual.
        termination = Termination.EXTINCTION
        t_hat[end], (n[end], p[end], z[end]) = crossing
        inv_r[end] = inv_r[i]
        tau_m[on_grid] = tau_m[on_grid - 1]
        end += 1

    rows = slice(lag, end)
    cons = n[rows] + p[rows] + z[rows]
    cons[:on_grid] += model.juvenile_pool(t_hat[:i + 1], p[:i + 1], z[:i + 1], lag, params)
    cons -= params.n_total
    cons[on_grid:] = cons[on_grid - 1]
    clock = to_physical_time(t_hat[hist], inv_r[hist])
    return Trajectory(
        t_hat=t_hat[rows],
        t=to_physical_time(t_hat[rows], inv_r[rows]),
        n=n[rows],
        p=p[rows],
        z=z[rows],
        tau_m=tau_m[:end - lag],
        cons_residual=cons,
        inv_r=inv_r[rows],
        termination=termination,
        dt_hat=dt,
        params=params,
        hist_t=clock - clock[-1],
        hist_p=p[hist],
        hist_z=z[hist],
        tau_drift_max=tau_drift_max,
    )


def to_physical_time(t_hat: np.ndarray, inv_r: np.ndarray) -> np.ndarray:
    """Physical time of the samples, zero at the first: the trapezoid
    quadrature of their r_star/R factors ``inv_r`` over ``t_hat``."""
    incr = 0.5 * np.diff(t_hat) * (inv_r[:-1] + inv_r[1:])
    return np.concatenate(([0.0], np.cumsum(incr)))


def _lagged(traj: Trajectory, t, s) -> tuple[np.ndarray, ...]:
    """Lagged time t' with maturity(t) - maturity(t') = s, and P and Z there.

    Inverts the maturity integral (the trapezoid of R(P) over physical time)
    of the history-plus-run series at the physical times ``t`` for the
    maturities ``s``; the last item marks the queries whose lag stays inside
    the stored history.
    """
    t_full, p_full, z_full = (np.concatenate([hist[:-1], run]) for hist, run in (
        (traj.hist_t, traj.t), (traj.hist_p, traj.p), (traj.hist_z, traj.z)))
    r = model.r_growth(p_full, traj.params)
    cum = np.concatenate(([0.0], np.cumsum(0.5 * np.diff(t_full) * (r[:-1] + r[1:]))))
    target = np.interp(t, t_full, cum) - s
    t_del = np.interp(target, cum, t_full)
    return (t_del, np.interp(t_del, t_full, p_full), np.interp(t_del, t_full, z_full),
            target >= cum[0] - 1e-12)


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
    t_rows = traj.t
    if t_rows.size < 5:
        raise InsufficientHistoryError("run too short for interior residuals")
    big_t_hat = params.m / params.require_r_star()
    t_hat_min = 2.0 * big_t_hat + 2.0 * traj.dt_hat
    eligible = np.where(traj.t_hat >= t_hat_min)[0]
    if eligible.size == 0 or eligible[0] >= t_rows.size - 1:
        raise InsufficientHistoryError("run too short to clear the start-up kinks")

    # nodes whose lag reaches past the stored history are skipped
    idx = np.arange(max(eligible[0], 1), t_rows.size - 1)
    t_del, p_d, z_d, inside = _lagged(traj, t_rows[idx], params.m)
    idx, t_del, p_d, z_d = idx[inside], t_del[inside], p_d[inside], z_d[inside]
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
    if not traj.hist_t[0] <= t <= traj.t[-1]:
        raise OutOfRegionError("query time outside the stored run")
    t_del, p_d, z_d, inside = _lagged(traj, t, s_grid)
    if not inside.all():
        raise OutOfRegionError("threshold reaches past the stored history")
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
