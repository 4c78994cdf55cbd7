import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from tde_plankton import equilibria, model, simulate
from tde_plankton.config import build_config
from tde_plankton.exceptions import (
    DomainError,
    InfeasibleBiomassError,
    InsufficientHistoryError,
    OutOfRegionError,
    SingularRateError,
)
from tde_plankton.model import ModelParams, StateNPZ
from tde_plankton.presets import preset_values
from tde_plankton.simulate import HistorySpec, Termination

from conftest import delta_decay_check, equilibrium_spectrum


def fig6_params(nt=10 ** 0.49):
    return equilibria.resolve_r_star(
        ModelParams(delta0=0.17, l=0.159, m=6.0, n_total=nt)
    )


def _lag_loop(traj, params, t_query, s):
    """Delayed time and the delayed P and Z for one node, one scalar at a time."""
    t_full, p_full, z_full = (np.concatenate([h[:-1], x]) for h, x in (
        (traj.hist_t, traj.t), (traj.hist_p, traj.p), (traj.hist_z, traj.z)))
    cum = [0.0]
    for i in range(t_full.size - 1):
        r0, r1 = model.r_growth(p_full[i], params), model.r_growth(p_full[i + 1], params)
        cum.append(cum[-1] + 0.5 * (t_full[i + 1] - t_full[i]) * (r0 + r1))
    cum = np.array(cum)
    target = float(np.interp(t_query, t_full, cum)) - s
    if target < cum[0] - 1e-12:
        return None
    t_del = float(np.interp(target, cum, t_full))
    return t_del, float(np.interp(t_del, t_full, p_full)), float(np.interp(t_del, t_full, z_full))


class TestBuildInitial:
    def test_equilibrium_history_recovers_nutrient_exactly_without_mortality(self):
        # the juvenile integrand is flat when delta0 = 0, so the trapezoid
        # is exact and the conservation rule lands on the equilibrium value
        p = equilibria.resolve_r_star(
            ModelParams(delta0=0.0, l=0.159, m=6.0, n_total=10 ** 0.49)
        )
        e2 = equilibria.solve_e2(p)
        big_t = p.m / p.r_star
        buf = simulate.build_initial(HistorySpec.at_equilibrium(0, 0), p, big_t / 200)
        assert buf.n[-1] == pytest.approx(e2.n_star, rel=1e-12)

    def test_equilibrium_history_quadrature_limit_with_mortality(self):
        p = fig6_params()
        e2 = equilibria.solve_e2(p)
        big_t = p.m / p.r_star
        buf = simulate.build_initial(
            HistorySpec.at_equilibrium(0, 0), p, big_t / 40000
        )
        assert buf.n[-1] == pytest.approx(e2.n_star, rel=1e-9)

    def test_empty_juvenile_pool(self):
        p = fig6_params()
        big_t = p.m / p.r_star
        buf = simulate.build_initial(HistorySpec.constant(0.5, 0.0), p, big_t / 100)
        assert buf.n[-1] == pytest.approx(p.n_total - 0.5, rel=1e-14)

    def test_constant_history_lag_is_exact(self):
        p = fig6_params()
        big_t = p.m / p.r_star
        buf = simulate.build_initial(HistorySpec.constant(0.1, 0.01), p, big_t / 100)
        assert buf.tau_m == pytest.approx(
            p.m / model.r_growth(0.1, p), rel=1e-14
        )

    def test_infeasible_biomass_rejected(self):
        p = fig6_params()
        big_t = p.m / p.r_star
        with pytest.raises(InfeasibleBiomassError):
            simulate.build_initial(
                HistorySpec.constant(0.9 * p.n_total, 0.2 * p.n_total), p, big_t / 100
            )

    def test_nonpositive_history_rejected(self):
        p = fig6_params()
        big_t = p.m / p.r_star
        with pytest.raises(DomainError):
            simulate.build_initial(HistorySpec.constant(0.0, 0.1), p, big_t / 100)

    def test_step_must_divide_delay(self):
        p = fig6_params()
        big_t = p.m / p.r_star
        with pytest.raises(DomainError):
            simulate.build_initial(
                HistorySpec.at_equilibrium(0, 0), p, big_t / 100.5
            )

    def test_equilibrium_history_needs_coexistence(self):
        p = equilibria.resolve_r_star(
            ModelParams(delta0=0.17, l=0.159, m=6.0, n_total=0.02)
        )
        with pytest.raises(DomainError):
            simulate.build_initial(HistorySpec.at_equilibrium(0, 0), p, 0.1)


class TestIntegrate:
    def test_equilibrium_is_a_fixed_point(self):
        # delta0 = 0 makes the conservation-rule nutrient exact, so the run
        # sits at the equilibrium up to roundoff over a thousand days
        p = equilibria.resolve_r_star(
            ModelParams(delta0=0.0, l=0.159, m=6.0, n_total=10 ** 0.49)
        )
        e2 = equilibria.solve_e2(p)
        big_t = p.m / p.r_star
        buf = simulate.build_initial(HistorySpec.at_equilibrium(0, 0), p, big_t / 200)
        traj = simulate.integrate(buf, 1000.0)
        dev = max(
            np.max(np.abs(traj.n - e2.n_star)),
            np.max(np.abs(traj.p - e2.p_star)),
            np.max(np.abs(traj.z - e2.z_star)),
        )
        assert dev <= 1e-8 * p.n_total
        assert traj.termination is Termination.HORIZON_REACHED

    def test_decay_and_growth_straddle_the_boundary(self):
        outcomes = {}
        for nt in (10 ** 0.49, 10 ** 0.51):
            p = fig6_params(nt)
            e2 = equilibria.solve_e2(p)
            big_t = p.m / p.r_star
            buf = simulate.build_initial(
                HistorySpec.at_equilibrium(1e-3, 1e-3), p, big_t / 200
            )
            traj = simulate.integrate(buf, 1200.0)
            amp = np.abs(traj.p - e2.p_star)
            q = len(amp) // 4
            outcomes[nt] = (1e-3 * e2.p_star, np.max(amp[3 * q:]))
        seed, late = outcomes[10 ** 0.49]
        assert late < 0.2 * seed
        seed, late = outcomes[10 ** 0.51]
        assert late > 50.0 * seed  # saturated limit cycle, far above the seed

    def test_extinction_reaches_the_bare_state(self):
        nt1 = equilibria.compute_nt1(ModelParams())
        nt = nt1 / 2
        p = equilibria.resolve_r_star(
            ModelParams(delta0=0.17, l=0.159, m=6.0, n_total=nt)
        )
        big_t = p.m / p.r_star
        buf = simulate.build_initial(
            HistorySpec.constant(0.3 * nt, 0.1 * nt), p, big_t / 20000
        )
        traj = simulate.integrate(buf, 120.0)
        assert traj.termination is Termination.EXTINCTION
        fin = traj.final_state()
        assert max(abs(fin.n - nt), fin.p, abs(fin.z)) <= 1e-6 * nt
        # decline envelope from the uptake bound; the final collapse decade
        # is excluded because the time transform is singular at the boundary
        # and its trapezoid quadrature degrades there
        rate = p.mu * model.f_uptake(nt, p) - p.lam
        resolved = np.where(traj.p >= 0.02 * traj.p[0])[0]
        assert resolved.size > 100
        env = traj.p[0] * np.exp(rate * traj.t[resolved])
        assert np.all(traj.p[resolved] <= env * (1 + 1e-6))

    def test_all_emitted_states_stay_in_bounds(self):
        p = equilibria.resolve_r_star(
            ModelParams(delta0=0.17, l=0.159, m=8.0, n_total=10 ** 0.73)
        )
        big_t = p.m / p.r_star
        buf = simulate.build_initial(
            HistorySpec.at_equilibrium(1e-2, 1e-2), p, big_t / 400
        )
        traj = simulate.integrate(buf, 400.0)
        for arr in (traj.n, traj.p, traj.z):
            assert np.all(arr > 0)
            assert np.all(arr < p.n_total)

    def test_no_delay_reduces_to_plain_ode(self):
        p = equilibria.resolve_r_star(
            ModelParams(delta0=0.17, l=0.159, m=0.0, n_total=0.8)
        )
        e2 = equilibria.solve_e2(p)
        buf = simulate.build_initial(HistorySpec.at_equilibrium(1e-2, 0), p, 0.01)
        traj = simulate.integrate(buf, 400.0)
        fin = traj.final_state()
        assert abs(fin.p - e2.p_star) <= 1e-6
        assert np.max(np.abs(traj.cons_residual)) <= 1e-14

    def test_history_is_left_untouched(self):
        spec, p, dt_hat, _ = _fig6_run()
        buf = simulate.build_initial(spec, p, dt_hat)
        fields = ("t_hat", "n", "p", "z", "inv_r")
        before = [getattr(buf, name).copy() for name in fields]
        first, second = (simulate.integrate(buf, 20.0) for _ in range(2))
        for name in ("t_hat", "t", "n", "p", "z", "tau_m", "cons_residual", "inv_r",
                     "hist_t", "hist_p", "hist_z"):
            assert np.array_equal(getattr(first, name), getattr(second, name)), name
        for name, old in zip(fields, before):
            assert np.array_equal(getattr(buf, name), old), name

    def test_tau_running_sum_matches_scratch(self):
        p = fig6_params()
        big_t = p.m / p.r_star
        buf = simulate.build_initial(
            HistorySpec.at_equilibrium(0.05, -0.05), p, big_t / 64
        )
        traj = simulate.integrate(buf, 4 * big_t, tau_refresh_interval=1)
        assert traj.tau_drift_max <= 1e-12 * np.max(traj.tau_m)

    def test_rate_floor_in_the_predictor_ends_the_run(self):
        # the collapsing phytoplankton drives R(p) below r_floor at a
        # predictor, and the step loop's rate-floor test ends the run there
        spec, p, dt_hat, horizon = _rate_floor_run()
        traj = simulate.integrate(simulate.build_initial(spec, p, dt_hat), horizon)
        assert traj.termination is Termination.SINGULAR_RATE
        assert len(traj) == 89

    def test_conservation_residual_second_order(self):
        p = fig6_params()
        big_t = p.m / p.r_star
        worst = []
        for panels in (200, 400):
            buf = simulate.build_initial(
                HistorySpec.at_equilibrium(1e-2, -1e-2), p, big_t / panels
            )
            traj = simulate.integrate(buf, 30.0)
            worst.append(np.max(np.abs(traj.cons_residual)))
        assert 3.2 <= worst[0] / worst[1] <= 4.8


def _fig6_run():
    p = fig6_params()
    spec = HistorySpec.at_equilibrium(1e-3, 1e-3)
    return spec, p, p.m / p.r_star / 200, 100.0


def _offset_run_without_mortality():
    p = equilibria.resolve_r_star(
        ModelParams(delta0=0.0, l=0.159, m=6.0, n_total=10 ** 0.49)
    )
    spec = HistorySpec.at_equilibrium(1e-2, -1e-2, n0_offset=0.05)
    return spec, p, p.m / p.r_star / 100, 100.0


def _run_without_delay():
    p = equilibria.resolve_r_star(
        ModelParams(delta0=0.17, l=0.159, m=0.0, n_total=0.8)
    )
    return HistorySpec.at_equilibrium(1e-2, 0), p, 0.01, 50.0


def _extinction_run():
    nt = equilibria.compute_nt1(ModelParams()) / 2
    p = equilibria.resolve_r_star(ModelParams(delta0=0.17, l=0.159, m=6.0, n_total=nt))
    spec = HistorySpec.constant(0.3 * nt, 0.1 * nt)
    return spec, p, p.m / p.r_star / 2000, 120.0


def _rate_floor_run():
    nt = float(preset_values("extinction")["model.n_total"])
    p = equilibria.resolve_r_star(
        ModelParams(delta0=0.17, l=0.159, m=6.0, n_total=nt, r_floor=1e-4)
    )
    return HistorySpec.constant(0.3 * nt, 0.1 * nt), p, p.m / p.r_star / 2000, 120.0


def _extinct_history_run():
    p = equilibria.resolve_r_star(ModelParams(delta0=0.17, l=0.159, m=6.0, n_total=1.0))
    return HistorySpec.constant(5e-13, 0.1), p, p.m / p.r_star / 200, 10.0


def _integrate_reference(buf, horizon_hat, tau_refresh_interval=simulate.TAU_REFRESH_INTERVAL):
    """:func:`simulate.integrate` one sample at a time, with both stages
    through the public ``dde_rhs`` and every operand read back from the
    stored series: the step loop before its rate kernel was bound per run."""
    params, dt, lag = buf.params, buf.dt_hat, buf.n_delay_panels
    rs, p_floor = params.r_star, simulate.EXTINCTION_FLOOR_FRAC * params.n_total
    t_hat, n, p, z, inv_r = (getattr(buf, k).tolist() for k in ("t_hat", "n", "p", "z", "inv_r"))
    tau_m = [buf.tau_m]
    termination, crossing, tau_drift_max = Termination.HORIZON_REACHED, None, 0.0
    for step in range(1, int(round(horizon_hat / dt)) + 1):
        i = len(t_hat) - 1
        cur = StateNPZ(n[i], p[i], z[i])
        if cur.p <= p_floor:
            termination = Termination.EXTINCTION
            break
        try:
            k1 = model.dde_rhs(cur, StateNPZ(n[i - lag], p[i - lag], z[i - lag]), tau_m[-1],
                               params)
        except SingularRateError:
            termination = Termination.SINGULAR_RATE
            break
        pred = StateNPZ(*(c + dt * k for c, k in zip(cur, k1)))
        if pred.p <= p_floor:
            theta = (cur.p - p_floor) / (cur.p - pred.p)
            crossing = (t_hat[i] + theta * dt, cur.n + theta * dt * k1.n, p_floor,
                        max(cur.z + theta * dt * k1.z, 0.0))
            break
        if pred.n < 0:
            raise DomainError("predictor left the positive domain")
        if lag > 0:
            oldest = dt * 0.5 * (inv_r[i - lag] + inv_r[i - lag + 1])
            inv_r_pred = rs / model.r_growth(pred.p, params)
            tau_pred = tau_m[-1] + dt * 0.5 * (inv_r[i] + inv_r_pred) - oldest
            delayed = StateNPZ(n[i + 1 - lag], p[i + 1 - lag], z[i + 1 - lag])
        else:
            tau_pred, delayed = 0.0, pred
        try:
            k2 = model.dde_rhs(pred, delayed, tau_pred, params)
        except SingularRateError:
            termination = Termination.SINGULAR_RATE
            break
        new_n, new_p, new_z = (c + 0.5 * dt * (a + b) for c, a, b in zip(cur, k1, k2))
        if new_p <= p_floor:
            theta = (cur.p - p_floor) / (cur.p - new_p)
            crossing = (t_hat[i] + theta * dt, cur.n + theta * (new_n - cur.n), p_floor,
                        max(cur.z + theta * (new_z - cur.z), 0.0))
            break
        if -1e-12 * params.n_total < new_z < 0:
            new_z = 0.0
        if new_z < 0 or new_n <= 0:
            raise DomainError("corrected step left the positive domain")
        r_new = model.r_growth(new_p, params)
        if r_new < params.r_floor:
            raise SingularRateError("growth rate below floor at a new sample")
        for series, value in zip((t_hat, n, p, z, inv_r),
                                 (t_hat[i] + dt, new_n, new_p, new_z, rs / r_new)):
            series.append(value)
        tau_new = 0.0
        if lag > 0:
            tau_new = tau_m[-1] + dt * 0.5 * (inv_r[i] + inv_r[i + 1]) - oldest
            if step % tau_refresh_interval == 0:
                scratch = simulate._lag_trapezoid(np.array(inv_r[-lag - 1:]), dt)
                tau_drift_max = max(tau_drift_max, abs(tau_new - scratch))
                tau_new = scratch
        tau_m.append(tau_new)

    on_grid = len(t_hat) - lag
    lagged = model.juvenile_pool(np.array(t_hat), np.array(p), np.array(z), lag, params)
    if crossing is not None:
        # the crossing row repeats the last 1/R factor and lag
        termination = Termination.EXTINCTION
        for series, value in zip((t_hat, n, p, z, inv_r), crossing + (inv_r[-1],)):
            series.append(value)
        tau_m.append(tau_m[-1])
    t_hat, n, p, z, inv_r = (np.array(x) for x in (t_hat, n, p, z, inv_r))
    rows = slice(lag, None)
    cons = n[rows] + p[rows] + z[rows]
    cons[:on_grid] += lagged
    cons -= params.n_total
    cons[on_grid:] = cons[on_grid - 1]
    clock = simulate.to_physical_time(buf.t_hat, buf.inv_r)
    return simulate.Trajectory(
        t_hat=t_hat[rows], t=simulate.to_physical_time(t_hat[rows], inv_r[rows]),
        n=n[rows], p=p[rows], z=z[rows], tau_m=np.array(tau_m), cons_residual=cons,
        inv_r=inv_r[rows], termination=termination, dt_hat=dt, params=params,
        hist_t=clock - clock[-1], hist_p=buf.p, hist_z=buf.z, tau_drift_max=tau_drift_max,
    )


class TestAgainstTheReferenceLoop:
    """The step loop with its rate kernel bound per run and its state carried
    between steps, bit for bit against the loop it replaced."""

    @pytest.mark.parametrize("make, termination, rows", [
        (_fig6_run, Termination.HORIZON_REACHED, None),
        (_run_without_delay, Termination.HORIZON_REACHED, None),
        (_extinction_run, Termination.EXTINCTION, None),
        (_rate_floor_run, Termination.SINGULAR_RATE, 89),
        (_extinct_history_run, Termination.EXTINCTION, 1),
    ])
    def test_every_column_is_bit_equal(self, make, termination, rows):
        spec, p, dt_hat, horizon = make()
        buf = simulate.build_initial(spec, p, dt_hat)
        traj = simulate.integrate(buf, horizon, tau_refresh_interval=100)
        ref = _integrate_reference(buf, horizon, tau_refresh_interval=100)
        assert traj.termination is ref.termination is termination
        assert len(traj) == len(ref)
        assert rows is None or len(ref) == rows
        for name in ("t_hat", "t", "n", "p", "z", "tau_m", "cons_residual", "inv_r",
                     "hist_t", "hist_p", "hist_z"):
            assert np.array_equal(getattr(traj, name), getattr(ref, name)), name
        assert traj.tau_drift_max == ref.tau_drift_max


def _run_series(buf, traj):
    """(t_hat, n, p, z) of the history window followed by the run rows."""
    return tuple(
        np.concatenate([getattr(buf, name)[:-1], getattr(traj, name)])
        for name in ("t_hat", "n", "p", "z")
    )


class TestConservationColumn:
    """The post-loop residual pass against the one-window public functional."""

    @pytest.mark.parametrize("preset, offset", [
        ("fig6-stable", 0.0), ("fig7", 0.0), ("fig6-stable", 0.05),
    ])
    def test_residual_starts_at_the_offset(self, preset, offset):
        # the nutrient level at time zero and the column come from one quadrature
        cfg = build_config(preset_values(preset), None, {})
        p = equilibria.resolve_r_star(cfg.params)
        spec = HistorySpec.at_equilibrium(cfg.sim.eps_p, cfg.sim.eps_z,
                                          n0_offset=offset * p.n_total)
        buf = simulate.build_initial(spec, p, p.m / p.r_star / cfg.sim.dt_panels)
        traj = simulate.integrate(buf, 0.0)
        assert abs(traj.cons_residual[0] - spec.n0_offset) <= 2 * np.spacing(p.n_total)

    @pytest.mark.parametrize("make", [
        _fig6_run, _offset_run_without_mortality, _run_without_delay, _extinction_run,
    ])
    def test_matches_per_row_conservation_value(self, make):
        spec, p, dt_hat, horizon = make()
        buf = simulate.build_initial(spec, p, dt_hat)
        traj = simulate.integrate(buf, horizon)
        off_grid = traj.termination is Termination.EXTINCTION and not math.isclose(
            traj.t_hat[-1] - traj.t_hat[-2], dt_hat, rel_tol=1e-6
        )
        on_grid = len(traj) - 1 if off_grid else len(traj)
        series = _run_series(buf, traj)
        lag = buf.n_delay_panels
        slow = np.array([
            model.conservation_value(*(a[k: k + lag + 1] for a in series), p) - p.n_total
            for k in range(on_grid)
        ])
        assert np.max(np.abs(traj.cons_residual[:on_grid] - slow)) <= 1e-12 * p.n_total
        if make is _extinction_run:
            assert off_grid
        if off_grid:
            # the crossing row repeats the last on-grid value
            assert traj.cons_residual[-1] == traj.cons_residual[-2]


def _clock_loop(t_hat, inv_r):
    """Trapezoid clock of r_star/R from the first sample, one panel at a time."""
    out, acc = [0.0], 0.0
    for i in range(len(t_hat) - 1):
        acc += 0.5 * (t_hat[i + 1] - t_hat[i]) * (inv_r[i] + inv_r[i + 1])
        out.append(acc)
    return np.array(out)


class TestPhysicalTime:
    @pytest.mark.parametrize("make", [_fig6_run, _run_without_delay])
    def test_runs_carry_their_clock(self, make):
        spec, p, dt_hat, horizon = make()
        buf = simulate.build_initial(spec, p, dt_hat)
        traj = simulate.integrate(buf, horizon)
        assert np.isfinite(traj.t).all() and np.isfinite(traj.hist_t).all()
        assert traj.t.tolist() == _clock_loop(traj.t_hat.tolist(), traj.inv_r.tolist()).tolist()
        hist = _clock_loop(buf.t_hat.tolist(), buf.inv_r.tolist())
        assert traj.hist_t.tolist() == (hist - hist[-1]).tolist()
        assert traj.hist_t.size == buf.t_hat.size and traj.hist_t[-1] == 0.0

    def test_identity_for_constant_response(self):
        p = equilibria.resolve_r_star(
            ModelParams(delta0=0.0, l=None, m=2.0, n_total=0.3)
        )
        big_t = p.m / p.r_star
        buf = simulate.build_initial(
            HistorySpec.at_equilibrium(1e-3, 1e-3), p, big_t / 100
        )
        traj = simulate.integrate(buf, 40.0)
        assert np.max(np.abs(traj.t - traj.t_hat)) == 0.0

    def test_constant_rescale_with_overridden_reference(self):
        # delta0 = 0 keeps the run pinned at the equilibrium exactly, so the
        # transform reduces to multiplication by r_star/R(P*)
        base = ModelParams(delta0=0.0, l=0.159, m=6.0, n_total=10 ** 0.49)
        e2 = equilibria.solve_e2(base)
        r_eq = model.r_growth(e2.p_star, base)
        p = base.with_r_star(0.5 * r_eq)
        big_t = p.m / p.r_star
        buf = simulate.build_initial(HistorySpec.at_equilibrium(0, 0), p, big_t / 100)
        traj = simulate.integrate(buf, 20.0)
        assert np.allclose(traj.t, traj.t_hat * p.r_star / r_eq, rtol=1e-12)

    def test_round_trip_is_second_order(self):
        p = fig6_params()
        big_t = p.m / p.r_star
        errs = []
        for panels in (100, 200):
            buf = simulate.build_initial(
                HistorySpec.at_equilibrium(5e-2, -5e-2), p, big_t / panels
            )
            traj = simulate.integrate(buf, 40.0)
            r_over = 1.0 / traj.inv_r
            incr = 0.5 * np.diff(traj.t) * (r_over[:-1] + r_over[1:])
            t_hat_back = np.concatenate(([0.0], np.cumsum(incr)))
            errs.append(np.max(np.abs(t_hat_back - traj.t_hat)))
        assert errs[1] <= errs[0] / 3.0

    def test_strictly_increasing(self):
        p = fig6_params()
        big_t = p.m / p.r_star
        buf = simulate.build_initial(
            HistorySpec.at_equilibrium(1e-2, 1e-2), p, big_t / 100
        )
        traj = simulate.integrate(buf, 60.0)
        assert np.all(np.diff(traj.t) > 0)


class TestTdeResidual:
    def test_small_at_equilibrium(self):
        p = equilibria.resolve_r_star(
            ModelParams(delta0=0.0, l=0.159, m=6.0, n_total=10 ** 0.49)
        )
        big_t = p.m / p.r_star
        buf = simulate.build_initial(HistorySpec.at_equilibrium(0, 0), p, big_t / 100)
        traj = simulate.integrate(buf, 4 * big_t)
        assert simulate.tde_residual(traj) <= 1e-8

    def test_refinement_halves_twice(self):
        p = fig6_params()
        big_t = p.m / p.r_star
        vals = []
        for panels in (200, 400, 800):
            buf = simulate.build_initial(
                HistorySpec.at_equilibrium(1e-2, -1e-2), p, big_t / panels
            )
            traj = simulate.integrate(buf, 35.0)
            vals.append(simulate.tde_residual(traj))
        assert 3.2 <= vals[0] / vals[1] <= 4.8
        assert 3.2 <= vals[1] / vals[2] <= 4.8

    def test_matches_fixed_delay_method_of_steps_oracle(self):
        # with the constant growth response the transformed system is a
        # plain fixed-delay problem in physical time; integrate it with an
        # independent method-of-steps loop on top of solve_ivp and compare
        p = equilibria.resolve_r_star(
            ModelParams(delta0=0.17, l=None, m=2.0, n_total=0.2)
        )
        assert p.r_star == 1.0
        big_t = p.m  # delay in physical time
        buf = simulate.build_initial(
            HistorySpec.constant(0.05, 0.02), p, big_t / 400
        )
        horizon = 6.0
        traj = simulate.integrate(buf, horizon)

        n0 = float(buf.n[buf.n_delay_panels])
        surv = math.exp(-p.delta0 * big_t)

        def rhs(t, y, delayed):
            n, pp, z = y
            p_d, z_d = delayed(t - big_t)
            f = model.f_uptake(max(n, 0.0), p)
            h = model.h_grazing(max(pp, 0.0), p)
            growth = p.mu * pp * f
            graze = p.g * z * h
            return [
                -growth + p.lam * pp + p.delta * z + (1 - p.gamma) * graze
                + p.delta0 * (p.n_total - n - pp - z),
                growth - p.lam * pp - graze,
                surv * p.gamma * p.g * z_d * model.h_grazing(max(p_d, 0.0), p)
                - p.delta * z,
            ]

        sols = []

        def delayed(t):
            if t <= 0:
                return 0.05, 0.02
            for (t0, t1, dense) in sols:
                if t0 <= t <= t1:
                    y = dense(t)
                    return y[1], y[2]
            raise AssertionError("delayed lookup outside computed windows")

        y0 = [n0, 0.05, 0.02]
        t0 = 0.0
        while t0 < horizon - 1e-12:
            t1 = min(t0 + big_t, horizon)
            sol = solve_ivp(
                rhs, (t0, t1), y0, args=(delayed,), dense_output=True,
                rtol=1e-10, atol=1e-12, max_step=big_t / 50,
            )
            sols.append((t0, t1, sol.sol))
            y0 = sol.y[:, -1]
            t0 = t1

        oracle = np.array([delayed(min(t + big_t, horizon)) for t in traj.t - big_t])
        gap_p = np.max(np.abs(traj.p - oracle[:, 0]))
        gap_z = np.max(np.abs(traj.z - oracle[:, 1]))
        assert max(gap_p, gap_z) <= 1e-6

    def test_matches_a_node_by_node_loop(self):
        p = fig6_params()
        big_t = p.m / p.r_star
        buf = simulate.build_initial(HistorySpec.at_equilibrium(1e-2, -1e-2), p, big_t / 200)
        traj = simulate.integrate(buf, 35.0)
        t, worst = traj.t, 0.0
        first = int(np.argmax(traj.t_hat >= 2.0 * big_t + 2.0 * traj.dt_hat))
        for i in range(first, t.size - 1):
            t_del, p_d, z_d = _lag_loop(traj, p, float(t[i]), p.m)
            n, ph, z = float(traj.n[i]), float(traj.p[i]), float(traj.z[i])
            growth = p.mu * ph * model.f_uptake(n, p)
            graze = p.g * z * model.h_grazing(ph, p)
            rhs = (
                -growth + p.lam * ph + p.delta * z + (1 - p.gamma) * graze
                + p.delta0 * (p.n_total - n - ph - z),
                growth - p.lam * ph - graze,
                model.r_growth(ph, p) * math.exp(-p.delta0 * (t[i] - t_del)) * p.gamma * p.g
                * z_d * model.h_grazing(p_d, p) / model.r_growth(p_d, p) - p.delta * z,
            )
            w = (
                (t[i] - t[i + 1]) / ((t[i - 1] - t[i]) * (t[i - 1] - t[i + 1])),
                (2 * t[i] - t[i - 1] - t[i + 1]) / ((t[i] - t[i - 1]) * (t[i] - t[i + 1])),
                (t[i] - t[i - 1]) / ((t[i + 1] - t[i - 1]) * (t[i + 1] - t[i])),
            )
            for f, arr in zip(rhs, (traj.n, traj.p, traj.z)):
                deriv = w[0] * arr[i - 1] + w[1] * arr[i] + w[2] * arr[i + 1]
                worst = max(worst, abs(deriv - f) / max(1.0, p.n_total))
        assert simulate.tde_residual(traj) == pytest.approx(worst, rel=1e-14)

    def test_short_run_rejected(self):
        p = fig6_params()
        big_t = p.m / p.r_star
        buf = simulate.build_initial(HistorySpec.at_equilibrium(0, 0), p, big_t / 50)
        traj = simulate.integrate(buf, big_t)
        with pytest.raises(InsufficientHistoryError):
            simulate.tde_residual(traj)


class TestReconstructRho:
    def test_matches_equilibrium_spectrum(self):
        p = fig6_params()
        e2 = equilibria.solve_e2(p)
        big_t = p.m / p.r_star
        buf = simulate.build_initial(HistorySpec.at_equilibrium(0, 0), p, big_t / 800)
        traj = simulate.integrate(buf, 30.0)
        s = np.linspace(0.0, p.m, 13)
        rho = simulate.reconstruct_rho(traj, float(traj.t[-1]), s)
        expect = equilibrium_spectrum(e2, s, p)
        assert np.max(np.abs(rho - expect) / expect) <= 1e-6

    def test_matches_a_node_by_node_loop(self):
        p = fig6_params()
        big_t = p.m / p.r_star
        buf = simulate.build_initial(HistorySpec.at_equilibrium(2e-2, -2e-2), p, big_t / 200)
        traj = simulate.integrate(buf, 40.0)
        t_q = 0.7 * float(traj.t[-1])
        s = np.linspace(0.0, p.m, 201)
        expect = []
        for s_j in s.tolist():
            t_del, p_d, z_d = _lag_loop(traj, p, t_q, s_j)
            expect.append(math.exp(-p.delta0 * (t_q - t_del)) * (p.gamma * p.g) * z_d
                          * model.h_grazing(p_d, p) / model.r_growth(p_d, p))
        assert simulate.reconstruct_rho(traj, t_q, s).tolist() == expect

    def test_zero_without_grazers(self):
        p = equilibria.resolve_r_star(
            ModelParams(delta0=0.17, l=0.159, m=6.0, n_total=0.5)
        )
        big_t = p.m / p.r_star
        buf = simulate.build_initial(HistorySpec.constant(0.3, 0.0), p, big_t / 100)
        traj = simulate.integrate(buf, 30.0)
        rho = simulate.reconstruct_rho(traj, float(traj.t[-1]), np.linspace(0, p.m, 7))
        assert np.all(rho == 0.0)

    def test_conservation_closure_along_a_run(self):
        p = fig6_params()
        big_t = p.m / p.r_star
        buf = simulate.build_initial(
            HistorySpec.at_equilibrium(2e-2, -2e-2), p, big_t / 400
        )
        traj = simulate.integrate(buf, 40.0)
        t_q = float(traj.t[-1])
        s = np.linspace(0.0, p.m, 1001)
        rho = simulate.reconstruct_rho(traj, t_q, s)
        pool = float(np.sum(0.5 * np.diff(s) * (rho[:-1] + rho[1:])))
        i = len(traj) - 1
        total = traj.n[i] + traj.p[i] + traj.z[i] + pool
        assert total == pytest.approx(p.n_total, abs=1e-4 * p.n_total)

    def test_query_before_history_rejected(self):
        p = fig6_params()
        big_t = p.m / p.r_star
        buf = simulate.build_initial(HistorySpec.at_equilibrium(0, 0), p, big_t / 100)
        traj = simulate.integrate(buf, 20.0)
        with pytest.raises(OutOfRegionError):
            simulate.reconstruct_rho(traj, float(traj.hist_t[0]) - 1.0, [0.0])

    def test_maturity_grid_bound(self):
        p = fig6_params()
        big_t = p.m / p.r_star
        buf = simulate.build_initial(HistorySpec.at_equilibrium(0, 0), p, big_t / 100)
        traj = simulate.integrate(buf, 20.0)
        with pytest.raises(DomainError):
            simulate.reconstruct_rho(traj, float(traj.t[-1]), [p.m * 1.01])


class TestDeltaDecay:
    def test_fits_mature_mortality_rate(self):
        p = fig6_params()
        big_t = p.m / p.r_star
        spec = HistorySpec.at_equilibrium(0, 0, n0_offset=0.05 * p.n_total)
        rep = delta_decay_check(spec, p, big_t / 200, 400.0)
        assert rep.kind == "decay_fit"
        assert rep.rate == pytest.approx(-p.delta, rel=0.02)

    def test_conserved_without_juvenile_mortality(self):
        p = equilibria.resolve_r_star(
            ModelParams(delta0=0.0, l=0.159, m=6.0, n_total=10 ** 0.49)
        )
        big_t = p.m / p.r_star
        spec = HistorySpec.at_equilibrium(0, 0, n0_offset=0.05 * p.n_total)
        rep = delta_decay_check(spec, p, big_t / 200, 400.0)
        assert rep.kind == "conserved"
        assert rep.max_abs_deviation <= 5e-3 * abs(rep.delta_initial)

    def test_zero_offset_reports_zero(self):
        p = equilibria.resolve_r_star(
            ModelParams(delta0=0.0, l=0.159, m=6.0, n_total=10 ** 0.49)
        )
        big_t = p.m / p.r_star
        rep = delta_decay_check(
            HistorySpec.at_equilibrium(0, 0), p, big_t / 200, 50.0
        )
        assert rep.kind == "zero"
        assert rep.max_abs_deviation <= 1e-10 * p.n_total

    def test_mismatch_flux_matches_rate_equation(self):
        # d(Delta)/dt_hat should equal -delta0 * Delta * r_star/R(P) row by row
        p = fig6_params()
        big_t = p.m / p.r_star
        spec = HistorySpec.at_equilibrium(0, 0, n0_offset=0.05 * p.n_total)
        buf = simulate.build_initial(spec, p, big_t / 400)
        traj = simulate.integrate(buf, 20.0)
        delta = traj.cons_residual
        dt = traj.t_hat[1] - traj.t_hat[0]
        fd = (delta[2:] - delta[:-2]) / (2 * dt)
        expect = -p.delta0 * delta[1:-1] * traj.inv_r[1:-1]
        assert np.max(np.abs(fd - expect)) <= 2e-2 * np.max(np.abs(expect))


class TestMeasureFrequency:
    def test_matches_boundary_frequency(self):
        p = fig6_params()
        big_t = p.m / p.r_star
        buf = simulate.build_initial(
            HistorySpec.at_equilibrium(1e-3, 1e-3), p, big_t / 200
        )
        traj = simulate.integrate(buf, 800.0)
        freq = simulate.measure_frequency(traj)
        assert freq == pytest.approx(0.8443, rel=0.02)

    def test_none_for_flat_series(self):
        p = equilibria.resolve_r_star(
            ModelParams(delta0=0.0, l=0.159, m=6.0, n_total=10 ** 0.49)
        )
        big_t = p.m / p.r_star
        buf = simulate.build_initial(HistorySpec.at_equilibrium(0, 0), p, big_t / 100)
        traj = simulate.integrate(buf, 30.0)
        assert simulate.measure_frequency(traj) is None
