import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from tde_plankton import equilibria, model, simulate
from tde_plankton.exceptions import (
    DomainError,
    InfeasibleBiomassError,
    InsufficientHistoryError,
    OutOfRegionError,
)
from tde_plankton.model import ModelParams
from tde_plankton.presets import preset_values
from tde_plankton.simulate import HistorySpec, Termination


def fig6_params(nt=10 ** 0.49):
    return equilibria.resolve_r_star(
        ModelParams(delta0=0.17, l=0.159, m=6.0, n_total=nt)
    )


def _lag_loop(traj, params, t_query, s):
    """Delayed time and the delayed P and Z for one node, one scalar at a time."""
    t_full, p_full, z_full = simulate._full_series(traj)
    cum = simulate._cumulative_maturity(t_full, p_full, params)
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
        assert buf.n[buf.now_index] == pytest.approx(e2.n_star, rel=1e-12)

    def test_equilibrium_history_quadrature_limit_with_mortality(self):
        p = fig6_params()
        e2 = equilibria.solve_e2(p)
        big_t = p.m / p.r_star
        buf = simulate.build_initial(
            HistorySpec.at_equilibrium(0, 0), p, big_t / 40000
        )
        assert buf.n[buf.now_index] == pytest.approx(e2.n_star, rel=1e-9)

    def test_empty_juvenile_pool(self):
        p = fig6_params()
        big_t = p.m / p.r_star
        buf = simulate.build_initial(HistorySpec.constant(0.5, 0.0), p, big_t / 100)
        assert buf.n[buf.now_index] == pytest.approx(p.n_total - 0.5, rel=1e-14)

    def test_constant_history_lag_is_exact(self):
        p = fig6_params()
        big_t = p.m / p.r_star
        buf = simulate.build_initial(HistorySpec.constant(0.1, 0.01), p, big_t / 100)
        assert buf.tau_m_running == pytest.approx(
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

    def test_sampled_history_interpolates_and_balances(self):
        p = fig6_params()
        big_t = p.m / p.r_star
        tg = np.linspace(-1.2 * big_t, 0.0, 57)
        spec = HistorySpec.sampled(
            tg, 0.2 + 0.02 * np.sin(tg), 0.3 + 0.01 * np.cos(tg)
        )
        buf = simulate.build_initial(spec, p, big_t / 128)
        t, n, pp, z = buf.window()
        res = model.conservation_value(t, n, pp, z, p) - p.n_total
        assert abs(res) <= 1e-12 * p.n_total


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
        # predictor, and stage two's singular-rate guard ends the run there
        nt = float(preset_values("extinction")["model.n_total"])
        p = equilibria.resolve_r_star(
            ModelParams(delta0=0.17, l=0.159, m=6.0, n_total=nt, r_floor=1e-4)
        )
        big_t = p.m / p.r_star
        buf = simulate.build_initial(HistorySpec.constant(0.3 * nt, 0.1 * nt), p, big_t / 2000)
        traj = simulate.integrate(buf, 120.0)
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


class TestConservationColumn:
    """The post-loop residual pass against the one-window public functional."""

    @pytest.mark.parametrize("make", [
        _fig6_run, _offset_run_without_mortality, _run_without_delay, _extinction_run,
    ])
    def test_matches_per_row_conservation_value(self, make):
        spec, p, dt_hat, horizon = make()
        buf = simulate.build_initial(spec, p, dt_hat)
        row0 = buf.now_index
        traj = simulate.integrate(buf, horizon)
        off_grid = traj.termination is Termination.EXTINCTION and not math.isclose(
            traj.t_hat[-1] - traj.t_hat[-2], dt_hat, rel_tol=1e-6
        )
        on_grid = len(traj) - 1 if off_grid else len(traj)
        slow = np.array([
            model.conservation_value(*buf.window(row0 + k), p) - p.n_total
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
        row0 = buf.now_index
        traj = simulate.integrate(buf, horizon)
        assert np.isfinite(traj.t).all() and np.isfinite(traj.hist_t).all()
        assert traj.t.tolist() == _clock_loop(traj.t_hat.tolist(), traj.inv_r.tolist()).tolist()
        hist = _clock_loop(buf.t_hat[:row0 + 1].tolist(), buf.inv_r[:row0 + 1].tolist())
        assert traj.hist_t.tolist() == (hist - hist[-1]).tolist()
        assert traj.hist_t.size == row0 + 1 and traj.hist_t[-1] == 0.0

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
        expect = equilibria.equilibrium_spectrum(e2, s, p)
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
        rep = simulate.delta_decay_check(spec, p, big_t / 200, 400.0)
        assert rep.kind == "decay_fit"
        assert rep.rate == pytest.approx(-p.delta, rel=0.02)

    def test_conserved_without_juvenile_mortality(self):
        p = equilibria.resolve_r_star(
            ModelParams(delta0=0.0, l=0.159, m=6.0, n_total=10 ** 0.49)
        )
        big_t = p.m / p.r_star
        spec = HistorySpec.at_equilibrium(0, 0, n0_offset=0.05 * p.n_total)
        rep = simulate.delta_decay_check(spec, p, big_t / 200, 400.0)
        assert rep.kind == "conserved"
        assert rep.max_abs_deviation <= 5e-3 * abs(rep.delta_initial)

    def test_zero_offset_reports_zero(self):
        p = equilibria.resolve_r_star(
            ModelParams(delta0=0.0, l=0.159, m=6.0, n_total=10 ** 0.49)
        )
        big_t = p.m / p.r_star
        rep = simulate.delta_decay_check(
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
