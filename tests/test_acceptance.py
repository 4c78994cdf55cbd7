"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import dataclasses
import math

import numpy as np

from tde_plankton import continuation, equilibria, linearize, simulate
from tde_plankton.continuation import TraceOptions
from tde_plankton.model import ModelParams
from tde_plankton.simulate import HistorySpec, Termination

from conftest import delta_decay_check

DELTA = 0.17


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def params_for(delta0, l, m, nt):
    return ModelParams(delta0=delta0, l=l, m=m, n_total=nt)


def test_criterion_01_thresholds():
    p = params_for(DELTA, 0.159, 0.0, 1.0)
    nt1 = equilibria.compute_nt1(p)
    ceiling = equilibria.m_ceiling(p)
    ok = abs(nt1 - 2.8897e-3) <= 1e-7 and abs(ceiling - 19.77) <= 0.01
    verdict(1, ok, f"nt1={nt1:.6e} (target 2.8897e-3), ceiling={ceiling:.4f} (target 19.77)")


def test_criterion_02_equilibrium_residuals_random():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        delta0 = float(rng.choice([0.0, DELTA, rng.uniform(0.02, 0.3)]))
        l = float(10 ** rng.uniform(-2, 0))
        probe = ModelParams(delta0=delta0, l=l, m=0.0, n_total=1.0)
        m = float(rng.uniform(0.0, 0.95 * min(equilibria.m_ceiling(probe), 30.0)))
        probe = ModelParams(delta0=delta0, l=l, m=m, n_total=1.0)
        nt = equilibria.compute_nt2(probe) * float(10 ** rng.uniform(0.01, 2.0))
        eq = equilibria.solve_e2(ModelParams(delta0=delta0, l=l, m=m, n_total=nt))
        worst = max(worst, eq.residual / max(1.0, nt))
    ok = worst <= 1e-10
    verdict(2, ok, f"max scaled residual {worst:.2e} over 200 random tuples (tol 1e-10)")


def test_criterion_03_sweep_structure():
    grid = np.logspace(-4, 2, 200)
    p2_by_delta0 = {0.0: [], DELTA: []}
    nt2_by_delta0 = {0.0: [], DELTA: []}
    regime_ok = True
    for delta0 in (0.0, DELTA):
        for m in (0.0, 5.0, 10.0, 15.0, 19.7):
            p = params_for(delta0, 0.159, m, 1.0)
            nt1 = equilibria.compute_nt1(p)
            nt2 = equilibria.compute_nt2(p)
            p2_by_delta0[delta0].append(equilibria.solve_p2star(p))
            nt2_by_delta0[delta0].append(nt2)
            rows = equilibria.classify_and_sweep(p, grid)
            for row in rows:
                if row.kind == "degenerate":
                    continue
                expect = (
                    "e0" if row.n_total < nt1
                    else "E1" if row.n_total < nt2
                    else "E2"
                )
                if row.kind != expect:
                    regime_ok = False
    p2_flat = max(p2_by_delta0[0.0]) - min(p2_by_delta0[0.0])
    flat_ok = p2_flat <= 1e-9
    nt2_mono = nt2_by_delta0[DELTA]
    mono_ok = all(b > a for a, b in zip(nt2_mono, nt2_mono[1:]))
    ok = regime_ok and flat_ok and mono_ok
    verdict(3, ok, (
        f"regimes consistent={regime_ok}, p2star spread (delta0=0)={p2_flat:.1e}, "
        f"nt2 strictly increasing (delta0=delta)={mono_ok}"
    ))


def test_criterion_04_e1_spectrum():
    p = params_for(DELTA, None, 1.5, 0.02)
    e1 = equilibria.solve_e1(p)
    lin = linearize.build_linearization(e1, p)
    rng = np.random.default_rng(41)
    s = rng.uniform(-100, 100, 1000) + 1j * rng.uniform(-100, 100, 1000)
    prod = (
        (s + p.mu * e1.p_star * lin.coeff_a)
        * (s + p.delta0)
        * (s + p.delta
           - p.gamma * p.g * lin.coeff_d * np.exp(-(p.delta0 + s) * lin.t_delay))
    )
    scale = (
        (np.abs(s) + p.mu * e1.p_star * lin.coeff_a)
        * (np.abs(s) + p.delta0 + 1.0)
        * (np.abs(s) + p.delta
           + p.gamma * p.g * lin.coeff_d * np.exp(-s.real * lin.t_delay))
    )
    gap = float(np.max(np.abs(linearize.char_fn(s, lin) - prod) / scale))
    factor_ok = gap <= 1e-10

    stable_ok = True
    details = []
    for delta0 in (0.0, DELTA):
        for l in (None, 0.159):
            for m in (2.0, 6.0):
                base = params_for(delta0, l, m, 1.0)
                nt1, nt2 = equilibria.compute_nt1(base), equilibria.compute_nt2(base)
                for frac in (0.25, 0.5, 0.9):
                    nt = nt1 + frac * (nt2 - nt1)
                    pr = params_for(delta0, l, m, nt)
                    lin_e1 = linearize.build_linearization(equilibria.solve_e1(pr), pr)
                    rr = linearize.rightmost_real_part(lin_e1, grid_n=128)
                    if not rr < 0:
                        stable_ok = False
                        details.append(f"(d0={delta0}, l={l}, m={m}, nt={nt:.4g}) -> {rr:.2e}")
    ok = factor_ok and stable_ok
    verdict(4, ok, (
        f"factorization gap {gap:.2e} on 1000 points (tol 1e-10); "
        f"all 24 mid-regime verdicts negative={stable_ok} {details}"
    ))


def test_criterion_05_stability_flip_at_quoted_point():
    params = params_for(DELTA, 0.159, 6.0, 1.0)
    start = continuation.find_start(params, 6.0, (10 ** 0.4, 10 ** 0.6))
    pts = continuation.trace_curve(
        start, params, TraceOptions(nt_min=2.0, nt_max=6.0, max_steps=6)
    ).points
    ms = np.array([q.m for q in pts])
    hit = np.where(np.isclose(ms, 6.0, atol=1e-12))[0]
    crossing_lg = math.log10(pts[hit[0]].n_total)
    location_ok = abs(crossing_lg - 0.50) <= 0.02

    behaviours = {}
    for nt in (10 ** 0.49, 10 ** 0.51):
        p = equilibria.resolve_r_star(params_for(DELTA, 0.159, 6.0, nt))
        e2 = equilibria.solve_e2(p)
        big_t = p.m / p.r_star
        buf = simulate.build_initial(HistorySpec.at_equilibrium(1e-3, 1e-3), p, big_t / 200)
        traj = simulate.integrate(buf, 1200.0)
        amp = np.abs(traj.p - e2.p_star)
        q = len(amp) // 4
        behaviours[nt] = (1e-3 * e2.p_star, float(np.max(amp[3 * q:])))
    seed_lo, late_lo = behaviours[10 ** 0.49]
    seed_hi, late_hi = behaviours[10 ** 0.51]
    decay_ok = late_lo < 0.2 * seed_lo
    growth_ok = late_hi > 50.0 * seed_hi
    ok = location_ok and decay_ok and growth_ok
    verdict(5, ok, (
        f"boundary at log10(nt)={crossing_lg:.4f} (target 0.50 +/- 0.02); "
        f"10^0.49 decays ({late_lo:.2e} < {seed_lo:.2e}), "
        f"10^0.51 grows ({late_hi:.2e} >> {seed_hi:.2e})"
    ))


def test_criterion_06_second_order_convergence():
    p = equilibria.resolve_r_star(params_for(DELTA, 0.159, 6.0, 10 ** 0.49))
    big_t = p.m / p.r_star
    cons, tde = [], []
    for panels in (200, 400, 800, 1600):
        buf = simulate.build_initial(
            HistorySpec.at_equilibrium(1e-2, -1e-2), p, big_t / panels
        )
        traj = simulate.integrate(buf, 35.0)
        cons.append(float(np.max(np.abs(traj.cons_residual))))
        tde.append(simulate.tde_residual(traj))
    cons_ratios = [a / b for a, b in zip(cons, cons[1:])]
    tde_ratios = [a / b for a, b in zip(tde, tde[1:])]
    ok = all(3.2 <= r <= 4.8 for r in cons_ratios + tde_ratios)
    verdict(6, ok, (
        f"conservation ratios {[f'{r:.2f}' for r in cons_ratios]}, "
        f"threshold-delay defect ratios {[f'{r:.2f}' for r in tde_ratios]} "
        f"(all must lie in [3.2, 4.8])"
    ))


def test_criterion_07_extinction_and_global_attraction():
    nt1 = equilibria.compute_nt1(ModelParams())
    nt_ext = nt1 / 2
    p_ext = equilibria.resolve_r_star(params_for(DELTA, 0.159, 6.0, nt_ext))
    big_t = p_ext.m / p_ext.r_star
    buf = simulate.build_initial(
        HistorySpec.constant(0.3 * nt_ext, 0.1 * nt_ext), p_ext, big_t / 20000
    )
    traj = simulate.integrate(buf, 120.0)
    fin = traj.final_state()
    ext_gap = max(abs(fin.n - nt_ext), fin.p, abs(fin.z)) / nt_ext
    ext_ok = traj.termination is Termination.EXTINCTION and ext_gap <= 1e-6

    base = params_for(DELTA, 0.159, 5.0, 1.0)
    nt_mid = 0.5 * (equilibria.compute_nt1(base) + equilibria.compute_nt2(base))
    p_e1 = equilibria.resolve_r_star(params_for(DELTA, 0.159, 5.0, nt_mid))
    e1 = equilibria.solve_e1(p_e1)
    big_t = p_e1.m / p_e1.r_star
    gaps = []
    for (pf, zf) in ((0.5, 0.2), (0.1, 0.6), (0.8, 0.05)):
        buf = simulate.build_initial(
            HistorySpec.constant(pf * nt_mid, zf * nt_mid), p_e1, big_t / 200
        )
        run = simulate.integrate(buf, 1200.0)
        f = run.final_state()
        gaps.append(max(abs(f.n - e1.n_star), abs(f.p - e1.p_star), abs(f.z)) / nt_mid)
    attract_ok = all(g <= 1e-6 for g in gaps)
    ok = ext_ok and attract_ok
    verdict(7, ok, (
        f"extinction terminal gap {ext_gap:.2e} (tol 1e-6); "
        f"attraction gaps {[f'{g:.1e}' for g in gaps]} from 3 histories (tol 1e-6)"
    ))


def test_criterion_08_frequency_cross_validation():
    cases = [
        ("constant response, no juvenile mortality",
         params_for(0.0, None, 2.0, 1.0), 2.0, (0.1, 0.8), 100),
        ("saturating response, no juvenile mortality",
         params_for(0.0, 0.159, 2.0, 1.0), 2.0, (0.05, 2.0), 200),
        ("saturating response, juvenile mortality",
         params_for(DELTA, 0.159, 6.0, 1.0), 6.0, (10 ** 0.4, 10 ** 0.6), 200),
    ]
    rel_errors = []
    for label, params, m, bracket, panels in cases:
        bp = continuation.find_start(params, m, bracket)
        p_run = equilibria.resolve_r_star(
            params_for(params.delta0, params.l, m, bp.n_total)
        )
        big_t = p_run.m / p_run.r_star
        buf = simulate.build_initial(
            HistorySpec.at_equilibrium(1e-3, 1e-3), p_run, big_t / panels
        )
        traj = simulate.integrate(buf, 700.0)
        freq = simulate.measure_frequency(traj)
        rel_errors.append((label, abs(freq - bp.omega) / bp.omega, bp.omega, freq))
    ok = all(err <= 0.05 for _, err, _, _ in rel_errors)
    detail = "; ".join(
        f"{label}: omega={om:.4f}, measured={fr:.4f} ({err * 100:.2f}%)"
        for label, err, om, fr in rel_errors
    )
    verdict(8, ok, detail + " (tol 5%)")


def test_criterion_09_periodicity_without_juvenile_mortality():
    p = params_for(0.0, 0.159, 5.0, 1.0)
    e2 = equilibria.solve_e2(p)
    lin = linearize.build_linearization(e2, p)
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        omega = float(10 ** rng.uniform(-1.5, 1.5))
        m_shifted_delay = lin.t_delay + 2 * math.pi / omega
        shifted = dataclasses.replace(lin, t_delay=m_shifted_delay)
        a = linearize.char_fn(1j * omega, lin)
        b = linearize.char_fn(1j * omega, shifted)
        worst = max(worst, abs(a - b) / max(linearize.char_scale(1j * omega, lin), 1e-300))
    ok = worst <= 1e-10
    verdict(9, ok, f"max drift {worst:.2e} over 100 random (omega, m) pairs (tol 1e-10)")


def test_criterion_10_conservation_mismatch_decay():
    p = equilibria.resolve_r_star(params_for(DELTA, 0.159, 6.0, 10 ** 0.49))
    big_t = p.m / p.r_star
    spec = HistorySpec.at_equilibrium(0, 0, n0_offset=0.05 * p.n_total)
    rep = delta_decay_check(spec, p, big_t / 200, 400.0)
    fit_ok = rep.kind == "decay_fit" and abs(rep.rate + DELTA) <= 0.02 * DELTA

    p0 = equilibria.resolve_r_star(params_for(0.0, 0.159, 6.0, 10 ** 0.49))
    big_t0 = p0.m / p0.r_star
    spec0 = HistorySpec.at_equilibrium(0, 0, n0_offset=0.05 * p0.n_total)
    devs = [
        delta_decay_check(spec0, p0, big_t0 / panels, 300.0).max_abs_deviation
        for panels in (200, 400)
    ]
    ratio = devs[0] / devs[1]
    const_ok = devs[0] <= 5e-3 * (0.05 * p0.n_total) and 2.5 <= ratio <= 6.0
    ok = fit_ok and const_ok
    verdict(10, ok, (
        f"fitted rate {rep.rate:.5f} vs -delta={-DELTA} (tol 2%); "
        f"delta0=0 deviation {devs[0]:.2e} halving-ratio {ratio:.2f} (second order)"
    ))


def test_criterion_11_irregular_regime_stays_bounded():
    p = equilibria.resolve_r_star(params_for(DELTA, 0.159, 8.0, 10 ** 0.73))
    big_t = p.m / p.r_star
    buf = simulate.build_initial(HistorySpec.at_equilibrium(1e-2, 1e-2), p, big_t / 400)
    traj = simulate.integrate(buf, 2000.0)
    in_bounds = (
        traj.termination is Termination.HORIZON_REACHED
        and np.all(traj.n > 0) and np.all(traj.p > 0) and np.all(traj.z > 0)
        and float(max(traj.n.max(), traj.p.max(), traj.z.max())) < p.n_total
    )
    tail = traj.p[int(0.8 * len(traj)):]
    spread = float(np.std(tail))
    ok = in_bounds and spread > 1e-3 * p.n_total
    verdict(11, ok, (
        f"in (0, n_total) for the whole horizon={in_bounds}; "
        f"tail std of P {spread:.3e} > 1e-3*n_total={1e-3 * p.n_total:.3e}"
    ))
