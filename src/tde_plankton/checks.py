"""Self-contained invariant suite behind the ``check`` subcommand.

Each check returns whether it holds (None when it does not apply to the
parameters) and a one-line detail; :func:`run_check_suite` names each result
after its check function and grades it pass/fail/skipped.  The CLI emits
the results as JSON lines and fails the process if any check fails.  The suite is
deliberately cheap (seconds, not minutes) — the heavyweight claims live in
the acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import equilibria, linearize, model, simulate
from .exceptions import TdePlanktonError
from .model import ModelParams


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str


#: A check's verdict (None: skipped) and its one-line detail.
Outcome = tuple[bool | None, str]


def _e1_region_params(params: ModelParams) -> ModelParams:
    nt1 = equilibria.compute_nt1(params)
    try:
        nt2 = equilibria.compute_nt2(params)
    except TdePlanktonError:
        nt2 = 10.0 * nt1
    return replace(params, n_total=0.5 * (nt1 + nt2))


def _e2_region_params(params: ModelParams) -> ModelParams | None:
    if params.m >= equilibria.m_ceiling(params):
        return None
    nt2 = equilibria.compute_nt2(params)
    return replace(params, n_total=max(params.n_total, 4.0 * nt2))


def check_response_shapes(params: ModelParams) -> Outcome:
    grid = np.linspace(0.0, 100.0, 2001)
    for fn, name in ((model.f_uptake, "f"), (model.h_grazing, "h"), (model.r_growth, "R")):
        vals = fn(grid, params)
        if np.any(vals < 0) or np.any(vals >= 1.0 + 1e-15):
            return False, f"{name} left [0, 1)"
        if np.any(np.diff(vals) < 0):
            return False, f"{name} not nondecreasing"
    return True, "f, h, R in [0,1) and monotone"


def check_response_derivatives(params: ModelParams) -> Outcome:
    # capped at p = 10 to stay above the centered-difference roundoff floor
    grid = np.linspace(0.1, 10.0, 97)
    step = 1e-6
    pairs = [
        (model.f_uptake, model.f_uptake_prime),
        (model.h_grazing, model.h_grazing_prime),
        (model.r_growth, model.r_growth_prime),
    ]
    worst = 0.0
    for fn, dfn in pairs:
        fd = (fn(grid + step, params) - fn(grid - step, params)) / (2 * step)
        an = dfn(grid, params)
        denom = np.maximum(np.abs(an), 1e-12)
        worst = max(worst, float(np.max(np.abs(fd - an) / denom)))
    return worst <= 1e-6, f"max relative derivative mismatch {worst:.2e}"


def check_inverse_roundtrip(params: ModelParams) -> Outcome:
    grid = np.linspace(1e-3, 100.0, 211)
    err_f = np.max(np.abs(model.f_inverse(model.f_uptake(grid, params), params) - grid) / grid)
    err_h = np.max(np.abs(model.h_inverse(model.h_grazing(grid, params), params) - grid) / grid)
    worst = float(max(err_f, err_h))
    return worst <= 1e-12, f"max roundtrip error {worst:.2e}"


def check_h_over_r_bounded(params: ModelParams) -> Outcome:
    if params.l is None:
        return None, "constant response: h/R = h is bounded"
    seq = 10.0 ** np.arange(-1, -13, -1)
    vals = model.h_grazing(seq, params) / model.r_growth(seq, params)
    limit = params.l / params.kk
    ok = bool(np.all(np.isfinite(vals)) and abs(vals[-1] - limit) <= 1e-6 * limit)
    return ok, f"h/R at p=1e-12 is {vals[-1]:.6g}, limit {limit:.6g}"


def check_rhs_zero_at_equilibria(params: ModelParams) -> Outcome:
    worst = 0.0
    tried = []
    p_e1 = _e1_region_params(params)
    e1 = equilibria.solve_e1(p_e1)
    p_e1 = equilibria.resolve_r_star(p_e1)
    st = model.StateNPZ(e1.n_star, e1.p_star, e1.z_star)
    tau = p_e1.m / model.r_growth(e1.p_star, p_e1)
    rate = model.dde_rhs(st, st, tau, p_e1)
    worst = max(worst, max(abs(r) for r in rate))
    tried.append("E1")
    p_e2 = _e2_region_params(params)
    if p_e2 is not None:
        e2 = equilibria.solve_e2(p_e2)
        p_e2 = equilibria.resolve_r_star(p_e2)
        st = model.StateNPZ(e2.n_star, e2.p_star, e2.z_star)
        tau = p_e2.m / model.r_growth(e2.p_star, p_e2)
        rate = model.dde_rhs(st, st, tau, p_e2)
        worst = max(worst, max(abs(r) for r in rate))
        tried.append("E2")
    tol = 1e-10 * max(1.0, params.n_total)
    return worst <= tol, f"max |rate| {worst:.2e} at {'+'.join(tried)} (tol {tol:.1e})"


def check_equilibrium_residuals_random(params: ModelParams) -> Outcome:
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(30):
        delta0 = float(rng.choice([0.0, params.delta, rng.uniform(0.01, 0.3)]))
        l = float(10 ** rng.uniform(-2, 0))
        trial = replace(params, delta0=delta0, l=l)
        ceiling = equilibria.m_ceiling(trial)
        m = float(rng.uniform(0.0, min(ceiling * 0.95, 30.0)))
        trial = replace(trial, m=m)
        nt2 = equilibria.compute_nt2(trial)
        nt = float(nt2 * 10 ** rng.uniform(0.01, 2.0))
        trial = replace(trial, n_total=nt)
        eq = equilibria.solve_e2(trial)
        worst = max(worst, eq.residual / max(1.0, nt))
    return worst <= 1e-10, f"max scaled residual {worst:.2e} over 30 random tuples"


def check_threshold_order(params: ModelParams) -> Outcome:
    nt1 = equilibria.compute_nt1(params)
    if params.m >= equilibria.m_ceiling(params):
        return None, "maturity at or above the ceiling"
    nt2 = equilibria.compute_nt2(params)
    return nt2 > nt1, f"nt1={nt1:.6g}, nt2={nt2:.6g}"


def check_p2star_monotone_in_m(params: ModelParams) -> Outcome:
    if params.delta0 == 0.0:
        return None, "independent of maturity when juveniles do not die"
    ceiling = equilibria.m_ceiling(params)
    grid = np.linspace(0.0, 0.9 * min(ceiling, 40.0), 12)
    vals = [equilibria.solve_p2star(replace(params, m=float(m))) for m in grid]
    ok = all(b > a for a, b in zip(vals, vals[1:]))
    return ok, f"p2star spans [{vals[0]:.4g}, {vals[-1]:.4g}] over m in [0, {grid[-1]:.3g}]"


def check_delta0_continuity(params: ModelParams) -> Outcome:
    base = replace(params, delta0=0.0, m=min(params.m, 10.0) if params.m > 0 else 5.0)
    nt2 = equilibria.compute_nt2(base)
    base = replace(base, n_total=max(4.0 * nt2, base.n_total))
    eps = replace(base, delta0=1e-8)
    a = equilibria.solve_e2(base)
    b = equilibria.solve_e2(eps)
    worst = max(
        abs(a.n_star - b.n_star) / a.n_star,
        abs(a.p_star - b.p_star) / a.p_star,
        abs(a.z_star - b.z_star) / a.z_star,
    )
    return worst <= 1e-5, f"relative gap {worst:.2e} between delta0=0 and delta0=1e-8"


def _lin_for_checks(params: ModelParams):
    p_e1 = _e1_region_params(params)
    e1 = equilibria.solve_e1(p_e1)
    return p_e1, e1, linearize.build_linearization(e1, p_e1)


def _sample_points(seed: int, half: float, count: int, t_delay: float) -> np.ndarray:
    """Uniform points of the square |Re s|, |Im s| <= half, with Re(s) T
    held at -300 or above so that exp(-s T) stays finite."""
    rng = np.random.default_rng(seed)
    re = rng.uniform(-half, half, count)
    if t_delay > 0.0:
        re = np.maximum(re, -300.0 / t_delay)
    return re + 1j * rng.uniform(-half, half, count)


def check_e1_factorization(params: ModelParams) -> Outcome:
    p_e1, e1, lin = _lin_for_checks(params)
    s = _sample_points(7, 3.0, 200, lin.t_delay)
    prod = (
        (s + p_e1.mu * e1.p_star * lin.coeff_a)
        * (s + p_e1.delta0)
        * (s + p_e1.delta
           - p_e1.gamma * p_e1.g * lin.coeff_d * np.exp(-(p_e1.delta0 + s) * lin.t_delay))
    )
    scale = (
        (np.abs(s) + p_e1.mu * e1.p_star * lin.coeff_a)
        * (np.abs(s) + p_e1.delta0 + 1.0)
        * (np.abs(s) + p_e1.delta
           + p_e1.gamma * p_e1.g * lin.coeff_d * np.exp(-s.real * lin.t_delay))
    )
    worst = float(np.max(np.abs(linearize.char_fn(s, lin) - prod) / scale))
    return worst <= 1e-10, f"max scaled factorization gap {worst:.2e}"


def check_char_series_continuity(params: ModelParams) -> Outcome:
    # the package's kernel just inside the switch circle, where both the
    # array and the scalar path take the power series, against the direct
    # form; comparing char_fn across the circle would measure its derivative
    _, _, lin = _lin_for_checks(params)
    if lin.t_delay == 0.0:
        return None, "no delay at m=0"
    big_t = lin.t_delay
    radius = linearize.SERIES_SWITCH * (1.0 - 1e-9) / big_t
    s = radius * np.exp(1j * np.linspace(0, 2 * math.pi, 33))
    direct = (1.0 - np.exp(-s * big_t)) / s
    kernels = (linearize._delay_terms(s, big_t)[1],
               np.array([linearize._delay_terms_scalar(complex(x), big_t)[1] for x in s]))
    worst = max(float(np.max(np.abs(kern - direct) / np.abs(direct))) for kern in kernels)
    return worst <= 1e-10, f"max series-branch gap just inside the switch circle {worst:.2e}"


def check_char_conjugate_symmetry(params: ModelParams) -> Outcome:
    _, _, lin = _lin_for_checks(params)
    s = _sample_points(11, 5.0, 100, lin.t_delay)
    a = linearize.char_fn(np.conj(s), lin)
    b = np.conj(linearize.char_fn(s, lin))
    worst = float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))
    return worst <= 1e-12, f"max conjugation mismatch {worst:.2e}"


def check_periodicity_in_m(params: ModelParams) -> Outcome:
    if params.delta0 != 0.0:
        return None, "holds only with zero juvenile mortality (delta-0 nonzero here)"
    work = replace(params, m=5.0)
    nt2 = equilibria.compute_nt2(work)
    work = replace(work, n_total=4.0 * nt2)
    e2 = equilibria.solve_e2(work)
    lin = linearize.build_linearization(e2, work)
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(50):
        omega = float(10 ** rng.uniform(-1, 1))
        shifted = replace(lin, t_delay=lin.t_delay + 2 * math.pi / omega)
        a = linearize.char_fn(1j * omega, lin)
        b = linearize.char_fn(1j * omega, shifted)
        scale = max(linearize.char_scale(1j * omega, lin), 1e-300)
        worst = max(worst, abs(a - b) / scale)
    return worst <= 1e-10, f"max drift under one-period delay shift {worst:.2e}"


def check_tau_running_consistency(params: ModelParams) -> Outcome:
    p_e2 = _e2_region_params(params)
    if p_e2 is None:
        return None, "no coexistence region"
    if p_e2.m == 0.0:
        p_e2 = replace(p_e2, m=5.0)
        p_e2 = replace(p_e2, n_total=4.0 * equilibria.compute_nt2(p_e2))
    p_e2 = equilibria.resolve_r_star(p_e2)
    big_t = p_e2.m / p_e2.r_star
    # the explicit step must resolve the fastest equilibrium rate, the
    # nutrient's uptake: T times that rate reaches 1e4 near the coexistence
    # ceiling, where T/64 drives the small nutrient pool negative
    lin = linearize.build_linearization(equilibria.solve_e2(p_e2), p_e2)
    panels = max(64, 2 ** math.ceil(math.log2(lin.t_delay * abs(lin.a1[0, 0]))))
    buf = simulate.build_initial(
        simulate.HistorySpec.at_equilibrium(0.05, -0.05), p_e2, big_t / panels)
    traj = simulate.integrate(buf, 4.0 * big_t, tau_refresh_interval=1)
    tol = 1e-12 * max(1.0, float(np.max(traj.tau_m)))
    return (traj.tau_drift_max <= tol,
            f"max running-sum drift {traj.tau_drift_max:.2e} (tol {tol:.1e})")


def run_check_suite(params: ModelParams) -> list[CheckResult]:
    """Run every check; each result is named after its function, without
    the ``check_`` prefix.  A check that raises a package error fails."""
    checks: tuple[Callable[[ModelParams], Outcome], ...] = (
        check_response_shapes,
        check_response_derivatives,
        check_inverse_roundtrip,
        check_h_over_r_bounded,
        check_rhs_zero_at_equilibria,
        check_equilibrium_residuals_random,
        check_threshold_order,
        check_p2star_monotone_in_m,
        check_delta0_continuity,
        check_e1_factorization,
        check_char_series_continuity,
        check_char_conjugate_symmetry,
        check_periodicity_in_m,
        check_tau_running_consistency,
    )
    results = []
    for fn in checks:
        try:
            ok, detail = fn(params)
        except TdePlanktonError as err:
            ok, detail = False, f"raised {type(err).__name__}: {err}"
        status = "skipped" if ok is None else "pass" if ok else "fail"
        results.append(CheckResult(fn.__name__.removeprefix("check_"), status, detail))
    return results
