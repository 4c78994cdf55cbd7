#!/usr/bin/env python3
"""Per-layer timings of the stability, continuation and simulation numerics.

Times each piece that dominates a boundary trace, a stability verdict or a
simulation on its own.  At the fig4-l0.159-dd boundary point m = 6
(l = 0.159, delta0 = 0.17): the scaled continuation residual, its
finite-difference Jacobian, one Newton corrector step, the root scan at
grid 256 and 512, one stability verdict (``rightmost_real_part``) at grid
512, the scan's dedupe of its accepted iterates, the coexistence solve, and
char_fn on one scalar and on 512 imaginary-axis seeds.  On fig6-stable with
200 panels per delay: one ``integrate`` step, from a run of two delays.

Each line is the minimum over ``--repeats`` rounds of the mean time per
call (per step for ``integrate``) in a round (plain ``time.perf_counter``),
in microseconds.  Run from the repository root with the package importable,
e.g.

    PYTHONPATH=src python3 scripts/time_layers.py --repeats 50
"""

import argparse
import copy
import sys
import time
from dataclasses import replace

import numpy as np

from tde_plankton import continuation, equilibria, linearize, simulate
from tde_plankton.config import build_config
from tde_plankton.presets import preset_values

#: (n_star, p_star, z_star, m, n_total, omega) on the fig4-l0.159-dd locus.
BOUNDARY_POINT = (0.6595510534361235, 0.236286571992287, 0.41112209023762486,
                  6.0, 3.1606793698568847, 0.8443190121567277)


#: Steps per delay, and delays per run, of the timed integrate layer.
PANELS, DELAYS = 200, 2


def _integrate_step():
    """(steps per run, a run of ``integrate`` on fig6-stable from a copy of
    one initial history)."""
    params = equilibria.resolve_r_star(
        build_config(preset_values("fig6-stable"), None, {}).params)
    dt = params.m / params.r_star / PANELS
    buf = simulate.build_initial(simulate.HistorySpec.at_equilibrium(1e-3, 1e-3), params, dt)
    steps = PANELS * DELAYS
    return steps, lambda: simulate.integrate(copy.deepcopy(buf), steps * dt)


def _layers():
    """(name, calls per round, zero-argument callable, units of work per
    call) for every layer."""
    params = build_config(preset_values("fig4-l0.159-dd"), None, {}).params
    m, nt, omega = BOUNDARY_POINT[3:]
    params = replace(params, m=m, n_total=nt)
    m_scale = continuation._m_scale(params)
    x = continuation._pack(np.array(BOUNDARY_POINT), m_scale)
    base, lin = continuation._residual(x.tolist(), params, m_scale)
    tangent = continuation._tangent(
        continuation._fd_jacobian(x, params, m_scale, base, lin))
    # off the locus, so the step runs one residual, one Jacobian and one solve
    x_off = x + 1e-3 * tangent + np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1e-3])
    one_step = replace(continuation.TraceOptions(), max_newton=1)
    # the seeds of scan_roots at grid 512, and the iterates its dedupe gets
    omega_max = linearize.default_omega_max(lin)
    seeds = 1j * np.linspace(0.0, omega_max, 512)
    roots, ok = linearize._newton_batch(
        np.concatenate([seeds, np.linspace(-omega_max, 0.25 * omega_max, 64)]), lin)
    iterates = roots[ok]
    iterates = np.where(iterates.imag < 0, np.conj(iterates), iterates)

    def scan(grid_n):
        return lambda: linearize.scan_roots(replace(lin), grid_n=grid_n)

    steps, run_steps = _integrate_step()
    xl = x.tolist()
    return [
        ("_residual", 200, lambda: continuation._residual(xl, params, m_scale), 1),
        ("_fd_jacobian", 50, lambda: continuation._fd_jacobian(x, params, m_scale, base, lin), 1),
        ("_newton_corrector step", 50, lambda: continuation._newton_corrector(
            x_off, x_off, tangent, params, m_scale, one_step), 1),
        ("scan_roots grid 256", 2, scan(256), 1),
        ("scan_roots grid 512", 2, scan(512), 1),
        ("rightmost_real_part grid 512", 2,
         lambda: linearize.rightmost_real_part(replace(lin), grid_n=512), 1),
        (f"_dedupe ({iterates.size} iterates)", 20, lambda: linearize._dedupe(iterates), 1),
        ("solve_e2", 50, lambda: equilibria.solve_e2(params), 1),
        ("char_fn scalar", 500, lambda: linearize.char_fn(1j * omega, lin), 1),
        ("char_fn 512 seeds", 100, lambda: linearize.char_fn(seeds, lin), 1),
        (f"integrate step ({PANELS} panels)", 1, run_steps, steps),
    ]


def run(repeats: int = 50) -> dict[str, float]:
    """Print and return the min-of-``repeats`` time per unit of work of each
    layer, in µs."""
    times = {}
    for name, number, call, units in _layers():
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(number):
                call()
            best = min(best, (time.perf_counter() - t0) / (number * units))
        times[name] = best * 1e6
        print(f"{name:<32s} {best * 1e6:10.1f} us")
    return times


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeats", type=int, default=50, help="rounds per layer (min is kept)")
    run(ap.parse_args().repeats)
    sys.exit(0)
