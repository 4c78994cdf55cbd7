#!/usr/bin/env python3
"""Per-layer timings of the stability, continuation and simulation numerics.

Times each piece that dominates a boundary trace, a stability verdict or a
simulation on its own.  At the fig4-l0.159-dd boundary point m = 6
(l = 0.159, delta0 = 0.17): the scaled continuation residual, its
finite-difference Jacobian, one Newton corrector step, the root scan at
grid 256 and 512, one stability verdict (``rightmost_real_part``) at grid
512, the scan's dedupe of its accepted iterates, the coexistence solve,
char_fn on one scalar and on 512 imaginary-axis seeds, one start search
(``find_start``) at the preset's m = 6 seed, its root scans included, and
``deduplicate_curves`` on the curve traced from that start and a copy of
it (the copy is merged away).  The
Newton sweep (``_newton_batch``) on the 576 seeds of a grid-512 scan at the
coexistence state m = 6, l = 0.159, n_total = 3, once with delta0 = 0 (its
seeds at the structural zero root take the kernel's series branch) and
once with delta0 = 0.17.  The root scan at grid 512 at the long-delay
coexistence state LONG_DELAY_POINT (l = 1, delta0 = 0, m = 16,
n_total = 2, T of about 460), where plain Newton moves a seed left of
the axis by only about 1/T a pass, and one stability verdict at grid 512
at the long-delay coexistence state LONG_VERDICT_POINT (T of about 407),
whose disc is seeded pi/(2T) apart.  The radius of the root disc
(``root_radius``) at the fig4-l0.159-dd boundary point.  On
fig6-stable with 200 panels per delay: one ``integrate`` step, from a run
of two delays, ``dde_rhs`` at that run's last state and the state one delay
before it, ``conservation_value`` of that run's last delay window (one
row's conservation residual) and ``juvenile_pool`` over the delay windows
of that run.  On a
run of 6,000 steps at 400 panels per delay, the size of a sim-fig6
benchmark task: ``juvenile_pool`` over its windows, ``tde_residual`` of the
run, and the CLI's CSV writer (``_write_csv``) on the first 6,000 rows of
its seven trajectory columns, written to the null device.  Last, ``cli
import``: a fresh interpreter that imports the command-line entry point,
start-up included.

Each line is the minimum over ``--repeats`` rounds of the mean time per
call (per step for ``integrate``) in a round (plain ``time.perf_counter``),
in microseconds.  ``--json PATH`` also writes them to PATH, with the CPU
count, the Python and numpy versions and the line count of the package
timed.  Run from the repository root with the package importable, e.g.

    PYTHONPATH=src python3 scripts/time_layers.py --repeats 50 --json layers.json
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from tde_plankton import cli, continuation, equilibria, linearize, model, simulate
from tde_plankton.config import build_config
from tde_plankton.presets import preset_values

#: (n_star, p_star, z_star, m, n_total, omega) on the fig4-l0.159-dd locus.
BOUNDARY_POINT = (0.6595510534361235, 0.236286571992287, 0.41112209023762486,
                  6.0, 3.1606793698568847, 0.8443190121567277)


#: (m, l, n_total) of the two Newton sweep layers, timed at delta0 0 and 0.17.
SWEEP_POINT = (6.0, 0.159, 3.0)

#: (m, l, delta0, n_total) of the long-delay root scan layer.
LONG_DELAY_POINT = (16.0, 1.0, 0.0, 2.0)

#: (m, l, delta0, n_total) of the long-delay verdict layer.
LONG_VERDICT_POINT = (14.127330466813257, 1.0, 0.0, 0.08520849473947666)

#: Steps per delay, and delays per run, of the timed integrate layer.
PANELS, DELAYS = 200, 2
#: Steps per delay, and steps, of the long run for the second pool layer.
LONG_PANELS, LONG_STEPS = 400, 6000


def _fig6_run(panels, steps):
    """(a run of ``integrate`` on fig6-stable from one initial history,
    ``juvenile_pool`` over the windows of that run, and the run's
    trajectory)."""
    params = equilibria.resolve_r_star(
        build_config(preset_values("fig6-stable"), None, {}).params)
    dt = params.m / params.r_star / panels
    buf = simulate.build_initial(simulate.HistorySpec.at_equilibrium(1e-3, 1e-3), params, dt)
    traj = simulate.integrate(buf, steps * dt)
    t_hat, p, z = (np.concatenate([getattr(buf, k)[:-1], getattr(traj, k)])
                   for k in ("t_hat", "p", "z"))
    return (lambda: simulate.integrate(buf, steps * dt),
            lambda: model.juvenile_pool(t_hat, p, z, panels, params), traj)


def _sweep(delta0):
    """Newton sweep of a grid-512 scan's seeds at SWEEP_POINT and delta0."""
    m, el, n_total = SWEEP_POINT
    params = model.ModelParams(m=m, l=el, n_total=n_total, delta0=delta0)
    lin = linearize.build_linearization(equilibria.solve_e2(params), params)
    omega_max = linearize.default_omega_max(lin)
    seeds = np.concatenate([1j * np.linspace(0.0, omega_max, 512),
                            np.linspace(-omega_max, 0.25 * omega_max, 64)])
    return lambda: linearize._newton_batch(seeds, lin)


def _long_delay_lin(point):
    """The linearization at the coexistence state (m, l, delta0, n_total)."""
    m, el, delta0, n_total = point
    params = model.ModelParams(m=m, l=el, delta0=delta0, n_total=n_total)
    return linearize.build_linearization(equilibria.solve_e2(params), params)


def _long_delay_scan():
    """A grid-512 root scan at LONG_DELAY_POINT, on a fresh copy each call."""
    lin = _long_delay_lin(LONG_DELAY_POINT)
    return lambda: linearize.scan_roots(replace(lin), grid_n=512)


def _long_delay_verdict():
    """A grid-512 verdict at LONG_VERDICT_POINT, on a fresh copy each call."""
    lin = _long_delay_lin(LONG_VERDICT_POINT)
    return lambda: linearize.rightmost_real_part(replace(lin), grid_n=512)


def _import_cli():
    """Run ``import tde_plankton.cli`` in a fresh interpreter that finds the
    package where this process found it."""
    path = [str(Path(continuation.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    subprocess.run([sys.executable, "-c", "import tde_plankton.cli"], env=env, check=True)


def _layers():
    """(name, calls per round, zero-argument callable, units of work per
    call) for every layer."""
    cfg = build_config(preset_values("fig4-l0.159-dd"), None, {})
    tr = cfg.trace
    m, nt, omega = BOUNDARY_POINT[3:]
    params = replace(cfg.params, m=m, n_total=nt)
    # the CLI's start search at the seed m, in the preset's bracket
    seed_opts = continuation.TraceOptions(
        nt_min=tr.nt_min, nt_max=tr.nt_max, corrector_tol=tr.corrector_tol)
    bracket = (max(tr.nt_min, equilibria.compute_nt2(params) * 1.001), tr.nt_max)
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

    start = continuation.find_start(params, m, bracket, grid_n=tr.grid_n, opts=seed_opts)
    twice = [continuation.trace_curve(start, params, seed_opts)] * 2

    steps = PANELS * DELAYS
    run_steps, pool, traj = _fig6_run(PANELS, steps)
    now, before = (model.StateNPZ(traj.n[i], traj.p[i], traj.z[i]) for i in (-1, -1 - PANELS))
    window = [getattr(traj, k)[-1 - PANELS:] for k in ("t_hat", "n", "p", "z")]
    _, long_pool, long_traj = _fig6_run(LONG_PANELS, LONG_STEPS)
    fields = ["t_hat", "t", "n", "p", "z", "tau_m", "cons_residual"]
    columns = [getattr(long_traj, f)[:LONG_STEPS] for f in fields]
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
        ("find_start", 1, lambda: continuation.find_start(
            params, m, bracket, grid_n=tr.grid_n, opts=seed_opts), 1),
        ("deduplicate_curves (2 curves)", 5,
         lambda: continuation.deduplicate_curves(twice, params), 1),
        ("_newton_batch grid 512 delta0 0", 2, _sweep(0.0), 1),
        ("_newton_batch grid 512 delta0 0.17", 2, _sweep(0.17), 1),
        ("scan_roots grid 512 long delay", 2, _long_delay_scan(), 1),
        ("rightmost_real_part grid 512 long delay", 2, _long_delay_verdict(), 1),
        ("root radius", 500, lambda: linearize.root_radius(lin), 1),
        (f"integrate step ({PANELS} panels)", 1, run_steps, steps),
        ("dde_rhs", 500, lambda: model.dde_rhs(now, before, traj.tau_m[-1], traj.params), 1),
        (f"conservation_value ({PANELS + 1} samples)", 50,
         lambda: model.conservation_value(*window, traj.params), 1),
        (f"juvenile_pool ({steps + 1} windows)", 5, pool, 1),
        (f"juvenile_pool ({LONG_STEPS + 1} windows)", 5, long_pool, 1),
        (f"tde_residual ({len(long_traj)} rows)", 1, lambda: simulate.tde_residual(long_traj), 1),
        (f"_write_csv trajectory ({LONG_STEPS} x {len(fields)})", 2,
         lambda: cli._write_csv(Path(os.devnull), fields, columns), 1),
        ("cli import", 1, _import_cli, 1),
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
        print(f"{name:<36s} {best * 1e6:10.1f} us")
    return times


def _package_lines() -> int:
    """Lines in the source files of the package timed."""
    files = Path(linearize.__file__).resolve().parent.glob("*.py")
    return sum(len(f.read_text().splitlines()) for f in files)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeats", type=int, default=50, help="rounds per layer (min is kept)")
    ap.add_argument("--json", type=Path, metavar="PATH", help="also write the times here")
    args = ap.parse_args(argv)
    times = run(args.repeats)
    if args.json is not None:
        record = {"layers_us": times, "repeats": args.repeats, "cpu_count": os.cpu_count(),
                  "python": platform.python_version(), "numpy": np.__version__,
                  "src_lines": _package_lines()}
        args.json.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
