"""Command-line front end: equilibria, trace-boundary, simulate, check.

Every run writes its fully resolved configuration (``resolved.cfg``) next to
its outputs, so any artifact can be reproduced exactly with
``--config <outdir>/resolved.cfg``.  CSV files carry full-precision
scientific notation; identical configurations produce byte-identical files.

Exit codes: 0 success (including a clean extinction), 1 runtime failure,
2 invalid configuration, 3 check-suite failure.  Boundary curves are
seeded on a pool of up to four threads, one maturity per job whose windows
share their root scans; sweeps and traces run in order on the calling
thread.  ``trace-boundary`` traces its starts in order of
(m, n_total, omega) and skips a start that lies on a curve already traced,
so a locus is traced once, both ways from the first start on it; each
curve's metadata records why its forward and its backward half stopped.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import checks, continuation, equilibria, simulate
from .config import RunConfig, build_config, dump_flat, parse_flat_text
from .continuation import TraceOptions
from .exceptions import (
    ConfigError,
    InfeasibleBiomassError,
    ParamError,
    TdePlanktonError,
)
from .presets import preset_values

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_CHECKS = 3


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """Floats as ``%.16e``, the rest as ``str``; each column holds one type."""
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        if rows:
            fmt = ",".join("%.16e" if isinstance(v, float) else "%s" for v in rows[0]) + "\n"
            fh.writelines(fmt % tuple(row) for row in rows)


def _echo_config(cfg: RunConfig, out_dir: Path) -> None:
    (out_dir / "resolved.cfg").write_text(dump_flat(cfg.resolved))


def cmd_equilibria(cfg: RunConfig, out_dir: Path) -> int:
    sweep = cfg.sweep
    if sweep.nt_points > 0:
        grid = np.logspace(
            math.log10(sweep.nt_min), math.log10(sweep.nt_max), sweep.nt_points
        )
    else:
        grid = np.array([])

    manifest = []
    for m in sweep.m_list:
        rows = equilibria.classify_and_sweep(replace(cfg.params, m=m), grid)
        name = f"sweep_m{m:g}_d0{cfg.params.delta0:g}.csv"
        _write_csv(
            out_dir / name,
            ["n_total", "kind", "n_star", "p_star", "z_star", "residual"],
            [[r.n_total, r.kind, r.n_star, r.p_star, r.z_star, r.residual] for r in rows],
        )
        manifest.append({"m": m, "delta0": cfg.params.delta0, "file": name, "rows": len(rows)})
    (out_dir / "manifest.json").write_text(
        json.dumps({"command": "equilibria", "outputs": manifest}, indent=2, sort_keys=True)
        + "\n"
    )
    _echo_config(cfg, out_dir)
    return EXIT_OK


def _auto_windows() -> list[tuple[float, float]]:
    edges = [0.02 * 2 ** k for k in range(11)]
    return list(zip(edges[:-1], edges[1:]))


def cmd_trace_boundary(cfg: RunConfig, out_dir: Path) -> int:
    params = cfg.params
    tr = cfg.trace
    ceiling = equilibria.m_ceiling(params)
    m_max = tr.m_max
    warnings: list[str] = []
    if m_max > ceiling:
        m_max = ceiling * (1 - 1e-9)
        if math.isfinite(ceiling):
            warnings.append(
                f"maturity range clipped to [0, {ceiling:.6g}) by the coexistence ceiling"
            )
    m_seeds = []
    for m in tr.m_seeds:
        if m >= ceiling:
            warnings.append(f"seed m={m:g} at or above the ceiling {ceiling:.6g}; dropped")
        elif m >= m_max:
            warnings.append(f"seed m={m:g} at or above continuation.m_max {m_max:.6g}; dropped")
        else:
            m_seeds.append(m)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)

    if tr.omega_windows == "none":
        windows: list = [None]
    elif tr.omega_windows == "auto":
        windows = _auto_windows()
    else:
        windows = list(tr.omega_windows)

    opts = TraceOptions(
        nt_min=tr.nt_min, nt_max=tr.nt_max, m_max=m_max,
        corrector_tol=tr.corrector_tol, max_steps=tr.max_steps,
    )
    failures: list[dict] = []

    def seed_one(m, window, lins):
        try:
            nt2 = equilibria.compute_nt2(replace(params, m=m))
            lo = max(tr.nt_min, nt2 * 1.001)
            return continuation.find_start(
                params, m, (lo, tr.nt_max), omega_window=window, grid_n=tr.grid_n,
                opts=opts, lins=lins,
            )
        except TdePlanktonError as err:
            failures.append(
                {"m": m, "window": window, "error": type(err).__name__, "detail": str(err)}
            )
            return None

    def seed_m(m):
        lins: dict = {}  # this maturity's windows solve in the same bracket
        return [seed_one(m, w, lins) for w in windows]

    with ThreadPoolExecutor(max_workers=min(4, os.cpu_count() or 1)) as pool:
        starts = [s for group in pool.map(seed_m, m_seeds) for s in group if s is not None]

    curves = []
    # a start on a traced curve (an equal start too) would re-trace its locus
    for start in sorted(starts, key=lambda b: (b.m, b.n_total, b.omega)):
        if not any(continuation.lies_on_curve(start, c, params) for c in curves):
            curves.append(continuation.trace_curve(start, params, opts))
    kept = continuation.deduplicate_curves(curves, params)

    curve_rows, freq_rows, curve_meta = [], [], []
    for cid, curve in enumerate(kept):
        for idx, p in enumerate(curve.points):
            res = continuation.point_residual(p, params)
            curve_rows.append(
                [cid, idx, p.m, p.n_total, p.omega, p.n_star, p.p_star, p.z_star, res]
            )
            freq_rows.append([cid, p.m, p.n_total, p.omega])
        curve_meta.append({
            "curve_id": cid,
            "points": len(curve.points),
            "termination_forward": curve.termination.value,
            "termination_backward": curve.termination_backward.value,
        })

    _write_csv(
        out_dir / "curves.csv",
        ["curve_id", "point_index", "m", "n_total", "omega",
         "n_star", "p_star", "z_star", "residual"],
        curve_rows,
    )
    _write_csv(
        out_dir / "frequency_profile.csv",
        ["curve_id", "m", "n_total", "omega"],
        freq_rows,
    )
    (out_dir / "metadata.json").write_text(
        json.dumps(
            {
                "command": "trace-boundary",
                "curves": curve_meta,
                "seed_failures": sorted(failures, key=lambda f: (f["m"], str(f["window"]))),
                "warnings": warnings,
            },
            indent=2, sort_keys=True,
        )
        + "\n"
    )
    _echo_config(cfg, out_dir)
    return EXIT_OK


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> int:
    params = equilibria.resolve_r_star(cfg.params)
    sim_cfg = cfg.sim
    # auto: dt_panels steps per delay T = m / r_star, or 0.01 without a delay
    auto_dt = params.m / params.r_star / sim_cfg.dt_panels if params.m > 0 else 0.01
    dt_hat = sim_cfg.dt_hat or auto_dt

    if sim_cfg.history == "equilibrium":
        spec = simulate.HistorySpec.at_equilibrium(
            sim_cfg.eps_p, sim_cfg.eps_z, n0_offset=sim_cfg.n0_offset
        )
    else:
        if sim_cfg.p0 is None or sim_cfg.z0 is None:
            raise ConfigError("run.history = constant requires run.p0 and run.z0")
        spec = simulate.HistorySpec.constant(
            sim_cfg.p0, sim_cfg.z0, n0_offset=sim_cfg.n0_offset
        )

    buf = simulate.build_initial(spec, params, dt_hat)
    traj = simulate.integrate(buf, sim_cfg.horizon_hat)
    freq = simulate.measure_frequency(traj)

    columns = [traj.t_hat, traj.t, traj.n, traj.p, traj.z, traj.tau_m, traj.cons_residual]
    _write_csv(
        out_dir / "trajectory.csv",
        ["t_hat", "t", "n", "p", "z", "tau_m", "cons_residual"],
        np.column_stack(columns).tolist(),
    )

    rho_files = []
    for t_req in sim_cfg.rho_times:
        s_grid = np.linspace(0.0, params.m, sim_cfg.rho_s_panels + 1)
        rho = simulate.reconstruct_rho(traj, t_req, s_grid)
        name = f"rho_t{t_req:g}.csv"
        _write_csv(out_dir / name, ["s", "rho"],
                   np.column_stack([s_grid, rho]).tolist())
        rho_files.append(name)

    (out_dir / "metadata.json").write_text(
        json.dumps(
            {
                "command": "simulate",
                "params": asdict(params),
                "history_spec": asdict(spec),
                "dt_hat": dt_hat,
                "termination": traj.termination.value,
                "fitted_frequency": freq,
                "rho_files": rho_files,
                "rows": len(traj),
            },
            indent=2, sort_keys=True,
        )
        + "\n"
    )
    _echo_config(cfg, out_dir)
    if traj.termination is simulate.Termination.SINGULAR_RATE:
        print("run terminated: growth rate hit the singular floor", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_check(cfg: RunConfig, out_dir: Path) -> int:
    results = checks.run_check_suite(cfg.params)
    lines = []
    for r in results:
        line = json.dumps(
            {"check": r.name, "status": r.status, "detail": r.detail}, sort_keys=True
        )
        print(line)
        lines.append(line)
    (out_dir / "report.jsonl").write_text("\n".join(lines) + "\n")
    _echo_config(cfg, out_dir)
    failed = [r for r in results if r.status == "fail"]
    return EXIT_CHECKS if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tde-plankton",
        description="Closed NPZ plankton model with maturity-structured juveniles",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "equilibria": cmd_equilibria,
        "trace-boundary": cmd_trace_boundary,
        "simulate": cmd_simulate,
        "check": cmd_check,
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None, help="flat key = value file")
        p.add_argument("--preset", type=str, default=None, help="named parameter preset")
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        p.add_argument(
            "--set", dest="sets", action="append", default=[],
            metavar="KEY=VALUE", help="override one configuration key (repeatable)",
        )
        p.set_defaults(func=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        preset_vals = preset_values(args.preset) if args.preset else None
    except KeyError as err:
        print(f"error: {err.args[0]}", file=sys.stderr)
        return EXIT_CONFIG
    file_vals = None
    if args.config is not None:
        try:
            file_vals = parse_flat_text(args.config.read_text())
        except OSError as err:
            print(f"error: cannot read config: {err}", file=sys.stderr)
            return EXIT_CONFIG
        except ConfigError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_CONFIG
    overrides = {}
    for item in args.sets:
        if "=" not in item:
            print(f"error: --set expects KEY=VALUE, got {item!r}", file=sys.stderr)
            return EXIT_CONFIG
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    try:
        cfg = build_config(preset_vals, file_vals, overrides)
    except (ConfigError, ParamError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir: Path = args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return args.func(cfg, out_dir)
    except (ConfigError, InfeasibleBiomassError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except TdePlanktonError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
