"""Command-line front end: equilibria, trace-boundary, simulate, check.

Every run writes its fully resolved configuration (``resolved.cfg``) next to
its outputs, so any artifact can be reproduced exactly with
``--config <outdir>/resolved.cfg``.  CSV files write a float as ``%.16e``:
17 significant digits, correctly rounded (half to even), with ``nan``,
``inf`` and ``-inf`` as Python prints them; other values as ``str``.  The
column-wise writer formats floats in numpy blocks, and its bytes are the
ones a per-value ``'%.16e' % v`` gives.  Identical configurations produce
byte-identical files.

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
import functools
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import checks, continuation, equilibria, simulate
from .config import (
    RunConfig, build_config, dump_flat, parse_flat_text, rho_file_name, sweep_file_name,
)
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


#: Rows per block of the CSV writer: its transient buffers stay under 1 MiB
#: for seven float columns.
CSV_BLOCK_ROWS = 512
#: Decimal exponents the ``%.16e`` kernel formats itself (|x| in
#: [1e-250, 1e250] and one below); others take Python's own formatting.
_E_LO, _E_HI = -251, 250
_VELTKAMP = 134217729.0  # 2**27 + 1


@functools.cache
def _e16_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The tables of ``_format_e16``, built on its first call.

    A formatted value is seven little-endian 4-byte words, NUL-padded (the
    writer drops every NUL): [NUL, sign or NUL, lead digit, '.'], four words
    of four digits, ['e', exponent sign, hundreds digit or NUL, tens
    digit], [ones digit, NUL x 3]; the writer puts the separator in byte
    25.  The tables: row ``_E_HI - e`` of ``pow10`` is (hi, hi's Veltkamp
    halves, lo) with hi + lo = 10**(16 - e) within about 2**-106 relative,
    from Python ints (whose int/int division rounds correctly); the word of
    each 4-digit group; the first word by [sign, lead digit]; and the last
    two words by exponent, from ``_E_LO``.
    """
    rows = []
    for k in range(16 - _E_HI, 17 - _E_LO):
        if k >= 0:
            hi = float(10 ** k)
            lo = float(10 ** k - int(hi))
        else:
            den = 10 ** -k
            hi = 1 / den
            num, two_pow = hi.as_integer_ratio()
            lo = (two_pow - num * den) / (two_pow * den)
        c = _VELTKAMP * hi
        hi_hi = c - (c - hi)
        rows.append((hi, hi_hi, hi - hi_hi, lo))
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)  # digit k of i at [*digits of i, k]
    for k in range(4):
        digits[..., k] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - k))
    head = b"".join(b"\0" + sign + b"%d." % d for sign in (b"\0", b"-") for d in range(10))
    exponents = b"".join(
        b"e" + s[:1] + s[1:].rjust(3, b"\0") + b"\0\0\0"
        for s in (b"%+03d" % e for e in range(_E_LO, _E_HI + 1)))
    return (np.array(rows), digits.view("<u4").ravel(),
            np.frombuffer(head, "<u4").reshape(2, 10),
            np.frombuffer(exponents, "<u4").reshape(-1, 2))


def _format_e16(x: np.ndarray) -> np.ndarray:
    """``'%.16e' % v`` for every float64 ``v`` of ``x``, as the words of
    ``_e16_tables`` (shape ``x.shape + (7,)``), byte for byte what Python
    prints.

    A certified fast path with an exact fallback (Grisu3; Loitsch, PLDI
    2010): with e = floor(log10|v|), y = |v| * 10**(16 - e) is formed as a
    double-double by a Dekker two-product against the table, within about
    2**-104 relative, i.e. far below 1e-6 absolute.  The 17 digits are
    floor(y) rounded up when its fraction exceeds 1/2.  A value goes to
    Python when that decision is not certain (fraction within 1e-6 of 1/2:
    ties round half-even there), when e was off by one (floor(y) < 10**16,
    or the rounded digits reach 10**17), and when |v| lies outside [1e-250,
    1e250] or v is 0, nan or inf.
    """
    pow10, digits4, head, exponents = _e16_tables()
    flat = x.ravel()
    a = np.abs(flat)
    fallback = ~((a >= 1e-250) & (a <= 1e250))
    a[fallback] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    hi, hi_hi, hi_lo, lo = pow10[_E_HI - e].T
    c = a * _VELTKAMP
    a_hi = c - (c - a)
    a_lo = a - a_hi
    y = a * hi
    err = a_hi * hi_hi - y  # y + err + a * lo = a * (hi + lo), to rounding
    err += a_hi * hi_lo
    err += a_lo * hi_hi
    err += a_lo * hi_lo
    err += a * lo
    y_hi = y + err
    y_lo = (y - y_hi) + err  # y_hi is an integer once y >= 2**53
    whole = np.floor(y_lo)
    frac = y_lo - whole
    digits = y_hi.astype(np.int64) + whole.astype(np.int64)
    fallback |= digits < 10 ** 16
    digits += frac > 0.5
    fallback |= np.abs(frac - 0.5) < 1e-6
    fallback |= digits >= 10 ** 17

    words = np.empty((flat.size, 7), "<u4")
    lead = digits // 10 ** 16
    digits -= lead * 10 ** 16
    words[:, 0] = head[(flat < 0).view(np.int8), np.minimum(lead, 9)]
    for col, scale in ((1, 10 ** 12), (2, 10 ** 8), (3, 10 ** 4)):
        group = digits // scale
        words[:, col] = digits4[group]
        digits -= group * scale
    words[:, 4] = digits4[digits]
    words[:, 5:] = exponents[e - _E_LO]
    (slow,) = np.nonzero(fallback)
    if slow.size:
        text = [b"%.16e" % v for v in flat[slow].tolist()]
        words[slow] = np.array(text, "S28").view("<u4").reshape(-1, 7)
    return words.reshape(x.shape + (7,))


def _write_csv(path: Path, header: list[str], columns: list) -> None:
    """One line per row of ``columns`` (one per header name, of equal
    length): float64 columns as ``%.16e``, any other through ``str``."""
    columns = [np.asarray(c) for c in columns]
    floats = [c.dtype == np.float64 for c in columns]
    seps = [b","] * (len(columns) - 1) + [b"\n"]
    float_seps = np.array([ord(s) << 8 for s, f in zip(seps, floats) if f], "<u4")
    rows = len(columns[0]) if columns else 0
    with path.open("wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, rows, CSV_BLOCK_ROWS):
            block = [c[start:start + CSV_BLOCK_ROWS] for c in columns]
            n = len(block[0])
            if float_seps.size:
                words = _format_e16(np.stack([b for b, f in zip(block, floats) if f], axis=1))
                words[:, :, 6] += float_seps  # byte 25 is NUL
                formatted = iter(words.view(np.uint8).transpose(1, 0, 2))
            fields = [
                next(formatted) if f else
                np.array([str(v).encode() + s for v in b.tolist()]).view(np.uint8).reshape(n, -1)
                for b, f, s in zip(block, floats, seps)
            ]
            buf = np.concatenate(fields, axis=1)
            fh.write(buf.tobytes().translate(None, b"\0"))


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
        name = sweep_file_name(m, cfg.params.delta0)
        fields = ["n_total", "kind", "n_star", "p_star", "z_star", "residual"]
        _write_csv(out_dir / name, fields, [[getattr(r, f) for r in rows] for f in fields])
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

    points = [(cid, idx, p) for cid, c in enumerate(kept) for idx, p in enumerate(c.points)]
    columns = {
        "curve_id": [cid for cid, _, _ in points],
        "point_index": [idx for _, idx, _ in points],
        **{k: [getattr(p, k) for *_, p in points]
           for k in ("m", "n_total", "omega", "n_star", "p_star", "z_star")},
        "residual": [continuation.point_residual(p, params) for *_, p in points],
    }
    _write_csv(out_dir / "curves.csv", list(columns), list(columns.values()))
    profile = ["curve_id", "m", "n_total", "omega"]
    _write_csv(out_dir / "frequency_profile.csv", profile, [columns[k] for k in profile])
    curve_meta = [
        {
            "curve_id": cid,
            "points": len(curve.points),
            "termination_forward": curve.termination.value,
            "termination_backward": curve.termination_backward.value,
        }
        for cid, curve in enumerate(kept)
    ]
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

    fields = ["t_hat", "t", "n", "p", "z", "tau_m", "cons_residual"]
    _write_csv(out_dir / "trajectory.csv", fields, [getattr(traj, f) for f in fields])

    rho_files = []
    for t_req in sim_cfg.rho_times:
        s_grid = np.linspace(0.0, params.m, sim_cfg.rho_s_panels + 1)
        rho = simulate.reconstruct_rho(traj, t_req, s_grid)
        name = rho_file_name(t_req)
        _write_csv(out_dir / name, ["s", "rho"], [s_grid, rho])
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


@functools.cache  # parsing leaves the parser as it was
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
