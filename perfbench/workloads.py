"""The benchmark's three workloads: seeded inputs, one task, and its output check.

Each workload hands out its tasks in blocks.  A block is the unit the run
loop finishes before it looks at the clock again, so every run holds whole
blocks.  The two CLI workloads put one task of each of their two input
classes in a block; their per-task times are bimodal, and only a balanced
mix keeps the median per task from jumping between the two modes from one
seed to the next.

Inputs come from ``numpy.random.default_rng([seed, block])`` alone, so the
same seed gives the same inputs however many blocks a run reaches.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from tde_plankton import cli, equilibria, linearize
from tde_plankton.model import ModelParams

# -- sim-fig6 ---------------------------------------------------------------

#: fig6 configuration: m=6, l=0.159, delta0=0.17, equilibrium history.
SIM_PRESET = "fig6-stable"
#: horizon_hat times dt_panels, so both panel counts take the same number of
#: steps (60000 / T, with T = m / r_star the delay in t_hat) and about the
#: same time, about a second on a 2-vCPU x86-64 host.  A run then holds a dozen or more
#: tasks, each long enough to average over the host's speed swings, instead
#: of four bimodal ones at the preset's full horizon of 1500.
SIM_HORIZON_PANELS = 60000.0
#: log10(n_total) range; the Hopf boundary at 10^0.50 lies inside, so
#: damped and growing oscillations both occur.
SIM_LOG_NT = (0.47, 0.53)
SIM_EPS = (5e-4, 2e-3)
#: panels per delay; the per-step conservation window scales with it.
SIM_PANELS = (200, 400)
#: rho is reconstructed halfway through the horizon
SIM_RHO_SHARE = 0.5
#: Bound on max |cons_residual| relative to n_total.  The largest value over
#: the input ranges at this commit, even at the preset's full horizon, is
#: about 8e-5 (n_total = 10^0.53, eps = 2e-3, 200 panels, where the
#: oscillation grows to a large amplitude); the bound sits an order of
#: magnitude above it.  The acceptance suite checks
#: only the order of convergence of this residual, so it implies no tighter
#: bound.
SIM_CONS_BOUND = 1e-3

# -- trace-fig4 -------------------------------------------------------------

#: dd: 4 m seeds, 8 traces, one kept curve (corrector and dedupe dominate);
#: d0: 40 windowed seeds, two kept curves (find_start dominates).
TRACE_PRESETS = ("fig4-l0.159-dd", "fig4-l0.159-d0")
#: Relative shift applied to every m seed of a task, per preset.  Each value
#: was run at this commit and keeps the kept-curve count below.  dd is kept
#: unshifted: of the shifts -2%, -1.5%, ..., +2% it kept one curve only at
#: -0.5%, 0 and +2%; -2%, +1% and +1.5% raise OverflowError in
#: equilibria.residuals_at, and the rest keep two copies of the one loop.
#: d0 keeps two curves for every shift from -1.5% to +2%.
TRACE_JITTERS = {
    "fig4-l0.159-dd": (0.0,),
    "fig4-l0.159-d0": (-0.01, -0.005, 0.0, 0.005, 0.01),
}
KEPT_CURVES = {"fig4-l0.159-dd": 1, "fig4-l0.159-d0": 2}
RESIDUAL_BOUND = 1e-8

# -- stab-map ---------------------------------------------------------------

STAB_RESPONSES = (None, 0.159)  # constant response, or Michaelis with l
STAB_DELTA0 = (0.0, 0.17)
STAB_M_MAX = 19.0
#: points per block, about a second of work
STAB_BLOCK = 25
#: every STAB_CHECK_EVERY-th point is checked against a denser scan
STAB_CHECK_EVERY = 10
STAB_REF_GRID = 2048
STAB_SIGN_TOL = 1e-6


@dataclass(frozen=True)
class Task:
    """One unit of timed work and what its output check expects."""

    workload: str
    index: int
    label: str
    argv: tuple[str, ...] = ()
    params: dict | None = None  # ModelParams fields, for library tasks
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What a task returned; ``problems`` is filled by the output check."""

    ok: bool
    wall_s: float = 0.0
    detail: str = ""
    out_dir: Path | None = None
    value: object = None
    problems: list[str] = field(default_factory=list)


def _fmt(x: float) -> str:
    return repr(float(x))


def _sets(pairs: dict[str, str]) -> tuple[str, ...]:
    out: list[str] = []
    for key, value in pairs.items():
        out += ["--set", f"{key}={value}"]
    return tuple(out)


def sim_block(seed: int, block: int) -> list[Task]:
    rng = np.random.default_rng([seed, block])
    tasks = []
    for k, panels in enumerate(rng.permutation(SIM_PANELS)):
        nt = 10.0 ** rng.uniform(*SIM_LOG_NT)
        eps_p, eps_z = rng.uniform(*SIM_EPS, size=2)
        horizon = SIM_HORIZON_PANELS / int(panels)
        sets = {
            "model.n_total": _fmt(nt),
            "run.eps_p": _fmt(eps_p),
            "run.eps_z": _fmt(eps_z),
            "run.dt_panels": str(int(panels)),
            "run.horizon_hat": _fmt(horizon),
            "run.rho_times": _fmt(SIM_RHO_SHARE * horizon),
        }
        tasks.append(Task(
            workload="sim-fig6",
            index=2 * block + k,
            label=f"panels={int(panels)}",
            argv=("simulate", "--preset", SIM_PRESET) + _sets(sets),
            expect={"n_total": nt, "horizon_hat": horizon},
        ))
    return tasks


def trace_block(seed: int, block: int) -> list[Task]:
    rng = np.random.default_rng([seed, block])
    tasks = []
    for k, preset in enumerate(rng.permutation(TRACE_PRESETS)):
        preset = str(preset)
        jitter = float(rng.choice(TRACE_JITTERS[preset]))
        base = cli.preset_values(preset)["continuation.m_seeds"].split(",")
        seeds = ",".join(_fmt(float(m) * (1.0 + jitter)) for m in base)
        tasks.append(Task(
            workload="trace-fig4",
            index=2 * block + k,
            label=preset,
            argv=("trace-boundary", "--preset", preset)
            + _sets({"continuation.m_seeds": seeds}),
            expect={"curves": KEPT_CURVES[preset]},
        ))
    return tasks


def stab_block(seed: int, block: int) -> list[Task]:
    rng = np.random.default_rng([seed, block])
    tasks = []
    for k in range(STAB_BLOCK):
        l_val = STAB_RESPONSES[int(rng.integers(len(STAB_RESPONSES)))]
        delta0 = STAB_DELTA0[int(rng.integers(len(STAB_DELTA0)))]
        base = ModelParams(l=l_val, delta0=delta0)
        m_hi = min(0.98 * equilibria.m_ceiling(base), STAB_M_MAX)
        m = float(rng.uniform(0.5, m_hi))
        nt2 = equilibria.compute_nt2(replace(base, m=m))
        log_nt = float(rng.uniform(math.log10(1.05 * nt2), 2.0))
        index = STAB_BLOCK * block + k
        response = "constant" if l_val is None else f"l={l_val:g}"
        tasks.append(Task(
            workload="stab-map",
            index=index,
            label=f"{response},delta0={delta0:g}",
            params={"l": l_val, "delta0": delta0, "m": m, "n_total": 10.0 ** log_nt},
            expect={"reference": index % STAB_CHECK_EVERY == 0},
        ))
    return tasks


def run_cli(task: Task, out_dir: Path) -> Outcome:
    """One CLI run through ``cli.main``; only the call itself is timed."""
    err = io.StringIO()
    argv = list(task.argv) + ["--out", str(out_dir)]
    with contextlib.redirect_stderr(err):
        t0 = perf_counter()
        rc = cli.main(argv)
        wall = perf_counter() - t0
    return Outcome(ok=True, wall_s=wall, detail=err.getvalue()[-500:],
                   out_dir=out_dir, value=rc)


def run_stab(task: Task, out_dir: Path) -> Outcome:
    """One stability verdict: solve_e2, build_linearization, rightmost_real_part."""
    params = ModelParams(**task.params)
    t0 = perf_counter()
    eq = equilibria.solve_e2(params)
    lin = linearize.build_linearization(eq, params)
    verdict = linearize.rightmost_real_part(lin)
    wall = perf_counter() - t0
    return Outcome(ok=True, wall_s=wall, value=(verdict, lin))


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with path.open() as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def check_sim(task: Task, out: Outcome) -> list[str]:
    problems = []
    if out.value != 0:
        return [f"exit code {out.value}"]
    meta = json.loads((out.out_dir / "metadata.json").read_text())
    if meta["termination"] != "horizon_reached":
        problems.append(f"termination {meta['termination']}")
    header, traj = _read_csv(out.out_dir / "trajectory.csv")
    col = {name: traj[:, i] for i, name in enumerate(header)}
    steps = round(task.expect["horizon_hat"] / meta["dt_hat"])
    if traj.shape[0] != steps + 1:
        problems.append(f"{traj.shape[0]} rows for {steps} steps")
    if not np.all(np.isfinite(traj)):
        problems.append("non-finite value in trajectory.csv")
    if not np.all(col["tau_m"] > 0):
        problems.append("tau_m not positive")
    worst = float(np.max(np.abs(col["cons_residual"])))
    if not worst <= SIM_CONS_BOUND * task.expect["n_total"]:
        problems.append(f"max |cons_residual| {worst:.3e} above the bound")
    if len(meta["rho_files"]) != 1:
        problems.append(f"rho files {meta['rho_files']}")
    for name in meta["rho_files"]:
        _, rho = _read_csv(out.out_dir / name)
        if rho.size == 0 or not np.all(np.isfinite(rho)):
            problems.append(f"{name} empty or non-finite")
    return problems


def check_trace(task: Task, out: Outcome) -> list[str]:
    if out.value != 0:
        return [f"exit code {out.value}"]
    problems = []
    meta = json.loads((out.out_dir / "metadata.json").read_text())
    # seed_failures list seeds with no stability flip in range; the windowed
    # preset expects most of its 40 seeds there, so they are not failures.
    if len(meta["curves"]) != task.expect["curves"]:
        problems.append(f"{len(meta['curves'])} curves, expected {task.expect['curves']}")
    header, rows = _read_csv(out.out_dir / "curves.csv")
    res = rows[:, header.index("residual")] if rows.size else np.array([])
    if res.size == 0:
        problems.append("curves.csv has no points")
    elif not np.all(res <= RESIDUAL_BOUND):
        problems.append(f"curve residual {np.nanmax(res):.3e} above {RESIDUAL_BOUND:g}")
    return problems


def check_stab(task: Task, out: Outcome) -> list[str]:
    verdict, lin = out.value
    if not math.isfinite(verdict):
        return [f"verdict {verdict}"]
    if task.expect["reference"] and abs(verdict) >= STAB_SIGN_TOL:
        ref = linearize.rightmost_real_part(lin, grid_n=STAB_REF_GRID)
        if (ref > 0) != (verdict > 0):
            return [f"verdict {verdict:.3e} but grid_n={STAB_REF_GRID} gives {ref:.3e}"]
    return []


@dataclass(frozen=True)
class Workload:
    """How a workload makes its blocks, runs one task and checks its output."""

    name: str
    block: Callable[[int, int], list[Task]]
    run: Callable[[Task, Path], Outcome]
    check: Callable[[Task, Outcome], list[str]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sim-fig6", sim_block, run_cli, check_sim),
        Workload("trace-fig4", trace_block, run_cli, check_trace),
        Workload("stab-map", stab_block, run_stab, check_stab),
    )
}
