"""Flat key = value run configuration with sectioned keys.

A configuration is a plain text file of ``section.key = value`` lines
(``#`` comments allowed), overlaid in order: built-in defaults, a named
preset, a config file, then repeatable ``--set key=value`` flags.  Unknown
keys are rejected.  The fully resolved flat map is echoed next to every
run's outputs so a run can be reproduced byte-for-byte from its own
artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exceptions import ConfigError, ParamError
from .model import ModelParams


def _parse_float_list(s: str) -> tuple[float, ...]:
    s = s.strip()
    if not s:
        return ()
    return tuple(float(tok) for tok in s.split(","))


def _parse_windows(s: str) -> str | tuple[tuple[float, float], ...]:
    s = s.strip()
    if s in ("none", "auto"):
        return s
    out = []
    for tok in s.split(","):
        lo, hi = tok.split(":")
        out.append((float(lo), float(hi)))
    return tuple(out)


#: key -> (parser, default-as-string or None for "derived")
SCHEMA: dict[str, tuple] = {
    "model.mu": (float, "5.9"),
    "model.lambda": (float, "0.017"),
    "model.g": (float, "7.0"),
    "model.gamma": (float, "0.7"),
    "model.delta": (float, "0.17"),
    "model.delta0": (float, "0.0"),
    "model.k": (float, "1.0"),
    "model.kk": (float, "1.0"),
    "model.response": (str, "michaelis"),
    "model.l": (float, "0.159"),
    "model.m": (float, "0.0"),
    "model.n_total": (float, "1.0"),
    "model.r_star": (str, "auto"),
    "run.dt_panels": (int, "200"),
    "run.dt_hat": (str, "auto"),
    "run.horizon_hat": (float, "400.0"),
    "run.history": (str, "equilibrium"),
    "run.eps_p": (float, "1e-3"),
    "run.eps_z": (float, "1e-3"),
    "run.p0": (str, "none"),
    "run.z0": (str, "none"),
    "run.n0_offset": (float, "0.0"),
    "run.rho_times": (_parse_float_list, ""),
    "run.rho_s_panels": (int, "400"),
    "equilibria.nt_min": (float, "1e-4"),
    "equilibria.nt_max": (float, "1e2"),
    "equilibria.nt_points": (int, "400"),
    "equilibria.m_list": (str, "model"),
    "continuation.m_seeds": (str, "model"),
    "continuation.nt_min": (float, "1e-4"),
    "continuation.nt_max": (float, "1e2"),
    "continuation.m_min": (float, "0.0"),
    "continuation.m_max": (float, "inf"),
    "continuation.omega_windows": (_parse_windows, "none"),
    "continuation.h_init": (float, "1e-2"),
    "continuation.h_min": (float, "1e-6"),
    "continuation.h_max": (float, "1e-1"),
    "continuation.corrector_tol": (float, "1e-9"),
    "continuation.max_steps": (int, "2000"),
    "continuation.grid_n": (int, "256"),
    "continuation.dedupe_tol": (float, "5e-3"),
}


def parse_flat_text(text: str) -> dict[str, str]:
    """Read ``key = value`` lines; later occurrences win."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = value
    return out


def dump_flat(values: dict[str, str]) -> str:
    lines = [f"{k} = {values[k]}" for k in sorted(values)]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SimSettings:
    dt_hat: float | None
    dt_panels: int
    horizon_hat: float
    history: str
    eps_p: float
    eps_z: float
    p0: float | None
    z0: float | None
    n0_offset: float
    rho_times: tuple[float, ...]
    rho_s_panels: int


@dataclass(frozen=True)
class SweepSettings:
    nt_min: float
    nt_max: float
    nt_points: int
    m_list: tuple[float, ...]


@dataclass(frozen=True)
class TraceSettings:
    m_seeds: tuple[float, ...]
    nt_min: float
    nt_max: float
    m_min: float
    m_max: float
    omega_windows: str | tuple[tuple[float, float], ...]
    h_init: float
    h_min: float
    h_max: float
    corrector_tol: float
    max_steps: int
    grid_n: int
    dedupe_tol: float


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    sim: SimSettings
    sweep: SweepSettings
    trace: TraceSettings
    resolved: dict[str, str]


def _typed(values: dict[str, str]) -> dict[str, object]:
    typed: dict[str, object] = {}
    for key, raw in values.items():
        parser, _ = SCHEMA[key]
        try:
            typed[key] = parser(raw)
        except (ValueError, ConfigError) as err:
            raise ConfigError(f"bad value for {key}: {raw!r} ({err})") from err
    return typed


def build_config(
    preset_values: dict[str, str] | None = None,
    file_values: dict[str, str] | None = None,
    overrides: dict[str, str] | None = None,
) -> RunConfig:
    """Overlay defaults, preset, file, and flag overrides into a RunConfig."""
    values = {k: d for k, (_, d) in SCHEMA.items()}
    for layer in (preset_values, file_values, overrides):
        if not layer:
            continue
        for key, raw in layer.items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown configuration key {key!r}")
            values[key] = raw
    typed = _typed(values)

    response = typed["model.response"]
    if response not in ("michaelis", "constant"):
        raise ConfigError(f"model.response must be michaelis or constant, got {response!r}")
    r_star_raw = str(typed["model.r_star"])
    try:
        params = ModelParams(
            mu=typed["model.mu"],
            lam=typed["model.lambda"],
            g=typed["model.g"],
            gamma=typed["model.gamma"],
            delta=typed["model.delta"],
            delta0=typed["model.delta0"],
            k=typed["model.k"],
            kk=typed["model.kk"],
            l=typed["model.l"] if response == "michaelis" else None,
            m=typed["model.m"],
            n_total=typed["model.n_total"],
            r_star=None if r_star_raw == "auto" else float(r_star_raw),
        )
    except ParamError as err:
        raise ConfigError(str(err)) from err

    def opt_float(key: str) -> float | None:
        raw = str(typed[key])
        return None if raw == "none" else float(raw)

    dt_raw = str(typed["run.dt_hat"])
    sim = SimSettings(
        dt_hat=None if dt_raw == "auto" else float(dt_raw),
        dt_panels=typed["run.dt_panels"],
        horizon_hat=typed["run.horizon_hat"],
        history=typed["run.history"],
        eps_p=typed["run.eps_p"],
        eps_z=typed["run.eps_z"],
        p0=opt_float("run.p0"),
        z0=opt_float("run.z0"),
        n0_offset=typed["run.n0_offset"],
        rho_times=typed["run.rho_times"],
        rho_s_panels=typed["run.rho_s_panels"],
    )
    if sim.history not in ("equilibrium", "constant"):
        raise ConfigError(f"run.history must be equilibrium or constant, got {sim.history!r}")
    if sim.dt_panels < 2:
        raise ConfigError("run.dt_panels must be at least 2")

    m_list_raw = str(typed["equilibria.m_list"])
    m_list = (params.m,) if m_list_raw == "model" else _parse_float_list(m_list_raw)
    sweep = SweepSettings(
        nt_min=typed["equilibria.nt_min"],
        nt_max=typed["equilibria.nt_max"],
        nt_points=typed["equilibria.nt_points"],
        m_list=m_list,
    )
    if not 0 < sweep.nt_min < sweep.nt_max:
        raise ConfigError("equilibria biomass range must satisfy 0 < nt_min < nt_max")

    seeds_raw = str(typed["continuation.m_seeds"])
    m_seeds = (params.m,) if seeds_raw == "model" else _parse_float_list(seeds_raw)
    trace = TraceSettings(
        m_seeds=m_seeds,
        nt_min=typed["continuation.nt_min"],
        nt_max=typed["continuation.nt_max"],
        m_min=typed["continuation.m_min"],
        m_max=typed["continuation.m_max"],
        omega_windows=typed["continuation.omega_windows"],
        h_init=typed["continuation.h_init"],
        h_min=typed["continuation.h_min"],
        h_max=typed["continuation.h_max"],
        corrector_tol=typed["continuation.corrector_tol"],
        max_steps=typed["continuation.max_steps"],
        grid_n=typed["continuation.grid_n"],
        dedupe_tol=typed["continuation.dedupe_tol"],
    )
    if not 0 < trace.nt_min < trace.nt_max:
        raise ConfigError("continuation biomass range must satisfy 0 < nt_min < nt_max")

    return RunConfig(params=params, sim=sim, sweep=sweep, trace=trace, resolved=dict(values))
