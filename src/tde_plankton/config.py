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
from typing import Callable

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


def _or_none(sentinel: str, parse: Callable = float) -> Callable:
    """Parse with ``parse``, reading ``sentinel`` as None."""
    return lambda s: None if s == sentinel else parse(s)


def _choice(*names: str) -> Callable[[str], str]:
    def parse(s: str) -> str:
        if s not in names:
            raise ValueError(f"must be {' or '.join(names)}")
        return s
    return parse


#: key -> (parser, default as a string); a key's section and name pick the
#: settings object and field it fills (see build_config)
SCHEMA: dict[str, tuple[Callable, str]] = {
    "model.mu": (float, "5.9"),
    "model.lambda": (float, "0.017"),
    "model.g": (float, "7.0"),
    "model.gamma": (float, "0.7"),
    "model.delta": (float, "0.17"),
    "model.delta0": (float, "0.0"),
    "model.k": (float, "1.0"),
    "model.kk": (float, "1.0"),
    "model.response": (_choice("michaelis", "constant"), "michaelis"),
    "model.l": (float, "0.159"),
    "model.m": (float, "0.0"),
    "model.n_total": (float, "1.0"),
    "model.r_star": (_or_none("auto"), "auto"),
    "run.dt_panels": (int, "200"),
    "run.dt_hat": (_or_none("auto"), "auto"),
    "run.horizon_hat": (float, "400.0"),
    "run.history": (_choice("equilibrium", "constant"), "equilibrium"),
    "run.eps_p": (float, "1e-3"),
    "run.eps_z": (float, "1e-3"),
    "run.p0": (_or_none("none"), "none"),
    "run.z0": (_or_none("none"), "none"),
    "run.n0_offset": (float, "0.0"),
    "run.rho_times": (_parse_float_list, ""),
    "run.rho_s_panels": (int, "400"),
    "equilibria.nt_min": (float, "1e-4"),
    "equilibria.nt_max": (float, "1e2"),
    "equilibria.nt_points": (int, "400"),
    "equilibria.m_list": (_or_none("model", _parse_float_list), "model"),
    "continuation.m_seeds": (_or_none("model", _parse_float_list), "model"),
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


def build_config(
    preset_values: dict[str, str] | None = None,
    file_values: dict[str, str] | None = None,
    overrides: dict[str, str] | None = None,
) -> RunConfig:
    """Overlay defaults, preset, file, and flag overrides into a RunConfig."""
    values = {k: d for k, (_, d) in SCHEMA.items()}
    for layer in (preset_values, file_values, overrides):
        for key, raw in (layer or {}).items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown configuration key {key!r}")
            values[key] = raw

    sections: dict[str, dict] = {}
    for key, raw in values.items():
        section, name = key.split(".")
        try:
            sections.setdefault(section, {})[name] = SCHEMA[key][0](raw)
        except ValueError as err:
            raise ConfigError(f"bad value for {key}: {raw!r} ({err})") from err
    model, run = sections["model"], sections["run"]
    sweep, trace = sections["equilibria"], sections["continuation"]

    model["lam"] = model.pop("lambda")
    if model.pop("response") == "constant":
        model["l"] = None
    try:
        params = ModelParams(**model)
    except ParamError as err:
        raise ConfigError(str(err)) from err
    if sweep["m_list"] is None:
        sweep["m_list"] = (params.m,)
    if trace["m_seeds"] is None:
        trace["m_seeds"] = (params.m,)

    if run["dt_hat"] is not None and not run["dt_hat"] > 0:
        raise ConfigError(f"run.dt_hat must be positive or auto, got {values['run.dt_hat']!r}")
    if run["dt_panels"] < 2:
        raise ConfigError("run.dt_panels must be at least 2")
    if not 0 < sweep["nt_min"] < sweep["nt_max"]:
        raise ConfigError("equilibria biomass range must satisfy 0 < nt_min < nt_max")
    if not 0 < trace["nt_min"] < trace["nt_max"]:
        raise ConfigError("continuation biomass range must satisfy 0 < nt_min < nt_max")
    if trace["grid_n"] < 64:
        raise ConfigError(f"continuation.grid_n must be at least 64, got {trace['grid_n']}")

    return RunConfig(
        params=params,
        sim=SimSettings(**run),
        sweep=SweepSettings(**sweep),
        trace=TraceSettings(**trace),
        resolved=values,
    )
