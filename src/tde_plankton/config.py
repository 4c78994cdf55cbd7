"""Flat key = value run configuration with sectioned keys.

A configuration is a plain text file of ``section.key = value`` lines
(``#`` comments allowed), overlaid in order: built-in defaults, a named
preset, a config file, then repeatable ``--set key=value`` flags.  Unknown
keys are rejected.  The fully resolved flat map is echoed next to every
run's outputs so a run can be reproduced byte-for-byte from its own
artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .exceptions import ConfigError, ParamError
from .model import ModelParams


def _finite(s: str) -> float:
    x = float(s)
    if not math.isfinite(x):
        raise ValueError("must be finite")
    return x


def _not_nan(s: str) -> float:
    x = float(s)
    if math.isnan(x):
        raise ValueError("must be a number")
    return x


def _parse_float_list(s: str) -> tuple[float, ...]:
    s = s.strip()
    if not s:
        return ()
    return tuple(_finite(tok) for tok in s.split(","))


def _parse_windows(s: str) -> str | tuple[tuple[float, float], ...]:
    s = s.strip()
    if s in ("none", "auto"):
        return s
    out = []
    for tok in s.split(","):
        lo, hi = tok.split(":")
        out.append((_finite(lo), _finite(hi)))
    return tuple(out)


def _or_none(sentinel: str, parse: Callable = _finite) -> Callable:
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
    "model.mu": (_finite, "5.9"),
    "model.lambda": (_finite, "0.017"),
    "model.g": (_finite, "7.0"),
    "model.gamma": (_finite, "0.7"),
    "model.delta": (_finite, "0.17"),
    "model.delta0": (_finite, "0.0"),
    "model.k": (_finite, "1.0"),
    "model.kk": (_finite, "1.0"),
    "model.response": (_choice("michaelis", "constant"), "michaelis"),
    "model.l": (_finite, "0.159"),
    "model.m": (_finite, "0.0"),
    "model.n_total": (_finite, "1.0"),
    "model.r_star": (_or_none("auto"), "auto"),
    "run.dt_panels": (int, "200"),
    "run.dt_hat": (_or_none("auto"), "auto"),
    "run.horizon_hat": (_finite, "400.0"),
    "run.history": (_choice("equilibrium", "constant"), "equilibrium"),
    "run.eps_p": (_finite, "1e-3"),
    "run.eps_z": (_finite, "1e-3"),
    "run.p0": (_or_none("none"), "none"),
    "run.z0": (_or_none("none"), "none"),
    "run.n0_offset": (_finite, "0.0"),
    "run.rho_times": (_parse_float_list, ""),
    "run.rho_s_panels": (int, "400"),
    "equilibria.nt_min": (_finite, "1e-4"),
    "equilibria.nt_max": (_finite, "1e2"),
    "equilibria.nt_points": (int, "400"),
    "equilibria.m_list": (_or_none("model", _parse_float_list), "model"),
    "continuation.m_seeds": (_or_none("model", _parse_float_list), "model"),
    "continuation.nt_min": (_finite, "1e-4"),
    "continuation.nt_max": (_finite, "1e2"),
    "continuation.m_max": (_not_nan, "inf"),
    "continuation.omega_windows": (_parse_windows, "none"),
    "continuation.corrector_tol": (_finite, "1e-9"),
    "continuation.max_steps": (int, "2000"),
    "continuation.grid_n": (int, "256"),
}


def rho_file_name(t: float) -> str:
    """Output file of the maturity spectrum at physical time ``t``."""
    return f"rho_t{t:g}.csv"


def sweep_file_name(m: float, delta0: float) -> str:
    """Output file of the equilibrium sweep at maturity ``m``."""
    return f"sweep_m{m:g}_d0{delta0:g}.csv"


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
    m_max: float
    omega_windows: str | tuple[tuple[float, float], ...]
    corrector_tol: float
    max_steps: int
    grid_n: int


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

    if not 0 < sweep["nt_min"] < sweep["nt_max"]:
        raise ConfigError("equilibria biomass range must satisfy 0 < nt_min < nt_max")
    if not 0 < trace["nt_min"] < trace["nt_max"]:
        raise ConfigError("continuation biomass range must satisfy 0 < nt_min < nt_max")
    windows = trace["omega_windows"]
    rho_times, m_list = run["rho_times"], sweep["m_list"]
    ranges = (
        ("run.dt_hat", run["dt_hat"] is None or run["dt_hat"] > 0, "positive or auto"),
        ("run.dt_panels", run["dt_panels"] >= 2, "at least 2"),
        ("run.horizon_hat", run["horizon_hat"] > 0, "positive"),
        ("run.rho_times", all(t >= 0 for t in rho_times), "nonnegative"),
        ("run.rho_times", len({rho_file_name(t) for t in rho_times}) == len(rho_times),
         "distinct to 6 significant digits (each names an output file)"),
        ("run.rho_s_panels", run["rho_s_panels"] >= 1, "at least 1"),
        ("equilibria.nt_points", sweep["nt_points"] >= 0, "nonnegative"),
        ("equilibria.m_list", all(m >= 0 for m in m_list), "nonnegative"),
        ("equilibria.m_list",
         len({sweep_file_name(m, params.delta0) for m in m_list}) == len(m_list),
         "distinct to 6 significant digits (each names an output file)"),
        ("continuation.m_seeds", all(m >= 0 for m in trace["m_seeds"]), "nonnegative"),
        ("continuation.omega_windows",
         isinstance(windows, str) or all(0 <= lo < hi for lo, hi in windows),
         "none, auto or lo:hi pairs with 0 <= lo < hi"),
        ("continuation.m_max", trace["m_max"] > 0, "positive"),
        ("continuation.max_steps", trace["max_steps"] >= 1, "at least 1"),
        ("continuation.corrector_tol", trace["corrector_tol"] > 0, "positive"),
        ("continuation.grid_n", trace["grid_n"] >= 64, "at least 64"),
    )
    for key, ok, need in ranges:
        if not ok:
            raise ConfigError(f"{key} must be {need}, got {values[key]!r}")

    return RunConfig(
        params=params,
        sim=SimSettings(**run),
        sweep=SweepSettings(**sweep),
        trace=TraceSettings(**trace),
        resolved=values,
    )
