import dataclasses
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tde_plankton import checks, cli, continuation, equilibria, linearize, simulate
from tde_plankton.config import SCHEMA, build_config, dump_flat, parse_flat_text
from tde_plankton.exceptions import ConfigError, DomainError
from tde_plankton.model import ModelParams
from tde_plankton.presets import PRESETS


def run_cli(args):
    return cli.main(args)


class TestConfig:
    def test_defaults_build(self):
        cfg = build_config()
        assert cfg.params.mu == 5.9
        assert cfg.sim.dt_panels == 200
        # sentinels: auto and none read as None, model as (model.m,)
        assert cfg.params.r_star is None and cfg.sim.dt_hat is None
        assert cfg.sim.p0 is None and cfg.sim.z0 is None
        assert cfg.sweep.m_list == (0.0,) and cfg.trace.m_seeds == (0.0,)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            build_config(overrides={"model.mystery": "1"})

    def test_flat_text_roundtrip(self):
        text = "model.mu = 6.1\n# comment\nmodel.m = 2.0  # inline\n"
        values = parse_flat_text(text)
        assert values == {"model.mu": "6.1", "model.m": "2.0"}
        again = parse_flat_text(dump_flat(values))
        assert again["model.mu"] == "6.1"

    def test_flag_overrides_win(self):
        cfg = build_config(
            preset_values={"model.m": "1.0"},
            file_values={"model.m": "2.0"},
            overrides={"model.m": "3.0"},
        )
        assert cfg.params.m == 3.0

    def test_constant_response_drops_half_saturation(self):
        cfg = build_config(overrides={"model.response": "constant"})
        assert cfg.params.l is None

    def test_invalid_rates_rejected(self):
        with pytest.raises(ConfigError):
            build_config(overrides={"model.lambda": "7.0"})

    @pytest.mark.parametrize("key", sorted(SCHEMA))
    def test_malformed_value_rejected(self, key):
        with pytest.raises(ConfigError, match=re.escape(key)):
            build_config(overrides={key: "abc"})

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_resolved_config_rebuilds_the_same_run(self, name):
        cfg = build_config(PRESETS[name])
        again = build_config(file_values=parse_flat_text(dump_flat(cfg.resolved)))
        assert again == cfg

    def test_readme_names_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("### Configuration keys", 1)[1].split("\n## ", 1)[0]
        # `name`, `name = choices` or `a/b`, each in backticks
        named = {n.strip() for span in re.findall(r"`([^`]*)`", section)
                 for n in span.split("=")[0].split("/")}
        missing = [k for k in SCHEMA if k.split(".", 1)[1] not in named]
        assert not missing


class TestExitCodes:
    def test_invalid_param_exits_2(self, tmp_path, capsys):
        code = run_cli([
            "simulate", "--out", str(tmp_path), "--set", "model.lambda=7.0",
        ])
        assert code == 2
        assert "mu must exceed" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path):
        assert run_cli(["check", "--out", str(tmp_path), "--set", "nope=1"]) == 2

    def test_unknown_preset_exits_2(self, tmp_path):
        assert run_cli(["check", "--out", str(tmp_path), "--preset", "fig99"]) == 2

    def test_malformed_set_exits_2(self, tmp_path):
        assert run_cli(["check", "--out", str(tmp_path), "--set", "model.mu"]) == 2

    def test_calls_share_no_overrides(self, tmp_path, monkeypatch):
        # the parser is built once; its append default must not collect items
        seen = []

        def stop(preset_vals, file_vals, overrides):
            seen.append(overrides)
            raise ConfigError("stop")

        monkeypatch.setattr(cli, "build_config", stop)
        for sets in (["model.m=5", "model.mu=6"], [], ["model.delta0=0.17"]):
            argv = ["check", "--out", str(tmp_path)]
            assert run_cli(argv + [x for item in sets for x in ("--set", item)]) == 2
        assert seen == [{"model.m": "5", "model.mu": "6"}, {}, {"model.delta0": "0.17"}]

    @pytest.mark.parametrize("item", [
        "model.r_star=abc", "run.dt_hat=0", "run.dt_hat=-0.5", "continuation.grid_n=8",
        "model.m=nan",
        "equilibria --set model.m=nan",
        "equilibria --set model.delta0=nan",
        "equilibria --set model.mu=inf",
        "equilibria --set equilibria.nt_points=-1",
        "equilibria --set equilibria.m_list=2,nan",
        "equilibria --set equilibria.m_list=-1",
        # both would write sweep_m1_d00.csv
        "equilibria --set equilibria.m_list=1.0000001,1.0000002",
        "simulate --preset fig6-stable --set run.eps_p=nan",
        "simulate --set run.horizon_hat=nan",
        "simulate --set run.horizon_hat=-5",
        "simulate --set run.rho_times=-1",
        # both would write rho_t20.csv
        "simulate --set run.rho_times=20.0000001,20.0000002",
        "simulate --set run.rho_s_panels=0",
        "trace-boundary --set continuation.m_seeds=nan",
        "trace-boundary --set continuation.m_seeds=-1",
        "trace-boundary --set continuation.omega_windows=1:0.5",
        "trace-boundary --set continuation.omega_windows=-1:0.5",
        "trace-boundary --set continuation.omega_windows=0.1:inf",
        "trace-boundary --set continuation.m_max=nan",
        "trace-boundary --set continuation.m_max=0",
        "trace-boundary --set continuation.m_max=-1",
        "trace-boundary --set continuation.max_steps=0",
        "trace-boundary --set continuation.corrector_tol=0",
    ])
    def test_bad_value_exits_2_naming_the_key(self, tmp_path, capsys, item):
        # KEY=VALUE runs check; COMMAND [ARGS] --set KEY=VALUE runs COMMAND
        command, _, item = item.rpartition(" --set ")
        argv = (command or "check").split() + ["--out", str(tmp_path), "--set", item]
        assert run_cli(argv) == 2
        assert item.split("=")[0] in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_infeasible_history_exits_2(self, tmp_path):
        code = run_cli([
            "simulate", "--out", str(tmp_path),
            "--set", "model.m=6", "--set", "model.delta0=0.17",
            "--set", "model.n_total=1.0",
            "--set", "run.history=constant",
            "--set", "run.p0=0.9", "--set", "run.z0=0.5",
        ])
        assert code == 2

    def test_infeasible_preset_history_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # a constant history this large leaves no room for the nutrient pool
        code = run_cli([
            "simulate", "--preset", "fig6-stable", "--out", str(tmp_path),
            "--set", "run.history=constant", "--set", "run.p0=3.0", "--set", "run.z0=0.5",
        ])
        assert code == 2
        assert "nonpositive nutrient pool" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_singular_rate_exits_1(self, tmp_path, capsys):
        # R(p) ~ p/l drops below r_floor = 1e-14 while p is still above the
        # extinction floor 1e-12*n_total: the tiny pinned r_star keeps each
        # step's fall in p small enough to land in between
        code = run_cli([
            "simulate", "--preset", "extinction", "--out", str(tmp_path),
            "--set", "model.n_total=1e-6", "--set", "model.m=0",
            "--set", "model.r_star=1e-12", "--set", "run.p0=1e-13", "--set", "run.z0=1e-13",
            "--set", "run.dt_hat=0.01", "--set", "run.horizon_hat=60",
        ])
        assert code == 1
        assert "growth rate hit the singular floor" in capsys.readouterr().err
        md = json.loads((tmp_path / "metadata.json").read_text())
        assert md["termination"] == "singular_rate"

    def test_too_coarse_step_exits_1_naming_dt_panels(self, tmp_path, capsys):
        # a larger juvenile mortality drives the nutrient nonpositive at the
        # preset's 20,000 steps per delay; run.dt_hat must divide the delay,
        # so the remedy named is the panel count
        code = run_cli(["simulate", "--preset", "extinction", "--out", str(tmp_path),
                        "--set", "model.delta0=0.3"])
        assert code == 1
        err = capsys.readouterr().err
        assert "nutrient nonpositive; raise run.dt_panels (now 20000 steps per delay)" in err
        assert "reduce" not in err

    def test_failing_check_exits_3(self, tmp_path, monkeypatch):
        flip_delayed_row(monkeypatch)
        code = run_cli([
            "check", "--out", str(tmp_path),
            "--set", "model.delta0=0.17", "--set", "model.m=5",
        ])
        assert code == 3
        report = [json.loads(line) for line in
                  (tmp_path / "report.jsonl").read_text().splitlines()]
        failed = [r["check"] for r in report if r["status"] == "fail"]
        assert failed == ["e1_factorization"]

    def test_check_suite_passes_defaults(self, tmp_path):
        assert run_cli(["check", "--out", str(tmp_path)]) == 0
        report = (tmp_path / "report.jsonl").read_text().splitlines()
        assert all(json.loads(line)["status"] in ("pass", "skipped") for line in report)

    @pytest.mark.parametrize("sets", [
        ["model.m=15"], ["model.m=25", "model.delta0=0.17"],
        ["model.m=18", "model.delta0=0.17"], ["model.m=19.7", "model.delta0=0.17"],
    ])
    def test_check_suite_passes_at_long_delays(self, tmp_path, sets):
        # the E1 delay is long here (T ~ 148 at m = 15): sample points far
        # left of the imaginary axis would overflow exp(-s T); near the
        # coexistence ceiling (m = 18, delta0 = 0.17) the uptake rate times
        # the delay is about 400, too fast for a run at T/64, and at m = 19.7
        # the run takes 16,384 panels per delay
        args = ["check", "--out", str(tmp_path)]
        for item in sets:
            args += ["--set", item]
        assert run_cli(args) == 0


class TestWriteCsv:
    def test_matches_per_value_formatting(self, tmp_path):
        rows = [
            [0, "E2", 1.5, -0.0, math.nan, np.float64(2.5e-300), True],
            [17, "degenerate", math.inf, -math.inf, 1e100, np.float64(-7.0), False],
            [3, "e0", 0.1, 1 / 3, -1.0, np.float64(math.nan), True],
        ]
        path = tmp_path / "mixed.csv"
        cli._write_csv(path, list("abcdefg"), list(zip(*rows)))
        # the per-value formatting the writer replaced
        expect = "a,b,c,d,e,f,g\n" + "".join(
            ",".join(f"{v:.16e}" if isinstance(v, float) else str(v) for v in row) + "\n"
            for row in rows
        )
        assert path.read_text() == expect
        assert "-0.0000000000000000e+00" in expect and "nan" in expect and "-inf" in expect

    def test_no_rows_writes_the_header(self, tmp_path):
        cli._write_csv(tmp_path / "empty.csv", ["x", "y"], [[], []])
        assert (tmp_path / "empty.csv").read_text() == "x,y\n"

    def test_trajectory_matches_the_row_wise_writer(self, tmp_path):
        params = equilibria.resolve_r_star(
            build_config(PRESETS["fig6-stable"]).params)
        dt = params.m / params.r_star / 400
        buf = simulate.build_initial(simulate.HistorySpec.at_equilibrium(1e-3, 1e-3), params, dt)
        traj = simulate.integrate(buf, 6000 * dt)
        fields = ["t_hat", "t", "n", "p", "z", "tau_m", "cons_residual"]
        columns = [getattr(traj, f) for f in fields]
        assert len(traj) > 6000 and 0.0 in traj.cons_residual
        cli._write_csv(tmp_path / "trajectory.csv", fields, columns)
        # the row-wise writer the column-wise one replaced
        rows = np.column_stack(columns).tolist()
        fmt = ",".join("%.16e" if isinstance(v, float) else "%s" for v in rows[0]) + "\n"
        expect = ",".join(fields) + "\n" + "".join(fmt % tuple(row) for row in rows)
        assert (tmp_path / "trajectory.csv").read_text() == expect

    def test_peak_memory_is_bounded(self, tmp_path):
        # a fig7-size trajectory; the row-wise writer and its tolist took 22 MiB
        rng = np.random.default_rng(7)
        columns = [rng.standard_normal(68236) for _ in range(7)]
        tracemalloc.start()
        try:
            cli._write_csv(tmp_path / "big.csv", list("abcdefg"), columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
        # 22 characters a value, a minus sign more when negative, and a separator
        negatives = sum(int((c < 0).sum()) for c in columns)
        assert (tmp_path / "big.csv").stat().st_size == 14 + 68236 * 7 * 23 + negatives


def _e16_texts(values):
    """The kernel's text for each of ``values``, and Python's."""
    x = np.array(values, dtype=np.float64)
    words = cli._format_e16(x).view(np.uint8)
    return [bytes(w[w != 0]).decode() for w in words], ["%.16e" % v for v in x.tolist()]


class TestFormatE16:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=64))
    def test_matches_python(self, values):
        got, expect = _e16_texts(values)
        assert got == expect

    def test_adversarial_values(self):
        rng = np.random.default_rng(23)
        # exact ties at the 17th digit (k/4 for k in [2**52, 2**53)), then
        # powers of ten with their neighbours, and values that round up to
        # the next power of ten
        ties = rng.integers(2 ** 52, 2 ** 53, 2000).astype(np.float64) / 4
        tens = np.array([10.0 ** k for k in range(-323, 309)]
                        + [float(f"1e{k}") for k in range(-323, 309)])
        nines = np.array([float(f"9.9999999999999995e{k}") for k in range(-310, 308)])
        near = [np.nextafter(v, np.inf) for v in (tens, nines)]
        near += [np.nextafter(v, 0.0) for v in (tens, nines)]
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
                   1.7976931348623157e308, -1.7976931348623157e308, 1e-250, 1e250, 0.5, 2.5,
                   1 / 3, math.nan, math.inf, -math.inf]
        values = np.concatenate([ties, -ties, tens, nines, *near, special])
        got, expect = _e16_texts(values)
        assert [i for i, (g, e) in enumerate(zip(got, expect)) if g != e] == []

    def test_exponent_off_by_one_falls_back(self, monkeypatch):
        # a log10 a few ulps off at a power of ten (vectorised libm variants
        # may be) puts floor(log10|v|) one too high or one too low
        values = 3.7 * 10.0 ** np.arange(-200.0, 201.0)
        shift = np.resize([-1.0, 0.0, 1.0], values.size)
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
        got, expect = _e16_texts(values)
        assert got == expect


class TestEquilibriaCommand:
    def test_empty_grid_writes_header_only(self, tmp_path):
        code = run_cli([
            "equilibria", "--out", str(tmp_path),
            "--set", "equilibria.nt_points=0",
        ])
        assert code == 0
        lines = (tmp_path / "sweep_m0_d00.csv").read_text().splitlines()
        assert lines == ["n_total,kind,n_star,p_star,z_star,residual"]

    def test_deterministic_and_reproducible(self, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        args = ["equilibria", "--preset", "fig1-left",
                "--set", "equilibria.nt_points=50"]
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        for name in ("sweep_m5_d00.csv", "sweep_m19.7_d00.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        # a run re-ingesting its own resolved config reproduces itself
        assert run_cli([
            "equilibria", "--config", str(a / "resolved.cfg"), "--out", str(c)
        ]) == 0
        assert (a / "sweep_m5_d00.csv").read_bytes() == (c / "sweep_m5_d00.csv").read_bytes()

    def test_regime_breakpoints_in_output(self, tmp_path):
        assert run_cli([
            "equilibria", "--out", str(tmp_path),
            "--set", "model.delta0=0.17", "--set", "model.m=5",
            "--set", "equilibria.nt_points=120",
        ]) == 0
        rows = (tmp_path / "sweep_m5_d00.17.csv").read_text().splitlines()[1:]
        kinds = [r.split(",")[1] for r in rows]
        assert kinds[0] == "e0" and kinds[-1] == "E2" and "E1" in kinds
        order = {"e0": 0, "degenerate": 1, "E1": 1, "E2": 2}
        ranks = [order[k] for k in kinds]
        assert ranks == sorted(ranks)


class TestSimulateCommand:
    def test_extinction_preset_is_clean(self, tmp_path):
        assert run_cli(["simulate", "--preset", "extinction", "--out", str(tmp_path)]) == 0
        md = json.loads((tmp_path / "metadata.json").read_text())
        assert md["termination"] == "extinction"
        data = np.genfromtxt(tmp_path / "trajectory.csv", delimiter=",", names=True)
        nt = float(md["params"]["n_total"])
        assert abs(data["n"][-1] - nt) <= 1e-6 * nt
        assert data["p"][-1] <= 1e-6 * nt

    def test_trajectory_columns_and_rho(self, tmp_path):
        code = run_cli([
            "simulate", "--out", str(tmp_path),
            "--set", "model.delta0=0.17", "--set", "model.m=6",
            "--set", "model.n_total=3.0903",
            "--set", "run.horizon_hat=30", "--set", "run.rho_times=20.0",
            "--set", "run.rho_s_panels=64",
        ])
        assert code == 0
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t_hat,t,n,p,z,tau_m,cons_residual"
        rho = np.genfromtxt(tmp_path / "rho_t20.csv", delimiter=",", names=True)
        assert rho["s"].size == 65
        md = json.loads((tmp_path / "metadata.json").read_text())
        assert md["rho_files"] == ["rho_t20.csv"]

    def test_deterministic_and_reproducible(self, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        args = ["simulate", "--preset", "fig6-stable",
                "--set", "run.horizon_hat=40", "--set", "run.rho_times=20.0",
                "--set", "run.rho_s_panels=32"]
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        # a run re-ingesting its own resolved config reproduces itself
        assert run_cli(["simulate", "--config", str(a / "resolved.cfg"), "--out", str(c)]) == 0
        for name in ("trajectory.csv", "rho_t20.csv", "metadata.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
            assert (a / name).read_bytes() == (c / name).read_bytes()

    def test_metadata_reports_frequency(self, tmp_path):
        assert run_cli(["simulate", "--preset", "fig6-unstable", "--out", str(tmp_path),
                        "--set", "run.horizon_hat=700"]) == 0
        md = json.loads((tmp_path / "metadata.json").read_text())
        assert md["fitted_frequency"] == pytest.approx(0.84, rel=0.1)


class TestTraceCommand:
    def test_no_sign_change_reports_and_exits_zero(self, tmp_path):
        code = run_cli([
            "trace-boundary", "--out", str(tmp_path),
            "--set", "model.delta0=0.17", "--set", "model.m=6",
            "--set", "continuation.m_seeds=6.0",
            "--set", "continuation.nt_min=0.5", "--set", "continuation.nt_max=1.5",
        ])
        assert code == 0
        md = json.loads((tmp_path / "metadata.json").read_text())
        assert md["curves"] == []
        assert md["seed_failures"][0]["error"] == "NoSignChangeError"
        lines = (tmp_path / "curves.csv").read_text().splitlines()
        assert len(lines) == 1  # header only

    def test_curves_csv_schema_and_residuals(self, tmp_path):
        code = run_cli([
            "trace-boundary", "--out", str(tmp_path),
            "--set", "model.delta0=0.17", "--set", "model.m=6",
            "--set", "continuation.m_seeds=6.0",
            "--set", "continuation.nt_min=2.0", "--set", "continuation.nt_max=5.0",
            "--set", "continuation.max_steps=25",
        ])
        assert code == 0
        header = (tmp_path / "curves.csv").read_text().splitlines()[0]
        assert header == (
            "curve_id,point_index,m,n_total,omega,n_star,p_star,z_star,residual"
        )
        data = np.genfromtxt(tmp_path / "curves.csv", delimiter=",", names=True)
        assert np.all(data["residual"] <= 1e-9)
        freq = np.genfromtxt(tmp_path / "frequency_profile.csv", delimiter=",", names=True)
        assert freq["omega"].size == data["omega"].size
        md = json.loads((tmp_path / "metadata.json").read_text())
        assert md["curves"][0]["points"] == data["omega"].size

    def test_metadata_records_how_each_half_ended(self, tmp_path):
        # m_max stops the forward half, which raises m, after two steps; the
        # backward half takes its five
        assert run_cli([
            "trace-boundary", "--preset", "fig4-l0.159-dd", "--out", str(tmp_path),
            "--set", "continuation.m_seeds=6.0", "--set", "continuation.m_max=6.2",
            "--set", "continuation.max_steps=5",
        ]) == 0
        (curve,) = json.loads((tmp_path / "metadata.json").read_text())["curves"]
        assert curve["termination_forward"] == "domain_bound"
        assert curve["termination_backward"] == "max_steps"
        assert curve["points"] == 8

    def test_deterministic_and_reproducible(self, tmp_path):
        # ten windows at one maturity share their scans; nothing may leak
        # from one run into the next
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        args = ["trace-boundary", "--preset", "fig4-l0.159-d0",
                "--set", "continuation.m_seeds=3.0", "--set", "continuation.max_steps=30"]
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert run_cli(["trace-boundary", "--config", str(a / "resolved.cfg"),
                        "--out", str(c)]) == 0
        assert json.loads((a / "metadata.json").read_text())["curves"]
        for name in ("curves.csv", "frequency_profile.csv", "metadata.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
            assert (a / name).read_bytes() == (c / name).read_bytes()

    def test_frequency_profile_mirrors_curves(self, tmp_path):
        assert run_cli(["trace-boundary", "--preset", "fig2-left", "--out", str(tmp_path)]) == 0
        curves = [r.split(",") for r in (tmp_path / "curves.csv").read_text().splitlines()]
        freq = [r.split(",") for r in
                (tmp_path / "frequency_profile.csv").read_text().splitlines()]
        assert freq[0] == ["curve_id", "m", "n_total", "omega"]
        cols = [curves[0].index(name) for name in freq[0]]
        assert len(freq) == len(curves) > 2
        assert freq[1:] == [[row[i] for i in cols] for row in curves[1:]]

    def test_tight_corrector_tolerance_traces(self, tmp_path):
        # the start is polished to the configured tolerance, which the trace
        # then demands of it
        assert run_cli([
            "trace-boundary", "--preset", "fig2-left", "--out", str(tmp_path),
            "--set", "continuation.corrector_tol=1e-12",
        ]) == 0
        md = json.loads((tmp_path / "metadata.json").read_text())
        assert len(md["curves"]) == 1 and md["seed_failures"] == []
        data = np.genfromtxt(tmp_path / "curves.csv", delimiter=",", names=True)
        assert data["residual"][0] <= 1e-11

    def test_polish_failure_reports_and_exits_zero(self, tmp_path, monkeypatch):
        monkeypatch.setattr(continuation, "_newton_corrector", lambda *a, **k: None)
        code = run_cli([
            "trace-boundary", "--out", str(tmp_path),
            "--set", "model.delta0=0.17", "--set", "model.m=6",
            "--set", "continuation.m_seeds=6.0",
            "--set", "continuation.nt_min=2.0", "--set", "continuation.nt_max=5.0",
        ])
        assert code == 0
        md = json.loads((tmp_path / "metadata.json").read_text())
        assert md["curves"] == []
        assert [f["error"] for f in md["seed_failures"]] == ["NoConvergeError"]

    def test_maturity_clipped_with_warning(self, tmp_path, capsys):
        code = run_cli([
            "trace-boundary", "--out", str(tmp_path),
            "--set", "model.delta0=0.17", "--set", "model.m=6",
            "--set", "continuation.m_seeds=6.0,25.0",
            "--set", "continuation.m_max=30",
            "--set", "continuation.nt_min=2.0", "--set", "continuation.nt_max=5.0",
            "--set", "continuation.max_steps=5",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "clipped" in err and "dropped" in err

    def test_seed_at_or_above_m_max_dropped_with_warning(self, tmp_path, capsys):
        # below the ceiling (19.77) but outside the requested maturity range
        code = run_cli([
            "trace-boundary", "--out", str(tmp_path),
            "--set", "model.delta0=0.17", "--set", "model.m=6",
            "--set", "continuation.m_seeds=6",
            "--set", "continuation.nt_min=2", "--set", "continuation.nt_max=5",
            "--set", "continuation.m_max=5",
        ])
        assert code == 0
        assert "warning: seed m=6 at or above continuation.m_max 5; dropped" in (
            capsys.readouterr().err)
        md = json.loads((tmp_path / "metadata.json").read_text())
        assert md["curves"] == [] and md["seed_failures"] == []
        assert (tmp_path / "curves.csv").read_text().count("\n") == 1


class TestCheckCommand:
    def test_deterministic_and_reproducible(self, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        args = ["check", "--set", "model.delta0=0.17", "--set", "model.m=5"]
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        # a run re-ingesting its own resolved config reproduces itself
        assert run_cli(["check", "--config", str(a / "resolved.cfg"), "--out", str(c)]) == 0
        assert (a / "report.jsonl").read_bytes() == (b / "report.jsonl").read_bytes()
        assert (a / "report.jsonl").read_bytes() == (c / "report.jsonl").read_bytes()


def flip_delayed_row(monkeypatch):
    """Make every linearization the checks build carry -A2 instead of A2."""
    build = linearize.build_linearization

    def flipped(eq, params):
        lin = build(eq, params)
        bottom = lin.char_form.bottom
        form = lin.char_form._replace(
            bottom=(*bottom[:3], *(-x for x in bottom[3:6]), *bottom[6:]))
        return dataclasses.replace(lin, char_form=form)

    monkeypatch.setattr(linearize, "build_linearization", flipped)


class TestCheckHooks:
    def test_corrupted_delayed_coupling_is_caught(self, monkeypatch):
        params = ModelParams(delta0=0.17, l=0.159, m=5.0, n_total=1.0)
        clean = checks.run_check_suite(params)
        assert all(r.status != "fail" for r in clean)
        flip_delayed_row(monkeypatch)
        broken = checks.run_check_suite(params)
        by_name = {r.name: r for r in broken}
        assert by_name["e1_factorization"].status == "fail"

    @pytest.mark.parametrize("scalar", [False, True])
    def test_wrong_series_branch_is_caught(self, monkeypatch, scalar):
        # the kernel's power series with the sign of its linear term flipped
        def wrong_series(s, big_t):
            return big_t + s * big_t ** 2 / 2.0 + s ** 2 * big_t ** 3 / 6.0

        if scalar:
            right = linearize._delay_terms_scalar

            def patched(s, big_t):
                e, kern = right(s, big_t)
                small = abs(s) * big_t < linearize.SERIES_SWITCH
                return e, wrong_series(s, big_t) if small else kern

            monkeypatch.setattr(linearize, "_delay_terms_scalar", patched)
        else:
            right = linearize._delay_terms

            def patched(s, big_t):
                e, kern, dkern = right(s, big_t)
                small = np.abs(s) * big_t < linearize.SERIES_SWITCH
                return e, np.where(small, wrong_series(s, big_t), kern), dkern

            monkeypatch.setattr(linearize, "_delay_terms", patched)
        params = ModelParams(delta0=0.17, l=0.159, m=5.0, n_total=1.0)
        assert checks.check_char_series_continuity(params)[0] is False

    def test_raising_check_fails_under_its_report_name(self, monkeypatch):
        def fail(*args, **kwargs):
            raise DomainError("predictor left the positive domain; reduce dt_hat")

        monkeypatch.setattr(simulate, "integrate", fail)
        results = checks.run_check_suite(ModelParams(delta0=0.17, l=0.159, m=5.0, n_total=1.0))
        (tau,) = [r for r in results if r.name == "tau_running_consistency"]
        assert tau.status == "fail"
        assert tau.detail.startswith("raised DomainError: predictor left")
        assert [r.name for r in results if r.status == "fail"] == ["tau_running_consistency"]

    def test_periodicity_scope(self):
        with_mortality = {
            r.name: r for r in checks.run_check_suite(
                ModelParams(delta0=0.17, l=0.159, m=5.0, n_total=1.0)
            )
        }
        assert with_mortality["periodicity_in_m"].status == "skipped"
        without = {
            r.name: r for r in checks.run_check_suite(
                ModelParams(delta0=0.0, l=0.159, m=5.0, n_total=1.0)
            )
        }
        assert without["periodicity_in_m"].status == "pass"
