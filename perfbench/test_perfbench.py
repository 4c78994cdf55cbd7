"""Tests of the benchmark itself: inputs, output checks, failure counting, tracing.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import inspect
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from tde_plankton import cli, continuation, equilibria, linearize, model, simulate  # noqa: E402
from tde_plankton.model import ModelParams  # noqa: E402

MODULES = (cli, continuation, equilibria, linearize, model, simulate)


def _with_sets(task: wl.Task, expect: dict | None = None, **sets: str) -> wl.Task:
    """The task with extra ``--set`` overrides; later keys win in the CLI."""
    argv = task.argv + wl._sets({k.replace("__", "."): v for k, v in sets.items()})
    return replace(task, argv=argv, expect={**task.expect, **(expect or {})})


def tiny_sim(task: wl.Task) -> wl.Task:
    return _with_sets(task, {"horizon_hat": 40.0},
                      run__horizon_hat="40.0", run__rho_times="20.0")


def tiny_trace(task: wl.Task) -> wl.Task:
    # one m seed and short traces; each preset then keeps exactly one curve
    m_seed = "6.0" if task.label == "fig4-l0.159-dd" else "3.0"
    return _with_sets(task, {"curves": 1}, continuation__m_seeds=m_seed,
                      continuation__max_steps="30")


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_same_seed_same_inputs(name):
    make = wl.WORKLOADS[name].block
    first = [make(7, b) for b in range(4)]
    assert first == [make(7, b) for b in range(4)]
    assert first != [make(8, b) for b in range(4)]


def test_cli_blocks_hold_one_task_of_each_class():
    for b in range(6):
        assert sorted(t.label for t in wl.sim_block(3, b)) == ["panels=200", "panels=400"]
        assert sorted(t.label for t in wl.trace_block(3, b)) == sorted(wl.TRACE_PRESETS)


def test_stab_inputs_lie_in_their_ranges():
    for task in wl.stab_block(5, 0) + wl.stab_block(5, 1):
        p = ModelParams(**task.params)
        assert p.delta0 in wl.STAB_DELTA0 and p.l in wl.STAB_RESPONSES
        assert 0.5 <= p.m <= min(0.98 * equilibria.m_ceiling(p), wl.STAB_M_MAX)
        nt2 = equilibria.compute_nt2(p)
        assert 1.05 * nt2 * (1 - 1e-12) <= p.n_total <= 100.0


def _run_and_check(name: str, task: wl.Task, out_dir: Path) -> wl.Outcome:
    w = wl.WORKLOADS[name]
    out = w.run(task, out_dir)
    out.problems = w.check(task, out)
    return out


def test_tiny_runs_pass_their_checks(tmp_path):
    for task in wl.sim_block(1, 0):
        out = _run_and_check("sim-fig6", tiny_sim(task), tmp_path / f"sim{task.index}")
        assert out.problems == [], out.detail
    for task in wl.trace_block(1, 0):
        out = _run_and_check("trace-fig4", tiny_trace(task), tmp_path / f"tr{task.index}")
        assert out.problems == [], out.detail
    for task in wl.stab_block(1, 0)[:11]:
        out = _run_and_check("stab-map", task, tmp_path)
        assert out.problems == []
        assert math.isfinite(out.value[0])


def _replace_line(path: Path, index: int, column: str, value: str) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[index].split(",")
    row[header.index(column)] = value
    lines[index] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")


def test_broken_outputs_fail_their_checks(tmp_path):
    task = tiny_sim(wl.sim_block(1, 0)[0])
    out = wl.run_cli(task, tmp_path / "sim")
    assert wl.check_sim(task, out) == []
    _replace_line(out.out_dir / "trajectory.csv", 5, "p", "nan")
    assert any("non-finite" in p for p in wl.check_sim(task, out))

    task = tiny_trace(wl.trace_block(1, 0)[0])
    out = wl.run_cli(task, tmp_path / "trace")
    assert wl.check_trace(task, out) == []
    _replace_line(out.out_dir / "curves.csv", 1, "residual", "1e-6")
    assert any("residual" in p for p in wl.check_trace(task, out))
    assert wl.check_trace(replace(task, expect={"curves": 2}), out)

    task = wl.stab_block(1, 0)[0]
    bad = wl.Outcome(ok=True, value=(math.nan, None))
    assert wl.check_stab(task, bad)


def test_failed_tasks_count_in_fail_frac(tmp_path):
    def corrupting_run(task, out_dir):
        out = wl.run_cli(tiny_sim(task), out_dir)
        _replace_line(out_dir / "trajectory.csv", 3, "n", "nan")
        return out

    def raising_run(task, out_dir):
        raise RuntimeError("boom")

    base = wl.WORKLOADS["sim-fig6"]
    for broken in (corrupting_run, raising_run):
        res = run.run_block(replace(base, run=broken), wl.sim_block(1, 0), tmp_path)
        assert len(res["failures"]) == 2 and res["walls"] == []
        metrics, extra = run.end_to_end({"plain": {**res, "ref_walls": []}, "setup": [(1.0, 1.0)]})
        assert extra[0].startswith("fail_frac 1 ")


def test_reference_seconds_divide_wall_time_by_the_gauged_slowdown(tmp_path):
    with speed.Gauge(min(os.sched_getaffinity(0))) as gauge:
        res = run.run_block(wl.WORKLOADS["stab-map"], wl.stab_block(1, 0)[:3], tmp_path)
        time.sleep(2 * speed.PERIOD_S)
    assert gauge._proc.returncode == 0 and len(gauge.samples) >= 2
    assert all(0.1 < v < 10.0 for _, v in gauge.samples)
    part = run.calibrated(res, gauge)
    slow = [gauge.slowdown(*span) for span in res["spans"]]
    assert part["ref_walls"] == [w / k for w, k in zip(res["walls"], slow)]


def _package_functions() -> dict[tuple[str, str], object]:
    return {
        (m.__name__, k): v
        for m in MODULES
        for k, v in vars(m).items()
        if inspect.isfunction(v)
    }


def test_traced_run_wraps_and_restores(tmp_path):
    before = _package_functions()
    tracer = tr.Tracer()
    task = tiny_trace(wl.trace_block(1, 0)[0])
    with tracer.installed():
        assert getattr(continuation.find_start, tr.Tracer.MARK, False)
    out, _ = run.attempt(wl.WORKLOADS["trace-fig4"], task, tmp_path / "trace", tracer)
    assert out.problems == []
    after = _package_functions()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(hasattr(f, tr.Tracer.MARK) for f in after.values())

    spans = tracer.spans()
    names = [tr.NAMES[i] for i in spans["name"]]
    (root,) = [s for s, n in zip(spans["id"], names) if n == "cli.main"]
    starts = [i for i, n in enumerate(names) if n == "continuation.find_start"]
    assert starts
    # find_start runs on pool threads, and hangs under the cli.main span
    assert all(spans["parent"][i] == root for i in starts)
    assert all(spans["thread"][i] != spans["thread"][names.index("cli.main")] for i in starts)
    assert (spans["cpu_self"] >= -1e-9).all()
    assert (spans["cpu_self"] <= spans["cpu"] + 1e-9).all()

    found = tr.layer_metrics(spans, 1, float(spans["t1"].max() - spans["t0"].min()), 1.0, 0.0)
    assert found["continuation.find_start.calls"][0] >= 1
    assert found["continuation.find_start.verdicts_per_start"][0] >= 2
    assert found["continuation.trace_curve.points"][0] >= 2
    assert found["continuation.hopf_residual.per_point"][0] > 1
    assert found["continuation.curves_kept_ratio"][0] == 1.0
    assert found["linearize.char_fn.evals"][0] > found["linearize.char_fn.calls"][0]
    assert 0 < found["linearize.scan_roots.coverage"][0] <= 1


def test_missing_target_fails_the_traced_run(monkeypatch):
    before = _package_functions()
    monkeypatch.setattr(tr, "TARGETS", tr.TARGETS + (("linearize", "no_such_function"),))
    with pytest.raises(AttributeError):
        with tr.Tracer().installed():
            pass
    after = _package_functions()
    assert all(after[k] is before[k] for k in before)
