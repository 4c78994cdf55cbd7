"""Benchmark for the tde_plankton package.

Usage, from the repository root:

    python3 perfbench/run.py --workload sim-fig6 --seed 1 --seconds 15 --trace 0

``--workload`` is one of sim-fig6, trace-fig4, stab-map, or ``all`` to run
the three in turn, each in its own process.  Load is a closed loop with one
client: one task at a time.  The CLI's own thread pool keeps its default
size, and TDE_PLANKTON_THREADS is left as found.

Every task's output is checked after the task, outside the timed region; a
task fails on an exception, a nonzero exit code or a failed check.  The run
loop finishes whole blocks of tasks (see workloads.py) until the timed task
wall time reaches ``--seconds``.

Times are given in reference seconds: wall seconds divided by the host's
slowdown at the time.  The shared hosts this benchmark runs on change speed
by up to 2x, each vCPU on its own, for spells of a fraction of a second to
several minutes, which no length of run averages out.  So the run pins
itself (with the CLI's pool threads), its set-up probes and speed.py's gauge
to the first allowed vCPU, and the gauge times a fixed kernel there all
through the run.  Gauged on the vCPU the work ran on, a task's reference
time holds within a few per cent while its wall time moves by 1.5-2x; a
threaded workload left free on every vCPU could not be gauged that closely
(its reference time moved by 20% with the host's state).  Pinned, the
benchmark measures the work a task does, not what it gains or loses by
spreading over vCPUs.  On a steady host a reference second is a constant
multiple of a wall second (1 in the fast state of a 2-vCPU x86-64 KVM
host), so a change of the package moves both alike; the wall-clock figures
are printed beside.

With ``--trace 0`` the run reports the end-to-end metrics:

    setup_s      median over 13 fresh interpreters of the time from start
                 until the package is imported and the first task could
                 run; the 13 are spread between the blocks of the run
    task_s.p50   median time per task
    tasks_per_s  tasks passed per reference second of their timed time
    peak_rss_mb  peak resident memory of this process

plus, on the lines before the JSON result only, ``fail_frac`` (failed over
attempted), ``task_s.p90`` where at least ten samples lie above it, the
wall-clock ``wall.setup_s``, ``wall.task_s.p50`` and ``wall.tasks_per_s``,
and ``slowdown``, its median over the tasks.

With ``--trace 1`` every block runs twice with the same inputs, once plain
and once with the package's public functions wrapped by tracer.py, and the
run reports per-layer figures per traced task and the tracing overhead.
The spans are written to ``.bench_build/perfbench/spans-<workload>-seed<n>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("sim-fig6", "trace-fig4", "stab-map")
SETUP_PROBES = 13
PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import tde_plankton.cli, tde_plankton.equilibria, tde_plankton.linearize; "
    "print('ready', flush=True)"
)


def measure_setup() -> tuple[float, float]:
    """When a fresh process started and when it had imported the package."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", PROBE, str(SRC)], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = perf_counter()
        rc = proc.wait(timeout=120)
    if line.strip() != "ready" or rc != 0:
        raise RuntimeError(f"setup probe failed with exit code {rc}")
    return t0, t1


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def attempt(workload, task, out_dir: Path, tracer=None):
    """Run one task, traced when a tracer is given, then check its output.

    Returns the outcome and the bytes the task wrote.
    """
    from workloads import Outcome

    t0 = perf_counter()
    try:
        with tracer.installed() if tracer else contextlib.nullcontext():
            out = workload.run(task, out_dir)
    except Exception as err:  # a task that raises is a failed task
        out = Outcome(ok=False, wall_s=perf_counter() - t0,
                      detail=f"{type(err).__name__}: {err}")
    if out.ok:
        try:
            out.problems = workload.check(task, out)
        except Exception as err:  # unreadable output fails the check
            out.problems = [f"check raised {type(err).__name__}: {err}"]
    written = _dir_bytes(out_dir) if out_dir.exists() else 0
    shutil.rmtree(out_dir, ignore_errors=True)
    return out, written


def run_block(workload, tasks, out_root: Path, tracer=None) -> dict:
    """Run and check each task, traced when a tracer is given.

    Returns the wall times, start and end times and bytes written of the
    tasks that passed, one line per failed task, and the timed wall time of
    all of them.
    """
    walls, spans, written, failures, timed = [], [], [], [], 0.0
    for task in tasks:
        t0 = perf_counter()
        out, nbytes = attempt(workload, task, out_root / f"task-{task.index}", tracer)
        timed += out.wall_s
        if out.ok and not out.problems:
            walls.append(out.wall_s)
            spans.append((t0, t0 + out.wall_s))
            written.append(nbytes)
        else:
            failures.append(f"{task.workload}#{task.index} {task.label}: "
                            f"{out.detail or '; '.join(out.problems)}")
    return {"walls": walls, "spans": spans, "bytes": written, "failures": failures,
            "timed": timed}


def calibrated(part: dict, gauge: speed.Gauge) -> dict:
    """The block's result with its task times in reference seconds."""
    slow = [gauge.slowdown(*span) for span in part["spans"]]
    return {**part, "slowdown": slow,
            "ref_walls": [w / k for w, k in zip(part["walls"], slow)]}


def _merge(into: dict, part: dict) -> None:
    for key, value in part.items():
        into[key] = into.get(key, 0.0 if key == "timed" else []) + value


def run_workload(name: str, seed: int, seconds: float, trace: bool, probes: int) -> dict:
    """Run whole blocks until the timed task wall time reaches ``seconds``.

    With ``trace`` each block runs plain and traced, alternating which goes
    first; only the traced copies feed the tracer.  ``probes`` set-up probes
    run between blocks, in step with the timed wall time, and the rest after
    the last block.
    """
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    tracer = Tracer() if trace else None
    plain: dict = {"timed": 0.0}
    traced: dict = {"timed": 0.0}
    parts: list[tuple[dict, dict]] = []
    probed: list[tuple[float, float]] = []
    timed = 0.0
    out_root = WORK_DIR / f"run-{os.getpid()}"
    out_root.mkdir(parents=True, exist_ok=True)
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:1])
    gauge = speed.Gauge(cpus[0])
    try:
        with gauge:
            block = 0
            while block == 0 or timed < seconds:
                tasks = workload.block(seed, block)
                order = [(plain, None)] + ([(traced, tracer)] if trace else [])
                for into, use in order if block % 2 == 0 else reversed(order):
                    parts.append((into, run_block(workload, tasks, out_root, use)))
                    timed += parts[-1][1]["timed"]
                block += 1
                due = min(probes, math.ceil(probes * timed / seconds))
                probed += [measure_setup() for _ in range(due - len(probed))]
            probed += [measure_setup() for _ in range(probes - len(probed))]
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(out_root, ignore_errors=True)
    for into, part in parts:
        _merge(into, calibrated(part, gauge))
    setup = [((t1 - t0) / gauge.slowdown(t0, t1), t1 - t0) for t0, t1 in probed]
    return {"plain": plain, "traced": traced, "tracer": tracer, "setup": setup}


def end_to_end(res: dict) -> tuple[dict, list[str]]:
    """The end-to-end metrics, and the report lines printed beside them."""
    setup = res["setup"]
    plain = res["plain"]
    walls, ref = plain.get("walls", []), plain.get("ref_walls", [])
    n = len(walls)
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setup), "s", len(setup)),
        "task_s.p50": (statistics.median(ref) if ref else 0.0, "s", n),
        "tasks_per_s": (n / sum(ref) if ref else 0.0, "1/s", n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    failed = len(plain.get("failures", []))
    extra = [f"fail_frac {failed / (n + failed):.6g} ratio (n={n + failed})"]
    if n >= 10:
        p90 = statistics.quantiles(ref, n=10)[-1]
        beyond = sum(w > p90 for w in ref)
        if beyond >= 10:
            extra.append(f"task_s.p90 {p90:.6g} s (n={n}, {beyond} above)")
    extra.append(f"wall.setup_s {statistics.median(w for _, w in setup):.6g} s "
                 f"(n={len(setup)})")
    if walls:
        extra += [f"wall.task_s.p50 {statistics.median(walls):.6g} s (n={n})",
                  f"wall.tasks_per_s {n / sum(walls):.6g} 1/s (n={n})",
                  f"slowdown {statistics.median(plain['slowdown']):.6g} ratio (n={n})"]
    return metrics, extra


def per_layer(name: str, seed: int, res: dict) -> dict:
    import numpy as np
    from tracer import NAMES, layer_metrics

    spans = res["tracer"].spans()
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    np.savez(WORK_DIR / f"spans-{name}-seed{seed}.npz", names=np.array(NAMES), **spans)
    plain, traced = res["plain"], res["traced"]
    pairs = min(len(plain.get("walls", [])), len(traced.get("walls", [])))
    written = traced.get("bytes", [])
    found = layer_metrics(spans, len(traced.get("walls", [])), sum(traced.get("walls", [])),
                          sum(plain.get("walls", [])),
                          statistics.fmean(written) if written else 0.0)
    return {k: (v, unit, pairs) for k, (v, unit) in found.items()}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    res = run_workload(name, seed, seconds, trace, 0 if trace else SETUP_PROBES)
    if trace:
        metrics, extra = per_layer(name, seed, res), []
    else:
        metrics, extra = end_to_end(res)
    failures = res["plain"].get("failures", []) + res["traced"].get("failures", [])
    attempted = len(failures) + sum(len(r.get("walls", [])) for r in (res["plain"], res["traced"]))
    for key, (value, unit, n) in metrics.items():
        print(f"{name} {key} {value:.6g} {unit} (n={n})")
    for line in extra:
        print(f"{name} {line}")
    for line in failures:
        print(f"{name} FAILED {line}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak memory is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tde_plankton" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    # the build: byte-compile the package so no run pays for it in set-up
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("error: the package does not compile", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
