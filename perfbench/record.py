"""Repeat the benchmark over several seeds and record the baseline.

Usage, from the repository root:

    python3 perfbench/record.py [--write]

Runs ``run.py`` once per seed (seeds 1..10) on each workload with tracing
off, and prints, per end-to-end metric, the median, the quartiles and the
spread (quartile distance over the median) against the metric's bound in
BENCHMARK.json, and the same for the wall-clock figures run.py prints
beside them.  ``--write`` then adds one traced run per workload and
writes everything, with the machine and source description, to
perfbench/BASELINE.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = list(range(1, 11))

RATIONALE = {
    "sim-fig6": (
        "simulate, model and the CLI's CSV writer do almost all the work and "
        "linearize and continuation are never called, so it exercises the "
        "simulation hot loop and bypasses every stability or continuation change"),
    "trace-fig4": (
        "continuation and linearize do the work, with char_fn called on scalars "
        "from finite-difference Jacobians; dd is dominated by the corrector and "
        "the curve dedupe, d0 by find_start; simulate is never called"),
    "stab-map": (
        "the same linearize layer used differently: batched char_fn over the seed "
        "grid of one verdict per task, with equilibria ahead of it and no "
        "continuation or file output, so scalar-versus-batched trade-offs show "
        "as a split against trace-fig4"),
}

#: report lines of run.py that give wall-clock figures beside the metrics
WALL_CLOCK = ("wall.setup_s", "wall.task_s.p50", "wall.tasks_per_s", "slowdown")

#: per-layer metric -> (end-to-end metrics it should move, workloads where)
LAYER_MAP = [
    (["simulate.integrate.us_per_step", "model.conservation_value.self_s",
      "model.juvenile_pool.self_s", "model.dde_rhs.self_s"],
     ["task_s.p50", "tasks_per_s", "peak_rss_mb for any post-loop pass"],
     "sim-fig6; no change on the other two"),
    (["cli.main.self_s", "cli.bytes_written"], ["task_s.p50"],
     "sim-fig6 (about 1 MB per run); negligible on trace-fig4"),
    (["linearize.scan_roots.self_s", "linearize.char_fn.evals",
      "linearize.scan_roots.coverage"],
     ["task_s.p50", "task_s.p90", "tasks_per_s"],
     "stab-map (about 99% of a task); trace-fig4 through find_start"),
    (["continuation.find_start.verdicts_per_start"], ["task_s.p50"],
     "trace-fig4 (d0 most)"),
    (["continuation.trace_curve.us_per_point", "continuation.hopf_residual.per_point"],
     ["task_s.p50"], "trace-fig4 (dd most); none on stab-map"),
    (["continuation.deduplicate_curves.self_s", "continuation.curves_kept_ratio"],
     ["task_s.p50"], "trace-fig4 (dd: 4 merged curves, 1 kept)"),
    (["equilibria.solve_e2.self_s"], ["tasks_per_s"],
     "stab-map once verdicts get cheaper; about 2% of trace-fig4 today"),
    (["equilibria.compute_nt2.self_s"], ["task_s.p50", "tasks_per_s"],
     "trace-fig4 only (about 4% of a task); stab-map calls it while making inputs, "
     "outside the timed task"),
    (["tracing.overhead_frac", "tracing.self_share"], [],
     "all; they say how far to trust the traced numbers"),
]


def bench(workload: str, seed: int, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {proc.stdout}")
    result["wall_clock"] = {
        words[1]: float(words[2])
        for words in (line.split() for line in lines[:-1])
        if len(words) > 2 and words[1] in WALL_CLOCK}
    return result


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def environment() -> dict:
    import numpy
    import scipy

    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    tree = subprocess.run(["git", "rev-parse", "HEAD:src"], cwd=ROOT, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=False)
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cli_pool_cap": f"min(4, nproc) = {min(4, os.cpu_count() or 1)} (the CLI default)",
        "TDE_PLANKTON_THREADS": os.environ.get("TDE_PLANKTON_THREADS", "unset"),
        "cpu_affinity": (f"run.py pins each run to the first of its "
                         f"{len(os.sched_getaffinity(0))} allowed vCPUs"),
        "src_lines": src_lines,
        "src_tree": tree.stdout.strip() or None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    names = [w["name"] for w in SPEC["workloads"]]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    end_to_end, wall_clock, attempted = {}, {}, {}
    for name in names:
        runs = [bench(name, seed, False) for seed in SEEDS]
        attempted[name] = [r["attempted"] for r in runs]
        end_to_end[name] = {}
        for metric, bound in bounds.items():
            s = summarise([r["metrics"][metric]["value"] for r in runs])
            end_to_end[name][metric] = s
            verdict = "ok" if s["spread"] < bound / 3 else (
                "within bound" if s["spread"] <= bound else "TOO WIDE")
            print(f"{name:10s} {metric:12s} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                  f"(bound {bound}) {verdict}; values "
                  + " ".join(f"{v:.4g}" for v in s["values"]), flush=True)
        wall_clock[name] = {}
        for key in WALL_CLOCK:
            s = summarise([r["wall_clock"][key] for r in runs])
            wall_clock[name][key] = s
            print(f"{name:10s} {key:16s} median {s['median']:.6g} "
                  f"spread {s['spread']:.4f} (not gated)", flush=True)
    if not args.write:
        return 0
    traced = {}
    for name in names:
        traced[name] = {k: v["value"] for k, v in bench(name, 1, True)["metrics"].items()}
    record = {
        "environment": environment(),
        "seeds": SEEDS,
        "run_seconds": SPEC["run_seconds"],
        "time_unit": ("end_to_end times are reference seconds, wall seconds over the "
                      "slowdown speed.py gauges; wall_clock holds the wall-clock figures"),
        "workloads": {w["name"]: {"why": w["why"], "rationale": RATIONALE[w["name"]]}
                      for w in SPEC["workloads"]},
        "end_to_end": end_to_end,
        "wall_clock": wall_clock,
        "tasks_attempted": attempted,
        "per_layer_traced_seed1": traced,
        "metric_to_layer_map": [
            {"per_layer": layer, "should_move": moves, "on_workload": where}
            for layer, moves, where in LAYER_MAP
        ],
    }
    (HERE / "BASELINE.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
