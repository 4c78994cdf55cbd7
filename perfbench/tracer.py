"""Outside-in span tracer for the package's public functions.

``Tracer.installed()`` replaces each target function on its module with a
wrapper and puts every original back on exit.  Because the package calls
these functions through their module attributes (``model.dde_rhs``,
``linearize.char_fn`` ...), calls made inside the package are caught too.

Each call becomes one span: name, start, end and parent, plus the calling
thread's CPU time.  The span stack is per thread, since ``cli`` runs seeds
and traces in a thread pool; a span that opens on a pool thread with an
empty stack takes the open task root (the ``cli.main`` span) as its parent.

``busy_s`` is the summed wall duration of a function's spans.  ``self_s``
is the thread CPU time spent in the function and not in a traced callee on
the same thread.  CPU time, not wall time, is used for self time because
two pool threads share one interpreter lock: their wall spans overlap, so
wall self times would count the same second twice, while CPU self times of
all spans add up to the work the process did.

Spans stay in per-thread column arrays until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
from array import array
from contextlib import contextmanager
from time import perf_counter, thread_time

import numpy as np

#: (module, function) pairs wrapped in a traced run.
TARGETS = (
    ("cli", "main"),
    ("simulate", "build_initial"),
    ("simulate", "integrate"),
    ("simulate", "to_physical_time"),
    ("simulate", "measure_frequency"),
    ("simulate", "reconstruct_rho"),
    ("model", "dde_rhs"),
    ("model", "conservation_value"),
    ("model", "juvenile_pool"),
    ("continuation", "find_start"),
    ("continuation", "trace_curve"),
    ("continuation", "hopf_residual"),
    ("continuation", "project_onto_curve"),
    ("continuation", "deduplicate_curves"),
    ("linearize", "rightmost_real_part"),
    ("linearize", "rightmost_in_window"),
    ("linearize", "scan_roots"),
    ("linearize", "char_fn"),
    ("linearize", "char_scale"),
    ("linearize", "linearization_at"),
    ("linearize", "build_linearization"),
    ("equilibria", "solve_e2"),
    ("equilibria", "compute_nt2"),
    ("equilibria", "dominant_equilibrium"),
)
NAMES = tuple(f"{mod}.{fn}" for mod, fn in TARGETS)
INDEX = {name: i for i, name in enumerate(NAMES)}


def _n_seeds(args, kwargs, ret):
    return float(np.size(args[0] if args else kwargs["s"])), 0.0


#: Counts taken from a traced call's arguments and return value, stored as
#: the span's (v1, v2).
MEASURES = {
    "simulate.integrate": lambda a, k, r: (float(len(r) - 1), 0.0),  # steps
    "linearize.char_fn": _n_seeds,  # seeds evaluated
    "linearize.scan_roots": lambda a, k, r: (float(r.coverage), 0.0),
    "continuation.trace_curve": lambda a, k, r: (float(len(r.points)), 0.0),
    "continuation.deduplicate_curves": lambda a, k, r: (
        float(len(a[0] if a else k["curves"])), float(len(r))),  # traced, kept
}

COLUMNS = (
    ("id", "q"), ("parent", "q"), ("name", "i"), ("thread", "i"), ("under", "q"),
    ("t0", "d"), ("t1", "d"), ("cpu", "d"), ("cpu_self", "d"), ("v1", "d"), ("v2", "d"),
)


class _Buffer:
    """One thread's open-span stack and finished-span columns."""

    def __init__(self, thread: int, is_main: bool):
        self.thread = thread
        self.is_main = is_main
        self.stack: list[list] = []
        self.cols = {name: array(code) for name, code in COLUMNS}


class Tracer:
    """Collects spans while installed; ``spans()`` returns them as arrays."""

    MARK = "_perfbench_span"

    def __init__(self):
        self.modules = {mod: importlib.import_module(f"tde_plankton.{mod}") for mod, _ in TARGETS}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._main = None
        # (span id, ancestor mask) of the open span at the bottom of the
        # main thread's stack; pool threads hang their spans under it
        self._root = (0, 0)

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers), threading.get_ident() == self._main)
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _wrap(self, idx: int, fn, measure):
        bit = 1 << idx
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = tracer._buffer()
            stack = buf.stack
            root = not stack
            parent, under = tracer._root if root else (stack[-1][0], stack[-1][2])
            sid = next(tracer._ids)
            frame = [sid, 0.0, under | bit]
            stack.append(frame)
            if root and buf.is_main:
                tracer._root = (sid, under | bit)
            ret = None
            t0 = perf_counter()
            c0 = thread_time()
            try:
                ret = fn(*args, **kwargs)
                return ret
            finally:
                cpu = thread_time() - c0
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += cpu
                elif buf.is_main:
                    tracer._root = (0, 0)
                v1, v2 = (0.0, 0.0) if ret is None or measure is None else measure(
                    args, kwargs, ret)
                c = buf.cols
                c["id"].append(sid)
                c["parent"].append(parent)
                c["name"].append(idx)
                c["thread"].append(buf.thread)
                c["under"].append(under)
                c["t0"].append(t0)
                c["t1"].append(t1)
                c["cpu"].append(cpu)
                c["cpu_self"].append(cpu - frame[1])
                c["v1"].append(v1)
                c["v2"].append(v2)

        setattr(traced, self.MARK, True)
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target; restore the originals on exit.

        A target missing from its module raises AttributeError, so a renamed
        function fails the traced run instead of reading as zero cost.
        """
        saved = []
        self._main = threading.get_ident()
        try:
            for idx, (mod, fn_name) in enumerate(TARGETS):
                module = self.modules[mod]
                original = getattr(module, fn_name)
                saved.append((module, fn_name, original))
                setattr(module, fn_name, self._wrap(idx, original, MEASURES.get(NAMES[idx])))
            yield self
        finally:
            for module, fn_name, original in reversed(saved):
                setattr(module, fn_name, original)

    def spans(self) -> dict[str, np.ndarray]:
        """All finished spans, one array per column."""
        return {
            name: np.concatenate(
                [np.asarray(b.cols[name], dtype=code) for b in self._buffers]
                or [np.zeros(0, dtype=code)])
            for name, code in COLUMNS
        }


def layer_metrics(spans: dict[str, np.ndarray], tasks: int, task_wall_s: float,
                  untraced_wall_s: float, bytes_written: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures, keyed by metric name: (value, unit).

    Calls, times and counts are per traced task.  The per-unit costs
    (``us_per_step``, ``us_per_point``) use the thread CPU time inside the
    span, and their bases (``steps``, ``points``) are reported beside them.
    ``tracing.self_share`` is the self time of all spans over the traced
    task wall time; it falls below 1 by the time pool threads spend waiting
    for the interpreter lock.
    """
    name, under = spans["name"], spans["under"]
    busy = spans["t1"] - spans["t0"]
    out: dict[str, tuple[float, str]] = {}
    per_task = 1.0 / max(tasks, 1)
    total_self = 0.0
    for idx, full in enumerate(NAMES):
        sel = name == idx
        self_s = float(spans["cpu_self"][sel].sum())
        total_self += self_s
        out[f"{full}.calls"] = (float(sel.sum()) * per_task, "count")
        out[f"{full}.busy_s"] = (float(busy[sel].sum()) * per_task, "s")
        out[f"{full}.self_s"] = (self_s * per_task, "s")

    def pick(fn: str) -> np.ndarray:
        return name == INDEX[fn]

    def inside(fn: str) -> np.ndarray:
        return (under & (1 << INDEX[fn])) != 0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    integ, tc = pick("simulate.integrate"), pick("continuation.trace_curve")
    scans, dedupe = pick("linearize.scan_roots"), pick("continuation.deduplicate_curves")
    steps = float(spans["v1"][integ].sum())
    points = float(spans["v1"][tc].sum())
    traced = float(spans["v1"][dedupe].sum())
    verdicts = (pick("linearize.rightmost_real_part") | pick("linearize.rightmost_in_window"))
    out.update({
        "simulate.integrate.steps": (steps * per_task, "count"),
        "simulate.integrate.us_per_step": (
            1e6 * ratio(float(spans["cpu"][integ].sum()), steps), "us"),
        "cli.bytes_written": (bytes_written, "B"),
        "linearize.char_fn.evals": (
            float(spans["v1"][pick("linearize.char_fn")].sum()) * per_task, "count"),
        "linearize.scan_roots.coverage": (
            float(spans["v1"][scans].mean()) if scans.any() else 0.0, "ratio"),
        "continuation.find_start.verdicts_per_start": (
            ratio(float((verdicts & inside("continuation.find_start")).sum()),
                  float(pick("continuation.find_start").sum())), "count"),
        "continuation.trace_curve.points": (points * per_task, "count"),
        "continuation.trace_curve.us_per_point": (
            1e6 * ratio(float(spans["cpu"][tc].sum()), points), "us"),
        "continuation.hopf_residual.per_point": (
            ratio(float((pick("continuation.hopf_residual")
                         & inside("continuation.trace_curve")).sum()), points), "count"),
        "continuation.deduplicate_curves.traced": (traced * per_task, "count"),
        "continuation.curves_kept_ratio": (
            ratio(float(spans["v2"][dedupe].sum()), traced), "ratio"),
        "tracing.tasks": (float(tasks), "count"),
        "tracing.self_share": (ratio(total_self, task_wall_s), "ratio"),
        "tracing.overhead_frac": (
            ratio(task_wall_s - untraced_wall_s, untraced_wall_s), "ratio"),
    })
    return out
