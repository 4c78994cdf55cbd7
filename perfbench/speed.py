"""A gauge of the host's speed while the benchmark runs.

The shared hosts this benchmark runs on change speed by up to 2x, each
vCPU on its own, for spells of a fraction of a second to several minutes,
and CPU time changes with wall time, so neither tells a slow program from a
slow spell.  ``Gauge`` is a child process that, all through a run, times a
fixed kernel of small numpy calls and Python arithmetic every PERIOD_S
seconds, on the vCPU the benchmark runs on.  A reading is the
kernel's thread CPU time over KERNEL_S, its time in the fast state of a
2-vCPU x86-64 KVM host; thread CPU time leaves out the time the child waits
for its vCPU, so the readings follow the vCPU's speed, not the benchmark's
load.  A task's slowdown is the mean of the readings taken while it ran,
and its wall time divided by its slowdown is its time in reference
seconds.  The kernel takes 4 to 9 ms, a few per cent of one vCPU.

Run as a script, this file is the ``Gauge`` child: it samples until its
standard input closes, then prints the samples as JSON.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, thread_time

import numpy as np

#: the kernel's thread CPU time in the fast state of a 2-vCPU x86-64 KVM host
KERNEL_S = 0.004
PERIOD_S = 0.1
_X = np.linspace(0.0, 1.0, 64)


def kernel(x: np.ndarray) -> float:
    """A fixed pass of small numpy calls and Python arithmetic."""
    acc = 0.0
    for i in range(4500):
        acc += float(x.dot(x)) + (i % 7) * 0.5
        acc += {"i": i, "acc": acc}["i"] * 1e-9
    return acc


def slowdown() -> float:
    """The kernel's thread CPU time now, over KERNEL_S."""
    c0 = thread_time()
    kernel(_X)
    return (thread_time() - c0) / KERNEL_S


def sample(period: float, cpu: int) -> list[tuple[float, float]]:
    """(start, slowdown) every ``period`` seconds on vCPU ``cpu``, until
    stdin closes."""
    os.sched_setaffinity(0, {cpu})
    samples = []
    while True:
        samples.append((perf_counter(), slowdown()))
        if select.select([sys.stdin], [], [], period)[0]:
            return samples


class Gauge:
    """The sampling child on vCPU ``cpu``, for the length of a ``with`` block."""

    def __init__(self, cpu: int) -> None:
        self.cpu = cpu
        self.samples: list[tuple[float, float]] = []

    def __enter__(self) -> "Gauge":
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(PERIOD_S), str(self.cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc) -> None:
        try:
            out, _ = self._proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.communicate()
            raise
        if self._proc.returncode != 0:
            raise RuntimeError(f"speed gauge exited with code {self._proc.returncode}")
        self.samples = [tuple(x) for x in json.loads(out)]

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean slowdown of the samples taken between the ``perf_counter``
        readings t0 and t1, or of the nearest one when none was."""
        inside = [v for t, v in self.samples if t0 <= t <= t1]
        if inside:
            return statistics.fmean(inside)
        mid = 0.5 * (t0 + t1)
        return min(self.samples, key=lambda s: abs(s[0] - mid))[1]


if __name__ == "__main__":
    json.dump(sample(float(sys.argv[1]), int(sys.argv[2])), sys.stdout)
