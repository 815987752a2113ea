"""Speed gauge: scales timed work to the reference machine's speed.

The machine the benchmark was written on is a shared VM whose speed moves
by 20-50% within seconds and drifts over minutes; process CPU time moves
with wall time, so the work itself runs slower, and no statistic over one
run removes it. Ten identical ``Tracker.step`` passes over one scene
spread 0.33 (interquartile range over median).

So the benchmark runs a small fixed piece of work, ``gauge_work``, between
stretches of the work it times: between ``Tracker.step`` calls in-process,
and every ``INTERVAL_S`` of wall time inside each CLI verb (see
``gauged_cli.py``). Each stretch of timed work is multiplied by
``CHUNK_REF_S / d``, ``d`` being the mean duration of the gauge runs on
either side of it: the time is reported as it would read on the reference
machine. Scaled this way, the same ten passes spread 0.03.

``gauge_work`` calls no headtrack code, so a change to the program never
changes it.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

CHUNK_REPS = 80  # one gauge run, about 3 ms
# Reference duration of one gauge run. Fixed, so that scaled times compare
# across runs and commits. Interleaved with tracking on a 2-core Intel Xeon
# VM at 2.1 GHz (Python 3.11.7, numpy 2.4.6) one run takes 2.8-3.9 ms.
CHUNK_REF_S = 0.003
INTERVAL_S = 0.04  # wall time between gauge runs

_A = np.linspace(0.5, 1.5, 36).reshape(6, 6) + np.eye(6) * 4.0


def gauge_work(reps: int = CHUNK_REPS) -> float:
    """Fixed work shaped like headtrack's own.

    Small dense algebra as in a Kalman step, Python arithmetic and dicts as
    in the association loops, and float text formatting and parsing as in
    MOT I/O.
    """
    a = _A
    acc = 0.0
    for i in range(reps):
        x = np.linalg.solve(a, a[:, i % 6])
        p = a @ a.T * 0.01 + np.outer(x, x)
        acc += float(p.trace())
        d = {}
        for j in range(60):
            v = (i * 31 + j * 17) % 97 / 97.0
            d[j] = v * v - 0.5 * v
        acc += sum(d.values())
        line = ",".join(repr(acc * k) for k in range(6))
        acc += sum(float(f) for f in line.split(",")) * 1e-9
    return acc


class GaugeLog:
    """Gauge runs of one process, as ``[start, duration]`` on the monotonic clock."""

    def __init__(self) -> None:
        self.runs: list[list[float]] = []

    def run(self) -> None:
        t0 = time.perf_counter()
        gauge_work()
        self.runs.append([t0, time.perf_counter() - t0])

    def run_if_due(self) -> None:
        """Run the gauge if ``INTERVAL_S`` has passed since the last run ended."""
        if not self.runs or time.perf_counter() - sum(self.runs[-1]) >= INTERVAL_S:
            self.run()


def scaled_time(a: float, b: float, runs: list[list[float]]) -> float:
    """Seconds of work in ``[a, b]``, gauge runs left out, at reference speed.

    ``runs`` is sorted by start and not empty. Each stretch between gauge
    runs is scaled by the runs on either side of it, or by the one run on
    its side at either end.
    """
    starts = [s for s, _ in runs]
    i = bisect.bisect_left(starts, a)  # runs[i] is the first to start at or after a
    total, t = 0.0, a
    while True:
        inside = i < len(runs) and runs[i][0] < b
        end = runs[i][0] if inside else b
        sides = [runs[j][1] for j in (i - 1, i) if 0 <= j < len(runs)]
        total += (end - t) * CHUNK_REF_S * len(sides) / sum(sides)
        if not inside:
            return total
        t = runs[i][0] + runs[i][1]
        i += 1
