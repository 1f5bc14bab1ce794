"""A fixed reference workload that follows the machine's speed.

A shared host can run at speeds that differ by a third or more, a state
holding for seconds to minutes, so whole runs can fall into a slow or a
fast state. The benchmark therefore times this reference next to the
cfcalib calls and reports their times scaled to the reference's nominal
speed. The reference does what cfcalib spends its time on, on small
inputs: a Python step loop of float arithmetic and function calls, numpy
array passes, JSON decode/encode and CSV field parsing. It does not
depend on cfcalib or on the workload seed, so a change to cfcalib moves
the scaled times in proportion to the wall times.
"""

from __future__ import annotations

import json
import math
import statistics
import time

import numpy as np

# Median reference time on a 2-core Intel Xeon (Python 3.11, numpy 2.4).
# Scaled times are seconds at this speed; the constant only sets the
# scale, and it must stay fixed for results to compare.
NOMINAL_S = 0.0018


def _accel(s: float, v: float, dv: float) -> float:
    return 1.5 * (1.0 - (v / 30.0) ** 4 - ((2.0 + v * 1.5 + v * dv / 4.9) / max(s, 0.1)) ** 2)


class SpeedRef:
    """Times the reference workload and keeps every sample, in seconds.

    Samples are taken in groups, one group at each point of the run where
    the speed is read; ``groups`` keeps them in order.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._array = rng.random(50_000)
        self._text = json.dumps({"x": [round(float(x), 6) for x in rng.random(1000)]})
        self._lines = [f"{i},{28.37 + x:.10f},-81.25" for i, x in enumerate(rng.random(500))]
        self.groups: list[list[float]] = []

    def _work(self) -> float:
        x, v = 0.0, 10.0
        for _ in range(1000):
            a = _accel(30.0 - x * 0.001, v, 0.5)
            v = max(0.0, v + a * 0.1)
            x += v * 0.1 + math.sqrt(v + 1.0) * 1e-3
        y = float(np.sort(self._array).sum() + np.cumsum(self._array * self._array)[-1])
        z = json.loads(self._text)
        json.dumps(z)
        w = sum(float(line.split(",")[1]) for line in self._lines)
        return x + y + len(z["x"]) + w

    @property
    def samples(self) -> list[float]:
        return [x for group in self.groups for x in group]

    def sample(self, repeats: int) -> int:
        """Time the reference `repeats` times as one group; its index."""
        group = []
        for _ in range(repeats):
            start = time.perf_counter()
            self._work()
            group.append(time.perf_counter() - start)
        self.groups.append(group)
        return len(self.groups) - 1

    def scale(self, first: int, last: int) -> float:
        """Nominal / median time of the samples of groups first..last."""
        return NOMINAL_S / statistics.median(
            x for group in self.groups[max(0, first):last + 1] for x in group)
