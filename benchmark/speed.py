"""The box's own speed, sampled while the program runs, so that timings can
be given in reference seconds.

A shared box changes speed under load from other machines: on a 2-vCPU VM a
fixed pure-Python loop took anywhere from 27 to 44 ms within one minute, in
slow and fast phases a few seconds long. A section timed on its own wall
clock carries that swing into the metric. ``SpeedReference`` interrupts the
program every ``INTERVAL`` seconds (SIGALRM, handled in the main thread
between bytecodes) and times a fixed reference task, so the speed of the box
is known around every moment of a timed section. ``seconds(a, b)`` then gives
the work done in ``[a, b]`` in reference seconds: the time the section would
have taken had the box run the reference task in ``NOMINAL_S`` throughout.
The sampling time itself is left out. A program that gets faster or slower
moves the figure as it moves the wall time; the box getting faster
or slower moves it much less.

The reference task does what the program spends its time on, with none of
the program's code: a breadth-first search over a fixed graph in Python
lists and numpy scalars, and chains of small matrix products. Each sample
runs it twice and keeps the second, so that the program's own use of the
caches between samples does not slow the sample that is kept.
"""

from __future__ import annotations

import bisect
import signal
import time
from collections import deque

import numpy as np

INTERVAL = 0.1  # seconds of wall time between samples
NOMINAL_S = 0.0019  # one reference task on the reference box, its median over 300 samples

_N = 300
_rng = np.random.default_rng(12345)
_ADJ = [[] for _ in range(_N)]
for _u, _v in _rng.integers(0, _N, size=(3 * _N, 2)).tolist():
    if _u != _v:
        _ADJ[_u].append(_v)
        _ADJ[_v].append(_u)
_W = _rng.standard_normal((16, 16)) / 4.0


def reference_task():
    """A fixed amount of work like the program's; returns a checksum."""
    total = 0
    for s in range(0, _N, 60):
        dist = np.full(_N, -1, dtype=np.int64)
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in _ADJ[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        total += int(dist.sum())
    x = _W
    for _ in range(40):
        x = np.tanh(x @ _W)
    return total + float(x[0, 0])


class SpeedReference:
    """Samples the box's speed every INTERVAL seconds while started."""

    def __init__(self):
        self.starts = []  # perf_counter at the start of each sample
        self.ends = []  # ... and at its end
        self.durations = []  # the kept (second) run of the reference task
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_task()
        t1 = time.perf_counter()
        reference_task()
        t2 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t2)
        self.durations.append(t2 - t1)
        self._busy = False

    def start(self):
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._sample(None, None)

    def seconds(self, a, b):
        """Reference seconds of the work done between perf_counter readings
        a and b. Each stretch of work between two samples counts at the mean
        speed of those two samples; the stretches at either end count at the
        speed of the nearest sample outside or inside the section."""
        if not self.durations:
            raise RuntimeError("no speed samples: start() was not called")
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_right(self.ends, b)
        inner = range(lo, max(lo, hi))
        last = len(self.durations) - 1
        before = self.durations[max(lo - 1, 0)]
        after = self.durations[min(hi, last)]
        total, edge, edge_speed = 0.0, a, before
        for i in inner:
            total += (self.starts[i] - edge) * NOMINAL_S / ((edge_speed + self.durations[i]) / 2)
            edge, edge_speed = self.ends[i], self.durations[i]
        total += (b - edge) * NOMINAL_S / ((edge_speed + after) / 2)
        return total

    def wall_seconds(self, a, b):
        """Wall seconds between a and b, less the time spent sampling."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_right(self.ends, b)
        return (b - a) - sum(self.ends[i] - self.starts[i] for i in range(lo, max(lo, hi)))
