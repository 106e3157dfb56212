"""Machine-speed calibration for the end-to-end times.

The sandbox this benchmark was built on drifts: the same stealth-wide pass
at seed 0 took anywhere from 4.6 s to 7.5 s within a few minutes, in CPU
time as much as in wall time, so no statistic over one run's passes can
hold the run-to-run spread inside the bounds. A fixed kernel that does the
program's kind of work (small MLP matmuls, per-step Python, one hashed RNG
seed) is timed between steps of the program's loops and after each
operation, about 5% of the time. Each operation's wall time is scaled by
``NOMINAL_S / mean kernel time during and right after it``, and each
shorter interval inside it (a set-up, an episode) by ``NOMINAL_S / mean of
the NEAREST kernel times around it``: the machine switches between a fast
and a slow phase every few seconds (kernel times cluster near 4 ms and
7 ms), so one factor for a whole operation would blur episodes of both
phases into one distribution. Times then read as seconds of a machine on
which the kernel takes ``NOMINAL_S``. Kernel time
is taken out of every measured interval, and raw times are kept in the
result file. The kernel is part of the benchmark, not the program, so a
change to dpfedsim moves scaled and raw times alike, as long as it leaves
no work running between steps.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
from time import perf_counter

import numpy as np

from dpfedsim import experiment, rdp

# Mean kernel time on the 2-CPU Xeon sandbox the benchmark was built on.
NOMINAL_S = 0.006
# Kernel time owed per second of measured work.
BUDGET_SHARE = 0.05
# Kernel samples, taken about every 0.12 s of work, that scale one short interval.
NEAREST = 6
# Functions called once per step of the program's loops: a federation
# episode, and a Q-learning episode (exploration_probability is called once
# per episode of rdp.fit_tabular, which has no other hook).
STEPS = ((experiment, "run_episode"), (rdp, "exploration_probability"))


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._layers = [rng.normal(size=s) for s in ((6, 16), (16, 8), (8, 1))]
        self._x = rng.random((32, 6))
        self._y = rng.random(32)
        self.samples: list[float] = []
        self.started: list[float] = []  # perf_counter() at the start of each sample
        self.spent = 0.0  # total seconds spent calibrating, to subtract from enclosing timers
        self._since = perf_counter()

    def _kernel(self) -> None:
        w1, w2, w3 = (w.copy() for w in self._layers)
        x, y = self._x, self._y
        for step in range(100):
            seed = int.from_bytes(hashlib.sha256(repr((step, "cal")).encode()).digest()[:8], "big")
            idx = np.random.default_rng(seed).permutation(32)
            xb, yb = x[idx], y[idx]
            a1 = np.maximum(0.0, xb @ w1)
            a2 = np.maximum(0.0, a1 @ w2)
            d3 = (2.0 / 32) * ((a2 @ w3)[:, 0] - yb)[:, None]
            d2 = (d3 @ w3.T) * (a2 > 0)
            d1 = (d2 @ w2.T) * (a1 > 0)
            w3 -= 1e-4 * (a2.T @ d3)
            w2 -= 1e-4 * (a1.T @ d2)
            w1 -= 1e-4 * (xb.T @ d1)

    def settle(self) -> None:
        """Run the kernel for the time owed since the last call that ran it."""
        start = perf_counter()
        owed = BUDGET_SHARE * (start - self._since)
        if owed < NOMINAL_S:
            return
        while perf_counter() - start < owed:
            began = perf_counter()
            self._kernel()
            self.samples.append(perf_counter() - began)
            self.started.append(began)
        self._since = perf_counter()
        self.spent += self._since - start

    @contextlib.contextmanager
    def between_steps(self):
        """Settle after every call of a per-step function, outside its timing."""
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr in STEPS]
        for owner, attr, step in originals:
            setattr(owner, attr, self._settling(step))
        try:
            yield
        finally:
            for owner, attr, step in originals:
                setattr(owner, attr, step)

    def _settling(self, step):
        def calibrated(*args, **kwargs):
            try:
                return step(*args, **kwargs)
            finally:
                self.settle()

        return calibrated

    def scale(self, first_sample: int) -> float:
        """Factor taking times measured since ``samples[first_sample]`` to the
        nominal machine; the last ten samples stand in if there are none since."""
        recent = self.samples[first_sample:] or self.samples[-10:]
        return NOMINAL_S * len(recent) / sum(recent)

    def scale_at(self, start: float, end: float) -> float:
        """Factor taking the interval [start, end] (perf_counter() times) to the
        nominal machine, from the NEAREST samples taken around its middle."""
        middle = bisect.bisect(self.started, (start + end) / 2)
        low = max(0, min(middle - NEAREST // 2, len(self.samples) - NEAREST))
        near = self.samples[low:low + NEAREST]
        return NOMINAL_S * len(near) / sum(near)
