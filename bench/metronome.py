"""Machine-speed sampler that calibrates measured times.

On a shared host the same job can run 20-40% faster or slower for tenths
of a second at a time, depending on what the neighbours of this virtual CPU
do, and CPU time changes with it, so neither wall nor CPU time repeats from
run to run.  While a run measures, an interval timer therefore interrupts
the process every ``INTERVAL_S`` and runs a fixed probe kernel (small numpy
operations inside a Python loop, the same mix as drsub's hot paths) for
``PROBE_CHUNKS`` chunks, recording its speed.  A job's time excludes the
probes that ran inside it and is scaled by the mean probe speed over the
job relative to ``NOMINAL_RATE``:

    calibrated = (raw - probe time inside) * mean rate / NOMINAL_RATE

so a job reads the same whether the machine was fast or slow while it ran.
Calibrated seconds are seconds on a machine whose probe runs at
``NOMINAL_RATE``; the raw times are recorded alongside.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

#: probe chunks per second on a 2-vCPU Intel Xeon (Sapphire Rapids class)
#: KVM guest with Python 3.11 and numpy 2.4, the machine the baseline in
#: README.md was measured on
NOMINAL_RATE = 180_000.0

INTERVAL_S = 0.05
PROBE_CHUNKS = 400


class Metronome:
    def __init__(self):
        self._x = np.linspace(0.0, 1.0, 64)
        self.stamps: list[float] = []     # probe end times
        self.rates: list[float] = []      # chunks per second of each probe
        self.spent: list[float] = []      # cumulative probe time after each probe
        self._previous = None

    def _chunks(self, count: int) -> float:
        s = 0.0
        x = self._x
        for _ in range(count):
            y = x * 0.5 + 1.0
            s += float(y @ x)
            for i in range(20):
                s += i * 0.5
        return s

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        self._chunks(PROBE_CHUNKS)
        end = time.perf_counter()
        self.stamps.append(end)
        self.rates.append(PROBE_CHUNKS / (end - start))
        self.spent.append((self.spent[-1] if self.spent else 0.0) + (end - start))

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def calibrate(self, start: float, end: float) -> tuple[float, float]:
        """(calibrated, raw) time of work done between perf_counter marks.

        ``raw`` excludes the probes that ran inside [start, end].  The rate is
        the mean over those probes plus the last probe before and the first
        after, so short jobs use the readings around them.
        """
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        inside = (self.spent[hi - 1] if hi > 0 else 0.0) - (self.spent[lo - 1] if lo > 0 else 0.0)
        raw = end - start - inside
        rates = self.rates[max(lo - 1, 0):min(hi + 1, len(self.rates))]
        return raw * float(np.mean(rates)) / NOMINAL_RATE, raw
