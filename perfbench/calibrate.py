"""Fixed reference work that measures how fast the machine runs right now.

On a shared machine the speed available to one process drifts by tens of
percent within seconds.  Timing reference work around the operations and
dividing their times by its time cancels most of that drift.  Neither
reference uses the library, so no change to the library moves them:

- the reference kernel mixes small-array numpy calls with exact rational
  arithmetic in pure Python, the two kinds of work the library does in
  process;
- the reference child is a fresh interpreter importing numpy and mpmath,
  the start-up and import work that dominates a CLI invocation or a set-up.
"""

from __future__ import annotations

import signal
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

import numpy as np

_POINTS = np.arange(60.0).reshape(20, 3)
# Reference times taken as nominal speed when a normalised time is counted
# in seconds: typical durations of a kernel call and of a reference child on
# a 2.1 GHz Xeon vCPU.
NOMINAL_KERNEL_S = 0.0065
NOMINAL_CHILD_S = 0.22
REFERENCE_CHILD = ("-c", "import numpy, mpmath")


def reference_child(env, cwd) -> float:
    """Seconds to start an interpreter that imports numpy and mpmath."""
    start = perf_counter()
    subprocess.run([sys.executable, *REFERENCE_CHILD], env=env, cwd=cwd,
                   check=True, timeout=60)
    return perf_counter() - start


def reference_kernel() -> float:
    s = 0.0
    for _ in range(150):
        s += float(np.cross(_POINTS[:-1], _POINTS[1:]).sum())
    total = Fraction(0)
    for k in range(1, 400):
        total += Fraction(1, k)
    return s + float(total)


class SpeedLog:
    """Timestamped kernel calls.

    Calls come from ``window`` between operations, or from a ``SIGALRM``
    handler inside ``with log.sampling(interval):``, so that long operations
    in this process are sampled while they run.  ``clock()`` is
    ``perf_counter()`` minus the time spent in kernel calls; operations
    timed with it exclude the sampling.
    """

    def __init__(self):
        self.stamps: list[float] = []
        self.kernel_s: list[float] = []
        self.spent = 0.0
        self._interval = 0.0
        self._previous = None

    def clock(self) -> float:
        return perf_counter() - self.spent

    def sample(self, *_signal_args) -> None:
        start = perf_counter()
        reference_kernel()
        elapsed = perf_counter() - start
        self.stamps.append(start)
        self.kernel_s.append(elapsed)
        self.spent += elapsed

    def window(self, duration: float) -> None:
        """Kernel calls for at least ``duration`` seconds (at least one)."""
        start = perf_counter()
        self.sample()
        while perf_counter() - start < duration:
            self.sample()

    def mean(self) -> float:
        """Mean kernel time; the nominal time before the first call."""
        if not self.kernel_s:
            return NOMINAL_KERNEL_S
        return self.spent / len(self.kernel_s)

    def around(self, start: float, end: float, margin: float) -> float:
        """Mean kernel time of the calls within ``margin`` seconds of the
        perf_counter interval [start, end], or ``mean()`` if there are none."""
        near = [k for t, k in zip(self.stamps, self.kernel_s)
                if start - margin <= t <= end + margin]
        return sum(near) / len(near) if near else self.mean()

    def sampling(self, interval: float) -> "SpeedLog":
        self._interval = interval
        return self

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self._interval, self._interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
