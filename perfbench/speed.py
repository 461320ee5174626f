"""A clock that runs at the machine's reference speed.

The host the benchmark was sized on (a 2-core KVM guest on a shared
Xeon) runs the same code at two speeds.  For tens of seconds at a time
everything takes about 1.6 times as long as in its fast spells, in
process CPU time as much as in wall time, so the time is not lost to
waiting for the CPU but to a slower core: one table build took 2.2 s
in one run and 3.5 s in the next.  Repeating work inside a run does not
remove this, because a spell often outlasts the run.

``SpeedClock`` measures the spell as it goes.  Every ``PERIOD`` seconds a
timer signal interrupts the program between two Python bytecodes and
times ``kernel``, a fixed piece of numpy work that does not call
potshape.  The time since the previous sample is then counted at the
rate ``REF_S / s``, with ``s`` the median of the last ``WINDOW`` samples
(half a second; a spell lasts far longer, and the median drops a sample
that an interrupt happened to slow): as long as the stretch would have
taken with the machine running the kernel in ``REF_S``.  The kernel's own time is left out of
both clocks.  ``read`` returns both the measured seconds and these
reference seconds.

The kernel mixes what the workloads do (FFT round trips with pointwise
work, like the split-step solver; random bit matrices, small products
and sorts, like the table build).  On the sizing host 30 back-to-back
builds of one table spread by 13 % measured (interquartile range over
median) and by 3.5 % in reference seconds.  A change that makes the
program slower or faster moves both clocks by the same share.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections import deque

import numpy as np

clock = time.perf_counter

PERIOD = 0.1  # seconds between kernel samples
WINDOW = 5  # samples in the running median that sets the rate
# The kernel's time, between stretches of the workloads, in the sizing
# host's fast spells: a reference second is a second of that host at full
# speed.
REF_S = 0.7e-3


class SpeedClock:
    """Measured and reference-speed time, while started.

    ``enabled=False`` gives a clock whose reference time is the measured
    time, with no timer and no kernel (traced passes use it, so their
    spans hold only the program)."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        rng = np.random.default_rng(20240801)
        self._x = rng.standard_normal(2048) + 1j * rng.standard_normal(2048)
        self._w = rng.standard_normal((100, 21))
        self.samples: list[float] = []
        self._recent = deque(maxlen=WINDOW)
        self._measured = 0.0
        self._reference = 0.0
        self._mark = None  # end of the last sample
        self._rate = 1.0  # reference seconds per measured second, from the recent samples

    def kernel(self):
        y = self._x
        for _ in range(2):
            y = np.fft.ifft(np.fft.fft(y) * 0.999)
            y = y * np.exp(-1e-3 * (y.real**2 + y.imag**2))
        rng = np.random.default_rng(7)
        for _ in range(3):
            bits = rng.integers(0, 2, size=(64, 100), dtype=np.uint8)
            np.argsort(np.abs(bits.astype(float) @ self._w).sum(axis=1))

    def _tick(self, signum=None, frame=None):
        t = clock()
        self.kernel()
        done = clock()
        sample = done - t
        self.samples.append(sample)
        self._recent.append(sample)
        self._rate = REF_S / statistics.median(self._recent)
        # the stretch since the last sample, at the speed just measured
        self._measured += t - self._mark
        self._reference += (t - self._mark) * self._rate
        self._mark = done

    def start(self):
        self._mark = clock()
        if self.enabled:
            self._tick()  # a rate for the first stretch
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def stop(self):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def read(self) -> tuple[float, float]:
        """(measured, reference) seconds since ``start``, kernels left out."""
        if not self.enabled:
            t = clock() - self._mark
            return t, t
        old = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            since = clock() - self._mark
            return self._measured + since, self._reference + since * self._rate
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, old)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()
