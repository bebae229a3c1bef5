"""Host-speed probe, sampled densely while operations run, so a run can
express its times at a reference host speed.

On a shared host the speed of the same code drifts by up to ~1.4x, within
seconds and over minutes, as other tenants load the machine.  The probe is
a fixed piece of the work the solvers do (interpreted Python around numpy
calls on 100-vectors and 20x5 matrices) that does not touch bregopt, so a
change to the package moves the operations but not the probe.

While a ``Meter`` is armed, a SIGALRM handler runs the probe every
``INTERVAL_S`` of wall time, in the main thread between two bytecodes of
whatever is running.  ``Meter.clock`` is a clock that stops while the
handler runs, so an operation timed with it excludes the probes made inside
it.  A time ``t`` measured while probes took ``p`` seconds is reported as
``t * REFERENCE_PROBE_S / p``: the time the operation would take on a host
where the probe takes ``REFERENCE_PROBE_S``.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Wall time between probes, and the probe time of the reference host: about
# the median probe time of a 2-CPU shared host (Python 3.11, numpy 2.4 with
# OpenBLAS at one thread).
INTERVAL_S = 0.05
REFERENCE_PROBE_S = 1.5e-3
_LOOPS = 30

_VECTOR = np.linspace(0.0, 1.0, 100)
_MATRIX = np.arange(100.0).reshape(20, 5) / 100.0 + np.eye(20, 5)
_ONES = np.ones(5)


def probe() -> float:
    """Seconds of one pass of the fixed work."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(_LOOPS):
        w = _VECTOR * 1.000001 + 1e-9 * i
        acc += float(_VECTOR @ w)
        q, _ = np.linalg.qr(_MATRIX)
        acc += float(q[0, 0])
        gram = _MATRIX.T @ _MATRIX
        acc += float(np.linalg.solve(gram, _ONES)[0])
        for j in range(8):
            acc += j * 1e-3
    return time.perf_counter() - start


class Meter:
    """Probe samples taken while armed, and the seconds their handler took.

    Use as a context manager around the timed work; ``clock()`` readings
    taken inside exclude the handler's time.
    """

    def __init__(self):
        self.samples = []
        self.stolen = 0.0
        self._previous = None
        self._busy = False

    def _handler(self, signum, frame):
        if self._busy:  # an alarm that lands inside a probe is dropped
            return
        self._busy = True
        begin = time.perf_counter()
        self.samples.append(probe())
        self.stolen += time.perf_counter() - begin
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def clock(self) -> float:
        """Seconds that exclude the probes, read with the alarm blocked so
        no probe lands between the two terms."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return time.perf_counter() - self.stolen
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def window(self, first: int, last: int, least: int = 5) -> list:
        """Samples ``first..last-1``, widened on both sides to at least
        ``least`` samples where the run has them."""
        while last - first < least and (first > 0 or last < len(self.samples)):
            first, last = max(0, first - 1), min(len(self.samples), last + 1)
        return self.samples[first:last]

    def scale(self, first: int = 0, last: int | None = None) -> float:
        """Factor that takes times measured over samples ``first..last-1``
        to the reference speed."""
        last = len(self.samples) if last is None else last
        return REFERENCE_PROBE_S / statistics.median(self.window(first, last))
