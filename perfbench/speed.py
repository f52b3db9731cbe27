"""Machine-speed sampler: scales measured seconds to a reference speed.

The shared host this benchmark runs on changes speed by 20 % and more over
minutes, and a whole run can fall into a slow phase.  While a phase of the
run is timed, a wall-clock timer interrupts the process every
``SAMPLE_INTERVAL_S`` and runs a fixed probe -- a Python loop and small
NumPy operations, the mix the package's fits spend their time on -- in the
benchmark's one thread, and keeps the probe's time.  The phase's times are
then reported in reference seconds: wall seconds times ``PROBE_REF_S``
over the phase's median probe time.  The package never runs the probe, so
a change to the package moves the reference seconds by the same share as
the wall seconds.  The probes add about 0.5 % to the timed calls.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

import numpy as np

#: probe time of the reference machine the reported seconds are scaled to
PROBE_REF_S = 0.001
SAMPLE_INTERVAL_S = 0.2


def probe() -> float:
    """Wall seconds of one fixed piece of work."""
    start = time.perf_counter()
    total = 0
    for i in range(10_000):
        total += i * i
    values = np.arange(1000.0)
    for _ in range(40):
        values = np.sqrt(values + 1.0)
    return time.perf_counter() - start


class SpeedSampler:
    """Probe samples per named phase, and the scale factor they give."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {}
        self._phase: Optional[str] = None

    def _sample(self, *_) -> None:
        if self._phase is not None:
            self.samples[self._phase].append(probe())

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Sample once now, then every ``SAMPLE_INTERVAL_S`` until exit."""
        self._phase = name
        self.samples.setdefault(name, [])
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self._phase = None

    def median_s(self, name: str) -> float:
        return statistics.median(self.samples[name])

    def factor(self, name: str) -> float:
        """Reference seconds per wall second over the phase."""
        return PROBE_REF_S / self.median_s(name)
