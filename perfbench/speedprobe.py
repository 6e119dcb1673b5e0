"""Host-speed probe: scales a call's time to a fixed reference speed.

The benchmark runs on shared hosts whose speed drifts by up to 2x within a
minute, because other tenants load the same cores; wall and CPU time of a
call drift with it (a 16 s call read 10-17 s across ten runs).  While an
untraced call runs, a SIGALRM timer interrupts it every INTERVAL_S and
times a fixed piece of pure-Python Fraction arithmetic, the kind of work
qcurrents does but none of its code, so a faster qcurrents does not make
the probe faster.  The mean probe time over the call is the host's speed
during the call, and a time t of the call reads

    t * REFERENCE_PROBE_S / (mean probe time)

that is, seconds at the reference speed.  The probes' own time is taken
out of t first; they cost under 1% of the call.  Signal handlers run in the
main thread, so the probe also works while the program computes on a
worker thread.  Set-up is too short for the timer: it is scaled by probes
taken just before and just after it.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.1
# probe time at the reference speed; a fixed constant, so scaled times of
# different runs and commits compare
REFERENCE_PROBE_S = 0.0006


def reference_work() -> Fraction:
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(1, i % 97 + 1)
    return total


class SpeedProbe:
    """Probe samples; as a context manager it samples every INTERVAL_S
    while its block runs."""

    def __init__(self):
        self.wall = []
        self.cpu = []

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM,
                                       lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def sample(self):
        wall, cpu = time.perf_counter(), time.thread_time()
        reference_work()
        self.wall.append(time.perf_counter() - wall)
        self.cpu.append(time.thread_time() - cpu)

    def without_probes(self, wall: float, cpu: float) -> tuple:
        """(wall, cpu) of the block minus the time the probes took."""
        return wall - sum(self.wall), cpu - sum(self.cpu)

    def wall_at_reference(self, wall: float) -> float:
        return wall * REFERENCE_PROBE_S / statistics.fmean(self.wall)

    def cpu_at_reference(self, cpu: float) -> float:
        return cpu * REFERENCE_PROBE_S / statistics.fmean(self.cpu)
