"""Samples the host's CPU speed while a repetition's timed work runs.

On the shared 2-vCPU virtual machine the benchmark was defined on, each
vCPU switches between a fast state and states up to about 2x slower, in
phases of a fraction of a second to tens of seconds.  A run's raw time therefore
measures how long the host was slow as much as the program.  ``Sampler``
times a fixed probe loop on a SIGALRM every ``INTERVAL_S`` seconds, in the
process and on the vCPU that do the work, so that each probe sees the
state the work saw.  ``scale`` turns the probe times into the factor that
brings the repetition's times to a host on which the probe takes
``REFERENCE_NS``.

The probe's own time is measured and taken out of the timed work.
"""

from __future__ import annotations

import signal
import statistics
import time

#: seconds between probes
INTERVAL_S = 0.05

#: iterations of the probe loop
PROBE_ITERS = 4000

#: nanoseconds the probe takes in the fast state of the 2-vCPU Intel Xeon
#: virtual machine the benchmark was defined on; a fixed reference, so that
#: every run is scaled to the same speed whatever states it passed through
REFERENCE_NS = 400_000

_TABLE = dict.fromkeys(range(256), 0)


def probe(n: int = PROBE_ITERS) -> None:
    """Dictionary updates and integer arithmetic, as the search does."""
    table = _TABLE
    for i in range(n):
        table[i & 255] += i * i % 7


def _timed_probe() -> tuple[int, int]:
    """(wall ns, CPU ns) of one probe."""
    cpu0 = time.process_time_ns()
    t0 = time.perf_counter_ns()
    probe()
    return time.perf_counter_ns() - t0, time.process_time_ns() - cpu0


class Sampler:
    """Times ``probe`` at ``start`` and then every ``INTERVAL_S`` until ``stop``.

    ``wall_s`` and ``cpu_s`` count only the probes after ``start``, which ran
    inside the timed work.
    """

    def __init__(self) -> None:
        self.samples_ns: list[int] = []
        self.wall_ns = 0
        self.cpu_ns = 0

    def _tick(self, signum, frame) -> None:
        wall, cpu = _timed_probe()
        self.samples_ns.append(wall)
        self.wall_ns += wall
        self.cpu_ns += cpu

    def start(self) -> None:
        probe()  # warm the loop
        # One sample before the work, so that even work shorter than
        # INTERVAL_S has one.
        self.samples_ns.append(_timed_probe()[0])
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    @property
    def wall_s(self) -> float:
        return self.wall_ns / 1e9

    @property
    def cpu_s(self) -> float:
        return self.cpu_ns / 1e9


def scale(probe_ns: list[int]) -> float:
    """The factor that brings a repetition's times to the reference speed.

    Each probe stands for the interval around it: at the reference speed the
    work of that interval takes ``REFERENCE_NS / probe`` of the time it took.
    """
    return statistics.fmean(REFERENCE_NS / s for s in probe_ns)
