"""Host-speed adjusted timing.

On a shared host the same single-threaded Python code runs at speeds that
differ by up to 2x from one second to the next, as other tenants load the
cores; CPU time moves with wall time, so it is not the process waiting but
the core running slower. A timed operation of several seconds sees a
different mix of fast and slow stretches on every run, and its wall time
spreads with the mix, not with the program.

While a ``Clock`` is active, a SIGALRM timer runs a fixed pure-Python probe
loop every ``INTERVAL`` seconds and records how long it took. The adjusted
time of an operation is its wall time without the probes, scaled by
``NOMINAL`` over the probe's time in each stretch (the mean of the inverse
probe times taken during the operation). It is the time the operation would
take at the speed at which the probe takes ``NOMINAL`` seconds, the typical
speed of the reference machine. A change that makes the program do less
work lowers it in the same proportion as the wall time.
"""

from __future__ import annotations

# nothing beyond these, so that a set-up child that times `import relmon`
# has loaded none of relmon's imports before it starts the clock
import signal
import time

INTERVAL = 0.02  # seconds between probes, which take about 2 % of the time
LOOPS = 400
# the probe's median seconds within benchmark runs on the reference machine
# (a 2-vCPU 2.1 GHz Intel Xeon virtual machine on a shared host, Python
# 3.11), so that adjusted times there read about as wall times; only the
# scale of adjusted times depends on it
NOMINAL = 4.0e-4


def probe(loops: int = LOOPS) -> float:
    """Seconds for a fixed loop of dict, tuple and sort work, like relmon's."""
    counts: dict = {}
    t0 = time.perf_counter()
    for i in range(loops):
        key = (i % 17, i % 5)
        counts[key] = counts.get(key, 0) + 1
        tuple(sorted((i % 3, i % 7, i % 11)))
    return time.perf_counter() - t0


class Clock:
    """Times calls in wall seconds and in host-speed adjusted seconds."""

    def __init__(self, interval: float = INTERVAL) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self._previous = None

    def __enter__(self) -> "Clock":
        self.samples.append(probe())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        self.samples.append(probe())

    def time(self, fn):
        """Run fn(): its result, wall seconds and adjusted seconds."""
        start = len(self.samples)
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        during = self.samples[start:]
        # an operation shorter than the interval takes the latest probe
        speeds = during or self.samples[-1:]
        work = max(wall - sum(during), 0.0)
        return result, wall, work * NOMINAL * sum(1.0 / s for s in speeds) / len(speeds)
