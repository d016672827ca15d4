"""Host-speed probe: takes the shared host's slow stretches out of a timing.

On the development host (2 vCPUs of a shared Xeon virtual machine) the same
code runs up to 2x slower in stretches that come and go within seconds, and
the share of slow time changes from one minute to the next.  An execution of
100 ms or more always straddles such stretches, so its raw time measures the
host as much as the program.

The meter runs a fixed probe, a sum of twelve Fractions, PROBE_EDGE times
just before and just after each execution and, through SIGALRM, every
PROBE_INTERVAL seconds while it runs.  Each probe first adds two of the
terms untimed, to bring the code back into the caches the execution
evicted.  The host's speed around an execution is the median of the probes
that started within WINDOW seconds of it, and the execution's time, less the
probes that ran inside it, is scaled to the speed at which that median is
PROBE_REFERENCE:

    normalised = (raw seconds - probe time inside it) * PROBE_REFERENCE / median

The probe is stdlib code only.  A change to auctionkit can still move it
through the state it finds the CPU in, so the probe is kept small (about
1% of an execution's time).  NOTES.md ("Host noise") has the measurements
behind the probe, WINDOW and the median.  PROBE_REFERENCE is about the
probe's median time on the development host in its fast stretches, so
normalised times read as the seconds an execution takes there.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

# The probe sums these; its first two terms, summed untimed, warm the code.
PROBE_TERMS = tuple(Fraction(i, 7 * i + 3) for i in range(1, 13))
# Seconds between probes while an execution runs (wall-clock timer).
PROBE_INTERVAL = 0.002
# Probes made just before and just after each execution, outside its time.
PROBE_EDGE = 5
# Probes that started this many seconds either side of an execution count
# towards the host's speed during it.
WINDOW = 0.5
# Seconds the median probe takes when the host runs at full speed.
PROBE_REFERENCE = 20e-6


class HostMeter:
    """Use as a context manager; bracket each execution with start() and
    stop().  The meter owns SIGALRM while it is active."""

    def __init__(self):
        # Every probe of the meter, in time order: when it began, how long it
        # took in all, and how long its timed loop took.
        self.starts: list[float] = []
        self.costs: list[float] = []
        self.durations: list[float] = []

    def _probe(self, *_signal) -> None:
        began = time.perf_counter()
        total = PROBE_TERMS[0] + PROBE_TERMS[1]
        start = time.perf_counter()
        total = Fraction(0)
        for term in PROBE_TERMS:
            total += term
        end = time.perf_counter()
        self.starts.append(began)
        self.costs.append(end - began)
        self.durations.append(end - start)

    def __enter__(self) -> "HostMeter":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def start(self) -> None:
        for _ in range(PROBE_EDGE):
            self._probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)

    def stop(self, began: float, ended: float) -> float:
        """Seconds of probes that ran inside the execution from began to ended."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        first = bisect.bisect_left(self.starts, began)
        last = bisect.bisect_left(self.starts, ended)
        inside = sum(self.costs[first:last])
        for _ in range(PROBE_EDGE):
            self._probe()
        return inside

    def speed(self, began: float, ended: float) -> float:
        """The median probe around an execution; call once the probes after
        it have been made."""
        first = bisect.bisect_left(self.starts, began - WINDOW)
        last = bisect.bisect_right(self.starts, ended + WINDOW)
        return statistics.median(self.durations[first:last])


def normalise(seconds: float, speed: float) -> float:
    """An execution's time at the host's full speed."""
    return seconds * PROBE_REFERENCE / speed
