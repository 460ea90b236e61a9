"""Scaling times to a reference machine speed.

The speed of the shared machine this benchmark was built on drifts by up to
2x over tens of seconds, and each of its two CPUs drifts on its own, as other
tenants come and go.  That moves every timing more than most code changes
would.  So a fixed probe of stdlib-only work of the kinds the package does
(big rationals, small sorted tuples, dict traffic) runs on the CPU that does
the timed work: between calls, and every 0.25 s during a call from a SIGALRM
handler.  The probe time is taken out of the call's time, and what is left
is scaled by the probe time of a reference machine over the mean probe time
from the probe just before the call to the one just after it.  The speed
changes within a second, so wider windows track it worse.  The probe shares
no code with the package, so a change to the package cannot move it.
"""

import bisect
import signal
import time
from fractions import Fraction

# Probe time of the reference machine: roughly that of the machine above.
PROBE_REFERENCE_S = 0.0035
PROBE_INTERVAL_S = 0.25


def speed_probe() -> float:
    """Seconds taken by the fixed probe work."""
    start = time.perf_counter()
    total = Fraction(0)
    counts: dict[tuple, int] = {}
    for i in range(1, 600):
        total += Fraction(i, i + 1)
        key = tuple(sorted((i % 7, i % 5, i % 3)))
        counts[key] = counts.get(key, 0) + i
    return time.perf_counter() - start


class ProbeLog:
    """Probe times, each with the moment it was taken.

    ``with log: work()`` also runs the probe every PROBE_INTERVAL_S from
    SIGALRM while the work runs.  Nothing may write a large block to a pipe
    meanwhile: a SIGALRM handler that runs during such a write can make
    CPython's buffered stdout drop the rest of it.
    """

    def __init__(self):
        self.entries: list[tuple[float, float]] = []

    def probe(self) -> None:
        self.entries.append((time.perf_counter(), speed_probe()))

    def __enter__(self):
        signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        return False

    def seconds_since(self, mark: int) -> float:
        """Time spent probing since entry number mark."""
        return sum(d for _, d in self.entries[mark:])

    def speed_around(self, start: float, end: float) -> float:
        """Mean probe time from the last probe before start to the first after end."""
        moments = [t for t, _ in self.entries]
        lo = max(bisect.bisect_left(moments, start) - 1, 0)
        hi = bisect.bisect_right(moments, end) + 1
        window = [d for _, d in self.entries[lo:hi]]
        return sum(window) / len(window)


def scale(raw: float, probe_s: float) -> float:
    """raw seconds at the reference machine's speed, given the probe time at the time."""
    return raw * PROBE_REFERENCE_S / probe_s
