"""Host-speed reference: a fixed loop timed next to the measured calls.

The reference host gives the benchmark 2 vCPUs of a machine shared with
other tenants, and its speed swings by up to 1.5x within seconds while
this machine's own load stays flat.  A process's CPU time slows just as
its wall time does, and code that walks dictionaries and allocates slows
more than plain arithmetic, so the tenants contend for caches and memory.
A fixed loop of such work, independent of the library, slows with the
calls around it.

Every time the benchmark reports is therefore scaled by ``REFERENCE_S``
over the median time of the loop around the measurement: it reads in
seconds of the reference host at its usual speed, and a slow spell moves
it far less.  A change to the library cannot move the loop, so a faster
or slower commit still shows in full.
"""

from statistics import median
from time import perf_counter
from typing import List

#: Time of one :func:`reference_loop` on the reference host at its usual
#: speed.  Part of the benchmark definition: changing it rescales every
#: reported time, and so starts a new baseline.
REFERENCE_S = 0.0016
#: Seconds of measured work after which :meth:`SpeedProbe.mark` probes again.
PROBE_INTERVAL_S = 0.05
#: Probes on each side of a call whose median scales the call.
WINDOW = 2


def reference_loop() -> int:
    """Fixed work: string keys into a dictionary, a sort and lookups.

    It makes only strings and ints, which the cyclic garbage collector
    does not track, so it never triggers a collection and its time does
    not depend on how much the library holds.
    """
    table = {}
    for i in range(3000):
        table["k%06d" % (i * 7919 % 3000)] = i
    total = 0
    for key in sorted(table):
        total += table[key]
    return total


def probe(repeats: int = 1) -> float:
    """Median seconds of *repeats* runs of :func:`reference_loop`."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        reference_loop()
        times.append(perf_counter() - start)
    return median(times)


class SpeedProbe:
    """Times the reference loop between calls, and scales the calls by it."""

    def __init__(self):
        #: seconds of each probe, in order
        self.probes: List[float] = []
        self._due = 0.0

    def mark(self) -> int:
        """Probe if one is due; the index of the latest probe.

        Called just before a timed call starts, so a probe never falls
        inside one.
        """
        if perf_counter() >= self._due:
            self.probes.append(probe())
            self._due = perf_counter() + PROBE_INTERVAL_S
        return len(self.probes) - 1

    def factor(self, mark: int) -> float:
        """``REFERENCE_S`` over the median probe within ``WINDOW`` of *mark*."""
        return REFERENCE_S / median(self.probes[max(0, mark - WINDOW) : mark + WINDOW + 1])
