"""Host-speed probe: timings in reference-host seconds.

The benchmark's host is shared, and its speed swings by 40-70% in
phases that last from seconds to longer than a run.  Work measured in
one phase cannot be compared with work measured in another, and no
median inside a run undoes a phase that covers the whole run.

So the in-process workloads read time from a :class:`HostClock`, which
runs at the host's speed.  While it samples, a ``SIGALRM`` every
:data:`INTERVAL_S` runs :func:`probe`: a fixed pure-Python loop, half
integer arithmetic (what the simulators do) and half object allocation,
attribute access and small dicts (what the compiler and the store do).
It is owned by the benchmark, so no change to ``src/`` moves it.
Between two probes the clock advances by the wall time times the ratio
of :data:`REFERENCE_S` to the median of the last three probes, raised
to :data:`SENSITIVITY`: the time the work would have taken on a host
where the probe takes :data:`REFERENCE_S`.  A change that makes the
program faster shrinks the wall time and leaves the probe as it is; a
slow phase stretches both.  Probe time is in neither reading.

Standard library only, so the runner can use it before (and without)
importing ``repro``.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import statistics
import time
from typing import Callable, Iterator, List, Tuple

#: Probe time, in seconds, that scaled times are expressed against: the
#: probe's time on the reference host (2 vCPU Xeon at 2.1 GHz, Python
#: 3.11) in its fast phase.
REFERENCE_S = 0.0005
#: How the toolchain's time follows the probe's: in slow phases it grows
#: as about this power of the probe time (fitted over two sets of ten
#: runs: report-cold 0.8, sweep 0.8-0.85, report-warm 0.9-1.0).
SENSITIVITY = 0.85
#: Back-to-back repetitions per probe; the fastest counts, so one
#: interrupt or page fault does not become a phase.
REPEATS = 2
#: Rounds of one repetition (about 0.5 ms on that host).
ROUNDS = 400
#: Wall seconds between probes while the clock samples: about 2% of the
#: time goes to probing.
INTERVAL_S = 0.05
#: Probes whose median sets the clock's rate.
RECENT = 3


class _Node:
    __slots__ = ("op", "left", "right", "value")

    def __init__(self, op: int, left, right) -> None:
        self.op = op
        self.left = left
        self.right = right
        self.value = 0


def _kernel(rounds: int) -> int:
    nodes = [_Node(i % 5, None, None) for i in range(64)]
    total = 0
    for i in range(rounds):
        node = _Node(i % 5, nodes[i & 63], nodes[(i * 7) & 63])
        node.value = node.left.op + node.right.op
        nodes[i & 63] = node
        fields = {"op": node.op, "value": node.value}
        if fields["value"] > 3:
            nodes[(i * 3) & 63] = _Node(fields["op"], node, None)
        for j in range(8):
            total += (i * j + total) % 7
    return total


def probe() -> float:
    """Seconds the probe loop takes on the host right now."""
    collecting = gc.isenabled()
    gc.disable()  # a full collection of the workload's heap is not speed
    try:
        best = float("inf")
        for _ in range(REPEATS):
            started = time.perf_counter()
            _kernel(ROUNDS)
            best = min(best, time.perf_counter() - started)
    finally:
        if collecting:
            gc.enable()
    return best


def rate(probe_s: float) -> float:
    """Reference-host seconds per wall second at a probe time."""
    return (REFERENCE_S / probe_s) ** SENSITIVITY


def scale(before: float, after: float) -> float:
    """Factor from wall time to reference-host time for work that ran
    between probes reading ``before`` and ``after``."""
    return rate((before + after) / 2.0)


class HostClock:
    """Wall time and reference-host time, both net of probe time.

    :meth:`read` may run at any point of the program, the ``SIGALRM``
    handler (:meth:`tick`) between any two of its bytecodes: the state
    is one tuple, replaced whole.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        #: ``(wall at the last probe's end, wall seconds, reference
        #: seconds, rate)``: the readings at that instant and the rate
        #: the reference reading has advanced at since.
        self._state = (clock(), 0.0, 0.0, 1.0)
        self._recent: List[float] = []
        self._busy = False

    def read(self) -> Tuple[float, float]:
        """``(wall seconds, reference-host seconds)`` since creation."""
        now = self.clock()
        mark, wall, reference, speed = self._state
        piece = max(0.0, now - mark)  # a probe may have ended after now
        return wall + piece, reference + piece * speed

    def tick(self, *_signal) -> None:
        """Probe the host and set the rate from the last probes."""
        if self._busy:
            return
        self._busy = True
        try:
            started = self.clock()
            mark, wall, reference, speed = self._state
            piece = max(0.0, started - mark)
            self._recent = (self._recent + [probe()])[-RECENT:]
            self._state = (self.clock(), wall + piece,
                           reference + piece * speed,
                           rate(statistics.median(self._recent)))
        finally:
            self._busy = False

    @contextlib.contextmanager
    def sampling(self, interval: float = INTERVAL_S) -> Iterator[None]:
        """Probe every ``interval`` wall seconds (main thread only)."""
        previous = signal.signal(signal.SIGALRM, self.tick)
        # Restart interrupted system calls, in C libraries (sqlite) too.
        signal.siginterrupt(signal.SIGALRM, False)
        self._recent = []
        self.tick()
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

