"""Cycle-accurate single-server resource arbitration.

A :class:`SkipAheadResource` models a resource that can serve one
request per cycle (a register-file port, an ET issue slot, an OPN link,
a cache bank port, a DRAM channel).  ``claim(t)`` returns the first
cycle >= t at which the resource is free and marks it used.

A naive "busy-until" counter is wrong for out-of-order claim patterns: a
request at cycle 700 must not delay an unrelated request at cycle 450
that arrives later in simulation order.  The resource therefore tracks
every claimed cycle, with periodic pruning of the distant past to bound
memory (requests are never issued for cycles far behind the maximum
seen, so pruning below a trailing horizon is safe in practice).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List

#: Prune when the claimed population exceeds this size...
_PRUNE_LIMIT = 8192
#: ...removing everything more than this many cycles behind the max.
_HORIZON = 4096


class SkipAheadResource:
    """One-request-per-cycle resource with out-of-order claims.

    The claimed cycles are stored as sorted disjoint maximal runs
    ``[start, end)``.  A claim landing inside a busy run advances to the
    run's end in **one bisect** instead of walking it cycle by cycle;
    this is the skip-ahead that contended resources (OPN links under
    operand bursts, DRAM channel occupancy) benefit from.

    Pruning is part of the timing contract, because it is the only way
    history can influence a later claim's result: ``count`` tracks the
    claimed-cycle population, pruning triggers once it exceeds
    ``_PRUNE_LIMIT``, and everything more than ``_HORIZON`` cycles
    behind the latest claimed cycle then becomes the busy ``floor``.
    """

    __slots__ = ("starts", "ends", "floor", "count")

    def __init__(self) -> None:
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.floor = 0          # cycles below this are considered busy
        self.count = 0

    def claim(self, cycle: int) -> int:
        """Reserve the first free cycle >= ``cycle``; returns it."""
        floor = self.floor
        t = cycle if cycle > floor else floor
        starts = self.starts
        ends = self.ends
        # Frontier fast path: claims overwhelmingly land at or beyond
        # the newest run, where extending or appending is O(1) — no
        # bisect, no mid-list insertion.
        if not starts:
            starts.append(t)
            ends.append(t + 1)
        elif t >= ends[-1]:
            if t == ends[-1]:
                ends[-1] = t + 1
            else:
                starts.append(t)
                ends.append(t + 1)
        elif t >= starts[-1]:
            # Inside the newest (busy) run: skip to its end in one jump.
            t = ends[-1]
            ends[-1] = t + 1
        else:
            i = bisect_right(starts, t) - 1
            if i >= 0 and t < ends[i]:
                # Busy run: skip to its end in one jump and extend it.
                t = ends[i]
                nxt = i + 1
                if starts[nxt] == t + 1:
                    ends[i] = ends[nxt]
                    del starts[nxt], ends[nxt]
                else:
                    ends[i] = t + 1
            else:
                nxt = i + 1
                prev_touch = i >= 0 and ends[i] == t
                next_touch = starts[nxt] == t + 1
                if prev_touch and next_touch:
                    ends[i] = ends[nxt]
                    del starts[nxt], ends[nxt]
                elif prev_touch:
                    ends[i] = t + 1
                elif next_touch:
                    starts[nxt] = t
                else:
                    starts.insert(nxt, t)
                    ends.insert(nxt, t + 1)
        self.count += 1
        if self.count > _PRUNE_LIMIT:
            # The newest run ends one past the latest claimed cycle.
            horizon = ends[-1] - 1 - _HORIZON
            drop = bisect_right(self.ends, horizon)
            if drop:
                del self.starts[:drop], self.ends[:drop]
            if self.starts and self.starts[0] < horizon:
                self.starts[0] = horizon
            self.floor = max(self.floor, horizon)
            self.count = sum(end - start for start, end
                             in zip(self.starts, self.ends))
        return t


def claim_earliest(channels, cycle: int) -> int:
    """Claim the first free cycle at or after ``cycle`` on whichever of
    ``channels`` (equivalent resources: the channels of one
    multi-channel OPN link) has it first, ties to the lowest channel;
    returns that cycle.

    Each channel's first free cycle is looked up inline, without
    reserving it, and only the winner is claimed, so a hop over a
    multi-channel link costs one call.
    """
    best = None
    best_start = cycle
    for resource in channels:
        floor = resource.floor
        t = cycle if cycle > floor else floor
        ends = resource.ends
        if ends and t < ends[-1]:
            i = bisect_right(resource.starts, t) - 1
            if i >= 0 and t < ends[i]:
                t = ends[i]
        if t == cycle:
            # Nothing is earlier, and every earlier channel was later.
            return resource.claim(t)
        if best is None or t < best_start:
            best, best_start = resource, t
    return best.claim(best_start)


class SkipAheadPool:
    """A lazily populated family of :class:`SkipAheadResource` by key."""

    __slots__ = ("resources",)

    def __init__(self) -> None:
        self.resources = {}

    def claim(self, key, cycle: int) -> int:
        return self.resource(key).claim(cycle)

    def resource(self, key) -> SkipAheadResource:
        """Materialize and return the resource behind ``key``.

        Hot paths that claim the same key many times (the kernel's
        register ports and issue slots, the OPN's cached routes) hold
        the resource object directly and skip the per-claim dictionary
        lookup.
        """
        resource = self.resources.get(key)
        if resource is None:
            resource = self.resources[key] = SkipAheadResource()
        return resource
