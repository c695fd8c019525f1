"""Idealized EDGE machine for the ILP limit study (Figure 10).

The paper's ideal machine has perfect next-block prediction, perfect
predication, perfect caches, infinite execution resources, and zero-cycle
inter-tile delays; only two costs remain:

* a per-block dispatch/fetch cost (8 cycles in the TRIPS-like
  configuration, 0 in the upper-bound configuration), and
* a finite instruction window (1K like the prototype, or 128K).

Memory disambiguation is perfect: a load depends only on its address
operand and the *actual* latest store to the same location.

The machine computes no values: it times one recorded functional run
(an :class:`~repro.trips.functional.OutcomeStream`).  Each (block, fire
order) key compiles into a fixed plan of operand producers, which the
fold replays for every activation of the key to get each instruction's
dataflow-critical-path time, scheduling blocks under the dispatch and
window constraints.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.ir.interp import TrapError

from repro.isa.block import TripsProgram
from repro.isa.instructions import EXIT_OPS, TOp, TRIPS_LATENCY

from repro.trips.functional import (
    BlockOutcome, OutcomeStream, TripsSimulator,
)

#: The default point: a 1K-entry window and an 8-cycle block dispatch
#: (Figure 10's "1K/8").
DEFAULT_WINDOW = 1024
DEFAULT_DISPATCH_COST = 8

#: Load-use latency under perfect caching.
PERFECT_LOAD_CYCLES = 1

#: Step kinds of a compiled plan.
_COMPUTE, _LOAD, _STORE = range(3)


@dataclass
class IdealStats:
    cycles: int = 0
    executed: int = 0
    blocks: int = 0

    @property
    def ipc(self) -> float:
        return self.executed / self.cycles if self.cycles else 0.0


def _plan(key: BlockOutcome) -> Tuple:
    """The fixed timing schedule of one (block, fire order) key:
    ``(size, nodes, reads, steps, writes, completion)``.

    Times live in a flat list indexed by the key's nodes (reads, then
    instructions), plus one last node that is always 0 and pads every
    step to three sources.  ``steps`` holds one ``(node, kind, latency,
    src0, src1, src2)`` per fired instruction, in fire order.
    """
    block = key.block
    base = len(block.reads)
    zero = base + len(block.instructions)
    steps = []
    for index in key.order:
        op = block.instructions[index].op
        sources = key.operands[index]
        kind, latency = _COMPUTE, TRIPS_LATENCY.get(op, 1)
        if op is TOp.LOAD:
            kind = _LOAD
        elif op is TOp.STORE:
            kind = _STORE
        elif op is TOp.NULL or op in EXIT_OPS:
            latency = 0
        steps.append((base + index, kind, latency, *sources,
                      *(zero,) * (3 - len(sources))))
    writes = tuple((write.reg, node)
                   for write, node in zip(block.writes, key.writes))
    completion = (base + key.exit.index,) + key.writes + tuple(
        key.resolved[lsid] for lsid in sorted(block.store_lsids))
    return (len(block.instructions), zero + 1,
            tuple(enumerate(read.reg for read in block.reads)),
            tuple(steps), writes, completion)


def time_ideal(stream: OutcomeStream, window: int = DEFAULT_WINDOW,
               dispatch_cost: int = DEFAULT_DISPATCH_COST,
               max_blocks: int = 2_000_000) -> IdealStats:
    """Time a recorded execution on the ideal machine."""
    if len(stream.activations) > max_blocks:
        raise TrapError("ideal simulation exceeded block budget")
    plans = [_plan(key) for key in stream.keys]
    times = [[0] * plan[1] for plan in plans]
    addresses = stream.addresses
    cursor = 0
    reg_time = [0] * 128
    store_time: Dict[int, int] = {}   # 8-byte word -> availability
    in_flight: deque = deque()        # (completion time, size)
    in_flight_insts = 0
    start = 0
    cycles = 0
    for key_id in stream.activations:
        size, _nodes, reads, steps, writes, done_at = plans[key_id]
        # Window constraint: retire the oldest blocks until this one fits.
        while in_flight and in_flight_insts + size > window:
            completion, old_size = in_flight.popleft()
            in_flight_insts -= old_size
            if completion > start:
                start = completion
        t = times[key_id]
        for node, reg in reads:
            when = reg_time[reg]
            t[node] = when if when > start else start
        for node, kind, latency, a, b, c in steps:
            when = start
            if t[a] > when:
                when = t[a]
            if t[b] > when:
                when = t[b]
            if t[c] > when:
                when = t[c]
            if kind == _COMPUTE:
                t[node] = when + latency
                continue
            word = addresses[cursor] & -8
            cursor += 1
            if kind == _LOAD:
                # Perfect disambiguation: wait only for the true producer.
                stored = store_time.get(word, 0)
                if stored > when:
                    when = stored
                t[node] = when + PERFECT_LOAD_CYCLES
            else:
                t[node] = store_time[word] = when + 1
        completion = max([t[node] for node in done_at])
        for reg, node in writes:
            reg_time[reg] = t[node]
        in_flight.append((completion, size))
        in_flight_insts += size
        if completion > cycles:
            cycles = completion
        start += dispatch_cost
    return IdealStats(cycles=cycles, executed=stream.stats.executed,
                      blocks=len(stream.activations))


def check_ideal_params(window: object, dispatch_cost: object) -> None:
    """Raise :class:`~repro.uarch.config.ConfigError` unless ``window``
    is an int >= 1 and ``dispatch_cost`` an int >= 0."""
    from repro.uarch.config import ConfigError
    for name, value, minimum in (("window", window, 1),
                                 ("dispatch_cost", dispatch_cost, 0)):
        if not isinstance(value, int) or isinstance(value, bool) \
                or value < minimum:
            raise ConfigError(
                f"ideal {name} must be an int >= {minimum}, got {value!r}")


class IdealSimulator:
    """Dataflow-limit machine with a window and a dispatch cost: ``run``
    executes the program once and times it with :func:`time_ideal`."""

    def __init__(self, program: TripsProgram,
                 window: int = DEFAULT_WINDOW,
                 dispatch_cost: int = DEFAULT_DISPATCH_COST,
                 memory_size: int = 16 * 1024 * 1024,
                 max_blocks: int = 2_000_000) -> None:
        check_ideal_params(window, dispatch_cost)
        self.program = program
        self.window = window
        self.dispatch_cost = dispatch_cost
        self.memory_size = memory_size
        self.max_blocks = max_blocks
        self.stats = IdealStats()

    def run(self, entry: str = "main",
            args: Optional[List[object]] = None):
        simulator = TripsSimulator(self.program, self.memory_size)
        result = simulator.run(entry, args)
        self.stats = time_ideal(simulator.outcomes, self.window,
                                self.dispatch_cost, self.max_blocks)
        return result


def run_ideal(program: TripsProgram, entry: str = "main",
              args: Optional[List[object]] = None,
              window: int = DEFAULT_WINDOW,
              dispatch_cost: int = DEFAULT_DISPATCH_COST,
              memory_size: int = 16 * 1024 * 1024):
    """One-shot convenience: returns (result, simulator)."""
    simulator = IdealSimulator(program, window, dispatch_cost, memory_size)
    result = simulator.run(entry, args)
    return result, simulator
