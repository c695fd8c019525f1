"""Parameterized out-of-order superscalar timing model.

Folds over a recorded RISC run (``repro.risc.RiscTrace``) and produces a
cycle count, playing the role of the paper's commercial reference
platforms (Core 2, Pentium 4, Pentium III).  The model is a single-pass
scheduler with the first-order structures that differentiate those
machines:

* fetch bandwidth with branch-misprediction bubbles (tournament or gshare
  conditional predictor plus a return-address stack),
* a finite reorder buffer with in-order retirement,
* issue-width arbitration per cycle,
* operand-dependence wake-up via per-register ready times,
* a two-level cache hierarchy and DRAM latency scaled to each platform's
  processor/memory clock ratio (Table 1 of the paper).

Wrong-path execution is modeled as fetch dead time, as in the TRIPS
cycle model, keeping the cross-platform comparison consistent.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict

from repro.risc.isa import LATENCY, ROp
from repro.risc.simulator import RiscTrace

from repro.uarch.caches import DramModel, SetAssociativeCache
from repro.uarch.predictor import AlphaTournamentPredictor, GsharePredictor


@dataclass
class PlatformSpec:
    """Microarchitecture parameters of one reference platform."""

    name: str
    fetch_width: int
    issue_width: int
    rob_size: int
    predictor: str                 # "tournament" | "gshare"
    predictor_bits: int
    mispredict_penalty: int
    l1d_bytes: int
    l1d_assoc: int
    l1d_latency: int
    l2_bytes: int
    l2_assoc: int
    l2_latency: int
    dram_cycles: int
    clock_mhz: int
    fp_latency_scale: float = 1.0
    line_bytes: int = 64
    #: Memory operations (loads + stores) issued per cycle.
    mem_ports: int = 2
    #: Floating-point operations issued per cycle.
    fp_ports: int = 2


@dataclass
class SuperscalarStats:
    cycles: int = 0
    instructions: int = 0
    branches: int = 0
    branch_mispredictions: int = 0
    l1d_misses: int = 0
    l1d_accesses: int = 0
    icache_misses: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def mpki(self) -> float:
        return (1000.0 * self.branch_mispredictions / self.instructions
                if self.instructions else 0.0)


#: Operations on the FP ports; the first four also scale their latency.
_FP_SCALED = frozenset({ROp.FADD, ROp.FSUB, ROp.FMUL, ROp.FDIV})
_FP_OPS = _FP_SCALED | {ROp.FCMPEQ, ROp.FCMPLT, ROp.FCMPLE, ROp.I2F,
                        ROp.F2I}

#: Branch kinds: none, conditional, call, return, unconditional.
_NOT_BRANCH, _CONDITIONAL, _CALL, _RETURN, _JUMP = range(5)
_BRANCH_KIND = {ROp.BNZ: _CONDITIONAL, ROp.BZ: _CONDITIONAL,
                ROp.CALL: _CALL, ROp.RET: _RETURN, ROp.B: _JUMP}

#: Memory kinds: none, load, store.
_NO_MEMORY, _LOAD, _STORE = range(3)
_MEMORY_KIND = {"load": _LOAD, "store": _STORE}


class SuperscalarModel:
    """Times a recorded RISC run on one platform: ``run(trace)`` folds
    over a :class:`~repro.risc.simulator.RiscTrace` and returns the
    :class:`SuperscalarStats`."""

    def __init__(self, spec: PlatformSpec) -> None:
        self.spec = spec
        self.stats = SuperscalarStats()
        if spec.predictor == "tournament":
            self.predictor = AlphaTournamentPredictor()
        else:
            self.predictor = GsharePredictor(spec.predictor_bits,
                                             spec.predictor_bits)
        self.l1d = SetAssociativeCache(spec.l1d_bytes, spec.line_bytes,
                                       spec.l1d_assoc)
        self.l1i = SetAssociativeCache(32 * 1024, spec.line_bytes, 4)
        self.l2 = SetAssociativeCache(spec.l2_bytes, spec.line_bytes,
                                      spec.l2_assoc)
        self.dram = DramModel(spec.dram_cycles, 4)

    def _memory_latency(self, address: int, now: int) -> int:
        self.stats.l1d_accesses += 1
        if self.l1d.access(address):
            return self.spec.l1d_latency
        self.stats.l1d_misses += 1
        if self.l2.access(address):
            return self.spec.l1d_latency + self.spec.l2_latency
        done = self.dram.access(address, now)
        return (done - now) + self.spec.l2_latency

    def run(self, trace: RiscTrace) -> SuperscalarStats:
        spec = self.spec
        stats = self.stats
        icache = self.l1i.access
        predictor = self.predictor
        memory_latency = self._memory_latency
        ras: deque = deque(maxlen=16)
        reg_ready = [0] * 64
        # Issue counters per cycle: all ports, memory ports, FP ports.
        issued: Dict[int, int] = {}
        mem_issued: Dict[int, int] = {}
        fp_issued: Dict[int, int] = {}
        width = spec.issue_width
        line_bytes = self.l1i.line_bytes
        # Per global pc: (branch kind, memory kind, sources, dest,
        # latency, port group counters or None, the group's ports,
        # I-cache line).
        table = []
        for pc, (op, category, sources, dest) in enumerate(trace.static):
            latency = LATENCY.get(op, 1)
            if op in _FP_SCALED:
                latency = max(1, int(latency * spec.fp_latency_scale))
            memory = _MEMORY_KIND.get(category, _NO_MEMORY)
            group, ports = (mem_issued, spec.mem_ports) if memory else \
                (fp_issued, spec.fp_ports) if op in _FP_OPS else (None, 0)
            table.append((_BRANCH_KIND.get(op, _NOT_BRANCH), memory,
                          sources, dest, latency, group, ports,
                          pc * 4 // line_bytes))
        # Retire times of the last rob_size instructions; the zeros of
        # an empty ROB never hold dispatch back.
        rob = deque([0] * spec.rob_size, maxlen=spec.rob_size)
        fetch_step = 1.0 / spec.fetch_width
        fetch_time = 0.0
        prev_retire = cycles = 0
        fetched_line = -1
        # Keys held by the three issue counters together.
        counted_cycles = 0

        for pc, address, taken in zip(trace.pcs, trace.addresses,
                                      trace.taken):
            (branch, memory, sources, dest, latency, group, ports,
             line) = table[pc]

            # Fetch: instruction cache + fetch bandwidth.  Fetching from
            # the line fetched last is a hit that leaves the LRU order as
            # it is, so only a move to another line probes the cache.
            if line != fetched_line:
                fetched_line = line
                if not icache(pc * 4):
                    stats.icache_misses += 1
                    fetch_time += spec.l2_latency
            fetch = fetch_time
            fetch_time += fetch_step

            # ROB occupancy: dispatch waits for the entry rob_size back
            # to have retired.
            ready = int(fetch)
            if rob[0] > ready:
                ready = rob[0]
            for reg in sources:
                if reg_ready[reg] > ready:
                    ready = reg_ready[reg]

            # Issue: the first cycle with a free port, both in the issue
            # width and in the operation's port group — the structural
            # hazards that cap real machines on kernel loops.
            issue = ready
            while issued.get(issue, 0) >= width or (
                    group is not None and group.get(issue, 0) >= ports):
                issue += 1
            count = issued.get(issue, 0)
            if not count:
                counted_cycles += 1
            issued[issue] = count + 1
            if group is not None:
                count = group.get(issue, 0)
                if not count:
                    counted_cycles += 1
                group[issue] = count + 1
            if counted_cycles > 32768:
                # Forget counters far behind the newest issue cycle.
                horizon = max(issued) - 8192
                for counts in (issued, mem_issued, fp_issued):
                    for cycle in [c for c in counts if c < horizon]:
                        del counts[cycle]
                counted_cycles = len(issued) + len(mem_issued) \
                    + len(fp_issued)

            done = issue + latency
            if memory == _LOAD:
                done = issue + memory_latency(address, issue)
            elif memory == _STORE:
                # Stores retire through the store buffer; charge the
                # cache access for bandwidth accounting but not the
                # dependence path.
                memory_latency(address, issue)
                done = issue + 1

            # Branch resolution.
            if branch:
                stats.branches += 1
                mispredicted = False
                if branch == _CONDITIONAL:
                    predicted = predictor.predict(pc)
                    predictor.update(pc, taken)
                    mispredicted = predicted != taken
                elif branch == _CALL:
                    ras.append(pc + 1)
                elif branch == _RETURN:
                    # Return target prediction: almost always right with
                    # a RAS; a cold/overflowed RAS mispredicts.
                    mispredicted = not ras
                    if ras:
                        ras.pop()
                if mispredicted:
                    stats.branch_mispredictions += 1
                    fetch_time = max(fetch_time,
                                     done + spec.mispredict_penalty)
                elif taken:
                    # Taken branches redirect fetch: at most one taken
                    # branch per fetch cycle.
                    fetch_time = float(int(fetch_time) + 1)

            if dest >= 0:
                reg_ready[dest] = done

            if done > prev_retire:
                prev_retire = done
            rob.append(prev_retire)
            if prev_retire > cycles:
                cycles = prev_retire

        stats.instructions += len(trace)
        stats.cycles = max(stats.cycles, cycles)
        return stats
