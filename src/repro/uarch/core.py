"""Cycle-level model of the TRIPS processor.

The model executes the *correct* path (functional execution and timing are
computed in the same pass) and charges time for everything the prototype's
distributed microarchitecture does:

* block fetch through the banked I-cache (compressed chunks) and dispatch
  at 16 instructions/cycle into ET reservation stations;
* dataflow wake-up: an instruction issues on its ET (one per cycle per
  tile) once its operands and predicate arrive; results travel the 5x5
  operand network with per-link contention;
* register reads/writes through four single-ported register banks, loads
  and stores through four single-ported data-tile cache banks backed by
  the NUCA L2 and DDR DRAM;
* sequential memory semantics via per-block load/store IDs: stores fire
  into the DT write buffers and commit in ID order; loads hold until
  earlier store addresses resolve, forward from the buffer, and charge a
  dependence-predictor training flush the first time a static load
  consumes in-flight store data;
* next-block prediction (exit + target); a misprediction stalls fetch
  until the exit resolves, then pays the flush penalty;
* an eight-block in-flight window with in-order commit.

Mispredicted-path work is modeled as fetch-pipeline dead time rather than
simulated instruction-by-instruction — standard trace-driven practice that
preserves the cycle counts the paper's Figures 6/9/11/12 and Table 3 rest
on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.ir.interp import Memory
from repro.robust.errors import SimulationBudgetExceeded

from repro.isa.block import TripsBlock, TripsProgram
from repro.isa.instructions import EXIT_OPS, TInst, TOp
from repro.trips.codegen import LoweredProgram

from repro.uarch import components
from repro.uarch.config import TripsConfig
from repro.uarch.kernels import BatchedKernel
from repro.uarch.opn import OperandNetwork
from repro.uarch.resources import SkipAheadPool


@dataclass
class CycleStats:
    """Everything the evaluation section reads off the hardware counters."""

    cycles: int = 0
    blocks_committed: int = 0
    fetched: int = 0
    executed: int = 0
    useful: int = 0
    moves: int = 0
    executed_not_used: int = 0
    fetched_not_executed: int = 0
    loads: int = 0
    stores: int = 0
    # Control events (Table 3).
    branch_mispredictions: int = 0
    call_ret_mispredictions: int = 0
    icache_misses: int = 0
    load_flushes: int = 0
    # Section 7 extension: predicate prediction outcomes.
    predicate_predictions: int = 0
    predicate_mispredictions: int = 0
    # Window occupancy integrals (Figure 6): sum over blocks of
    # residency x instruction count.
    window_inst_cycles: int = 0
    window_useful_cycles: int = 0
    # Memory traffic for the bandwidth study (Figure 8).
    l1d_bytes: int = 0

    @property
    def ipc(self) -> float:
        return self.executed / self.cycles if self.cycles else 0.0

    @property
    def useful_ipc(self) -> float:
        return self.useful / self.cycles if self.cycles else 0.0

    @property
    def fetched_ipc(self) -> float:
        return self.fetched / self.cycles if self.cycles else 0.0

    @property
    def avg_instructions_in_window(self) -> float:
        return self.window_inst_cycles / self.cycles if self.cycles else 0.0

    @property
    def avg_useful_in_window(self) -> float:
        return self.window_useful_cycles / self.cycles if self.cycles else 0.0

    def per_kilo_useful(self, value: int) -> float:
        return 1000.0 * value / self.useful if self.useful else 0.0


class CycleSimulator:
    """Runs a lowered TRIPS program and reports cycle-accurate statistics."""

    def __init__(self, lowered: LoweredProgram,
                 config: Optional[TripsConfig] = None,
                 memory_size: int = 16 * 1024 * 1024,
                 max_blocks: int = 2_000_000,
                 tracer=None,
                 max_cycles: Optional[int] = None,
                 max_wall_seconds: Optional[float] = None) -> None:
        self.lowered = lowered
        self.program: TripsProgram = lowered.program
        self.config = (config or TripsConfig()).validate()
        self.memory = Memory(memory_size)
        #: Optional :class:`repro.trace.Tracer`.  Every emission site is
        #: guarded with ``is not None`` and no timing decision reads the
        #: tracer, so cycle counts are identical traced or not and the
        #: disabled path costs one pointer test per site.
        self.tracer = tracer
        # Pluggable components (repro.uarch.components registries),
        # selected by the config's opn_topology / memory_kind /
        # predictor_kind fields.  The defaults reconstruct the
        # prototype exactly.
        self.topology = components.create_topology(self.config)
        self.hierarchy = components.create_memory(self.config, tracer=tracer)
        self.opn = OperandNetwork(self.config.opn_hop_cycles, tracer=tracer,
                                  topology=self.topology)
        self.predictor = components.create_predictor(self.config,
                                                     tracer=tracer)
        self.stats = CycleStats()
        # Watchdog budgets: the block budget matches the historical
        # runaway guard; cycle and wall-clock budgets are opt-in.  All
        # three raise a diagnosable SimulationBudgetExceeded (block
        # label, committed count, cycle, window state) — never a bare
        # message.  Only the wall-clock check reads a real clock, and it
        # can only abort, never change a timing decision, so cycle
        # counts stay deterministic.
        self.max_blocks = max_blocks
        self.max_cycles = max_cycles
        self.max_wall_seconds = max_wall_seconds
        self._wall_start: Optional[float] = None

        self.regs: List[object] = [0] * 128
        self.reg_ready: List[int] = [0] * 128
        self.rt_read_ports = SkipAheadPool()
        self.rt_write_ports = SkipAheadPool()
        self.et_issue = SkipAheadPool()
        self.lwt: Set[int] = set()   # load-wait table (by static load id)
        # Predicate predictor (Section 7 extension): static predicate arc
        # -> [last value, 2-bit confidence].
        self._pred_table: Dict[Tuple[str, int], List[int]] = {}
        # label -> {id(exit inst): exit number} (see _exit_number).
        self._exit_numbers: Dict[str, Dict[int, int]] = {}

        self._commit_times: List[int] = []      # ring of recent commits
        self._prev_commit = 0
        for address, payload in self.program.globals_image:
            self.memory.write_bytes(address, payload)
        # Built last: the kernel binds the simulator's resources and
        # precomputes its tables from the fully wired simulator.
        self.kernel = BatchedKernel(self)

    # -- program loop ------------------------------------------------------------

    def run(self, entry: str = "main", args: Optional[List[object]] = None):
        """Execute to completion; returns the program result."""
        self.regs[1] = self.memory.size - 64
        for i, arg in enumerate(args or []):
            self.regs[3 + i] = arg

        func_name = entry
        label = self.program.function(entry).entry
        call_stack: List[Tuple[str, str]] = []
        fetch_ready = 0          # when the GT may begin the next fetch
        predicted_next: Optional[str] = None
        self._wall_start = time.monotonic() \
            if self.max_wall_seconds is not None else None

        while True:
            self._check_budgets(label)
            block = self.program.function(func_name).blocks[label]
            placement = self.lowered.placement(label)

            # Window capacity: at most 8 blocks in flight.
            window = self.config.max_blocks_in_flight
            if len(self._commit_times) >= window:
                fetch_ready = max(fetch_ready,
                                  self._commit_times[-window])

            fetch_start = fetch_ready
            fetch_done, icache_miss = self._fetch(block, fetch_start)
            if icache_miss:
                self.stats.icache_misses += 1
            tracer = self.tracer
            if tracer is not None:
                tracer.emit("block_fetch", fetch_done, label=label,
                            start=fetch_start, chunks=self._chunks(block),
                            miss=icache_miss)

            exit_inst, exit_time, done_time = self.kernel.execute_block(
                self, block, placement, fetch_done)

            # The distributed commit protocol is pipelined: a block's
            # commit completes commit_protocol_cycles after it finishes,
            # and commits retire in order at up to one block per cycle.
            commit = max(done_time + self.config.commit_protocol_cycles,
                         self._prev_commit + 1)
            self._prev_commit = commit
            self._commit_times.append(commit)
            if len(self._commit_times) > window:
                self._commit_times.pop(0)
            if tracer is not None:
                tracer.emit(
                    "block_commit", commit, label=label,
                    dispatch=fetch_done + self.config.fetch_to_dispatch_cycles,
                    done=done_time, size=len(block.instructions),
                    useful=self._last_useful)

            # Resolve control flow and the prediction made at fetch.
            kind = {TOp.BRO: "br", TOp.CALLO: "call", TOp.RET: "ret"}[
                exit_inst.op]
            if exit_inst.op is TOp.BRO:
                next_func, next_label = func_name, exit_inst.label
            elif exit_inst.op is TOp.CALLO:
                call_stack.append((func_name, exit_inst.cont))
                next_func = exit_inst.label
                next_label = self.program.function(next_func).entry
            else:
                if not call_stack:
                    self.stats.cycles = commit
                    return self.regs[3]
                next_func, next_label = call_stack.pop()

            exit_index = self._exit_number(block, exit_inst)
            correct = self.predictor.predict_and_update(
                label, exit_index, kind, next_label,
                continuation=exit_inst.cont, now=exit_time)
            if correct:
                # Pipelined fetch: the ITs can begin streaming the next
                # block once the current block's chunks have been
                # delivered (16 instructions per cycle).
                dispatch_cycles = max(
                    1, -(-len(block.instructions)
                         // self.config.dispatch_bandwidth))
                fetch_ready = max(fetch_done, fetch_start + dispatch_cycles)
            else:
                if kind == "br":
                    self.stats.branch_mispredictions += 1
                else:
                    self.stats.call_ret_mispredictions += 1
                if tracer is not None:
                    tracer.emit("flush", exit_time, label=label, kind=kind,
                                penalty=self.config.mispredict_flush_cycles)
                fetch_ready = exit_time + self.config.mispredict_flush_cycles

            func_name, label = next_func, next_label

    # -- watchdog ----------------------------------------------------------

    def _check_budgets(self, label: str) -> None:
        """Abort with full microarchitectural context when a budget is
        exhausted; ``label`` is the block about to be fetched."""
        stats = self.stats
        if stats.blocks_committed >= self.max_blocks:
            raise SimulationBudgetExceeded(
                kind="block", budget=self.max_blocks, label=label,
                blocks_committed=stats.blocks_committed,
                cycle=self._prev_commit, window=tuple(self._commit_times))
        if self.max_cycles is not None \
                and self._prev_commit >= self.max_cycles:
            raise SimulationBudgetExceeded(
                kind="cycle", budget=self.max_cycles, label=label,
                blocks_committed=stats.blocks_committed,
                cycle=self._prev_commit, window=tuple(self._commit_times))
        if self._wall_start is not None \
                and stats.blocks_committed % 64 == 0:
            elapsed = time.monotonic() - self._wall_start
            if elapsed > self.max_wall_seconds:
                raise SimulationBudgetExceeded(
                    kind="wall-clock", budget=self.max_wall_seconds,
                    label=label, blocks_committed=stats.blocks_committed,
                    cycle=self._prev_commit,
                    window=tuple(self._commit_times), elapsed=elapsed)

    def _predicate_arrival(self, label: str, index: int, actual: int,
                           arrive: int, dispatched: int) -> int:
        """Effective predicate arrival time under predicate prediction.

        With the Section 7 extension enabled, a high-confidence predicate
        arc is predicted at dispatch: a correct prediction makes the
        predicate available immediately; a wrong one costs a re-execution
        penalty on top of the real arrival.  Without the feature, the
        predicate arrives when the test's operand does (the prototype).
        """
        if not self.config.predicate_prediction:
            return arrive
        entry = self._pred_table.setdefault((label, index), [actual, 0])
        predicted_value, confidence = entry
        confident = confidence >= 2
        self.stats.predicate_predictions += 1
        if confident and predicted_value == actual:
            effective = min(arrive, dispatched)
        elif confident:
            self.stats.predicate_mispredictions += 1
            effective = arrive + self.config.predicate_mispredict_cycles
        else:
            effective = arrive
        if predicted_value == actual:
            entry[1] = min(confidence + 1, 3)
        else:
            entry[1] = max(confidence - 2, 0)
            entry[0] = actual
        return effective

    def _exit_number(self, block: TripsBlock, exit_inst: TInst) -> int:
        # Memoized per label: block bodies are static for the life of a
        # run, and ``block.exits`` rebuilds its list on every access.
        numbers = self._exit_numbers.get(block.label)
        if numbers is None:
            numbers = self._exit_numbers[block.label] = {
                id(candidate): number
                for number, candidate in enumerate(block.exits)}
        return numbers.get(id(exit_inst), 0)

    # -- fetch -------------------------------------------------------------------

    def _chunks(self, block: TripsBlock) -> int:
        n = len(block.instructions)
        if self.config.variable_size_blocks:
            # Section 7 proposal: variable-sized blocks with a 32-byte
            # header — no NOP padding in the I-cache.
            return max(1, -(-(32 + 4 * n) // 128))
        return max(1, -(-n // 32)) + 1  # 32-inst quanta + header

    def _fetch(self, block: TripsBlock, start: int) -> Tuple[int, bool]:
        done, missed = self.hierarchy.l1i.fetch_block(
            block.label, self._chunks(block), start)
        return done, missed

    # -- block accounting ------------------------------------------------------

    _last_useful = 0

    def _account(self, block, fired, used_feed, write_producers, n) -> None:
        stats = self.stats
        used = [False] * n
        worklist: List[int] = []
        for index in range(n):
            if not fired[index]:
                continue
            op = block.instructions[index].op
            if op is TOp.STORE or op is TOp.NULL or op in EXIT_OPS:
                used[index] = True
                worklist.append(index)
        for producer in write_producers.values():
            if not used[producer]:
                used[producer] = True
                worklist.append(producer)
        while worklist:
            index = worklist.pop()
            for producer in used_feed[index]:
                if not used[producer]:
                    used[producer] = True
                    worklist.append(producer)
        useful = 0
        for index in range(n):
            if not fired[index]:
                stats.fetched_not_executed += 1
            elif block.instructions[index].op is TOp.MOV:
                pass
            elif not used[index]:
                stats.executed_not_used += 1
            else:
                useful += 1
        stats.useful += useful
        self._last_useful = useful

    @staticmethod
    def _class_of(src_coord, dst_kind: str) -> str:
        x, y = src_coord
        src_kind = "ET"
        if x == 0:
            src_kind = "GT" if y == 0 else "DT"
        elif y == 0:
            src_kind = "RT"
        dst = dst_kind.upper()
        if src_kind == "ET" or dst == "ET":
            pair = sorted([src_kind, dst], key=lambda k: k != "ET")
            return f"{pair[0]}-{pair[1]}"
        return f"{src_kind}-{dst}"


def run_cycles(lowered: LoweredProgram, entry: str = "main",
               args: Optional[List[object]] = None,
               config: Optional[TripsConfig] = None,
               memory_size: int = 16 * 1024 * 1024,
               tracer=None, max_blocks: int = 2_000_000,
               max_cycles: Optional[int] = None,
               max_wall_seconds: Optional[float] = None):
    """One-shot convenience: returns (result, simulator).

    ``tracer`` (a :class:`repro.trace.Tracer`) enables per-cycle event
    tracing; timing is identical with or without it.  ``max_blocks`` /
    ``max_cycles`` / ``max_wall_seconds`` are watchdog budgets — a
    runaway simulation raises
    :class:`~repro.robust.SimulationBudgetExceeded` with the current
    block label, committed block count, cycle, and window state.
    """
    simulator = CycleSimulator(lowered, config, memory_size,
                               max_blocks=max_blocks, tracer=tracer,
                               max_cycles=max_cycles,
                               max_wall_seconds=max_wall_seconds)
    result = simulator.run(entry, args)
    return result, simulator
