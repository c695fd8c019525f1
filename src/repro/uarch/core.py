"""Cycle-level model of the TRIPS processor.

The model times the *correct* path of one recorded functional run (an
:class:`~repro.trips.functional.OutcomeStream`: which instructions fired
in each block activation, and the address of every load and store) and
charges time for everything the prototype's distributed
microarchitecture does:

* block fetch through the banked I-cache (compressed chunks) and dispatch
  at 16 instructions/cycle into ET reservation stations;
* dataflow wake-up: an instruction issues on its ET (one per cycle per
  tile in the prototype, ``et_issue_width`` in general) once its
  operands and predicate arrive; results travel the 5x5 operand network
  with per-link contention;
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

The timing pass computes no values: the recording carries the data
dependences, and the block kernel (:mod:`repro.uarch.kernels`) replays
one compiled plan per recorded key.  Mispredicted-path work is modeled
as fetch-pipeline dead time rather than simulated
instruction-by-instruction — standard trace-driven practice that
preserves the cycle counts the paper's Figures 6/9/11/12 and Table 3
rest on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.ir.interp import TrapError
from repro.robust.errors import SimulationBudgetExceeded

from repro.isa.block import TripsBlock, TripsProgram
from repro.trips.codegen import LoweredProgram
from repro.trips.functional import EXIT_KINDS, OutcomeStream, TripsSimulator

from repro.uarch.caches import MEMORIES
from repro.uarch.config import TripsConfig
from repro.uarch.kernels import FoldKernel, Plan
from repro.uarch.opn import OperandNetwork
from repro.uarch.predictor import PREDICTORS
from repro.uarch.resources import SkipAheadPool
from repro.uarch.topologies import TOPOLOGIES


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
    """Times a lowered TRIPS program and reports cycle-accurate
    statistics: :meth:`run` records the program once on the functional
    simulator, then folds the timing model over that recording;
    :meth:`fold` times a recording made elsewhere."""

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
        self.memory_size = memory_size
        #: Optional :class:`repro.trace.Tracer`.  Every emission site is
        #: guarded with ``is not None`` and no timing decision reads the
        #: tracer, so cycle counts are identical traced or not and the
        #: disabled path costs one pointer test per site.
        self.tracer = tracer
        # Components, named by the config's opn_topology / memory_kind /
        # predictor_kind fields in their tables; the defaults are the
        # prototype.  The execution array is the one the program was
        # placed on.
        config = self.config
        self.topology = TOPOLOGIES[config.opn_topology](lowered.grid)
        self.hierarchy = MEMORIES[config.memory_kind](config, tracer=tracer)
        self.opn = OperandNetwork(config.opn_hop_cycles, tracer=tracer,
                                  topology=self.topology)
        self.predictor = PREDICTORS[config.predictor_kind](config,
                                                           tracer=tracer)
        self.stats = CycleStats()
        # Watchdog budgets: the block budget matches the historical
        # runaway guard; cycle and wall-clock budgets are opt-in.  All
        # three raise a diagnosable SimulationBudgetExceeded (block
        # label, committed count, cycle, window state) — never a bare
        # message.  The recording honours the block and wall-clock
        # budgets itself, so a runaway program stops there.  Only the
        # wall-clock check reads a real clock, and it can only abort,
        # never change a timing decision, so cycle counts stay
        # deterministic.
        self.max_blocks = max_blocks
        self.max_cycles = max_cycles
        self.max_wall_seconds = max_wall_seconds
        self._wall_start: Optional[float] = None

        self.reg_ready: List[int] = [0] * 128
        self.rt_read_ports = SkipAheadPool()
        self.rt_write_ports = SkipAheadPool()
        self.et_issue = SkipAheadPool()
        self.lwt: Set[int] = set()   # load-wait table (by static load id)
        # Predicate predictor (Section 7 extension): static predicate arc
        # -> [last value, 2-bit confidence].
        self._pred_table: Dict[Tuple[str, int], List[int]] = {}

        self._commit_times: List[int] = []      # ring of recent commits
        self._prev_commit = 0
        # Built last: the kernel binds the simulator's resources and
        # precomputes its tables from the fully wired simulator.
        self.kernel = FoldKernel(self)

    # -- program loop ------------------------------------------------------------

    def run(self, entry: str = "main", args: Optional[List[object]] = None):
        """Record the program, time the recording; returns the program
        result."""
        self._start_clock()
        recorder = TripsSimulator(self.program, self.memory_size,
                                  max_blocks=self.max_blocks,
                                  max_wall_seconds=self.max_wall_seconds)
        stop = result = None
        try:
            result = recorder.run(entry, args)
        except SimulationBudgetExceeded as exhausted:
            # Time what was recorded; the fold then stops with this
            # model's cycle and window.
            stop = exhausted
        self._fold(recorder.outcomes, stop)
        return result

    def fold(self, outcomes: OutcomeStream):
        """Time a complete recording of this program; returns its
        result."""
        self._start_clock()
        self._fold(outcomes)
        return outcomes.result

    def _start_clock(self) -> None:
        self._wall_start = time.monotonic() \
            if self.max_wall_seconds is not None else None

    def _fold(self, outcomes: OutcomeStream,
              stop: Optional[SimulationBudgetExceeded] = None) -> None:
        """Time the recorded activations in order.  ``stop`` is the
        budget the recording ran out of: its label is the block that
        would have come next, and the fold raises it once the recorded
        blocks are timed."""
        keys = outcomes.keys
        activations = outcomes.activations
        addresses = outcomes.addresses
        plans: List[Optional[Plan]] = [None] * len(keys)
        config = self.config
        stats = self.stats
        tracer = self.tracer
        kernel = self.kernel
        predictor = self.predictor
        commit_times = self._commit_times
        window = config.max_blocks_in_flight
        fetch_ready = 0          # when the GT may begin the next fetch
        cursor = 0
        last = len(activations) - 1
        for position, key_id in enumerate(activations):
            key = keys[key_id]
            block = key.block
            label = block.label
            self._check_budgets(label)
            plan = plans[key_id]
            if plan is None:
                plan = plans[key_id] = kernel.plan(
                    self, key, self.lowered.placement(key.function, label))

            # Window capacity: at most 8 blocks in flight.
            if len(commit_times) >= window:
                fetch_ready = max(fetch_ready, commit_times[-window])

            fetch_start = fetch_ready
            fetch_done, icache_miss = self.hierarchy.l1i.fetch_block(
                label, plan.chunks, fetch_start)
            if icache_miss:
                stats.icache_misses += 1
            if tracer is not None:
                tracer.emit("block_fetch", fetch_done, label=label,
                            start=fetch_start, chunks=plan.chunks,
                            miss=icache_miss)

            exit_time, done_time = kernel.replay(
                self, plan, label, fetch_done, addresses, cursor)
            cursor += plan.memory_ops

            # The distributed commit protocol is pipelined: a block's
            # commit completes commit_protocol_cycles after it finishes,
            # and commits retire in order at up to one block per cycle.
            commit = max(done_time + config.commit_protocol_cycles,
                         self._prev_commit + 1)
            self._prev_commit = commit
            commit_times.append(commit)
            if len(commit_times) > window:
                commit_times.pop(0)
            if tracer is not None:
                tracer.emit(
                    "block_commit", commit, label=label,
                    dispatch=fetch_done + config.fetch_to_dispatch_cycles,
                    done=done_time, size=plan.fetched, useful=plan.useful)

            if position == last and stop is None:
                stats.cycles = commit      # the program's final return
                return
            # Resolve control flow and the prediction made at fetch: the
            # next recorded activation is where control went.
            next_label = stop.label if position == last \
                else keys[activations[position + 1]].block.label
            exit_inst = key.exit
            kind = EXIT_KINDS[exit_inst.op]
            correct = predictor.predict_and_update(
                label, key.exit_index, kind, next_label,
                continuation=exit_inst.cont, now=exit_time)
            if correct:
                # Pipelined fetch: the ITs can begin streaming the next
                # block once the current block's chunks have been
                # delivered (16 instructions per cycle).
                fetch_ready = max(fetch_done,
                                  fetch_start + plan.dispatch_cycles)
            else:
                if kind == "br":
                    stats.branch_mispredictions += 1
                else:
                    stats.call_ret_mispredictions += 1
                if tracer is not None:
                    tracer.emit("flush", exit_time, label=label, kind=kind,
                                penalty=config.mispredict_flush_cycles)
                fetch_ready = exit_time + config.mispredict_flush_cycles
        if stop is None:
            raise TrapError("the recording has no activations")
        raise SimulationBudgetExceeded(
            kind=stop.kind, budget=stop.budget, label=stop.label,
            blocks_committed=stats.blocks_committed,
            cycle=self._prev_commit, window=tuple(commit_times),
            elapsed=stop.elapsed)

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

    # -- fetch -------------------------------------------------------------------

    def _chunks(self, block: TripsBlock) -> int:
        n = len(block.instructions)
        if self.config.variable_size_blocks:
            # Section 7 proposal: variable-sized blocks with a 32-byte
            # header — no NOP padding in the I-cache.
            return max(1, -(-(32 + 4 * n) // 128))
        return max(1, -(-n // 32)) + 1  # 32-inst quanta + header

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
               max_wall_seconds: Optional[float] = None,
               outcomes: Optional[OutcomeStream] = None):
    """One-shot convenience: returns (result, simulator).

    ``tracer`` (a :class:`repro.trace.Tracer`) enables per-cycle event
    tracing; timing is identical with or without it.  ``max_blocks`` /
    ``max_cycles`` / ``max_wall_seconds`` are watchdog budgets — a
    runaway simulation raises
    :class:`~repro.robust.SimulationBudgetExceeded` with the current
    block label, committed block count, cycle, and window state.
    ``outcomes`` is a complete recording of ``lowered.program`` to time
    instead of recording a new one (``entry``, ``args`` and
    ``memory_size`` then went into that recording); the result is the
    recording's.
    """
    simulator = CycleSimulator(lowered, config, memory_size,
                               max_blocks=max_blocks, tracer=tracer,
                               max_cycles=max_cycles,
                               max_wall_seconds=max_wall_seconds)
    if outcomes is not None:
        return simulator.fold(outcomes), simulator
    result = simulator.run(entry, args)
    return result, simulator
