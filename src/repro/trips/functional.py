"""Functional (architecture-level) simulator for TRIPS programs.

Executes one block at a time with true dataflow semantics:

* read instructions inject register values;
* an instruction fires when its data operands have all arrived and, if
  predicated, its predicate operand arrived with the matching polarity;
* memory operations respect load/store-ID order (a memory op waits until
  every lower-ID *store* is resolved — fired, nullified, or mispredicated);
* the block completes when one exit has fired, every register-write
  channel has a value, and every store ID is resolved; writes and the
  exit then commit atomically.

The simulator doubles as the measurement instrument for the paper's ISA
evaluation (Section 4): per-block fetched/executed/useful/move counts,
the executed-but-unused closure, and storage-access counts.

Every run is also recorded as an :class:`OutcomeStream`: per block
activation, which instructions fired in which order, and the address of
every load and store.  The dynamic block trace (for the predictor study)
and the ideal machine's timing derive from that stream instead of
executing the program again.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Set, Tuple

from repro.ir.interp import Memory, TrapError, int_div, int_rem
from repro.ir.types import to_unsigned64, wrap64
from repro.robust.errors import SimulationBudgetExceeded

from repro.isa.asm import is_write_target, write_slot_of
from repro.isa.block import TripsBlock, TripsProgram
from repro.isa.instructions import (
    EXIT_OPS, Slot, TEST_OPS, TInst, TOp, operand_count,
)

#: Unique sentinel carried by NULL tokens through the dataflow.
NULL_TOKEN = object()

#: Infinite-loop guard (in fired instructions).
DEFAULT_FUEL = 400_000_000


@dataclass
class TripsStats:
    """Aggregate ISA statistics over one program run (Section 4)."""

    blocks_committed: int = 0
    fetched: int = 0                 # compute instructions in fetched blocks
    executed: int = 0                # instructions that fired
    useful: int = 0                  # fired, used, and not a move/null
    moves_executed: int = 0
    executed_not_used: int = 0
    fetched_not_executed: int = 0
    loads_executed: int = 0
    stores_committed: int = 0
    nulls_executed: int = 0
    tests_executed: int = 0
    reads_fetched: int = 0
    writes_committed: int = 0
    operands_delivered: int = 0      # producer->consumer operand messages
    register_reads: int = 0          # architectural register file reads
    register_writes: int = 0
    fetched_blocks: Set[str] = field(default_factory=set)
    per_block_fetch_count: Dict[str, int] = field(default_factory=dict)
    composition: Dict[str, int] = field(default_factory=dict)

    def add_composition(self, category: str, count: int = 1) -> None:
        self.composition[category] = self.composition.get(category, 0) + count

    def add(self, other: "TripsStats") -> None:
        """Accumulate ``other``'s counts into these."""
        for name in _COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.fetched_blocks |= other.fetched_blocks
        for label, count in other.per_block_fetch_count.items():
            self.per_block_fetch_count[label] = \
                self.per_block_fetch_count.get(label, 0) + count
        for category, count in other.composition.items():
            self.add_composition(category, count)


#: The integer fields of :class:`TripsStats`.
_COUNTERS = tuple(f.name for f in fields(TripsStats) if f.type == "int")


class BlockOutcome:
    """One (block, fire order, predicate bits) key of an execution.

    ``order`` lists the instructions that fired, in firing order, and
    ``bits`` holds each instruction's first-arrived predicate bit (0, 1,
    or ``None`` when no predicate reached it).  With the block's static
    dataflow the order fixes which producer fed every operand, so what
    depends only on that — the ISA statistics an activation adds
    (``tally``), the ideal machine's timing, the cycle model's timing
    plan — is worked out once per key.  Producers are *nodes*: read
    ``r`` is node ``r``, instruction ``i`` node ``len(block.reads) +
    i``.  ``operands[i]`` holds the nodes that fed fired instruction
    ``i``, ``writes`` the node each write slot commits, and
    ``resolved`` the node that resolved each store LSID.  ``function``
    names the function the block belongs to: labels repeat across
    functions (every function starts at ``entry``).
    """

    __slots__ = ("block", "function", "order", "bits", "serial", "exit",
                 "exit_index", "operands", "writes", "resolved", "tally")

    def __init__(self, block: TripsBlock, function: str,
                 order: Tuple[int, ...], bits: Tuple[Optional[int], ...],
                 serial: int) -> None:
        insts = block.instructions
        base = len(block.reads)
        fires = set(order)
        data: List[Dict[Slot, int]] = [{} for _ in insts]
        pred: List[Optional[int]] = [None] * len(insts)
        writes: Dict[int, int] = {}
        resolved: Dict[int, int] = {}
        closed = set()                  # fired or mispredicated
        ops = [insts[index].op for index in order]
        tally = TripsStats(blocks_committed=1, fetched=len(insts),
                           executed=len(order),
                           loads_executed=ops.count(TOp.LOAD),
                           stores_committed=ops.count(TOp.STORE),
                           nulls_executed=ops.count(TOp.NULL),
                           moves_executed=ops.count(TOp.MOV),
                           tests_executed=sum(op in TEST_OPS for op in ops),
                           reads_fetched=len(block.reads),
                           register_reads=len(block.reads),
                           writes_committed=len(block.writes),
                           register_writes=len(block.writes),
                           fetched_blocks={block.label},
                           per_block_fetch_count={block.label: 1})

        def arrive(node: int, targets) -> None:
            # The delivery rules: a slot keeps its first arrival, a write
            # slot its last; a fired instruction takes no more operands.
            tally.operands_delivered += len(targets)
            for target in targets:
                if is_write_target(target):
                    writes[write_slot_of(target)] = node
                    continue
                index = target.inst
                if index in closed:
                    continue
                if target.slot is Slot.PRED:
                    if pred[index] is not None:
                        continue
                    pred[index] = node
                elif target.slot in data[index]:
                    continue
                else:
                    data[index][target.slot] = node
                inst = insts[index]
                if index not in fires and pred[index] is not None \
                        and len(data[index]) >= operand_count(inst.op):
                    # Everything arrived yet it never fired: its
                    # predicate did not match.  A store resolves then.
                    closed.add(index)
                    if inst.op is TOp.STORE:
                        resolved[inst.lsid] = pred[index]

        for node, read in enumerate(block.reads):
            arrive(node, read.targets)
        for index in order:
            inst = insts[index]
            op = inst.op
            closed.add(index)
            if op is TOp.STORE or (op is TOp.NULL and inst.lsid >= 0):
                resolved[inst.lsid] = base + index
            if op in EXIT_OPS:
                self.exit = inst
            elif op is not TOp.STORE:
                arrive(base + index, inst.targets)

        self.block = block
        self.function = function
        self.order = order
        self.bits = bits
        self.serial = serial
        self.exit_index = next((k for k, e in enumerate(block.exits)
                                if e is self.exit), 0)
        self.operands = {i: tuple(data[i].values()) + (
            (pred[i],) if pred[i] is not None else ()) for i in fires}
        self.writes = tuple(writes[slot] for slot in range(len(block.writes)))
        self.resolved = resolved
        self.tally = tally
        self._classify(fires)

    def _classify(self, fires) -> None:
        """Sort the block's instructions into useful, moves, executed but
        unused, and fetched but not executed (Section 4.1): an
        instruction is used when it feeds, through any chain of fired
        instructions, a store, a null, an exit or a register write."""
        insts = self.block.instructions
        base = len(self.block.reads)
        tally = self.tally
        worklist = [i for i in fires if insts[i].op is TOp.STORE
                    or insts[i].op is TOp.NULL or insts[i].op in EXIT_OPS]
        worklist += [node - base for node in self.writes if node >= base]
        used = set(worklist)
        while worklist:
            for node in self.operands[worklist.pop()]:
                if node >= base and node - base not in used:
                    used.add(node - base)
                    worklist.append(node - base)
        for index, inst in enumerate(insts):
            if index not in fires:
                tally.fetched_not_executed += 1
                tally.add_composition("fetched_not_executed")
            elif inst.op is TOp.MOV:
                tally.add_composition("move")
            elif index not in used:
                tally.executed_not_used += 1
                tally.add_composition("executed_not_used")
            else:
                tally.useful += 1
                tally.add_composition(inst.category)


#: Block-trace name of each exit kind.
EXIT_KINDS = {TOp.BRO: "br", TOp.CALLO: "call", TOp.RET: "ret"}


class OutcomeStream:
    """One recorded execution of a TRIPS program.

    ``activations`` holds, per committed block, the index of its
    :class:`BlockOutcome` in ``keys``; ``addresses`` holds the effective
    address of every load and store that fired, in fire order.
    ``stats`` is the run's :class:`TripsStats` and ``result`` the
    program's return value (``None`` until the run completes).
    """

    def __init__(self, stats: TripsStats) -> None:
        self.keys: List[BlockOutcome] = []
        self.activations = array("I")
        self.addresses = array("q")
        self.stats = stats
        self.result: object = None

    def block_events(self) -> List[Tuple[str, int, str, str, str]]:
        """The committed-block trace: per activation its label, exit
        index, exit kind, the label control went to next (``""`` at
        program end), and the call continuation."""
        run = [self.keys[key_id] for key_id in self.activations]
        return [(key.block.label, key.exit_index, EXIT_KINDS[key.exit.op],
                 after.block.label if after else "",
                 key.exit.cont if after else "")
                for key, after in zip(run, run[1:] + [None])]


#: Kinds of a decoded instruction.
K_COMPUTE, K_LOAD, K_STORE, K_NULL, K_EXIT = range(5)

#: "No operand delivered yet" sentinel for the flat operand arrays
#: (distinct from NULL_TOKEN, which is a real dataflow value).
_ABSENT = object()


def kind_of(op: TOp) -> int:
    """The decoded kind of an opcode."""
    if op is TOp.LOAD:
        return K_LOAD
    if op is TOp.STORE:
        return K_STORE
    if op is TOp.NULL:
        return K_NULL
    if op in EXIT_OPS:
        return K_EXIT
    return K_COMPUTE


def decode_targets(targets) -> Tuple[Tuple[int, ...], ...]:
    """A target list as flat tuples, in delivery order: ``(0, slot)``
    for a register-write slot, ``(1, inst)`` for a predicate and
    ``(2, inst, 0 | 1)`` for a data operand."""
    decoded = []
    for target in targets:
        if is_write_target(target):
            decoded.append((0, write_slot_of(target)))
        elif target.slot is Slot.PRED:
            decoded.append((1, target.inst))
        else:
            decoded.append((2, target.inst,
                            0 if target.slot is Slot.OP0 else 1))
    return tuple(decoded)


def _compute_plan(inst: TInst) -> Tuple[int, object]:
    """How a compute instruction makes its value, resolved once:
    ``(0, handler)`` for a two-operand op, ``(1, value)`` for a
    constant, ``(2, None)`` for MOV, ``(3, None)`` for I2F and ``(4,
    None)`` for F2I."""
    op = inst.op
    if op is TOp.GENI:
        return 1, inst.imm
    if op is TOp.GENF:
        return 1, inst.fimm
    if op is TOp.MOV:
        return 2, None
    if op is TOp.I2F:
        return 3, None
    if op is TOp.F2I:
        return 4, None
    handler = _BINOPS.get(op)
    if handler is None:
        raise AssertionError(f"unhandled op {op}")
    return 0, handler


class _BlockImage:
    """One block decoded once, reused by every activation."""

    __slots__ = ("block", "function", "insts", "need", "want", "kinds",
                 "ccode", "carg", "imm", "lsid", "targets", "reads",
                 "static_ready", "store_lsids", "write_count", "keys")

    def __init__(self, block: TripsBlock, function: str) -> None:
        insts = block.instructions
        self.block = block
        self.function = function
        self.insts = insts
        self.need = [operand_count(i.op) for i in insts]
        self.want = [None if i.predicate is None
                     else (1 if i.predicate == "T" else 0) for i in insts]
        self.kinds = [kind_of(i.op) for i in insts]
        plans = [_compute_plan(i) if kind == K_COMPUTE else (-1, None)
                 for i, kind in zip(insts, self.kinds)]
        self.ccode = [code for code, _arg in plans]
        self.carg = [arg for _code, arg in plans]
        self.imm = [i.imm for i in insts]
        self.lsid = [i.lsid for i in insts]
        self.targets = [decode_targets(i.targets) for i in insts]
        self.reads = [(r.reg, decode_targets(r.targets))
                      for r in block.reads]
        # Zero-operand, unpredicated instructions are ready at fetch.
        self.static_ready = tuple(
            index for index in range(len(insts))
            if self.need[index] == 0 and self.want[index] is None)
        self.store_lsids = tuple(sorted(block.store_lsids))
        self.write_count = len(block.writes)
        #: This block's keys seen so far, by (fire order, bits).
        self.keys: Dict[Tuple, BlockOutcome] = {}


class TripsSimulator:
    """Block-atomic dataflow executor over a :class:`TripsProgram`.

    ``max_blocks`` and ``max_wall_seconds`` are the cycle simulator's
    watchdog budgets, which it hands down because its timing pass runs
    after this recording: past either, :meth:`run` raises
    :class:`~repro.robust.SimulationBudgetExceeded` (no cycle or window
    yet; the cycle simulator re-raises with its own) and ``outcomes``
    holds the blocks committed so far.
    """

    def __init__(self, program: TripsProgram,
                 memory_size: int = 16 * 1024 * 1024,
                 fuel: int = DEFAULT_FUEL,
                 max_blocks: Optional[int] = None,
                 max_wall_seconds: Optional[float] = None) -> None:
        self.program = program
        self.memory = Memory(memory_size)
        self.fuel = fuel
        self.max_blocks = max_blocks
        self.max_wall_seconds = max_wall_seconds
        self.stats = TripsStats()
        self.regs: List[object] = [0] * 128
        #: This run's recording.
        self.outcomes = OutcomeStream(self.stats)
        self._images: Dict[Tuple[str, str], _BlockImage] = {}
        for name, func in program.functions.items():
            for label, block in func.blocks.items():
                self._images[(name, label)] = _BlockImage(block, name)
        for address, payload in program.globals_image:
            self.memory.write_bytes(address, payload)

    def run(self, entry: str = "main", args: Optional[List[object]] = None):
        """Run ``entry`` to completion; returns the integer return value."""
        outcomes = self.outcomes
        activations = outcomes.activations
        addresses = outcomes.addresses
        stats = self.stats
        self.regs[1] = self.memory.size - 64       # stack pointer
        for i, arg in enumerate(args or []):
            self.regs[3 + i] = arg

        func_name = entry
        label = self.program.function(entry).entry
        call_stack: List[Tuple[str, str]] = []
        max_blocks = self.max_blocks
        wall_start = time.monotonic() \
            if self.max_wall_seconds is not None else None

        while True:
            if max_blocks is not None or wall_start is not None:
                self._check_budgets(label, len(activations), wall_start)
            image = self._images[(func_name, label)]
            order, bits, fired_addresses = self._execute_block(image)
            signature = (tuple(order), tuple(bits))
            key = image.keys.get(signature)
            if key is None:
                key = image.keys[signature] = BlockOutcome(
                    image.block, func_name, signature[0], signature[1],
                    len(outcomes.keys))
                outcomes.keys.append(key)
            stats.add(key.tally)
            activations.append(key.serial)
            addresses.extend(fired_addresses)
            exit_inst = key.exit
            op = exit_inst.op
            if op is TOp.BRO:
                label = exit_inst.label
            elif op is TOp.CALLO:
                call_stack.append((func_name, exit_inst.cont))
                func_name = exit_inst.label
                label = self.program.function(func_name).entry
            elif op is TOp.RET:
                if not call_stack:
                    outcomes.result = self.regs[3]
                    return outcomes.result
                func_name, label = call_stack.pop()
            else:
                raise AssertionError(f"bad exit {op}")

    def _check_budgets(self, label: str, blocks: int,
                       wall_start: Optional[float]) -> None:
        if self.max_blocks is not None and blocks >= self.max_blocks:
            raise SimulationBudgetExceeded(
                kind="block", budget=self.max_blocks, label=label,
                blocks_committed=blocks, cycle=0, window=())
        if wall_start is not None and blocks % 64 == 0:
            elapsed = time.monotonic() - wall_start
            if elapsed > self.max_wall_seconds:
                raise SimulationBudgetExceeded(
                    kind="wall-clock", budget=self.max_wall_seconds,
                    label=label, blocks_committed=blocks, cycle=0,
                    window=(), elapsed=elapsed)

    # -- block execution --------------------------------------------------------

    def _execute_block(self, image: _BlockImage
                       ) -> Tuple[List[int], List[Optional[int]], List[int]]:
        """Execute one activation and commit its register writes.

        Returns the indices of the instructions that fired in fire
        order, each instruction's first-arrived predicate bit, and the
        addresses of the activation's loads and stores in fire order.
        """
        block = image.block
        insts = image.insts
        need = image.need
        want = image.want
        kinds = image.kinds
        ccode = image.ccode
        carg = image.carg
        imm = image.imm
        lsid_of = image.lsid
        targets_of = image.targets
        store_lsids = image.store_lsids
        memory = self.memory
        n = len(insts)

        v0s: List[object] = [_ABSENT] * n
        v1s: List[object] = [_ABSENT] * n
        arrived = [0] * n
        bits: List[Optional[int]] = [None] * n
        closed = [False] * n                # fired or mispredicated
        parked: List[int] = []
        resolved: Set[int] = set()
        write_values: Dict[int, object] = {}
        exit_taken: Optional[TInst] = None
        ready: List[int] = []
        order: List[int] = []
        addresses: List[int] = []

        def deliver(value, decoded) -> None:
            for entry in decoded:
                tag = entry[0]
                if tag == 2:
                    index = entry[1]
                    if closed[index]:
                        continue
                    # Predicated merge: a slot keeps its first arrival.
                    if entry[2]:
                        if v1s[index] is not _ABSENT:
                            continue
                        v1s[index] = value
                    else:
                        if v0s[index] is not _ABSENT:
                            continue
                        v0s[index] = value
                    arrived[index] += 1
                    check_ready(index)
                elif tag == 1:
                    index = entry[1]
                    if closed[index] or bits[index] is not None:
                        continue
                    bits[index] = 1 if value and value is not NULL_TOKEN \
                        else 0
                    check_ready(index)
                else:
                    write_values[entry[1]] = value

        def check_ready(index: int) -> None:
            if arrived[index] < need[index]:
                return
            wanted = want[index]
            if wanted is not None:
                got = bits[index]
                if got is None:
                    return
                if got != wanted:
                    closed[index] = True        # mispredicated
                    if kinds[index] == K_STORE:
                        resolved.add(lsid_of[index])
                        unpark()
                    return
            ready.append(index)

        def unpark() -> None:
            # Re-enqueue parked memory ops; the main loop re-checks their
            # store-ordering constraint (iterative to bound stack depth).
            if parked:
                ready.extend(parked)
                parked.clear()

        regs = self.regs
        for reg, decoded in image.reads:
            deliver(regs[reg], decoded)
        ready.extend(image.static_ready)

        fuel = self.fuel
        pop = ready.pop
        while ready:
            index = pop()
            if closed[index]:
                continue
            fuel -= 1
            if fuel <= 0:
                self.fuel = fuel
                raise TrapError("out of fuel")
            kind = kinds[index]
            if kind == K_COMPUTE:
                closed[index] = True
                order.append(index)
                code = ccode[index]
                if code == 0:
                    # A null propagates through the dataflow.
                    a = v0s[index]
                    b = v1s[index]
                    value = NULL_TOKEN \
                        if a is NULL_TOKEN or b is NULL_TOKEN \
                        else carg[index](a, b)
                elif code == 1:
                    value = carg[index]
                elif code == 2:
                    value = v0s[index]
                elif code == 3:
                    value = float(_as_int(v0s[index]))
                else:
                    value = wrap64(int(v0s[index]))
                deliver(value, targets_of[index])
                continue
            if kind == K_LOAD or kind == K_STORE:
                # A memory op waits for every lower-ID store.
                lsid = lsid_of[index]
                waiting = False
                for earlier in store_lsids:
                    if earlier >= lsid:
                        break
                    if earlier not in resolved:
                        waiting = True
                        break
                if waiting:
                    parked.append(index)
                    continue
            closed[index] = True
            order.append(index)
            if kind == K_LOAD:
                address = wrap64(_as_int(v0s[index]) + imm[index])
                addresses.append(address)
                deliver(load_value(memory, address, insts[index]),
                        targets_of[index])
            elif kind == K_STORE:
                address = wrap64(_as_int(v0s[index]) + imm[index])
                addresses.append(address)
                store_value(memory, address, v1s[index], insts[index])
                resolved.add(lsid_of[index])
                unpark()
            elif kind == K_NULL:
                if lsid_of[index] >= 0:
                    resolved.add(lsid_of[index])
                    unpark()
                deliver(NULL_TOKEN, targets_of[index])
            else:
                if exit_taken is not None:
                    raise TrapError(
                        f"block {block.label}: two exits fired "
                        f"(i{exit_taken.index} and i{index})")
                exit_taken = insts[index]
        self.fuel = fuel
        if exit_taken is None or len(write_values) < image.write_count \
                or not resolved.issuperset(store_lsids):
            raise TrapError(
                f"block {block.label} deadlocked: exit={exit_taken}, "
                f"writes {len(write_values)}/{image.write_count}, "
                f"stores {len(resolved)}/{len(store_lsids)}")

        # Commit: register writes.
        for slot, write in enumerate(block.writes):
            value = write_values[slot]
            if value is not NULL_TOKEN:
                regs[write.reg] = value
        return order, bits, addresses


def load_value(memory: Memory, address: int, inst: TInst):
    """The value ``inst`` (a load) reads at ``address``."""
    if inst.is_float:
        return memory.load_float(address)
    return memory.load_int(address, inst.width, inst.signed)


def store_value(memory: Memory, address: int, value, inst: TInst) -> None:
    """Write ``value`` at ``address`` as ``inst`` (a store) does."""
    if isinstance(value, float):
        memory.store_float(address, value)
        return
    memory.store_int(address, inst.width, _as_int(value))


def _as_int(value) -> int:
    if value is NULL_TOKEN:
        return 0
    return int(value)


_BINOPS = {
    TOp.ADD: lambda a, b: wrap64(a + b),
    TOp.SUB: lambda a, b: wrap64(a - b),
    TOp.MUL: lambda a, b: wrap64(a * b),
    TOp.DIV: int_div,
    TOp.REM: int_rem,
    TOp.AND: lambda a, b: wrap64(a & b),
    TOp.OR: lambda a, b: wrap64(a | b),
    TOp.XOR: lambda a, b: wrap64(a ^ b),
    TOp.SHL: lambda a, b: wrap64(a << (b & 63)),
    TOp.SHR: lambda a, b: wrap64(to_unsigned64(a) >> (b & 63)),
    TOp.SRA: lambda a, b: wrap64(a >> (b & 63)),
    TOp.TEQ: lambda a, b: int(a == b),
    TOp.TNE: lambda a, b: int(a != b),
    TOp.TLT: lambda a, b: int(a < b),
    TOp.TLE: lambda a, b: int(a <= b),
    TOp.TGT: lambda a, b: int(a > b),
    TOp.TGE: lambda a, b: int(a >= b),
    TOp.TLTU: lambda a, b: int(to_unsigned64(a) < to_unsigned64(b)),
    TOp.TGEU: lambda a, b: int(to_unsigned64(a) >= to_unsigned64(b)),
    TOp.FADD: lambda a, b: a + b,
    TOp.FSUB: lambda a, b: a - b,
    TOp.FMUL: lambda a, b: a * b,
    TOp.FDIV: lambda a, b: a / b,
    TOp.TFEQ: lambda a, b: int(a == b),
    TOp.TFLT: lambda a, b: int(a < b),
    TOp.TFLE: lambda a, b: int(a <= b),
}


def run_trips(program: TripsProgram, entry: str = "main",
              args: Optional[List[object]] = None,
              memory_size: int = 16 * 1024 * 1024):
    """One-shot convenience: run and return (result, simulator)."""
    simulator = TripsSimulator(program, memory_size)
    result = simulator.run(entry, args)
    return result, simulator
