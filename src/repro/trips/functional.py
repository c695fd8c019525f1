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

from array import array
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Set, Tuple

from repro.ir.interp import Memory, TrapError
from repro.ir.types import to_unsigned64, wrap64

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
    """One (block, fire order) key of an execution.

    ``order`` lists the instructions that fired, in firing order.  With
    the block's static dataflow it fixes which producer fed every
    operand, so what depends only on that — the ISA statistics an
    activation adds (``tally``), the ideal machine's timing — is worked
    out once per key.  Producers are *nodes*: read ``r`` is node
    ``r``, instruction ``i`` node ``len(block.reads) + i``.
    ``operands[i]`` holds the nodes that fed fired instruction ``i``,
    ``writes`` the node each write slot commits, and ``resolved`` the
    node that resolved each store LSID.
    """

    __slots__ = ("block", "order", "serial", "exit", "exit_index",
                 "operands", "writes", "resolved", "tally")

    def __init__(self, block: TripsBlock, order: Tuple[int, ...],
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
        self.order = order
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
    ``stats`` is the run's :class:`TripsStats`.
    """

    def __init__(self, stats: TripsStats) -> None:
        self.keys: List[BlockOutcome] = []
        self.activations = array("I")
        self.addresses = array("q")
        self.stats = stats

    def block_events(self) -> List[Tuple[str, int, str, str, str]]:
        """The committed-block trace: per activation its label, exit
        index, exit kind, the label control went to next (``""`` at
        program end), and the call continuation."""
        run = [self.keys[key_id] for key_id in self.activations]
        return [(key.block.label, key.exit_index, EXIT_KINDS[key.exit.op],
                 after.block.label if after else "",
                 key.exit.cont if after else "")
                for key, after in zip(run, run[1:] + [None])]


class _BlockImage:
    """Precompiled per-block metadata reused across activations."""

    __slots__ = ("block", "need", "targets", "preds", "write_count",
                 "store_lsids", "read_targets", "keys")

    def __init__(self, block: TripsBlock) -> None:
        self.block = block
        self.need = [operand_count(i.op) for i in block.instructions]
        self.preds = [i.predicate for i in block.instructions]
        self.targets = [i.targets for i in block.instructions]
        self.write_count = len(block.writes)
        self.store_lsids = sorted(block.store_lsids)
        self.read_targets = [r.targets for r in block.reads]
        #: This block's keys seen so far, by fire order.
        self.keys: Dict[Tuple[int, ...], BlockOutcome] = {}


class TripsSimulator:
    """Block-atomic dataflow executor over a :class:`TripsProgram`."""

    def __init__(self, program: TripsProgram,
                 memory_size: int = 16 * 1024 * 1024,
                 fuel: int = DEFAULT_FUEL) -> None:
        self.program = program
        self.memory = Memory(memory_size)
        self.fuel = fuel
        self.stats = TripsStats()
        self.regs: List[object] = [0] * 128
        #: This run's recording.
        self.outcomes = OutcomeStream(self.stats)
        self._images: Dict[Tuple[str, str], _BlockImage] = {}
        for name, func in program.functions.items():
            for label, block in func.blocks.items():
                self._images[(name, label)] = _BlockImage(block)
        for address, payload in program.globals_image:
            self.memory.write_bytes(address, payload)

    def run(self, entry: str = "main", args: Optional[List[object]] = None):
        """Run ``entry`` to completion; returns the integer return value."""
        outcomes = self.outcomes
        self.regs[1] = self.memory.size - 64       # stack pointer
        for i, arg in enumerate(args or []):
            self.regs[3 + i] = arg

        func_name = entry
        label = self.program.function(entry).entry
        call_stack: List[Tuple[str, str]] = []

        while True:
            image = self._images[(func_name, label)]
            exit_inst, order, addresses = self._execute_block(image)
            fired = tuple(order)
            key = image.keys.get(fired)
            if key is None:
                key = image.keys[fired] = BlockOutcome(
                    image.block, fired, len(outcomes.keys))
                outcomes.keys.append(key)
            self.stats.add(key.tally)
            outcomes.activations.append(key.serial)
            outcomes.addresses.extend(addresses)
            op = exit_inst.op
            if op is TOp.BRO:
                label = exit_inst.label
            elif op is TOp.CALLO:
                call_stack.append((func_name, exit_inst.cont))
                func_name = exit_inst.label
                label = self.program.function(func_name).entry
            elif op is TOp.RET:
                if not call_stack:
                    return self.regs[3]
                func_name, label = call_stack.pop()
            else:
                raise AssertionError(f"bad exit {op}")

    # -- block execution --------------------------------------------------------

    def _execute_block(self, image: _BlockImage
                       ) -> Tuple[TInst, List[int], List[int]]:
        """Execute one activation; returns its exit, the indices of the
        instructions that fired in fire order, and the addresses of its
        loads and stores in the same order."""
        block = image.block
        n = len(block.instructions)

        operands: List[Dict[Slot, object]] = [None] * n
        pred_value: List[object] = [None] * n       # arrived predicate value
        fired = [False] * n
        mispredicated = [False] * n
        parked_mem: List[int] = []
        resolved_stores: Set[int] = set()
        write_values: Dict[int, object] = {}
        exit_taken: Optional[TInst] = None
        ready: List[int] = []
        arrived_count = [0] * n
        order: List[int] = []
        addresses: List[int] = []

        def deliver(value, targets) -> None:
            for target in targets:
                if is_write_target(target):
                    write_values[write_slot_of(target)] = value
                    continue
                index = target.inst
                if fired[index] or mispredicated[index]:
                    continue
                if target.slot is Slot.PRED:
                    if pred_value[index] is None:
                        pred_value[index] = (1 if value else 0) \
                            if value is not NULL_TOKEN else 0
                        _check_ready(index)
                    continue
                slots = operands[index]
                if slots is None:
                    slots = operands[index] = {}
                if target.slot in slots:
                    continue  # predicated merge: first arrival wins
                slots[target.slot] = value
                arrived_count[index] += 1
                _check_ready(index)

        def _check_ready(index: int) -> None:
            if fired[index] or mispredicated[index]:
                return
            if arrived_count[index] < image.need[index]:
                return
            predicate = image.preds[index]
            if predicate is not None:
                arrived = pred_value[index]
                if arrived is None:
                    return
                wanted = 1 if predicate == "T" else 0
                if arrived != wanted:
                    mispredicated[index] = True
                    inst = block.instructions[index]
                    if inst.op is TOp.STORE:
                        resolved_stores.add(inst.lsid)
                        _unpark()
                    return
            ready.append(index)

        def _stores_resolved_below(lsid: int) -> bool:
            for s in image.store_lsids:
                if s >= lsid:
                    return True
                if s not in resolved_stores:
                    return False
            return True

        def _unpark() -> None:
            # Re-enqueue parked memory ops; the main loop re-checks their
            # store-ordering constraint (iterative to bound stack depth).
            if parked_mem:
                ready.extend(parked_mem)
                parked_mem.clear()

        def _fire(index: int) -> None:
            nonlocal exit_taken
            inst = block.instructions[index]
            fired[index] = True
            order.append(index)
            op = inst.op
            slots = operands[index] or {}
            if op is TOp.LOAD:
                address = wrap64(_as_int(slots[Slot.OP0]) + inst.imm)
                addresses.append(address)
                value = load_value(self.memory, address, inst)
                deliver(value, image.targets[index])
            elif op is TOp.STORE:
                address = wrap64(_as_int(slots[Slot.OP0]) + inst.imm)
                addresses.append(address)
                value = slots[Slot.OP1]
                store_value(self.memory, address, value, inst)
                resolved_stores.add(inst.lsid)
                _unpark()
            elif op is TOp.NULL:
                if inst.lsid >= 0:
                    resolved_stores.add(inst.lsid)
                    _unpark()
                deliver(NULL_TOKEN, image.targets[index])
            elif op in EXIT_OPS:
                if exit_taken is not None:
                    raise TrapError(
                        f"block {block.label}: two exits fired "
                        f"(i{exit_taken.index} and i{inst.index})")
                exit_taken = inst
            else:
                deliver(_compute(op, inst, slots), image.targets[index])

        # Inject register reads.
        for read, targets in zip(block.reads, image.read_targets):
            deliver(self.regs[read.reg], targets)

        # GENI/GENF and other zero-operand instructions are ready at fetch.
        for index in range(n):
            if image.need[index] == 0 and image.preds[index] is None \
                    and not fired[index]:
                ready.append(index)

        while ready:
            index = ready.pop()
            if fired[index] or mispredicated[index]:
                continue
            inst = block.instructions[index]
            self.fuel -= 1
            if self.fuel <= 0:
                raise TrapError("out of fuel")
            if inst.op in (TOp.LOAD, TOp.STORE) \
                    and not _stores_resolved_below(inst.lsid):
                parked_mem.append(index)
                continue
            _fire(index)
        if exit_taken is None or len(write_values) < image.write_count \
                or not resolved_stores.issuperset(image.store_lsids):
            raise TrapError(
                f"block {block.label} deadlocked: exit={exit_taken}, "
                f"writes {len(write_values)}/{image.write_count}, "
                f"stores {len(resolved_stores)}/{len(image.store_lsids)}")

        # Commit: register writes.
        for slot, write in enumerate(block.writes):
            value = write_values[slot]
            if value is not NULL_TOKEN:
                self.regs[write.reg] = value
        return exit_taken, order, addresses


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


def _compute(op: TOp, inst: TInst, slots) -> object:
    if op is TOp.GENI:
        return inst.imm
    if op is TOp.GENF:
        return inst.fimm
    if op is TOp.MOV:
        return slots[Slot.OP0]
    a = slots.get(Slot.OP0)
    b = slots.get(Slot.OP1)
    if op is TOp.I2F:
        return float(_as_int(a))
    if op is TOp.F2I:
        return wrap64(int(a))
    if a is NULL_TOKEN or b is NULL_TOKEN:
        return NULL_TOKEN  # null propagates through the dataflow
    handler = _BINOPS.get(op)
    if handler is None:
        raise AssertionError(f"unhandled op {op}")
    return handler(a, b)


def _idiv(a, b):
    if b == 0:
        raise TrapError("integer divide by zero")
    return wrap64(int(a / b))


def _irem(a, b):
    if b == 0:
        raise TrapError("integer remainder by zero")
    return wrap64(a - int(a / b) * b)


_BINOPS = {
    TOp.ADD: lambda a, b: wrap64(a + b),
    TOp.SUB: lambda a, b: wrap64(a - b),
    TOp.MUL: lambda a, b: wrap64(a * b),
    TOp.DIV: _idiv,
    TOp.REM: _irem,
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
