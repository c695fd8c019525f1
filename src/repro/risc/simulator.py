"""Functional simulator for the RISC substrate.

Executes a :class:`~repro.risc.isa.RiscProgram` over a flat memory, and
gathers the statistics the paper normalizes against (Section 4):

* dynamic instruction counts by category,
* loads and stores executed,
* register-file reads and writes,
* unique static instructions touched (dynamic code footprint, Section 4.4).

A run can also be recorded into a compact :class:`RiscTrace`; the
reference-platform timing models (`repro.refmodels`) fold over that
trace.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.ir.instructions import Opcode
from repro.ir.interp import OPERATIONS, Memory, TrapError
from repro.ir.types import MASK64, SIGN64, wrap64

from repro.risc.isa import (
    CATEGORY, INT_RETURN, RClass, Reg, RiscInst, RiscProgram, ROp, SP,
)

#: Hard cap on executed instructions (infinite-loop guard).
DEFAULT_FUEL = 400_000_000


@dataclass
class RiscStats:
    """Aggregate statistics over one program run."""

    executed: int = 0
    by_category: Dict[str, int] = field(default_factory=dict)
    loads: int = 0
    stores: int = 0
    register_reads: int = 0
    register_writes: int = 0
    branches: int = 0
    taken_branches: int = 0
    touched_pcs: Set[int] = field(default_factory=set)

    @property
    def useful(self) -> int:
        """Instructions excluding register moves (for ISA comparisons)."""
        return self.executed - self.by_category.get("move", 0)

    def dynamic_code_bytes(self) -> int:
        """Unique static instructions touched x 4-byte encoding."""
        return len(self.touched_pcs) * 4


def _global_reg_id(reg: Reg) -> int:
    return reg.num + (32 if reg.cls is RClass.FLT else 0)


class RiscTrace:
    """One recorded run, compact.  ``static`` describes each static
    instruction by global pc as ``(op, category, sources, dest)``, with
    global register ids (``dest`` -1 for none).  Per retired instruction
    ``pcs`` holds its global pc, ``addresses`` its effective address (-1
    when it touched no memory) and ``taken`` 1 for a taken branch.
    ``stats`` is the recording run's :class:`RiscStats`."""

    def __init__(self) -> None:
        self.static: List[Tuple[ROp, str, Tuple[int, ...], int]] = []
        self.pcs = array("I")
        self.addresses = array("q")
        self.taken = bytearray()
        self.stats = RiscStats()

    def __len__(self) -> int:
        return len(self.pcs)


#: The value each computing opcode writes, from the IR's one semantics
#: table (a register-immediate form computes on its immediate).
_OPERATIONS = {
    ROp.ADD: OPERATIONS[Opcode.ADD], ROp.ADDI: OPERATIONS[Opcode.ADD],
    ROp.SUB: OPERATIONS[Opcode.SUB], ROp.MUL: OPERATIONS[Opcode.MUL],
    ROp.DIV: OPERATIONS[Opcode.DIV], ROp.REM: OPERATIONS[Opcode.REM],
    ROp.AND: OPERATIONS[Opcode.AND], ROp.ANDI: OPERATIONS[Opcode.AND],
    ROp.OR: OPERATIONS[Opcode.OR], ROp.ORI: OPERATIONS[Opcode.OR],
    ROp.XOR: OPERATIONS[Opcode.XOR], ROp.XORI: OPERATIONS[Opcode.XOR],
    ROp.SHL: OPERATIONS[Opcode.SHL], ROp.SHLI: OPERATIONS[Opcode.SHL],
    ROp.SHR: OPERATIONS[Opcode.SHR], ROp.SHRI: OPERATIONS[Opcode.SHR],
    ROp.SRA: OPERATIONS[Opcode.SRA], ROp.SRAI: OPERATIONS[Opcode.SRA],
    ROp.CMPEQ: OPERATIONS[Opcode.EQ], ROp.CMPNE: OPERATIONS[Opcode.NE],
    ROp.CMPLT: OPERATIONS[Opcode.LT], ROp.CMPLE: OPERATIONS[Opcode.LE],
    ROp.CMPGT: OPERATIONS[Opcode.GT], ROp.CMPGE: OPERATIONS[Opcode.GE],
    ROp.CMPLTU: OPERATIONS[Opcode.ULT], ROp.CMPGEU: OPERATIONS[Opcode.UGE],
    ROp.FADD: OPERATIONS[Opcode.FADD], ROp.FSUB: OPERATIONS[Opcode.FSUB],
    ROp.FMUL: OPERATIONS[Opcode.FMUL], ROp.FDIV: OPERATIONS[Opcode.FDIV],
    ROp.FCMPEQ: OPERATIONS[Opcode.FEQ], ROp.FCMPLT: OPERATIONS[Opcode.FLT],
    ROp.FCMPLE: OPERATIONS[Opcode.FLE],
    ROp.I2F: OPERATIONS[Opcode.I2F], ROp.F2I: OPERATIONS[Opcode.F2I],
}

_IMMEDIATE_OPS = frozenset({ROp.ADDI, ROp.ANDI, ROp.ORI, ROp.XORI,
                            ROp.SHLI, ROp.SHRI, ROp.SRAI})
_FLOAT_SOURCE_OPS = frozenset({ROp.FADD, ROp.FSUB, ROp.FMUL, ROp.FDIV,
                               ROp.FCMPEQ, ROp.FCMPLT, ROp.FCMPLE})
_FLOAT_RESULT_OPS = frozenset({ROp.FADD, ROp.FSUB, ROp.FMUL, ROp.FDIV,
                               ROp.I2F})

#: Decoded instruction kinds, in the order the loop tests them.
(_ALUI, _ALU, _MOVE, _LI, _BNZ, _BZ, _B, _LD, _ST, _LFD, _STF, _UNARY,
 _CALL, _RET, _END) = range(15)


def _to_int(value) -> int:
    return wrap64(int(value))


def _decode(program: RiscProgram):
    """The program as one table the loop reads, plus per global pc the
    statistics each execution adds.

    A function's instructions sit at consecutive slots, followed by an
    ``_END`` slot that traps when execution falls off its end.  Each
    instruction is a tuple ``(kind, global pc, ...)`` whose registers
    are indexes into the 64-entry register list (see
    :func:`_global_reg_id`) and whose branch targets are slots.  A write
    keeps the simulator's rule, ``float(v)`` into a float register and
    ``wrap64(int(v))`` into an integer one; it is left out where the
    operation already yields that value.
    """
    starts: Dict[str, int] = {}
    slot = 0
    for name, func in program.functions.items():
        starts[name] = slot
        slot += len(func.instructions) + 1
    table: List[tuple] = []
    # Per global pc: (category, register reads, register writes, whether
    # it is a branch that is always taken).
    tallies: List[Tuple[str, int, int, bool]] = []
    for name, func in program.functions.items():
        base = starts[name]
        for inst in func.instructions:
            op = inst.op
            gpc = len(tallies)
            if op in (ROp.B, ROp.BNZ, ROp.BZ):
                target = base + func.labels[inst.label]
            if op is ROp.LI:
                entry = (_LI, gpc, _global_reg_id(inst.rd),
                         float(inst.fimm) if inst.rd.cls is RClass.FLT
                         else wrap64(int(inst.imm)))
                reads, writes = 0, 1
            elif op in (ROp.MR, ROp.FMR):
                rd, ra = _global_reg_id(inst.rd), _global_reg_id(inst.ra)
                entry = (_MOVE, gpc, rd, ra) if inst.rd.cls is inst.ra.cls \
                    else (_UNARY, gpc, rd, ra, _write_rule(inst))
                reads, writes = 1, 1
            elif op in (ROp.I2F, ROp.F2I):
                entry = (_UNARY, gpc, _global_reg_id(inst.rd),
                         _global_reg_id(inst.ra),
                         _writer(inst, _OPERATIONS[op]))
                reads, writes = 1, 1
            elif op in _IMMEDIATE_OPS:
                entry = (_ALUI, gpc, _global_reg_id(inst.rd),
                         _global_reg_id(inst.ra), inst.imm,
                         _writer(inst, _OPERATIONS[op]))
                reads, writes = 1, 1
            elif op in _OPERATIONS:
                entry = (_ALU, gpc, _global_reg_id(inst.rd),
                         _global_reg_id(inst.ra), _global_reg_id(inst.rb),
                         _writer(inst, _OPERATIONS[op]))
                reads, writes = 2, 1
            elif op is ROp.LD or op is ROp.LFD:
                convert = None if (op is ROp.LFD) == (
                    inst.rd.cls is RClass.FLT) else _write_rule(inst)
                entry = (_LD if op is ROp.LD else _LFD, gpc,
                         _global_reg_id(inst.rd), _global_reg_id(inst.ra),
                         inst.imm, inst.width, inst.signed, convert)
                reads, writes = 1, 1
            elif op is ROp.ST or op is ROp.STF:
                entry = (_ST if op is ROp.ST else _STF, gpc,
                         _global_reg_id(inst.rd), _global_reg_id(inst.ra),
                         inst.imm, inst.width)
                reads, writes = 2, 0
            elif op is ROp.BNZ or op is ROp.BZ:
                entry = (_BNZ if op is ROp.BNZ else _BZ, gpc,
                         _global_reg_id(inst.ra), target)
                reads, writes = 1, 0
            elif op is ROp.B:
                entry = (_B, gpc, target)
                reads, writes = 0, 0
            elif op is ROp.CALL:
                entry = (_CALL, gpc, inst.callee)
                reads, writes = 0, 0
            elif op is ROp.RET:
                entry = (_RET, gpc)
                reads, writes = 0, 0
            else:
                raise AssertionError(f"unhandled opcode {op}")
            table.append(entry)
            tallies.append((CATEGORY[op], reads, writes,
                            op in (ROp.B, ROp.CALL, ROp.RET)))
        table.append((_END, -1, func.name))
    return table, starts, tallies


def _write_rule(inst: RiscInst) -> Callable[[object], object]:
    return float if inst.rd.cls is RClass.FLT else _to_int


def _writer(inst: RiscInst, operation: Callable[..., object]):
    """``operation`` followed by the write rule of ``inst``'s destination
    class, or alone where its value already obeys the rule: a wrapped
    int from an integer operation on integer registers, a float from a
    float operation on float registers."""
    op = inst.op
    obeys = (op in _FLOAT_RESULT_OPS) == (inst.rd.cls is RClass.FLT) and (
        op in (ROp.I2F, ROp.F2I) or all(
            (r.cls is RClass.FLT) == (op in _FLOAT_SOURCE_OPS)
            for r in (inst.ra, inst.rb) if r is not None))
    if obeys:
        return operation
    convert = _write_rule(inst)
    return lambda *values: convert(operation(*values))


class RiscSimulator:
    """Executes RISC programs; one instance per run."""

    def __init__(self, program: RiscProgram,
                 memory_size: int = 16 * 1024 * 1024,
                 fuel: int = DEFAULT_FUEL) -> None:
        self.program = program
        self.memory = Memory(memory_size)
        self.fuel = fuel
        self.stats = RiscStats()
        #: Integer registers r0-r31, then float registers f0-f31.
        self.regs: List[object] = [0] * 32 + [0.0] * 32
        self._table, self._starts, self._tallies = _decode(program)
        self.total_static = len(self._tallies)
        for address, payload in program.globals_image:
            self.memory.write_bytes(address, payload)

    # -- main loop -----------------------------------------------------------

    def run(self, entry: str = "main", args: Optional[List[object]] = None,
            record: Optional[RiscTrace] = None):
        """Run ``entry`` to completion; returns its return value.

        ``record`` collects the run's :class:`RiscTrace`; its ``stats``
        become this run's statistics."""
        if record is not None:
            record.stats = self.stats
            record.static = [
                (inst.op, inst.category,
                 tuple(_global_reg_id(r) for r in inst.sources()),
                 _global_reg_id(inst.dest()) if inst.dest() is not None
                 else -1)
                for func in self.program.functions.values()
                for inst in func.instructions]
            record_pc = record.pcs.append
            record_address = record.addresses.append
            record_taken = record.taken.append
        slot = self._starts[entry]
        regs = self.regs
        regs[SP.num] = self.memory.size - 64
        int_index, flt_index = 3, 33
        for arg in args or []:
            if isinstance(arg, float):
                regs[flt_index] = arg
                flt_index += 1
            else:
                regs[int_index] = wrap64(int(arg))
                int_index += 1

        table = self._table
        starts = self._starts
        memory = self.memory
        load_int, store_int = memory.load_int, memory.store_int
        load_float, store_float = memory.load_float, memory.store_float
        counts = [0] * self.total_static
        taken_conditional = 0
        call_stack: List[int] = []
        fuel = self.fuel
        try:
            while True:
                inst = table[slot]
                fuel -= 1
                if fuel <= 0:
                    break
                kind = inst[0]
                address = -1
                taken = False
                if kind == _ALUI:
                    _, gpc, rd, ra, imm, operation = inst
                    regs[rd] = operation(regs[ra], imm)
                    slot += 1
                elif kind == _ALU:
                    _, gpc, rd, ra, rb, operation = inst
                    regs[rd] = operation(regs[ra], regs[rb])
                    slot += 1
                elif kind == _MOVE:
                    gpc = inst[1]
                    regs[inst[2]] = regs[inst[3]]
                    slot += 1
                elif kind == _LI:
                    gpc = inst[1]
                    regs[inst[2]] = inst[3]
                    slot += 1
                elif kind == _BNZ or kind == _BZ:
                    _, gpc, ra, target = inst
                    taken = (regs[ra] != 0) if kind == _BNZ \
                        else (regs[ra] == 0)
                    if taken:
                        taken_conditional += 1
                        slot = target
                    else:
                        slot += 1
                elif kind == _B:
                    gpc = inst[1]
                    taken = True
                    slot = inst[2]
                elif kind == _LD or kind == _LFD:
                    _, gpc, rd, ra, imm, width, signed, convert = inst
                    address = ((regs[ra] + imm + SIGN64) & MASK64) - SIGN64
                    value = load_int(address, width, signed) \
                        if kind == _LD else load_float(address)
                    regs[rd] = value if convert is None else convert(value)
                    slot += 1
                elif kind == _ST or kind == _STF:
                    _, gpc, rs, ra, imm, width = inst
                    address = ((regs[ra] + imm + SIGN64) & MASK64) - SIGN64
                    if kind == _ST:
                        store_int(address, width, regs[rs])
                    else:
                        store_float(address, regs[rs])
                    slot += 1
                elif kind == _UNARY:
                    _, gpc, rd, ra, operation = inst
                    regs[rd] = operation(regs[ra])
                    slot += 1
                elif kind == _CALL:
                    gpc = inst[1]
                    taken = True
                    call_stack.append(slot + 1)
                    slot = starts[inst[2]]
                elif kind == _RET:
                    gpc = inst[1]
                    taken = True
                    if not call_stack:
                        counts[gpc] += 1
                        if record is not None:
                            record_pc(gpc)
                            record_address(-1)
                            record_taken(True)
                        return regs[INT_RETURN.num]
                    slot = call_stack.pop()
                else:
                    fuel += 1   # falling off a function uses no fuel
                    break
                counts[gpc] += 1
                if record is not None:
                    record_pc(gpc)
                    record_address(address)
                    record_taken(taken)
        except TrapError:
            # The instruction that trapped read its registers and made
            # its memory access, but it did not retire.
            category, reads, _writes, _taken = self._tallies[table[slot][1]]
            self.stats.register_reads += reads
            self.stats.loads += category == "load"
            self.stats.stores += category == "store"
            raise
        finally:
            self.fuel = fuel
            self._fold(counts, taken_conditional)
        if table[slot][0] == _END:
            raise TrapError(f"fell off the end of {table[slot][2]}")
        raise TrapError("out of fuel (infinite loop?)")

    def _fold(self, counts: List[int], taken_conditional: int) -> None:
        """Add one run's executions per global pc to :attr:`stats`."""
        stats = self.stats
        by_category = stats.by_category
        stats.taken_branches += taken_conditional
        for gpc, times in enumerate(counts):
            if not times:
                continue
            category, reads, writes, always_taken = self._tallies[gpc]
            stats.executed += times
            by_category[category] = by_category.get(category, 0) + times
            stats.register_reads += reads * times
            stats.register_writes += writes * times
            stats.touched_pcs.add(gpc)
            if category == "load":
                stats.loads += times
            elif category == "store":
                stats.stores += times
            elif category == "control":
                stats.branches += times
                if always_taken:
                    stats.taken_branches += times


def run_program(program: RiscProgram, entry: str = "main",
                args: Optional[List[object]] = None,
                record: Optional[RiscTrace] = None,
                memory_size: int = 16 * 1024 * 1024):
    """One-shot convenience: run a program and return (result, simulator)."""
    simulator = RiscSimulator(program, memory_size)
    result = simulator.run(entry, args, record=record)
    return result, simulator
