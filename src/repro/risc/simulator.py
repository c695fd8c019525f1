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
from typing import Dict, List, Optional, Set, Tuple

from repro.ir.interp import Memory, TrapError
from repro.ir.types import to_unsigned64, wrap64

from repro.risc.isa import (
    INT_RETURN, RClass, Reg, RiscFunction, RiscInst, RiscProgram, ROp, SP,
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


class RiscSimulator:
    """Executes RISC programs; one instance per run."""

    def __init__(self, program: RiscProgram,
                 memory_size: int = 16 * 1024 * 1024,
                 fuel: int = DEFAULT_FUEL) -> None:
        self.program = program
        self.memory = Memory(memory_size)
        self.fuel = fuel
        self.stats = RiscStats()
        self.int_regs: List[int] = [0] * 32
        self.flt_regs: List[float] = [0.0] * 32
        self._pc_base: Dict[str, int] = {}
        base = 0
        for name, func in program.functions.items():
            self._pc_base[name] = base
            base += len(func.instructions)
        self.total_static = base
        for address, payload in program.globals_image:
            self.memory.write_bytes(address, payload)

    # -- register access with statistics ------------------------------------

    def _read(self, reg: Reg):
        self.stats.register_reads += 1
        if reg.cls is RClass.FLT:
            return self.flt_regs[reg.num]
        return self.int_regs[reg.num]

    def _write(self, reg: Reg, value) -> None:
        self.stats.register_writes += 1
        if reg.cls is RClass.FLT:
            self.flt_regs[reg.num] = float(value)
        else:
            self.int_regs[reg.num] = wrap64(int(value))

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
        func = self.program.function(entry)
        self.int_regs[SP.num] = self.memory.size - 64
        int_index, flt_index = 3, 1
        for arg in args or []:
            if isinstance(arg, float):
                self.flt_regs[flt_index] = arg
                flt_index += 1
            else:
                self.int_regs[int_index] = wrap64(int(arg))
                int_index += 1

        call_stack: List[Tuple[RiscFunction, int]] = []
        pc = 0
        while True:
            if pc >= len(func.instructions):
                raise TrapError(f"fell off the end of {func.name}")
            inst = func.instructions[pc]
            self.fuel -= 1
            if self.fuel <= 0:
                raise TrapError("out of fuel (infinite loop?)")

            address, taken = self._execute(inst)
            self.stats.executed += 1
            category = inst.category
            self.stats.by_category[category] = \
                self.stats.by_category.get(category, 0) + 1
            global_pc = self._pc_base[func.name] + pc
            self.stats.touched_pcs.add(global_pc)
            if record is not None:
                record_pc(global_pc)
                record_address(address)
                record_taken(taken)

            op = inst.op
            if op is ROp.CALL:
                call_stack.append((func, pc + 1))
                func = self.program.function(inst.callee)
                pc = 0
            elif op is ROp.RET:
                if not call_stack:
                    return self.int_regs[INT_RETURN.num]
                func, pc = call_stack.pop()
            elif op is ROp.B:
                pc = func.labels[inst.label]
            elif op in (ROp.BNZ, ROp.BZ):
                pc = func.labels[inst.label] if taken else pc + 1
            else:
                pc += 1

    # -- instruction semantics ------------------------------------------------

    def _execute(self, inst: RiscInst) -> Tuple[int, bool]:
        """Execute one instruction; returns its effective address (-1
        when it touches no memory) and whether it is a taken branch."""
        op = inst.op
        mem_address = -1
        taken = False

        if op is ROp.LI:
            if inst.rd.cls is RClass.FLT:
                self._write(inst.rd, inst.fimm)
            else:
                self._write(inst.rd, inst.imm)
        elif op in (ROp.MR, ROp.FMR):
            self._write(inst.rd, self._read(inst.ra))
        elif op in _INT_RR:
            a = self._read(inst.ra)
            b = self._read(inst.rb)
            self._write(inst.rd, _INT_RR[op](a, b))
        elif op in _INT_RI:
            a = self._read(inst.ra)
            self._write(inst.rd, _INT_RI[op](a, inst.imm))
        elif op in _FLT_RR:
            a = self._read(inst.ra)
            b = self._read(inst.rb)
            self._write(inst.rd, _FLT_RR[op](a, b))
        elif op in _FCMP_RR:
            a = self._read(inst.ra)
            b = self._read(inst.rb)
            self._write(inst.rd, _FCMP_RR[op](a, b))
        elif op is ROp.I2F:
            self._write(inst.rd, float(self._read(inst.ra)))
        elif op is ROp.F2I:
            self._write(inst.rd, int(self._read(inst.ra)))
        elif op is ROp.LD:
            mem_address = wrap64(self._read(inst.ra) + inst.imm)
            self.stats.loads += 1
            self._write(inst.rd, self.memory.load_int(
                mem_address, inst.width, inst.signed))
        elif op is ROp.LFD:
            mem_address = wrap64(self._read(inst.ra) + inst.imm)
            self.stats.loads += 1
            self._write(inst.rd, self.memory.load_float(mem_address))
        elif op is ROp.ST:
            mem_address = wrap64(self._read(inst.ra) + inst.imm)
            self.stats.stores += 1
            self.memory.store_int(mem_address, inst.width, self._read(inst.rd))
        elif op is ROp.STF:
            mem_address = wrap64(self._read(inst.ra) + inst.imm)
            self.stats.stores += 1
            self.memory.store_float(mem_address, self._read(inst.rd))
        elif op in (ROp.BNZ, ROp.BZ):
            value = self._read(inst.ra)
            taken = (value != 0) if op is ROp.BNZ else (value == 0)
            self.stats.branches += 1
            if taken:
                self.stats.taken_branches += 1
        elif op in (ROp.B, ROp.CALL, ROp.RET):
            taken = True
            self.stats.branches += 1
            self.stats.taken_branches += 1
        else:
            raise AssertionError(f"unhandled opcode {op}")
        return mem_address, taken


def _div(a: int, b: int) -> int:
    if b == 0:
        raise TrapError("integer divide by zero")
    return int(a / b)


def _rem(a: int, b: int) -> int:
    if b == 0:
        raise TrapError("integer remainder by zero")
    return a - int(a / b) * b


_INT_RR = {
    ROp.ADD: lambda a, b: a + b,
    ROp.SUB: lambda a, b: a - b,
    ROp.MUL: lambda a, b: a * b,
    ROp.DIV: _div,
    ROp.REM: _rem,
    ROp.AND: lambda a, b: a & b,
    ROp.OR: lambda a, b: a | b,
    ROp.XOR: lambda a, b: a ^ b,
    ROp.SHL: lambda a, b: a << (b & 63),
    ROp.SHR: lambda a, b: to_unsigned64(a) >> (b & 63),
    ROp.SRA: lambda a, b: a >> (b & 63),
    ROp.CMPEQ: lambda a, b: int(a == b),
    ROp.CMPNE: lambda a, b: int(a != b),
    ROp.CMPLT: lambda a, b: int(a < b),
    ROp.CMPLE: lambda a, b: int(a <= b),
    ROp.CMPGT: lambda a, b: int(a > b),
    ROp.CMPGE: lambda a, b: int(a >= b),
    ROp.CMPLTU: lambda a, b: int(to_unsigned64(a) < to_unsigned64(b)),
    ROp.CMPGEU: lambda a, b: int(to_unsigned64(a) >= to_unsigned64(b)),
}

_INT_RI = {
    ROp.ADDI: lambda a, imm: a + imm,
    ROp.ANDI: lambda a, imm: a & imm,
    ROp.ORI: lambda a, imm: a | imm,
    ROp.XORI: lambda a, imm: a ^ imm,
    ROp.SHLI: lambda a, imm: a << (imm & 63),
    ROp.SHRI: lambda a, imm: to_unsigned64(a) >> (imm & 63),
    ROp.SRAI: lambda a, imm: a >> (imm & 63),
}

_FLT_RR = {
    ROp.FADD: lambda a, b: a + b,
    ROp.FSUB: lambda a, b: a - b,
    ROp.FMUL: lambda a, b: a * b,
    ROp.FDIV: lambda a, b: a / b if b != 0.0 else _fdiv_trap(),
}

_FCMP_RR = {
    ROp.FCMPEQ: lambda a, b: int(a == b),
    ROp.FCMPLT: lambda a, b: int(a < b),
    ROp.FCMPLE: lambda a, b: int(a <= b),
}


def _fdiv_trap():
    raise TrapError("float divide by zero")


def run_program(program: RiscProgram, entry: str = "main",
                args: Optional[List[object]] = None,
                record: Optional[RiscTrace] = None,
                memory_size: int = 16 * 1024 * 1024):
    """One-shot convenience: run a program and return (result, simulator)."""
    simulator = RiscSimulator(program, memory_size)
    result = simulator.run(entry, args, record=record)
    return result, simulator
