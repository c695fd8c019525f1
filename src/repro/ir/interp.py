"""Reference interpreter for the IR.

The interpreter is the golden model: every benchmark must produce the same
result here, on the RISC functional simulator, and on the TRIPS functional
simulator.  It executes with 64-bit two's-complement integer semantics and
IEEE-754 double floats over a flat byte-addressable memory.

The interpreter also gathers coarse dynamic statistics (executed IR
operations by category) used by tests to sanity-check backend statistics.
"""

from __future__ import annotations

import mmap
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.ir.function import Function, Module
from repro.ir.instructions import Instruction, Opcode
from repro.ir.types import (
    sign_extend, to_unsigned64, wrap64, zero_extend,
)
from repro.ir.values import Const, VReg


class TrapError(Exception):
    """The program performed an illegal operation (bad memory access,
    divide by zero, etc.)."""


#: Default memory size: 16 MB is ample for all scaled benchmark inputs.
DEFAULT_MEMORY_SIZE = 16 * 1024 * 1024

#: Hard cap on executed instructions, to turn infinite loops in benchmark
#: authoring into a crisp error instead of a hang.
DEFAULT_FUEL = 200_000_000


@dataclass
class InterpStats:
    """Dynamic operation counts gathered during interpretation."""

    executed: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    calls: int = 0
    by_opcode: Dict[Opcode, int] = field(default_factory=dict)

    def count(self, op: Opcode) -> None:
        self.executed += 1
        self.by_opcode[op] = self.by_opcode.get(op, 0) + 1


#: Private, so a forked worker gets copy-on-write pages rather than
#: shared ones (Windows has no ``MAP_PRIVATE``).
_PRIVATE = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") \
    else {}


class Memory:
    """Flat little-endian byte-addressable memory.

    Backed by a private anonymous mapping: pages are zero until first
    touched and go back to the system when the memory is freed, so a
    simulator costs only the pages its program uses, even while earlier
    runs' recordings stay allocated.
    """

    def __init__(self, size: int = DEFAULT_MEMORY_SIZE) -> None:
        self.size = size
        self.data = mmap.mmap(-1, size, **_PRIVATE)

    def check(self, address: int, width: int) -> None:
        if address < 0 or address + width > self.size:
            raise TrapError(f"memory access out of range: {address:#x}")

    def load_int(self, address: int, width: int, signed: bool) -> int:
        self.check(address, width)
        raw = int.from_bytes(self.data[address:address + width], "little")
        if signed:
            return sign_extend(raw, width)
        return zero_extend(raw, width)

    def store_int(self, address: int, width: int, value: int) -> None:
        self.check(address, width)
        raw = to_unsigned64(value) & ((1 << (width * 8)) - 1)
        self.data[address:address + width] = raw.to_bytes(width, "little")

    def load_float(self, address: int) -> float:
        self.check(address, 8)
        return struct.unpack_from("<d", self.data, address)[0]

    def store_float(self, address: int, value: float) -> None:
        self.check(address, 8)
        struct.pack_into("<d", self.data, address, value)

    def write_bytes(self, address: int, payload: bytes) -> None:
        self.check(address, len(payload))
        self.data[address:address + len(payload)] = payload

    def read_bytes(self, address: int, length: int) -> bytes:
        self.check(address, length)
        return bytes(self.data[address:address + length])


def _eval_int_binop(op: Opcode, a: int, b: int) -> int:
    if op is Opcode.ADD:
        return wrap64(a + b)
    if op is Opcode.SUB:
        return wrap64(a - b)
    if op is Opcode.MUL:
        return wrap64(a * b)
    if op is Opcode.DIV:
        if b == 0:
            raise TrapError("integer divide by zero")
        return wrap64(int(a / b))  # truncate toward zero
    if op is Opcode.REM:
        if b == 0:
            raise TrapError("integer remainder by zero")
        return wrap64(a - int(a / b) * b)
    if op is Opcode.AND:
        return wrap64(a & b)
    if op is Opcode.OR:
        return wrap64(a | b)
    if op is Opcode.XOR:
        return wrap64(a ^ b)
    if op is Opcode.SHL:
        return wrap64(a << (b & 63))
    if op is Opcode.SHR:
        return wrap64(to_unsigned64(a) >> (b & 63))
    if op is Opcode.SRA:
        return wrap64(a >> (b & 63))
    raise AssertionError(f"not an int binop: {op}")


_COMPARE_FNS = {
    Opcode.EQ: lambda a, b: a == b,
    Opcode.NE: lambda a, b: a != b,
    Opcode.LT: lambda a, b: a < b,
    Opcode.LE: lambda a, b: a <= b,
    Opcode.GT: lambda a, b: a > b,
    Opcode.GE: lambda a, b: a >= b,
    Opcode.ULT: lambda a, b: to_unsigned64(a) < to_unsigned64(b),
    Opcode.UGE: lambda a, b: to_unsigned64(a) >= to_unsigned64(b),
    Opcode.FEQ: lambda a, b: a == b,
    Opcode.FLT: lambda a, b: a < b,
    Opcode.FLE: lambda a, b: a <= b,
}


def _eval_compare(op: Opcode, a, b) -> int:
    return 1 if _COMPARE_FNS[op](a, b) else 0


def _eval_float_binop(op: Opcode, a: float, b: float) -> float:
    if op is Opcode.FADD:
        return a + b
    if op is Opcode.FSUB:
        return a - b
    if op is Opcode.FMUL:
        return a * b
    if op is Opcode.FDIV:
        if b == 0.0:
            raise TrapError("float divide by zero")
        return a / b
    raise AssertionError(f"not a float binop: {op}")


class Interpreter:
    """Executes a module starting from a named function."""

    def __init__(self, module: Module, memory_size: int = DEFAULT_MEMORY_SIZE,
                 fuel: int = DEFAULT_FUEL) -> None:
        self.module = module
        self.memory = Memory(memory_size)
        self.fuel = fuel
        self.stats = InterpStats()
        self._load_globals()

    def _load_globals(self) -> None:
        for data in self.module.globals.values():
            if data.init:
                self.memory.write_bytes(data.address, data.init)

    def run(self, entry: str = "main", args: Optional[List[object]] = None):
        """Execute ``entry`` with ``args``; returns its return value."""
        func = self.module.function(entry)
        return self._call(func, list(args or []))

    def _call(self, func: Function, args: List[object]):
        if len(args) != len(func.params):
            raise TrapError(
                f"{func.name} called with {len(args)} args, "
                f"expected {len(func.params)}")
        regs: Dict[VReg, object] = dict(zip(func.params, args))
        block = func.entry
        index = 0
        while True:
            if index >= len(block.instructions):
                raise TrapError(f"fell off the end of {func.name}/{block.label}")
            inst = block.instructions[index]
            self.fuel -= 1
            if self.fuel <= 0:
                raise TrapError("out of fuel (infinite loop?)")
            self.stats.count(inst.op)
            op = inst.op

            if op is Opcode.BR:
                self.stats.branches += 1
                block = func.block(inst.labels[0])
                index = 0
                continue
            if op is Opcode.CBR:
                self.stats.branches += 1
                cond = self._value(inst.args[0], regs)
                block = func.block(inst.labels[0] if cond else inst.labels[1])
                index = 0
                continue
            if op is Opcode.RET:
                if inst.args:
                    return self._value(inst.args[0], regs)
                return None
            if op is Opcode.CALL:
                self.stats.calls += 1
                callee = self.module.function(inst.callee)
                call_args = [self._value(a, regs) for a in inst.args]
                result = self._call(callee, call_args)
                if inst.dest is not None:
                    regs[inst.dest] = result
                index += 1
                continue

            regs_write, step = self._execute_straightline(inst, regs)
            if regs_write is not None:
                regs[inst.dest] = regs_write
            index += step

    def _execute_straightline(self, inst: Instruction, regs):
        """Execute a non-control-flow instruction; returns (dest value, 1)."""
        op = inst.op
        if op is Opcode.MOV:
            return self._value(inst.args[0], regs), 1
        if op is Opcode.LOAD:
            self.stats.loads += 1
            address = self._value(inst.args[0], regs) + inst.offset
            if inst.dest.type.is_float:
                return self.memory.load_float(address), 1
            return self.memory.load_int(address, inst.width, inst.signed), 1
        if op is Opcode.STORE:
            self.stats.stores += 1
            value = self._value(inst.args[0], regs)
            address = self._value(inst.args[1], regs) + inst.offset
            if isinstance(value, float):
                self.memory.store_float(address, value)
            else:
                self.memory.store_int(address, inst.width, value)
            return None, 1
        if op is Opcode.I2F:
            return float(self._value(inst.args[0], regs)), 1
        if op is Opcode.F2I:
            return wrap64(int(self._value(inst.args[0], regs))), 1

        a = self._value(inst.args[0], regs)
        b = self._value(inst.args[1], regs)
        if op in (Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV):
            return _eval_float_binop(op, a, b), 1
        if op in (Opcode.EQ, Opcode.NE, Opcode.LT, Opcode.LE, Opcode.GT,
                  Opcode.GE, Opcode.ULT, Opcode.UGE, Opcode.FEQ,
                  Opcode.FLT, Opcode.FLE):
            return _eval_compare(op, a, b), 1
        return _eval_int_binop(op, a, b), 1

    @staticmethod
    def _value(operand, regs):
        if isinstance(operand, Const):
            return operand.value
        try:
            return regs[operand]
        except KeyError:
            raise TrapError(f"read of undefined register {operand}") from None


def run_module(module: Module, entry: str = "main",
               args: Optional[List[object]] = None,
               memory_size: int = DEFAULT_MEMORY_SIZE):
    """One-shot convenience: interpret ``module`` and return (result, interp)."""
    interp = Interpreter(module, memory_size)
    result = interp.run(entry, args)
    return result, interp
