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
from typing import Callable, Dict, List, Optional

from repro.ir.function import BasicBlock, Function, Module
from repro.ir.instructions import Instruction, Opcode
from repro.ir.types import (
    MASK64, SIGN64, sign_extend, to_unsigned64, wrap64, zero_extend,
)
from repro.ir.values import Const


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

    def count(self, op: Opcode, times: int = 1) -> None:
        """Count ``times`` executions of ``op``."""
        self.executed += times
        self.by_opcode[op] = self.by_opcode.get(op, 0) + times
        if op is Opcode.LOAD:
            self.loads += times
        elif op is Opcode.STORE:
            self.stores += times
        elif op is Opcode.BR or op is Opcode.CBR:
            self.branches += times
        elif op is Opcode.CALL:
            self.calls += times


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


def int_div(a: int, b: int) -> int:
    """Signed 64-bit division truncating toward zero, exact for every
    operand (``int(a / b)`` would round through a 53-bit double)."""
    if b == 0:
        raise TrapError("integer divide by zero")
    quotient = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        quotient = -quotient
    return ((quotient + SIGN64) & MASK64) - SIGN64


def int_rem(a: int, b: int) -> int:
    """The remainder of :func:`int_div`: ``a - quotient * b``, with the
    sign of the dividend."""
    if b == 0:
        raise TrapError("integer remainder by zero")
    quotient = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        quotient = -quotient
    return ((a - quotient * b + SIGN64) & MASK64) - SIGN64


def _float_div(a: float, b: float) -> float:
    if b == 0.0:
        raise TrapError("float divide by zero")
    return a / b


#: The value each computing opcode yields from its operand values: the
#: one semantics table, shared by the interpreter, the constant folder and
#: the RISC simulator.  ``((v + SIGN64) & MASK64) - SIGN64`` is
#: ``wrap64(v)`` without the call.
OPERATIONS: Dict[Opcode, Callable[..., object]] = {
    Opcode.ADD: lambda a, b: ((a + b + SIGN64) & MASK64) - SIGN64,
    Opcode.SUB: lambda a, b: ((a - b + SIGN64) & MASK64) - SIGN64,
    Opcode.MUL: lambda a, b: ((a * b + SIGN64) & MASK64) - SIGN64,
    Opcode.DIV: int_div,
    Opcode.REM: int_rem,
    Opcode.AND: lambda a, b: (((a & b) + SIGN64) & MASK64) - SIGN64,
    Opcode.OR: lambda a, b: (((a | b) + SIGN64) & MASK64) - SIGN64,
    Opcode.XOR: lambda a, b: (((a ^ b) + SIGN64) & MASK64) - SIGN64,
    Opcode.SHL: lambda a, b: (((a << (b & 63)) + SIGN64) & MASK64) - SIGN64,
    Opcode.SHR: lambda a, b: ((((a & MASK64) >> (b & 63)) + SIGN64)
                              & MASK64) - SIGN64,
    Opcode.SRA: lambda a, b: (((a >> (b & 63)) + SIGN64) & MASK64) - SIGN64,
    Opcode.EQ: lambda a, b: 1 if a == b else 0,
    Opcode.NE: lambda a, b: 1 if a != b else 0,
    Opcode.LT: lambda a, b: 1 if a < b else 0,
    Opcode.LE: lambda a, b: 1 if a <= b else 0,
    Opcode.GT: lambda a, b: 1 if a > b else 0,
    Opcode.GE: lambda a, b: 1 if a >= b else 0,
    Opcode.ULT: lambda a, b: 1 if (a & MASK64) < (b & MASK64) else 0,
    Opcode.UGE: lambda a, b: 1 if (a & MASK64) >= (b & MASK64) else 0,
    Opcode.FADD: lambda a, b: a + b,
    Opcode.FSUB: lambda a, b: a - b,
    Opcode.FMUL: lambda a, b: a * b,
    Opcode.FDIV: _float_div,
    Opcode.FEQ: lambda a, b: 1 if a == b else 0,
    Opcode.FLT: lambda a, b: 1 if a < b else 0,
    Opcode.FLE: lambda a, b: 1 if a <= b else 0,
    Opcode.I2F: float,
    Opcode.F2I: lambda a: wrap64(int(a)),
}

#: Decoded instruction kinds, in the order the interpreter tests them.
_BINARY, _MOV, _CBR, _BR, _LOAD, _STORE, _UNARY, _RET, _CALL = range(9)

_UNARY_OPS = frozenset({Opcode.I2F, Opcode.F2I})

#: Opcodes by the index a decoded instruction counts itself under.
_OPCODES = tuple(Opcode)
_OPCODE_INDEX = {op: index for index, op in enumerate(_OPCODES)}

#: The value of a register slot no instruction has written yet.
_UNDEFINED = object()


class _Decoded:
    """A function decoded for one interpreter.

    Each block is a list of instruction tuples ``(kind, opcode index,
    ...)`` ending at its first terminator; a branch holds its target's
    list.  Registers and constants are slots of a list register file:
    ``frame`` is a new call's file (registers undefined, constants in
    place) and ``operands`` names each slot's operand for trap messages.
    """

    def __init__(self, func: Function) -> None:
        self.frame: List[object] = []
        self.operands: List[object] = []
        self.labels: Dict[int, str] = {}
        self._slots: Dict[object, int] = {}
        self._blocks: Dict[BasicBlock, list] = {}
        self._pending: List[BasicBlock] = []
        self.params = [self._register(p) for p in func.params]
        self.entry = self._block(func.entry)
        while self._pending:
            block = self._pending.pop()
            body = self._blocks[block]
            for inst in block.instructions:
                body.append(self._instruction(func, inst))
                if inst.is_terminator:
                    break

    def _block(self, block: BasicBlock) -> list:
        body = self._blocks.get(block)
        if body is None:
            body = self._blocks[block] = []
            self.labels[id(body)] = block.label
            self._pending.append(block)
        return body

    def _slot(self, initial: object, operand: object) -> int:
        self.frame.append(initial)
        self.operands.append(operand)
        return len(self.frame) - 1

    def _register(self, reg: object) -> int:
        # Keyed by VReg equality, as the interpreter's register dict was.
        slot = self._slots.get(reg)
        if slot is None:
            slot = self._slots[reg] = self._slot(_UNDEFINED, reg)
        return slot

    def _operand(self, value: object) -> int:
        if isinstance(value, Const):
            return self._slot(value.value, value)
        return self._register(value)

    def _instruction(self, func: Function, inst: Instruction) -> tuple:
        op = inst.op
        index = _OPCODE_INDEX[op]
        args = [self._operand(a) for a in inst.args]
        if op in _UNARY_OPS:
            return (_UNARY, index, self._register(inst.dest), args[0],
                    OPERATIONS[op])
        if op in OPERATIONS:
            return (_BINARY, index, self._register(inst.dest), args[0],
                    args[1], OPERATIONS[op])
        if op is Opcode.MOV:
            return (_MOV, index, self._register(inst.dest), args[0])
        if op is Opcode.CBR:
            return (_CBR, index, args[0],
                    self._block(func.block(inst.labels[0])),
                    self._block(func.block(inst.labels[1])))
        if op is Opcode.BR:
            return (_BR, index, self._block(func.block(inst.labels[0])))
        if op is Opcode.LOAD:
            return (_LOAD, index, self._register(inst.dest), args[0],
                    inst.offset, inst.width, inst.signed,
                    inst.dest.type.is_float)
        if op is Opcode.STORE:
            return (_STORE, index, args[0], args[1], inst.offset,
                    inst.width)
        if op is Opcode.RET:
            return (_RET, index, args[0] if args else -1)
        if op is Opcode.CALL:
            return (_CALL, index, inst.callee, args,
                    self._register(inst.dest))
        raise AssertionError(f"unhandled opcode {op}")

    def undefined(self, slot: int) -> TrapError:
        return TrapError(f"read of undefined register {self.operands[slot]}")


class Interpreter:
    """Executes a module starting from a named function.

    Each function is decoded on its first call within this interpreter
    (never cached on the module: optimizer passes rewrite instructions
    in place), and executions are counted per opcode and folded into
    :attr:`stats` when :meth:`run` returns or traps.
    """

    def __init__(self, module: Module, memory_size: int = DEFAULT_MEMORY_SIZE,
                 fuel: int = DEFAULT_FUEL) -> None:
        self.module = module
        self.memory = Memory(memory_size)
        self.fuel = fuel
        self.stats = InterpStats()
        self._decoded: Dict[Function, _Decoded] = {}
        self._counts = [0] * len(_OPCODES)
        self._load_globals()

    def _load_globals(self) -> None:
        for data in self.module.globals.values():
            if data.init:
                self.memory.write_bytes(data.address, data.init)

    def run(self, entry: str = "main", args: Optional[List[object]] = None):
        """Execute ``entry`` with ``args``; returns its return value."""
        func = self.module.function(entry)
        try:
            return self._call(func, list(args or []))
        finally:
            counts = self._counts
            for index, times in enumerate(counts):
                if times:
                    self.stats.count(_OPCODES[index], times)
                    counts[index] = 0

    def _call(self, func: Function, args: List[object]):
        if len(args) != len(func.params):
            raise TrapError(
                f"{func.name} called with {len(args)} args, "
                f"expected {len(func.params)}")
        code = self._decoded.get(func)
        if code is None:
            code = self._decoded[func] = _Decoded(func)
        regs = code.frame.copy()
        for slot, value in zip(code.params, args):
            regs[slot] = value
        counts = self._counts
        memory = self.memory
        undefined = _UNDEFINED
        fuel = self.fuel
        block = code.entry
        try:
            while True:
                for inst in block:
                    fuel -= 1
                    if fuel <= 0:
                        raise TrapError("out of fuel (infinite loop?)")
                    counts[inst[1]] += 1
                    kind = inst[0]
                    if kind == _BINARY:
                        _, _, dest, x, y, operation = inst
                        a = regs[x]
                        if a is undefined:
                            raise code.undefined(x)
                        b = regs[y]
                        if b is undefined:
                            raise code.undefined(y)
                        regs[dest] = operation(a, b)
                    elif kind == _MOV:
                        value = regs[inst[3]]
                        if value is undefined:
                            raise code.undefined(inst[3])
                        regs[inst[2]] = value
                    elif kind == _CBR:
                        _, _, x, taken, fallthrough = inst
                        cond = regs[x]
                        if cond is undefined:
                            raise code.undefined(x)
                        block = taken if cond else fallthrough
                        break
                    elif kind == _BR:
                        block = inst[2]
                        break
                    elif kind == _LOAD:
                        _, _, dest, x, offset, width, signed, is_float = inst
                        base = regs[x]
                        if base is undefined:
                            raise code.undefined(x)
                        if is_float:
                            regs[dest] = memory.load_float(base + offset)
                        else:
                            regs[dest] = memory.load_int(base + offset,
                                                         width, signed)
                    elif kind == _STORE:
                        _, _, x, y, offset, width = inst
                        value = regs[x]
                        if value is undefined:
                            raise code.undefined(x)
                        base = regs[y]
                        if base is undefined:
                            raise code.undefined(y)
                        if isinstance(value, float):
                            memory.store_float(base + offset, value)
                        else:
                            memory.store_int(base + offset, width, value)
                    elif kind == _UNARY:
                        _, _, dest, x, operation = inst
                        value = regs[x]
                        if value is undefined:
                            raise code.undefined(x)
                        regs[dest] = operation(value)
                    elif kind == _RET:
                        if inst[2] < 0:
                            return None
                        value = regs[inst[2]]
                        if value is undefined:
                            raise code.undefined(inst[2])
                        return value
                    else:
                        _, _, callee, arg_slots, dest = inst
                        function = self.module.function(callee)
                        values = []
                        for x in arg_slots:
                            value = regs[x]
                            if value is undefined:
                                raise code.undefined(x)
                            values.append(value)
                        self.fuel = fuel
                        try:
                            regs[dest] = self._call(function, values)
                        finally:
                            fuel = self.fuel
                else:
                    raise TrapError(f"fell off the end of {func.name}/"
                                    f"{code.labels[id(block)]}")
        finally:
            self.fuel = fuel


def run_module(module: Module, entry: str = "main",
               args: Optional[List[object]] = None,
               memory_size: int = DEFAULT_MEMORY_SIZE):
    """One-shot convenience: interpret ``module`` and return (result, interp)."""
    interp = Interpreter(module, memory_size)
    result = interp.run(entry, args)
    return result, interp
