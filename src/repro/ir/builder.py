"""Ergonomic construction API for IR modules.

The :class:`Builder` targets a current basic block inside a current
function and offers:

* one method per opcode (``add``, ``mul``, ``load``...), all accepting raw
  Python ints/floats, which are auto-wrapped into :class:`Const`;
* structured control flow via context managers (:meth:`loop`,
  :meth:`if_then`, :meth:`if_then_else`, :meth:`while_loop`), which is how
  the benchmark suite expresses its kernels.

Structured helpers only ever create reducible control flow, which keeps the
TRIPS hyperblock former simple and mirrors what a C front end would emit.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.ir.function import Function, Module
from repro.ir.instructions import Instruction, Opcode
from repro.ir.types import Type
from repro.ir.values import Const, VReg, const


def _as_value(value: object) -> object:
    if isinstance(value, (VReg, Const)):
        return value
    return const(value)


class Builder:
    """Stateful builder appending instructions to a current block."""

    def __init__(self, module: Optional[Module] = None) -> None:
        self.module = module if module is not None else Module()
        self.func: Optional[Function] = None
        self._block = None
        self._label_counter = 0

    # -- function / block management --------------------------------------

    def function(self, name: str, param_types: Sequence[Type] = (),
                 return_type: Optional[Type] = None,
                 param_names: Sequence[str] = ()) -> List[VReg]:
        """Start a new function; returns its parameter registers."""
        params = []
        for i, ptype in enumerate(param_types):
            pname = param_names[i] if i < len(param_names) else f"arg{i}"
            params.append(VReg(i, ptype, pname))
        self.func = Function(name, params, return_type)
        self.module.add_function(self.func)
        self._block = self.func.add_block("entry")
        return params

    def block(self, label: str):
        """Create a new block (without switching to it)."""
        return self.func.add_block(label)

    def switch_to(self, block_or_label) -> None:
        """Make a block the insertion point."""
        if isinstance(block_or_label, str):
            block_or_label = self.func.block(block_or_label)
        self._block = block_or_label

    def fresh_label(self, hint: str = "bb") -> str:
        self._label_counter += 1
        return f"{hint}{self._label_counter}"

    def vreg(self, type_: Type = Type.I64, name: str = "") -> VReg:
        return self.func.new_vreg(type_, name)

    def global_array(self, name: str, count: int, width: int = 8,
                     init: bytes = b"") -> int:
        """Allocate a global array; returns its base address constant."""
        data = self.module.add_global(name, count * width, init, align=max(width, 8))
        return data.address

    # -- instruction emission ----------------------------------------------

    def emit(self, inst: Instruction) -> Optional[VReg]:
        self._block.append(inst)
        return inst.dest

    def _binop(self, op: Opcode, a: object, b: object,
               type_: Type = Type.I64, name: str = "") -> VReg:
        dest = self.vreg(type_, name)
        self.emit(Instruction(op, dest, [_as_value(a), _as_value(b)]))
        return dest

    # Integer arithmetic / logic.
    def add(self, a, b, name=""):
        return self._binop(Opcode.ADD, a, b, Type.I64, name)

    def sub(self, a, b, name=""):
        return self._binop(Opcode.SUB, a, b, Type.I64, name)

    def mul(self, a, b, name=""):
        return self._binop(Opcode.MUL, a, b, Type.I64, name)

    def div(self, a, b, name=""):
        return self._binop(Opcode.DIV, a, b, Type.I64, name)

    def rem(self, a, b, name=""):
        return self._binop(Opcode.REM, a, b, Type.I64, name)

    def and_(self, a, b, name=""):
        return self._binop(Opcode.AND, a, b, Type.I64, name)

    def or_(self, a, b, name=""):
        return self._binop(Opcode.OR, a, b, Type.I64, name)

    def xor(self, a, b, name=""):
        return self._binop(Opcode.XOR, a, b, Type.I64, name)

    def shl(self, a, b, name=""):
        return self._binop(Opcode.SHL, a, b, Type.I64, name)

    def shr(self, a, b, name=""):
        return self._binop(Opcode.SHR, a, b, Type.I64, name)

    def sra(self, a, b, name=""):
        return self._binop(Opcode.SRA, a, b, Type.I64, name)

    # Integer comparisons.
    def eq(self, a, b, name=""):
        return self._binop(Opcode.EQ, a, b, Type.I64, name)

    def ne(self, a, b, name=""):
        return self._binop(Opcode.NE, a, b, Type.I64, name)

    def lt(self, a, b, name=""):
        return self._binop(Opcode.LT, a, b, Type.I64, name)

    def le(self, a, b, name=""):
        return self._binop(Opcode.LE, a, b, Type.I64, name)

    def gt(self, a, b, name=""):
        return self._binop(Opcode.GT, a, b, Type.I64, name)

    def ge(self, a, b, name=""):
        return self._binop(Opcode.GE, a, b, Type.I64, name)

    def ult(self, a, b, name=""):
        return self._binop(Opcode.ULT, a, b, Type.I64, name)

    def uge(self, a, b, name=""):
        return self._binop(Opcode.UGE, a, b, Type.I64, name)

    # Floating point.
    def fadd(self, a, b, name=""):
        return self._binop(Opcode.FADD, a, b, Type.F64, name)

    def fsub(self, a, b, name=""):
        return self._binop(Opcode.FSUB, a, b, Type.F64, name)

    def fmul(self, a, b, name=""):
        return self._binop(Opcode.FMUL, a, b, Type.F64, name)

    def fdiv(self, a, b, name=""):
        return self._binop(Opcode.FDIV, a, b, Type.F64, name)

    def feq(self, a, b, name=""):
        return self._binop(Opcode.FEQ, a, b, Type.I64, name)

    def flt(self, a, b, name=""):
        return self._binop(Opcode.FLT, a, b, Type.I64, name)

    def fle(self, a, b, name=""):
        return self._binop(Opcode.FLE, a, b, Type.I64, name)

    # Conversions and moves.
    def i2f(self, a, name="") -> VReg:
        dest = self.vreg(Type.F64, name)
        self.emit(Instruction(Opcode.I2F, dest, [_as_value(a)]))
        return dest

    def f2i(self, a, name="") -> VReg:
        dest = self.vreg(Type.I64, name)
        self.emit(Instruction(Opcode.F2I, dest, [_as_value(a)]))
        return dest

    def mov(self, a, name="") -> VReg:
        value = _as_value(a)
        dest = self.vreg(value.type, name)
        self.emit(Instruction(Opcode.MOV, dest, [value]))
        return dest

    def assign(self, dest: VReg, a) -> VReg:
        """Move a value into an *existing* register (loop-carried update)."""
        self.emit(Instruction(Opcode.MOV, dest, [_as_value(a)]))
        return dest

    # Memory.
    def load(self, addr, width: int = 8, signed: bool = True,
             type_: Type = Type.I64, offset: int = 0, name: str = "") -> VReg:
        dest = self.vreg(type_, name)
        self.emit(Instruction(Opcode.LOAD, dest, [_as_value(addr)],
                              width=width, signed=signed, offset=offset))
        return dest

    def store(self, value, addr, width: int = 8, offset: int = 0) -> None:
        self.emit(Instruction(Opcode.STORE, None,
                              [_as_value(value), _as_value(addr)],
                              width=width, offset=offset))

    def fload(self, addr, offset: int = 0, name: str = "") -> VReg:
        return self.load(addr, width=8, type_=Type.F64, offset=offset, name=name)

    def fstore(self, value, addr, offset: int = 0) -> None:
        self.store(value, addr, width=8, offset=offset)

    # Control flow.
    def br(self, label: str) -> None:
        self.emit(Instruction(Opcode.BR, labels=(label,)))

    def cbr(self, cond, if_true: str, if_false: str) -> None:
        self.emit(Instruction(Opcode.CBR, args=[_as_value(cond)],
                              labels=(if_true, if_false)))

    def ret(self, value=None) -> None:
        args = [] if value is None else [_as_value(value)]
        self.emit(Instruction(Opcode.RET, args=args))

    def call(self, callee: str, args: Sequence[object] = (),
             return_type: Optional[Type] = None, name: str = "") -> Optional[VReg]:
        dest = self.vreg(return_type, name) if return_type is not None else None
        self.emit(Instruction(Opcode.CALL, dest,
                              [_as_value(a) for a in args], callee=callee))
        return dest

    # -- structured control flow -------------------------------------------

    @contextlib.contextmanager
    def loop(self, start, stop, step=1, name: str = "i") -> Iterator[VReg]:
        """Counted loop ``for i in range(start, stop, step)`` (step > 0 uses
        ``<`` exit test; step < 0 uses ``>``)."""
        step_value = step.value if isinstance(step, Const) else step
        if isinstance(step_value, VReg):
            raise ValueError("loop step must be a compile-time constant")
        head = self.fresh_label("loop_head")
        body = self.fresh_label("loop_body")
        done = self.fresh_label("loop_done")
        induction = self.mov(start, name=name)
        self.br(head)

        self.block(head)
        self.switch_to(head)
        if step_value > 0:
            cond = self.lt(induction, stop)
        else:
            cond = self.gt(induction, stop)
        self.cbr(cond, body, done)

        self.block(body)
        self.switch_to(body)
        yield induction
        bumped = self.add(induction, step_value)
        self.assign(induction, bumped)
        self.br(head)

        self.block(done)
        self.switch_to(done)

    @contextlib.contextmanager
    def while_loop(self, cond_fn) -> Iterator[None]:
        """``while cond_fn()`` loop; cond_fn emits code and returns a value."""
        head = self.fresh_label("while_head")
        body = self.fresh_label("while_body")
        done = self.fresh_label("while_done")
        self.br(head)
        self.block(head)
        self.switch_to(head)
        cond = cond_fn()
        self.cbr(cond, body, done)
        self.block(body)
        self.switch_to(body)
        yield None
        self.br(head)
        self.block(done)
        self.switch_to(done)

    @contextlib.contextmanager
    def if_then(self, cond) -> Iterator[None]:
        then = self.fresh_label("then")
        join = self.fresh_label("join")
        self.cbr(cond, then, join)
        self.block(then)
        self.switch_to(then)
        yield None
        if self._block.terminator is None:
            self.br(join)
        self.block(join)
        self.switch_to(join)

    @contextlib.contextmanager
    def if_then_else(self, cond) -> Iterator[Tuple[object, object]]:
        """Yields (then_marker, else_marker) context managers.

        Usage::

            with b.if_then_else(cond) as (then, otherwise):
                with then:
                    ...
                with otherwise:
                    ...
        """
        then = self.fresh_label("then")
        other = self.fresh_label("else")
        join = self.fresh_label("join")
        self.cbr(cond, then, other)

        builder = self

        @contextlib.contextmanager
        def arm(label: str):
            builder.block(label)
            builder.switch_to(label)
            yield None
            if builder._block.terminator is None:
                builder.br(join)

        yield arm(then), arm(other)
        self.block(join)
        self.switch_to(join)
