"""IR well-formedness verifier.

Run after front-end construction and after each optimization pass in tests.
Raises :class:`VerificationError` describing the first problem found.
"""

from __future__ import annotations

from typing import Set

from repro.ir.function import Function, Module
from repro.ir.instructions import (
    CMP_OPS, FLOAT_BINOPS, INT_BINOPS, Opcode, value_type,
)
from repro.ir.values import VReg


class VerificationError(Exception):
    """The IR violates a structural or typing rule."""


def verify_module(module: Module) -> None:
    """Verify every function in the module; check call targets resolve."""
    for func in module.functions.values():
        verify_function(func, module)


def verify_function(func: Function, module: Module = None) -> None:
    if not func.blocks:
        raise VerificationError(f"{func.name}: function has no blocks")
    _verify_block_structure(func)
    _verify_labels(func)
    _verify_types(func)
    _verify_defs_reach_uses(func)
    if module is not None:
        _verify_calls(func, module)


def _verify_block_structure(func: Function) -> None:
    for block in func.blocks:
        if block.terminator is None:
            raise VerificationError(
                f"{func.name}/{block.label}: block is not terminated")
        for inst in block.instructions[:-1]:
            if inst.is_terminator:
                raise VerificationError(
                    f"{func.name}/{block.label}: terminator {inst} "
                    "in the middle of a block")


def _verify_labels(func: Function) -> None:
    for block in func.blocks:
        for label in block.successors():
            if not func.has_block(label):
                raise VerificationError(
                    f"{func.name}/{block.label}: branch to unknown "
                    f"label {label!r}")


def _expect(condition: bool, context: str, message: str) -> None:
    if not condition:
        raise VerificationError(f"{context}: {message}")


def _verify_types(func: Function) -> None:
    for block in func.blocks:
        for inst in block.instructions:
            ctx = f"{func.name}/{block.label}: {inst}"
            op = inst.op
            if op in INT_BINOPS or op in CMP_OPS and op.value in (
                    "eq", "ne", "lt", "le", "gt", "ge", "ult", "uge"):
                pass  # detailed checks below
            if op in INT_BINOPS:
                _expect(len(inst.args) == 2, ctx, "expects 2 operands")
                _expect(all(value_type(a).is_int for a in inst.args),
                        ctx, "integer op with non-integer operand")
                _expect(inst.dest is not None and inst.dest.type.is_int,
                        ctx, "integer op must define an i64")
            elif op in FLOAT_BINOPS:
                _expect(len(inst.args) == 2, ctx, "expects 2 operands")
                _expect(all(value_type(a).is_float for a in inst.args),
                        ctx, "float op with non-float operand")
                _expect(inst.dest is not None and inst.dest.type.is_float,
                        ctx, "float op must define an f64")
            elif op in CMP_OPS:
                _expect(len(inst.args) == 2, ctx, "expects 2 operands")
                _expect(inst.dest is not None and inst.dest.type.is_int,
                        ctx, "comparison must define an i64")
                want_float = op.value.startswith("f")
                for a in inst.args:
                    _expect(value_type(a).is_float == want_float,
                            ctx, "comparison operand type mismatch")
            elif op is Opcode.I2F:
                _expect(value_type(inst.args[0]).is_int, ctx, "i2f wants int")
                _expect(inst.dest.type.is_float, ctx, "i2f defines f64")
            elif op is Opcode.F2I:
                _expect(value_type(inst.args[0]).is_float, ctx, "f2i wants float")
                _expect(inst.dest.type.is_int, ctx, "f2i defines i64")
            elif op is Opcode.MOV:
                _expect(len(inst.args) == 1, ctx, "mov expects 1 operand")
                _expect(value_type(inst.args[0]) == inst.dest.type,
                        ctx, "mov type mismatch")
            elif op is Opcode.LOAD:
                _expect(len(inst.args) == 1, ctx, "load expects address")
                _expect(value_type(inst.args[0]).is_int, ctx,
                        "address must be integer")
                _expect(inst.dest is not None, ctx, "load must define a value")
            elif op is Opcode.STORE:
                _expect(len(inst.args) == 2, ctx, "store expects value, address")
                _expect(value_type(inst.args[1]).is_int, ctx,
                        "address must be integer")
            elif op is Opcode.CBR:
                _expect(len(inst.args) == 1, ctx, "cbr expects condition")
                _expect(len(inst.labels) == 2, ctx, "cbr expects 2 labels")
                _expect(value_type(inst.args[0]).is_int, ctx,
                        "condition must be integer")
            elif op is Opcode.BR:
                _expect(len(inst.labels) == 1, ctx, "br expects 1 label")
            elif op is Opcode.RET:
                if func.return_type is None:
                    _expect(not inst.args, ctx, "void function returns a value")
                else:
                    _expect(len(inst.args) == 1, ctx,
                            "non-void function must return a value")
                    _expect(value_type(inst.args[0]) == func.return_type,
                            ctx, "return type mismatch")
            elif op is Opcode.CALL:
                _expect(bool(inst.callee), ctx, "call without callee")


def _verify_calls(func: Function, module: Module) -> None:
    for inst in func.instructions():
        if inst.op is Opcode.CALL:
            if inst.callee not in module.functions:
                raise VerificationError(
                    f"{func.name}: call to unknown function {inst.callee!r}")
            callee = module.function(inst.callee)
            if len(inst.args) != len(callee.params):
                raise VerificationError(
                    f"{func.name}: call to {inst.callee} with "
                    f"{len(inst.args)} args, expected {len(callee.params)}")
            if inst.dest is not None and callee.return_type is None:
                raise VerificationError(
                    f"{func.name}: call captures result of void "
                    f"function {inst.callee}")


def _verify_defs_reach_uses(func: Function) -> None:
    """Conservative check: every used vreg has *some* def (param or write).

    A full dataflow reaching-definitions analysis is overkill for front-end
    validation; this catches the common builder mistakes (using a register
    from another function, or a typo'd register).
    """
    defined: Set[VReg] = set(func.params)
    for inst in func.instructions():
        if inst.dest is not None:
            defined.add(inst.dest)
    for block in func.blocks:
        for inst in block.instructions:
            for use in inst.uses:
                if use not in defined:
                    raise VerificationError(
                        f"{func.name}/{block.label}: use of undefined "
                        f"register {use} in {inst}")
