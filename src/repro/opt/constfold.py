"""Constant folding and algebraic simplification.

Folds instructions whose operands are all constants, and applies algebraic
identities (x+0, x*1, x*0, x*2^k -> shl, x-x, x^x).  Folded instructions
become MOVs of constants so that downstream copy propagation can dissolve
them entirely.
"""

from __future__ import annotations

from repro.ir.function import Function, Module
from repro.ir.instructions import Instruction, Opcode
from repro.ir.interp import OPERATIONS, TrapError
from repro.ir.values import Const, const


def fold_module(module: Module) -> int:
    """Fold constants in every function; returns number of rewrites."""
    return sum(fold_function(f) for f in module.functions.values())


def fold_function(func: Function) -> int:
    rewrites = 0
    for block in func.blocks:
        for i, inst in enumerate(block.instructions):
            new = _fold_instruction(inst)
            if new is not None:
                block.instructions[i] = new
                rewrites += 1
    return rewrites


def _fold_instruction(inst: Instruction):
    operation = OPERATIONS.get(inst.op)
    if operation is not None and all(isinstance(a, Const)
                                     for a in inst.args):
        try:
            value = operation(*[a.value for a in inst.args])
        except TrapError:
            return None  # preserve the trap at run time
        return _mov(inst, value)
    return _simplify_algebraic(inst)


def _mov(inst: Instruction, value) -> Instruction:
    return Instruction(Opcode.MOV, inst.dest, [const(value)])


def _is_const(value, want) -> bool:
    return isinstance(value, Const) and value.value == want


def _simplify_algebraic(inst: Instruction):
    op, args = inst.op, inst.args
    if op is Opcode.ADD:
        if _is_const(args[1], 0):
            return Instruction(Opcode.MOV, inst.dest, [args[0]])
        if _is_const(args[0], 0):
            return Instruction(Opcode.MOV, inst.dest, [args[1]])
    elif op is Opcode.SUB:
        if _is_const(args[1], 0):
            return Instruction(Opcode.MOV, inst.dest, [args[0]])
        if args[0] == args[1] and not isinstance(args[0], Const):
            return _mov(inst, 0)
    elif op is Opcode.MUL:
        for a, b in ((args[0], args[1]), (args[1], args[0])):
            if _is_const(b, 0):
                return _mov(inst, 0)
            if _is_const(b, 1):
                return Instruction(Opcode.MOV, inst.dest, [a])
            if isinstance(b, Const) and b.value > 1 and _is_power_of_two(b.value):
                shift = b.value.bit_length() - 1
                return Instruction(Opcode.SHL, inst.dest, [a, const(shift)])
    elif op in (Opcode.SHL, Opcode.SHR, Opcode.SRA):
        if _is_const(args[1], 0):
            return Instruction(Opcode.MOV, inst.dest, [args[0]])
    elif op is Opcode.XOR:
        if args[0] == args[1] and not isinstance(args[0], Const):
            return _mov(inst, 0)
        if _is_const(args[1], 0):
            return Instruction(Opcode.MOV, inst.dest, [args[0]])
    elif op in (Opcode.AND, Opcode.OR):
        if args[0] == args[1] and not isinstance(args[0], Const):
            return Instruction(Opcode.MOV, inst.dest, [args[0]])
        if op is Opcode.OR and _is_const(args[1], 0):
            return Instruction(Opcode.MOV, inst.dest, [args[0]])
        if op is Opcode.AND and _is_const(args[1], 0):
            return _mov(inst, 0)
    return None


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


def flatten_add_chains(func: Function) -> int:
    """Reassociate constant-add chains: ``b = a+c1; d = b+c2 -> d = a+(c1+c2)``.

    Serial chains like unrolled induction updates (``i+1+1+1...``) become
    parallel adds off a common root, shortening the dataflow critical path
    — the induction rewrite every unrolling compiler performs.  Local to a
    block; a mapping dies when its root or alias is redefined.
    """
    from repro.ir.values import VReg, const as make_const

    rewrites = 0
    predecessors = func.predecessors()
    end_state = {}   # label -> base mapping at block end
    for block in func.blocks:
        # Chains may span the blocks of a test-replicated unrolled loop:
        # inherit the mapping through a unique already-processed
        # predecessor (sound: that is the only way control arrives here).
        base = {}   # reg -> (root reg, accumulated constant)
        preds = predecessors.get(block.label, [])
        if len(preds) == 1 and preds[0] in end_state:
            base = dict(end_state[preds[0]])
        for inst in block.instructions:
            is_const_add = (
                inst.op is Opcode.ADD and len(inst.args) == 2
                and isinstance(inst.args[0], VReg)
                and isinstance(inst.args[1], Const))
            new_entry = None
            if is_const_add:
                root, offset = base.get(inst.args[0],
                                        (inst.args[0], 0))
                total = offset + inst.args[1].value
                if root != inst.args[0] or total != inst.args[1].value:
                    inst.args = [root, make_const(total)]
                    rewrites += 1
                if inst.dest is not None and inst.dest != root:
                    new_entry = (root, total)
            elif inst.op is Opcode.MOV and isinstance(inst.args[0], VReg):
                # Aliases propagate the mapping: i = mov x keeps x's root.
                # When the root is the register being redefined (the
                # loop-carried update i = mov(i+1)), re-root the chain at
                # the mov's source, which is a stable fresh temporary.
                source = inst.args[0]
                alias = base.get(source)
                if (alias is None or alias[0] == inst.dest) \
                        and source != inst.dest:
                    alias = (source, 0)
                if alias is not None and alias[0] != inst.dest:
                    new_entry = alias
            dest = inst.dest
            if dest is not None:
                base.pop(dest, None)
                for key in [k for k, (r, _o) in base.items() if r == dest]:
                    del base[key]
                if new_entry is not None:
                    base[dest] = new_entry
        end_state[block.label] = base
    return rewrites


def flatten_module(module: Module) -> int:
    return sum(flatten_add_chains(f) for f in module.functions.values())
