"""Test-replicated loop unrolling.

The pass targets the canonical loop shape the front-end builder produces::

    head:  ...cond computation...
           cbr cond -> body, exit
    body:  ...work...
           br head

and rewrites it, for unroll factor K, into a chain::

    head:   cond; cbr -> body.0, exit
    body.0: work; cond'; cbr -> body.1, exit
    body.1: work; cond'; cbr -> body.2, exit
    ...
    body.K-1: work; br head

Replicating the exit test before every copy keeps the transformation exact
for *any* trip count and step — no prologue/epilogue or divisibility
reasoning is needed.  On the RISC target this saves the K-1 unconditional
back-branches; on the TRIPS target the chain is exactly the multi-exit
region the hyperblock former merges into one large block (TRIPS blocks
allow up to 8 exits), which is the paper's primary mechanism for filling
128-instruction blocks.

Register renaming rule for cloned copies: registers that are *read before
written* inside the region (induction variables, accumulators) keep their
identity so loop-carried updates chain correctly; purely local temporaries
get fresh registers per copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.ir.function import BasicBlock, Function, Module
from repro.ir.instructions import Instruction, Opcode
from repro.ir.values import VReg


@dataclass
class _Loop:
    head: BasicBlock
    body: BasicBlock
    exit_label: str
    body_is_true_arm: bool


def find_simple_loops(func: Function) -> List[_Loop]:
    """Find head/body loop pairs matching the canonical shape."""
    preds = func.predecessors()
    loops = []
    for head in func.blocks:
        term = head.terminator
        if term is None or term.op is not Opcode.CBR:
            continue
        for arm, other in ((0, 1), (1, 0)):
            body_label = term.labels[arm]
            exit_label = term.labels[other]
            if body_label == head.label or not func.has_block(body_label):
                continue
            body = func.block(body_label)
            body_term = body.terminator
            if body_term is None or body_term.op is not Opcode.BR:
                continue
            if body_term.labels[0] != head.label:
                continue
            if preds[body_label] != [head.label]:
                continue
            loops.append(_Loop(head, body, exit_label, arm == 0))
            break
    return loops


def _read_before_written(instructions: List[Instruction]) -> set:
    pinned = set()
    written = set()
    for inst in instructions:
        for reg in inst.uses:
            if reg not in written:
                pinned.add(reg)
        if inst.dest is not None:
            written.add(inst.dest)
    return pinned


def _clone_with_renames(instructions: List[Instruction], pinned: set,
                        func: Function,
                        rename: Dict[VReg, VReg]) -> List[Instruction]:
    clones = []
    for inst in instructions:
        args = [rename.get(a, a) if isinstance(a, VReg) else a
                for a in inst.args]
        dest = inst.dest
        if dest is not None and dest not in pinned:
            fresh = func.new_vreg(dest.type, dest.name)
            rename[dest] = fresh
            dest = fresh
        clones.append(Instruction(
            inst.op, dest, args, inst.labels, inst.callee,
            inst.width, inst.signed, inst.offset))
    return clones


def _constant_trip_count(func: Function, loop: _Loop):
    """(start, stop, step) when all are compile-time constants, else None.

    Matches the canonical counted-loop shape the builder emits: the head
    condition ``lt/gt induction, stop`` and a body ending
    ``tmp = add induction, step; induction = mov tmp``; the initial value
    is the last ``induction = mov const`` in a non-body predecessor.
    """
    from repro.ir.values import Const

    term = loop.head.terminator
    cond = term.args[0]
    cmp_inst = None
    for inst in loop.head.body:
        if inst.dest == cond:
            cmp_inst = inst
    if cmp_inst is None or cmp_inst.op not in (Opcode.LT, Opcode.GT):
        return None
    induction = cmp_inst.args[0]
    stop = cmp_inst.args[1]
    if not isinstance(induction, VReg) or not isinstance(stop, Const):
        return None
    # The bump: last two body instructions.
    body = loop.body.body
    if len(body) < 2:
        return None
    bump, writeback = body[-2], body[-1]
    if not (writeback.op is Opcode.MOV and writeback.dest == induction
            and bump.dest is not None and writeback.args[0] == bump.dest
            and bump.op is Opcode.ADD and bump.args[0] == induction
            and isinstance(bump.args[1], Const)):
        return None
    step = bump.args[1].value
    if step == 0:
        return None
    # Initial value: scan non-body predecessors for the defining mov.
    preds = func.predecessors()[loop.head.label]
    start = None
    for label in preds:
        if label == loop.body.label or label.startswith(loop.body.label):
            continue
        for inst in func.block(label).instructions:
            if inst.dest == induction:
                if inst.op is Opcode.MOV and isinstance(inst.args[0], Const):
                    start = inst.args[0].value
                else:
                    return None   # written non-constantly on entry
    if start is None:
        return None
    # No other writers of the induction anywhere else.
    writers = sum(1 for inst in func.instructions()
                  if inst.dest == induction)
    if writers != 2:   # the init mov and the loop writeback
        return None
    if cmp_inst.op is Opcode.LT and step > 0:
        trips = max(0, -(-(stop.value - start) // step))
    elif cmp_inst.op is Opcode.GT and step < 0:
        trips = max(0, -(-(start - stop.value) // -step))
    else:
        return None
    return trips


def _exact_unroll(func: Function, loop: _Loop, factor: int) -> bool:
    """Unroll without intermediate exit tests (trip count divides factor).

    This is the transformation behind the paper's hand-optimized kernels:
    one test per block of ``factor`` iterations, letting the compiler fill
    128-instruction TRIPS blocks with straight dataflow.
    """
    body_work = loop.body.body
    pinned = _read_before_written(body_work) | _used_after_pins(func, loop)
    chain: List[Instruction] = list(body_work)
    for _copy in range(1, factor):
        rename: Dict[VReg, VReg] = {}
        chain.extend(_clone_with_renames(body_work, pinned, func, rename))
    chain.append(Instruction(Opcode.BR, labels=(loop.head.label,)))
    loop.body.instructions = chain
    return True


def _used_after_pins(func: Function, loop: _Loop):
    """Registers defined in the body that are read outside it.

    Renaming those per copy would break their live-out value: they must
    keep their identity so the *last* copy's definition is the one seen
    after the loop.
    """
    used_after = set()
    for block in func.blocks:
        if block is loop.body:
            continue
        for inst in block.instructions:
            used_after.update(inst.uses)
    defined_in_body = {i.dest for i in loop.body.body if i.dest is not None}
    return defined_in_body & used_after


def unroll_loop(func: Function, loop: _Loop, factor: int) -> bool:
    """Unroll one loop in place; returns True when applied."""
    if factor < 2:
        return False
    head_body = loop.head.body
    body_work = loop.body.body
    cond_value = loop.head.terminator.args[0]
    region = body_work + head_body
    # Registers read before written (loop-carried) keep their identity;
    # everything else — including the exit condition — is renamed fresh
    # per copy so each replicated test is an independent definition.
    pinned = _read_before_written(region)
    # Registers written in the region that are live outside must also stay
    # pinned; conservatively pin every register that already existed before
    # this pass created fresh ones -- i.e. pin everything *except* registers
    # whose lifetime is provably local.  Locality here: defined before any
    # use within the region and not used by head's condition chain outside.
    # The read-before-written rule already pins loop-carried names; names
    # that are defined first in the region but read after the loop would be
    # broken by renaming, so pin those too.
    after_labels = set(func.reachable_labels()) - {loop.body.label}
    used_after = set()
    for block in func.blocks:
        if block.label in after_labels and block is not loop.body:
            for inst in block.instructions:
                used_after.update(inst.uses)
    defined_in_body = {i.dest for i in body_work if i.dest is not None}
    pinned |= (defined_in_body & used_after)

    chain: List[Instruction] = list(body_work)
    for copy in range(1, factor):
        rename: Dict[VReg, VReg] = {}
        last = copy == factor - 1
        # Re-evaluate the head's condition computation before each extra copy.
        head_clone = _clone_with_renames(head_body, pinned, func, rename)
        chain.extend(head_clone)
        cond = rename.get(cond_value, cond_value)
        next_label = f"{loop.body.label}.u{copy}"
        if loop.body_is_true_arm:
            labels = (next_label, loop.exit_label)
        else:
            labels = (loop.exit_label, next_label)
        chain.append(Instruction(Opcode.CBR, args=[cond], labels=labels))
        # Marker: the following instructions belong to the next chained
        # block.  We split the chain into real blocks below.
        chain.append(_SPLIT)
        body_clone = _clone_with_renames(body_work, pinned, func, dict(rename))
        chain.extend(body_clone)
        if last:
            chain.append(Instruction(Opcode.BR, labels=(loop.head.label,)))

    # Materialize the chain into blocks.
    segments: List[List[Instruction]] = [[]]
    for item in chain:
        if item is _SPLIT:
            segments.append([])
        else:
            segments[-1].append(item)

    loop.body.instructions = segments[0]
    previous = loop.body
    for copy, segment in enumerate(segments[1:], start=1):
        label = f"{loop.body.label}.u{copy}"
        block = func.add_block(label)
        block.instructions = segment
        previous = block
    return True


_SPLIT = object()


def unroll_function(func: Function, factor: int,
                    max_body_size: int = 48) -> int:
    """Unroll every simple loop with a small enough body; returns count.

    Loops with a compile-time trip count divisible by (a divisor of) the
    factor unroll *exactly* — no intermediate exit tests; the rest use
    test-replicated unrolling, which is correct for any trip count.
    """
    applied = 0
    for loop in find_simple_loops(func):
        if len(loop.body.body) > max_body_size:
            continue
        trips = _constant_trip_count(func, loop)
        if trips is not None and trips > 0:
            exact = factor
            while exact > 1 and trips % exact != 0:
                exact -= 1
            if exact > 1 and _exact_unroll(func, loop, exact):
                applied += 1
                continue
        if unroll_loop(func, loop, factor):
            applied += 1
    return applied


def unroll_module(module: Module, factor: int,
                  max_body_size: int = 48) -> int:
    return sum(unroll_function(f, factor, max_body_size)
               for f in module.functions.values())
