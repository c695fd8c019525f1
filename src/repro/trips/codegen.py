"""Top-level TRIPS backend driver: IR module -> TripsProgram.

Pipeline per function:

1. CFG canonicalization: split blocks at calls, unify returns.
2. Hyperblock formation with the conversion oracle (every grown region is
   trial-converted against the prototype's block constraints).
3. Cross-block register allocation (128 registers, 4 banks).
4. Dataflow conversion of each hyperblock to a TRIPS block.
5. Prologue/epilogue blocks when callee-saved registers or a frame are
   needed.
6. Spatial placement of every block for the cycle-level model.
"""

from __future__ import annotations

import copy as _copy
from typing import Dict, List, Set, Tuple

from repro.ir.function import Function, Module
from repro.ir.values import VReg

from repro.isa.asm import write_target
from repro.isa.block import TripsBlock, TripsFunction, TripsProgram
from repro.isa.instructions import ReadInst, Slot, Target, TInst, TOp, WriteInst

from repro.trips.dataflow import convert_hyperblock, try_convert
from repro.trips.hyperblock import (
    Hyperblock, canonicalize_returns, form_hyperblocks, split_calls,
    split_oversized_blocks,
)
from repro.trips.placement import GRID_W, Placement, place_block
from repro.trips.regalloc import (
    ARG_REGS, Allocation, RETURN_REG, SP_REG, allocate_registers,
    insert_spill_code,
)


def lower_module(module: Module, placement_policy: str = "sps",
                 formation: str = "hyper",
                 grid: int = GRID_W) -> "LoweredProgram":
    """Lower an entire IR module to TRIPS blocks with placements.

    ``formation`` selects block formation: "hyper" grows full hyperblocks
    (the prototype compiler); "basic" emits one TRIPS block per IR basic
    block — the basic-block code of the Figure 7 predictor study.
    ``grid`` is the side of the execution array the blocks are placed on
    (see :func:`~repro.trips.placement.place_block`); the cycle model
    times the program on that array.
    """
    working = _copy.deepcopy(module)
    program = TripsProgram()
    placements: Dict[Tuple[str, str], Placement] = {}
    for func in working.functions.values():
        tfunc = lower_function(func, formation)
        program.functions[tfunc.name] = tfunc
        # Keyed by (function, label): every function has an ``entry``.
        for block in tfunc.blocks.values():
            placements[(tfunc.name, block.label)] = place_block(
                block, placement_policy, grid=grid)
    for data in working.globals.values():
        if data.init:
            program.globals_image.append((data.address, data.init))
    program.data_end = working.data_end
    program.validate()
    return LoweredProgram(program, placements, grid)


class LoweredProgram:
    """A TRIPS program together with per-block instruction placements on
    a ``grid`` x ``grid`` execution array."""

    def __init__(self, program: TripsProgram,
                 placements: Dict[Tuple[str, str], Placement],
                 grid: int = GRID_W) -> None:
        self.program = program
        self.placements = placements
        self.grid = grid

    def placement(self, function: str, label: str) -> Placement:
        return self.placements[(function, label)]


def _cross_block_estimate(func: Function) -> Set[VReg]:
    """Overapproximate the registers live across IR block boundaries.

    Used by the formation oracle to bound header read/write counts before
    the final partition (and therefore exact liveness) is known.
    """
    def_block: Dict[VReg, Set[str]] = {}
    use_block: Dict[VReg, Set[str]] = {}
    for block in func.blocks:
        for inst in block.instructions:
            if inst.dest is not None:
                def_block.setdefault(inst.dest, set()).add(block.label)
            for reg in inst.uses:
                use_block.setdefault(reg, set()).add(block.label)
    cross: Set[VReg] = set(func.params)
    for reg, defs in def_block.items():
        uses = use_block.get(reg, set())
        if len(defs | uses) > 1:
            cross.add(reg)
    return cross


def lower_function(func: Function, formation: str = "hyper") -> TripsFunction:
    split_calls(func)
    canonicalize_returns(func)
    split_oversized_blocks(func)

    cross = _cross_block_estimate(func)

    def fits(hb: Hyperblock) -> bool:
        return try_convert(hb, cross)

    max_rounds = 400 if formation == "hyper" else 0
    hyperblocks = form_hyperblocks(func, fits, max_rounds=max_rounds)
    allocation = allocate_registers(hyperblocks, func.params,
                                    func.entry.label)
    insert_spill_code(hyperblocks, allocation)

    # Live-in/live-out register sets per hyperblock for the converter.
    live_out_map = {label: set(regs)
                    for label, regs in allocation.live_out.items()}
    live_in_map = {label: set(regs)
                   for label, regs in allocation.live_in.items()}

    # Incoming value overrides: function parameters at the entry block and
    # call results at continuation blocks.
    incoming_by_label: Dict[str, Dict[VReg, int]] = {}
    entry_incoming: Dict[VReg, int] = {}
    for i, param in enumerate(func.params):
        entry_incoming[param] = ARG_REGS[i]
    incoming_by_label[func.entry.label] = entry_incoming
    for hb in hyperblocks:
        for hexit in hb.exits:
            if hexit.kind == "call" and hexit.call is not None \
                    and hexit.call.dest is not None:
                incoming_by_label.setdefault(hexit.cont, {})[
                    hexit.call.dest] = RETURN_REG

    tfunc = TripsFunction(func.name, num_params=len(func.params))
    needs_frame = allocation.frame_size > 0

    entry_label = func.entry.label
    if needs_frame:
        tfunc.add_block(_prologue_block(func.name, allocation, entry_label))

    blocks: List[TripsBlock] = []
    for hb in hyperblocks:
        block = convert_hyperblock(
            hb, allocation.assignment, live_out_map,
            incoming_by_label.get(hb.label, {}), live_in_map)
        blocks.append(block)

    if needs_frame:
        epilogue_label = f"{func.name}.epilogue"
        for block in blocks:
            for inst in block.instructions:
                if inst.op is TOp.RET:
                    inst.op = TOp.BRO
                    inst.label = epilogue_label

    for block in blocks:
        tfunc.add_block(block)
    if not needs_frame:
        tfunc.entry = entry_label
    if needs_frame:
        tfunc.add_block(_epilogue_block(func.name, allocation))

    tfunc.validate()
    return tfunc


def _prologue_block(func_name: str, allocation: Allocation,
                    entry_label: str) -> TripsBlock:
    """Save used callee-saved registers and carve the frame.

    Layout::

        read SP -> (addi -frame) -> write SP', store base for slots
        read each callee-saved reg -> store SP' + slot

    The prologue is its own TRIPS block (keeps the entry block's own
    load/store IDs free) and branches to the real entry.
    """
    block = TripsBlock(f"{func_name}.prologue")
    insts: List[TInst] = []

    def add(op: TOp, **kwargs) -> TInst:
        inst = TInst(index=len(insts), op=op, **kwargs)
        insts.append(inst)
        return inst

    sp_read = ReadInst(0, SP_REG, [])
    block.reads.append(sp_read)
    gen = add(TOp.GENI, imm=-allocation.frame_size)
    new_sp = add(TOp.ADD)
    sp_read.targets.append(Target(new_sp.index, Slot.OP0))
    gen.targets.append(Target(new_sp.index, Slot.OP1))

    # new SP fans out to: the SP write, plus one store address per saved
    # register.  Fanout beyond two targets uses a move chain, built by hand
    # here with a simple linear chain (prologues are rarely hot).
    consumers: List[Target] = []
    for k, reg in enumerate(allocation.used_callee_saved):
        read = ReadInst(len(block.reads), reg, [])
        block.reads.append(read)
        store = add(TOp.STORE, lsid=k, imm=k * 8)
        read.targets.append(Target(store.index, Slot.OP1))
        consumers.append(Target(store.index, Slot.OP0))
    block.writes.append(WriteInst(0, SP_REG))
    consumers.append(write_target(0))

    _fan(new_sp, consumers, insts)
    add(TOp.BRO, label=entry_label)
    block.instructions = insts
    return block


def _epilogue_block(func_name: str, allocation: Allocation) -> TripsBlock:
    """Restore callee-saved registers, release the frame, and return."""
    block = TripsBlock(f"{func_name}.epilogue")
    insts: List[TInst] = []

    def add(op: TOp, **kwargs) -> TInst:
        inst = TInst(index=len(insts), op=op, **kwargs)
        insts.append(inst)
        return inst

    sp_read = ReadInst(0, SP_REG, [])
    block.reads.append(sp_read)
    consumers: List[Target] = []
    for k, reg in enumerate(allocation.used_callee_saved):
        load = add(TOp.LOAD, lsid=k, imm=k * 8)
        block.writes.append(WriteInst(len(block.writes), reg))
        load.targets.append(write_target(len(block.writes) - 1))
        consumers.append(Target(load.index, Slot.OP0))
    gen = add(TOp.GENI, imm=allocation.frame_size)
    old_sp = add(TOp.ADD)
    gen.targets.append(Target(old_sp.index, Slot.OP1))
    consumers.append(Target(old_sp.index, Slot.OP0))
    block.writes.append(WriteInst(len(block.writes), SP_REG))
    old_sp.targets.append(write_target(len(block.writes) - 1))
    add(TOp.RET)

    _fan(sp_read, consumers, insts)
    block.instructions = insts
    return block


def _fan(producer, consumers: List[Target], insts: List[TInst]) -> None:
    """Wire producer to consumers, inserting MOVs for fanout beyond two."""
    targets = list(consumers)
    while len(targets) > 2:
        grouped: List[Target] = []
        for i in range(0, len(targets) - 1, 2):
            mov = TInst(index=len(insts), op=TOp.MOV,
                        targets=[targets[i], targets[i + 1]])
            insts.append(mov)
            grouped.append(Target(mov.index, Slot.OP0))
        if len(targets) % 2:
            grouped.append(targets[-1])
        targets = grouped
    producer.targets.extend(targets)
