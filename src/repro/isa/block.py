"""TRIPS blocks, functions, and programs, with prototype constraints.

The TRIPS prototype fixes, per block:

* at most 128 compute instructions,
* at most 32 register reads and 32 register writes (header-resident),
* at most 32 load/store IDs,
* at most 8 exits,
* all block outputs (register writes, store IDs, exactly one exit) must be
  produced on every executed path — predicated writers must be paired with
  alternates or NULLs.

:meth:`TripsBlock.validate` enforces the structural constraints; the
output-completeness rule is dynamic and checked by the functional simulator
(a block that deadlocks waiting for an output is a backend bug).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set, Tuple

from repro.isa.instructions import ReadInst, Slot, TInst, TOp, WriteInst

MAX_BLOCK_INSTS = 128
MAX_READS = 32
MAX_WRITES = 32
MAX_LSIDS = 32
MAX_EXITS = 8


class BlockConstraintError(Exception):
    """A block violates a TRIPS prototype constraint."""


@dataclass
class TripsBlock:
    """One EDGE block: header reads/writes plus the dataflow body."""

    label: str
    instructions: List[TInst] = field(default_factory=list)
    reads: List[ReadInst] = field(default_factory=list)
    writes: List[WriteInst] = field(default_factory=list)

    # -- derived views ------------------------------------------------------

    @property
    def exits(self) -> List[TInst]:
        return [i for i in self.instructions if i.is_exit]

    @property
    def store_lsids(self) -> Set[int]:
        return {i.lsid for i in self.instructions if i.op is TOp.STORE}

    @property
    def lsids(self) -> Set[int]:
        return {i.lsid for i in self.instructions
                if i.op in (TOp.LOAD, TOp.STORE)}

    def successor_labels(self) -> List[str]:
        """Block labels control may continue at within this function."""
        labels = [i.label for i in self.exits if i.op is TOp.BRO]
        labels.extend(i.cont for i in self.exits
                      if i.op is TOp.CALLO and i.cont)
        return labels

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        if len(self.instructions) > MAX_BLOCK_INSTS:
            raise BlockConstraintError(
                f"{self.label}: {len(self.instructions)} instructions "
                f"exceed the {MAX_BLOCK_INSTS}-instruction block limit")
        if len(self.reads) > MAX_READS:
            raise BlockConstraintError(
                f"{self.label}: {len(self.reads)} reads exceed {MAX_READS}")
        if len(self.writes) > MAX_WRITES:
            raise BlockConstraintError(
                f"{self.label}: {len(self.writes)} writes exceed {MAX_WRITES}")
        if len(self.lsids) > MAX_LSIDS:
            raise BlockConstraintError(
                f"{self.label}: {len(self.lsids)} load/store IDs "
                f"exceed {MAX_LSIDS}")
        if len(self.exits) > MAX_EXITS:
            raise BlockConstraintError(
                f"{self.label}: {len(self.exits)} exits exceed {MAX_EXITS}")
        if not self.exits:
            raise BlockConstraintError(f"{self.label}: block has no exit")
        self._validate_indices()
        self._validate_targets()
        self._validate_register_slots()

    def _validate_indices(self) -> None:
        for position, inst in enumerate(self.instructions):
            if inst.index != position:
                raise BlockConstraintError(
                    f"{self.label}: instruction at position {position} "
                    f"has index {inst.index}")

    def _validate_targets(self) -> None:
        # Imported here to avoid a cycle: asm defines the write-channel
        # target encoding shared by all block producers.
        from repro.isa.asm import WRITE_CHANNEL_BASE, is_write_target

        count = len(self.instructions)
        # Slot -> producer ids: instruction index, or -1 for header reads.
        filled: Dict[Tuple[int, Slot], List[int]] = {}
        write_producers: Dict[int, List[int]] = {}
        for producer_id, inst in self._producers():
            for target in inst.targets:
                if is_write_target(target):
                    slot = target.inst - WRITE_CHANNEL_BASE
                    if not 0 <= slot < len(self.writes):
                        raise BlockConstraintError(
                            f"{self.label}: write target w{slot} out of range")
                    write_producers.setdefault(slot, []).append(producer_id)
                    continue
                if not 0 <= target.inst < count:
                    raise BlockConstraintError(
                        f"{self.label}: target {target} out of range")
                consumer = self.instructions[target.inst]
                if target.slot is Slot.PRED and consumer.predicate is None:
                    raise BlockConstraintError(
                        f"{self.label}: predicate delivered to "
                        f"unpredicated i{target.inst}")
                key = (target.inst, target.slot)
                filled.setdefault(key, []).append(producer_id)

        gated = self._gated_instructions(filled)

        def all_gated(producer_ids: List[int]) -> bool:
            return all(p >= 0 and p in gated for p in producer_ids)

        for (index, slot), producer_ids in filled.items():
            # Multiple producers for one slot are legal only when each is
            # *gated* — predicated, or a forwarding chain originating at a
            # predicated instruction — so that dynamically at most one
            # fires (the dataflow merge idiom).
            if len(producer_ids) > 1 and not all_gated(producer_ids):
                raise BlockConstraintError(
                    f"{self.label}: operand i{index}.{slot} has "
                    f"{len(producer_ids)} producers, not all gated")
        for slot in range(len(self.writes)):
            arrivals = write_producers.get(slot, [])
            if not arrivals:
                raise BlockConstraintError(
                    f"{self.label}: write w{slot} has no producer")
            if len(arrivals) > 1 and not all_gated(arrivals):
                raise BlockConstraintError(
                    f"{self.label}: write w{slot} has conflicting producers")

    def _producers(self):
        """(id, producer) pairs: instructions by index, reads as -1."""
        for inst in self.instructions:
            yield inst.index, inst
        for read in self.reads:
            yield -1, read

    def _gated_instructions(self, filled: Dict[Tuple[int, "Slot"], List[int]]):
        """Instruction indices that fire on at most one predicate path.

        An instruction is gated when it is predicated, or when *every*
        producer of each of its data operands is gated (it cannot receive
        operands — hence cannot fire — unless the gated path executed).
        Computed as a fixpoint.
        """
        gated = {inst.index for inst in self.instructions
                 if inst.predicate is not None}
        operand_producers: Dict[int, List[List[int]]] = {}
        for (index, slot), producer_ids in filled.items():
            if slot is not Slot.PRED:
                operand_producers.setdefault(index, []).append(producer_ids)
        changed = True
        while changed:
            changed = False
            for inst in self.instructions:
                if inst.index in gated:
                    continue
                slots = operand_producers.get(inst.index)
                if not slots:
                    continue
                # One fully-gated operand slot gates the instruction: it
                # cannot fire without that operand arriving.
                if any(plist and all(p >= 0 and p in gated for p in plist)
                       for plist in slots):
                    gated.add(inst.index)
                    changed = True
        return gated

    def _validate_register_slots(self) -> None:
        for position, read in enumerate(self.reads):
            if read.index != position:
                raise BlockConstraintError(
                    f"{self.label}: read slot mismatch at {position}")
            if not 0 <= read.reg < 128:
                raise BlockConstraintError(
                    f"{self.label}: read of register {read.reg}")
        seen_regs: Set[int] = set()
        for position, write in enumerate(self.writes):
            if write.index != position:
                raise BlockConstraintError(
                    f"{self.label}: write slot mismatch at {position}")
            if not 0 <= write.reg < 128:
                raise BlockConstraintError(
                    f"{self.label}: write of register {write.reg}")
            if write.reg in seen_regs:
                raise BlockConstraintError(
                    f"{self.label}: duplicate write to register {write.reg}")
            seen_regs.add(write.reg)

    def __str__(self) -> str:
        lines = [f"block {self.label} "
                 f"[{len(self.instructions)} insts, {len(self.reads)} reads, "
                 f"{len(self.writes)} writes]"]
        lines.extend(f"  {r}" for r in self.reads)
        lines.extend(f"  {i}" for i in self.instructions)
        lines.extend(f"  {w}" for w in self.writes)
        return "\n".join(lines)


@dataclass
class TripsFunction:
    """A function lowered to TRIPS blocks."""

    name: str
    blocks: Dict[str, TripsBlock] = field(default_factory=dict)
    entry: str = ""
    num_params: int = 0

    def add_block(self, block: TripsBlock) -> TripsBlock:
        if block.label in self.blocks:
            raise ValueError(f"duplicate block {block.label}")
        if not self.entry:
            self.entry = block.label
        self.blocks[block.label] = block
        return block

    def block(self, label: str) -> TripsBlock:
        return self.blocks[label]

    def validate(self) -> None:
        for block in self.blocks.values():
            block.validate()
            for succ in block.successor_labels():
                if succ not in self.blocks:
                    raise BlockConstraintError(
                        f"{block.label}: exit to unknown block {succ!r}")

    def __str__(self) -> str:
        parts = [f"trips-func @{self.name} entry={self.entry}"]
        parts.extend(str(b) for b in self.blocks.values())
        return "\n".join(parts)


@dataclass
class TripsProgram:
    """A fully lowered module for the TRIPS target."""

    functions: Dict[str, TripsFunction] = field(default_factory=dict)
    globals_image: List[Tuple[int, bytes]] = field(default_factory=list)
    data_end: int = 0

    def function(self, name: str) -> TripsFunction:
        return self.functions[name]

    def validate(self) -> None:
        for func in self.functions.values():
            func.validate()
            for block in func.blocks.values():
                for inst in block.instructions:
                    if inst.op is TOp.CALLO and inst.label not in self.functions:
                        raise BlockConstraintError(
                            f"{block.label}: call to unknown "
                            f"function {inst.label!r}")

    def all_blocks(self) -> Iterable[TripsBlock]:
        for func in self.functions.values():
            yield from func.blocks.values()
