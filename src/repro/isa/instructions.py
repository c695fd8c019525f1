"""TRIPS EDGE instruction definitions.

A TRIPS block contains up to 128 *compute* instructions plus header-resident
read and write instructions.  Compute instructions are dataflow: instead of
register operands they encode up to two *targets* — (instruction, operand
slot) pairs to which the result is delivered.  Values enter a block through
read instructions and leave through write instructions and stores.

Operand slots:

* ``OP0``/``OP1`` — left/right data operands;
* ``PRED`` — the predicate operand of a predicated instruction.

Predication: an instruction with ``predicate`` "T" ("F") executes only when
it receives a predicate operand with value true (false); otherwise it is
*mispredicated* — fetched but never executed, one of the overhead classes
Figure 3 and Figure 4 of the paper break out.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional


class TOp(enum.Enum):
    """TRIPS compute opcodes."""

    # Integer arithmetic / logic.
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    REM = "rem"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    SRA = "sra"
    # Tests (produce a predicate/boolean).
    TEQ = "teq"
    TNE = "tne"
    TLT = "tlt"
    TLE = "tle"
    TGT = "tgt"
    TGE = "tge"
    TLTU = "tltu"
    TGEU = "tgeu"
    # Float.
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    TFEQ = "tfeq"
    TFLT = "tflt"
    TFLE = "tfle"
    I2F = "i2f"
    F2I = "f2i"
    # Immediate generation and operand fanout.
    GENI = "geni"      # materialize an integer immediate
    GENF = "genf"      # materialize a float immediate
    MOV = "mov"        # replicate an operand (fanout tree node)
    # Memory (carry a load/store ID for sequential memory semantics).
    LOAD = "load"
    STORE = "store"
    NULL = "null"      # produce a null token (satisfies a predicated output)
    # Block exits.
    BRO = "bro"        # branch to block (offset/label form)
    CALLO = "callo"    # call: branch-and-link to a function
    RET = "ret"        # return to caller's continuation block


class Slot(enum.Enum):
    """Operand slot of a target."""

    OP0 = 0
    OP1 = 1
    PRED = 2

    def __str__(self) -> str:
        return ("op0", "op1", "p")[self.value]


@dataclass(frozen=True)
class Target:
    """Destination of a produced operand: instruction index + slot."""

    inst: int
    slot: Slot

    def __str__(self) -> str:
        return f"i{self.inst}.{self.slot}"


#: Maximum data targets a compute/read instruction may encode.
MAX_TARGETS = 2

#: Tests (predicate producers).
TEST_OPS = frozenset({
    TOp.TEQ, TOp.TNE, TOp.TLT, TOp.TLE, TOp.TGT, TOp.TGE, TOp.TLTU,
    TOp.TGEU, TOp.TFEQ, TOp.TFLT, TOp.TFLE,
})

#: Exit (control-flow) opcodes.
EXIT_OPS = frozenset({TOp.BRO, TOp.CALLO, TOp.RET})

#: Arithmetic opcodes (for Figure 3 composition accounting).
ARITH_OPS = frozenset({
    TOp.ADD, TOp.SUB, TOp.MUL, TOp.DIV, TOp.REM, TOp.AND, TOp.OR, TOp.XOR,
    TOp.SHL, TOp.SHR, TOp.SRA, TOp.FADD, TOp.FSUB, TOp.FMUL, TOp.FDIV,
    TOp.I2F, TOp.F2I, TOp.GENI, TOp.GENF,
})

#: Memory opcodes.
MEM_OPS = frozenset({TOp.LOAD, TOp.STORE})


def operand_count(op: TOp) -> int:
    """Number of *data* operands the opcode consumes before it can fire."""
    if op in (TOp.GENI, TOp.GENF, TOp.NULL, TOp.RET):
        return 0
    if op in (TOp.MOV, TOp.I2F, TOp.F2I, TOp.LOAD, TOp.BRO, TOp.CALLO):
        # LOAD consumes an address; BRO/CALLO consume nothing unless the
        # target is computed (we use label targets, so zero); MOV forwards
        # one value.
        return 1 if op in (TOp.MOV, TOp.I2F, TOp.F2I, TOp.LOAD) else 0
    if op is TOp.STORE:
        return 2  # address (OP0) and value (OP1)
    return 2


#: Execution latency in cycles (shared with the cycle-level model).
TRIPS_LATENCY = {
    TOp.MUL: 3, TOp.DIV: 24, TOp.REM: 24,
    TOp.FADD: 4, TOp.FSUB: 4, TOp.FMUL: 4, TOp.FDIV: 24,
    TOp.I2F: 2, TOp.F2I: 2,
}


@dataclass
class TInst:
    """One TRIPS compute instruction.

    Attributes:
        index: Position within the block's instruction array (0..127).
        op: Opcode.
        targets: Up to :data:`MAX_TARGETS` destinations for the result.
        predicate: None (unpredicated), "T", or "F".
        imm: Immediate for GENI; byte displacement for LOAD/STORE.
        fimm: Immediate for GENF.
        lsid: Load/store ID for memory ops and NULLs covering them
            (sequential memory semantics within the block).
        width/signed: Access size attributes for LOAD/STORE.
        label: Exit target (block label) for BRO; callee for CALLO.
        cont: For CALLO: label of the block execution resumes at after the
            callee returns (the call's continuation).
        write_id: For NULL covering a register write: the write index.
    """

    index: int
    op: TOp
    targets: List[Target] = field(default_factory=list)
    predicate: Optional[str] = None
    imm: int = 0
    fimm: float = 0.0
    lsid: int = -1
    width: int = 8
    signed: bool = True
    is_float: bool = False   # LOAD: value is an IEEE double
    label: str = ""
    cont: str = ""
    write_id: int = -1

    def __post_init__(self) -> None:
        if len(self.targets) > MAX_TARGETS:
            raise ValueError(
                f"i{self.index}: {len(self.targets)} targets exceeds "
                f"the {MAX_TARGETS}-target ISA limit")
        if self.predicate not in (None, "T", "F"):
            raise ValueError(f"bad predicate {self.predicate!r}")

    @property
    def is_exit(self) -> bool:
        return self.op in EXIT_OPS

    @property
    def category(self) -> str:
        """Figure 3 composition category."""
        if self.op in MEM_OPS or self.op is TOp.NULL:
            return "memory"
        if self.op in EXIT_OPS:
            return "control"
        if self.op in TEST_OPS:
            return "test"
        if self.op is TOp.MOV:
            return "move"
        return "arith"

    def __str__(self) -> str:
        parts = [f"i{self.index}:"]
        if self.predicate:
            parts.append(f"<{self.predicate}>")
        parts.append(self.op.value)
        if self.op is TOp.GENI:
            parts.append(str(self.imm))
        if self.op is TOp.GENF:
            parts.append(str(self.fimm))
        if self.op in (TOp.LOAD, TOp.STORE):
            parts.append(f"[lsid={self.lsid} w={self.width} d={self.imm}]")
        if self.op is TOp.NULL and self.lsid >= 0:
            parts.append(f"[lsid={self.lsid}]")
        if self.op is TOp.NULL and self.write_id >= 0:
            parts.append(f"[w={self.write_id}]")
        if self.label:
            parts.append(f"@{self.label}")
        if self.targets:
            parts.append("-> " + " ".join(str(t) for t in self.targets))
        return " ".join(parts)


@dataclass
class ReadInst:
    """Header-resident register read: injects a register into the dataflow."""

    index: int              # read slot 0..31
    reg: int                # architectural register 0..127
    targets: List[Target] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.targets) > MAX_TARGETS:
            raise ValueError(
                f"r{self.index}: {len(self.targets)} targets exceeds "
                f"the {MAX_TARGETS}-target limit on reads")

    def __str__(self) -> str:
        targets = " ".join(str(t) for t in self.targets)
        return f"r{self.index}: read G{self.reg} -> {targets}"


@dataclass
class WriteInst:
    """Header-resident register write: a named block output."""

    index: int              # write slot 0..31
    reg: int                # architectural register 0..127

    def __str__(self) -> str:
        return f"w{self.index}: write G{self.reg}"
