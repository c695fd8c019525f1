"""Dataflow conversion: hyperblock -> TRIPS block.

This module performs the EDGE renegotiation the paper describes: register
and memory communication inside a hyperblock becomes direct producer-to-
consumer operand delivery, with the ISA overheads the paper measures
falling out mechanically:

* **fanout moves** — a producer encodes at most two targets; wider fanout
  becomes a tree of MOV instructions (Section 4.1: "moves account for
  nearly 20% of all instructions");
* **predicate merges** — a register assigned on several predicated paths
  resolves to a set of mutually exclusive predicated MOVs feeding a joiner
  (the paper's "predicate merge points ... require predicated move
  instructions");
* **null tokens** — a predicated store gets complement-predicated NULLs
  for its load/store ID so the block's outputs complete on every path;
* **tests** — branch/predicate conditions become TEST instructions; a
  condition that is not naturally a test gets a `tne value, 0`.

The converter is also the *constraint oracle* for hyperblock formation:
``try_convert`` runs the full conversion with a synthetic register
assignment and reports whether the result fits the prototype limits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.ir.instructions import Opcode
from repro.ir.values import Const, VReg

from repro.isa.asm import write_target
from repro.isa.block import (
    MAX_BLOCK_INSTS, MAX_EXITS, MAX_LSIDS, MAX_READS, MAX_WRITES, TripsBlock,
)
from repro.isa.instructions import (
    ReadInst, Slot, Target, TEST_OPS, TInst, TOp, WriteInst,
)
from repro.trips.hyperblock import HInst, Hyperblock
from repro.trips.regalloc import ARG_REGS, RETURN_REG

_IR_TO_TOP = {
    Opcode.ADD: TOp.ADD, Opcode.SUB: TOp.SUB, Opcode.MUL: TOp.MUL,
    Opcode.DIV: TOp.DIV, Opcode.REM: TOp.REM, Opcode.AND: TOp.AND,
    Opcode.OR: TOp.OR, Opcode.XOR: TOp.XOR, Opcode.SHL: TOp.SHL,
    Opcode.SHR: TOp.SHR, Opcode.SRA: TOp.SRA,
    Opcode.EQ: TOp.TEQ, Opcode.NE: TOp.TNE, Opcode.LT: TOp.TLT,
    Opcode.LE: TOp.TLE, Opcode.GT: TOp.TGT, Opcode.GE: TOp.TGE,
    Opcode.ULT: TOp.TLTU, Opcode.UGE: TOp.TGEU,
    Opcode.FADD: TOp.FADD, Opcode.FSUB: TOp.FSUB, Opcode.FMUL: TOp.FMUL,
    Opcode.FDIV: TOp.FDIV,
    Opcode.FEQ: TOp.TFEQ, Opcode.FLT: TOp.TFLT, Opcode.FLE: TOp.TFLE,
    Opcode.I2F: TOp.I2F, Opcode.F2I: TOp.F2I,
}


class ConversionError(Exception):
    """The hyperblock cannot be expressed as a valid TRIPS block."""


@dataclass
class _Node:
    """A dataflow producer: one TRIPS compute instruction (pre-index)."""

    op: TOp
    pred: Optional[Tuple["_Node", bool]] = None
    operands: Dict[Slot, "_Node"] = field(default_factory=dict)
    imm: int = 0
    fimm: float = 0.0
    lsid: int = -1
    width: int = 8
    signed: bool = True
    is_float: bool = False
    label: str = ""
    cont: str = ""
    index: int = -1
    targets: List[Target] = field(default_factory=list)
    #: Effective gating chain, outermost test first: the node can only
    #: fire when every (test, polarity) in the chain held — either because
    #: of an explicit predicate or because an operand producer is gated
    #: (implicit dataflow predication, Section 2 of the paper).
    gate: Tuple = ()


@dataclass
class _ReadNode:
    """A header read instruction."""

    reg: int
    index: int = -1
    targets: List[Target] = field(default_factory=list)


@dataclass
class _Select:
    """A deferred predicate merge: value is `fires` when pred holds, else
    `els` (which may itself be a _Select)."""

    pred: Tuple[_Node, bool]
    fires: Union[_Node, _ReadNode, "_Select"]
    els: Union[_Node, _ReadNode, "_Select"]
    joiner: Optional[_Node] = None


class _Converter:
    def __init__(self, hb: Hyperblock, read_reg_for, write_reg_for,
                 incoming: Dict[VReg, int], live_in=None):
        self.hb = hb
        self.read_reg_for = read_reg_for
        self.write_reg_for = write_reg_for
        self.incoming = incoming
        self.live_in = live_in  # CFG live-in set; None -> local exposure
        self.nodes: List[_Node] = []
        self.reads: Dict[int, _ReadNode] = {}
        # Write channels: (arch reg, [producers]).  A channel normally has
        # one producer; a predicated producer is accompanied by
        # complement-predicated NULLs so the output is produced (possibly
        # as a no-op token) on every path — the block-output completion
        # rule of Section 2.
        self.writes: List[Tuple[int, List[object]]] = []
        self.current: Dict[VReg, object] = {}
        self.consts: Dict[Tuple[str, object], _Node] = {}
        self.tests: Dict[int, _Node] = {}            # id(node) -> test node
        self.next_lsid = 0

    # -- node constructors ----------------------------------------------------

    def _node(self, op: TOp, **kwargs) -> _Node:
        node = _Node(op, **kwargs)
        self.nodes.append(node)
        return node

    def _read(self, reg: int) -> _ReadNode:
        if reg not in self.reads:
            self.reads[reg] = _ReadNode(reg)
        return self.reads[reg]

    def _const(self, const: Const) -> _Node:
        key = (const.type.value, const.value)
        if key not in self.consts:
            if const.type.is_float:
                self.consts[key] = self._node(TOp.GENF, fimm=const.value)
            else:
                self.consts[key] = self._node(TOp.GENI, imm=const.value)
        return self.consts[key]

    # -- value resolution ------------------------------------------------------

    def value(self, operand) -> Union[_Node, _ReadNode]:
        """Producer node for an IR operand, materializing selects."""
        if isinstance(operand, Const):
            return self._const(operand)
        assert isinstance(operand, VReg)
        node = self.current.get(operand)
        if node is None:
            reg = self.incoming.get(operand)
            if reg is None:
                reg = self.read_reg_for(operand)
            node = self._read(reg)
            self.current[operand] = node
        if isinstance(node, _Select):
            node = self._materialize(node)
        return node

    def _materialize(self, select: _Select) -> _Node:
        """Resolve a predicate merge into a joiner MOV fed by mutually
        exclusive predicated MOVs (one per path class)."""
        if select.joiner is not None:
            return select.joiner
        joiner = self._node(TOp.MOV)
        select.joiner = joiner

        def feed(value, pred: Tuple[_Node, bool]) -> None:
            source = value
            if isinstance(source, _Select):
                source = self._materialize(source)
            needed = self._gate_of(pred)
            if isinstance(source, _Node) and source.gate == needed:
                # The producer is gated by exactly this chain: target the
                # joiner directly, no forwarding move needed.
                self._connect(source, joiner, Slot.OP0)
                return
            mov = self._node(TOp.MOV, pred=pred)
            mov.gate = needed
            self._connect(source, mov, Slot.OP0)
            self._wire_pred(mov, pred)
            self._connect(mov, joiner, Slot.OP0)

        feed(select.fires, select.pred)
        for test, polarity in self._pred_chain(select.pred):
            els = select.els
            if isinstance(els, _Select):
                els = self._materialize(els)
            mov = self._node(TOp.MOV, pred=(test, not polarity))
            mov.gate = self._gate_of(mov.pred)
            self._connect(els, mov, Slot.OP0)
            self._wire_pred(mov, mov.pred)
            self._connect(mov, joiner, Slot.OP0)
        return joiner

    @staticmethod
    def _pred_chain(pred: Tuple[_Node, bool]):
        """(test, polarity) pairs, innermost first, covering the *full*
        gating of a predicate — including levels the test itself inherits
        implicitly through its operands (its ``gate``)."""
        test, polarity = pred
        chain = [(test, polarity)]
        chain.extend(reversed(test.gate))
        return chain

    def _connect(self, producer, consumer, slot: Slot) -> None:
        """Record a producer -> consumer operand edge (by consumer side).

        Edges are stored consumer-side in ``operands``; producer target
        lists are derived during linearization.  For slots that may have
        several predicated producers (joiner inputs), we store a list.
        """
        existing = consumer.operands.get(slot)
        if existing is None:
            consumer.operands[slot] = producer
        elif isinstance(existing, list):
            existing.append(producer)
        else:
            consumer.operands[slot] = [existing, producer]

    # -- predicates -------------------------------------------------------------

    def pred_of(self, hpred) -> Optional[Tuple[_Node, bool]]:
        """Resolve a predicate *chain* to a single (test node, polarity).

        Each chain element's test is predicated on the accumulated prefix,
        so the final test fires only when the whole context holds — the
        dataflow AND the paper describes for nested hyperblock predication.
        """
        if not hpred:
            return None
        acc: Optional[Tuple[_Node, bool]] = None
        for value, polarity in hpred:
            node = self.value(value)
            acc = (self._ensure_test(node, acc), polarity)
        return acc

    def _ensure_test(self, node, under) -> _Node:
        if isinstance(node, _Node) and node.op in TEST_OPS \
                and node.gate == self._gate_of(under):
            return node
        key = (id(node),
               id(under[0]) if under else None,
               under[1] if under else None)
        if key not in self.tests:
            test = self._node(TOp.TNE, pred=under)
            test.gate = self._gate_of(under)
            self._connect(node, test, Slot.OP0)
            self._connect(self._const(Const(0, _I64)), test, Slot.OP1)
            self._wire_pred(test, under)
            self.tests[key] = test
        return self.tests[key]

    # -- instruction conversion ---------------------------------------------------

    def convert(self) -> None:
        for hinst in self.hb.instructions:
            self._convert_inst(hinst)
        self._convert_exits()
        self._emit_register_writes()

    def _define(self, dest: VReg, node, pred) -> None:
        if pred is None:
            self.current[dest] = node
            return
        old = self.current.get(dest)
        if old is None and dest not in self._live_in_cache():
            # First definition is predicated and nothing flows in from
            # outside: consumers are necessarily gated on the same path.
            self.current[dest] = node
            return
        if old is None:
            reg = self.incoming.get(dest, None)
            if reg is None:
                reg = self.read_reg_for(dest)
            old = self._read(reg)
        self.current[dest] = _Select(pred, node, old)

    def _live_in_cache(self):
        """Registers whose value flows into this block.

        A predicated first definition of a live-in register must merge
        with the incoming value (select); a predicated first definition of
        a block-local register needs no merge — its uses are gated on the
        same predicate path.  Live-in must be the *CFG* notion: a register
        can be live-in without any local upward-exposed use (defined under
        a predicate here, consumed by a successor block).
        """
        if self.live_in is not None:
            return self.live_in
        if not hasattr(self, "_live_in_set"):
            self._live_in_set = _upward_exposed(self.hb)
        return self._live_in_set

    def _convert_inst(self, hinst: HInst) -> None:
        inst = hinst.inst
        pred = self.pred_of(hinst.pred)
        op = inst.op

        if op is Opcode.MOV:
            src = inst.args[0]
            if pred is None:
                self.current[inst.dest] = self.value(src)
            else:
                self._define(inst.dest, self.value(src), pred)
            return

        if op is Opcode.LOAD:
            node = self._node(TOp.LOAD, lsid=self.next_lsid,
                              width=inst.width, signed=inst.signed,
                              imm=inst.offset,
                              is_float=inst.dest.type.is_float)
            self.next_lsid += 1
            self._connect(self.value(inst.args[0]), node, Slot.OP0)
            self._apply_pred(node, pred)
            self._define(inst.dest, node, pred)
            return

        if op is Opcode.STORE:
            node = self._node(TOp.STORE, lsid=self.next_lsid,
                              width=inst.width, imm=inst.offset)
            self.next_lsid += 1
            self._connect(self.value(inst.args[1]), node, Slot.OP0)
            self._connect(self.value(inst.args[0]), node, Slot.OP1)
            self._apply_pred(node, pred)
            # A gated store's load/store ID must still resolve on every
            # path: complement-predicated NULLs cover the non-store paths.
            for test, polarity in node.gate:
                null = self._node(TOp.NULL, pred=(test, not polarity),
                                  lsid=node.lsid)
                null.gate = self._gate_of(null.pred)
                self._wire_pred(null, null.pred)
            return

        top = _IR_TO_TOP.get(op)
        if top is None:
            raise ConversionError(f"cannot convert {inst}")
        node = self._node(top)
        self._connect(self.value(inst.args[0]), node, Slot.OP0)
        if len(inst.args) > 1:
            self._connect(self.value(inst.args[1]), node, Slot.OP1)
        self._apply_pred(node, pred)
        if inst.dest is not None:
            self._define(inst.dest, node, pred)

    def _wire_pred(self, node: _Node, pred) -> None:
        if pred is not None:
            self._connect(pred[0], node, Slot.PRED)

    def _gate_of(self, acc) -> Tuple:
        """Gating chain (outermost first) implied by a resolved predicate."""
        if acc is None:
            return ()
        return tuple(reversed(self._pred_chain(acc)))

    def _apply_pred(self, node: _Node, acc) -> None:
        """Gate ``node`` on ``acc`` — explicitly, or implicitly when one of
        its data operands is already gated at least as strongly.

        Implicit dataflow predication is how the real compiler keeps the
        predicate fanout small: an instruction that consumes a value from
        a predicated producer can never fire on the wrong path, so it
        needs no predicate operand of its own ("did not receive all of
        their operands due to predicated instructions earlier in the
        block's dataflow graph", Section 2).
        """
        if acc is None:
            return
        needed = self._gate_of(acc)
        gates = []
        for slot in (Slot.OP0, Slot.OP1):
            producer = node.operands.get(slot)
            gates.append(producer.gate if isinstance(producer, _Node)
                         else ())
        # Implicit gating is exact only when one operand is gated by
        # precisely the required chain and every other operand is gated by
        # a (possibly empty) prefix of it: then the instruction fires if
        # and only if the chain held — no predicate operand needed.
        exact = any(g == needed for g in gates)
        compatible = all(needed[:len(g)] == g for g in gates)
        if exact and compatible:
            node.gate = needed
            return
        node.pred = acc
        node.gate = needed
        self._wire_pred(node, acc)

    def _add_write(self, reg: int, node) -> None:
        """Register a block output, nulling it on uncovered paths."""
        producers = [node]
        if isinstance(node, _Node) and node.gate:
            for test, polarity in node.gate:
                null = self._node(TOp.NULL, pred=(test, not polarity))
                null.gate = self._gate_of(null.pred)
                self._wire_pred(null, null.pred)
                producers.append(null)
        self.writes.append((reg, producers))

    # -- exits and outputs -----------------------------------------------------------

    def _convert_exits(self) -> None:
        for hexit in self.hb.exits:
            pred = self.pred_of(hexit.pred)
            if hexit.kind == "br":
                node = self._node(TOp.BRO, pred=pred, label=hexit.target)
                node.gate = self._gate_of(pred)
                self._wire_pred(node, pred)
            elif hexit.kind == "call":
                node = self._node(TOp.CALLO, pred=pred, label=hexit.target,
                                  cont=hexit.cont)
                node.gate = self._gate_of(pred)
                self._wire_pred(node, pred)
                for i, arg in enumerate(hexit.call.args):
                    self._add_write(ARG_REGS[i], self.value(arg))
            elif hexit.kind == "ret":
                node = self._node(TOp.RET, pred=pred)
                node.gate = self._gate_of(pred)
                self._wire_pred(node, pred)
                if hexit.ret_value is not None:
                    self._add_write(RETURN_REG, self.value(hexit.ret_value))
            else:
                raise AssertionError(hexit.kind)

    def _emit_register_writes(self) -> None:
        live_out = self.write_reg_for(None)  # sentinel: fetch full map
        call_dest = None
        for hexit in self.hb.exits:
            if hexit.kind == "call" and hexit.call is not None:
                call_dest = hexit.call.dest
        for vreg in sorted(live_out, key=lambda v: v.id):
            if vreg == call_dest:
                continue  # produced by the callee in RETURN_REG
            reg = self.write_reg_for(vreg)
            node = self.current.get(vreg)
            if node is None:
                incoming = self.incoming.get(vreg)
                if incoming is None or incoming == reg:
                    continue  # passes through in its register untouched
                # Arrived elsewhere (a call's result in RETURN_REG, a
                # parameter in its argument register): copy it over.
                node = self._read(incoming)
            if isinstance(node, _Select):
                node = self._materialize(node)
            if isinstance(node, _ReadNode) and node.reg == reg:
                continue  # read and unmodified: no write needed
            self._add_write(reg, node)

    # -- linearization ---------------------------------------------------------------

    def linearize(self) -> TripsBlock:
        block = TripsBlock(self.hb.label)

        read_nodes = [self.reads[r] for r in sorted(self.reads)]
        for node in self.nodes:
            node.index = -1

        # Assign compute indices in creation order (already topological).
        for index, node in enumerate(self.nodes):
            node.index = index

        # Derive producer target lists from consumer-side operand edges.
        for node in self.nodes:
            for slot, producers in node.operands.items():
                plist = producers if isinstance(producers, list) else [producers]
                for producer in plist:
                    producer.targets.append(Target(node.index, slot))

        # Write slots (order: ABI writes first, then register order).
        write_insts: List[WriteInst] = []
        for slot, (reg, producers) in enumerate(self.writes):
            write_insts.append(WriteInst(slot, reg))
            for producer in producers:
                producer.targets.append(write_target(slot))

        # Fanout expansion: any producer with more than two targets grows a
        # move tree (this includes reads — the paper's R0 -> I0 example).
        all_producers: List[object] = list(self.nodes) + read_nodes
        for producer in all_producers:
            self._expand_fanout(producer)

        instructions = [self._to_tinst(node) for node in self.nodes]
        block.instructions = instructions
        for slot, rnode in enumerate(read_nodes):
            rnode.index = slot
            block.reads.append(ReadInst(slot, rnode.reg, rnode.targets))
        block.writes = write_insts
        return block

    def _expand_fanout(self, producer) -> None:
        targets = producer.targets
        while len(targets) > 2:
            grouped: List[Target] = []
            for i in range(0, len(targets) - 1, 2):
                mov = _Node(TOp.MOV)
                mov.index = len(self.nodes)
                self.nodes.append(mov)
                mov.targets = [targets[i], targets[i + 1]]
                grouped.append(Target(mov.index, Slot.OP0))
            if len(targets) % 2:
                grouped.append(targets[-1])
            targets = grouped
        producer.targets = targets

    def _to_tinst(self, node: _Node) -> TInst:
        predicate = None
        if node.pred is not None:
            predicate = "T" if node.pred[1] else "F"
        return TInst(
            index=node.index, op=node.op, targets=node.targets,
            predicate=predicate, imm=node.imm, fimm=node.fimm,
            lsid=node.lsid, width=node.width, signed=node.signed,
            is_float=node.is_float, label=node.label, cont=node.cont)


def _upward_exposed(hb: Hyperblock):
    """Registers read before a dominating write (live-in set).

    Shares the predicate-prefix kill rule with the register allocator's
    liveness (see ``repro.trips.regalloc._hyperblock_use_def``) so the
    converter and allocator agree on which values need header reads.
    """
    from repro.trips.regalloc import _hyperblock_use_def

    uses, _defs = _hyperblock_use_def(hb)
    return uses


_I64 = None  # set below to avoid circular import noise
from repro.ir.types import Type as _Type  # noqa: E402
_I64 = _Type.I64


def convert_hyperblock(hb: Hyperblock, assignment: Dict[VReg, int],
                       live_out_regs: Dict[str, set],
                       incoming: Dict[VReg, int],
                       live_in_regs: Dict[str, set] = None) -> TripsBlock:
    """Convert one hyperblock to a validated TRIPS block."""
    live_out = live_out_regs.get(hb.label, set())
    live_in = None
    if live_in_regs is not None:
        live_in = live_in_regs.get(hb.label, set())

    def read_reg_for(vreg: VReg) -> int:
        try:
            return assignment[vreg]
        except KeyError:
            raise ConversionError(
                f"{hb.label}: no register for live-in {vreg}") from None

    def write_reg_for(vreg):
        if vreg is None:
            return live_out
        return assignment[vreg]

    converter = _Converter(hb, read_reg_for, write_reg_for, incoming,
                           live_in=live_in)
    converter.convert()
    block = converter.linearize()
    _check_limits(block)
    return block


def try_convert(hb: Hyperblock, all_cross_block) -> bool:
    """Constraint oracle for hyperblock formation.

    Uses a synthetic one-register-per-value assignment (an overcount of
    reads/writes relative to the real allocator) and checks the prototype
    limits without full register-range validation.
    """
    synthetic: Dict[VReg, int] = {}

    def read_reg_for(vreg: VReg) -> int:
        return synthetic.setdefault(vreg, len(synthetic))

    defs = {h.inst.dest for h in hb.instructions if h.inst.dest is not None}
    live_out = {v for v in defs if v in all_cross_block}
    # Conservative CFG live-in approximation for the oracle: upward
    # exposure plus any cross-block register (re)defined here under a
    # predicate (its incoming value may need to merge).
    predicated_defs = {h.inst.dest for h in hb.instructions
                       if h.inst.dest is not None and h.pred is not None}
    live_in = _upward_exposed(hb) | (predicated_defs & set(all_cross_block))

    def write_reg_for(vreg):
        if vreg is None:
            return live_out
        return read_reg_for(vreg)

    converter = _Converter(hb, read_reg_for, write_reg_for, {},
                           live_in=live_in)
    try:
        converter.convert()
        block = converter.linearize()
    except ConversionError:
        return False
    try:
        _check_limits(block)
    except ConversionError:
        return False
    return True


def _check_limits(block: TripsBlock) -> None:
    if len(block.instructions) > MAX_BLOCK_INSTS:
        raise ConversionError(
            f"{block.label}: {len(block.instructions)} instructions")
    if len(block.reads) > MAX_READS:
        raise ConversionError(f"{block.label}: {len(block.reads)} reads")
    if len(block.writes) > MAX_WRITES:
        raise ConversionError(f"{block.label}: {len(block.writes)} writes")
    if len(block.lsids) > MAX_LSIDS:
        raise ConversionError(f"{block.label}: {len(block.lsids)} lsids")
    if len(block.exits) > MAX_EXITS:
        raise ConversionError(f"{block.label}: {len(block.exits)} exits")
