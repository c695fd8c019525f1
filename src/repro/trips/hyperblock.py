"""Hyperblock formation for the TRIPS backend.

Transforms an IR function's CFG into *hyperblocks*: single-entry,
multi-exit regions of predicated instructions, each of which will become
one TRIPS block.  The former grows regions greedily:

* **chain merging** — absorb an unconditional successor with a single
  predecessor;
* **if-conversion** — absorb a conditional arm with a single predecessor,
  predicating its instructions on the branch condition and emitting the
  other arm as a predicated exit.  Nested absorption builds predicate
  *chains*: an absorbed block's own condition test ends up predicated,
  which in dataflow form ANDs the conditions for free.

Growth is bounded by a caller-supplied *oracle* (trial conversion against
the real TRIPS block constraints), the mechanism by which the backend
guarantees every emitted block obeys the 128-instruction / 32-load-store /
32-read / 32-write / 8-exit limits.

Calls always terminate a hyperblock (the paper's "frequent function calls
cut blocks too early" compilation challenge); IR blocks are pre-split so
each call ends a block.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import Instruction, Opcode

#: A predicate is a *conjunction chain* of (condition value, polarity)
#: pairs, outermost context first.  An instruction or exit executes only
#: when every condition in the chain resolves to its required polarity.
#: None/empty means unpredicated.
Pred = Optional[Tuple[Tuple[object, bool], ...]]


def conjoin(context: Pred, inner: Pred) -> Pred:
    """Concatenate predicate chains (outer context first)."""
    if not context:
        return inner
    if not inner:
        return context
    return tuple(context) + tuple(inner)


def chain_covers(def_pred: Pred, use_pred: Pred) -> bool:
    """True when a definition under ``def_pred`` dominates a use under
    ``use_pred``: the def's chain is a prefix of the use's chain, so any
    execution of the use implies the def executed first."""
    d = tuple(def_pred or ())
    u = tuple(use_pred or ())
    return len(d) <= len(u) and u[:len(d)] == d


@dataclass
class HInst:
    """A (possibly predicated) straight-line IR instruction."""

    inst: Instruction
    pred: Pred = None


@dataclass
class HExit:
    """A (possibly predicated) hyperblock exit."""

    kind: str                    # 'br' | 'call' | 'ret'
    pred: Pred = None
    target: str = ""             # branch target label or callee name
    cont: str = ""               # call continuation label
    call: Optional[Instruction] = None   # the CALL instruction (args/dest)
    ret_value: object = None     # RET operand or None


@dataclass
class Hyperblock:
    """One formed region, destined to become a single TRIPS block."""

    label: str
    instructions: List[HInst] = field(default_factory=list)
    exits: List[HExit] = field(default_factory=list)

    def successor_labels(self) -> List[str]:
        labels = [e.target for e in self.exits if e.kind == "br"]
        labels.extend(e.cont for e in self.exits if e.kind == "call" and e.cont)
        return labels


def split_calls(func: Function) -> None:
    """Rewrite the CFG so every CALL is the last body instruction of its
    block (followed only by an unconditional branch)."""
    changed = True
    serial = 0
    while changed:
        changed = False
        for block in list(func.blocks):
            call_positions = [i for i, inst in enumerate(block.instructions)
                              if inst.op is Opcode.CALL]
            if not call_positions:
                continue
            first = call_positions[0]
            term = block.terminator
            if (first == len(block.instructions) - 2
                    and len(call_positions) == 1
                    and term is not None and term.op is Opcode.BR):
                continue  # already canonical: call + unconditional branch
            rest_label = f"{block.label}.c{serial}"
            serial += 1
            rest = func.add_block(rest_label)
            rest.instructions = block.instructions[first + 1:]
            block.instructions = block.instructions[:first + 1]
            block.instructions.append(
                Instruction(Opcode.BR, labels=(rest_label,)))
            changed = True
            break


def split_oversized_blocks(func: Function, max_body: int = 40) -> None:
    """Split straight-line IR blocks longer than ``max_body`` instructions.

    TRIPS blocks hold at most 128 instructions after dataflow expansion
    (fanout moves, constant generation, tests); a long IR block could
    exceed that before formation even starts.  Splitting is harmless —
    formation re-merges the pieces when they fit.
    """
    serial = 0
    changed = True
    while changed:
        changed = False
        for block in list(func.blocks):
            body = block.body
            if len(body) <= max_body:
                continue
            label = f"{block.label}.s{serial}"
            serial += 1
            rest = func.add_block(label)
            rest.instructions = block.instructions[max_body:]
            block.instructions = block.instructions[:max_body]
            block.instructions.append(
                Instruction(Opcode.BR, labels=(label,)))
            changed = True
            break


def canonicalize_returns(func: Function) -> None:
    """Route every RET through a single exit block (for epilogue placement)."""
    rets = [(block, i) for block in func.blocks
            for i, inst in enumerate(block.instructions)
            if inst.op is Opcode.RET]
    if len(rets) <= 1:
        return
    return_type = func.return_type
    exit_block = func.add_block("unified_exit")
    if return_type is not None:
        carrier = func.new_vreg(return_type, "retval")
        exit_block.append(Instruction(Opcode.RET, args=[carrier]))
    else:
        carrier = None
        exit_block.append(Instruction(Opcode.RET))
    for block, index in rets:
        inst = block.instructions[index]
        replacement = []
        if carrier is not None:
            replacement.append(Instruction(Opcode.MOV, carrier, [inst.args[0]]))
        replacement.append(Instruction(Opcode.BR, labels=(exit_block.label,)))
        block.instructions[index:index + 1] = replacement


def _seed_hyperblock(block: BasicBlock) -> Hyperblock:
    hb = Hyperblock(block.label)
    term = block.terminator
    body = block.body
    call_inst = None
    if body and body[-1].op is Opcode.CALL:
        call_inst = body[-1]
        body = body[:-1]
    hb.instructions = [HInst(inst) for inst in body]
    if call_inst is not None:
        assert term.op is Opcode.BR, "split_calls guarantees call+br"
        hb.exits.append(HExit("call", target=call_inst.callee,
                              cont=term.labels[0], call=call_inst))
    elif term.op is Opcode.BR:
        hb.exits.append(HExit("br", target=term.labels[0]))
    elif term.op is Opcode.CBR:
        cond = term.args[0]
        hb.exits.append(HExit("br", pred=((cond, True),),
                              target=term.labels[0]))
        hb.exits.append(HExit("br", pred=((cond, False),),
                              target=term.labels[1]))
    elif term.op is Opcode.RET:
        hb.exits.append(HExit(
            "ret", ret_value=term.args[0] if term.args else None))
    return hb


def _absorb(hb: Hyperblock, exit_index: int, victim: Hyperblock) -> Hyperblock:
    """Return a new hyperblock with ``victim`` merged into ``hb`` through
    the given exit (predicating victim's contents on the exit's predicate)."""
    merged = copy.deepcopy(hb)
    absorbed_exit = merged.exits.pop(exit_index)
    context = absorbed_exit.pred
    for hinst in victim.instructions:
        merged.instructions.append(
            HInst(hinst.inst, conjoin(context, hinst.pred)))
    for vexit in victim.exits:
        merged.exits.append(HExit(
            vexit.kind, conjoin(context, vexit.pred), vexit.target,
            vexit.cont, vexit.call, vexit.ret_value))
    _dedupe_exits(merged)
    return merged


def _dedupe_exits(hb: Hyperblock) -> None:
    """Collapse complementary same-target exits.

    After if-conversion a diamond's join is often targeted by two exits
    whose predicate chains differ only in the final polarity (``...,(c,T)``
    and ``...,(c,F)``).  Together they are equivalent to one exit under the
    shared prefix; collapsing re-exposes the join for absorption.
    """
    changed = True
    while changed:
        changed = False
        for i, a in enumerate(hb.exits):
            for j in range(i + 1, len(hb.exits)):
                b = hb.exits[j]
                if a.kind != "br" or b.kind != "br" or a.target != b.target:
                    continue
                pa, pb = a.pred or (), b.pred or ()
                if len(pa) != len(pb) or not pa:
                    continue
                if pa[:-1] != pb[:-1]:
                    continue
                (va, pola), (vb, polb) = pa[-1], pb[-1]
                if va == vb and pola != polb:
                    prefix = pa[:-1] or None
                    hb.exits[i] = HExit("br", prefix, a.target)
                    del hb.exits[j]
                    changed = True
                    break
            if changed:
                break


def _predecessor_counts(hyperblocks: Dict[str, Hyperblock]) -> Dict[str, int]:
    counts: Dict[str, int] = {label: 0 for label in hyperblocks}
    for hb in hyperblocks.values():
        for succ in hb.successor_labels():
            if succ in counts:
                counts[succ] += 1
    return counts


def form_hyperblocks(func: Function,
                     fits: Callable[[Hyperblock], bool],
                     max_rounds: int = 400) -> List[Hyperblock]:
    """Grow hyperblocks from the IR CFG until the oracle says stop.

    ``fits(hb)`` must return True when ``hb`` satisfies every TRIPS block
    constraint after dataflow conversion (trial conversion).  Growth is
    greedy and deterministic: blocks are visited in layout order; each
    tries to absorb through its exits.
    """
    order = [b.label for b in func.blocks]
    hyperblocks: Dict[str, Hyperblock] = {
        b.label: _seed_hyperblock(b) for b in func.blocks}
    for hb in hyperblocks.values():
        if not fits(hb):
            raise ValueError(
                f"seed block {hb.label} already violates TRIPS "
                "constraints; the IR block is too large")

    entry_label = func.entry.label
    for _ in range(max_rounds):
        preds = _predecessor_counts(hyperblocks)
        grown = False
        for label in order:
            hb = hyperblocks.get(label)
            if hb is None:
                continue
            for exit_index, hexit in enumerate(hb.exits):
                if hexit.kind != "br":
                    continue
                victim_label = hexit.target
                if victim_label == label or victim_label == entry_label:
                    continue
                victim = hyperblocks.get(victim_label)
                if victim is None or preds[victim_label] != 1:
                    continue
                # A predicated absorption must not swallow a call or ret
                # exit under a predicate?  Calls/rets may be predicated
                # exits in TRIPS; but a call exit's continuation handling
                # assumes the call is the unique exit taken, which
                # predication preserves.  Absorbing a block that branches
                # back to *itself* is fine (self-loop exit).
                if hexit.pred is not None and any(
                        e.kind == "call" for e in victim.exits):
                    continue  # keep call blocks unpredicated (ABI clarity)
                # A block may carry at most one exit that writes the ABI
                # registers (call arguments / return value) — G3's write
                # channel tolerates only one producer.
                hb_abi = any(e.kind in ("call", "ret") for e in hb.exits)
                victim_abi = any(e.kind in ("call", "ret")
                                 for e in victim.exits)
                if hb_abi and victim_abi:
                    continue
                candidate = _absorb(hb, exit_index, victim)
                if not fits(candidate):
                    continue
                hyperblocks[label] = candidate
                del hyperblocks[victim_label]
                grown = True
                break
            if grown:
                break
        if not grown:
            break

    ordered = [hyperblocks[label] for label in order if label in hyperblocks]
    return ordered
