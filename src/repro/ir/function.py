"""Functions, basic blocks, control-flow graphs, and modules.

A :class:`Module` is the compilation unit: a set of functions plus global
data objects laid out in a flat address space.  A :class:`Function` owns an
ordered list of :class:`BasicBlock`; the first block is the entry.  Each
basic block must end in exactly one terminator instruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.ir.instructions import Instruction
from repro.ir.types import Type
from repro.ir.values import VReg


class BasicBlock:
    """A straight-line sequence of instructions ending in a terminator."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.instructions: List[Instruction] = []

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    @property
    def body(self) -> List[Instruction]:
        """Instructions excluding the terminator."""
        if self.terminator is not None:
            return self.instructions[:-1]
        return list(self.instructions)

    def successors(self) -> Tuple[str, ...]:
        term = self.terminator
        if term is None:
            return ()
        return term.labels

    def append(self, inst: Instruction) -> Instruction:
        if self.terminator is not None:
            raise ValueError(f"block {self.label} already terminated")
        self.instructions.append(inst)
        return inst

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __str__(self) -> str:
        lines = [f"{self.label}:"]
        lines.extend(f"  {inst}" for inst in self.instructions)
        return "\n".join(lines)


class Function:
    """A function: parameters, virtual-register pool, and a CFG of blocks."""

    def __init__(self, name: str, params: Iterable[VReg] = (),
                 return_type: Optional[Type] = None) -> None:
        self.name = name
        self.params: List[VReg] = list(params)
        self.return_type = return_type
        self.blocks: List[BasicBlock] = []
        self._blocks_by_label: Dict[str, BasicBlock] = {}
        self.next_vreg_id = max((p.id for p in self.params), default=-1) + 1

    # -- block management -------------------------------------------------

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def add_block(self, label: str) -> BasicBlock:
        if label in self._blocks_by_label:
            raise ValueError(f"duplicate block label {label!r}")
        block = BasicBlock(label)
        self.blocks.append(block)
        self._blocks_by_label[label] = block
        return block

    def block(self, label: str) -> BasicBlock:
        return self._blocks_by_label[label]

    def has_block(self, label: str) -> bool:
        return label in self._blocks_by_label

    def remove_block(self, label: str) -> None:
        block = self._blocks_by_label.pop(label)
        self.blocks.remove(block)

    def new_vreg(self, type_: Type, name: str = "") -> VReg:
        reg = VReg(self.next_vreg_id, type_, name)
        self.next_vreg_id += 1
        return reg

    # -- CFG queries -------------------------------------------------------

    def predecessors(self) -> Dict[str, List[str]]:
        """Map each block label to the labels of its CFG predecessors."""
        preds: Dict[str, List[str]] = {b.label: [] for b in self.blocks}
        for block in self.blocks:
            for succ in block.successors():
                preds[succ].append(block.label)
        return preds

    def reachable_labels(self) -> List[str]:
        """Labels of blocks reachable from the entry, in DFS preorder."""
        if not self.blocks:
            return []
        seen: List[str] = []
        seen_set = set()
        stack = [self.entry.label]
        while stack:
            label = stack.pop()
            if label in seen_set:
                continue
            seen_set.add(label)
            seen.append(label)
            for succ in reversed(self.block(label).successors()):
                if succ not in seen_set:
                    stack.append(succ)
        return seen

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    def instruction_count(self) -> int:
        return sum(len(b) for b in self.blocks)

    def __str__(self) -> str:
        params = ", ".join(f"{p}: {p.type}" for p in self.params)
        ret = f" -> {self.return_type}" if self.return_type else ""
        header = f"func @{self.name}({params}){ret} {{"
        parts = [header]
        parts.extend(str(b) for b in self.blocks)
        parts.append("}")
        return "\n".join(parts)


@dataclass
class GlobalData:
    """A statically allocated data object in the module address space."""

    name: str
    size: int
    address: int = 0
    init: bytes = b""
    align: int = 8

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"global {self.name} has non-positive size")
        if len(self.init) > self.size:
            raise ValueError(f"global {self.name} initializer exceeds size")


#: Base address at which global data objects are laid out.  Address zero is
#: kept unmapped so that null-pointer bugs in benchmark programs fault in
#: the interpreter rather than silently reading data.
GLOBAL_BASE = 0x1000


class Module:
    """A compilation unit: functions plus laid-out global data."""

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalData] = {}
        self._next_address = GLOBAL_BASE

    def add_function(self, func: Function) -> Function:
        if func.name in self.functions:
            raise ValueError(f"duplicate function {func.name!r}")
        self.functions[func.name] = func
        return func

    def function(self, name: str) -> Function:
        return self.functions[name]

    def add_global(self, name: str, size: int, init: bytes = b"",
                   align: int = 8) -> GlobalData:
        if name in self.globals:
            raise ValueError(f"duplicate global {name!r}")
        address = _align_up(self._next_address, align)
        data = GlobalData(name, size, address, init, align)
        self.globals[name] = data
        self._next_address = address + size
        return data

    def global_(self, name: str) -> GlobalData:
        return self.globals[name]

    @property
    def data_end(self) -> int:
        """First address past all global data (start of free memory)."""
        return self._next_address

    def __str__(self) -> str:
        parts = [f"module @{self.name}"]
        for data in self.globals.values():
            parts.append(f"global @{data.name} [{data.size} bytes @ {data.address:#x}]")
        parts.extend(str(f) for f in self.functions.values())
        return "\n\n".join(parts)


def _align_up(value: int, align: int) -> int:
    return (value + align - 1) // align * align
