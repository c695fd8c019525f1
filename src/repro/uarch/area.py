"""Per-tile / per-structure area estimates for a configured machine.

Motivated by the EDGE soft-processor line of work (Gray & Smith): raw
IPC comparisons across predictor/window/network variants are
meaningless without an area denominator, so every simulated design
point also reports an estimated area and the frontier analysis can rank
points by IPC *per mm²*.

The constants below are **normalized 130 nm-class estimates** anchored
to the TRIPS prototype floorplan (the chip was 336 mm² in a 130 nm ASIC
process; the processor core with its L1s and OPN occupies roughly a
quarter of it).  They are deliberately simple — SRAM structures scale
linearly with capacity, logic structures with their count — because the
model's job is *relative* comparison between configurations, not sign-
off floorplanning.  Absolute numbers should be quoted only as
"prototype-normalized mm²"; see docs/COMPONENTS.md for the assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.trips.placement import GRID_W, SLOTS_PER_TILE
from repro.trips.regalloc import NUM_BANKS
from repro.uarch.config import TripsConfig
from repro.uarch.topologies import TOPOLOGIES

__all__ = ["AreaBreakdown", "estimate_area"]

#: SRAM density, mm² per KB (130 nm-class, ECC and peripherals folded in).
SRAM_MM2_PER_KB = 0.11
#: An execution tile's fixed logic (decode, OPN interface, block
#: control), excluding its issue slots and its window SRAM.
ET_BASE_MM2 = 0.25
#: One issue slot of an execution tile: an integer/FP datapath with its
#: select logic and result port.  The prototype has one per tile, so
#: base + one slot is its 1.05 mm² tile logic.
ET_ISSUE_MM2 = 0.80
#: One reservation-station slot (instruction + two operands + status).
ET_SLOT_MM2 = 0.012
#: A register tile: 32x64b bank plus its read/write port logic per port.
RT_BASE_MM2 = 0.35
RT_PORT_MM2 = 0.10
#: Global tile: block control, refill engine, commit protocol logic.
GT_MM2 = 1.4
#: OPN router crossbar + arbitration per node, and per directed link
#: (wiring, repeaters, input FIFO); a double-width link costs two links.
OPN_ROUTER_MM2 = 0.14
OPN_LINK_MM2 = 0.035
#: Load/store-queue CAM entry (per load-wait table entry, per DT).
LSQ_ENTRY_MM2 = 0.0006
#: The prototype's load-wait table entries per DT (the simulator's table
#: is an unbounded set, so this sizes area only).
LWT_ENTRIES = 1024
#: Register-file ports per bank: the simulator's one read and one write
#: resource per bank.
RT_PORTS = 2


@dataclass
class AreaBreakdown:
    """Estimated area by structure, in prototype-normalized mm²."""

    structures: Dict[str, float]

    @property
    def total_mm2(self) -> float:
        return sum(self.structures.values())

    def rows(self):
        """(structure, mm², share-of-total) rows, largest first."""
        total = self.total_mm2
        return [(name, mm2, mm2 / total if total else 0.0)
                for name, mm2 in sorted(self.structures.items(),
                                        key=lambda kv: -kv[1])]


def estimate_area(config: TripsConfig) -> AreaBreakdown:
    """Estimate the configured machine's area on the prototype's 4x4
    execution array.

    Structures the configuration sizes follow its fields; the rest take
    the simulator's own constants (eight reservation slots per tile per
    block, four register banks with one port each way).  Each of a
    tile's ``et_issue_width`` issue slots is charged a datapath with its
    select logic, linearly: a wider select costs more than that in
    silicon, so a wide machine's area is a lower bound.  The OPN
    contribution follows the *topology's* router and link counts, so
    sweeping ``opn_topology`` or ``max_blocks_in_flight`` moves the area
    denominator the way it would move the floorplan.
    """
    topology = TOPOLOGIES[config.opn_topology](GRID_W)
    ets = GRID_W * GRID_W
    nodes = (GRID_W + 1) ** 2

    structures = {
        "execution_tiles": ets * (ET_BASE_MM2
                                  + ET_ISSUE_MM2 * config.et_issue_width
                                  + SLOTS_PER_TILE * ET_SLOT_MM2
                                  * config.max_blocks_in_flight),
        "register_tiles": NUM_BANKS * (RT_BASE_MM2
                                       + RT_PORTS * RT_PORT_MM2),
        "global_tile": GT_MM2,
        "l1d": (config.l1d_banks * config.l1d_bank_bytes / 1024.0)
        * SRAM_MM2_PER_KB,
        "l1i": (config.l1i_bytes / 1024.0) * SRAM_MM2_PER_KB,
        "l2": (config.l2_banks * config.l2_bank_bytes / 1024.0)
        * SRAM_MM2_PER_KB,
        "opn": nodes * OPN_ROUTER_MM2
        + topology.link_count() * OPN_LINK_MM2,
        "predictor": ((config.exit_predictor_bytes
                       + config.target_predictor_bytes) / 1024.0)
        * SRAM_MM2_PER_KB,
        "lsq": config.l1d_banks * LWT_ENTRIES * LSQ_ENTRY_MM2,
    }
    return AreaBreakdown(structures)
