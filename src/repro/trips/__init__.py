"""TRIPS compiler backend and functional simulator.

Typical use::

    from repro.opt import optimize
    from repro.trips import lower_module, run_trips

    lowered = lower_module(optimize(module, "O2"))
    result, sim = run_trips(lowered.program)
    print(sim.stats.useful, sim.stats.moves_executed)
"""

from repro.trips.codegen import LoweredProgram, lower_function, lower_module
from repro.trips.dataflow import ConversionError, convert_hyperblock, try_convert
from repro.trips.functional import TripsSimulator, TripsStats, run_trips
from repro.trips.hyperblock import (
    HExit, HInst, Hyperblock, canonicalize_returns, form_hyperblocks,
    split_calls,
)
from repro.trips.placement import (
    NUM_TILES, Placement, SLOTS_PER_TILE, average_placed_hops, place_block,
    tile_distance,
)
from repro.trips.regalloc import (
    Allocation, allocate_registers, bank_of, hyperblock_liveness,
)

__all__ = [
    "Allocation",
    "ConversionError",
    "HExit",
    "HInst",
    "Hyperblock",
    "LoweredProgram",
    "NUM_TILES",
    "Placement",
    "SLOTS_PER_TILE",
    "TripsSimulator",
    "TripsStats",
    "allocate_registers",
    "average_placed_hops",
    "bank_of",
    "canonicalize_returns",
    "convert_hyperblock",
    "form_hyperblocks",
    "hyperblock_liveness",
    "lower_function",
    "lower_module",
    "place_block",
    "run_trips",
    "split_calls",
    "tile_distance",
    "try_convert",
]
