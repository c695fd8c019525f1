"""Spatial instruction placement onto the 4x4 execution-tile grid.

The TRIPS compiler decides which execution tile (ET) each instruction will
occupy; the hardware fetches instruction *i* of a block into reservation
station ``i % 8`` of tile ``placement[i]``.  Placement quality determines
operand-network traffic: the paper measures an average of ~0.9 hops per
ET-ET operand and identifies OPN contention as the top microarchitectural
performance loss.

The algorithm here is a greedy spatial path scheduler in the spirit of
Coons et al. [2]: instructions are placed in dataflow (creation) order;
each instruction scores every tile by

* the network distance from its already-placed producers,
* the distance to the memory interface (left column, where the DTs sit)
  for loads/stores,
* the distance to the register row (top, where the RTs sit) for
  instructions fed by reads or feeding writes,
* a occupancy penalty once a tile's eight reservation stations fill.

Two policies are provided for the ablation study: ``"sps"`` (the scorer
above) and ``"round_robin"`` / ``"random"`` baselines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.isa.asm import is_write_target
from repro.isa.block import TripsBlock
from repro.isa.instructions import TInst, TOp

#: Grid dimensions of the prototype's execution array.
GRID_W = 4
GRID_H = 4
NUM_TILES = GRID_W * GRID_H
SLOTS_PER_TILE = 8


def tile_xy(tile: int, width: int = GRID_W) -> Tuple[int, int]:
    return tile % width, tile // width


def tile_distance(a: int, b: int, width: int = GRID_W) -> int:
    """Manhattan hop count between two execution tiles."""
    ax, ay = tile_xy(a, width)
    bx, by = tile_xy(b, width)
    return abs(ax - bx) + abs(ay - by)


#: Hops from a tile to the data-tile column (DTs sit one column left of
#: the ET array in the prototype floorplan).
def hops_to_dt(tile: int, width: int = GRID_W) -> int:
    x, y = tile_xy(tile, width)
    return x + 1


#: Hops from a tile to the register-tile row (RTs sit above the array).
def hops_to_rt(tile: int, width: int = GRID_W) -> int:
    x, y = tile_xy(tile, width)
    return y + 1


#: Hops from a tile to the global control tile (top-left corner).
def hops_to_gt(tile: int, width: int = GRID_W) -> int:
    x, y = tile_xy(tile, width)
    return x + y + 1


@dataclass
class Placement:
    """Tile assignment for one block: instruction index -> tile id."""

    tiles: Dict[int, int] = field(default_factory=dict)


def place_block(block: TripsBlock, policy: str = "sps",
                seed: int = 0, grid: int = GRID_W) -> Placement:
    """Compute a placement for every instruction of the block.

    ``grid`` is the side of the (square) execution array: 4 for the
    prototype; 2 or 8 model the composable configurations of the paper's
    adaptive-granularity future work [Kim et al., MICRO 2007].  Slot
    capacity scales so a full 128-instruction block always fits.
    """
    tiles = grid * grid
    if policy == "round_robin":
        return Placement({i.index: i.index % tiles
                          for i in block.instructions})
    if policy == "random":
        rng = random.Random(seed ^ hash(block.label) & 0xFFFF)
        return _capacity_respecting_random(block, rng, tiles)
    if policy != "sps":
        raise ValueError(f"unknown placement policy {policy!r}")
    return _spatial_path_schedule(block, grid)


def _capacity_respecting_random(block: TripsBlock, rng,
                                tiles: int = NUM_TILES) -> Placement:
    placement = Placement()
    slots = max(SLOTS_PER_TILE, (128 + tiles - 1) // tiles)
    load = [0] * tiles
    for inst in block.instructions:
        candidates = [t for t in range(tiles)
                      if load[t] < slots] or list(range(tiles))
        tile = rng.choice(candidates)
        placement.tiles[inst.index] = tile
        load[tile] += 1
    return placement


def _spatial_path_schedule(block: TripsBlock, grid: int = GRID_W) -> Placement:
    placement = Placement()
    tiles = grid * grid
    slots = max(SLOTS_PER_TILE, (128 + tiles - 1) // tiles)         if grid != GRID_W else SLOTS_PER_TILE
    load = [0] * tiles

    producers_of = _producer_map(block)
    fed_by_read = _read_fed(block)

    for inst in block.instructions:
        best_tile = 0
        best_cost = None
        for tile in range(tiles):
            cost = 0.0
            for producer_index in producers_of.get(inst.index, ()):
                if producer_index in placement.tiles:
                    cost += tile_distance(placement.tiles[producer_index],
                                          tile, grid)
            if inst.op in (TOp.LOAD, TOp.STORE):
                cost += hops_to_dt(tile, grid)
            if inst.index in fed_by_read:
                cost += 0.5 * hops_to_rt(tile, grid)
            if _feeds_write(inst):
                cost += 0.5 * hops_to_rt(tile, grid)
            if inst.is_exit:
                cost += 0.5 * hops_to_gt(tile, grid)
            overflow = load[tile] - slots + 1
            if overflow > 0:
                cost += 4.0 * overflow
            cost += 0.15 * load[tile]   # spread for concurrency
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_tile = tile
        placement.tiles[inst.index] = best_tile
        load[best_tile] += 1
    return placement


def _producer_map(block: TripsBlock) -> Dict[int, List[int]]:
    """Consumer instruction index -> producer instruction indices."""
    producers: Dict[int, List[int]] = {}
    for inst in block.instructions:
        for target in inst.targets:
            if not is_write_target(target):
                producers.setdefault(target.inst, []).append(inst.index)
    return producers


def _read_fed(block: TripsBlock) -> set:
    fed = set()
    for read in block.reads:
        for target in read.targets:
            if not is_write_target(target):
                fed.add(target.inst)
    return fed


def _feeds_write(inst: TInst) -> bool:
    return any(is_write_target(t) for t in inst.targets)


def average_placed_hops(block: TripsBlock, placement: Placement,
                        grid: int = GRID_W) -> float:
    """Static mean ET-ET hop distance over the block's operand edges."""
    total = 0
    edges = 0
    for inst in block.instructions:
        for target in inst.targets:
            if is_write_target(target):
                continue
            total += tile_distance(placement.tiles[inst.index],
                                   placement.tiles[target.inst], grid)
            edges += 1
    return total / edges if edges else 0.0
