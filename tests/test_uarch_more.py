"""Additional microarchitecture coverage: cache geometry validation,
DRAM channels, I-cache block tracking, OPN statistics, and the ideal
machine's constraint knobs."""

import pytest

from repro.uarch import (
    DramModel, MeshTopology, OperandNetwork, SetAssociativeCache,
    TripsConfig,
)
from repro.uarch.caches import L1InstructionCache, MemoryHierarchy, NucaL2

MESH = MeshTopology()
et_coord, dt_coord, rt_coord = MESH.et_coord, MESH.dt_coord, MESH.rt_coord
GT_COORD = MESH.gt_coord


class TestCacheGeometry:
    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(100, 64, 2)   # does not divide

    def test_warm_installs_without_stats(self):
        cache = SetAssociativeCache(1024, 64, 2)
        cache.warm(0)
        assert cache.stats.accesses == 0
        assert cache.access(0) is True

    def test_direct_mapped_conflicts(self):
        cache = SetAssociativeCache(2 * 64, 64, assoc=1)   # 2 sets, 1 way
        cache.access(0)
        assert cache.access(2 * 64) is False   # same set, evicts
        assert cache.access(0) is False        # got evicted


class TestDram:
    def test_two_channels_interleave(self):
        dram = DramModel(latency=10, occupancy=4, channels=2)
        a = dram.access(0x0000, 0)
        b = dram.access(0x1000, 0)   # other channel: no queueing
        assert a == b   # equal completion: channels don't interfere

    def test_occupancy_queues_same_channel(self):
        dram = DramModel(latency=10, occupancy=4, channels=1)
        first = dram.access(0, 100)
        second = dram.access(0, 100)
        assert second >= first + 4   # serialized by channel occupancy


class TestInstructionCache:
    def test_block_addresses_stable_and_disjoint(self):
        config = TripsConfig()
        hierarchy = MemoryHierarchy(config)
        icache = hierarchy.l1i
        a1 = icache.block_address("blockA", 4)
        a2 = icache.block_address("blockB", 4)
        assert a1 == icache.block_address("blockA", 4)
        assert abs(a2 - a1) >= 4 * config.l1i_line_bytes

    def test_refetch_hits(self):
        config = TripsConfig()
        hierarchy = MemoryHierarchy(config)
        _, missed_cold = hierarchy.l1i.fetch_block("hot", 3, 0)
        _, missed_warm = hierarchy.l1i.fetch_block("hot", 3, 100)
        assert missed_cold is True
        assert missed_warm is False


class TestNuca:
    def test_interleaves_by_line(self):
        config = TripsConfig()
        hierarchy = MemoryHierarchy(config)
        l2 = hierarchy.l2
        banks = {l2.bank_of(line * config.l2_line_bytes)
                 for line in range(config.l2_banks)}
        assert banks == set(range(config.l2_banks))


class TestOpnCoordinates:
    def test_tile_map_disjoint(self):
        ets = {et_coord(t) for t in range(16)}
        dts = {dt_coord(b) for b in range(4)}
        rts = {rt_coord(b) for b in range(4)}
        assert not ets & dts
        assert not ets & rts
        assert GT_COORD not in ets | dts | rts

    def test_composable_coords(self):
        assert MeshTopology(2).et_coord(3) == (2, 2)
        assert MeshTopology(8).et_coord(63) == (8, 8)

    def test_queue_fairness_over_disjoint_links(self):
        opn = OperandNetwork()
        a = opn.send(et_coord(0), et_coord(1), 0, "ET-ET")
        b = opn.send(et_coord(4), et_coord(5), 0, "ET-ET")
        assert a == b  # different links, no interference

    def test_hop_histogram_caps_at_five(self):
        opn = OperandNetwork()
        opn.send((1, 1), (8, 8), 0, "ET-ET")   # 14 hops on an 8x8 grid
        assert ("ET-ET", 5) in opn.stats.hop_histogram


class TestIdealKnobs:
    def _lowered(self):
        from repro.pipeline import Pipeline
        return Pipeline().trips_lowered("crc")

    def test_window_one_block_serializes(self):
        from repro.uarch import run_ideal
        lowered = self._lowered()
        _, narrow = run_ideal(lowered.program, window=128)
        _, wide = run_ideal(lowered.program, window=8 * 1024)
        assert narrow.stats.cycles >= wide.stats.cycles

    def test_stats_consistency(self):
        from repro.uarch import run_ideal
        lowered = self._lowered()
        result, sim = run_ideal(lowered.program)
        assert sim.stats.blocks > 0
        assert sim.stats.executed > sim.stats.blocks
        assert sim.stats.ipc > 0
