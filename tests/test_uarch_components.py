"""Microarchitecture component tests: resources, caches, OPN, predictors."""

import pytest
from hypothesis import given, strategies as st

from repro.uarch import (
    AlphaTournamentPredictor, DramModel, GsharePredictor, MeshTopology,
    NextBlockPredictor, OperandNetwork, SetAssociativeCache, TripsConfig,
    improved_predictor_config,
)
from repro.uarch.caches import L1DataBanks, MemoryHierarchy, NucaL2
from repro.uarch.resources import SkipAheadResource

MESH = MeshTopology()
et_coord, dt_coord, rt_coord = MESH.et_coord, MESH.dt_coord, MESH.rt_coord
route, hop_count, GT_COORD = MESH.route, MESH.hop_count, MESH.gt_coord


class TestSkipAheadResource:
    def test_in_order_claims_serialize(self):
        r = SkipAheadResource()
        assert r.claim(5) == 5
        assert r.claim(5) == 6
        assert r.claim(5) == 7

    def test_out_of_order_claims_fill_gaps(self):
        r = SkipAheadResource()
        assert r.claim(700) == 700
        assert r.claim(450) == 450     # must not queue behind cycle 700
        assert r.claim(450) == 451

    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=300))
    def test_claims_unique_and_ordered(self, requests):
        r = SkipAheadResource()
        granted = [r.claim(t) for t in requests]
        assert len(set(granted)) == len(granted)
        assert all(g >= t for g, t in zip(granted, requests))

    def test_pruning_keeps_recent_busy(self):
        r = SkipAheadResource()
        for t in range(9000):
            r.claim(t)
        # After pruning, old cycles are considered busy via the floor.
        assert r.claim(0) >= r.floor


class TestCaches:
    def test_lru_eviction(self):
        cache = SetAssociativeCache(2 * 64, 64, assoc=2)  # 1 set, 2 ways
        assert cache.access(0) is False
        assert cache.access(64 * cache.num_sets) is False
        assert cache.access(0) is True                      # still resident
        cache.access(2 * 64 * cache.num_sets)               # evicts LRU (way 64*)
        assert cache.access(0) is True

    def test_miss_rate_accounting(self):
        cache = SetAssociativeCache(1024, 64, 2)
        for address in range(0, 64 * 64, 64):
            cache.access(address)
        assert cache.stats.misses > 0
        assert 0 < cache.stats.miss_rate <= 1

    def test_dram_bandwidth_queueing(self):
        dram = DramModel(latency=50, occupancy=4, channels=1)
        first = dram.access(0, 0)
        second = dram.access(0, 0)
        assert second >= first + 4  # channel occupancy separates them

    def test_l1_banks_interleave(self):
        config = TripsConfig()
        hierarchy = MemoryHierarchy(config)
        banks = {hierarchy.l1d.bank_of(a)
                 for a in range(0, 64 * config.l1d_banks, 64)}
        assert banks == set(range(config.l1d_banks))

    def test_l1_hit_latency(self):
        config = TripsConfig()
        hierarchy = MemoryHierarchy(config)
        hierarchy.l1d.access(0, 0)          # warm (miss)
        done = hierarchy.l1d.access(0, 100)
        assert done == 100 + config.l1d_hit_cycles

    def test_l2_nuca_distance_latency(self):
        config = TripsConfig()
        hierarchy = MemoryHierarchy(config)
        near = hierarchy.l2.access(0, 0)
        far_addr = 15 * config.l2_line_bytes
        far = hierarchy.l2.access(far_addr, 0)
        assert far > near  # distant bank costs extra hops (both miss->DRAM)


class TestOpn:
    def test_route_length_is_manhattan(self):
        src, dst = et_coord(0), et_coord(15)
        assert len(route(src, dst)) == hop_count(src, dst) == 6

    def test_route_endpoints(self):
        links = route(dt_coord(0), rt_coord(3))
        assert links[0][0] == dt_coord(0)
        assert links[-1][1] == rt_coord(3)

    def test_local_bypass_is_free(self):
        opn = OperandNetwork()
        assert opn.send(et_coord(5), et_coord(5), 10, "ET-ET") == 10
        assert opn.stats.hop_histogram[("ET-ET", 0)] == 1

    def test_contention_queues(self):
        opn = OperandNetwork()
        a = opn.send(et_coord(0), et_coord(1), 5, "ET-ET")
        b = opn.send(et_coord(0), et_coord(1), 5, "ET-ET")
        assert b == a + 1
        assert opn.stats.queue_cycles == 1

    def test_statistics_by_class(self):
        opn = OperandNetwork()
        opn.send(et_coord(0), dt_coord(0), 0, "ET-DT")
        opn.send(et_coord(0), GT_COORD, 0, "ET-GT")
        assert opn.stats.packets["ET-DT"] == 1
        assert opn.stats.packets["ET-GT"] == 1
        assert opn.stats.average_hops() > 0

    @given(st.integers(0, 15), st.integers(0, 15))
    def test_any_et_pair_routes(self, a, b):
        links = route(et_coord(a), et_coord(b))
        assert len(links) == hop_count(et_coord(a), et_coord(b))


class TestConditionalPredictors:
    def test_gshare_learns_constant_direction(self):
        p = GsharePredictor()
        for _ in range(50):
            p.update(1234, True)
        assert p.predict(1234) is True

    def test_gshare_learns_alternation(self):
        p = GsharePredictor(table_bits=12, history_bits=8)
        correct = 0
        taken = True
        for i in range(400):
            taken = not taken
            if p.predict(77) == taken:
                correct += 1 if i > 100 else 0
            p.update(77, taken)
        assert correct > 250  # pattern captured via history

    def test_alpha_tournament_local_pattern(self):
        p = AlphaTournamentPredictor()
        pattern = [True, True, False]
        correct = 0
        for i in range(600):
            taken = pattern[i % 3]
            if p.predict(99) == taken and i > 200:
                correct += 1
            p.update(99, taken)
        assert correct > 320


class TestNextBlockPredictor:
    def test_learns_stable_exit(self):
        p = NextBlockPredictor()
        for _ in range(100):
            p.predict_and_update("blockA", 2, "br", "blockB")
        assert p.stats.mispredictions < 10

    def test_return_address_stack(self):
        p = NextBlockPredictor()
        mis_before = p.stats.mispredictions
        for _ in range(20):
            p.predict_and_update("caller", 0, "call", "callee",
                                 continuation="after_call")
            p.predict_and_update("callee_exit", 0, "ret", "after_call")
        # After warm-up, returns predict correctly through the RAS.
        assert p.stats.mispredictions - mis_before < 8

    def test_improved_config_bigger_target_tables(self):
        base = NextBlockPredictor(TripsConfig())
        improved = NextBlockPredictor(improved_predictor_config())
        assert improved.target_predictor.btb_size > base.target_predictor.btb_size

    def test_alternating_exits_learned_by_history(self):
        p = NextBlockPredictor()
        for i in range(400):
            p.predict_and_update("loop", i % 2, "br",
                                 "even" if i % 2 == 0 else "odd")
        # Global exit history should capture strict alternation eventually;
        # allow generous slack (tournament needs warm-up).
        assert p.stats.mispredictions < 300
