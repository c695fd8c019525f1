"""Cycle-level core and ideal-machine tests."""

import pytest

from repro.ir import run_module
from repro.opt import optimize
from repro.trips import lower_module
from repro.uarch import TripsConfig, run_cycles, run_ideal

from tests.util import (
    branchy_module, calls_module, nested_calls_module, recursion_module,
    sum_of_squares_module, two_calls_module,
)


def _lowered(module, level="O2"):
    return lower_module(optimize(module, level))


class TestCycleCorrectness:
    @pytest.mark.parametrize("level", ["O0", "O2", "HAND"])
    def test_results_match_interpreter(self, level):
        module = sum_of_squares_module(21)
        expected = run_module(module)[0]
        assert run_cycles(_lowered(module, level))[0] == expected

    def test_branchy_program(self):
        module = branchy_module([6, -2, 9, -9, 3, 3, -7, 1])
        expected = run_module(module)[0]
        assert run_cycles(_lowered(module))[0] == expected

    @pytest.mark.parametrize("builder, level", [
        (calls_module, "O0"), (nested_calls_module, "O0"),
        (recursion_module, "O0"), (recursion_module, "O2"),
        (two_calls_module, "O0")])
    def test_calls(self, builder, level):
        # Every function's first block is labelled ``entry``: blocks of
        # different functions must not share a placement or a plan.
        module = builder()
        expected = run_module(module)[0]
        result, sim = run_cycles(_lowered(module, level))
        assert result == expected
        assert sim.stats.cycles > 0


class TestCycleStatistics:
    def test_basic_sanity(self):
        module = sum_of_squares_module(40)
        _, sim = run_cycles(_lowered(module))
        stats = sim.stats
        assert stats.cycles > 0
        assert 0 < stats.ipc < 16
        assert stats.useful <= stats.executed <= stats.fetched
        assert 0 < stats.avg_instructions_in_window <= 1024

    def test_window_bounded_by_hardware(self):
        module = sum_of_squares_module(60)
        _, sim = run_cycles(_lowered(module, "HAND"))
        assert sim.stats.avg_instructions_in_window <= 1024

    def test_icache_misses_counted_cold(self):
        module = sum_of_squares_module(10)
        _, sim = run_cycles(_lowered(module))
        assert sim.stats.icache_misses >= 1  # cold start

    def test_loads_stores_match_functional_semantics(self):
        module = sum_of_squares_module(12)
        _, sim = run_cycles(_lowered(module))
        assert sim.stats.loads >= 12
        assert sim.stats.stores >= 12

    def test_opn_traffic_recorded(self):
        module = sum_of_squares_module(12)
        _, sim = run_cycles(_lowered(module))
        assert sim.opn.stats.average_hops() > 0
        assert "ET-ET" in sim.opn.stats.packets


class TestConfigurationEffects:
    def test_slower_opn_slows_execution(self):
        module = sum_of_squares_module(40)
        lowered = _lowered(module)
        fast_cfg = TripsConfig()
        fast_cfg.opn_hop_cycles = 0
        slow_cfg = TripsConfig()
        slow_cfg.opn_hop_cycles = 3
        _, fast = run_cycles(_lowered(module), config=fast_cfg)
        _, slow = run_cycles(_lowered(module), config=slow_cfg)
        assert slow.stats.cycles > fast.stats.cycles

    def test_fewer_block_slots_reduce_window(self):
        module = sum_of_squares_module(60)
        small_cfg = TripsConfig()
        small_cfg.max_blocks_in_flight = 1
        _, small = run_cycles(_lowered(module), config=small_cfg)
        _, full = run_cycles(_lowered(module))
        assert small.stats.avg_instructions_in_window < \
            full.stats.avg_instructions_in_window
        assert small.stats.cycles > full.stats.cycles

    def test_mispredict_penalty_matters(self):
        module = branchy_module([1, -1] * 30)
        cheap = TripsConfig()
        cheap.mispredict_flush_cycles = 0
        costly = TripsConfig()
        costly.mispredict_flush_cycles = 40
        _, a = run_cycles(_lowered(module), config=cheap)
        _, b = run_cycles(_lowered(module), config=costly)
        assert b.stats.cycles >= a.stats.cycles


class TestIdealMachine:
    def test_correctness(self):
        module = sum_of_squares_module(19)
        expected = run_module(module)[0]
        lowered = _lowered(module)
        assert run_ideal(lowered.program)[0] == expected

    def test_ideal_outperforms_prototype(self):
        module = sum_of_squares_module(50)
        lowered = _lowered(module)
        _, hardware = run_cycles(lowered)
        _, ideal = run_ideal(lowered.program)
        assert ideal.stats.cycles < hardware.stats.cycles

    def test_bigger_window_never_slower(self):
        module = sum_of_squares_module(50)
        lowered = _lowered(module, "HAND")
        _, small = run_ideal(lowered.program, window=256)
        _, big = run_ideal(lowered.program, window=128 * 1024,
                           dispatch_cost=8)
        assert big.stats.cycles <= small.stats.cycles

    def test_zero_dispatch_cost_never_slower(self):
        module = sum_of_squares_module(50)
        lowered = _lowered(module)
        _, with_cost = run_ideal(lowered.program, dispatch_cost=8)
        _, free = run_ideal(lowered.program, dispatch_cost=0)
        assert free.stats.cycles <= with_cost.stats.cycles
