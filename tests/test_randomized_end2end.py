"""Randomized end-to-end properties: generated programs must produce the
interpreter's result on the cycle-level and ideal machines too (the
functional simulators are covered in test_trips_backend/test_risc), and
the timing models folded over one recorded run keep the relations that
hold by construction."""

from hypothesis import given, settings

from repro.ir import run_module
from repro.opt import optimize
from repro.refmodels import PLATFORMS, run_platform, run_powerpc
from repro.trips import lower_module, run_trips
from repro.uarch import run_cycles, run_ideal
from repro.uarch.ideal import time_ideal

from tests.util import random_program

#: Figure 10's ideal-machine lanes, ``(window, dispatch cost)``.
FIG10_LANES = ((1024, 8), (1024, 0), (128 * 1024, 0))


@settings(max_examples=12, deadline=None)
@given(random_program(max_ops=8))
def test_cycle_simulator_matches_interpreter(module):
    expected = run_module(module)[0]
    lowered = lower_module(optimize(module, "O2"))
    assert run_cycles(lowered)[0] == expected


@settings(max_examples=12, deadline=None)
@given(random_program(max_ops=8))
def test_ideal_machine_matches_interpreter(module):
    expected = run_module(module)[0]
    lowered = lower_module(optimize(module, "O2"))
    assert run_ideal(lowered.program)[0] == expected


@settings(max_examples=10, deadline=None)
@given(random_program(max_ops=6))
def test_basic_block_formation_matches(module):
    expected = run_module(module)[0]
    lowered = lower_module(optimize(module, "O0"), formation="basic")
    from repro.trips import run_trips
    assert run_trips(lowered.program)[0] == expected


@settings(max_examples=12, deadline=None)
@given(random_program(max_ops=8))
def test_ideal_lanes_keep_their_relations(module):
    lowered = lower_module(optimize(module, "O2"))
    stream = run_trips(lowered.program)[1].outcomes
    lanes = [time_ideal(stream, window, cost) for window, cost in FIG10_LANES]
    for stats in lanes:
        assert stats.executed == stream.stats.executed
        assert stats.blocks == stream.stats.blocks_committed
    narrow_costly, narrow_free, wide_free = (s.cycles for s in lanes)
    assert wide_free <= narrow_free <= narrow_costly


@settings(max_examples=8, deadline=None)
@given(random_program(max_ops=8))
def test_platforms_time_every_executed_instruction(module):
    expected, ppc = run_powerpc(module)
    for spec in PLATFORMS.values():
        result, stats = run_platform(module, spec)
        assert result == expected
        assert stats.instructions == ppc.executed
