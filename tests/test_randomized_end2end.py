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

from tests.util import load_goldens_tool, random_program

GOLDENS = load_goldens_tool()

#: Cycle-model counters and the recording's counterparts.
COUNTERS = (("executed", "executed"), ("useful", "useful"),
            ("moves", "moves_executed"), ("fetched", "fetched"),
            ("blocks_committed", "blocks_committed"),
            ("loads", "loads_executed"), ("stores", "stores_committed"),
            ("executed_not_used", "executed_not_used"),
            ("fetched_not_executed", "fetched_not_executed"))

#: Figure 10's ideal-machine lanes, ``(window, dispatch cost)``.
FIG10_LANES = ((1024, 8), (1024, 0), (128 * 1024, 0))


@settings(max_examples=12, deadline=None)
@given(random_program(max_ops=8))
def test_cycle_simulator_matches_interpreter(module):
    expected = run_module(module)[0]
    lowered = lower_module(optimize(module, "O2"))
    assert run_cycles(lowered)[0] == expected


@settings(max_examples=8, deadline=None)
@given(random_program(max_ops=8))
def test_cycle_counts_do_not_depend_on_timing_knobs(module):
    lowered = lower_module(optimize(module, "O2"))
    recorded = run_trips(lowered.program)[1].stats
    for name in GOLDENS.CONFIGS:
        stats = run_cycles(lowered, config=GOLDENS.config(name))[1].stats
        for cycle_field, functional_field in COUNTERS:
            assert getattr(stats, cycle_field) \
                == getattr(recorded, functional_field), (name, cycle_field)


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
