"""End-to-end integration: one program through every system in the repo.

The central invariant of the whole reproduction (DESIGN.md Section 7):
the IR interpreter, the RISC simulator, the TRIPS functional simulator,
the TRIPS cycle simulator, the ideal machine, and every reference-platform
model must agree on the architectural result of every program.
"""

import pytest

from repro.bench import get
from repro.ir import run_module
from repro.opt import LEVELS, optimize
from repro.refmodels import PLATFORMS, run_platform
from repro.risc import lower_module as lower_risc, run_program
from repro.trips import lower_module as lower_trips, run_trips
from repro.uarch import run_cycles, run_ideal

#: A fast, diverse subset covering int/float/branchy/call-heavy workloads.
FAST_SET = ("rspeed", "a2time", "crc", "fbital", "vadd")


@pytest.mark.parametrize("name", FAST_SET)
def test_all_systems_agree(name):
    module = get(name).module()
    expected = run_module(module)[0]

    for level in ("O0", "O2"):
        optimized = optimize(module, level)
        assert run_program(lower_risc(optimized))[0] == expected, \
            f"RISC {level}"
        lowered = lower_trips(optimized)
        assert run_trips(lowered.program)[0] == expected, f"TRIPS-f {level}"
        assert run_cycles(lowered)[0] == expected, f"TRIPS-c {level}"
        assert run_ideal(lowered.program)[0] == expected, f"ideal {level}"

    for key, spec in PLATFORMS.items():
        assert run_platform(module, spec)[0] == expected, key


def test_hand_variant_agrees():
    module = get("fft").module()
    expected = run_module(module)[0]
    lowered = lower_trips(optimize(module, "HAND"))
    assert run_trips(lowered.program)[0] == expected
    assert run_cycles(lowered)[0] == expected


def test_paper_shape_hand_beats_compiled_on_kernel():
    """Hand optimization must not be slower on a regular kernel
    (paper: hand ~1.5x compiled on average)."""
    module = get("conv").module()
    compiled = lower_trips(optimize(module, "O2"))
    hand = lower_trips(optimize(module, "HAND"))
    _, csim = run_cycles(compiled)
    _, hsim = run_cycles(hand)
    assert hsim.stats.cycles <= csim.stats.cycles * 1.15


def test_paper_shape_window_occupancy_hundreds():
    """Figure 6 territory: a loop-parallel kernel should keep hundreds of
    instructions in flight."""
    module = get("vadd").module()
    lowered = lower_trips(optimize(module, "O2"))
    _, sim = run_cycles(lowered)
    assert sim.stats.avg_instructions_in_window > 100


def test_paper_shape_ideal_speedup_bounded():
    """Figure 10: the ideal 1K-window machine outperforms the prototype by
    a moderate factor (paper ~2.5x), not orders of magnitude."""
    module = get("autocor").module()
    lowered = lower_trips(optimize(module, "O2"))
    _, hw = run_cycles(lowered)
    _, ideal = run_ideal(lowered.program)
    ratio = hw.stats.cycles / ideal.stats.cycles
    assert 1.0 <= ratio < 12.0


@pytest.mark.parametrize("op,dividend,expected", [
    ("div", (1 << 62) + 1, 1537228672809129301),
    ("rem", (1 << 62) + 1, 2),
    ("div", -((1 << 62) + 1), -1537228672809129301),
    ("rem", -((1 << 62) + 1), -2),
])
def test_integer_division_is_exact(op, dividend, expected):
    """DIV and REM truncate toward zero exactly on every simulator; a
    quotient rounded through a double would read ...216 and remainder
    257, on all of them alike, so no checksum would catch it."""
    from repro.bench._util import init_i64
    from repro.ir import Builder, Type

    b = Builder()
    cell = b.global_array("a", 1, 8, init_i64([dividend]))
    b.function("main", return_type=Type.I64)
    b.ret(getattr(b, op)(b.load(cell), 3))
    assert run_module(b.module)[0] == expected
    for level in ("O0", "O2"):
        optimized = optimize(b.module, level)
        assert run_program(lower_risc(optimized))[0] == expected, level
        assert run_trips(lower_trips(optimized).program)[0] == expected, \
            level


def test_constant_division_folds_exactly():
    from repro.ir import Builder, Opcode, Type

    b = Builder()
    b.function("main", return_type=Type.I64)
    b.ret(b.div((1 << 62) + 1, 3))
    optimized = optimize(b.module, "O2")
    assert not any(inst.op is Opcode.DIV
                   for inst in optimized.function("main").instructions())
    assert run_module(optimized)[0] == 1537228672809129301
