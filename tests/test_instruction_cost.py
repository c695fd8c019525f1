"""Per-instruction cost of the three per-instruction loops, as a count.

The golden IR interpreter, the RISC simulator and the superscalar fold
each decode their input once per run into flat tables.  A change that
puts a decode step back on the per-instruction path (an enum-keyed dict
lookup, a helper per register access, a comprehension) shows up here as
more Python-level calls per executed instruction.  The counts come from
``sys.setprofile`` and do not depend on the host's speed; before the
decode-once loops they read about 10.2, 8.1 and 2.4 on rspeed.
"""

import sys

import pytest

from repro.bench import get
from repro.ir import run_module
from repro.opt import optimize
from repro.refmodels import PLATFORMS, SuperscalarModel
from repro.risc import RiscSimulator, RiscTrace, lower_module


def _python_calls(fn):
    """``(Python-level calls made while running fn, fn's result)``."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(previous)
    return calls, result


@pytest.fixture(scope="module")
def rspeed():
    return get("rspeed").module()


def test_interpreter_calls_per_instruction(rspeed):
    calls, (_, interp) = _python_calls(lambda: run_module(rspeed))
    assert calls / interp.stats.executed <= 5.0


def test_risc_simulator_calls_per_instruction(rspeed):
    simulator = RiscSimulator(lower_module(optimize(rspeed, "O2")))
    trace = RiscTrace()
    calls, _ = _python_calls(lambda: simulator.run("main", record=trace))
    assert calls / trace.stats.executed <= 4.0


def test_superscalar_fold_calls_per_instruction(rspeed):
    trace = RiscTrace()
    RiscSimulator(lower_module(optimize(rspeed, "O2"))).run(
        "main", record=trace)
    model = SuperscalarModel(PLATFORMS["core2"])
    calls, _ = _python_calls(lambda: model.run(trace))
    assert calls / len(trace) <= 1.2
