"""RISC substrate: the paper's PowerPC comparison baseline.

Typical use::

    from repro.opt import optimize
    from repro.risc import lower_module, run_program

    program = lower_module(optimize(module, "O2"))
    result, sim = run_program(program)
    print(sim.stats.executed, sim.stats.loads, sim.stats.stores)
"""

from repro.risc.codegen import lower_module
from repro.risc.isa import (
    LATENCY, RClass, Reg, RiscFunction, RiscInst, RiscProgram, ROp,
)
from repro.risc.simulator import (
    RiscSimulator, RiscStats, RiscTrace, run_program,
)

__all__ = [
    "LATENCY",
    "RClass",
    "Reg",
    "RiscFunction",
    "RiscInst",
    "RiscProgram",
    "RiscSimulator",
    "RiscStats",
    "RiscTrace",
    "ROp",
    "lower_module",
    "run_program",
]
