"""Reference platform configurations (Table 1 of the paper).

Each platform is a :class:`~repro.refmodels.superscalar.PlatformSpec`
whose DRAM latency in *cycles* reflects the platform's processor/memory
clock ratio from Table 1 (Core 2 at 2.00, Pentium 4 at 6.75, Pentium III
at 4.50 — the Core 2 was deliberately underclocked to 1.6 GHz to match
the TRIPS ratio of 1.83).

"Compilers": the paper compares gcc- and icc-compiled binaries on the
Intel machines.  Here a platform run pairs a PlatformSpec with an
optimizer pipeline from :mod:`repro.opt` — ``O2`` plays gcc, ``ICC``
plays icc.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ir.function import Module
from repro.opt import optimize
from repro.risc import RiscSimulator, RiscTrace, lower_module

from repro.refmodels.superscalar import (
    PlatformSpec, SuperscalarModel, SuperscalarStats,
)

CORE2 = PlatformSpec(
    name="Core 2",
    fetch_width=4, issue_width=4, rob_size=96,
    predictor="tournament", predictor_bits=14, mispredict_penalty=15,
    l1d_bytes=32 * 1024, l1d_assoc=8, l1d_latency=3,
    l2_bytes=2 * 1024 * 1024, l2_assoc=8, l2_latency=14,
    dram_cycles=110, clock_mhz=1600,
    fp_latency_scale=1.0,
    mem_ports=2, fp_ports=2,
)

PENTIUM4 = PlatformSpec(
    name="Pentium 4",
    fetch_width=3, issue_width=3, rob_size=126,
    predictor="gshare", predictor_bits=12, mispredict_penalty=30,
    l1d_bytes=16 * 1024, l1d_assoc=4, l1d_latency=4,
    l2_bytes=2 * 1024 * 1024, l2_assoc=8, l2_latency=25,
    dram_cycles=320, clock_mhz=3600,
    fp_latency_scale=1.4,
    mem_ports=1, fp_ports=1,
)

PENTIUM3 = PlatformSpec(
    name="Pentium III",
    fetch_width=3, issue_width=3, rob_size=40,
    predictor="gshare", predictor_bits=10, mispredict_penalty=11,
    l1d_bytes=16 * 1024, l1d_assoc=4, l1d_latency=3,
    l2_bytes=512 * 1024, l2_assoc=8, l2_latency=8,
    dram_cycles=80, clock_mhz=450,
    fp_latency_scale=1.2,
    mem_ports=1, fp_ports=1,
)

PLATFORMS: Dict[str, PlatformSpec] = {
    "core2": CORE2,
    "p4": PENTIUM4,
    "p3": PENTIUM3,
}

#: Published GotoBLAS / SSE FLOPS-per-cycle figures the paper quotes for
#: the Section 6 matrix-multiply comparison (not measured by our models).
PUBLISHED_MATMUL_FPC = {
    "Pentium 4": 1.87,
    "Core 2": 3.58,
    "TRIPS (paper)": 5.20,
}


def run_platform(module: Module, spec: PlatformSpec,
                 opt_level: str = "O2", entry: str = "main",
                 args: Optional[List[object]] = None,
                 memory_size: int = 16 * 1024 * 1024
                 ) -> Tuple[object, SuperscalarStats]:
    """Compile ``module`` with ``opt_level``, run it on ``spec``.

    Returns (program result, timing statistics).  The RISC functional
    simulator records the run and the timing model folds over the
    recording, as the pipeline's ``platform`` stage does.
    """
    program = lower_module(optimize(module, opt_level))
    trace = RiscTrace()
    result = RiscSimulator(program, memory_size).run(entry, args,
                                                     record=trace)
    return result, SuperscalarModel(spec).run(trace)


def run_powerpc(module: Module, opt_level: str = "O2", entry: str = "main",
                args: Optional[List[object]] = None,
                memory_size: int = 16 * 1024 * 1024):
    """The PowerPC baseline: functional-only, for ISA normalization.

    Returns (result, RiscStats) — instruction counts, loads/stores, and
    register accesses, exactly what Figures 4/5 normalize against.
    """
    program = lower_module(optimize(module, opt_level))
    simulator = RiscSimulator(program, memory_size)
    result = simulator.run(entry, args)
    return result, simulator.stats
