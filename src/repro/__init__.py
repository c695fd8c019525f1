"""repro — a Python reproduction of "An Evaluation of the TRIPS Computer
System" (Gebhart et al., ASPLOS 2009).

The package implements, from scratch, every system the paper's evaluation
rests on:

* a machine-independent compiler IR with optimizer (:mod:`repro.ir`,
  :mod:`repro.opt`),
* the TRIPS EDGE ISA with its block constraints, assembler, and encoding
  model (:mod:`repro.isa`),
* the TRIPS compiler backend — hyperblock formation, predication,
  dataflow conversion, register allocation, spatial placement — and a
  functional simulator (:mod:`repro.trips`),
* the tiled TRIPS microarchitecture at cycle level — operand network,
  banked caches, next-block predictors, load/store queue — plus the ideal
  EDGE machine of the limit study (:mod:`repro.uarch`),
* a RISC ("PowerPC") substrate and parameterized out-of-order models of
  the Core 2 / Pentium 4 / Pentium III reference platforms
  (:mod:`repro.risc`, :mod:`repro.refmodels`),
* the benchmark suites of Table 2 (:mod:`repro.bench`) and one experiment
  driver per table/figure (:mod:`repro.eval`).

Quickstart::

    from repro.pipeline import shared_pipeline

    pipeline = shared_pipeline()
    stats = pipeline.trips_functional("vadd")
    cycles = pipeline.trips_cycles("vadd").stats
    print(stats.fetched / stats.blocks_committed, cycles.ipc)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
