"""Fault-tolerant process-pool fan-out: warm the artifact store for many
benchmarks.

``repro report all`` historically re-simulated ~40 benchmarks serially.
The parallel path keeps the figure drivers byte-identical to the serial
run by splitting the work in two phases:

1. **Warm** — a :class:`~concurrent.futures.ProcessPoolExecutor` runs
   one worker per benchmark; each worker computes the full artifact set
   for its benchmark into the shared on-disk store (atomic writes, so
   concurrent workers are safe).
2. **Render** — the main process runs the drivers as usual; every
   simulation request is now a disk hit, so table assembly (means,
   geomeans, formatting) happens in one process in deterministic order.

Every artifact is deterministic in its content key, so the warm phase
changes *when* results are computed, never *what* they are.

The warm phase is supervised by the generic fan-out supervisor
(:func:`repro.robust.supervise.supervise_units`, shared with the
design-space sweep engine): each benchmark is an independently
recoverable *unit*.  A unit whose worker raises, dies
(``BrokenProcessPool``), or exceeds the per-stage timeout is resubmitted
with capped, seeded exponential backoff up to
:attr:`~repro.robust.RetryPolicy.max_attempts` times, then *degraded* to
in-process serial execution, and only marked failed if that fails too —
the run always completes, and the :class:`~repro.robust.RunReport`
records exactly what happened to every unit.  Because a dead or hung
worker poisons the whole executor, the supervisor replaces the pool and
resubmits the innocent in-flight units (a timeout costs only the
timed-out unit an attempt).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, \
    Tuple

from repro.pipeline.core import Pipeline
from repro.pipeline.observe import Telemetry
from repro.robust import (
    FaultPlan, RetryPolicy, RunReport, apply_unit_faults,
)
from repro.robust.supervise import supervise_units

#: Ideal-machine design points regenerated by Figure 10 / the CLI.
IDEAL_POINTS = ((1024, 8), (1024, 0), (128 * 1024, 0))

#: (platform, optimizer) pairs used by the speedup figures.
PLATFORM_LEVELS = (("core2", "O2"), ("p4", "O2"), ("p3", "O2"),
                   ("core2", "ICC"))

#: Artifact groups a warm worker may compute.
DEFAULT_INCLUDE = ("expected", "powerpc", "platforms", "functional",
                   "cycles", "ideal")

#: Streaming-bandwidth configurations of the Figure 8 table.
BANDWIDTH_LEVELS = (
    ("L1-D to proc", 2 * 1024, 1),      # 16 KB footprint: L1 resident
    ("L2 to L1", 24 * 1024, 8),         # 192 KB: L2 resident, line strides
    ("Memory to L2", 160 * 1024, 8),    # 1.25 MB: spills to DRAM
)

#: Unit label of the Figure 8 bandwidth measurements.
BANDWIDTH_UNIT = "<bandwidth>"


def warm_one(name: str, cache_dir: str,
             include: Sequence[str] = DEFAULT_INCLUDE,
             traces: bool = False, faults: Optional[FaultPlan] = None,
             attempt: int = 0,
             in_worker: bool = False) -> Dict[str, Dict[str, float]]:
    """Compute ``name``'s artifact set into ``cache_dir``.

    Runs in a worker process; returns the worker's telemetry counters so
    the parent can fold them into its profile.  ``faults``/``attempt``
    drive the deterministic chaos harness; ``in_worker`` gates the
    worker-only ``kill-worker`` fault.
    """
    from repro.bench import get as get_benchmark

    apply_unit_faults(faults, name, attempt, in_worker)
    pipeline = Pipeline(cache_dir=cache_dir, fault_plan=faults,
                        fault_attempt=attempt)
    bench = get_benchmark(name)
    variants = ["compiled"] + (["hand"] if bench.has_hand else [])
    if "expected" in include:
        pipeline.expected(name)
    if "powerpc" in include:
        pipeline.powerpc(name, "O2")
    if "platforms" in include:
        for platform, level in PLATFORM_LEVELS:
            pipeline.platform(name, platform, level)
    for variant in variants:
        if "functional" in include:
            pipeline.trips_functional(name, variant)
        if "cycles" in include:
            pipeline.trips_cycles(name, variant)
        if "ideal" in include:
            for window, dispatch_cost in IDEAL_POINTS:
                pipeline.ideal(name, variant, window, dispatch_cost)
    if traces:
        for formation in ("basic", "hyper"):
            pipeline.block_trace(name, "compiled", formation)
    return pipeline.telemetry.as_dict()


def warm_bandwidth(cache_dir: str, faults: Optional[FaultPlan] = None,
                   attempt: int = 0,
                   in_worker: bool = False) -> Dict[str, Dict[str, float]]:
    """Compute the Figure 8 streaming-bandwidth artifacts."""
    apply_unit_faults(faults, BANDWIDTH_UNIT, attempt, in_worker)
    pipeline = Pipeline(cache_dir=cache_dir, fault_plan=faults,
                        fault_attempt=attempt)
    for label, doubles, stride in BANDWIDTH_LEVELS:
        pipeline.bandwidth(label, doubles, stride)
    return pipeline.telemetry.as_dict()


def warm_benchmarks(names: Iterable[str], cache_dir, jobs: int = 1,
                    include: Sequence[str] = DEFAULT_INCLUDE,
                    trace_names: Iterable[str] = (),
                    bandwidth: bool = False,
                    telemetry: Optional[Telemetry] = None,
                    progress=None,
                    policy: Optional[RetryPolicy] = None,
                    stage_timeout: Optional[float] = None,
                    faults: Optional[FaultPlan] = None,
                    report: Optional[RunReport] = None,
                    sleep: Callable[[float], None] = time.sleep) -> Telemetry:
    """Fan the warm phase out over ``jobs`` worker processes.

    ``trace_names`` selects benchmarks that additionally need block
    traces (the Figure 7 predictor study); ``bandwidth`` adds the
    Figure 8 streaming measurements.  Returns merged telemetry.

    ``policy`` bounds per-unit retries (seeded backoff, injectable
    ``sleep``), ``stage_timeout`` bounds each unit's wall-clock time in
    a worker, ``faults`` injects a deterministic :class:`FaultPlan`,
    and ``report`` (filled in place) receives one outcome per unit —
    no exception from a unit ever aborts the other units.
    """
    telemetry = telemetry if telemetry is not None else Telemetry()
    trace_set = set(trace_names)
    cache_dir = str(cache_dir)
    units: List[str] = list(names)
    if bandwidth:
        units.append(BANDWIDTH_UNIT)

    def submit(pool, label: str, attempt: int):
        if label == BANDWIDTH_UNIT:
            return pool.submit(warm_bandwidth, cache_dir, faults,
                               attempt, True)
        return pool.submit(warm_one, label, cache_dir, tuple(include),
                           label in trace_set, faults, attempt, True)

    def run_inline(label: str, attempt: int):
        if label == BANDWIDTH_UNIT:
            return warm_bandwidth(cache_dir, faults, attempt, False)
        return warm_one(label, cache_dir, tuple(include),
                        label in trace_set, faults, attempt, False)

    supervise_units(units, submit, run_inline, jobs=jobs, policy=policy,
                    stage_timeout=stage_timeout, telemetry=telemetry,
                    report=report, progress=progress, sleep=sleep)
    return telemetry


def report_plan(keys: Sequence[str]) -> Tuple[List[str], Set[str], bool]:
    """What the given experiment keys need warmed:
    ``(benchmark names, trace benchmark names, bandwidth?)``."""
    from repro.eval.experiments import EEMBC8, SIMPLE, SPEC_FP, SPEC_INT

    spec = SPEC_INT + SPEC_FP
    needs: Dict[str, Tuple[str, ...]] = {
        "fig3": SIMPLE + spec, "fig4": SIMPLE + spec, "fig5": SIMPLE + spec,
        "sec44": SIMPLE, "fig6": SIMPLE + spec, "fig7": spec,
        "fig8b": EEMBC8 + ("gcc", "vadd", "matrix"),
        "fig9": SIMPLE + spec, "fig10": SIMPLE + spec,
        "fig11": SIMPLE, "fig12": spec, "table3": spec,
        "sec6": ("matrix",),
    }
    benchmarks: List[str] = []
    seen: Set[str] = set()
    for key in keys:
        for name in needs.get(key, ()):
            if name not in seen:
                seen.add(name)
                benchmarks.append(name)
    trace_names = set(spec) & seen if "fig7" in keys else set()
    return benchmarks, trace_names, "fig8a" in keys
