"""The staged artifact pipeline behind the evaluation harness.

Every derivation step in the compile→lower→simulate chain is an
addressable **stage**:

========================  =======  ==========================================
stage                     persist  produces
========================  =======  ==========================================
``module``                no       benchmark IR :class:`Module`
``expected``              yes      golden interpreter result (checksum)
``optimized-ir``          no       optimized :class:`Module` per level
``risc-lowering``         no       RISC (PowerPC-class) program
``trips-lowering``        no       TRIPS :class:`LoweredProgram`
``trips-outcomes``        no       one recorded TRIPS run (:class:`OutcomeStream`)
``trips-functional``      yes      :class:`TripsStats`
``trips-cycles``          yes      :class:`CycleArtifact` (cycle + OPN + cache)
``ideal``                 yes      :class:`IdealStats`
``block-trace``           yes      :class:`TraceSummary`
``trace-summary``         yes      :class:`repro.trace.TraceMetrics`
``risc-trace``            no       one recorded RISC run (:class:`RiscTrace`)
``powerpc``               yes      :class:`RiscStats`
``platform``              yes      :class:`SuperscalarStats`
``bandwidth``             yes      :class:`BandwidthArtifact` (Figure 8)
========================  =======  ==========================================

Artifacts are keyed by a content hash of their inputs (benchmark name,
variant, formation, optimization level, and a stable digest of
:class:`TripsConfig` / platform spec) plus the pipeline schema version
and a digest of the ``repro`` sources — see :mod:`repro.pipeline.keys`.
Persisted stages live under ``.repro-cache/`` (see
:mod:`repro.pipeline.store`) so figure regeneration is warm across
sessions and processes; compiler-object stages stay memory-only because
they are cheap to rebuild and expensive to serialise.

Each program runs once per semantics: the memory-only ``trips-outcomes``
and ``risc-trace`` recordings feed every functional, block-trace,
ideal, cycle-level, trace-summary, PowerPC and platform artifact.  An
artifact is still computed and stored only when first requested.  Every
recording is validated against the interpreter checksum before anything
derives from it (a wrong simulator must never produce a figure); warm
artifacts were validated when first computed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bench import get as get_benchmark
from repro.ir import run_module
from repro.ir.function import Module
from repro.opt import optimize
from repro.refmodels import PLATFORMS, SuperscalarModel, SuperscalarStats
from repro.risc import (
    RiscProgram, RiscSimulator, RiscStats, RiscTrace,
    lower_module as lower_risc,
)
from repro.trips import LoweredProgram, lower_module as lower_trips, run_trips
from repro.trips.functional import OutcomeStream, TripsStats
# ``run_ideal`` is not called here; the end-to-end benchmark's layer
# tracer (``e2e/layers.py``) looks it up in this module.
from repro.uarch import (
    CacheStats, CycleStats, IdealStats, OpnStats, TripsConfig, run_cycles,
    run_ideal,
)
from repro.uarch.ideal import check_ideal_params, time_ideal

from repro.obs import spans as obs_spans
from repro.pipeline.keys import artifact_digest, config_digest
from repro.pipeline.observe import (
    COMPUTE, DISK_HIT, MEMORY_HIT, STORE, Telemetry,
)
from repro.pipeline.store import (
    SCHEMA_VERSION, ArtifactStore, cache_enabled, default_cache_dir,
)

#: Optimization level per TRIPS variant (the paper's C and H bars).
VARIANT_LEVEL = {"compiled": "O2", "hand": "HAND"}

#: Stages whose artifacts persist to disk.
PERSISTED_STAGES = ("expected", "trips-functional", "trips-cycles", "ideal",
                    "block-trace", "trace-summary", "powerpc", "platform",
                    "bandwidth")

#: Stages whose compute step invokes a simulator (used by tests asserting
#: that a warm cache performs zero simulator invocations).
SIMULATION_STAGES = ("expected", "trips-functional", "trips-cycles", "ideal",
                     "block-trace", "trace-summary", "powerpc", "platform",
                     "bandwidth")


class ChecksumMismatch(Exception):
    """A simulator produced a different result from the interpreter."""


@dataclass
class TraceSummary:
    """Block-level control-flow trace for predictor studies."""

    events: List[Tuple[str, int, str, str, str]]  # label, exit#, kind, target, cont
    blocks: int


@dataclass
class CycleArtifact:
    """Everything the figure drivers read off one cycle-level run."""

    stats: CycleStats
    opn_stats: OpnStats
    l1d: CacheStats
    l1i: CacheStats
    l2: CacheStats
    dram_accesses: int


@dataclass
class BandwidthArtifact:
    """One streaming-bandwidth measurement (Figure 8 table)."""

    accesses: int
    cycles: int
    l1d_bytes: int
    l1d_misses: int
    dram_accesses: int


class CycleView:
    """Simulator-shaped read-only view over a :class:`CycleArtifact`.

    Exposes the attribute paths the drivers and CLI read from a live
    :class:`~repro.uarch.core.CycleSimulator` (``.stats``, ``.opn.stats``,
    ``.hierarchy.l1d.stats``, ``.hierarchy.dram.accesses``) so cached
    cycle results are drop-in replacements for a fresh simulation.
    """

    def __init__(self, artifact: CycleArtifact) -> None:
        self.stats = artifact.stats
        self.opn = SimpleNamespace(stats=artifact.opn_stats)
        self.hierarchy = SimpleNamespace(
            l1d=SimpleNamespace(stats=artifact.l1d),
            l1i=SimpleNamespace(stats=artifact.l1i),
            l2=SimpleNamespace(stats=artifact.l2),
            dram=SimpleNamespace(accesses=artifact.dram_accesses))


class Pipeline:
    """Content-addressed, optionally disk-backed artifact pipeline.

    ``cache_dir=None`` gives a memory-only pipeline (the historical
    :class:`Runner` behaviour); pass a path to persist the heavyweight
    stages across processes.  ``telemetry`` counts every stage
    resolution (see :mod:`repro.pipeline.observe`); with spans on,
    each resolution is also a ``stage.<name>`` span
    (:mod:`repro.obs.spans`).
    """

    def __init__(self, cache_dir=None, telemetry: Optional[Telemetry] = None,
                 fault_plan=None, fault_attempt: int = 0) -> None:
        from repro import runctx
        #: Invocation identity (shared across pool workers via
        #: ``$REPRO_RUN_ID``); stamped into spans, run reports, sweep
        #: points, and perf BENCH files.
        self.run = runctx.current()
        self.telemetry = telemetry or Telemetry()
        self.store = ArtifactStore(
            cache_dir, telemetry=self.telemetry, fault_plan=fault_plan,
            fault_attempt=fault_attempt) if cache_dir else None
        self._memory: Dict[Tuple[str, str], Any] = {}
        #: Golden interpreter results by benchmark name.  A plain dict so
        #: tests can sabotage a checksum and assert the guard fires.
        self._expected: Dict[str, Any] = {}

    def fork(self) -> "Pipeline":
        """A pipeline sharing this one's warm artifacts, with fresh
        telemetry.

        The in-memory stage cache and golden-result dict are shared by
        reference (both are append-only maps of immutable artifacts, so
        concurrent readers are safe), while the returned pipeline gets
        its own :class:`Telemetry` and its own store handle over the
        same cache directory.  ``repro serve`` forks the long-lived
        warm pipeline per sweep request so per-request computed/reused
        accounting starts at zero without giving up the warm front-end.
        """
        clone = Pipeline(
            cache_dir=self.store.base if self.store is not None else None)
        clone._memory = self._memory
        clone._expected = self._expected
        return clone

    def cached(self, stage: str, digest: str) -> bool:
        """Whether an artifact is already warm (memory or disk), without
        loading it — the serve layer's cheap per-request warm probe."""
        if (stage, digest) in self._memory:
            return True
        return self.store is not None and \
            self.store.path_for(stage, digest).exists()

    # -- generic stage resolution ------------------------------------------

    def _materialize(self, stage: str, key: Any, compute: Callable[[], Any],
                     persist: bool = False) -> Any:
        # Span wrap is two-tier so the off path (the perf-guarded hot
        # cache path) pays one boolean check and no allocation.  The
        # recorder reprs whatever part of ``key`` JSON cannot encode.
        if obs_spans.spans_active():
            with obs_spans.span("stage." + stage, cat="pipeline",
                                key=key) as live:
                return self._resolve(stage, key, compute, persist, live)
        return self._resolve(stage, key, compute, persist, None)

    def _resolve(self, stage: str, key: Any, compute: Callable[[], Any],
                 persist: bool, live) -> Any:
        digest = artifact_digest(SCHEMA_VERSION, stage, key)
        memory_key = (stage, digest)
        if memory_key in self._memory:
            self.telemetry.record(stage, MEMORY_HIT, 0.0)
            if live is not None:
                live.note(outcome=MEMORY_HIT, digest=digest[:12])
            return self._memory[memory_key]
        if persist and self.store is not None:
            start = time.perf_counter()
            found, value = self.store.load(stage, digest)
            if found:
                self.telemetry.record(stage, DISK_HIT,
                                      time.perf_counter() - start)
                if live is not None:
                    live.note(outcome=DISK_HIT, digest=digest[:12])
                self._memory[memory_key] = value
                return value
        start = time.perf_counter()
        value = compute()
        self.telemetry.record(stage, COMPUTE, time.perf_counter() - start)
        if live is not None:
            live.note(outcome=COMPUTE, digest=digest[:12])
        self._memory[memory_key] = value
        if persist and self.store is not None:
            start = time.perf_counter()
            self.store.store(stage, digest, value)
            self.telemetry.record(stage, STORE, time.perf_counter() - start)
        return value

    # -- golden model -------------------------------------------------------

    def module(self, name: str) -> Module:
        return self._materialize(
            "module", (name,),
            lambda: get_benchmark(name).module())

    def expected(self, name: str) -> Any:
        if name in self._expected:
            self.telemetry.record("expected", MEMORY_HIT)
            return self._expected[name]

        def compute():
            result, _ = run_module(self.module(name))
            return result

        value = self._materialize("expected", (name,), compute, persist=True)
        self._expected[name] = value
        return value

    def check(self, name: str, result: Any, system: str) -> None:
        expected = self.expected(name)
        if result != expected:
            raise ChecksumMismatch(
                f"{name} on {system}: got {result}, expected {expected}")

    # -- compiler stages (memory-only) --------------------------------------

    def optimized(self, name: str, level: str) -> Module:
        return self._materialize(
            "optimized-ir", (name, level),
            lambda: optimize(self.module(name), level))

    def risc_lowered(self, name: str, level: str = "O2") -> RiscProgram:
        return self._materialize(
            "risc-lowering", (name, level),
            lambda: lower_risc(self.optimized(name, level)))

    def trips_lowered(self, name: str, variant: str = "compiled",
                      formation: str = "hyper") -> LoweredProgram:
        level = VARIANT_LEVEL[variant]
        return self._materialize(
            "trips-lowering", (name, variant, formation),
            lambda: lower_trips(self.optimized(name, level),
                                formation=formation))

    # -- TRIPS simulation stages --------------------------------------------

    def trips_outcomes(self, name: str, variant: str = "compiled",
                       formation: str = "hyper") -> OutcomeStream:
        """The checksum-validated TRIPS run that the functional stats,
        block trace, ideal machine and cycle model derive from
        (memory-only)."""
        def compute():
            lowered = self.trips_lowered(name, variant, formation)
            result, sim = run_trips(lowered.program)
            self.check(name, result, f"trips/{variant}/{formation}")
            return sim.outcomes

        return self._materialize("trips-outcomes",
                                 (name, variant, formation), compute)

    def trips_functional(self, name: str,
                         variant: str = "compiled") -> TripsStats:
        return self._materialize(
            "trips-functional", (name, variant),
            lambda: self.trips_outcomes(name, variant).stats, persist=True)

    def trips_cycles(self, name: str, variant: str = "compiled",
                     config: Optional[TripsConfig] = None) -> CycleArtifact:
        def compute():
            _result, sim = run_cycles(self.trips_lowered(name, variant),
                                      config=config,
                                      outcomes=self.trips_outcomes(name,
                                                                   variant))
            l2 = CacheStats()
            for bank in sim.hierarchy.l2.banks:
                l2.accesses += bank.stats.accesses
                l2.misses += bank.stats.misses
            return CycleArtifact(
                stats=sim.stats,
                opn_stats=sim.opn.stats,
                l1d=sim.hierarchy.l1d.stats,
                l1i=sim.hierarchy.l1i.stats,
                l2=l2,
                dram_accesses=sim.hierarchy.dram.accesses)

        key = (name, variant, config_digest(config, TripsConfig))
        return self._materialize("trips-cycles", key, compute, persist=True)

    def ideal(self, name: str, variant: str = "compiled",
              window: int = 1024, dispatch_cost: int = 8) -> IdealStats:
        # Before the recording is requested: a bad point executes nothing.
        check_ideal_params(window, dispatch_cost)
        return self._materialize(
            "ideal", (name, variant, window, dispatch_cost),
            lambda: time_ideal(self.trips_outcomes(name, variant), window,
                               dispatch_cost),
            persist=True)

    def traced_cycles(self, name: str, variant: str = "compiled",
                      config: Optional[TripsConfig] = None):
        """A cycle-level fold with event tracing over the held
        recording: ``(simulator, events)``.  Not an artifact: the raw
        event stream is never cached."""
        from repro.trace import CollectingTracer

        tracer = CollectingTracer()
        _result, sim = run_cycles(self.trips_lowered(name, variant),
                                  config=config, tracer=tracer,
                                  outcomes=self.trips_outcomes(name, variant))
        return sim, tracer.events

    def trace_summary(self, name: str, variant: str = "compiled",
                      config: Optional[TripsConfig] = None,
                      buckets: Optional[int] = None):
        """Cycle-level run with event tracing, folded to
        :class:`repro.trace.TraceMetrics` (heatmap/timeline inputs).

        The raw event stream is ephemeral — only the derived metrics
        are cached, keyed like ``trips-cycles`` plus the timeline
        resolution.
        """
        from repro.trace import DEFAULT_BUCKETS, summarize

        resolution = buckets if buckets is not None else DEFAULT_BUCKETS

        def compute():
            sim, events = self.traced_cycles(name, variant, config)
            return summarize(events, sim.stats.cycles, buckets=resolution)

        key = (name, variant, config_digest(config, TripsConfig), resolution)
        return self._materialize("trace-summary", key, compute, persist=True)

    def block_trace(self, name: str, variant: str = "compiled",
                    formation: str = "hyper") -> TraceSummary:
        def compute():
            events = self.trips_outcomes(name, variant,
                                         formation).block_events()
            return TraceSummary(events, len(events))

        return self._materialize("block-trace", (name, variant, formation),
                                 compute, persist=True)

    # -- RISC / reference platform stages -----------------------------------

    def risc_trace(self, name: str, level: str = "O2") -> RiscTrace:
        """The checksum-validated RISC run that the PowerPC stats and
        every platform derive from (memory-only)."""
        def compute():
            trace = RiscTrace()
            result = RiscSimulator(self.risc_lowered(name, level)).run(
                "main", record=trace)
            self.check(name, result, f"powerpc/{level}")
            return trace

        return self._materialize("risc-trace", (name, level), compute)

    def powerpc(self, name: str, level: str = "O2") -> RiscStats:
        return self._materialize(
            "powerpc", (name, level),
            lambda: self.risc_trace(name, level).stats, persist=True)

    def platform(self, name: str, platform: str,
                 level: str = "O2") -> SuperscalarStats:
        return self._materialize(
            "platform", (name, platform, level),
            lambda: SuperscalarModel(PLATFORMS[platform]).run(
                self.risc_trace(name, level)),
            persist=True)

    # -- microbenchmark stages ----------------------------------------------

    def bandwidth(self, label: str, doubles: int, stride: int,
                  lanes: int = 8,
                  memory_size: int = 32 * 1024 * 1024) -> BandwidthArtifact:
        def compute():
            from repro.pipeline.bandwidth import measure_bandwidth
            return measure_bandwidth(doubles, stride, lanes, memory_size)

        key = (label, doubles, stride, lanes, memory_size,
               config_digest(None))
        return self._materialize("bandwidth", key, compute, persist=True)


def shared_pipeline() -> Pipeline:
    """The session-wide pipeline: disk-backed unless ``REPRO_CACHE=0``."""
    cache_dir = default_cache_dir() if cache_enabled() else None
    return Pipeline(cache_dir=cache_dir)
