"""The registered host benchmarks: every hot path the system has.

Workload sizes are fixed constants — ``--quick`` changes the repeat
count, never the work per sample, so quick-mode medians and full-mode
medians are directly comparable (quick just reports them with wider
noise).  Each ``run`` performs enough work (tens of milliseconds) that
``time.perf_counter`` granularity and call overhead are negligible.

========================  ==================================================
benchmark                 what it times
========================  ==================================================
``ir-interp``             the golden-model IR interpreter (``run_module``)
``risc-sim``              the RISC functional simulator end to end
``cycle-sim``             ``CycleSimulator.run`` via ``run_cycles``
``opn-route``             operand-network routing + link contention
``cache-hierarchy``       L1-D -> NUCA L2 -> DRAM access path
``pipeline-cold``         full stage compute into an empty artifact store
``pipeline-warm``         warm resolution (disk hit + checksum verify)
``sweep-journal``         journal append + replay (checksummed JSONL)
``serve-roundtrip``       warm ``POST /v1/run`` over the serve HTTP API
========================  ==================================================
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence

from repro.perf.harness import BenchSpec

__all__ = ["default_suite", "suite_names"]

#: Benchmark programs per simulator benchmark (small enough for CI,
#: large enough to dominate per-call overhead).
_INTERP_BENCH = "vadd"
_RISC_BENCH = "vadd"
_CYCLE_BENCH = "rspeed"
_PIPELINE_BENCH = "vadd"

#: Microbenchmark sizes.
_OPN_SENDS = 12000
_CACHE_ACCESSES = 30000


# -- simulator benchmarks ---------------------------------------------------

def _setup_ir_interp():
    from repro.bench import get
    return get(_INTERP_BENCH).module()


def _run_ir_interp(module):
    from repro.ir import run_module
    return run_module(module)


def _setup_risc_sim():
    from repro.bench import get
    from repro.opt import optimize
    from repro.risc import lower_module
    return lower_module(optimize(get(_RISC_BENCH).module(), "O2"))


def _run_risc_sim(program):
    from repro.risc import RiscSimulator
    return RiscSimulator(program).run("main")


def _setup_cycle_sim():
    from repro.bench import get
    from repro.opt import optimize
    from repro.trips import lower_module
    return lower_module(optimize(get(_CYCLE_BENCH).module(), "O2"),
                        formation="hyper")


def _run_cycle_sim(lowered):
    from repro.uarch import run_cycles
    return run_cycles(lowered)


# -- microarchitecture component benchmarks ---------------------------------

def _setup_opn_route():
    # A deterministic pseudo-random traffic pattern (LCG, fixed seed)
    # over ET<->ET and ET<->DT routes; built once, replayed per sample.
    from repro.uarch.opn import dt_coord, et_coord

    state = 0x2545F491
    plan = []
    for index in range(_OPN_SENDS):
        state = (1103515245 * state + 12345) & 0x7FFFFFFF
        src = et_coord(state % 16)
        if state & 0x10000:
            dst = dt_coord((state >> 4) % 4)
            klass = "ET-DT"
        else:
            dst = et_coord((state >> 8) % 16)
            klass = "ET-ET"
        # ~4 injections per cycle: enough pressure to queue behind busy
        # links without collapsing every send onto the same cycle.
        plan.append((src, dst, index // 4, klass))
    return plan


def _run_opn_route(plan):
    from repro.uarch.opn import OperandNetwork
    opn = OperandNetwork()
    send = opn.send
    for src, dst, ready, klass in plan:
        send(src, dst, ready, klass)
    return opn.stats


def _setup_cache_hierarchy():
    # Three interleaved streams: an L1-resident loop, a line-strided
    # L2-resident walk, and a DRAM-spilling scan (the Figure 8 ladder).
    line = 64
    plan = []
    for i in range(_CACHE_ACCESSES):
        kind = i % 3
        if kind == 0:
            address = (i * 8) % (8 * 1024)
        elif kind == 1:
            address = (i * line) % (512 * 1024)
        else:
            address = (i * 4096) % (16 * 1024 * 1024)
        plan.append((address, bool(i & 8)))
    return plan


def _run_cache_hierarchy(plan):
    from repro.uarch.caches import MemoryHierarchy
    from repro.uarch.config import TripsConfig
    hierarchy = MemoryHierarchy(TripsConfig())
    access = hierarchy.l1d.access
    now = 0
    for address, is_store in plan:
        done = access(address, now, is_store)
        now += 1 + ((done - now) >> 4)
    return hierarchy.l1d.stats


# -- pipeline benchmarks ----------------------------------------------------

def _setup_pipeline_cold():
    root = Path(tempfile.mkdtemp(prefix="repro-perf-cold-"))
    return SimpleNamespace(root=root, iteration=0)


def _run_pipeline_cold(state):
    # Fresh pipeline, fresh store: full compile -> simulate -> validate
    # -> persist chain for one benchmark (the `repro run` cold path).
    from repro.pipeline.core import Pipeline
    state.iteration += 1
    cache_dir = state.root / f"iter-{state.iteration}"
    pipeline = Pipeline(cache_dir=cache_dir)
    return pipeline.trips_functional(_PIPELINE_BENCH)


def _teardown_tmpdir(state):
    shutil.rmtree(state.root, ignore_errors=True)


def _setup_pipeline_warm():
    from repro.pipeline.core import Pipeline
    root = Path(tempfile.mkdtemp(prefix="repro-perf-warm-"))
    warmer = Pipeline(cache_dir=root / "store")
    warmer.expected(_PIPELINE_BENCH)
    warmer.trips_functional(_PIPELINE_BENCH)
    return SimpleNamespace(root=root)


def _run_pipeline_warm(state):
    # Fresh pipeline over a warm store: digest keying + disk load +
    # checksum verification, zero simulation (the warm `report` path).
    from repro.pipeline.core import Pipeline
    pipeline = Pipeline(cache_dir=state.root / "store")
    artifact = pipeline.trips_functional(_PIPELINE_BENCH)
    if pipeline.telemetry.counters("trips-functional").computes:
        raise RuntimeError("pipeline-warm benchmark hit the cold path")
    return artifact


# -- sweep benchmarks -------------------------------------------------------

#: Journal shape for ``sweep-journal``: one benchmark, two config points.
_SWEEP_BENCH = _CYCLE_BENCH
_SWEEP_AXIS = ("max_blocks_in_flight", (4, 8))


#: Points appended + replayed per ``sweep-journal`` sample — sized so
#: the checksummed encode/decode dominates file-open overhead.
_JOURNAL_POINTS = 400


def _setup_sweep_journal():
    from repro.explore.spec import SweepSpec
    root = Path(tempfile.mkdtemp(prefix="repro-perf-journal-"))
    spec = SweepSpec(name="perf-sweep-journal", system="cycles",
                     benchmarks=(_SWEEP_BENCH,), axes=(_SWEEP_AXIS,))
    record = {"label": "", "benchmark": _SWEEP_BENCH, "index": 0,
              "variant": "compiled", "system": "cycles",
              "settings": {_SWEEP_AXIS[0]: 4}, "status": "ok",
              "run_id": "perfperfperf", "attempts": 1, "causes": [],
              "error": None,
              "metrics": {"cycles": 12345, "ipc": 1.5, "executed": 9999}}
    return SimpleNamespace(root=root, spec=spec, record=record,
                           iteration=0)


def _run_sweep_journal(state):
    # One sample = a full sweep's journal lifecycle: claim + outcome
    # per point (fsync off — this measures the checksum/encode logic,
    # not the disk), then the crash-recovery read path replaying it.
    from repro.explore.journal import SweepJournal, read_journal
    state.iteration += 1
    path = state.root / f"iter-{state.iteration}.jsonl"
    with SweepJournal.create(path, state.spec, "perfperfperf",
                             fsync=False) as journal:
        for index in range(_JOURNAL_POINTS):
            record = dict(state.record)
            record["label"] = f"{_SWEEP_BENCH}/point={index}"
            record["index"] = index
            journal.claim(record["label"])
            journal.outcome(record)
    replayed = read_journal(path)
    if len(replayed.outcomes) != _JOURNAL_POINTS:
        raise RuntimeError(
            f"journal replay lost records: {len(replayed.outcomes)} "
            f"of {_JOURNAL_POINTS}")
    return len(replayed.outcomes)


#: Warm ``POST /v1/run`` round-trips per ``serve-roundtrip`` sample —
#: enough that socket setup and JSON framing dominate over timer
#: granularity, the way a client actually uses the service.
_SERVE_ROUNDTRIPS = 20
_SERVE_BENCH = "vadd"


def _setup_serve_roundtrip():
    from repro.serve import ReproServer, ServeClient, ServeConfig
    root = Path(tempfile.mkdtemp(prefix="repro-perf-serve-"))
    server = ReproServer(ServeConfig(
        host="127.0.0.1", port=0, cache_dir=root / "cache",
        spool_dir=root / "spool", rate=0.0, batch_window=0.0)).start()
    client = ServeClient(server.url, client_id="perf")
    # Pay the cold resolution once so every timed round-trip measures
    # the always-warm path: HTTP + validate + dedup + cache hit.
    client.run(_SERVE_BENCH)
    return SimpleNamespace(root=root, server=server, client=client)


def _run_serve_roundtrip(state):
    cycles = None
    for _ in range(_SERVE_ROUNDTRIPS):
        response = state.client.run(_SERVE_BENCH)
        if not response["warm"]:
            raise RuntimeError("serve-roundtrip request missed the "
                               "warm cache")
        cycles = response["metrics"]["cycles"]
    return cycles


def _teardown_serve_roundtrip(state):
    state.server.drain(timeout=10.0)
    shutil.rmtree(state.root, ignore_errors=True)


_SUITE: List[BenchSpec] = [
    BenchSpec("ir-interp", "simulators",
              f"IR reference interpreter, {_INTERP_BENCH} end to end",
              _setup_ir_interp, _run_ir_interp),
    BenchSpec("risc-sim", "simulators",
              f"RISC functional simulator, {_RISC_BENCH} end to end",
              _setup_risc_sim, _run_risc_sim),
    BenchSpec("cycle-sim", "simulators",
              f"cycle-level TRIPS simulator, {_CYCLE_BENCH} end to end",
              _setup_cycle_sim, _run_cycle_sim),
    BenchSpec("opn-route", "uarch",
              f"operand network: {_OPN_SENDS} routed sends w/ contention",
              _setup_opn_route, _run_opn_route),
    BenchSpec("cache-hierarchy", "uarch",
              f"L1D/L2/DRAM path: {_CACHE_ACCESSES} interleaved accesses",
              _setup_cache_hierarchy, _run_cache_hierarchy),
    BenchSpec("pipeline-cold", "pipeline",
              f"cold stage compute ({_PIPELINE_BENCH} trips-functional)",
              _setup_pipeline_cold, _run_pipeline_cold, _teardown_tmpdir),
    BenchSpec("pipeline-warm", "pipeline",
              f"warm stage resolution ({_PIPELINE_BENCH} disk hit)",
              _setup_pipeline_warm, _run_pipeline_warm, _teardown_tmpdir),
    BenchSpec("sweep-journal", "explore",
              f"sweep journal: {_JOURNAL_POINTS} checksummed "
              f"claim+outcome appends (fsync off) + crash-recovery "
              f"replay",
              _setup_sweep_journal, _run_sweep_journal,
              _teardown_tmpdir),
    BenchSpec("serve-roundtrip", "serve",
              f"warm POST /v1/run over HTTP, {_SERVE_ROUNDTRIPS} "
              f"round-trips ({_SERVE_BENCH})",
              _setup_serve_roundtrip, _run_serve_roundtrip,
              _teardown_serve_roundtrip),
]


def suite_names() -> List[str]:
    return [spec.name for spec in _SUITE]


def default_suite(only: Optional[Sequence[str]] = None) -> List[BenchSpec]:
    """The registered benchmarks, optionally restricted to ``only``.

    Unknown names raise with the valid set (mirrors the sweep spec
    validator's fail-fast style).
    """
    suite = list(_SUITE)
    if only is None:
        return suite
    by_name: Dict[str, BenchSpec] = {s.name: s for s in suite}
    unknown = [name for name in only if name not in by_name]
    if unknown:
        raise ValueError(
            f"unknown perf benchmark(s) {', '.join(sorted(unknown))} "
            f"(choose from: {', '.join(suite_names())})")
    return [by_name[name] for name in only]
