"""Sweep execution engine: design points -> cached, supervised runs.

Each design point is one *unit* of the generic fan-out supervisor
(:func:`repro.robust.supervise.supervise_units`) and resolves through
the content-addressed pipeline (:mod:`repro.pipeline`), which gives the
engine its two headline properties for free:

* **Resumability** — a point's artifact is keyed by the full
  configuration digest, so re-running a sweep after editing one axis
  only simulates the new points; an unchanged sweep is a 100% cache
  hit (0 simulations).  The default point's key is *identical* to a
  plain ``repro run`` of the same benchmark, so sweep results and
  single runs can never drift apart.
* **Fault tolerance** — worker crashes, hangs, and injected faults are
  retried, degraded to in-process execution, and finally recorded as
  annotated *holes* in the results (never an aborted sweep), with the
  whole story in the sweep's :class:`~repro.robust.RunReport`.

Both properties survive the death of the **driver itself** via the
sweep journal (:mod:`repro.explore.journal`): every point's claim and
terminal outcome is fsync'd to ``journal.jsonl`` in the output
directory as it happens, and ``resume=True`` (CLI ``--resume``)
replays terminal outcomes verbatim — ok points *and* holes — so only
unclaimed/unfinished points execute.  Replay is by record, not by
cache: a resumed sweep re-simulates nothing for journal-terminal
points even against an empty cache.

``jobs`` is the one executor choice.  At ``jobs <= 1`` every point
runs in this process on the sweep's one :class:`Pipeline`, so the
compiler front end (bench decoding, IR optimization, TRIPS lowering)
runs once per (benchmark, variant) and a point's marginal cost is its
simulation alone.  At ``jobs > 1`` the run is the same two-phase shape
as ``report all``: pool workers warm the shared on-disk store (one
point per task), then the sweep pipeline collects every artifact — all
disk hits — into per-point records as each unit resolves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro import runctx
from repro.explore.analyze import write_artifacts
from repro.explore.grid import DesignPoint, expand
from repro.explore.journal import (
    JOURNAL_FILE, SweepJournal, read_journal, spec_fingerprint,
)
from repro.obs import runindex as obs_runindex
from repro.obs import spans as obs_spans
from repro.explore.pack import write_pack
from repro.explore.spec import SweepSpec
from repro.pipeline.core import Pipeline
from repro.pipeline.observe import Telemetry
from repro.robust import (
    FAILED, FaultPlan, RetryPolicy, RunReport, apply_driver_fault,
    apply_unit_faults, supervise_units,
)

__all__ = ["SweepResult", "point_artifact", "point_metrics", "run_sweep",
           "warm_point"]

#: Pipeline stages whose computes count as "simulations" in the sweep
#: summary (the CI smoke job asserts the warm rerun reports zero).
POINT_STAGES = ("trips-cycles", "ideal")


def _point_artifact(pipeline: Pipeline, payload: Dict[str, Any]):
    """Resolve one point's artifact through the pipeline (cache-aware)."""
    return pipeline.point(payload["system"], payload["benchmark"],
                          payload["variant"], payload["settings"])


def _attempt_point(pipeline: Pipeline, payload: Dict[str, Any],
                   faults: Optional[FaultPlan], attempt: int,
                   in_worker: bool) -> None:
    """One attempt at one point on ``pipeline``: the unit faults fire,
    the store's ``corrupt-cache-entry`` faults are armed for this
    attempt only, and the artifact is resolved under a ``sweep.point``
    span when spans are on."""
    apply_unit_faults(faults, payload["label"], attempt, in_worker)
    store = pipeline.store
    store.fault_plan, store.fault_attempt = faults, attempt
    try:
        if obs_spans.spans_active():
            # Workers inherit $REPRO_SPANS, so every pool process
            # appends its point spans to the same timeline as the driver.
            with obs_spans.span("sweep.point", cat="sweep",
                                point=payload["label"], attempt=attempt):
                _point_artifact(pipeline, payload)
        else:
            _point_artifact(pipeline, payload)
    finally:
        store.fault_plan, store.fault_attempt = None, 0


def warm_point(payload: Dict[str, Any], cache_dir: str,
               faults: Optional[FaultPlan] = None, attempt: int = 0,
               in_worker: bool = False) -> Dict[str, Dict[str, float]]:
    """Compute one design point's artifact into ``cache_dir``.

    Module-level and picklable: the pool executor's task.  Returns the
    telemetry counters so the parent can fold them into the sweep
    profile.
    """
    pipeline = Pipeline(cache_dir=cache_dir)
    _attempt_point(pipeline, payload, faults, attempt, in_worker)
    return pipeline.telemetry.as_dict()


def _metrics(system: str, artifact) -> Dict[str, Any]:
    """The per-point metric record the analysis layer consumes."""
    if system == "cycles":
        stats = artifact.stats
        return {
            "cycles": stats.cycles, "ipc": stats.ipc,
            "useful_ipc": stats.useful_ipc,
            "executed": stats.executed, "useful": stats.useful,
            "blocks_committed": stats.blocks_committed,
            "branch_mispredictions": stats.branch_mispredictions,
            "icache_misses": stats.icache_misses,
            "load_flushes": stats.load_flushes,
            "avg_window_insts": stats.avg_instructions_in_window,
            "l1d_miss_rate": artifact.l1d.miss_rate,
            "avg_opn_hops": artifact.opn_stats.average_hops(),
        }
    return {"cycles": artifact.cycles, "ipc": artifact.ipc,
            "executed": artifact.executed, "blocks": artifact.blocks}


#: Public names for the per-point resolution/record helpers: the serve
#: subsystem routes its ``/v1/run`` payloads through the exact same
#: code path as sweep points, so an HTTP run and a sweep point of the
#: same configuration can never diverge in key or shape.
point_artifact = _point_artifact
point_metrics = _metrics


@dataclass
class SweepResult:
    """Everything ``repro sweep`` reports about one invocation."""

    spec: SweepSpec
    points: List[DesignPoint]
    records: List[Dict[str, Any]]
    report: RunReport
    out_dir: Path
    artifacts: Dict[str, Path] = field(default_factory=dict)
    simulated: int = 0
    reused: int = 0
    #: Points whose terminal record came from the journal (``--resume``)
    #: instead of execution — ok points and holes alike.
    replayed: int = 0
    seconds: float = 0.0

    @property
    def holes(self) -> List[Dict[str, Any]]:
        return [r for r in self.records if r["status"] != "ok"]

    @property
    def ok(self) -> bool:
        return not self.holes

    def summary_line(self) -> str:
        line = (f"sweep {self.spec.name}: {len(self.records)} points — "
                f"{len(self.records) - len(self.holes)} ok, "
                f"{len(self.holes)} holes; simulations: "
                f"{self.simulated} computed, {self.reused} reused from "
                f"cache")
        if self.replayed:
            line += f", {self.replayed} replayed from journal"
        return line + f"; {self.seconds:.1f}s"


def _open_journal(out_dir: Path, spec: SweepSpec, run_id: str,
                  resume: bool) -> "tuple[SweepJournal, Dict[str, Any]]":
    """Create (fresh) or resume (``--resume``) the sweep journal.

    Returns the open journal plus the replayed terminal records, keyed
    by label.  A fresh sweep truncates any previous journal —
    rerunning without ``--resume`` deliberately means "this run's
    ledger starts here" (the artifact cache, not the journal, carries
    warm reuse).
    """
    path = out_dir / JOURNAL_FILE
    if not resume:
        return SweepJournal.create(path, spec, run_id), {}
    state = read_journal(path)          # JournalError propagates: the
    state.validate_spec(spec)           # caller asked for *this* journal
    return (SweepJournal.resume(path, spec, run_id, state),
            dict(state.outcomes))


def _terminal_record(payload: Dict[str, Any], run_id: str, outcome,
                     pipeline: Pipeline) -> Dict[str, Any]:
    """Build one point's ``points.jsonl`` record from its outcome.

    ``ok`` outcomes load the artifact on the sweep pipeline (a memory
    hit after an in-process attempt, a disk hit after a pool worker
    stored it); a load that *still* fails is recorded as a hole rather
    than crashing the sweep.  Every record carries the full attempt
    history (``attempts``, ``causes``) so a resumed sweep reports
    cumulative retries, not just the last word.
    """
    record = dict(payload)
    # Every point record names the invocation that produced it, so a
    # ``points.jsonl`` line correlates with the same run's spans,
    # report.json, and BENCH files.
    record["run_id"] = run_id
    record["attempts"] = outcome.attempts
    record["causes"] = list(outcome.causes)
    if outcome.status == FAILED:
        record["status"] = "failed"
        record["error"] = outcome.causes[-1] if outcome.causes \
            else "failed"
        record["metrics"] = None
        return record
    try:
        artifact = _point_artifact(pipeline, record)
    except Exception as exc:
        cause = f"{type(exc).__name__}: {exc}"
        record["status"] = "failed"
        record["error"] = cause
        record["causes"].append(cause)
        record["metrics"] = None
        return record
    record["status"] = "ok"
    record["metrics"] = _metrics(payload["system"], artifact)
    record["error"] = None
    return record


def _finish(spec: SweepSpec, points, records, report: RunReport,
            out_dir, telemetry: Telemetry, replayed_ok: int,
            replayed: int, started: float, cache_dir) -> SweepResult:
    """Counts, artifacts, the attested pack, and the run-index row."""
    for record in records:
        if record["status"] != "ok":
            report.annotate(f"hole: {record['label']}: {record['error']}")
    simulated = telemetry.computes(POINT_STAGES)
    ok_count = sum(1 for r in records if r["status"] == "ok")
    executed_ok = ok_count - replayed_ok
    reused = executed_ok - simulated
    if reused < 0:
        # Counter drift: telemetry saw more point simulations than ok
        # points.  Annotate instead of clamping silently — a drifting
        # counter is a bug worth seeing, not noise worth hiding.
        report.annotate(
            f"telemetry drift: {simulated} point-stage computes counted "
            f"for {executed_ok} executed-ok points")
        reused = 0
    result = SweepResult(
        spec=spec, points=points, records=records, report=report,
        out_dir=Path(out_dir), simulated=simulated, reused=reused,
        replayed=replayed, seconds=time.perf_counter() - started)
    result.artifacts = write_artifacts(
        out_dir, spec, records, report.as_dict(), result.simulated,
        result.reused)
    result.artifacts["pack.json"] = write_pack(out_dir)
    # One queryable row per sweep, whichever executor (or the serve
    # service) ran it; a failed index write never fails the sweep.
    run = runctx.current()
    obs_runindex.record_run(
        run.run_id, "sweep",
        index_path=obs_runindex.default_index_path(cache_dir),
        label=spec.name, git_sha=run.git_sha,
        source_digest=run.source_digest,
        spec_digest=spec_fingerprint(spec),
        wall_s=result.seconds,
        outcome="ok" if result.ok else "holes",
        artifacts={"out_dir": str(result.out_dir)},
        metrics={"points": len(result.records),
                 "holes": len(result.holes),
                 "simulated": result.simulated,
                 "reused": result.reused,
                 "replayed": result.replayed})
    return result


def run_sweep(spec: SweepSpec, cache_dir, out_dir,
              jobs: int = 1,
              policy: Optional[RetryPolicy] = None,
              stage_timeout: Optional[float] = None,
              faults: Optional[FaultPlan] = None,
              telemetry: Optional[Telemetry] = None,
              progress: Optional[Callable[[str], None]] = None,
              sleep: Callable[[float], None] = time.sleep,
              resume: bool = False,
              pipeline: Optional[Pipeline] = None,
              ) -> SweepResult:
    """Expand, execute, collect, and analyze one sweep.

    ``cache_dir`` must be a real artifact store (sweeps are defined by
    their resumability); ``out_dir`` receives the artifact set (see
    :mod:`repro.explore.analyze`) plus the journal and repro pack.
    Failed points become annotated holes; the function never raises for
    a point failure.

    ``jobs`` picks the executor (see the module docstring); either way
    every attempt is claimed in the journal first, retried per
    ``policy``, and subject to ``faults``.  Points that run in this
    process — all of them at ``jobs <= 1``, degraded ones otherwise —
    run on the sweep pipeline: ``pipeline`` when given (an
    already-warm :class:`Pipeline` over the same ``cache_dir``;
    ``repro serve`` passes a :meth:`~repro.pipeline.core.Pipeline.fork`
    of its long-lived one), else a fresh one.  Its counters reach
    ``telemetry`` once, at the end, so it must carry fresh telemetry:
    the computed/reused accounting reads them.

    ``resume=True`` replays the journal already in ``out_dir`` (hard
    error if it belongs to a different spec) and executes only the
    points without a terminal outcome.
    """
    if cache_dir is None:
        raise ValueError("sweeps require the artifact cache "
                         "(drop --no-cache / REPRO_CACHE=0)")
    started = time.perf_counter()
    telemetry = telemetry if telemetry is not None else Telemetry()
    points = expand(spec)
    payloads = {point.label: point.payload() for point in points}
    cache_dir = str(cache_dir)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = RunReport()
    run_id = runctx.current().run_id
    if pipeline is None:
        pipeline = Pipeline(cache_dir=cache_dir)

    journal, replayed = _open_journal(out_dir, spec, run_id, resume)
    records_by_label: Dict[str, Dict[str, Any]] = dict(replayed)

    def submit(pool, label: str, attempt: int):
        journal.claim(label, attempt)
        apply_driver_fault(faults, label, attempt)
        return pool.submit(warm_point, payloads[label], cache_dir,
                           faults, attempt, True)

    def run_inline(label: str, attempt: int):
        journal.claim(label, attempt)
        apply_driver_fault(faults, label, attempt)
        _attempt_point(pipeline, payloads[label], faults, attempt, False)
        return None         # counted with the pipeline's, below

    def on_outcome(label: str, outcome) -> None:
        # Terminal means durable: the record reaches the fsync'd
        # journal before the supervisor moves on, so a driver killed
        # at *any* instant can replay everything that finished.
        record = _terminal_record(payloads[label], run_id, outcome,
                                  pipeline)
        records_by_label[label] = record
        journal.outcome(record)

    try:
        supervise_units(
            [point.label for point in points
             if point.label not in replayed],
            submit, run_inline, jobs=jobs, policy=policy,
            stage_timeout=stage_timeout, telemetry=telemetry,
            report=report, progress=progress, sleep=sleep,
            on_outcome=on_outcome)
    finally:
        journal.close()

    telemetry.merge(pipeline.telemetry)
    records = [records_by_label[point.label] for point in points]
    replayed_ok = sum(1 for label in replayed
                      if records_by_label[label]["status"] == "ok")
    return _finish(spec, points, records, report, out_dir, telemetry,
                   replayed_ok, len(replayed), started, cache_dir)
