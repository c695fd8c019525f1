"""Generic supervised fan-out over a process pool.

Extracted from the ``report all`` warm phase (PR 3) so any harness that
fans independent *units* of work out to workers — benchmark warming,
design-space sweeps — gets the same recovery discipline:

* pooled retries with capped, seeded exponential backoff;
* per-unit wall-clock timeouts (a hung worker is killed, the pool
  replaced, and only the expired units charged an attempt);
* ``BrokenProcessPool`` recovery (innocent in-flight units resubmitted
  uncharged);
* one in-process serial *degrade* try after pooled attempts are
  exhausted, and only then ``failed``;
* a :class:`~repro.robust.RunReport` outcome for every unit — no unit's
  exception ever aborts the others.

The caller provides two hooks:

``submit(pool, label, attempt) -> Future``
    Submit one unit to the executor.  The submitted callable must be a
    picklable module-level function whose return value is a telemetry
    counter dict (``Telemetry.as_dict()``) or ``None``.
``run_inline(label, attempt) -> counters``
    Run one unit in the current process (the serial path and the
    degrade fallback) — must not honor worker-only faults.

An optional third hook, ``on_outcome(label, outcome)``, fires exactly
once per unit at the moment its :class:`UnitOutcome` becomes terminal
(completed, retried, degraded, or failed) — this is where the sweep
journal records outcomes, so a driver killed mid-run has a durable
record of everything that finished before it died.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.obs import spans as obs_spans
from repro.robust.errors import StageTimeout, WorkerCrash
from repro.robust.report import COMPLETED, DEGRADED, FAILED, RETRIED, \
    RunReport
from repro.robust.retry import RetryPolicy

#: Seconds between supervisor deadline sweeps when a timeout is set.
_TICK = 0.2


def replace_pool(pool: ProcessPoolExecutor, jobs: int,
                 kill: bool = False) -> ProcessPoolExecutor:
    """Retire a broken/poisoned executor and start a fresh one.

    ``kill`` terminates worker processes first — required when a hung
    worker would otherwise block shutdown forever.
    """
    if kill:
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.terminate()
            except Exception:
                pass
    try:
        pool.shutdown(wait=True, cancel_futures=True)
    except Exception:
        pass
    return ProcessPoolExecutor(max_workers=jobs)


def supervise_units(units: Sequence[str],
                    submit: Callable[[ProcessPoolExecutor, str, int],
                                     "object"],
                    run_inline: Callable[[str, int], object],
                    jobs: int = 1,
                    policy: Optional[RetryPolicy] = None,
                    stage_timeout: Optional[float] = None,
                    telemetry=None,
                    report: Optional[RunReport] = None,
                    progress=None,
                    sleep: Callable[[float], None] = time.sleep,
                    on_outcome=None,
                    ) -> RunReport:
    """Run every unit to a terminal status; returns the filled report.

    ``jobs <= 1`` runs everything through ``run_inline`` (no pool);
    otherwise units are pooled via ``submit``.  ``telemetry`` (a
    :class:`repro.pipeline.observe.Telemetry`, duck-typed to avoid an
    import cycle) receives each successful unit's counter dict.
    """
    report = report if report is not None else RunReport()
    policy = policy or RetryPolicy()

    def succeed(label: str, attempt: int, counters,
                status: Optional[str] = None) -> None:
        if telemetry is not None and counters:
            telemetry.merge_dict(counters)
        status = status or (RETRIED if attempt else COMPLETED)
        outcome = report.resolve(label, status, attempts=attempt + 1)
        if on_outcome:
            on_outcome(label, outcome)
        if progress:
            progress(label)

    def fail(label: str, attempts: int) -> None:
        outcome = report.resolve(label, FAILED, attempts=attempts)
        if on_outcome:
            on_outcome(label, outcome)
        if progress:
            progress(label)

    def attempt_inline(label: str, attempt: int):
        """One in-process try, spanned when spans are on."""
        if obs_spans.spans_active():
            with obs_spans.span("supervise.attempt", cat="supervise",
                                unit=label, attempt=attempt):
                return run_inline(label, attempt)
        return run_inline(label, attempt)

    def degrade(label: str, attempt: int, error: BaseException) -> None:
        """Pooled attempts exhausted: one in-process serial try."""
        report.record_attempt(label, error)
        try:
            counters = attempt_inline(label, attempt + 1)
        except Exception as exc:
            report.record_attempt(label, exc)
            fail(label, attempts=attempt + 2)
            return
        succeed(label, attempt + 1, counters, status=DEGRADED)

    # -- serial path -------------------------------------------------------
    if jobs <= 1:
        for label in units:
            attempt = 0
            while True:
                try:
                    counters = attempt_inline(label, attempt)
                except Exception as exc:
                    report.record_attempt(label, exc)
                    if attempt + 1 >= policy.max_attempts:
                        fail(label, attempts=attempt + 1)
                        break
                    sleep(policy.delay(attempt, label))
                    attempt += 1
                    continue
                succeed(label, attempt, counters)
                break
        return report

    # -- supervised pool path ----------------------------------------------
    pending = deque((label, 0) for label in units)
    inflight: Dict[object, Tuple[str, int, Optional[float]]] = {}
    pool = ProcessPoolExecutor(max_workers=jobs)

    def pool_submit(label: str, attempt: int) -> None:
        future = submit(pool, label, attempt)
        deadline = (time.monotonic() + stage_timeout) if stage_timeout \
            else None
        inflight[future] = (label, attempt, deadline)

    def retry_or_degrade(label: str, attempt: int,
                         error: BaseException) -> None:
        if attempt + 1 < policy.max_attempts:
            report.record_attempt(label, error)
            sleep(policy.delay(attempt, label))
            pending.append((label, attempt + 1))
        else:
            degrade(label, attempt, error)

    try:
        while pending or inflight:
            while pending and len(inflight) < jobs:
                label, attempt = pending.popleft()
                pool_submit(label, attempt)
            done, _ = wait(set(inflight), timeout=_TICK if stage_timeout
                           else None, return_when=FIRST_COMPLETED)
            crashed = False
            for future in done:
                label, attempt, _deadline = inflight.pop(future)
                try:
                    counters = future.result()
                except BrokenProcessPool:
                    crashed = True
                    retry_or_degrade(label, attempt,
                                     WorkerCrash(label, attempts=attempt + 1))
                except Exception as exc:
                    retry_or_degrade(label, attempt, exc)
                else:
                    succeed(label, attempt, counters)
            if crashed:
                # The executor is poisoned: every in-flight unit was lost
                # with it.  Retire the pool and resubmit them all.
                for future, (label, attempt, _deadline) in \
                        list(inflight.items()):
                    retry_or_degrade(label, attempt,
                                     WorkerCrash(label, attempts=attempt + 1))
                inflight.clear()
                pool = replace_pool(pool, jobs)
                continue
            if stage_timeout:
                now = time.monotonic()
                expired = [future for future, (_l, _a, deadline)
                           in inflight.items()
                           if deadline is not None and now > deadline]
                if expired:
                    # A running future cannot be cancelled: kill the pool,
                    # charge an attempt to the timed-out units only, and
                    # resubmit the innocent in-flight units as they were.
                    for future in expired:
                        label, attempt, _deadline = inflight.pop(future)
                        retry_or_degrade(
                            label, attempt,
                            StageTimeout(label, seconds=stage_timeout,
                                         attempts=attempt + 1))
                    for future, (label, attempt, _deadline) in \
                            list(inflight.items()):
                        pending.appendleft((label, attempt))
                    inflight.clear()
                    pool = replace_pool(pool, jobs, kill=True)
    finally:
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
    return report
