"""The always-warm simulation service behind ``repro serve``.

:class:`SimService` is the HTTP-free core: it owns the warm
:class:`~repro.pipeline.core.Pipeline` (and through it the open
artifact store) for the process lifetime and implements every endpoint
as a plain method returning ``(status, json_payload)``.  The HTTP
layer (:mod:`repro.serve.server`) is a thin adapter over it; tests
exercise the semantics directly or over a real socket — same code.

Request lifecycle for ``/v1/run``:

1. **Validate** the body through the sweep-spec validator
   (:func:`repro.explore.spec.validate_settings`), so a typo'd config
   field gets the same did-you-mean error a bad sweep would.
2. **Key** the request by the *exact* content-addressed digest the
   pipeline would store the artifact under — the cache key is the
   idempotency key.
3. **Dedup**: join the in-flight table.  Followers block on the
   leader's entry and share its result or error.
4. **Execute**: each leader is one task on the run executor (``jobs``
   threads over the one warm pipeline).  Once ``max_queue`` accepted
   runs still wait for a thread, a new leader sheds with 503.
5. **Respond** with the same metrics record a sweep point would carry
   (:func:`repro.explore.engine.point_metrics`), the digest, and the
   dedup/warm provenance flags.

Failures inside execution surface as structured 5xx bodies carrying
the :mod:`repro.robust` error-taxonomy type name and cause — a
faulted request is an answer, never a hang.  Draining (SIGTERM)
refuses new work with 503 + ``Retry-After`` while in-flight requests
finish and journals close.
"""

from __future__ import annotations

import collections
import contextlib
import difflib
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro import runctx
from repro.explore.engine import point_artifact, point_metrics, run_sweep
from repro.obs.events import EventBus
from repro.obs.dashboard import render_dashboard
from repro.obs.runindex import RunIndex, default_index_path
from repro.explore.spec import (
    IDEAL_AXES, SpecError, SweepSpec, validate_settings,
)
from repro.pipeline.core import Pipeline
from repro.pipeline.keys import artifact_digest, canonicalize, config_digest
from repro.pipeline.store import SCHEMA_VERSION
from repro.robust import FaultPlan, RetryPolicy, apply_unit_faults
from repro.serve.dedup import InFlightEntry, InFlightTable
from repro.serve.metrics import ServeMetrics
from repro.serve.ratelimit import RateLimiter
from repro.uarch.config import ConfigError, TripsConfig

__all__ = ["HttpError", "ServeConfig", "SimService"]

#: Deadline for a request waiting on its (possibly deduped) execution.
DEFAULT_REQUEST_TIMEOUT = 300.0

#: Sweeps bigger than this are refused over HTTP (run them via the CLI).
DEFAULT_MAX_SWEEP_POINTS = 256


class HttpError(Exception):
    """An error with a definite HTTP status and structured body."""

    def __init__(self, status: int, kind: str, message: str,
                 retry_after: Optional[float] = None,
                 extra: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(message)
        self.status = status
        self.kind = kind
        self.retry_after = retry_after
        self.extra = extra or {}

    def payload(self) -> Dict[str, Any]:
        body = {"type": self.kind, "cause": str(self)}
        body.update(self.extra)
        if self.retry_after is not None:
            body["retry_after_s"] = round(self.retry_after, 3)
        return {"error": body}


@dataclass
class ServeConfig:
    """Everything ``repro serve`` is told on the command line."""

    host: str = "127.0.0.1"
    port: int = 8651
    jobs: int = 2                      # run-executor threads
    cache_dir: Optional[Path] = None   # required: serve needs the store
    spool_dir: Path = Path("serve-spool")
    max_queue: int = 64                # runs waiting for a thread -> 503
    rate: float = 20.0                 # tokens/second per client
    burst: int = 40                    # bucket capacity per client
    faults: Optional[FaultPlan] = None
    request_timeout: float = DEFAULT_REQUEST_TIMEOUT
    max_sweep_points: int = DEFAULT_MAX_SWEEP_POINTS
    warm_benchmarks: Tuple[str, ...] = ()


def _bench_names() -> List[str]:
    from repro.bench import all_benchmarks
    return sorted(b.name for b in all_benchmarks())


def _suggest(name: str, candidates: List[str]) -> str:
    close = difflib.get_close_matches(name, candidates, n=1)
    return f" — did you mean {close[0]!r}?" if close else ""


class SimService:
    """One warm pipeline, served: run, sweep, trace, artifacts, status."""

    def __init__(self, config: ServeConfig) -> None:
        if config.cache_dir is None:
            raise ValueError("repro serve requires the artifact cache "
                             "(pass --cache-dir or unset REPRO_CACHE=0)")
        self.config = config
        self.pipeline = Pipeline(cache_dir=config.cache_dir)
        self.metrics = ServeMetrics()
        #: Live feed behind ``GET /v1/events`` (sweep progress, request
        #: outcomes, drain) — bounded, never applies backpressure.
        self.events = EventBus()
        #: The persisted run index, shared with the CLI: serve appends
        #: to the same ``index.db`` in the cache directory, so
        #: ``repro runs query`` sees service work too.  Rows are
        #: written by a dedicated polling thread fed through a plain
        #: deque — the request path pays one lock-free append, never a
        #: thread wakeup and never an SQLite commit (the
        #: ``serve-roundtrip`` benchmark is the regression gate for
        #: that promise).  Rows land within one poll interval, which
        #: is ample for an observability index.
        self.index = RunIndex(default_index_path(config.cache_dir))
        self._index_buffer: Deque[tuple] = collections.deque()
        self._index_stop = threading.Event()
        self._index_writer = threading.Thread(
            target=self._drain_index_queue, daemon=True,
            name="repro-serve-index")
        self._index_writer.start()
        self.limiter = RateLimiter(config.rate, config.burst)
        self.table = InFlightTable()
        #: The run executor: each ``/v1/run`` leader is one task.
        self._executor = ThreadPoolExecutor(
            max_workers=config.jobs, thread_name_prefix="repro-serve-run")
        self._lock = threading.Lock()
        self._active = 0               # HTTP work requests in flight
        self._waiting = 0              # accepted runs not yet on a thread
        self._running = 0              # runs on an executor thread
        self._fault_attempts: Dict[str, int] = {}
        self.draining = False
        self.drained = threading.Event()
        self.spool = Path(config.spool_dir)
        self.spool.mkdir(parents=True, exist_ok=True)
        self._benchmarks = _bench_names()

    # -- lifecycle ---------------------------------------------------------

    def warm(self, progress: Optional[Callable[[str], None]] = None) -> None:
        """Pre-warm the configured benchmarks' golden + cycle artifacts
        so the first request after boot is already a cache hit."""
        for name in self.config.warm_benchmarks:
            self.pipeline.expected(name)
            self.pipeline.trips_cycles(name)
            if progress is not None:
                progress(name)

    def begin_drain(self) -> None:
        self.draining = True

    def drain(self, timeout: float = 30.0) -> bool:
        """Graceful shutdown: refuse new work, finish in-flight requests
        (their journals close with them), stop the run executor, and
        write the final metrics snapshot to the spool directory.

        Returns ``True`` if everything quiesced within ``timeout``."""
        self.begin_drain()
        deadline = time.monotonic() + timeout
        clean = True
        while time.monotonic() < deadline:
            with self._lock:
                active = self._active
            if active == 0 and self.queue_depth == 0:
                break
            time.sleep(0.02)
        else:
            clean = False
        # Past the timeout, runs that never started are dropped and
        # runs still executing finish on their threads after the drain.
        self._executor.shutdown(wait=clean, cancel_futures=True)
        self.events.publish("drain", clean=clean)
        snapshot = self.metrics_payload()[1]
        snapshot["drained_clean"] = clean
        path = self.spool / "metrics.json"
        path.write_text(json.dumps(snapshot, indent=2, sort_keys=True,
                                   default=repr) + "\n")
        # Flush buffered index rows before closing the database: the
        # stop event makes the writer drain whatever remains and exit,
        # so a bounded join leaves every row committed in order.
        self._index_stop.set()
        self._index_writer.join(timeout=5.0)
        self.index.close()
        self.drained.set()
        return clean

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._active

    @property
    def queue_depth(self) -> int:
        """Accepted runs waiting for or holding an executor thread."""
        with self._lock:
            return self._waiting + self._running

    @contextlib.contextmanager
    def _track(self):
        # Checked under the lock the drain reads ``_active`` with, so
        # no request slips past a drain and submits to a stopped
        # executor.
        with self._lock:
            self._refuse_if_draining()
            self._active += 1
        try:
            yield
        finally:
            with self._lock:
                self._active -= 1

    def _refuse_if_draining(self) -> None:
        if self.draining:
            raise HttpError(503, "Draining",
                            "server is draining; no new work accepted",
                            retry_after=5.0)

    # -- /v1/run -----------------------------------------------------------

    def _validate_run(self, body: Any
                      ) -> Tuple[Dict[str, Any], str, str]:
        """``(payload, stage, digest)`` for one run request body."""
        if not isinstance(body, dict):
            raise HttpError(400, "BadRequest",
                            "body must be a JSON object")
        name = body.get("benchmark")
        if not isinstance(name, str) or not name:
            raise HttpError(400, "BadRequest",
                            "missing required field 'benchmark'")
        if name not in self._benchmarks:
            raise HttpError(
                404, "UnknownBenchmark",
                f"unknown benchmark {name!r}"
                f"{_suggest(name, self._benchmarks)}")
        system = body.get("system", "cycles")
        if system not in ("cycles", "ideal"):
            raise HttpError(400, "BadRequest",
                            f"system must be 'cycles' or 'ideal', "
                            f"got {system!r}")
        variant = body.get("variant", "compiled")
        if variant not in ("compiled", "hand"):
            raise HttpError(400, "BadRequest",
                            f"variant must be 'compiled' or 'hand', "
                            f"got {variant!r}")
        config = body.get("config") or {}
        if not isinstance(config, dict):
            raise HttpError(400, "BadRequest",
                            "'config' must be a JSON object")
        try:
            settings = validate_settings(config, system=system)
            if system == "cycles":
                trips = TripsConfig(**settings).validate()
                stage = "trips-cycles"
                key = (name, variant, config_digest(trips, TripsConfig))
            else:
                stage = "ideal"
                window = settings.get("window", IDEAL_AXES["window"][0])
                dispatch = settings.get("dispatch_cost",
                                        IDEAL_AXES["dispatch_cost"][0])
                key = (name, variant, window, dispatch)
        except (SpecError, ConfigError) as exc:
            raise HttpError(400, type(exc).__name__, str(exc)) from None
        payload = {"benchmark": name, "variant": variant,
                   "system": system, "settings": settings}
        return payload, stage, artifact_digest(SCHEMA_VERSION, stage, key)

    def handle_run(self, body: Any) -> Tuple[int, Dict[str, Any]]:
        self._refuse_if_draining()
        payload, stage, digest = self._validate_run(body)
        with self._track():
            leader, entry = self.table.join(digest)
            if leader:
                self.metrics.count("dedup.leaders")
                with self._lock:
                    full = self._waiting >= self.config.max_queue
                    if not full:
                        self._waiting += 1
                if full:
                    overload = HttpError(
                        503, "Overloaded",
                        f"run queue is full "
                        f"({self.config.max_queue} deep)",
                        retry_after=1.0)
                    # Followers that joined between claim and refusal
                    # must hear the same news.
                    self.table.resolve(entry, error=overload)
                    self.metrics.count("shed")
                    raise overload
                self._executor.submit(self._execute, payload, stage,
                                      digest, entry)
            else:
                self.metrics.count("dedup.shared")
            if not entry.wait(self.config.request_timeout):
                raise HttpError(
                    504, "Timeout",
                    f"request did not finish within "
                    f"{self.config.request_timeout:.0f}s")
            if entry.error is not None:
                raise self._as_http_error(entry.error)
            response = dict(entry.result)
            response["deduped"] = not leader
            return 200, response

    def _as_http_error(self, exc: BaseException) -> HttpError:
        if isinstance(exc, HttpError):
            return exc
        # The error taxonomy travels: the structured body names the
        # exception type (InjectedFault, SimulationBudgetExceeded,
        # ChecksumMismatch, ...) and its cause.
        return HttpError(500, type(exc).__name__, str(exc))

    def _next_fault_attempt(self, digest: str) -> int:
        with self._lock:
            attempt = self._fault_attempts.get(digest, 0)
            self._fault_attempts[digest] = attempt + 1
            return attempt

    def _index_record(self, kind: str, **fields: Any) -> None:
        """Buffer one run-index row for the writer thread.  The run
        stamp is captured here (the caller's scoped run id), but the
        SQLite write happens off the request path — the append does
        not even wake the writer, which polls on its own clock; an
        index failure never fails the request it describes."""
        run = runctx.current()
        self._index_buffer.append((run.run_id, kind,
                                   dict(git_sha=run.git_sha,
                                        source_digest=run.source_digest,
                                        **fields)))

    def _index_flush(self) -> None:
        """Commit every buffered index row, tolerating a database that
        breaks mid-flight.  Safe from any thread: ``deque.popleft`` is
        atomic, so the poller and an on-demand reader (the dashboard)
        can race without double-recording a row."""
        while True:
            try:
                run_id, kind, fields = self._index_buffer.popleft()
            except IndexError:
                return
            try:
                self.index.record(run_id, kind, **fields)
            except Exception:
                pass

    def _drain_index_queue(self) -> None:
        """The index writer loop: wake every 50 ms, commit whatever
        accumulated.  The stop event triggers one final sweep before
        exiting, so :meth:`drain` never loses buffered rows."""
        while True:
            stopped = self._index_stop.wait(timeout=0.05)
            self._index_flush()
            if stopped:
                return

    def _execute(self, payload: Dict[str, Any], stage: str, digest: str,
                 entry: InFlightEntry) -> None:
        """One leader's run, on an executor thread.  Every outcome
        resolves ``entry``: an exception the accounting in
        :meth:`_run_leader` does not expect still answers every waiter."""
        with self._lock:
            self._waiting -= 1
            self._running += 1
        try:
            self._run_leader(payload, stage, digest, entry)
        except Exception as exc:
            if not entry.event.is_set():
                self.table.resolve(entry, error=exc)
        finally:
            with self._lock:
                self._running -= 1

    def _run_leader(self, payload: Dict[str, Any], stage: str,
                    digest: str, entry: InFlightEntry) -> None:
        started = time.perf_counter()
        try:
            if self.config.faults is not None:
                attempt = self._next_fault_attempt(digest)
                apply_unit_faults(self.config.faults, payload["benchmark"],
                                  attempt, in_worker=False)
            warm = self.pipeline.cached(stage, digest)
            artifact = point_artifact(self.pipeline, payload)
        except Exception as exc:
            self.metrics.count("runs.failed")
            self.events.publish("run", benchmark=payload["benchmark"],
                                outcome="failed", error=type(exc).__name__)
            self._index_record(
                "serve-run", label=payload["benchmark"], outcome="failed",
                wall_s=time.perf_counter() - started,
                metrics={"error": type(exc).__name__})
            self.table.resolve(entry, error=exc)
            return
        result = dict(payload)
        result["digest"] = digest
        result["warm"] = warm
        result["metrics"] = point_metrics(payload["system"], artifact)
        self.metrics.count("runs.ok")
        self.events.publish("run", benchmark=payload["benchmark"],
                            digest=digest[:16], warm=warm, outcome="ok",
                            runs_ok=self.metrics.counter("runs.ok"))
        self._index_record(
            "serve-run", label=payload["benchmark"],
            wall_s=time.perf_counter() - started,
            artifacts={"digest": digest}, metrics={"warm": warm})
        self.table.resolve(entry, result=result)

    # -- /v1/sweep ---------------------------------------------------------

    def handle_sweep(self, body: Any,
                     progress: Optional[Callable[[Dict[str, Any]], None]]
                     = None) -> Tuple[int, Dict[str, Any]]:
        """Run a journaled sweep from a spec document.

        ``progress`` (the streaming handler's chunk writer) receives
        one event dict per finished point.  The sweep executes in the
        calling thread over a fork of the warm pipeline, so the
        computed/reused accounting is per-request while the front-end
        stays warm, with one attempt per point so the request thread
        never sleeps on retry backoff; the journal, artifact set, and
        attested pack land in the spool exactly as a CLI ``repro
        sweep`` would write them.
        """
        self._refuse_if_draining()
        if not isinstance(body, dict):
            raise HttpError(400, "BadRequest",
                            "body must be a JSON sweep spec document")
        try:
            spec = SweepSpec.from_dict(body,
                                       name=str(body.get("name", "sweep")))
        except SpecError as exc:
            raise HttpError(400, "SpecError", str(exc)) from None
        count = spec.point_count()
        if count > self.config.max_sweep_points:
            raise HttpError(
                400, "SweepTooLarge",
                f"{count} points exceeds the service limit of "
                f"{self.config.max_sweep_points}; run it via the CLI "
                f"(repro sweep)")
        with self._track():
            run_id = runctx.current().run_id
            out_dir = self.spool / "sweeps" / f"{spec.name}-{run_id}"
            self.metrics.count("sweeps")
            self.events.publish("sweep.start", name=spec.name,
                                run_id=run_id, points=count)
            done = 0

            def on_point(label: str) -> None:
                # Published before the sweep's terminal event, so a
                # long-poll watcher sees live progress mid-sweep.
                nonlocal done
                done += 1
                self.events.publish("sweep.point", name=spec.name,
                                    run_id=run_id, label=label,
                                    done=done, points=count)
                if progress is not None:
                    progress({"event": "point", "label": label})

            result = run_sweep(
                spec, cache_dir=self.pipeline.store.base,
                out_dir=out_dir, progress=on_point,
                pipeline=self.pipeline.fork(),
                policy=RetryPolicy(max_attempts=1))
            self.events.publish("sweep.done", name=spec.name,
                                run_id=run_id, ok=result.ok,
                                points=len(result.records),
                                simulated=result.simulated,
                                reused=result.reused)
            payload = {
                "name": spec.name,
                "run_id": run_id,
                "out_dir": str(out_dir),
                "points": len(result.records),
                "ok": result.ok,
                "holes": [record["label"] for record in result.holes],
                "simulated": result.simulated,
                "reused": result.reused,
                "seconds": round(result.seconds, 3),
                "artifacts": sorted(path.name for path in
                                    result.artifacts.values()),
            }
            return 200, payload

    # -- /v1/trace/<bench> -------------------------------------------------

    def handle_trace(self, benchmark: str, variant: str = "compiled",
                     buckets: Optional[int] = None
                     ) -> Tuple[int, Dict[str, Any]]:
        from repro.trace import (
            MAX_TRACE_BUCKETS, render_occupancy_timeline,
            render_opn_heatmap, render_tile_histogram,
        )

        self._refuse_if_draining()
        if benchmark not in self._benchmarks:
            raise HttpError(
                404, "UnknownBenchmark",
                f"unknown benchmark {benchmark!r}"
                f"{_suggest(benchmark, self._benchmarks)}")
        if variant not in ("compiled", "hand"):
            raise HttpError(400, "BadRequest",
                            f"variant must be 'compiled' or 'hand', "
                            f"got {variant!r}")
        if buckets is not None and not 1 <= buckets <= MAX_TRACE_BUCKETS:
            raise HttpError(400, "BadRequest",
                            f"buckets must be from 1 to "
                            f"{MAX_TRACE_BUCKETS}, got {buckets}")
        with self._track():
            metrics = self.pipeline.trace_summary(benchmark, variant,
                                                  buckets=buckets)
            self.metrics.count("traces")
            payload = {
                "benchmark": benchmark,
                "variant": variant,
                "cycles": metrics.cycles,
                "event_counts": dict(sorted(metrics.event_counts.items())),
                "class_packets": dict(sorted(
                    metrics.class_packets.items())),
                "tile_issues": {str(tile): count for tile, count in
                                sorted(metrics.tile_issues.items())},
                "total_hops": metrics.total_hops,
                "busiest_links": [
                    {"link": list(link), "packets": packets}
                    for link, packets in metrics.busiest_links()],
                "occupancy": [round(value, 3)
                              for value in metrics.occupancy],
                "bucket_cycles": metrics.bucket_cycles,
                "occupancy_peak": round(metrics.occupancy_peak, 3),
                "views": {
                    "heatmap": render_opn_heatmap(metrics),
                    "timeline": render_occupancy_timeline(metrics),
                    "tiles": render_tile_histogram(metrics),
                },
            }
            return 200, payload

    # -- /v1/artifacts/<digest> --------------------------------------------

    def handle_artifact(self, digest: str) -> Tuple[int, Dict[str, Any]]:
        if not (isinstance(digest, str) and len(digest) == 64
                and all(c in "0123456789abcdef" for c in digest)):
            raise HttpError(400, "BadRequest",
                            "artifact digest must be 64 lowercase hex "
                            "characters")
        store = self.pipeline.store
        stages = sorted(path.name for path in store.root.iterdir()
                        if path.is_dir()) if store.root.exists() else []
        for stage in stages:
            if store.path_for(stage, digest).exists():
                found, value = store.load(stage, digest)
                if not found:   # corrupt: quarantined on load
                    raise HttpError(
                        410, "CacheCorruption",
                        f"artifact {digest[:16]}… failed verification "
                        f"and was quarantined")
                self.metrics.count("artifacts")
                return 200, {"stage": stage, "digest": digest,
                             "value": canonicalize(value)}
        raise HttpError(404, "UnknownArtifact",
                        f"no stored artifact has digest {digest[:16]}…")

    # -- /v1/status, /v1/metrics -------------------------------------------

    def status_payload(self) -> Tuple[int, Dict[str, Any]]:
        run = self.pipeline.run
        return 200, {
            "service": "repro-serve",
            "run_id": run.run_id,
            "git_sha": run.git_sha,
            "source_digest": run.source_digest,
            "started": round(self.metrics.started, 3),
            "uptime_s": round(time.time() - self.metrics.started, 3),
            "draining": self.draining,
            "in_flight": self.in_flight,
            "queue_depth": self.queue_depth,
            "max_queue": self.config.max_queue,
            "jobs": self.config.jobs,
            "cache_dir": str(self.config.cache_dir),
            "spool_dir": str(self.spool),
            "benchmarks": len(self._benchmarks),
            "faults": self.config.faults.describe()
            if self.config.faults is not None else None,
            "endpoints": ["POST /v1/run", "POST /v1/sweep",
                          "GET /v1/trace/<bench>",
                          "GET /v1/artifacts/<digest>",
                          "GET /v1/status", "GET /v1/metrics",
                          "GET /v1/events", "GET /v1/dashboard"],
        }

    def metrics_payload(self) -> Tuple[int, Dict[str, Any]]:
        document = self.metrics.snapshot(self.pipeline.telemetry)
        document.update(in_flight=self.in_flight,
                        queue_depth=self.queue_depth,
                        draining=self.draining, events=self.events.stats())
        return 200, document

    # -- /v1/events, /v1/dashboard -----------------------------------------

    def events_payload(self, cursor: int = 0, timeout: float = 0.0,
                       limit: int = 256) -> Tuple[int, Dict[str, Any]]:
        """Long-poll read of the live event feed.

        Blocks up to ``timeout`` seconds (capped at 30) when nothing is
        newer than ``cursor``; an empty ``events`` list with the same
        cursor means "poll again".
        """
        batch, next_cursor = self.events.after(
            max(0, int(cursor)), min(30.0, max(0.0, float(timeout))),
            limit=limit)
        return 200, {"events": batch, "cursor": next_cursor,
                     "dropped": self.events.dropped}

    def dashboard_payload(self, limit: int = 25) -> Tuple[int, str]:
        """The live HTML dashboard over the run index and metrics.

        Flushes the index write buffer first so a run completed
        microseconds ago is already in the table — the reader pays the
        commits the request path deferred, which is the right party to
        charge."""
        self._index_flush()
        try:
            runs = self.index.query(limit=limit)
        except Exception:
            runs = []
        status = self.status_payload()[1]
        status["inflight"] = status.pop("in_flight", 0)
        return 200, render_dashboard(runs, self.metrics_payload()[1], status)
