"""The serve subsystem: dedup, the run executor, rate limits, faults,
drain.

Pins the contracts ``docs/SERVE.md`` advertises:

* N identical concurrent ``POST /v1/run`` requests cost exactly one
  simulation — proven by the pipeline telemetry's compute counters,
  not by timing;
* distinct requests run concurrently on the executor threads, with
  results bit-identical to solo runs (same stage calls, same keys);
* the rate limiter answers 429 with ``Retry-After``; a full queue
  sheds 503; a draining server refuses new work but finishes what it
  accepted, journals intact;
* injected faults and any other execution error surface as
  structured 5xx bodies — to the leader *and* every deduped follower
  — never as a hang;
* malformed request framing and query parameters answer 400 before
  any work runs;
* each HTTP request runs under its own run id without touching the
  process environment (the one-run-per-process assumption is dead).

The concurrency tests steer execution with a :class:`Gate`: a
monkeypatched ``point_artifact`` that parks every run until the test
opens it.
"""

import json
import socket
import sys
import threading
import time

import pytest

from repro import runctx
from repro.explore.engine import POINT_STAGES
from repro.pipeline.observe import Telemetry
from repro.robust import FaultPlan
from repro.serve import (
    RateLimiter, ReproServer, ServeClient, ServeConfig, ServeError,
    ServeMetrics, SimService,
)
from repro.serve import service as service_module
from repro.serve.metrics import LogBucketHistogram
from repro.serve.service import HttpError
from repro.trace import MAX_TRACE_BUCKETS

BENCH = "vadd"


def _config(tmp_path, **overrides):
    base = dict(host="127.0.0.1", port=0,
                cache_dir=tmp_path / "cache",
                spool_dir=tmp_path / "spool",
                rate=0.0)
    base.update(overrides)
    return ServeConfig(**base)


class Gate:
    """Stands in for ``point_artifact``: every run parks here until
    :meth:`open`, after calling ``before`` (when set) first."""

    def __init__(self, real):
        self._real = real
        self._open = threading.Event()
        self._lock = threading.Lock()
        self.parked = 0
        self.before = None

    def __call__(self, pipeline, payload):
        with self._lock:
            self.parked += 1
        if self.before is not None:
            self.before()
        assert self._open.wait(timeout=60), "the gate never opened"
        return self._real(pipeline, payload)

    def open(self):
        self._open.set()


@pytest.fixture()
def gate(monkeypatch):
    instance = Gate(service_module.point_artifact)
    monkeypatch.setattr(service_module, "point_artifact", instance)
    yield instance
    instance.open()         # never leave an executor thread parked


def _wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.002)


def _fire(service, bodies):
    """Start one thread per body calling ``handle_run``; each outcome
    lands in the returned list as ``(status, payload_or_error)``."""
    outcomes = []

    def call(body):
        try:
            outcomes.append(service.handle_run(dict(body)))
        except HttpError as exc:
            outcomes.append((exc.status, exc))

    threads = [threading.Thread(target=call, args=(body,))
               for body in bodies]
    for thread in threads:
        thread.start()
    return threads, outcomes


def _join(threads):
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()


@pytest.fixture()
def server(tmp_path):
    instance = ReproServer(_config(tmp_path)).start()
    yield instance
    instance.drain(timeout=10.0)


def _simulations(service):
    return service.pipeline.telemetry.computes(POINT_STAGES)


# -- mechanisms (no HTTP) ---------------------------------------------------

def test_latency_histogram_percentiles():
    histogram = LogBucketHistogram()
    for ms in (0.5, 3, 3, 40, 900):
        histogram.observe(ms)
    report = histogram.as_dict()
    assert report["count"] == 5
    assert report["max_ms"] == 900
    assert report["p50_ms"] == 5      # bucket upper bound containing 3ms
    assert report["p99_ms"] == 1000
    assert sum(report["buckets"].values()) == 5


def test_metrics_totals_exact_under_contention():
    """16 threads x 500 calls of ``observe`` and ``count``: a lost
    update anywhere would show as a short total."""
    metrics = ServeMetrics()
    workers, calls = 16, 500
    start = threading.Barrier(workers)

    def hammer():
        start.wait(timeout=30.0)
        for call in range(calls):
            metrics.observe("run", 503 if call % 2 else 200, 0.003)
            metrics.count("runs.ok")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(workers)]
        for thread in threads:
            thread.start()
        _join(threads)
    finally:
        sys.setswitchinterval(interval)
    total = workers * calls
    document = metrics.snapshot(Telemetry())
    assert document["counters"]["runs.ok"] == total
    run = document["endpoints"]["run"]
    assert run["count"] == total
    assert run["buckets"] == {"5": total}
    assert run["responses"] == {"200": total // 2, "503": total // 2}
    assert run["errors"] == total // 2


def test_rate_limiter_refills_and_reports_retry_after():
    now = [0.0]
    limiter = RateLimiter(rate=1.0, burst=2, clock=lambda: now[0])
    assert limiter.allow("a") == (True, 0.0)
    assert limiter.allow("a")[0] is True
    ok, retry_after = limiter.allow("a")
    assert ok is False and retry_after > 0
    # An unrelated client has its own bucket.
    assert limiter.allow("b")[0] is True
    now[0] += 1.5  # refill restores one token
    assert limiter.allow("a")[0] is True


def test_rate_limiter_disabled_at_zero_rate():
    limiter = RateLimiter(rate=0.0, burst=4)
    assert not limiter.enabled


# -- service semantics ------------------------------------------------------

def test_concurrent_identical_requests_cost_one_simulation(tmp_path,
                                                           gate):
    service = SimService(_config(tmp_path))
    body = {"benchmark": BENCH, "config": {"max_blocks_in_flight": 2}}
    threads, results = _fire(service, [body] * 6)
    # The leader is parked in execution until all five followers joined.
    _wait_until(lambda: service.metrics.counter("dedup.shared") == 5)
    gate.open()
    _join(threads)
    assert [status for status, _ in results] == [200] * 6
    # The proof: telemetry says the cycle simulator ran exactly once.
    assert _simulations(service) == 1
    assert len({payload["digest"] for _, payload in results}) == 1
    leaders = [p for _, p in results if not p["deduped"]]
    followers = [p for _, p in results if p["deduped"]]
    assert len(leaders) == 1 and len(followers) == 5
    assert service.metrics.counter("dedup.leaders") == 1
    metrics_bodies = {json.dumps(p["metrics"], sort_keys=True)
                      for _, p in results}
    assert len(metrics_bodies) == 1
    service.drain(timeout=10.0)


def test_concurrent_results_bit_identical_to_solo_runs(tmp_path, gate):
    points = [{"benchmark": BENCH, "config": {"max_blocks_in_flight": n}}
              for n in (1, 2, 4)]
    service = SimService(_config(tmp_path / "concurrent"))
    threads, results = _fire(service, points)
    # All three are accepted before any of them executes.
    _wait_until(lambda: service.metrics.counter("dedup.leaders") == 3)
    gate.open()
    _join(threads)
    service.drain(timeout=10.0)
    # Solo truth: one point at a time in a fresh service.
    solo = SimService(_config(tmp_path / "solo"))
    solo_metrics = [solo.handle_run(dict(p))[1]["metrics"] for p in points]
    solo.drain(timeout=10.0)
    by_blocks = {p["settings"]["max_blocks_in_flight"]: p["metrics"]
                 for _, p in results}
    assert [by_blocks[n] for n in (1, 2, 4)] == solo_metrics


def test_distinct_leaders_run_concurrently(tmp_path, gate):
    # Two leaders meet at a barrier inside execution: only concurrent
    # executor threads get both through it.
    barrier = threading.Barrier(2)
    gate.before = lambda: barrier.wait(timeout=30)
    gate.open()
    service = SimService(_config(tmp_path, jobs=2))
    threads, results = _fire(
        service, [{"benchmark": BENCH, "config": {"max_blocks_in_flight": n}}
                  for n in (1, 2)])
    _join(threads)
    assert [status for status, _ in results] == [200, 200]
    assert len({payload["digest"] for _, payload in results}) == 2
    service.drain(timeout=10.0)


def test_full_queue_sheds_with_503(tmp_path, gate):
    service = SimService(_config(tmp_path, jobs=1, max_queue=1))

    def body(blocks):
        return {"benchmark": BENCH,
                "config": {"max_blocks_in_flight": blocks}}

    # One runs (parked at the gate), one waits for the thread ...
    running, outcomes = _fire(service, [body(1)])
    _wait_until(lambda: gate.parked == 1)
    waiting, queued = _fire(service, [body(2)])
    _wait_until(lambda: service.queue_depth == 2)
    # ... and every further leader sheds at once.
    shed, refused = _fire(service, [body(4), body(8)])
    _join(shed)
    assert [status for status, _ in refused] == [503, 503]
    assert all(exc.kind == "Overloaded" for _, exc in refused)
    assert service.metrics.counter("shed") == 2
    gate.open()
    _join(running + waiting)
    assert [status for status, _ in outcomes + queued] == [200, 200]
    service.drain(timeout=10.0)


def test_executor_bookkeeping_survives_contention(tmp_path, monkeypatch):
    """Many threads racing through dedup, submit and shed leave every
    count balanced: a lost update would strand a non-zero queue depth
    or a run nobody accounted for."""
    monkeypatch.setattr(service_module, "point_artifact",
                        lambda pipeline, payload: None)
    monkeypatch.setattr(service_module, "point_metrics",
                        lambda system, artifact: {"cycles": 1})
    service = SimService(_config(tmp_path, jobs=4, max_queue=4))
    bodies = [{"benchmark": BENCH,
               "config": {"max_blocks_in_flight": 1 + index % 8}}
              for index in range(64)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads, outcomes = _fire(service, bodies)
        _join(threads)
    finally:
        sys.setswitchinterval(interval)
    statuses = [status for status, _ in outcomes]
    assert len(statuses) == 64 and set(statuses) <= {200, 503}
    counter = service.metrics.counter
    assert counter("dedup.leaders") + counter("dedup.shared") == 64
    assert counter("runs.ok") == counter("dedup.leaders") - counter("shed")
    assert statuses.count(503) >= counter("shed")
    assert service.queue_depth == 0 and service.in_flight == 0
    service.drain(timeout=10.0)


def test_faults_answer_structured_errors_to_leader_and_followers(tmp_path,
                                                                 gate):
    plan = FaultPlan.parse(f"flaky-stage:{BENCH}:1")
    service = SimService(_config(tmp_path, jobs=1, faults=plan))
    body = {"benchmark": BENCH}
    # A run on another benchmark holds the only executor thread, so all
    # three requests join one in-flight entry (one leader, two
    # followers) before the single faulted execution.
    blocker, _ = _fire(service, [{"benchmark": "crc"}])
    _wait_until(lambda: gate.parked == 1)
    threads, outcomes = _fire(service, [body] * 3)
    _wait_until(lambda: service.metrics.counter("dedup.shared") == 2)
    gate.open()
    _join(blocker + threads)
    # One execution faulted; leader and followers all heard about it.
    assert len(outcomes) == 3
    for status, exc in outcomes:
        assert status == 500
        assert exc.kind == "InjectedFault"
        assert BENCH in str(exc)
    # times=1 is spent: the retry succeeds.
    status, payload = service.handle_run(dict(body))
    assert status == 200 and payload["metrics"]["cycles"] > 0
    service.drain(timeout=10.0)


def test_execution_error_answers_every_waiter(tmp_path, gate,
                                              monkeypatch):
    def broken(system, artifact):
        raise RuntimeError("metrics extraction failed")

    monkeypatch.setattr(service_module, "point_metrics", broken)
    service = SimService(_config(tmp_path, request_timeout=30.0))
    started = time.monotonic()
    threads, outcomes = _fire(service, [{"benchmark": BENCH}] * 2)
    _wait_until(lambda: service.metrics.counter("dedup.shared") == 1)
    gate.open()
    _join(threads)
    assert [status for status, _ in outcomes] == [500, 500]
    assert all(exc.kind == "RuntimeError" for _, exc in outcomes)
    assert time.monotonic() - started < 15.0
    # The entry is retired: the next request runs afresh, not a replay.
    with pytest.raises(HttpError) as excinfo:
        service.handle_run({"benchmark": BENCH})
    assert excinfo.value.status == 500
    assert service.metrics.counter("dedup.leaders") == 2
    service.drain(timeout=10.0)


def test_validation_errors_name_the_field(tmp_path):
    service = SimService(_config(tmp_path))
    with pytest.raises(HttpError) as excinfo:
        service.handle_run({"benchmark": "nope"})
    assert excinfo.value.status == 404
    with pytest.raises(HttpError) as excinfo:
        service.handle_run({"benchmark": BENCH,
                            "config": {"max_blocks_in_flite": 4}})
    assert excinfo.value.status == 400
    assert "max_blocks_in_flight" in str(excinfo.value)  # did-you-mean
    with pytest.raises(HttpError) as excinfo:
        service.handle_run([1, 2, 3])
    assert excinfo.value.status == 400
    service.drain(timeout=10.0)


def test_draining_service_refuses_new_work(tmp_path):
    service = SimService(_config(tmp_path))
    service.begin_drain()
    with pytest.raises(HttpError) as excinfo:
        service.handle_run({"benchmark": BENCH})
    assert excinfo.value.status == 503
    assert excinfo.value.retry_after is not None
    assert service.drain(timeout=10.0) is True
    snapshot = json.loads(
        (service.spool / "metrics.json").read_text())
    assert snapshot["drained_clean"] is True


def test_drain_finishes_accepted_runs(tmp_path, gate):
    service = SimService(_config(tmp_path))
    threads, outcomes = _fire(service, [{"benchmark": BENCH}])
    _wait_until(lambda: gate.parked == 1)
    drained = []
    drainer = threading.Thread(
        target=lambda: drained.append(service.drain(timeout=30.0)))
    drainer.start()
    _wait_until(lambda: service.draining)
    assert drainer.is_alive()           # waiting on the parked run
    gate.open()
    _join(threads + [drainer])
    assert [status for status, _ in outcomes] == [200]
    assert drained == [True]
    snapshot = json.loads((service.spool / "metrics.json").read_text())
    assert snapshot["counters"]["runs.ok"] == 1
    assert snapshot["drained_clean"] is True


def test_jobs_defaults_to_two_executor_threads():
    from repro.__main__ import build_parser

    assert ServeConfig().jobs == 2
    assert build_parser().parse_args(["serve"]).jobs == 2


def test_max_queue_below_one_exits_2():
    from repro.__main__ import build_parser

    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["serve", "--max-queue", "0"])
    assert excinfo.value.code == 2


# -- per-request run contexts ----------------------------------------------

def test_scoped_run_ids_are_per_request_and_leave_env_alone(monkeypatch):
    import os
    process_id = runctx.current().run_id
    assert os.environ.get(runctx.ENV_RUN_ID) == process_id
    seen = []
    with runctx.scoped() as first:
        seen.append(runctx.current().run_id)
        assert first.git_sha == runctx._process_context().git_sha
    with runctx.scoped() as second:
        seen.append(runctx.current().run_id)
    assert seen[0] != seen[1]
    assert process_id not in seen
    # The environment still names the process context — workers
    # spawned outside a request scope inherit the right id.
    assert os.environ.get(runctx.ENV_RUN_ID) == process_id
    assert runctx.current().run_id == process_id


# -- over the wire ----------------------------------------------------------

def test_http_run_sweep_trace_artifact_status_metrics(tmp_path, server):
    client = ServeClient(server.url, client_id="tests")
    response = client.run(BENCH, config={"max_blocks_in_flight": 2})
    assert response["metrics"]["cycles"] > 0
    assert response["deduped"] is False

    artifact = client.artifact(response["digest"])
    assert artifact["stage"] == "trips-cycles"
    assert artifact["digest"] == response["digest"]

    events = []
    summary = client.sweep(
        {"name": "wire", "benchmarks": [BENCH],
         "axes": {"max_blocks_in_flight": [1, 2]}},
        on_progress=events.append)
    assert summary["points"] == 2 and summary["ok"] is True
    assert len(events) == 2
    assert (server.service.spool / "sweeps").exists()

    trace = client.trace(BENCH)
    assert trace["cycles"] > 0
    assert "heatmap" in trace["views"]

    status = client.status()
    assert status["service"] == "repro-serve"
    assert status["draining"] is False

    metrics = client.metrics()
    assert metrics["counters"]["runs.ok"] == 1
    assert metrics["counters"]["sweeps"] == 1
    assert metrics["counters"]["traces"] == 1
    assert metrics["cache"]["trips-cycles"]["computes"] >= 1
    assert metrics["endpoints"]["run"]["count"] == 1
    # Each cache row is its stage's StageCounters, field for field.
    telemetry = server.service.pipeline.telemetry
    assert set(metrics["cache"]) == set(telemetry.stages)
    for stage, row in metrics["cache"].items():
        counters = telemetry.counters(stage)
        assert row == {
            "requests": counters.requests,
            "memory_hits": counters.memory_hits,
            "disk_hits": counters.disk_hits,
            "computes": counters.computes,
            "hit_rate": round(counters.hit_rate, 4),
            "corrupt": counters.corrupt_entries,
            "stores": counters.stores,
            "compute_seconds": round(counters.compute_seconds, 6),
            "load_seconds": round(counters.load_seconds, 6),
        }, stage
    # Every response is counted once, under its endpoint and status.
    for endpoint, entry in metrics["endpoints"].items():
        assert sum(entry["responses"].values()) == entry["count"], endpoint


def test_http_sweep_records_equal_a_direct_run_sweep(tmp_path, server):
    """``/v1/sweep`` runs on :func:`run_sweep`: the records it spools
    match a CLI-style sweep of the same spec, point for point."""
    from repro.explore import (
        SweepSpec, load_points, records_equal, run_sweep,
    )

    document = {"name": "parity", "benchmarks": [BENCH],
                "axes": {"max_blocks_in_flight": [1, 2]}}
    client = ServeClient(server.url, client_id="tests")
    summary = client.sweep(document)
    assert summary["ok"] is True
    direct = run_sweep(SweepSpec.from_dict(document, name="parity"),
                       cache_dir=tmp_path / "direct-cache",
                       out_dir=tmp_path / "direct-out")
    served = load_points(summary["out_dir"])
    assert len(served) == 2
    assert records_equal(served, direct.records)


def test_http_errors_are_structured(server):
    client = ServeClient(server.url, client_id="tests")
    with pytest.raises(ServeError) as excinfo:
        client.run("not-a-benchmark")
    assert excinfo.value.status == 404
    assert excinfo.value.kind == "UnknownBenchmark"
    with pytest.raises(ServeError) as excinfo:
        client.artifact("zz")
    assert excinfo.value.status == 400
    with pytest.raises(ServeError) as excinfo:
        client.artifact("0" * 64)
    assert excinfo.value.status == 404


def test_http_rate_limit_answers_429_with_retry_after(tmp_path):
    server = ReproServer(_config(tmp_path, rate=0.001, burst=2)).start()
    try:
        client = ServeClient(server.url, client_id="greedy")
        client.status()  # exempt endpoints never consume tokens
        client.run(BENCH)
        client.trace(BENCH)
        with pytest.raises(ServeError) as excinfo:
            client.run(BENCH)
        assert excinfo.value.status == 429
        assert excinfo.value.kind == "RateLimited"
        assert excinfo.value.retry_after and excinfo.value.retry_after >= 1
        # Monitoring still works while the client is throttled.
        assert client.metrics()["counters"]["rate_limited"] == 1
        # A different client is not punished.
        other = ServeClient(server.url, client_id="patient")
        assert other.run(BENCH)["metrics"]["cycles"] > 0
    finally:
        server.drain(timeout=10.0)


def test_http_sweep_spec_errors_arrive_in_band(server):
    client = ServeClient(server.url, client_id="tests")
    with pytest.raises(ServeError) as excinfo:
        client.sweep({"name": "bad", "benchmarks": [BENCH],
                      "axes": {"not_an_axis": [1]}})
    assert excinfo.value.status == 400
    assert excinfo.value.kind == "SpecError"


def test_http_unknown_routes_and_methods(server):
    import urllib.request
    with pytest.raises(ServeError) as excinfo:
        ServeClient(server.url).artifact("../escape")
    assert excinfo.value.status in (400, 404)
    request = urllib.request.Request(server.url + "/v1/run",
                                     method="GET")
    with pytest.raises(Exception) as excinfo:
        urllib.request.urlopen(request, timeout=10)
    assert getattr(excinfo.value, "code", None) == 405
    request = urllib.request.Request(server.url + "/nope", method="GET")
    with pytest.raises(Exception) as excinfo:
        urllib.request.urlopen(request, timeout=10)
    assert getattr(excinfo.value, "code", None) == 404


def test_keep_alive_requests_are_not_held_by_nagle(server):
    # Headers and body leave in two writes; with Nagle's algorithm on,
    # each body waits for the client's delayed ACK (about 40 ms), so 20
    # requests on one connection would take 0.8 s or more.
    import http.client
    from urllib.parse import urlparse

    address = urlparse(server.url)
    connection = http.client.HTTPConnection(address.hostname, address.port,
                                            timeout=10)
    try:
        start = time.monotonic()
        for _ in range(20):
            connection.request("GET", "/v1/status")
            response = connection.getresponse()
            assert response.status == 200
            response.read()
        elapsed = time.monotonic() - start
    finally:
        connection.close()
    assert elapsed < 20 * 0.040 / 2, elapsed


def test_metrics_stable_keys_present_at_zero(tmp_path):
    """Every documented counter key exists from the first scrape —
    monitoring never has to special-case 'not seen yet' — and each
    number is reported once: there is no second, prefixed copy."""
    from repro.serve.metrics import STABLE_COUNTERS

    server = ReproServer(_config(tmp_path)).start()
    try:
        metrics = ServeClient(server.url).metrics()
        for key in STABLE_COUNTERS:
            assert metrics["counters"].get(key) == 0, key
        assert "obs" not in metrics
        assert metrics["events"] == {"published": 0, "buffered": 0,
                                     "dropped": 0}
    finally:
        server.drain(timeout=10.0)


def test_http_events_observe_live_sweep_progress(server):
    """A watcher long-polling ``/v1/events`` sees per-point progress
    *while the sweep runs* — point events must land before the sweep's
    terminal event, not be flushed with it."""
    client = ServeClient(server.url, client_id="sweeper")
    watcher = ServeClient(server.url, client_id="watcher")
    done = threading.Event()
    summary = {}

    def run_sweep():
        summary["result"] = client.sweep(
            {"name": "live", "benchmarks": [BENCH],
             "axes": {"max_blocks_in_flight": [1, 2]}})
        done.set()

    thread = threading.Thread(target=run_sweep)
    thread.start()
    kinds = []
    cursor = 0
    for _ in range(200):
        payload = watcher.events(cursor=cursor, timeout=2.0)
        cursor = payload["cursor"]
        kinds.extend(event["kind"] for event in payload["events"])
        if "sweep.done" in kinds:
            break
    thread.join(timeout=30.0)
    assert summary["result"]["points"] == 2
    assert "sweep.start" in kinds and "sweep.done" in kinds
    assert kinds.index("sweep.point") < kinds.index("sweep.done")
    point = next(event for event in [  # re-read for the payload shape
        *watcher.events(cursor=0)["events"]]
        if event["kind"] == "sweep.point")
    assert point["name"] == "live"
    assert point["done"] >= 1 and point["points"] == 2


def test_http_events_bad_params(server):
    client = ServeClient(server.url)
    with pytest.raises(ServeError) as excinfo:
        client._get_json("/v1/events?cursor=abc")
    assert excinfo.value.status == 400


def test_http_run_rejects_out_of_domain_ideal_params_without_simulating(
        server):
    client = ServeClient(server.url)
    for config in ({"window": 0}, {"dispatch_cost": -1}):
        with pytest.raises(ServeError) as excinfo:
            client.run(BENCH, config=config, system="ideal")
        assert excinfo.value.status == 400, config
        assert excinfo.value.kind == "SpecError"
        assert next(iter(config)) in str(excinfo.value)
    assert server.service.pipeline.telemetry.computes() == 0


def test_http_trace_rejects_bad_buckets_without_simulating(server):
    client = ServeClient(server.url)
    for buckets in ("abc", 0, MAX_TRACE_BUCKETS + 1):
        with pytest.raises(ServeError) as excinfo:
            client.trace(BENCH, buckets=buckets)
        assert excinfo.value.status == 400, buckets
        assert excinfo.value.kind == "BadRequest"
    assert server.service.pipeline.telemetry.computes() == 0


@pytest.mark.parametrize("length,status", [
    ("-1", 400), ("abc", 400), (str(1 << 21), 413), (None, 411)])
def test_http_refused_body_answers_and_closes_connection(server, length,
                                                         status):
    """A request whose body the server refuses to read gets its answer
    and then EOF, even on a keep-alive connection, so a body left on
    the socket is never parsed as the next request."""
    headers = "POST /v1/run HTTP/1.1\r\nHost: test\r\n" \
              "Connection: keep-alive\r\n"
    if length is not None:
        headers += f"Content-Length: {length}\r\n"
    with socket.create_connection(server.address, timeout=5.0) as sock:
        sock.sendall((headers + "\r\n").encode("ascii"))
        reply = b""
        while True:
            chunk = sock.recv(65536)    # a timeout here fails the test
            if not chunk:
                break
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(f"HTTP/1.1 {status} ".encode("ascii")), head
    assert b"Connection: close" in head
    assert json.loads(body)["error"]["type"] in (
        "BadRequest", "PayloadTooLarge", "LengthRequired")


def test_http_dashboard_renders_html(server):
    client = ServeClient(server.url)
    client.run(BENCH)
    page = client.dashboard()
    assert page.startswith("<!doctype html>")
    assert "repro dashboard" in page
    assert BENCH in page                      # the run row made the page
    # The /v1/metrics sections: a serve counter, the run endpoint's
    # latency row, and the cycle stage's cache row.
    assert "<td class=mono>runs.ok</td><td class=num>1</td>" in page
    assert "<td class=mono>run</td><td class=num>1</td>" in page
    assert "<th class=num>p99</th>" in page
    assert "<td class=mono>trips-cycles</td>" in page


def test_serve_requests_land_in_run_index(tmp_path):
    from repro.obs import RunIndex
    from repro.obs.runindex import default_index_path

    server = ReproServer(_config(tmp_path)).start()
    try:
        client = ServeClient(server.url)
        client.run(BENCH)                   # cold
        client.run(BENCH)                   # warm
        events = [event for event in client.events()["events"]
                  if event["kind"] == "run"]
        client.sweep({"name": "indexed", "benchmarks": [BENCH],
                      "axes": {"max_blocks_in_flight": [1]}})
    finally:
        server.drain(timeout=10.0)
    assert [event["warm"] for event in events] == [False, True]
    assert all(event["benchmark"] == BENCH and event["outcome"] == "ok"
               for event in events)
    index = RunIndex(default_index_path(tmp_path / "cache"))
    try:
        runs = index.query(kind="serve-run")
        assert len(runs) == 2
        assert all(run["label"] == BENCH and run["outcome"] == "ok"
                   for run in runs)
        sweeps = index.query(kind="sweep")
        assert sweeps and sweeps[0]["label"] == "indexed"
    finally:
        index.close()


def test_drain_writes_snapshot_and_stops_listener(tmp_path):
    server = ReproServer(_config(tmp_path)).start()
    client = ServeClient(server.url)
    client.run(BENCH)
    live = client.metrics()
    assert server.drain(timeout=10.0) is True
    snapshot = json.loads(
        (server.service.spool / "metrics.json").read_text())
    assert set(snapshot) == set(live) | {"drained_clean"}
    assert snapshot["counters"]["runs.ok"] == 1
    assert snapshot["drained_clean"] is True
    with pytest.raises(Exception):
        ServeClient(server.url, timeout=2).status()
