"""The serve subsystem: dedup, batching, rate limits, faults, drain.

Pins the contracts ``docs/SERVE.md`` advertises:

* N identical concurrent ``POST /v1/run`` requests cost exactly one
  simulation — proven by the pipeline telemetry's compute counters,
  not by timing;
* mixed compatible requests coalesce into one batched pass whose
  results are bit-identical to solo runs (same stage calls, same
  keys);
* the rate limiter answers 429 with ``Retry-After``; a full queue
  sheds 503; a draining server refuses new work but finishes what it
  accepted, journals intact;
* injected faults surface as structured 5xx bodies naming the
  error-taxonomy type — to the leader *and* every deduped follower —
  never as a hang;
* each HTTP request runs under its own run id without touching the
  process environment (the one-run-per-process assumption is dead).
"""

import json
import threading

import pytest

from repro import runctx
from repro.explore.engine import POINT_STAGES
from repro.robust import FaultPlan
from repro.serve import (
    LatencyHistogram, RateLimiter, ReproServer, ServeClient, ServeConfig,
    ServeError, SimService,
)
from repro.serve.service import HttpError

BENCH = "vadd"


def _config(tmp_path, **overrides):
    base = dict(host="127.0.0.1", port=0,
                cache_dir=tmp_path / "cache",
                spool_dir=tmp_path / "spool",
                rate=0.0, batch_window=0.0)
    base.update(overrides)
    return ServeConfig(**base)


@pytest.fixture()
def server(tmp_path):
    instance = ReproServer(_config(tmp_path)).start()
    yield instance
    instance.drain(timeout=10.0)


def _simulations(service):
    return service.pipeline.telemetry.computes(POINT_STAGES)


# -- mechanisms (no HTTP) ---------------------------------------------------

def test_latency_histogram_percentiles():
    histogram = LatencyHistogram()
    for ms in (0.5, 3, 3, 40, 900):
        histogram.observe(ms)
    report = histogram.as_dict()
    assert report["count"] == 5
    assert report["max_ms"] == 900
    assert report["p50_ms"] == 5      # bucket upper bound containing 3ms
    assert report["p99_ms"] == 1000
    assert sum(report["buckets"].values()) == 5


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

def test_concurrent_identical_requests_cost_one_simulation(tmp_path):
    service = SimService(_config(tmp_path, batch_window=0.02))
    body = {"benchmark": BENCH,
            "config": {"max_blocks_in_flight": 2}}
    results, errors = [], []

    def fire():
        try:
            results.append(service.handle_run(dict(body)))
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    threads = [threading.Thread(target=fire) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors
    assert len(results) == 6
    # The proof: telemetry says the cycle simulator ran exactly once.
    assert _simulations(service) == 1
    digests = {payload["digest"] for _, payload in results}
    assert len(digests) == 1
    leaders = [payload for _, payload in results
               if not payload["deduped"]]
    followers = [payload for _, payload in results if payload["deduped"]]
    assert len(leaders) >= 1 and len(followers) >= 1
    assert service.metrics.counter("dedup.shared") == len(followers)
    metrics_bodies = {json.dumps(p["metrics"], sort_keys=True)
                      for _, p in results}
    assert len(metrics_bodies) == 1
    service.drain(timeout=10.0)


def test_batched_results_bit_identical_to_solo_runs(tmp_path):
    # Solo truth: each point in its own fresh service.
    solo = SimService(_config(tmp_path / "solo"))
    points = [{"benchmark": BENCH, "config": {"max_blocks_in_flight": n}}
              for n in (1, 2, 4)]
    solo_metrics = [solo.handle_run(dict(p))[1]["metrics"]
                    for p in points]
    solo.drain(timeout=10.0)

    # Batched: pile all three up while the batcher is paused, then
    # release — one drain, one compatible group, one coalesced pass.
    service = SimService(_config(tmp_path / "batched"))
    service.batcher.pause()
    results = [None] * len(points)

    def fire(index, body):
        results[index] = service.handle_run(dict(body))[1]

    threads = [threading.Thread(target=fire, args=(i, p))
               for i, p in enumerate(points)]
    for thread in threads:
        thread.start()
    while service.batcher.depth < len(points):
        pass
    service.batcher.resume()
    for thread in threads:
        thread.join(timeout=60)
    assert all(r is not None for r in results)
    assert all(r["batched"] for r in results)
    assert service.metrics.max_batch == len(points)
    assert [r["metrics"] for r in results] == solo_metrics
    service.drain(timeout=10.0)


def test_full_queue_sheds_with_503(tmp_path):
    service = SimService(_config(tmp_path, max_queue=1))
    service.batcher.pause()
    threads = []
    statuses = []

    def fire(blocks):
        try:
            service.handle_run({"benchmark": BENCH,
                                "config": {"max_blocks_in_flight": blocks}})
            statuses.append(200)
        except HttpError as exc:
            statuses.append(exc.status)

    # First fills the queue slot; the rest must shed.
    first = threading.Thread(target=fire, args=(1,))
    first.start()
    while service.batcher.depth < 1:
        pass
    for blocks in (2, 4):
        thread = threading.Thread(target=fire, args=(blocks,))
        thread.start()
        threads.append(thread)
    for thread in threads:
        thread.join(timeout=30)
    service.batcher.resume()
    first.join(timeout=60)
    assert sorted(statuses) == [200, 503, 503]
    assert service.metrics.counter("shed") == 2
    service.drain(timeout=10.0)


def test_faults_answer_structured_errors_to_leader_and_followers(tmp_path):
    plan = FaultPlan.parse(f"flaky-stage:{BENCH}:1")
    service = SimService(_config(tmp_path, faults=plan))
    body = {"benchmark": BENCH}
    outcomes = []

    def fire():
        try:
            service.handle_run(dict(body))
            outcomes.append(("ok", None))
        except HttpError as exc:
            outcomes.append(("error", exc))

    # Pause the batcher so all three requests join one in-flight entry
    # (one leader, two followers) before the single faulted execution.
    service.batcher.pause()
    threads = [threading.Thread(target=fire) for _ in range(3)]
    for thread in threads:
        thread.start()
    while service.metrics.counter("dedup.shared") < 2:
        pass
    service.batcher.resume()
    for thread in threads:
        thread.join(timeout=60)
    kinds = [kind for kind, _ in outcomes]
    # One execution faulted; leader and followers all heard about it.
    assert kinds.count("error") == 3
    for _, exc in outcomes:
        assert exc.status == 500
        assert exc.kind == "InjectedFault"
        assert BENCH in str(exc)
    # times=1 is spent: the retry succeeds.
    status, payload = service.handle_run(dict(body))
    assert status == 200 and payload["metrics"]["cycles"] > 0
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


def test_metrics_stable_keys_present_at_zero(tmp_path):
    """Every documented counter key exists from the first scrape —
    monitoring never has to special-case 'not seen yet' — and the full
    registry exposition rides along under ``obs``."""
    from repro.serve.metrics import STABLE_COUNTERS

    server = ReproServer(_config(tmp_path)).start()
    try:
        metrics = ServeClient(server.url).metrics()
        for key in STABLE_COUNTERS:
            assert metrics["counters"].get(key) == 0, key
        obs_doc = metrics["obs"]
        assert obs_doc["obs_schema"] == 1
        for key in STABLE_COUNTERS:
            assert obs_doc["counters"].get("serve." + key) == 0, key
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


def test_http_events_sse_stream_and_bad_params(server):
    import urllib.request

    client = ServeClient(server.url)
    client.run(BENCH)                         # publishes a "run" event
    request = urllib.request.Request(
        server.url + "/v1/events?stream=sse&timeout=0.2",
        headers={"Accept": "text/event-stream"})
    with urllib.request.urlopen(request, timeout=10) as response:
        assert response.headers["Content-Type"] == "text/event-stream"
        body = response.read().decode("utf-8")
    assert "event: repro" in body
    frame = next(line for line in body.splitlines()
                 if line.startswith("data: "))
    event = json.loads(frame[len("data: "):])
    assert event["kind"] == "run" and event["benchmark"] == BENCH
    with pytest.raises(ServeError) as excinfo:
        client._get_json("/v1/events?cursor=abc")
    assert excinfo.value.status == 400


def test_http_dashboard_renders_html(server):
    client = ServeClient(server.url)
    client.run(BENCH)
    page = client.dashboard()
    assert page.startswith("<!doctype html>")
    assert "repro dashboard" in page
    assert BENCH in page                      # the run row made the page
    assert "serve.responses" in page          # registry counters too


def test_serve_requests_land_in_run_index(tmp_path):
    from repro.obs import RunIndex
    from repro.obs.runindex import default_index_path

    server = ReproServer(_config(tmp_path)).start()
    try:
        client = ServeClient(server.url)
        client.run(BENCH)
        client.sweep({"name": "indexed", "benchmarks": [BENCH],
                      "axes": {"max_blocks_in_flight": [1]}})
    finally:
        server.drain(timeout=10.0)
    index = RunIndex(default_index_path(tmp_path / "cache"))
    try:
        runs = index.query(kind="serve-run")
        assert runs and runs[0]["label"] == BENCH
        assert runs[0]["outcome"] == "ok"
        sweeps = index.query(kind="sweep")
        assert sweeps and sweeps[0]["label"] == "indexed"
    finally:
        index.close()


def test_drain_writes_snapshot_and_stops_listener(tmp_path):
    server = ReproServer(_config(tmp_path)).start()
    client = ServeClient(server.url)
    client.run(BENCH)
    assert server.drain(timeout=10.0) is True
    snapshot = json.loads(
        (server.service.spool / "metrics.json").read_text())
    assert snapshot["counters"]["runs.ok"] == 1
    assert snapshot["drained_clean"] is True
    with pytest.raises(Exception):
        ServeClient(server.url, timeout=2).status()
