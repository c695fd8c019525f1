#!/usr/bin/env python
"""End-to-end smoke drill for ``repro serve`` (run by the CI serve job).

Boots a real server subprocess and drives the whole advertised
contract through the bundled client, under a hard wall-clock budget:

1. **Warm beats cold.**  The p50 of warm ``POST /v1/run`` round-trips
   must be faster than one cold ``repro run`` CLI invocation against
   the *same* artifact cache — the service's reason to exist, measured.
2. **Concurrent dedup.**  N identical concurrent requests for a
   never-before-seen configuration must cost exactly one simulation,
   proven by the pipeline telemetry's compute counters in
   ``/v1/metrics`` (not by timing).
3. **HTTP sweeps are real sweeps, observed live.**  A sweep submitted
   over HTTP must leave a journal + attested pack that
   ``repro pack verify`` accepts (exit 0), and a concurrent watcher on
   ``GET /v1/events`` must see ``sweep.point`` progress *before* the
   sweep's final record arrives.
4. **Graceful drain.**  SIGTERM must exit 0 with the final metrics
   snapshot written to the spool.
5. **Live view.**  ``GET /v1/dashboard`` renders the HTML page with
   the recent-runs table, and ``/v1/metrics`` carries non-empty
   ``counters``, ``endpoints`` and ``cache`` sections plus every
   documented stable counter key.

Exits 0 when every gate holds; prints one ``FAIL:`` line and exits 1
otherwise.  The metrics snapshot path is printed for artifact upload.
"""

from __future__ import annotations

import json
import os
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
HARD_DEADLINE = time.monotonic() + float(os.environ.get(
    "SERVE_SMOKE_TIMEOUT", "420"))

BENCH = "vadd"
WARM_ROUNDTRIPS = 15
DEDUP_CLIENTS = 6


def check_deadline(stage: str) -> None:
    if time.monotonic() > HARD_DEADLINE:
        print(f"FAIL: hard timeout during {stage}")
        sys.exit(1)


def fail(message: str, proc: subprocess.Popen = None) -> None:
    print(f"FAIL: {message}")
    if proc is not None and proc.poll() is None:
        proc.kill()
    sys.exit(1)


def main() -> int:
    sys.path.insert(0, str(REPO / "src"))
    from repro.serve import ServeClient

    tmp = Path(tempfile.mkdtemp(prefix="repro-serve-smoke-"))
    cache_dir, spool = tmp / "cache", tmp / "spool"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}

    print(f"serve smoke: spool at {spool}")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache-dir", str(cache_dir), "--spool", str(spool),
         "--rate", "0"],
        cwd=REPO, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)
    boot = proc.stdout.readline()
    match = re.search(r"http://[\d.]+:(\d+)", boot)
    if not match:
        fail(f"server did not report an address: {boot!r}", proc)
    port = int(match.group(1))
    client = ServeClient(f"http://127.0.0.1:{port}", client_id="smoke")
    print(f"serve smoke: server up on port {port}")

    try:
        # -- gate 1: warm HTTP p50 beats one cold CLI invocation -------
        check_deadline("warmup")
        first = client.run(BENCH)
        if first["warm"]:
            fail("first request cannot be warm on a fresh cache", proc)
        latencies = []
        for _ in range(WARM_ROUNDTRIPS):
            started = time.perf_counter()
            response = client.run(BENCH)
            latencies.append(time.perf_counter() - started)
            if not response["warm"]:
                fail("repeat request missed the warm cache", proc)
        warm_p50 = statistics.median(latencies)

        check_deadline("cold CLI baseline")
        started = time.perf_counter()
        cold = subprocess.run(
            [sys.executable, "-m", "repro", "run", BENCH,
             "--cache-dir", str(cache_dir)],
            cwd=REPO, env=env, capture_output=True, text=True)
        cold_wall = time.perf_counter() - started
        if cold.returncode != 0:
            fail(f"cold `repro run` failed:\n{cold.stdout}{cold.stderr}",
                 proc)
        print(f"serve smoke: warm p50 {warm_p50 * 1000:.1f} ms vs cold "
              f"CLI {cold_wall * 1000:.0f} ms "
              f"({cold_wall / warm_p50:.0f}x)")
        if warm_p50 >= cold_wall:
            fail("warm round-trip is not faster than a cold CLI run",
                 proc)

        # -- gate 2: concurrent identical requests -> one simulation ---
        check_deadline("dedup drill")
        before = client.metrics()["cache"]["trips-cycles"]["computes"]
        body = {"max_blocks_in_flight": 3}   # not cached yet
        results, errors = [], []

        def fire():
            try:
                results.append(client.run(BENCH, config=dict(body)))
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=fire)
                   for _ in range(DEDUP_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        if errors:
            fail(f"dedup drill request failed: {errors[0]}", proc)
        after = client.metrics()["cache"]["trips-cycles"]["computes"]
        simulated = after - before
        shared = sum(1 for r in results if r["deduped"])
        print(f"serve smoke: {DEDUP_CLIENTS} identical concurrent "
              f"requests -> {simulated} simulation(s), {shared} deduped")
        if len(results) != DEDUP_CLIENTS:
            fail("dedup drill lost responses", proc)
        if simulated != 1:
            fail(f"expected exactly 1 simulation, counters say "
                 f"{simulated}", proc)
        digests = {r["digest"] for r in results}
        bodies = {json.dumps(r["metrics"], sort_keys=True)
                  for r in results}
        if len(digests) != 1 or len(bodies) != 1:
            fail("deduped responses disagree", proc)

        # -- gate 3: HTTP sweep -> pack verify exits 0, and a watcher
        # on /v1/events sees per-point progress BEFORE the sweep's
        # final record (live observability, not post-hoc flush) -------
        check_deadline("HTTP sweep")
        watcher = ServeClient(f"http://127.0.0.1:{port}",
                              client_id="watcher")
        watched = {"first_point_at": None, "kinds": []}
        watch_stop = threading.Event()

        def watch_events():
            cursor = watcher.events()["cursor"]   # skip history
            while not watch_stop.is_set():
                payload = watcher.events(cursor=cursor, timeout=2.0)
                cursor = payload["cursor"]
                for event in payload["events"]:
                    watched["kinds"].append(event["kind"])
                    if event["kind"] == "sweep.point" \
                            and watched["first_point_at"] is None:
                        watched["first_point_at"] = time.monotonic()

        watch_thread = threading.Thread(target=watch_events, daemon=True)
        watch_thread.start()
        summary = client.sweep({
            "name": "smoke", "benchmarks": [BENCH],
            "axes": {"max_blocks_in_flight": [1, 2]}})
        sweep_done_at = time.monotonic()
        watch_stop.set()
        watch_thread.join(timeout=10)
        if not summary["ok"]:
            fail(f"HTTP sweep reported holes: {summary['holes']}", proc)
        if watched["first_point_at"] is None:
            fail(f"/v1/events never delivered a sweep.point "
                 f"(saw {watched['kinds']})", proc)
        if watched["first_point_at"] >= sweep_done_at:
            fail("sweep.point arrived only after the sweep's final "
                 "record — events are not live", proc)
        print(f"serve smoke: /v1/events saw sweep.point "
              f"{(sweep_done_at - watched['first_point_at']) * 1000:.0f} "
              f"ms before the sweep finished "
              f"(kinds: {sorted(set(watched['kinds']))})")
        verify = subprocess.run(
            [sys.executable, "-m", "repro", "pack", "verify",
             summary["out_dir"]],
            cwd=REPO, env=env, capture_output=True, text=True)
        print(f"serve smoke: {verify.stdout.strip()}")
        if verify.returncode != 0:
            fail(f"pack verify rejected the HTTP sweep:\n"
                 f"{verify.stdout}{verify.stderr}", proc)

        # -- status sanity ---------------------------------------------
        status = client.status()
        if status["draining"] or status["service"] != "repro-serve":
            fail(f"bad status payload: {status}", proc)

        # -- gate 5: dashboard renders, metrics carry every section ----
        check_deadline("dashboard")
        page = client.dashboard()
        if not page.startswith("<!doctype html>"):
            fail(f"dashboard is not an HTML page: {page[:80]!r}", proc)
        if BENCH not in page or "Recent runs" not in page:
            fail("dashboard is missing the recent-runs table", proc)
        metrics = client.metrics()
        for section in ("counters", "endpoints", "cache"):
            if not metrics.get(section):
                fail(f"metrics section {section} is missing or empty",
                     proc)
        for key in ("dedup.leaders", "dedup.shared", "shed"):
            if key not in metrics["counters"]:
                fail(f"stable counter key {key} missing from metrics",
                     proc)
        print("serve smoke: dashboard + metrics sections OK")

        # -- gate 4: graceful SIGTERM drain ----------------------------
        check_deadline("drain")
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
        if proc.returncode != 0:
            fail(f"drain exited {proc.returncode}:\n{out}")
        snapshot = spool / "metrics.json"
        if not snapshot.exists():
            fail("drain did not write the metrics snapshot")
        document = json.loads(snapshot.read_text())
        if not document.get("drained_clean"):
            fail("metrics snapshot says the drain was not clean")
        print(f"serve smoke: drained cleanly; "
              f"runs.ok={document['counters'].get('runs.ok')} "
              f"deduped={document['counters'].get('dedup.shared')}")
        print(f"serve smoke: metrics snapshot at {snapshot}")
        print("serve smoke: OK")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()


if __name__ == "__main__":
    sys.exit(main())
