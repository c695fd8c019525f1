"""The ``repro.obs`` subsystem: spans, run index, event bus, and the
dashboard renderer — plus the serve latency histogram it renders.

The boundary tests here are contracts other layers rely on:

* histogram percentile semantics at bucket boundaries (the serve
  latency assertions and docs quote these numbers);
* span zero-overhead-off behavior (the ``repro perf`` gate assumes
  the off path never allocates or opens files);
* run-index schema refusal (a newer database must fail loudly, not
  be misread).
"""

import json
import sqlite3
import threading
import time

import pytest

from repro import obs
from repro.obs import (EventBus, RunIndex, annotate_run,
                       consume_annotations, export_chrome,
                       install_recorder, record_run, span, spans_active,
                       uninstall_recorder)
from repro.obs.dashboard import render_dashboard
from repro.obs.runindex import INDEX_SCHEMA_VERSION
from repro.pipeline.observe import Telemetry
from repro.serve.metrics import (BUCKET_BOUNDS_MS, LogBucketHistogram,
                                 ServeMetrics)


class TestHistogramBoundaries:
    """Percentile semantics at bucket boundaries, pinned sample count
    by sample count — zero, one, and two observations are where
    off-by-one rank bugs live."""

    def test_empty_stream_percentiles_are_zero(self):
        h = LogBucketHistogram()
        for quantile in (0.50, 0.95, 0.99):
            assert h.percentile(quantile) == 0.0
        assert h.as_dict()["count"] == 0
        assert h.as_dict()["p50_ms"] == 0.0

    def test_single_sample_owns_every_percentile(self):
        h = LogBucketHistogram()
        h.observe(1.5)                        # -> (1, 2] bucket
        assert h.percentile(0.50) == 2
        assert h.percentile(0.95) == 2
        assert h.percentile(0.99) == 2

    def test_two_samples_split_p50_from_the_tail(self):
        h = LogBucketHistogram()
        h.observe(1.5)                        # -> (1, 2]
        h.observe(700.0)                      # -> (500, 1000]
        # rank(p50) = 1.0: the first bucket's cumulative count reaches
        # it exactly, so p50 stays on the fast sample...
        assert h.percentile(0.50) == 2
        # ...while the tail percentiles move to the slow one.
        assert h.percentile(0.95) == 1000
        assert h.percentile(0.99) == 1000

    def test_exact_bound_lands_in_its_bucket(self):
        h = LogBucketHistogram()
        h.observe(2.0)                        # == bound -> (1, 2]
        assert h.percentile(0.50) == 2

    def test_overflow_reports_last_finite_bound(self):
        h = LogBucketHistogram()
        h.observe(10 ** 9)
        assert h.percentile(0.99) == BUCKET_BOUNDS_MS[-2]
        assert h.as_dict()["buckets"] == {"+inf": 1}


@pytest.fixture
def clean_spans():
    """Every span test leaves the process with no recorder installed."""
    uninstall_recorder()
    yield
    uninstall_recorder()


class TestSpans:
    def test_off_path_is_shared_noop(self, clean_spans, monkeypatch):
        monkeypatch.delenv(obs.ENV_SPANS, raising=False)
        assert not spans_active()
        first = span("a", cat="x", heavy="arg")
        second = span("b")
        assert first is second                # no allocation when off
        with first as live:
            live.note(anything="goes")        # and note() is free

    def test_spans_written_as_jsonl(self, clean_spans, tmp_path):
        path = tmp_path / "spans.jsonl"
        install_recorder(path)
        assert spans_active()
        with span("stage.exec", cat="pipeline", stage="exec") as live:
            live.note(outcome="compute")
        uninstall_recorder()
        (record,) = [json.loads(line)
                     for line in path.read_text().splitlines()]
        assert record["name"] == "stage.exec"
        assert record["cat"] == "pipeline"
        assert record["args"] == {"stage": "exec", "outcome": "compute"}
        assert record["dur_ms"] >= 0.0
        assert record["run"]

    def test_exception_tagged_and_propagated(self, clean_spans, tmp_path):
        path = tmp_path / "spans.jsonl"
        install_recorder(path)
        with pytest.raises(ValueError):
            with span("boom", cat="test"):
                raise ValueError("nope")
        uninstall_recorder()
        (record,) = [json.loads(line)
                     for line in path.read_text().splitlines()]
        assert record["args"]["error"] == "ValueError"

    def test_env_probe_installs_for_workers(self, clean_spans, tmp_path,
                                            monkeypatch):
        path = tmp_path / "spans.jsonl"
        monkeypatch.setenv(obs.ENV_SPANS, str(path))
        assert spans_active()                 # lazy probe found the env
        with span("worker.unit", cat="test"):
            pass
        uninstall_recorder()
        assert path.read_text().count("worker.unit") == 1

    def test_export_chrome_trace_events(self, clean_spans, tmp_path):
        source = tmp_path / "spans.jsonl"
        install_recorder(source)
        with span("stage.a", cat="pipeline"):
            pass
        with span("serve.request", cat="serve", endpoint="run"):
            pass
        uninstall_recorder()
        source.open("a").write("not json\n")  # truncated writer line
        out = tmp_path / "trace.json"
        assert export_chrome(source, out) == 2
        document = json.loads(out.read_text())
        events = document["traceEvents"]
        assert {event["ph"] for event in events} == {"X"}
        assert {event["name"] for event in events} \
            == {"stage.a", "serve.request"}
        for event in events:
            assert event["ts"] > 0 and event["pid"] > 0
            assert "run" in event["args"]


class TestRunIndex:
    def test_record_get_round_trip(self, tmp_path):
        index = RunIndex(tmp_path / "index.db")
        row_id = index.record(
            "run-1", "run", label="vadd", git_sha="abc",
            wall_s=1.25, artifacts={"digest": "d" * 16},
            metrics={"computes": 5})
        row = index.get(row_id)
        index.close()
        assert row["run_id"] == "run-1"
        assert row["kind"] == "run"
        assert row["artifacts"] == {"digest": "d" * 16}
        assert row["metrics"] == {"computes": 5}
        assert row["outcome"] == "ok"

    def test_query_filters_compose_and_order(self, tmp_path):
        index = RunIndex(tmp_path / "index.db")
        now = time.time()
        index.record("r1", "run", label="vadd", started=now - 30)
        index.record("r2", "sweep", label="grid", outcome="holes",
                     started=now - 20)
        index.record("r3", "sweep", label="grid-2", started=now - 10)
        assert [r["run_id"] for r in index.query()] == ["r3", "r2", "r1"]
        assert [r["run_id"] for r in index.query(kind="sweep")] \
            == ["r3", "r2"]
        assert [r["run_id"]
                for r in index.query(kind="sweep", outcome="ok")] \
            == ["r3"]
        assert [r["run_id"] for r in index.query(label_like="grid")] \
            == ["r3", "r2"]
        assert [r["run_id"] for r in index.query(since=now - 15)] \
            == ["r3"]
        assert len(index.query(limit=2)) == 2
        index.close()

    def test_compact_keeps_newest(self, tmp_path):
        index = RunIndex(tmp_path / "index.db")
        now = time.time()
        for offset in range(6):
            index.record(f"r{offset}", "run", started=now - offset)
        assert index.compact(keep=2) == 4
        survivors = [r["run_id"] for r in index.query()]
        index.close()
        assert survivors == ["r0", "r1"]      # newest two started last

    def test_newer_schema_refused(self, tmp_path):
        path = tmp_path / "index.db"
        RunIndex(path).close()
        connection = sqlite3.connect(str(path))
        connection.execute("UPDATE meta SET value = ? WHERE key = ?",
                           (str(INDEX_SCHEMA_VERSION + 1), "schema"))
        connection.commit()
        connection.close()
        with pytest.raises(RuntimeError, match="newer than supported"):
            RunIndex(path)
        # ...and the one-shot helper degrades to None, never raises.
        assert record_run("r", "run", index_path=path) is None

    def test_record_run_one_shot(self, tmp_path):
        path = tmp_path / "index.db"
        assert record_run("r9", "perf", index_path=path,
                          label="quick") is not None
        index = RunIndex(path)
        assert index.query(kind="perf")[0]["label"] == "quick"
        index.close()

    def test_annotations_drain_once(self):
        consume_annotations()                 # isolate from other tests
        annotate_run(label="perf compare", outcome="ok")
        annotate_run(benchmarks=3)
        drained = consume_annotations()
        assert drained == {"label": "perf compare", "outcome": "ok",
                           "benchmarks": 3}
        assert consume_annotations() == {}


class TestEventBus:
    def test_publish_and_read_after_cursor(self):
        bus = EventBus()
        bus.publish("sweep.start", name="grid")
        bus.publish("sweep.point", label="p0")
        batch, cursor = bus.after(0)
        assert [event["kind"] for event in batch] \
            == ["sweep.start", "sweep.point"]
        assert cursor == 2
        batch, cursor = bus.after(cursor)
        assert batch == [] and cursor == 2

    def test_long_poll_wakes_on_publish(self):
        bus = EventBus()
        result = {}

        def reader():
            result["batch"], result["cursor"] = bus.after(0, timeout=5.0)

        thread = threading.Thread(target=reader)
        thread.start()
        time.sleep(0.05)
        bus.publish("run", outcome="ok")
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert result["batch"][0]["kind"] == "run"

    def test_bounded_buffer_drops_oldest_visibly(self):
        bus = EventBus(capacity=2)
        for index in range(5):
            bus.publish("tick", n=index)
        batch, cursor = bus.after(0)
        assert [event["n"] for event in batch] == [3, 4]
        assert batch[0]["seq"] > 1            # the gap marks the loss
        assert bus.stats() == {"published": 5, "buffered": 2,
                               "dropped": 3}

    def test_limit_caps_batch_without_losing_events(self):
        bus = EventBus()
        for index in range(4):
            bus.publish("tick", n=index)
        batch, cursor = bus.after(0, limit=2)
        assert [event["n"] for event in batch] == [0, 1]
        batch, cursor = bus.after(cursor, limit=10)
        assert [event["n"] for event in batch] == [2, 3]


class TestDashboard:
    def _rows(self):
        now = time.time()
        return [
            {"id": 1, "run_id": "abc123", "kind": "run", "label": "vadd",
             "outcome": "ok", "wall_s": 1.2, "started": now - 60},
            {"id": 2, "run_id": "def456", "kind": "sweep",
             "label": "<grid>", "outcome": "failed", "wall_s": 9.9,
             "started": now - 3600},
        ]

    def test_page_renders_runs_metrics_and_status(self):
        metrics = ServeMetrics()
        metrics.count("runs.ok", 4)
        metrics.observe("run", 200, 0.012)
        telemetry = Telemetry()
        telemetry.record("trips-cycles", "compute", 0.25)
        telemetry.record("trips-cycles", "memory-hit")
        page = render_dashboard(self._rows(), metrics.snapshot(telemetry),
                                status={"uptime_s": 42, "inflight": 1})
        assert page.startswith("<!doctype html>")
        assert 'http-equiv="refresh"' in page
        # A serve counter, the endpoint's latency row (12 ms -> the
        # 20 ms bucket), and the stage's cache row.
        assert "<td class=mono>runs.ok</td><td class=num>4</td>" in page
        assert ("<td class=mono>run</td><td class=num>1</td>"
                "<td class=num>12ms</td><td class=num>20ms</td>") in page
        assert ("<td class=mono>trips-cycles</td><td class=num>2</td>"
                "<td class=num>1</td><td class=num>0</td>"
                "<td class=num>1</td><td class=num>50.0%</td>") in page
        assert "abc123" in page and "vadd" in page
        assert '<span class="chip ok">ok</span>' in page
        assert '<span class="chip bad">failed</span>' in page
        assert "&lt;grid&gt;" in page         # labels are escaped
        assert "<grid>" not in page

    def test_empty_page_degrades_gracefully(self):
        page = render_dashboard([], ServeMetrics().snapshot(Telemetry()))
        assert "No runs recorded yet." in page
        assert "No latency series yet." in page
        assert "No pipeline stages yet." in page


class TestPackageSurface:
    def test_obs_reexports_the_public_api(self):
        for name in ("span", "spans_active", "RunIndex", "record_run",
                     "EventBus", "export_chrome", "annotate_run"):
            assert hasattr(obs, name), name
