"""Observability-layer coverage: Telemetry counters/merging and the
RunContext stamp unifying the telemetry islands (span JSONL, run
reports, sweep points, BENCH files)."""

import dataclasses
import json
import os

import pytest

from repro import runctx
from repro.pipeline.observe import StageCounters, Telemetry
from repro.robust import RunReport


class TestStageCounters:
    def test_hit_rate_zero_request_guard(self):
        assert StageCounters().hit_rate == 0.0
        assert StageCounters().requests == 0

    def test_hit_rate_counts_both_hit_kinds(self):
        counters = StageCounters(memory_hits=1, disk_hits=1, computes=2)
        assert counters.hit_rate == pytest.approx(0.5)


class TestTelemetryMerge:
    def test_as_dict_merge_round_trip(self):
        a = Telemetry()
        a.record("s1", "compute", 1.5)
        a.record("s1", "store", 0.1)
        a.record("s2", "disk-hit", 0.25)
        a.record("s2", "memory-hit")
        a.record("s2", "corrupt")
        b = Telemetry()
        b.merge_dict(a.as_dict())
        assert b.as_dict() == a.as_dict()
        b.merge_dict(a.as_dict())
        assert b.counters("s1").computes == 2
        assert b.counters("s1").compute_seconds == pytest.approx(3.0)
        assert b.counters("s2").corrupt_entries == 2

    def test_merge_dict_drops_unknown_fields(self):
        """A newer worker may report counters this process has never
        heard of — they are dropped, not a TypeError."""
        telemetry = Telemetry()
        telemetry.merge_dict({"stage": {
            "computes": 3, "compute_seconds": 1.0,
            "a_counter_from_the_future": 7}})
        assert telemetry.counters("stage").computes == 3
        assert not hasattr(telemetry.counters("stage"),
                           "a_counter_from_the_future")

    def test_merge_dict_defaults_missing_fields(self):
        """An older worker's dict may lack fields added since — they
        default to zero instead of corrupting the merge."""
        telemetry = Telemetry()
        telemetry.merge_dict({"stage": {"memory_hits": 5}})
        counters = telemetry.counters("stage")
        assert counters.memory_hits == 5
        assert counters.computes == 0
        assert counters.corrupt_entries == 0

    def test_merge_dict_unknown_and_missing_in_one_payload(self):
        """The realistic drift case is both at once: a worker from a
        different version sends a payload that has fields we have never
        heard of AND lacks fields we expect.  One merge must drop the
        former, default the latter, and keep what both sides share."""
        telemetry = Telemetry()
        telemetry.merge_dict({"stage": {
            "memory_hits": 2,                     # shared -> kept
            "a_counter_from_the_future": 9,       # unknown -> dropped
        }})                                       # computes etc. missing
        counters = telemetry.counters("stage")
        assert counters.memory_hits == 2
        assert counters.computes == 0
        assert counters.corrupt_entries == 0
        assert not hasattr(counters, "a_counter_from_the_future")
        # The merged telemetry still round-trips cleanly.
        other = Telemetry()
        other.merge_dict(telemetry.as_dict())
        assert other.as_dict() == telemetry.as_dict()

    def test_merge_dict_empty_and_round_trip_after_drift(self):
        telemetry = Telemetry()
        telemetry.merge_dict({})
        assert telemetry.as_dict() == {}
        telemetry.merge_dict({"s": {"unknown_only": 1}})
        assert telemetry.counters("s").requests == 0


class TestProfileTable:
    def test_total_row_is_columnwise_sum(self):
        telemetry = Telemetry()
        telemetry.record("a", "compute", 2.0)
        telemetry.record("a", "memory-hit")
        telemetry.record("b", "disk-hit", 0.5)
        telemetry.record("b", "store", 0.1)
        telemetry.record("b", "corrupt")
        headers, rows = telemetry.profile()
        assert rows[-1][0] == "TOTAL"
        body, total = rows[:-1], rows[-1]
        for column, header in enumerate(headers):
            if header in ("Stage", "hit%"):
                continue
            assert total[column] == pytest.approx(
                sum(row[column] for row in body)), header

    def test_total_hit_rate_is_global_not_mean_of_rates(self):
        telemetry = Telemetry()
        # stage a: 100% hits over 1 request; stage b: 0% over 3.
        telemetry.record("a", "memory-hit")
        for _ in range(3):
            telemetry.record("b", "compute", 0.1)
        _headers, rows = telemetry.profile()
        assert rows[-1][5] == pytest.approx(25.0)   # 1 hit / 4 requests


class TestRunContext:
    def test_current_is_stable_within_process(self):
        assert runctx.current().run_id == runctx.current().run_id

    def test_current_exported_to_environment_for_workers(self):
        context = runctx.current()
        assert os.environ[runctx.ENV_RUN_ID] == context.run_id

    def test_env_pin_adopted(self, monkeypatch):
        monkeypatch.setenv(runctx.ENV_RUN_ID, "pinned-run-id")
        assert runctx.current().run_id == "pinned-run-id"

    def test_stamp_is_json_ready(self):
        stamp = runctx.current().stamp()
        assert set(stamp) == {"run_id", "git_sha", "source_digest",
                              "started"}
        json.dumps(stamp)

    def test_context_fields_populated(self):
        context = runctx.new_context()
        assert len(context.run_id) == 12
        assert context.git_sha            # "unknown" at worst, never empty
        assert len(context.source_digest) == 16
        assert context.started > 0

    def test_run_report_carries_run_stamp(self, monkeypatch):
        monkeypatch.setenv(runctx.ENV_RUN_ID, "report-run-id")
        report = RunReport()
        assert report.as_dict()["run"]["run_id"] == "report-run-id"


class TestCounterFieldContract:
    def test_merge_contract_matches_dataclass(self):
        from repro.pipeline.observe import _COUNTER_FIELDS
        assert _COUNTER_FIELDS == {
            f.name for f in dataclasses.fields(StageCounters)}
