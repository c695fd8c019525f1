"""Crash-safe sweeps end to end: resume, the kill-driver drill, packs.

Integration-level pins for the crash-safety contracts
``docs/ROBUSTNESS.md`` advertises:

* ``resume=True`` replays journal-terminal points without
  re-simulating them — including holes, which stay holes;
* a SIGKILLed driver (the ``kill-driver`` chaos drill, run through the
  real CLI) resumes to records byte-identical to an uninterrupted
  sweep, modulo run ids;
* the attested repro pack verifies clean and catches any tamper.
"""

import json

import pytest

from repro.__main__ import main
from repro.explore import (
    SweepSpec, preset_spec, read_journal, records_equal, run_sweep,
    verify_pack,
)
from repro.explore import engine
from repro.explore.grid import expand
from repro.explore.journal import JOURNAL_FILE
from repro.explore.pack import PACK_FILE, load_pack
from repro.pipeline.observe import Telemetry
from repro.robust import FaultPlan, RetryPolicy


def _no_sleep(_seconds):
    return None


def _spec(**overrides):
    data = {"system": "cycles", "benchmarks": ["crc", "vadd"],
            "axes": {"max_blocks_in_flight": [1, 8]}}
    data.update(overrides)
    return SweepSpec.from_dict(data, name="t")


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A cache pre-warmed with the full 4-point smoke sweep, plus the
    uninterrupted reference result every comparison test reuses."""
    cache = tmp_path_factory.mktemp("crashsafe-cache")
    out = tmp_path_factory.mktemp("crashsafe-out")
    spec = preset_spec("smoke")
    result = run_sweep(spec, cache_dir=cache, out_dir=out,
                       sleep=_no_sleep)
    assert result.ok and len(result.records) == 4
    return cache, out, spec, result


# -- journaled resume --------------------------------------------------------

class TestResume:
    def test_resume_executes_only_unjournaled_points(self, tmp_path):
        """Kill-at-halfway simulation: journal holds 2 of 4 terminal
        outcomes; resume must simulate exactly the other 2."""
        spec = preset_spec("smoke")
        cache, out = tmp_path / "cache", tmp_path / "out"
        run_sweep(spec, cache_dir=cache, out_dir=out, sleep=_no_sleep)
        # Cut the journal back to just after its second outcome line,
        # as if the driver had died there.
        journal = out / JOURNAL_FILE
        lines = journal.read_text().splitlines(keepends=True)
        outcomes = [index for index, line in enumerate(lines)
                    if json.loads(line)["kind"] == "outcome"]
        journal.write_text("".join(lines[:outcomes[1] + 1]))

        telemetry = Telemetry()
        resumed = run_sweep(spec, cache_dir=tmp_path / "cache2",
                            out_dir=out, resume=True, telemetry=telemetry,
                            sleep=_no_sleep)
        # cache2 is empty, so any replayed point that re-executed would
        # show up as a simulation.
        assert resumed.replayed == 2
        assert resumed.simulated == 2
        assert resumed.ok and len(resumed.records) == 4
        assert "2 replayed from journal" in resumed.summary_line()

    def test_replayed_records_keep_their_original_run_id(self, tmp_path):
        spec = preset_spec("smoke").with_benchmarks(["crc"])
        cache, out = tmp_path / "cache", tmp_path / "out"
        first = run_sweep(spec, cache_dir=cache, out_dir=out,
                          sleep=_no_sleep)
        resumed = run_sweep(spec, cache_dir=cache, out_dir=out,
                            resume=True, sleep=_no_sleep)
        assert resumed.replayed == 2 and resumed.simulated == 0
        assert [r["run_id"] for r in resumed.records] == \
            [r["run_id"] for r in first.records]

    def test_holes_are_replayed_not_retried(self, tmp_path):
        """A journaled failure is a terminal outcome: resume keeps the
        hole instead of burning attempts on a point that already
        exhausted its retries."""
        spec = preset_spec("smoke").with_benchmarks(["crc"])
        label = "crc/max_blocks_in_flight=1"
        faults = FaultPlan.parse(f"flaky-stage:{label}:9", seed=0)
        cache, out = tmp_path / "cache", tmp_path / "out"
        first = run_sweep(spec, cache_dir=cache, out_dir=out,
                          policy=RetryPolicy(max_attempts=2),
                          faults=faults, sleep=_no_sleep)
        assert [r["label"] for r in first.holes] == [label]

        resumed = run_sweep(spec, cache_dir=cache, out_dir=out,
                            resume=True, sleep=_no_sleep)
        assert resumed.replayed == 2 and resumed.simulated == 0
        assert [r["label"] for r in resumed.holes] == [label]
        assert not resumed.ok
        assert records_equal(resumed.records, first.records)

    def test_fresh_run_truncates_a_previous_journal(self, warm_cache,
                                                    tmp_path):
        cache, _out, spec, _result = warm_cache
        out = tmp_path / "out"
        run_sweep(spec, cache_dir=cache, out_dir=out, sleep=_no_sleep)
        before = read_journal(out / JOURNAL_FILE)
        run_sweep(spec, cache_dir=cache, out_dir=out, sleep=_no_sleep)
        after = read_journal(out / JOURNAL_FILE)
        assert after.entries == before.entries     # rewritten, not doubled
        assert all(count == 1 for count in after.claims.values())


# -- the kill-driver chaos drill (real SIGKILL, real CLI) --------------------

class TestKillDriverDrill:
    def test_kill_resume_records_match_uninterrupted_sweep(self, tmp_path):
        spec_file = tmp_path / "drill.json"
        spec_file.write_text(json.dumps({
            "system": "cycles", "benchmarks": ["crc"],
            "axes": {"max_blocks_in_flight": [1, 8]}}))
        rc = main(["chaos",
                   "--sweep", str(spec_file),
                   "--faults", "kill-driver:crc/max_blocks_in_flight=8:1",
                   "--out", str(tmp_path / "drill"),
                   "--cache-dir", str(tmp_path / "cache")])
        assert rc == 0
        # The drill's own assertions ran; spot-check the artifacts it
        # left behind: a journal with a resume marker and a clean pack.
        state = read_journal(tmp_path / "drill" / JOURNAL_FILE)
        assert len(state.outcomes) == 2
        assert verify_pack(tmp_path / "drill") == []

    def test_drill_fails_when_the_driver_survives(self, tmp_path):
        spec_file = tmp_path / "drill.json"
        spec_file.write_text(json.dumps({
            "system": "cycles", "benchmarks": ["crc"],
            "axes": {"max_blocks_in_flight": [1]}}))
        # Fault site matches no label: the kill never fires, and the
        # drill must report that instead of "passing" vacuously.
        rc = main(["chaos",
                   "--sweep", str(spec_file),
                   "--faults", "kill-driver:crc/max_blocks_in_flight=9:1",
                   "--out", str(tmp_path / "drill"),
                   "--cache-dir", str(tmp_path / "cache")])
        assert rc == 1

    def test_chaos_needs_exactly_one_target(self, tmp_path):
        assert main(["chaos", "--faults", "kill-worker:crc:1",
                     "--cache-dir", str(tmp_path / "cache")]) == 2
        assert main(["chaos", "crc", "--sweep", "smoke",
                     "--faults", "kill-worker:crc:1",
                     "--cache-dir", str(tmp_path / "cache")]) == 2


# -- satellite fixes: progress, enrichment, drift ----------------------------

class TestRecordEnrichment:
    def test_batched_progress_fires_for_failed_points(self, warm_cache,
                                                      tmp_path,
                                                      monkeypatch):
        """In-process execution: a point that fails every attempt still
        advances progress, and its hole records each attempt."""
        cache, _out, spec, _result = warm_cache
        bad = "crc/max_blocks_in_flight=1"
        real = engine._point_artifact

        def flaky(pipeline, payload):
            if payload["label"] == bad:
                raise RuntimeError("injected point failure")
            return real(pipeline, payload)

        monkeypatch.setattr(engine, "_point_artifact", flaky)
        policy = RetryPolicy(max_attempts=2)
        seen = []
        result = run_sweep(spec, cache_dir=cache, out_dir=tmp_path / "out",
                           policy=policy, progress=seen.append,
                           sleep=_no_sleep)
        assert sorted(seen) == sorted(p.label for p in expand(spec))
        hole = result.holes[0]
        assert hole["label"] == bad
        assert hole["attempts"] == policy.max_attempts
        assert hole["causes"] == \
            ["RuntimeError: injected point failure"] * policy.max_attempts

    def test_supervised_hole_lists_every_attempt_cause(self, tmp_path):
        spec = preset_spec("smoke").with_benchmarks(["crc"]) \
            .with_axes({"max_blocks_in_flight": [1]})
        label = "crc/max_blocks_in_flight=1"
        faults = FaultPlan.parse(f"flaky-stage:{label}:9", seed=0)
        result = run_sweep(spec, cache_dir=tmp_path / "cache",
                           out_dir=tmp_path / "out",
                           policy=RetryPolicy(max_attempts=3),
                           faults=faults, sleep=_no_sleep)
        hole = result.holes[0]
        assert hole["attempts"] == 3
        assert len(hole["causes"]) == 3
        assert all("InjectedFault" in c for c in hole["causes"])
        assert hole["error"] == hole["causes"][-1]

    def test_ok_records_carry_attempts_and_causes(self, warm_cache):
        _cache, _out, _spec, result = warm_cache
        for record in result.records:
            assert record["attempts"] == 1 and record["causes"] == []

    def test_telemetry_drift_is_annotated_not_clamped(self, warm_cache,
                                                      tmp_path):
        cache, _out, spec, _result = warm_cache
        telemetry = Telemetry()
        # Pre-seeded counters make simulated exceed executed-ok: the
        # old code silently clamped reused to 0; now it must say so.
        telemetry.merge_dict({"trips-cycles": {"computes": 100}})
        result = run_sweep(spec, cache_dir=cache, out_dir=tmp_path,
                           telemetry=telemetry, sleep=_no_sleep)
        assert result.reused == 0
        assert any("telemetry drift" in note
                   for note in result.report.annotations)


# -- attested repro packs ----------------------------------------------------

class TestPack:
    def test_clean_sweep_verifies(self, warm_cache):
        _cache, out, _spec, result = warm_cache
        assert "pack.json" in result.artifacts
        assert verify_pack(out) == []
        manifest = load_pack(out)
        assert len(manifest["points"]) == 4
        assert "journal.jsonl" in manifest["files"]

    def test_artifact_tamper_is_caught(self, warm_cache, tmp_path):
        cache, _out, spec, _result = warm_cache
        out = tmp_path / "out"
        run_sweep(spec, cache_dir=cache, out_dir=out, sleep=_no_sleep)
        points = out / "points.jsonl"
        points.write_text(points.read_text().replace('"ipc": ',
                                                     '"ipc": 9'))
        problems = verify_pack(out)
        assert any("points.jsonl" in p for p in problems)

    def test_manifest_tamper_is_caught(self, warm_cache, tmp_path):
        cache, _out, spec, _result = warm_cache
        out = tmp_path / "out"
        run_sweep(spec, cache_dir=cache, out_dir=out, sleep=_no_sleep)
        pack = out / PACK_FILE
        doc = json.loads(pack.read_text())
        label = next(iter(doc["points"]))
        doc["points"][label] = "0" * len(doc["points"][label])
        pack.write_text(json.dumps(doc))
        problems = verify_pack(out)
        assert any("self-digest" in p for p in problems)

    def test_missing_journal_is_caught(self, warm_cache, tmp_path):
        cache, _out, spec, _result = warm_cache
        out = tmp_path / "out"
        run_sweep(spec, cache_dir=cache, out_dir=out, sleep=_no_sleep)
        (out / JOURNAL_FILE).unlink()
        assert any(JOURNAL_FILE in p for p in verify_pack(out))

    def test_pack_cli_round_trip(self, warm_cache, tmp_path):
        cache, _out, spec, _result = warm_cache
        out = tmp_path / "out"
        run_sweep(spec, cache_dir=cache, out_dir=out, sleep=_no_sleep)
        assert main(["pack", "verify", str(out)]) == 0
        points = out / "points.jsonl"
        points.write_text(points.read_text().replace('"ipc": ',
                                                     '"ipc": 9'))
        assert main(["pack", "verify", str(out)]) == 1
        assert main(["pack", "verify", str(tmp_path / "nowhere")]) == 2


# -- CLI flag validation -----------------------------------------------------

class TestCliValidation:
    def test_resume_of_a_different_spec_is_refused(self, warm_cache,
                                                   tmp_path):
        cache, _out, spec, _result = warm_cache
        out = tmp_path / "out"
        run_sweep(spec, cache_dir=cache, out_dir=out, sleep=_no_sleep)
        assert main(["sweep", "speculation-depth", "--resume",
                     "--out", str(out), "--cache-dir", str(cache)]) == 2
