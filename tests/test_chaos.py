"""End-to-end chaos tests: every recovery path of the fault-tolerant
execution layer, driven by deterministic :class:`FaultPlan` injection.

Covered acceptance paths:

* a killed warm worker (``BrokenProcessPool``) is retried and the run
  completes;
* a persistently-killed unit degrades to in-process serial execution;
* a worker that *raises* is retried independently of one that is
  *killed* — per-future outcomes are collected, nothing is abandoned;
* a hung stage hits its timeout, is reported, and the unit recovers;
* a corrupted cache entry is quarantined (file + incident record) and
  the artifact recomputed;
* with no faults injected the robust path produces byte-identical
  artifacts to the plain pipeline, and traced vs untraced cycle stats
  are identical.

Run by the CI ``chaos`` job under a hard timeout so a hang fails fast.
"""

from repro.pipeline import Pipeline, SIMULATION_STAGES
from repro.pipeline.parallel import warm_benchmarks, warm_one
from repro.robust import (
    COMPLETED, DEGRADED, FAILED, FaultPlan, RETRIED, RetryPolicy, RunReport,
)

#: Fast policy for tests: deterministic, no real sleeping.
FAST = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)

#: Small warm set: golden checksum + one cycle-level run per variant.
INCLUDE = ("expected", "cycles")


def warm(names, cache_dir, **kwargs):
    report = kwargs.pop("report", None) or RunReport()
    kwargs.setdefault("include", INCLUDE)
    kwargs.setdefault("policy", FAST)
    kwargs.setdefault("sleep", lambda _seconds: None)
    telemetry = warm_benchmarks(names, cache_dir, report=report, **kwargs)
    return telemetry, report


class TestKilledWorker:
    def test_killed_worker_is_retried_and_run_completes(self, tmp_path):
        plan = FaultPlan.parse("kill-worker:rspeed:1")
        telemetry, report = warm(
            ["rspeed"], tmp_path, jobs=2, faults=plan)
        outcome = report.units["rspeed"]
        assert outcome.status == RETRIED
        assert outcome.attempts == 2
        assert any("WorkerCrash" in cause for cause in outcome.causes)
        # The artifacts really exist: a fresh pipeline renders warm.
        pipeline = Pipeline(cache_dir=tmp_path)
        stats = pipeline.trips_cycles("rspeed").stats
        assert stats.cycles > 0
        assert pipeline.telemetry.computes(SIMULATION_STAGES) == 0

    def test_persistent_killer_degrades_to_serial(self, tmp_path):
        plan = FaultPlan.parse("kill-worker:rspeed:99")
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        telemetry, report = warm(
            ["rspeed"], tmp_path, jobs=2, faults=plan, policy=policy)
        outcome = report.units["rspeed"]
        assert outcome.status == DEGRADED
        assert outcome.attempts == 3  # two pooled tries + serial fallback
        assert report.ok  # degraded still means "nothing missing"
        pipeline = Pipeline(cache_dir=tmp_path)
        assert pipeline.trips_cycles("rspeed").stats.cycles > 0
        assert pipeline.telemetry.computes(SIMULATION_STAGES) == 0


class TestRaisingVsKilledWorker:
    def test_outcomes_collected_per_future(self, tmp_path):
        """One unit raises persistently, one is killed once, one is
        healthy: the healthy and killed units complete, the raiser is
        the only failure, and no unit aborts the others."""
        plan = FaultPlan.parse("flaky-stage:conven:99,kill-worker:fft:1")
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        telemetry, report = warm(
            ["rspeed", "conven", "fft"], tmp_path, jobs=2,
            faults=plan, policy=policy)
        assert report.units["conven"].status == FAILED
        assert any("InjectedFault" in c
                   for c in report.units["conven"].causes)
        assert report.units["fft"].status in (RETRIED, COMPLETED)
        assert report.units["rspeed"].status in (COMPLETED, RETRIED)
        assert not report.ok
        # The healthy benchmarks' artifacts landed despite the failure.
        pipeline = Pipeline(cache_dir=tmp_path)
        assert pipeline.trips_cycles("rspeed").stats.cycles > 0
        assert pipeline.telemetry.computes(SIMULATION_STAGES) == 0

    def test_serial_path_collects_failures_too(self, tmp_path):
        plan = FaultPlan.parse("flaky-stage:conven:99")
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        telemetry, report = warm(
            ["conven", "rspeed"], tmp_path, jobs=1,
            faults=plan, policy=policy)
        assert report.units["conven"].status == FAILED
        assert report.units["rspeed"].status == COMPLETED
        assert telemetry.computes(("trips-cycles",)) > 0

    def test_flaky_then_healthy_is_a_retry(self, tmp_path):
        plan = FaultPlan.parse("flaky-stage:rspeed:1")
        telemetry, report = warm(["rspeed"], tmp_path, jobs=1, faults=plan)
        assert report.units["rspeed"].status == RETRIED
        assert report.units["rspeed"].attempts == 2


class TestHungStage:
    def test_timeout_reported_and_recovered(self, tmp_path):
        """A worker sleeping far past the stage timeout is killed; the
        unit is charged an attempt and (here, max_attempts=1) degrades
        to serial, where the slow fault no longer fires."""
        plan = FaultPlan.parse("slow-stage:rspeed:1:60")
        policy = RetryPolicy(max_attempts=1, base_delay=0.0, jitter=0.0)
        telemetry, report = warm(
            ["rspeed"], tmp_path, jobs=2, faults=plan, policy=policy,
            stage_timeout=3.0)
        outcome = report.units["rspeed"]
        assert outcome.status == DEGRADED
        assert any("StageTimeout" in cause for cause in outcome.causes)
        assert report.ok
        pipeline = Pipeline(cache_dir=tmp_path)
        assert pipeline.trips_cycles("rspeed").stats.cycles > 0
        assert pipeline.telemetry.computes(SIMULATION_STAGES) == 0


class TestCacheCorruptionRecovery:
    def test_corrupt_entry_quarantined_and_recomputed(self, tmp_path):
        plan = FaultPlan.parse("corrupt-cache-entry:trips-cycles:1")
        telemetry, report = warm(["rspeed"], tmp_path, jobs=1, faults=plan)
        assert report.units["rspeed"].status == COMPLETED

        # The poisoned entries are detected at next load: quarantined
        # with incident records, counted, and recomputed.
        pipeline = Pipeline(cache_dir=tmp_path)
        stats = pipeline.trips_cycles("rspeed").stats
        assert stats.cycles > 0
        store = pipeline.store
        counters = pipeline.telemetry.counters("trips-cycles")
        assert counters.corrupt_entries >= 1
        assert counters.computes >= 1
        quarantined = list(store.quarantine_root.rglob("*.pkl"))
        incidents = store.list_incidents()
        assert quarantined and incidents
        assert all(r["stage"] == "trips-cycles" for r in incidents)

        # Healed: the recomputed artifact serves the next session warm.
        healed = Pipeline(cache_dir=tmp_path)
        healed_stats = healed.trips_cycles("rspeed").stats
        assert healed_stats == stats
        assert healed.telemetry.computes(SIMULATION_STAGES) == 0


class TestNoFaultDeterminism:
    def test_robust_path_is_byte_identical_without_faults(self, tmp_path):
        """The acceptance determinism check: an empty FaultPlan through
        the full retry/timeout machinery must write exactly the same
        artifact files as the plain pipeline."""
        plain_dir = tmp_path / "plain"
        robust_dir = tmp_path / "robust"
        warm_one("rspeed", str(plain_dir), include=INCLUDE)
        warm(["rspeed"], robust_dir, jobs=2, faults=FaultPlan(),
             stage_timeout=600.0)

        def snapshot(root):
            files = {}
            for path in sorted(root.rglob("*.pkl")):
                files[str(path.relative_to(root))] = path.read_bytes()
            return files

        plain, robust = snapshot(plain_dir), snapshot(robust_dir)
        assert set(plain) == set(robust)       # same digests → same keys
        assert plain == robust                 # same bytes, entry by entry

    def test_traced_and_untraced_cycle_stats_identical(self):
        from repro.trace import CollectingTracer
        from repro.uarch import run_cycles
        lowered = Pipeline().trips_lowered("rspeed")
        plain_result, plain = run_cycles(lowered)
        traced_result, traced = run_cycles(lowered,
                                           tracer=CollectingTracer())
        assert plain_result == traced_result
        assert plain.stats == traced.stats


class TestChaosCli:
    def test_chaos_command_end_to_end(self, tmp_path, capsys):
        from repro.__main__ import main
        assert main(["chaos", "rspeed", "--faults", "kill-worker:rspeed:1",
                     "--jobs", "2", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "run report" in out
        assert "retried" in out

    def test_chaos_rejects_bad_plan(self, tmp_path, capsys):
        from repro.__main__ import main
        assert main(["chaos", "rspeed", "--faults", "melt-cpu:rspeed",
                     "--cache-dir", str(tmp_path)]) == 2
        assert "bad --faults plan" in capsys.readouterr().err

    def test_chaos_requires_cache(self, capsys):
        from repro.__main__ import main
        assert main(["chaos", "rspeed", "--faults", "flaky-stage:rspeed",
                     "--no-cache"]) == 2

    def test_chaos_corruption_prints_incidents(self, tmp_path, capsys):
        from repro.__main__ import main
        assert main(["chaos", "rspeed", "--faults",
                     "corrupt-cache-entry:trips-cycles:1", "--jobs", "1",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "quarantine:" in out
        assert "trips-cycles" in out


class TestReportRendersWhatItCan:
    def test_failed_experiment_annotated_not_fatal(self, tmp_path, capsys,
                                                   monkeypatch):
        import repro.eval
        from repro.__main__ import main

        real = repro.eval.run_experiment

        def flaky_experiment(key, pipeline=None, **kwargs):
            if key == "table2":
                raise RuntimeError("injected driver failure")
            return real(key, pipeline=pipeline, **kwargs)

        monkeypatch.setattr(repro.eval, "run_experiment", flaky_experiment)
        assert main(["report", "table2", "--cache-dir",
                     str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "[table2 unavailable: RuntimeError: injected driver failure]" \
            in out
        assert "annotation: table2" in out
        # A healthy experiment still renders and exits 0.
        assert main(["report", "table1", "--cache-dir", str(tmp_path)]) == 0
