"""Unit tests for the fault-tolerant execution layer (`repro.robust`):
the error taxonomy, deterministic retry backoff, the run report, the
fault plan, store quarantine + write-failure behaviour, and the
simulation watchdog.  End-to-end recovery paths live in test_chaos.py.
"""

import os
import pickle
import threading

import pytest

from repro.ir.interp import TrapError
from repro.pipeline import ArtifactStore, Pipeline, Telemetry
from repro.robust import (
    COMPLETED, CacheCorruption, DEGRADED, FAILED, Fault, FaultPlan,
    InjectedFault, RETRIED, RetryPolicy, RobustError, RunReport,
    SimulationBudgetExceeded, StageError, StageTimeout, UnitOutcome,
    WorkerCrash,
)


class TestErrorTaxonomy:
    def test_every_error_carries_context(self):
        cases = [
            StageError("rspeed", ValueError("boom"), stage="warm",
                       attempts=2),
            WorkerCrash("rspeed", attempts=3),
            StageTimeout("rspeed", seconds=1.5, attempts=1),
            CacheCorruption("trips-cycles", "ab" * 32, "/tmp/x.pkl",
                            "checksum mismatch"),
        ]
        for error in cases:
            assert isinstance(error, RobustError)
            assert error.context
            assert "rspeed" in str(error) or "trips-cycles" in str(error)

    def test_stage_error_names_cause(self):
        error = StageError("fft", ZeroDivisionError("1/0"))
        assert "ZeroDivisionError" in str(error)
        assert error.cause.args == ("1/0",)

    def test_budget_error_is_a_trap_error(self):
        error = SimulationBudgetExceeded(
            kind="block", budget=10, label="loop_head", blocks_committed=10,
            cycle=420, window=(400, 410, 420))
        assert isinstance(error, TrapError)
        message = str(error)
        assert "loop_head" in message
        assert "10 blocks committed" in message
        assert "cycle 420" in message
        assert "3 blocks in flight" in message


class TestRetryPolicy:
    def test_schedule_is_deterministic(self):
        policy = RetryPolicy(max_attempts=4, seed=7)
        assert policy.delays("rspeed") == policy.delays("rspeed")
        assert RetryPolicy(max_attempts=4, seed=7).delays("rspeed") \
            == policy.delays("rspeed")

    def test_different_units_and_seeds_decorrelate(self):
        policy = RetryPolicy(max_attempts=4, seed=7)
        assert policy.delays("rspeed") != policy.delays("fft")
        assert RetryPolicy(max_attempts=4, seed=8).delays("rspeed") \
            != policy.delays("rspeed")

    def test_exponential_and_capped_without_jitter(self):
        policy = RetryPolicy(max_attempts=6, base_delay=0.1, multiplier=2.0,
                             max_delay=0.5, jitter=0.0)
        assert policy.delays() == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_bounded(self):
        policy = RetryPolicy(max_attempts=10, base_delay=1.0, multiplier=1.0,
                             max_delay=1.0, jitter=0.25, seed=3)
        for delay in policy.delays("unit"):
            assert 0.75 <= delay <= 1.25


class TestRunReport:
    def test_statuses_and_render(self):
        report = RunReport()
        report.resolve("a", COMPLETED)
        report.record_attempt("b", ValueError("boom"))
        report.resolve("b", RETRIED, attempts=2)
        report.record_attempt("c", WorkerCrash("c"))
        report.resolve("c", DEGRADED, attempts=3)
        report.record_attempt("d", StageTimeout("d", 5.0))
        report.resolve("d", FAILED, attempts=3)
        assert [o.unit for o in report.completed] == ["a"]
        assert [o.unit for o in report.retried] == ["b"]
        assert [o.unit for o in report.degraded] == ["c"]
        assert [o.unit for o in report.failed] == ["d"]
        assert not report.ok
        assert report.eventful
        text = report.render()
        assert "4 units" in text
        assert "1 failed" in text
        assert "ValueError: boom" in text
        assert "StageTimeout" in text

    def test_quiet_report_is_ok(self):
        report = RunReport()
        report.resolve("a", COMPLETED)
        assert report.ok and not report.eventful

    def test_annotations_break_ok(self):
        report = RunReport()
        report.annotate("fig9: missing benchmark")
        assert not report.ok
        assert "fig9" in report.render()


class TestFaultPlan:
    def test_parse_round_trip(self):
        plan = FaultPlan.parse(
            "kill-worker:rspeed:2, flaky-stage:fft, slow-stage:*:1:30,"
            "corrupt-cache-entry:trips-cycles", seed=9)
        assert plan.seed == 9
        assert plan.faults[0] == Fault("kill-worker", "rspeed", 2)
        assert plan.faults[2].seconds == 30.0
        assert "kill-worker:rspeed:2" in plan.describe()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.parse("explode-disk:rspeed")

    def test_activation_by_site_and_attempt(self):
        plan = FaultPlan.parse("flaky-stage:rspeed:2,kill-worker:*:1")
        assert plan.active("flaky-stage", "rspeed", 0)
        assert plan.active("flaky-stage", "rspeed", 1)
        assert plan.active("flaky-stage", "rspeed", 2) is None
        assert plan.active("flaky-stage", "fft", 0) is None
        assert plan.active("kill-worker", "anything", 0)
        assert plan.active("kill-worker", "anything", 1) is None

    def test_plan_is_picklable(self):
        plan = FaultPlan.parse("kill-worker:rspeed:2", seed=3)
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_flaky_fault_fires_in_process(self):
        from repro.robust import apply_unit_faults
        plan = FaultPlan.parse("flaky-stage:rspeed:1")
        with pytest.raises(InjectedFault):
            apply_unit_faults(plan, "rspeed", 0, in_worker=False)
        apply_unit_faults(plan, "rspeed", 1, in_worker=False)  # quiet
        apply_unit_faults(None, "rspeed", 0, in_worker=False)  # no plan


class TestStoreQuarantine:
    def test_checksum_mismatch_detected_and_quarantined(self, tmp_path):
        telemetry = Telemetry()
        store = ArtifactStore(tmp_path, telemetry=telemetry)
        digest = "ab" * 32
        store.store("stage", digest, {"answer": 42})
        path = store.path_for("stage", digest)
        # Forge a structurally-valid payload whose blob does not match
        # its checksum: only the integrity check can catch this.
        payload = pickle.loads(path.read_bytes())
        payload["blob"] = pickle.dumps({"answer": 43})
        path.write_bytes(pickle.dumps(payload))
        found, _ = store.load("stage", digest)
        assert not found
        assert (store.quarantine_root / "stage" / path.name).exists()
        assert "checksum mismatch" in store.incidents[0].reason
        assert telemetry.counters("stage").corrupt_entries == 1

    def test_corrupt_counter_flows_through_profile(self, tmp_path):
        telemetry = Telemetry()
        store = ArtifactStore(tmp_path, telemetry=telemetry)
        digest = "cd" * 32
        store.store("s", digest, 1)
        store.path_for("s", digest).write_bytes(b"junk")
        store.load("s", digest)
        headers, rows = telemetry.profile()
        assert "corrupt" in headers
        corrupt_column = headers.index("corrupt")
        assert rows[-1][corrupt_column] == 1  # TOTAL row

    def test_corrupt_counter_merges_across_processes(self):
        a, b = Telemetry(), Telemetry()
        a.record("s", "corrupt")
        b.merge_dict(a.as_dict())
        assert b.counters("s").corrupt_entries == 1

    def test_quarantined_artifact_is_recomputed(self, tmp_path):
        pipeline = Pipeline(cache_dir=tmp_path)
        value = pipeline.expected("rspeed")
        digest_dir = pipeline.store.root / "expected"
        paths = list(digest_dir.rglob("*.pkl"))
        assert len(paths) == 1
        paths[0].write_bytes(b"\x00" * 64)
        fresh = Pipeline(cache_dir=tmp_path)
        assert fresh.expected("rspeed") == value
        assert fresh.telemetry.counters("expected").corrupt_entries == 1
        assert fresh.telemetry.counters("expected").computes == 1
        # The healed entry is a clean disk hit for the next session.
        again = Pipeline(cache_dir=tmp_path)
        assert again.expected("rspeed") == value
        assert again.telemetry.counters("expected").disk_hits == 1

    def test_injected_corruption_via_fault_plan(self, tmp_path):
        plan = FaultPlan.parse("corrupt-cache-entry:stage:1")
        store = ArtifactStore(tmp_path, fault_plan=plan, fault_attempt=0)
        store.store("stage", "ee" * 32, [1, 2])
        found, _ = store.load("stage", "ee" * 32)
        assert not found  # garbled at write time, quarantined at load
        # Attempts beyond `times` write cleanly.
        late = ArtifactStore(tmp_path, fault_plan=plan, fault_attempt=1)
        late.store("stage", "ff" * 32, [3])
        assert late.load("stage", "ff" * 32) == (True, [3])


class TestStoreWriteFailures:
    """Injected os.replace / pickle failures must never leave partial
    or poisoned entries behind."""

    def test_os_replace_failure_leaves_no_artifact(self, tmp_path,
                                                   monkeypatch):
        store = ArtifactStore(tmp_path)
        digest = "aa" * 32

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("repro.pipeline.store.os.replace",
                            broken_replace)
        with pytest.raises(OSError, match="disk full"):
            store.store("stage", digest, [1])
        monkeypatch.undo()
        assert store.load("stage", digest) == (False, None)
        leftovers = list(store.root.rglob("*.tmp"))
        assert leftovers == []

    def test_pickle_failure_cleans_temp_file(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path)
        digest = "bb" * 32

        def broken_dump(*_args, **_kwargs):
            raise pickle.PicklingError("cannot serialise")

        monkeypatch.setattr("repro.pipeline.store.pickle.dump", broken_dump)
        with pytest.raises(pickle.PicklingError):
            store.store("stage", digest, [1])
        monkeypatch.undo()
        assert store.load("stage", digest) == (False, None)
        assert list(store.root.rglob("*.tmp")) == []
        # The store still works afterwards.
        store.store("stage", digest, [2])
        assert store.load("stage", digest) == (True, [2])

    def test_concurrent_writers_same_key_last_write_wins(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = "cc" * 32
        errors = []

        def writer(value):
            try:
                for _ in range(20):
                    store.store("stage", digest, value)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        found, value = store.load("stage", digest)
        assert found and value in (0, 1, 2, 3)


class TestSimulationWatchdog:
    @pytest.fixture(scope="class")
    def lowered(self):
        from repro.eval.runner import Runner
        return Runner().trips_lowered("rspeed")

    def test_block_budget_contextual(self, lowered):
        from repro.uarch import CycleSimulator
        simulator = CycleSimulator(lowered, max_blocks=3)
        with pytest.raises(SimulationBudgetExceeded) as info:
            simulator.run()
        error = info.value
        assert error.kind == "block"
        assert error.blocks_committed == 3
        assert error.label
        assert error.cycle > 0
        assert len(error.window) > 0
        assert "block budget" in str(error)

    def test_cycle_budget(self, lowered):
        from repro.uarch import run_cycles
        with pytest.raises(SimulationBudgetExceeded) as info:
            run_cycles(lowered, max_cycles=50)
        assert info.value.kind == "cycle"
        assert info.value.cycle >= 50

    def test_wall_clock_budget(self, lowered):
        from repro.uarch import run_cycles
        with pytest.raises(SimulationBudgetExceeded) as info:
            run_cycles(lowered, max_wall_seconds=0.0)
        assert info.value.kind == "wall-clock"
        assert info.value.elapsed is not None

    @pytest.fixture(scope="class")
    def spinning(self):
        from repro.opt import optimize
        from repro.trips import lower_module
        from tests.util import spinning_module
        return lower_module(optimize(spinning_module(), "O2"))

    def test_runaway_program_stops_at_block_budget(self, spinning):
        # The recording precedes the timing pass, so it honours the
        # budget itself instead of running until its fuel is spent.
        import time
        from repro.uarch import run_cycles
        started = time.monotonic()
        with pytest.raises(SimulationBudgetExceeded) as info:
            run_cycles(spinning, max_blocks=100)
        error = info.value
        assert error.kind == "block"
        assert error.blocks_committed == 100
        assert error.label
        assert error.cycle > 0
        assert len(error.window) > 0
        assert time.monotonic() - started < 30

    def test_runaway_program_stops_at_wall_clock_budget(self, spinning):
        import time
        from repro.uarch import run_cycles
        started = time.monotonic()
        with pytest.raises(SimulationBudgetExceeded) as info:
            run_cycles(spinning, max_wall_seconds=0.0)
        assert info.value.kind == "wall-clock"
        assert time.monotonic() - started < 30

    def test_generous_budgets_do_not_fire(self, lowered):
        from repro.uarch import run_cycles
        result, sim = run_cycles(lowered, max_cycles=10_000_000,
                                 max_wall_seconds=600.0)
        plain_result, plain_sim = run_cycles(lowered)
        assert result == plain_result
        assert sim.stats == plain_sim.stats


class TestUnitOutcomeDefaults:
    def test_defaults(self):
        outcome = UnitOutcome("u")
        assert outcome.status == COMPLETED
        assert outcome.attempts == 1
        assert outcome.causes == []
