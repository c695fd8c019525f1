"""Tests for the staged artifact pipeline: content-addressed keys, the
on-disk store, observability, cross-process cache warmth, and the
parallel warm fan-out.

The two acceptance properties of the pipeline are covered here:

* a figure driver run twice in separate processes performs **zero**
  simulator invocations the second time (the cycle simulator is patched
  to raise on the warm run), and
* the parallel warm phase produces byte-identical tables to a serial,
  memory-only run.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.eval.experiments import fig9_ipc
from repro.eval.report import format_table
from repro.eval.runner import Runner
from repro.pipeline import (
    ArtifactStore, Pipeline, SCHEMA_VERSION, SIMULATION_STAGES, Telemetry,
    artifact_digest, config_digest, stable_digest,
)
from repro.pipeline.parallel import warm_benchmarks
from repro.uarch import TripsConfig

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _env():
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class TestKeys:
    def test_stable_digest_deterministic_across_orderings(self):
        a = stable_digest({"x": 1, "y": (2, 3), "z": {4, 5}})
        b = stable_digest({"z": {5, 4}, "y": (2, 3), "x": 1})
        assert a == b

    def test_stable_digest_distinguishes_values(self):
        assert stable_digest({"x": 1}) != stable_digest({"x": 2})

    def test_config_digest_by_value_not_identity(self):
        assert config_digest(TripsConfig()) == config_digest(TripsConfig())
        changed = TripsConfig()
        changed.ras_entries = 16
        assert config_digest(changed) != config_digest(TripsConfig())

    def test_artifact_digest_separates_stages_and_schema(self):
        key = ("rspeed", "compiled")
        assert artifact_digest(SCHEMA_VERSION, "a", key) \
            != artifact_digest(SCHEMA_VERSION, "b", key)
        assert artifact_digest(SCHEMA_VERSION, "a", key) \
            != artifact_digest(SCHEMA_VERSION + 1, "a", key)


class TestArtifactStore:
    def test_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.store("stage", "ab" * 32, {"answer": 42})
        found, value = store.load("stage", "ab" * 32)
        assert found and value == {"answer": 42}

    def test_missing_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        found, value = store.load("stage", "cd" * 32)
        assert not found and value is None

    def test_corrupt_entry_is_a_miss_and_quarantined(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = "ef" * 32
        store.store("stage", digest, [1, 2, 3])
        path = store.path_for("stage", digest)
        path.write_bytes(b"not a pickle")
        found, _ = store.load("stage", digest)
        assert not found
        assert not path.exists()
        # Not silently destroyed: moved aside with an incident record.
        moved = store.quarantine_root / "stage" / path.name
        assert moved.exists()
        assert len(store.incidents) == 1
        assert store.incidents[0].digest == digest
        records = store.list_incidents()
        assert len(records) == 1 and records[0]["stage"] == "stage"

    def test_clear(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.store("s1", "aa" * 32, 1)
        store.store("s2", "bb" * 32, 2)
        assert store.clear() == 2
        assert not store.load("s1", "aa" * 32)[0]


class TestObservability:
    def test_telemetry_counters_and_profile(self):
        telemetry = Telemetry()
        telemetry.record("stage", "compute", 0.5)
        telemetry.record("stage", "memory-hit")
        telemetry.record("stage", "disk-hit", 0.1)
        counters = telemetry.counters("stage")
        assert counters.requests == 3
        assert counters.computes == 1
        assert counters.hit_rate == pytest.approx(2 / 3)
        headers, rows = telemetry.profile()
        assert rows[-1][0] == "TOTAL"
        assert rows[0][1] == 3

    def test_telemetry_merge_dict_round_trip(self):
        a, b = Telemetry(), Telemetry()
        a.record("s", "compute", 1.0)
        b.merge_dict(a.as_dict())
        b.merge_dict(a.as_dict())
        assert b.counters("s").computes == 2
        assert b.counters("s").compute_seconds == pytest.approx(2.0)

    def test_pipeline_records_hits_and_misses(self):
        pipeline = Pipeline()
        pipeline.module("rspeed")
        pipeline.module("rspeed")
        counters = pipeline.telemetry.counters("module")
        assert counters.computes == 1
        assert counters.memory_hits == 1


class TestSatelliteFixes:
    """The two historical Runner cache-key bugs must stay fixed."""

    @pytest.fixture(scope="class")
    def runner(self):
        return Runner()

    def test_block_trace_keyed_by_variant(self, runner):
        compiled = runner.block_trace("rspeed", "hyper", "compiled")
        hand = runner.block_trace("rspeed", "hyper", "hand")
        # The old (name, formation) key silently served the compiled trace
        # for the hand request; now each variant is its own artifact,
        # traced with its own lowering.
        assert compiled is not hand
        assert runner.pipeline.telemetry.counters("block-trace").computes == 2
        # ...and each memoized under its own key.
        assert runner.block_trace("rspeed", "hyper", "compiled") is compiled
        assert runner.block_trace("rspeed", "hyper", "hand") is hand
        assert runner.pipeline.telemetry.counters("block-trace").computes == 2

    def test_trips_cycles_custom_config_memoized(self, runner):
        config = TripsConfig()
        config.mispredict_flush_cycles = 20
        first, _ = runner.trips_cycles("rspeed", config=config)
        before = runner.pipeline.telemetry.counters("trips-cycles").computes
        # An equal-valued fresh config must hit the same cache slot.
        again = TripsConfig()
        again.mispredict_flush_cycles = 20
        second, _ = runner.trips_cycles("rspeed", config=again)
        after = runner.pipeline.telemetry.counters("trips-cycles").computes
        assert after == before
        assert second is first

    def test_trips_cycles_configs_do_not_collide(self, runner):
        default, _ = runner.trips_cycles("rspeed")
        slow = TripsConfig()
        slow.mispredict_flush_cycles = 50
        slower, _ = runner.trips_cycles("rspeed", config=slow)
        assert slower is not default


class TestDiskCacheAcrossProcesses:
    """Acceptance: a figure driver re-run in a fresh process is warm."""

    SCRIPT = textwrap.dedent("""\
        import sys
        from repro.eval.experiments import fig9_ipc
        from repro.eval.runner import Runner
        from repro.pipeline import SIMULATION_STAGES

        cache_dir, mode = sys.argv[1], sys.argv[2]
        if mode == "warm":
            # Any simulator invocation on the warm run is a failure.
            import repro.uarch.core as core
            import repro.trips.functional as functional

            def _boom(*args, **kwargs):
                raise RuntimeError("simulator invoked on warm run")

            core.CycleSimulator.run = _boom

        runner = Runner(cache_dir=cache_dir)
        fig9_ipc(runner, benchmarks=("rspeed",), spec=())
        print("COMPUTES",
              runner.pipeline.telemetry.computes(SIMULATION_STAGES))
    """)

    def _run(self, tmp_path, mode):
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(tmp_path / "cache"),
             mode],
            capture_output=True, text=True, timeout=600, env=_env())
        assert result.returncode == 0, result.stderr[-2000:]
        return int(result.stdout.split("COMPUTES")[1].strip())

    def test_second_process_performs_zero_simulations(self, tmp_path):
        cold = self._run(tmp_path, "cold")
        assert cold > 0
        warm = self._run(tmp_path, "warm")
        assert warm == 0


class TestOneExecutionPerSemantics:
    """Each program runs once per semantics: one TRIPS execution per
    (variant, formation), one RISC execution per level.  Every other
    artifact is a fold over those recorded runs."""

    KEYS = ("fig7", "fig10", "fig11", "sec44")
    SCRIPT = textwrap.dedent("""\
        import sys
        from repro.eval.experiments import run_experiment
        from repro.eval.runner import Runner
        from repro.pipeline import SIMULATION_STAGES

        cache_dir, mode = sys.argv[1], sys.argv[2]
        if mode == "warm":
            # Any execution on the warm run is a failure.
            from repro.risc import RiscSimulator
            from repro.trips.functional import TripsSimulator

            def _boom(*args, **kwargs):
                raise RuntimeError("program executed on warm run")

            TripsSimulator.run = _boom
            RiscSimulator.run = _boom

        runner = Runner(cache_dir=cache_dir)
        for key in ("fig7", "fig10", "fig11", "sec44"):
            extra = {"spec": ()} if key == "fig10" else {}
            run_experiment(key, runner, benchmarks=("rspeed",), **extra)
        print("COMPUTES",
              runner.pipeline.telemetry.computes(SIMULATION_STAGES))
    """)

    def test_cold_render_executes_each_program_once(self, monkeypatch):
        from repro.eval.experiments import run_experiment
        from repro.risc import RiscSimulator
        from repro.trips.functional import TripsSimulator

        calls = {"trips": 0, "risc": 0}

        def counted(kind, real):
            def run(*args, **kwargs):
                calls[kind] += 1
                return real(*args, **kwargs)
            return run

        monkeypatch.setattr(TripsSimulator, "run",
                            counted("trips", TripsSimulator.run))
        monkeypatch.setattr(RiscSimulator, "run",
                            counted("risc", RiscSimulator.run))
        runner = Runner()
        for key in self.KEYS:
            extra = {"spec": ()} if key == "fig10" else {}
            run_experiment(key, runner, benchmarks=("rspeed",), **extra)
        # (compiled, hyper), (compiled, basic), (hand, hyper); O2, ICC.
        assert calls == {"trips": 3, "risc": 2}
        counters = runner.pipeline.telemetry.counters
        assert counters("ideal").computes == 6
        assert counters("platform").computes == 4

    def test_cycle_runs_fold_over_the_one_recording(self, monkeypatch):
        # Six configurations and a traced summary build two memory
        # images: the interpreter's and the one recording's.
        from repro.ir.interp import Memory
        from tests.util import load_goldens_tool

        goldens = load_goldens_tool()
        built = []
        real_init = Memory.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(Memory, "__init__", counted)
        pipeline = Pipeline()
        for name in goldens.CONFIGS:
            pipeline.trips_cycles("rspeed", config=goldens.config(name))
        pipeline.trace_summary("rspeed")
        assert len(built) == 2
        assert pipeline.telemetry.counters("trips-cycles").computes == 6

    def _run(self, tmp_path, mode):
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(tmp_path / "cache"),
             mode],
            capture_output=True, text=True, timeout=600, env=_env())
        assert result.returncode == 0, result.stderr[-2000:]
        return int(result.stdout.split("COMPUTES")[1].strip())

    def test_warm_render_in_a_fresh_process_executes_nothing(self,
                                                            tmp_path):
        assert self._run(tmp_path, "cold") > 0
        assert self._run(tmp_path, "warm") == 0

    @pytest.mark.parametrize("params", [{"window": 0},
                                        {"dispatch_cost": -1}])
    def test_out_of_domain_ideal_point_executes_and_stores_nothing(
            self, tmp_path, monkeypatch, params):
        from repro.trips.functional import TripsSimulator
        from repro.uarch import ConfigError

        def _boom(*args, **kwargs):
            raise AssertionError("program executed")

        monkeypatch.setattr(TripsSimulator, "run", _boom)
        pipeline = Pipeline(cache_dir=tmp_path / "cache")
        with pytest.raises(ConfigError):
            pipeline.ideal("rspeed", **params)
        with pytest.raises(ConfigError):
            Runner(pipeline=pipeline).ideal("rspeed", **params)
        assert pipeline.telemetry.computes() == 0
        assert not [path for path in (tmp_path / "cache").rglob("*")
                    if path.is_file()]


class TestParallelFanout:
    """Acceptance: parallel warm + render == serial render, byte for byte."""

    NAMES = ("rspeed", "conven")

    def test_parallel_warm_matches_serial_tables(self, tmp_path):
        telemetry = warm_benchmarks(
            self.NAMES, tmp_path, jobs=2, include=("expected", "cycles"))
        assert telemetry.computes(("trips-cycles",)) > 0

        serial = Runner()  # memory-only: simulates everything itself
        warm = Runner(cache_dir=tmp_path)
        render = lambda r: format_table(
            "fig9", *fig9_ipc(r, benchmarks=self.NAMES, spec=()))
        assert render(warm) == render(serial)
        # The warm render never simulated: every cycle run was a disk hit.
        assert warm.pipeline.telemetry.computes(SIMULATION_STAGES) == 0
        assert warm.pipeline.telemetry.counters("trips-cycles").disk_hits > 0

    def test_warm_is_idempotent(self, tmp_path):
        warm_benchmarks(self.NAMES, tmp_path, jobs=1,
                        include=("expected", "powerpc"))
        second = warm_benchmarks(self.NAMES, tmp_path, jobs=1,
                                 include=("expected", "powerpc"))
        assert second.computes(("powerpc", "expected")) == 0


class TestChecksumGuardStillArmed:
    def test_disk_artifacts_were_validated_at_compute_time(self, tmp_path):
        from repro.pipeline import ChecksumMismatch

        runner = Runner(cache_dir=tmp_path)
        runner._expected["rspeed"] = -1  # sabotage before first compute
        with pytest.raises(ChecksumMismatch):
            runner.trips_functional("rspeed")
        # Nothing poisonous was persisted for later sessions.
        fresh = Runner(cache_dir=tmp_path)
        stats = fresh.trips_functional("rspeed")
        assert stats.fetched > 0
