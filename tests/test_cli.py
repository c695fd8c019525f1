"""CLI coverage: ``python -m repro`` across every subcommand and every
``--system`` choice, in-process via ``main()`` plus subprocess smoke.

All commands share one on-disk cache directory so the compile→simulate
work is done once and later parametrizations are warm.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main

SRC = str(Path(__file__).resolve().parent.parent / "src")

SYSTEMS = ["interp", "risc", "trips", "cycles", "ideal", "core2", "p4", "p3"]


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cli-cache"))


class TestRun:
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_all_systems(self, system, cache_dir, capsys):
        assert main(["run", "crc", "--system", system,
                     "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "golden checksum" in out

    def test_hand_variant(self, cache_dir, capsys):
        assert main(["run", "vadd", "--system", "trips",
                     "--variant", "hand", "--cache-dir", cache_dir]) == 0
        assert "blocks" in capsys.readouterr().out

    def test_icc_level(self, cache_dir, capsys):
        assert main(["run", "crc", "--system", "core2", "--icc",
                     "--cache-dir", cache_dir]) == 0
        assert "(ICC)" in capsys.readouterr().out

    def test_bad_system_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "crc", "--system", "not-a-system"])

    def test_profile_and_trace(self, cache_dir, tmp_path, capsys):
        from repro.obs import uninstall_recorder

        trace = tmp_path / "spans.jsonl"
        try:
            assert main(["run", "crc", "--system", "cycles",
                         "--cache-dir", cache_dir,
                         "--spans", str(trace), "--profile"]) == 0
        finally:
            uninstall_recorder()
        out = capsys.readouterr().out
        assert "Pipeline profile" in out
        stages = [event for event in (json.loads(line) for line in
                                      trace.read_text().splitlines())
                  if event["name"].startswith("stage.")]
        assert stages
        assert {"outcome", "digest", "key"} <= set(stages[0]["args"])
        assert {"dur_ms", "pid", "run"} <= set(stages[0])
        cycles = [event for event in stages
                  if event["name"] == "stage.trips-cycles"]
        assert cycles and cycles[0]["args"]["key"][0] == "crc"
        # Everything was cached by the earlier cycles run.
        assert all(event["args"]["outcome"] != "compute"
                   for event in cycles)


class TestTrace:
    def test_trace_renders_views(self, cache_dir, capsys):
        assert main(["trace", "crc", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "cycles, IPC" in out
        assert "OPN link utilization" in out
        assert "window occupancy" in out
        assert "ET issue utilization" in out

    def test_trace_writes_compact_stream(self, cache_dir, tmp_path, capsys):
        from repro.trace import read_compact
        out_file = tmp_path / "crc.trace.jsonl"
        assert main(["trace", "crc", "--out", str(out_file),
                     "--buckets", "8", "--cache-dir", cache_dir]) == 0
        events = read_compact(out_file)
        assert events
        assert f"wrote {len(events)} events" in capsys.readouterr().out

    def test_run_uarch_trace(self, cache_dir, tmp_path, capsys):
        from repro.trace import read_compact
        out_file = tmp_path / "run.trace.jsonl"
        assert main(["run", "crc", "--system", "cycles",
                     "--uarch-trace", str(out_file),
                     "--cache-dir", cache_dir]) == 0
        captured = capsys.readouterr()
        assert "cycles, IPC" in captured.out
        assert read_compact(out_file)

    def test_traced_run_matches_cached_cycles(self, cache_dir, tmp_path,
                                              capsys):
        """--uarch-trace bypasses the artifact cache but must print the
        same cycle count as the cached run."""
        assert main(["run", "crc", "--system", "cycles",
                     "--cache-dir", cache_dir]) == 0
        plain = capsys.readouterr().out
        assert main(["run", "crc", "--system", "cycles",
                     "--uarch-trace", str(tmp_path / "t.jsonl"),
                     "--cache-dir", cache_dir]) == 0
        traced = capsys.readouterr().out
        assert plain == traced


class TestListAndAsm:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "kernels" in out and "spec_int" in out

    def test_asm_whole_program(self, cache_dir, capsys):
        assert main(["asm", "crc", "--cache-dir", cache_dir]) == 0
        assert capsys.readouterr().out.strip()

    def test_asm_unknown_block(self, cache_dir, capsys):
        assert main(["asm", "crc", "--block", "nope",
                     "--cache-dir", cache_dir]) == 2


class TestReport:
    def test_report_list_names_all_experiments(self, capsys):
        from repro.eval import experiment_names
        assert main(["report", "--list"]) == 0
        keys = capsys.readouterr().out.split()
        assert keys == experiment_names()

    def test_report_static_tables(self, cache_dir, capsys):
        assert main(["report", "table2", "--cache-dir", cache_dir]) == 0
        assert "Benchmark suites" in capsys.readouterr().out

    def test_report_heatmaps(self, cache_dir, capsys):
        assert main(["report", "table2", "--heatmaps",
                     "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "Benchmark suites" in out
        for kernel in ("ct", "conv", "vadd", "matrix"):
            assert f"=== {kernel} (compiled) ===" in out
        assert "OPN link utilization" in out
        assert "window occupancy" in out

    def test_report_jobs_requires_cache(self, capsys):
        assert main(["report", "table1", "--jobs", "2", "--no-cache"]) == 2
        assert "--jobs" in capsys.readouterr().err


class TestConfigOverride:
    def test_config_changes_cycles(self, cache_dir, capsys):
        assert main(["run", "vadd", "--system", "cycles",
                     "--cache-dir", cache_dir]) == 0
        baseline = capsys.readouterr().out
        assert main(["run", "vadd", "--system", "cycles",
                     "--config", "max_blocks_in_flight=1",
                     "--cache-dir", cache_dir]) == 0
        shallow = capsys.readouterr().out
        assert "golden checksum" in shallow
        assert shallow != baseline

    def test_config_drives_ideal_point(self, cache_dir, capsys):
        assert main(["run", "vadd", "--system", "ideal",
                     "--config", "window=256,dispatch_cost=0",
                     "--cache-dir", cache_dir]) == 0
        assert "ideal 256/0-cycle dispatch" in capsys.readouterr().out

    def test_bad_config_key_suggests_and_exits_2(self, cache_dir, capsys):
        assert main(["run", "vadd", "--system", "cycles",
                     "--config", "max_blocks=1",
                     "--cache-dir", cache_dir]) == 2
        err = capsys.readouterr().err
        assert "bad --config override" in err
        assert "max_blocks_in_flight" in err

    def test_out_of_domain_config_exits_2(self, cache_dir, capsys):
        assert main(["run", "vadd", "--system", "cycles",
                     "--config", "max_blocks_in_flight=0",
                     "--cache-dir", cache_dir]) == 2
        assert "max_blocks_in_flight" in capsys.readouterr().err

    @pytest.mark.parametrize("override", ["window=0", "dispatch_cost=-1"])
    def test_out_of_domain_ideal_config_exits_2_before_any_stage(
            self, override, tmp_path, monkeypatch, capsys):
        from repro.pipeline.core import Pipeline

        stages = []
        real = Pipeline._resolve

        def resolve(self, stage, *args):
            stages.append(stage)
            return real(self, stage, *args)

        monkeypatch.setattr(Pipeline, "_resolve", resolve)
        assert main(["run", "rspeed", "--system", "ideal",
                     "--config", override,
                     "--cache-dir", str(tmp_path)]) == 2
        assert override.split("=")[0] in capsys.readouterr().err
        assert stages == []


class TestSweep:
    def test_list_presets(self, capsys):
        assert main(["sweep", "--list-presets", "--no-cache"]) == 0
        out = capsys.readouterr().out
        for name in ("speculation-depth", "ideal-ilp",
                     "predictor-budget", "smoke"):
            assert name in out

    def test_sweep_requires_cache(self, capsys):
        assert main(["sweep", "smoke", "--no-cache"]) == 2
        assert "cache" in capsys.readouterr().err

    def test_bad_spec_exits_2(self, cache_dir, capsys):
        assert main(["sweep", "not-a-preset.json",
                     "--cache-dir", cache_dir]) == 2
        assert "bad sweep spec" in capsys.readouterr().err

    def test_smoke_sweep_then_frontier(self, cache_dir, tmp_path, capsys):
        out_dir = tmp_path / "sweep-out"
        argv = ["sweep", "smoke", "--points", "max_blocks_in_flight=1,8",
                "--benchmarks", "crc", "--out", str(out_dir),
                "--cache-dir", cache_dir]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "sweep smoke: 2 points — 2 ok, 0 holes" in out
        for name in ("points.jsonl", "frontier.csv", "sensitivity.csv",
                     "summary.md", "report.json", "spec.json"):
            assert (out_dir / name).stat().st_size > 0

        # Warm rerun: the cache makes the sweep a no-op.
        assert main(argv) == 0
        assert "simulations: 0 computed" in capsys.readouterr().out

        assert main(["frontier", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out and "sensitivity" in out

    def test_frontier_on_missing_dir_exits_2(self, tmp_path, capsys):
        assert main(["frontier", str(tmp_path / "nope")]) == 2
        assert "not a sweep directory" in capsys.readouterr().err


class TestCountOptions:
    """A count outside its range (``--jobs`` below 1, ``--retries``
    below 0, ...) is refused at parse time (exit 2) on every subcommand
    that has it."""

    CHAOS = ["chaos", "crc", "--faults", "flaky-stage:crc"]

    @pytest.mark.parametrize("argv", [
        ["sweep", "smoke", "--jobs", "0"],
        ["sweep", "smoke", "--jobs", "-2"],
        ["sweep", "smoke", "--retries", "-1"],
        ["report", "table1", "--jobs", "0"],
        ["report", "table1", "--retries", "-1"],
        CHAOS + ["--jobs", "0"],
        CHAOS + ["--retries", "-1"],
        ["serve", "--jobs", "0"],
        ["sweep", "smoke", "--jobs", "two"],
        ["perf", "run", "--repeats", "0"],
        ["perf", "run", "--warmup", "-1"],
        ["trace", "vadd", "--buckets", "0"],
        ["trace", "vadd", "--buckets", "-7"],
        ["trace", "vadd", "--buckets", "1025"],
        pytest.param(["runs", "list", "--limit", "0"],
                     id="runs-list--limit=0"),
        pytest.param(["runs", "query", "--limit", "0"],
                     id="runs-query--limit=0"),
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}")
    def test_bad_count_exits_2(self, argv, capsys):
        from repro.__main__ import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert argv[-2] in capsys.readouterr().err

    @pytest.mark.parametrize("bound", [["--keep", "-3"],
                                       ["--max-age-days", "-1"]],
                             ids=lambda bound: "=".join(bound))
    def test_negative_compact_bound_keeps_every_row(self, bound, tmp_path):
        from repro.obs import RunIndex, default_index_path

        path = default_index_path(tmp_path)
        index = RunIndex(path)
        for number in range(5):
            index.record(f"r{number}", "run")
        index.close()
        with pytest.raises(SystemExit) as exc:
            main(["runs", "compact", "--cache-dir", str(tmp_path), *bound])
        assert exc.value.code == 2
        index = RunIndex(path)
        try:
            assert index.count() == 5
        finally:
            index.close()

    def test_smallest_counts_parse(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(
            ["sweep", "smoke", "--jobs", "1", "--retries", "0"])
        assert (args.jobs, args.retries) == (1, 0)


class TestSubprocessSmoke:
    def _run(self, *argv):
        env = os.environ.copy()
        env["PYTHONPATH"] = SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, timeout=600, env=env)

    def test_report_table1(self):
        result = self._run("report", "table1", "--no-cache")
        assert result.returncode == 0, result.stderr[-2000:]
        assert "TRIPS" in result.stdout

    def test_run_interp(self):
        result = self._run("run", "crc", "--system", "interp", "--no-cache")
        assert result.returncode == 0, result.stderr[-2000:]
        assert "golden checksum" in result.stdout
