"""``repro.perf`` coverage: statistics, measurement, BENCH schema,
regression verdicts with their exit codes, and the CLI surface."""

import json
import time

import pytest

from repro import perf, runctx
from repro.__main__ import main
from repro.perf.compare import (
    EXIT_OK, EXIT_REGRESSION, EXIT_WARN, compare_payloads, exit_code,
)
from repro.perf.harness import BenchSpec, hotspots, mad, measure, median


def _spec(run, setup=lambda: None, teardown=None, name="t"):
    return BenchSpec(name=name, group="test", description="test spec",
                     setup=setup, run=run, teardown=teardown)


def _stats(median_s, mad_s=0.0):
    return {"repeats": 3, "warmup": 1, "median_s": median_s,
            "mad_s": mad_s, "min_s": median_s, "max_s": median_s,
            "mean_s": median_s, "peak_rss_kb": 1024,
            "samples_s": [median_s] * 3}


def _payload(medians, mad_s=0.0):
    return {
        "schema": perf.BENCH_SCHEMA_VERSION,
        "run": {"run_id": "abc123", "git_sha": "deadbeef",
                "source_digest": "0" * 16, "started": 1.0},
        "host": {"platform": "linux", "machine": "x86_64",
                 "python": "3.12", "implementation": "CPython",
                 "cpu_count": 4},
        "quick": True,
        "results": {name: _stats(value, mad_s)
                    for name, value in medians.items()},
    }


class TestStatistics:
    def test_median_odd_even(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 2.0, 3.0]) == 2.5

    def test_median_empty_raises(self):
        with pytest.raises(ValueError):
            median([])

    def test_mad_is_robust_to_one_outlier(self):
        # One 100x outlier barely moves the MAD; it would wreck a stdev.
        assert mad([1.0, 1.1, 0.9, 1.0, 100.0]) == pytest.approx(0.1)

    def test_mad_of_constant_samples_is_zero(self):
        assert mad([2.0, 2.0, 2.0]) == 0.0


class TestMeasure:
    def test_sample_count_and_stat_ordering(self):
        result = measure(_spec(lambda s: sum(range(2000))), repeats=5,
                         warmup=1)
        assert len(result.samples) == 5
        assert result.min_s <= result.median_s <= result.max_s
        assert result.mad_s >= 0.0
        assert result.peak_rss_kb >= 0

    def test_warmup_runs_untimed_and_teardown_runs(self):
        calls = {"setup": 0, "run": 0, "teardown": 0}

        def setup():
            calls["setup"] += 1
            return calls

        def run(state):
            state["run"] += 1

        def teardown(state):
            state["teardown"] += 1

        result = measure(_spec(run, setup, teardown), repeats=3, warmup=2)
        assert calls == {"setup": 1, "run": 5, "teardown": 1}
        assert result.repeats == 3 and result.warmup == 2

    def test_teardown_runs_when_the_benchmark_raises(self):
        torn = []

        def run(_state):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            measure(_spec(run, teardown=lambda s: torn.append(True)),
                    repeats=1, warmup=0)
        assert torn == [True]

    def test_deterministic_clock_yields_exact_stats(self, monkeypatch):
        # Scripted perf_counter: samples come out 10ms, 20ms, 40ms.
        ticks = iter([0.0, 0.010, 1.0, 1.020, 2.0, 2.040])
        monkeypatch.setattr(time, "perf_counter", lambda: next(ticks))
        result = measure(_spec(lambda s: None), repeats=3, warmup=0)
        assert result.samples == pytest.approx([0.010, 0.020, 0.040])
        assert result.median_s == pytest.approx(0.020)
        assert result.mad_s == pytest.approx(0.010)

    def test_zero_repeats_rejected(self):
        with pytest.raises(ValueError):
            measure(_spec(lambda s: None), repeats=0)


class TestHotspots:
    def test_rows_name_the_hot_function(self):
        def busy(_state):
            return sorted(range(5000), key=lambda x: -x)

        rows = hotspots(_spec(busy), top=5)
        assert rows
        assert all(len(row) == 4 for row in rows)
        cumtimes = [cum for _calls, _tot, cum, _where in rows]
        assert cumtimes == sorted(cumtimes, reverse=True)


class TestSuiteRegistry:
    def test_names_unique_and_described(self):
        names = perf.suite_names()
        assert len(names) == len(set(names))
        for spec in perf.default_suite():
            assert spec.description and spec.group

    def test_covers_the_issue_hot_paths(self):
        names = set(perf.suite_names())
        assert {"cycle-sim", "opn-route", "cache-hierarchy", "ir-interp",
                "risc-sim", "pipeline-cold", "pipeline-warm"} <= names

    def test_only_filter_and_did_you_mean(self):
        assert [s.name for s in perf.default_suite(["cycle-sim"])] \
            == ["cycle-sim"]
        with pytest.raises(ValueError, match="cycle-sim"):
            perf.default_suite(["no-such-bench"])


class TestBenchFile:
    def test_payload_validates_and_round_trips(self, tmp_path):
        payload = _payload({"a": 0.5})
        assert perf.validate_bench(payload) == []
        path = perf.write_bench(payload, tmp_path / "BENCH_test.json")
        assert perf.load_bench(path) == payload

    def test_payload_carries_current_run_id(self):
        result = measure(_spec(lambda s: None), repeats=1, warmup=0)
        payload = perf.bench_payload([result])
        assert payload["run"]["run_id"] == runctx.current().run_id
        assert perf.validate_bench(payload) == []

    @pytest.mark.parametrize("mutate, fragment", [
        (lambda p: p.update(schema=99), "schema"),
        (lambda p: p.pop("run"), "run"),
        (lambda p: p["host"].pop("cpu_count"), "cpu_count"),
        (lambda p: p.update(results={}), "results"),
        (lambda p: p["results"]["a"].pop("median_s"), "median_s"),
        (lambda p: p["results"]["a"].update(median_s="fast"), "median_s"),
    ])
    def test_schema_violations_are_named(self, mutate, fragment):
        payload = _payload({"a": 0.5})
        mutate(payload)
        problems = perf.validate_bench(payload)
        assert problems and any(fragment in p for p in problems)

    def test_write_refuses_invalid(self, tmp_path):
        with pytest.raises(ValueError):
            perf.write_bench({"schema": 1}, tmp_path / "bad.json")

    def test_default_path_shape(self, tmp_path):
        path = perf.default_bench_path(tmp_path, when=0)
        assert path.parent == tmp_path
        assert path.name.startswith("BENCH_19700101") \
            or path.name.startswith("BENCH_1969123")  # TZ west of UTC
        assert path.suffix == ".json"


class TestCompare:
    def test_ok_within_threshold(self):
        rows = compare_payloads(_payload({"a": 1.0}), _payload({"a": 1.05}))
        assert rows[0].verdict == "ok"
        assert exit_code(rows) == EXIT_OK

    def test_warn_beyond_10_percent(self):
        rows = compare_payloads(_payload({"a": 1.0}), _payload({"a": 1.15}))
        assert rows[0].verdict == "warn"
        assert exit_code(rows) == EXIT_WARN

    def test_regression_beyond_20_percent(self):
        rows = compare_payloads(_payload({"a": 1.0}), _payload({"a": 1.30}))
        assert rows[0].verdict == "regression"
        assert exit_code(rows) == EXIT_REGRESSION

    def test_faster_is_exit_ok(self):
        rows = compare_payloads(_payload({"a": 1.0}), _payload({"a": 0.5}))
        assert rows[0].verdict == "faster"
        assert exit_code(rows) == EXIT_OK

    def test_mad_noise_band_suppresses_false_regressions(self):
        # 30% slower but MAD says the benchmark is that noisy: ok.
        rows = compare_payloads(_payload({"a": 1.0}, mad_s=0.2),
                                _payload({"a": 1.30}, mad_s=0.1))
        assert rows[0].verdict == "ok"
        assert "noise" in rows[0].note

    def test_new_and_gone_are_informational(self):
        rows = compare_payloads(_payload({"a": 1.0, "old": 1.0}),
                                _payload({"a": 1.0, "fresh": 1.0}))
        verdicts = {row.name: row.verdict for row in rows}
        assert verdicts == {"a": "ok", "fresh": "new", "old": "gone"}
        assert exit_code(rows) == EXIT_OK

    def test_worst_verdict_wins(self):
        rows = compare_payloads(
            _payload({"a": 1.0, "b": 1.0, "c": 1.0}),
            _payload({"a": 0.9, "b": 1.15, "c": 1.5}))
        assert exit_code(rows) == EXIT_REGRESSION

    def test_custom_thresholds(self):
        rows = compare_payloads(_payload({"a": 1.0}), _payload({"a": 1.3}),
                                warn_pct=50, fail_pct=100)
        assert exit_code(rows) == EXIT_OK

    def test_offenders_block_names_file_and_run_ids(self):
        """A failing comparison must be traceable without opening the
        artifacts: the offenders block names the benchmark, the BENCH
        file labels, and both run ids."""
        from repro.perf.compare import render_comparison

        rows = compare_payloads(
            _payload({"fast": 1.0, "slow": 1.0, "worse": 1.0}),
            _payload({"fast": 1.0, "slow": 1.15, "worse": 1.4}))
        rendered = render_comparison(
            rows, "BENCH_base.json", "BENCH_new.json",
            base_run_id="base-run", new_run_id="new-run")
        assert "offenders:" in rendered
        offenders = rendered.split("offenders:")[1]
        assert "slow: warn in BENCH_new.json (run new-run) " \
               "vs BENCH_base.json (run base-run)" in offenders
        assert "worse: regression in" in offenders
        assert "fast:" not in offenders

    def test_no_offenders_block_when_clean(self):
        from repro.perf.compare import render_comparison

        rows = compare_payloads(_payload({"a": 1.0}), _payload({"a": 1.0}))
        rendered = render_comparison(rows, "base.json", "new.json")
        assert "offenders:" not in rendered

    def test_offenders_survive_missing_run_ids(self):
        from repro.perf.compare import render_comparison

        rows = compare_payloads(_payload({"a": 1.0}), _payload({"a": 2.0}))
        rendered = render_comparison(rows, "base.json", "new.json")
        assert "(run ?)" in rendered


class TestPerfCli:
    def test_list_names_every_benchmark(self, capsys):
        assert main(["perf", "list"]) == 0
        out = capsys.readouterr().out
        for name in perf.suite_names():
            assert name in out

    def test_quick_run_writes_valid_bench_file(self, tmp_path, capsys):
        out_file = tmp_path / "BENCH_cli.json"
        assert main(["perf", "run", "--quick",
                     "--only", "sweep-journal,opn-route",
                     "--out", str(out_file)]) == 0
        payload = perf.load_bench(out_file)           # validates schema
        assert payload["quick"] is True
        assert set(payload["results"]) == {"sweep-journal", "opn-route"}
        assert payload["run"]["run_id"] == runctx.current().run_id
        for stats in payload["results"].values():
            assert stats["repeats"] == 3 and stats["warmup"] == 1
        assert str(out_file) in capsys.readouterr().out

    def test_run_rejects_unknown_benchmark(self, capsys):
        assert main(["perf", "run", "--only", "nope"]) == 2
        assert "unknown perf benchmark" in capsys.readouterr().err

    def test_profile_hotspots_prints_attribution(self, tmp_path, capsys):
        assert main(["perf", "run", "--quick", "--only", "opn-route",
                     "--repeats", "1", "--warmup", "0",
                     "--profile-hotspots", "3",
                     "--out", str(tmp_path / "b.json")]) == 0
        out = capsys.readouterr().out
        assert "Hotspots — opn-route" in out
        assert "opn.py" in out

    def test_compare_exit_codes_end_to_end(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(_payload({"a": 1.0})))
        for new_median, expected in ((1.02, EXIT_OK), (1.15, EXIT_WARN),
                                     (1.40, EXIT_REGRESSION)):
            new = tmp_path / "new.json"
            new.write_text(json.dumps(_payload({"a": new_median})))
            assert main(["perf", "compare", str(base), str(new)]) \
                == expected
        assert "verdict" in capsys.readouterr().out

    def test_compare_rejects_invalid_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        good = tmp_path / "good.json"
        good.write_text(json.dumps(_payload({"a": 1.0})))
        assert main(["perf", "compare", str(bad), str(good)]) == 2
        assert "not a valid BENCH file" in capsys.readouterr().err


class TestRepeatability:
    def test_repeated_runs_agree_within_reported_noise(self):
        """The acceptance bar: back-to-back medians of a deterministic
        workload agree within the harness's own noise band (generous
        multiplier — CI containers have noisy neighbours)."""
        spec = perf.default_suite(["opn-route"])[0]
        first = measure(spec, repeats=5, warmup=2)
        second = measure(spec, repeats=5, warmup=1)
        band = 10 * max(first.mad_s, second.mad_s) \
            + 0.25 * first.median_s
        assert abs(first.median_s - second.median_s) <= band

    def test_committed_baseline_is_schema_valid(self):
        from pathlib import Path
        baseline = Path(__file__).resolve().parent.parent \
            / "benchmarks" / "baseline.json"
        payload = perf.load_bench(baseline)           # validates schema
        assert set(payload["results"]) == set(perf.suite_names())
