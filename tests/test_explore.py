"""Design-space exploration: specs, grids, digests, engine, analysis.

Pins the contracts ``docs/SWEEP.md`` advertises:

* specs are validated in full — with did-you-mean errors — before any
  simulation (typos, bad types, out-of-domain values, bogus
  benchmarks);
* the configuration digest is total over the dataclass field set, so
  digest equality is config equality and sweeps resume from cache;
* the engine records failed points as annotated holes and a sweep's
  default point shares its cache slot with a plain ``repro run``.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.explore import (
    MAX_POINTS, SpecError, SweepSpec, expand, load_spec, parse_overrides,
    point_cost, preset_names, preset_spec, run_sweep,
)
from repro.explore.analyze import (
    aggregate_configs, load_points, pareto_frontier, sensitivity_rows,
)
from repro.explore.engine import POINT_STAGES, point_artifact
from repro.explore.grid import baseline_settings
from repro.explore.spec import parse_axis_points
from repro.pipeline.core import Pipeline
from repro.pipeline.keys import config_digest
from repro.pipeline.observe import Telemetry
from repro.robust import FaultPlan, RetryPolicy
from repro.uarch.config import TripsConfig


def _spec(**overrides):
    data = {"system": "cycles", "benchmarks": ["crc", "vadd"],
            "axes": {"max_blocks_in_flight": [1, 8]}}
    data.update(overrides)
    return SweepSpec.from_dict(data, name="t")


class TestSpecValidation:
    def test_minimal_spec_expands(self):
        spec = _spec()
        assert spec.point_count() == 4
        assert len(expand(spec)) == 4

    def test_unknown_axis_gets_suggestion(self):
        with pytest.raises(SpecError, match="max_blocks_in_flight"):
            _spec(axes={"max_blocks": [1]})

    def test_unknown_ideal_axis_names_the_two_knobs(self):
        with pytest.raises(SpecError, match="window"):
            _spec(system="ideal", axes={"windw": [256]})

    def test_unknown_benchmark_gets_suggestion(self):
        with pytest.raises(SpecError, match="did you mean 'crc'"):
            _spec(benchmarks=["crx"])

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(SpecError, match="axes"):
            _spec(axis={"max_blocks_in_flight": [1]})

    def test_wrong_value_type_rejected(self):
        with pytest.raises(SpecError, match="expected an int"):
            _spec(axes={"max_blocks_in_flight": [1, "two"]})
        with pytest.raises(SpecError, match="expected an int"):
            _spec(axes={"max_blocks_in_flight": [True]})

    def test_duplicate_axis_value_rejected(self):
        with pytest.raises(SpecError, match="duplicate"):
            _spec(axes={"max_blocks_in_flight": [4, 4]})

    def test_axis_also_fixed_rejected(self):
        with pytest.raises(SpecError, match="both 'axes' and 'fixed'"):
            _spec(fixed={"max_blocks_in_flight": 2})

    def test_suite_and_benchmarks_exclusive(self):
        with pytest.raises(SpecError, match="not both"):
            _spec(suite="kernels")

    def test_bad_system_and_variant(self):
        with pytest.raises(SpecError, match="system"):
            _spec(system="quantum")
        with pytest.raises(SpecError, match="variant"):
            _spec(variant="golden")

    def test_out_of_domain_value_names_the_point(self):
        spec = _spec(axes={"max_blocks_in_flight": [1, 0]})
        with pytest.raises(SpecError,
                           match="crc/max_blocks_in_flight=0"):
            expand(spec)

    def test_non_power_of_two_line_rejected_at_expand(self):
        spec = _spec(axes={"l1d_line_bytes": [64, 48]})
        with pytest.raises(SpecError, match="power of two"):
            expand(spec)

    def test_grid_explosion_capped(self):
        spec = _spec(system="ideal",
                     benchmarks=["crc"],
                     axes={"window": list(range(1, MAX_POINTS + 2))})
        with pytest.raises(SpecError, match="restrict an axis"):
            expand(spec)

    def test_with_benchmarks_rejects_strangers(self):
        with pytest.raises(SpecError, match="matrix"):
            _spec().with_benchmarks(["matrix"])

    def test_points_override_replaces_and_adds(self):
        spec = _spec().with_axes(
            parse_axis_points(["max_blocks_in_flight=2",
                               "ras_entries=4,16"], "cycles"))
        assert spec.axis_values("max_blocks_in_flight") == (2,)
        assert spec.axis_values("ras_entries") == (4, 16)
        assert spec.point_count() == 2 * 1 * 2

    def test_baseline_prefers_machine_default(self):
        assert _spec().baseline_value("max_blocks_in_flight") == \
            TripsConfig().max_blocks_in_flight
        spec = _spec(axes={"max_blocks_in_flight": [2, 4]})
        assert spec.baseline_value("max_blocks_in_flight") == 2


class TestOverrideParsing:
    def test_round_trip(self):
        got = parse_overrides(["max_blocks_in_flight=2,ras_entries=8"])
        assert got == {"max_blocks_in_flight": 2, "ras_entries": 8}

    def test_ideal_domain(self):
        got = parse_overrides(["window=256,dispatch_cost=0"], "ideal")
        assert got == {"window": 256, "dispatch_cost": 0}
        with pytest.raises(SpecError, match="two knobs"):
            parse_overrides(["max_blocks_in_flight=2"], "ideal")

    def test_malformed_and_duplicates(self):
        with pytest.raises(SpecError, match="KEY=VALUE"):
            parse_overrides(["max_blocks_in_flight"])
        with pytest.raises(SpecError, match="duplicate"):
            parse_overrides(["ras_entries=4", "ras_entries=8"])

    def test_bool_fields_parse_spellings(self):
        assert parse_overrides(["predicate_prediction=off"]) == \
            {"predicate_prediction": False}
        assert parse_overrides(["predicate_prediction=true"]) == \
            {"predicate_prediction": True}


class TestSpecFiles:
    def test_json_spec(self, tmp_path):
        path = tmp_path / "win.json"
        path.write_text(json.dumps({
            "system": "ideal", "benchmarks": ["crc"],
            "axes": {"window": [256, 1024]}}))
        spec = load_spec(path)
        assert spec.name == "win"
        assert spec.point_count() == 2

    def test_toml_spec(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "depth.toml"
        path.write_text('system = "cycles"\nbenchmarks = ["crc"]\n'
                        '[axes]\nmax_blocks_in_flight = [1, 2]\n')
        assert load_spec(path).point_count() == 2

    def test_missing_and_invalid_files(self, tmp_path):
        with pytest.raises(SpecError, match="does not exist"):
            load_spec(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        with pytest.raises(SpecError, match="invalid JSON"):
            load_spec(bad)


class TestPresets:
    def test_all_presets_expand_clean(self):
        for name in preset_names():
            spec = preset_spec(name)
            points = expand(spec)
            assert len(points) == spec.point_count()

    def test_smoke_preset_is_four_points(self):
        assert preset_spec("smoke").point_count() == 4

    def test_unknown_preset_suggests(self):
        with pytest.raises(SpecError, match="smoke"):
            preset_spec("smoke-test")

    def test_every_axis_moves_one_of_its_programs(self, monkeypatch):
        # An axis that changes no program's cycles spends its points
        # measuring nothing.  Each axis is varied alone from the
        # sensitivity baseline, the prototype (so the component
        # defaults are pinned); the first program that moves passes it.
        monkeypatch.delenv("REPRO_UARCH_COMPONENTS", raising=False)
        pipeline = Pipeline()

        def cycles(spec, benchmark, settings):
            artifact = point_artifact(pipeline, {
                "system": spec.system, "benchmark": benchmark,
                "variant": spec.variant, "settings": settings})
            return getattr(artifact, "stats", artifact).cycles

        still = []
        for name in preset_names():
            spec = preset_spec(name)
            baseline = dict(baseline_settings(spec))
            for axis in spec.axis_names:
                moved = any(
                    cycles(spec, benchmark, {**baseline, axis: value})
                    != cycles(spec, benchmark, baseline)
                    for value in spec.axis_values(axis)
                    if value != baseline[axis]
                    for benchmark in spec.benchmarks)
                if not moved:
                    still.append(f"{name}/{axis}")
        assert still == []


class TestGridExpansion:
    def test_labels_stable_and_unique(self):
        points = expand(_spec())
        labels = [p.label for p in points]
        assert labels == ["crc/max_blocks_in_flight=1",
                          "crc/max_blocks_in_flight=8",
                          "vadd/max_blocks_in_flight=1",
                          "vadd/max_blocks_in_flight=8"]
        assert [p.index for p in points] == [0, 1, 2, 3]

    def test_fixed_settings_reach_every_point(self):
        spec = _spec(fixed={"ras_entries": 4})
        for point in expand(spec):
            assert point.settings_dict["ras_entries"] == 4

    def test_baseline_settings_cover_all_axes(self):
        spec = _spec(axes={"max_blocks_in_flight": [1, 8],
                           "ras_entries": [4, 16]})
        assert dict(baseline_settings(spec)) == {
            "max_blocks_in_flight": 8,          # the machine default
            "ras_entries": 4}                   # default 4 is in the list


# -- configuration digests (cache identity) ---------------------------------

_DIGEST_FIELDS = st.fixed_dictionaries({
    "max_blocks_in_flight": st.integers(1, 8),
    "ras_entries": st.integers(1, 64),
    "predicate_prediction": st.booleans(),
})


class TestConfigDigest:
    @settings(max_examples=50, deadline=None)
    @given(a=_DIGEST_FIELDS, b=_DIGEST_FIELDS)
    def test_digest_equality_is_config_equality(self, a, b):
        da = config_digest(TripsConfig(**a))
        db = config_digest(TripsConfig(**b))
        assert (da == db) == (TripsConfig(**a) == TripsConfig(**b))

    def test_default_none_and_explicit_default_share_a_slot(self):
        assert config_digest(None, TripsConfig) == \
            config_digest(TripsConfig())

    def test_adding_a_field_changes_the_digest(self):
        base = dataclasses.make_dataclass(
            "Cfg", [("a", int, dataclasses.field(default=1))])
        grown = dataclasses.make_dataclass(
            "Cfg", [("a", int, dataclasses.field(default=1)),
                    ("b", int, dataclasses.field(default=0))])
        assert config_digest(base()) != config_digest(grown())
        assert config_digest(None, base) != config_digest(None, grown)

    def test_factoryless_none_keeps_legacy_key(self):
        assert config_digest(None) == "default"


# -- the execution engine ---------------------------------------------------

def _no_sleep(_seconds):
    return None


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A cache directory pre-warmed with the 2-point crc smoke sweep."""
    cache = tmp_path_factory.mktemp("explore-cache")
    out = tmp_path_factory.mktemp("explore-out")
    spec = preset_spec("smoke").with_benchmarks(["crc"])
    result = run_sweep(spec, cache_dir=cache, out_dir=out,
                       sleep=_no_sleep)
    return cache, out, spec, result


class TestEngine:
    def test_cold_sweep_simulates_every_point(self, warm_cache):
        _cache, out, _spec, result = warm_cache
        assert result.ok
        assert len(result.records) == 2
        assert result.simulated == 2 and result.reused == 0
        for name in ("points.jsonl", "frontier.csv", "sensitivity.csv",
                     "report.json", "summary.md", "spec.json"):
            assert (out / name).stat().st_size > 0
        assert "2 ok, 0 holes" in result.summary_line()

    def test_warm_rerun_simulates_nothing(self, warm_cache, tmp_path):
        cache, _out, spec, _result = warm_cache
        telemetry = Telemetry()
        result = run_sweep(spec, cache_dir=cache, out_dir=tmp_path,
                           telemetry=telemetry, sleep=_no_sleep)
        assert result.ok
        assert result.simulated == 0
        assert result.reused == 2
        assert "simulations: 0 computed" in result.summary_line()

    def test_editing_one_axis_only_simulates_new_points(self, warm_cache,
                                                        tmp_path):
        cache, _out, spec, _result = warm_cache
        widened = spec.with_axes({"max_blocks_in_flight": [1, 4, 8]})
        result = run_sweep(widened, cache_dir=cache, out_dir=tmp_path,
                           telemetry=Telemetry(), sleep=_no_sleep)
        assert result.ok
        assert result.simulated == 1          # only max_blocks_in_flight=4
        assert result.reused == 2

    def test_default_point_shares_cache_with_plain_run(self, warm_cache):
        """A sweep's default-config point and ``repro run`` must be one
        artifact: same key, byte-identical stats."""
        cache, _out, _spec, result = warm_cache
        default_blocks = TripsConfig().max_blocks_in_flight
        record = next(r for r in result.records
                      if r["settings"] == {
                          "max_blocks_in_flight": default_blocks})
        pipeline = Pipeline(cache_dir=cache)
        artifact = pipeline.trips_cycles("crc")          # config=None
        assert pipeline.telemetry.computes(POINT_STAGES) == 0
        assert record["metrics"]["ipc"] == artifact.stats.ipc
        assert record["metrics"]["cycles"] == artifact.stats.cycles

    def test_requires_a_cache(self, tmp_path):
        with pytest.raises(ValueError, match="cache"):
            run_sweep(_spec(), cache_dir=None, out_dir=tmp_path)

    def test_permanent_fault_becomes_annotated_hole(self, warm_cache,
                                                    tmp_path):
        _cache, _out, _spec, _result = warm_cache
        spec = preset_spec("smoke").with_benchmarks(["crc"])
        label = "crc/max_blocks_in_flight=1"
        faults = FaultPlan.parse(f"flaky-stage:{label}:9", seed=0)
        result = run_sweep(
            spec, cache_dir=tmp_path / "cache", out_dir=tmp_path / "out",
            policy=RetryPolicy(max_attempts=2), faults=faults,
            sleep=_no_sleep)
        assert not result.ok
        assert [r["label"] for r in result.holes] == [label]
        hole = result.holes[0]
        assert hole["metrics"] is None and "InjectedFault" in hole["error"]
        healthy = [r for r in result.records if r["status"] == "ok"]
        assert len(healthy) == 1              # the other point completed
        assert any("hole" in note for note in result.report.annotations)
        points = load_points(tmp_path / "out")
        assert sum(1 for r in points if r["status"] == "failed") == 1

    def test_in_process_sweep_lowers_each_program_once(self, tmp_path):
        """``jobs=1`` runs every point on one pipeline: the compiler
        front end runs once per program, not once per point."""
        telemetry = Telemetry()
        result = run_sweep(preset_spec("smoke"), cache_dir=tmp_path / "cache",
                           out_dir=tmp_path / "out", jobs=1,
                           telemetry=telemetry, sleep=_no_sleep)
        assert result.ok and result.simulated == 4
        assert telemetry.counters("trips-lowering").computes == 2

    def test_corrupt_cache_fault_applies_in_process(self, tmp_path):
        """A ``corrupt-cache-entry`` fault fires on the attempt's store
        write on the sweep pipeline too: the next load quarantines it."""
        from repro.explore.engine import point_artifact
        spec = preset_spec("smoke").with_benchmarks(["crc"]) \
            .with_axes({"max_blocks_in_flight": [1]})
        faults = FaultPlan.parse("corrupt-cache-entry:trips-cycles:1")
        cache = tmp_path / "cache"
        result = run_sweep(spec, cache_dir=cache, out_dir=tmp_path / "out",
                           jobs=1, faults=faults, sleep=_no_sleep)
        assert result.ok
        reader = Pipeline(cache_dir=cache)
        point_artifact(reader, result.records[0])
        assert reader.telemetry.counters("trips-cycles").corrupt_entries == 1

    def test_killed_worker_is_retried_to_success(self, tmp_path):
        spec = preset_spec("smoke").with_benchmarks(["crc"]) \
            .with_axes({"max_blocks_in_flight": [1]})
        label = "crc/max_blocks_in_flight=1"
        faults = FaultPlan.parse(f"kill-worker:{label}:1", seed=0)
        result = run_sweep(
            spec, cache_dir=tmp_path / "cache", out_dir=tmp_path / "out",
            jobs=2, faults=faults, sleep=_no_sleep)
        assert result.ok
        assert result.report.units[label].attempts >= 2


# -- analysis ---------------------------------------------------------------

def _record(bench, settings, ipc, status="ok"):
    return {"label": f"{bench}/x", "benchmark": bench, "system": "cycles",
            "variant": "compiled", "settings": settings, "status": status,
            "error": None if status == "ok" else "boom",
            "metrics": {"ipc": ipc} if status == "ok" else None}


class TestAnalysis:
    def test_aggregate_geomeans_across_benchmarks(self):
        rows = aggregate_configs([
            _record("a", {"max_blocks_in_flight": 1}, 1.0),
            _record("b", {"max_blocks_in_flight": 1}, 4.0)])
        assert len(rows) == 1
        assert rows[0]["ipc_geomean"] == pytest.approx(2.0)
        assert rows[0]["benchmarks"] == 2 and rows[0]["holes"] == 0

    def test_holes_counted_not_hidden(self):
        rows = aggregate_configs([
            _record("a", {"max_blocks_in_flight": 1}, 1.5),
            _record("b", {"max_blocks_in_flight": 1}, 0.0, "failed")])
        assert rows[0]["holes"] == 1
        assert rows[0]["ipc_geomean"] == pytest.approx(1.5)

    def test_frontier_marks_dominating_rows(self):
        rows = pareto_frontier(aggregate_configs([
            _record("a", {"max_blocks_in_flight": 1}, 0.5),
            _record("a", {"max_blocks_in_flight": 2}, 0.4),   # dominated
            _record("a", {"max_blocks_in_flight": 8}, 1.2)]))
        marks = {tuple(sorted(r["settings"].items())): r["on_frontier"]
                 for r in rows}
        assert marks[(("max_blocks_in_flight", 1),)] is True
        assert marks[(("max_blocks_in_flight", 2),)] is False
        assert marks[(("max_blocks_in_flight", 8),)] is True

    def test_cost_proxy_scales_with_window_and_grid(self):
        # Pin the topology: the default is REPRO_UARCH_COMPONENTS-sensitive.
        mesh = {"opn_topology": "mesh"}
        small = point_cost("cycles", {"max_blocks_in_flight": 1, **mesh})
        deep = point_cost("cycles", {"max_blocks_in_flight": 8, **mesh})
        assert deep["cost"] == 8 * small["cost"]
        assert deep["opn_links"] == small["opn_links"] == 80   # 5x5 mesh
        assert point_cost("ideal", {"window": 4096})["cost"] == 4096

    def test_sensitivity_rows_hold_others_at_baseline(self):
        spec = _spec(benchmarks=["crc"],
                     axes={"max_blocks_in_flight": [1, 8],
                           "ras_entries": [4, 16]})
        records = []
        for blocks in (1, 8):
            for ras in (4, 16):
                ipc = 0.5 * blocks + 0.01 * ras
                records.append(_record("crc", {
                    "max_blocks_in_flight": blocks,
                    "ras_entries": ras}, ipc))
        rows = sensitivity_rows(spec, records)
        by_axis = {}
        for row in rows:
            by_axis.setdefault(row["axis"], []).append(row)
        # Baseline is (blocks=8, ras=4): both machine defaults are in
        # the swept lists.  Varying blocks keeps ras at 4.
        blocks_rows = {r["value"]: r for r in
                       by_axis["max_blocks_in_flight"]}
        assert blocks_rows[1]["ipc_geomean"] == pytest.approx(0.54)
        assert blocks_rows[8]["baseline"] is True
        assert blocks_rows[8]["delta_ipc"] == pytest.approx(0.0)
        assert blocks_rows[1]["delta_ipc"] == pytest.approx(0.54 - 4.04)
