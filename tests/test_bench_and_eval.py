"""Benchmark registry and evaluation harness tests."""

import pytest

from repro.bench import all_benchmarks, by_suite, get, simple_benchmarks
from repro.eval import (
    format_table, geomean, run_experiment, table1_platforms,
    table2_suites,
)
from repro.pipeline import ChecksumMismatch, Pipeline
from repro.ir import run_module, verify_module


class TestRegistry:
    def test_suite_counts_match_paper(self):
        assert len(by_suite("kernels")) == 4
        assert len(by_suite("versabench")) == 3
        assert len(by_suite("spec_int")) == 10
        assert len(by_suite("spec_fp")) == 8
        assert len(by_suite("eembc")) >= 8

    def test_simple_benchmarks_are_fifteen(self):
        assert len(simple_benchmarks()) == 15

    def test_unique_names(self):
        names = [b.name for b in all_benchmarks()]
        assert len(names) == len(set(names))

    def test_every_module_verifies(self):
        for bench in all_benchmarks():
            verify_module(bench.module())

    def test_modules_deterministic(self):
        a = run_module(get("fft").module())[0]
        b = run_module(get("fft").module())[0]
        assert a == b

    def test_hand_variants_only_for_simple(self):
        for bench in by_suite("spec_int") + by_suite("spec_fp"):
            assert not bench.has_hand


class TestRunner:
    def test_memoizes_modules(self):
        pipeline = Pipeline()
        assert pipeline.module("vadd") is pipeline.module("vadd")

    def test_expected_checksum(self):
        pipeline = Pipeline()
        assert pipeline.expected("crc") == run_module(get("crc").module())[0]

    def test_powerpc_stats(self):
        pipeline = Pipeline()
        stats = pipeline.powerpc("rspeed")
        assert stats.executed > 0

    def test_functional_stats_cached(self):
        pipeline = Pipeline()
        first = pipeline.trips_functional("rspeed")
        second = pipeline.trips_functional("rspeed")
        assert first is second

    def test_checksum_guard_raises(self):
        pipeline = Pipeline()
        pipeline._expected["rspeed"] = -12345  # sabotage the golden value
        with pytest.raises(ChecksumMismatch):
            pipeline.trips_functional("rspeed")


class TestReport:
    def test_format_table_alignment(self):
        text = format_table("T", ["a", "bb"], [[1, 2.5], ["xx", 0.001]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]

    def test_geomean(self):
        assert abs(geomean([2.0, 8.0]) - 4.0) < 1e-9
        assert geomean([]) == 0.0
        assert geomean([0.0, -3.0]) == 0.0


class TestStaticExperiments:
    def test_table1(self):
        headers, rows, note = table1_platforms()
        assert rows[0][0] == "TRIPS"
        assert len(rows) == 4

    def test_table2(self):
        headers, rows, note = table2_suites()
        assert sum(r[1] for r in rows) == len(all_benchmarks())

    def test_render(self):
        text = run_experiment("table1")
        assert "TRIPS" in text and "Core 2" in text


class TestIsaExperimentsOnSubset:
    """Fast checks of the paper-shape claims on a tiny benchmark subset."""

    @pytest.fixture(scope="class")
    def pipeline(self):
        return Pipeline()

    def test_fig4_overhead_direction(self, pipeline):
        # TRIPS fetches more total instructions than PowerPC executes, but
        # useful counts are comparable (paper Section 4.2).
        trips = pipeline.trips_functional("a2time")
        ppc = pipeline.powerpc("a2time")
        assert trips.fetched > ppc.executed
        assert trips.useful < 2.0 * ppc.executed

    def test_fig5_fewer_memory_accesses(self, pipeline):
        trips = pipeline.trips_functional("fft")
        ppc = pipeline.powerpc("fft")
        trips_mem = trips.loads_executed + trips.stores_committed
        ppc_mem = ppc.loads + ppc.stores
        assert trips_mem <= ppc_mem

    def test_fig5_fewer_register_accesses(self, pipeline):
        trips = pipeline.trips_functional("conv")
        ppc = pipeline.powerpc("conv")
        trips_reg = trips.reads_fetched + trips.writes_committed
        ppc_reg = ppc.register_reads + ppc.register_writes
        assert trips_reg < 0.6 * ppc_reg  # paper: 10-20%

    def test_code_size_expands(self, pipeline):
        from repro.isa import static_code_size
        from repro.opt import optimize
        from repro.risc import lower_module as lower_risc
        lowered = pipeline.trips_lowered("rspeed")
        report = static_code_size(lowered.program)
        risc = lower_risc(optimize(pipeline.module("rspeed"), "O2"))
        assert report.static_bytes_raw > risc.code_bytes()
        assert report.static_bytes_compressed < report.static_bytes_raw
