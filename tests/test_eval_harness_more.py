"""Additional coverage for the evaluation harness: experiment structure,
report rendering edge cases, and shape guards on the fast ISA experiments.

Shape guards assert the *direction* of each paper claim on a small
benchmark set so regressions in the compiler or simulators that silently
flip a result are caught in the unit suite, not only in the long
benchmark run.
"""

import pytest

from repro.eval import experiment_names, format_table
from repro.eval.experiments import (
    EEMBC8, SIMPLE, SPEC_FP, SPEC_INT, fig3_block_composition,
    fig4_instruction_overhead, fig5_storage_accesses,
)
from repro.pipeline import Pipeline


class TestExperimentRegistry:
    def test_all_sixteen_experiments_registered(self):
        names = experiment_names()
        assert len(names) == 16
        for key in ("table1", "table2", "fig3", "fig4", "fig5", "sec44",
                    "fig6", "fig7", "fig8a", "fig8b", "fig9", "fig10",
                    "fig11", "fig12", "table3", "sec6"):
            assert key in names

    def test_benchmark_name_constants(self):
        assert len(SPEC_INT) == 10
        assert len(SPEC_FP) == 8
        assert len(EEMBC8) == 8
        assert len(SIMPLE) == 15
        assert set(EEMBC8) < set(SIMPLE)


class TestReportRendering:
    def test_zero_and_negative_floats(self):
        text = format_table("T", ["a"], [[0.0], [-0.123], [1234.5]])
        assert "0" in text and "-0.123" in text and "1234" in text

    def test_note_appended(self):
        text = format_table("T", ["a"], [[1]], note="the note")
        assert text.endswith("the note")

    def test_ragged_friendly_strings(self):
        text = format_table("T", ["x", "y"], [["abc", ""], ["", "d"]])
        assert "abc" in text


class TestShapeGuards:
    """Direction-of-claim regression guards (fast subset)."""

    @pytest.fixture(scope="class")
    def pipeline(self):
        return Pipeline()

    SUBSET = ("rspeed", "a2time", "conven")

    def test_block_sizes_in_paper_band(self, pipeline):
        headers, rows, _ = fig3_block_composition(
            pipeline, benchmarks=self.SUBSET, include_spec=False)
        sizes = [row[-1] for row in rows if row[0] in self.SUBSET]
        assert all(20 <= size <= 128 for size in sizes)

    def test_fetch_overhead_in_paper_band(self, pipeline):
        headers, rows, _ = fig4_instruction_overhead(
            pipeline, benchmarks=self.SUBSET, include_spec=False)
        totals = [row[-1] for row in rows if row[0] in self.SUBSET]
        assert all(1.2 <= total <= 8.0 for total in totals)

    def test_useful_close_to_powerpc(self, pipeline):
        headers, rows, _ = fig4_instruction_overhead(
            pipeline, benchmarks=self.SUBSET, include_spec=False)
        useful = [row[2] for row in rows if row[0] in self.SUBSET]
        assert all(0.5 <= u <= 1.6 for u in useful)

    def test_register_access_ratio_low(self, pipeline):
        headers, rows, _ = fig5_storage_accesses(
            pipeline, benchmarks=self.SUBSET, include_spec=False)
        ratios = [row[3] for row in rows if row[0] in self.SUBSET]
        assert all(ratio < 0.45 for ratio in ratios)

    def test_hyperblocks_reduce_predictions(self, pipeline):
        basic = pipeline.block_trace("a2time", formation="basic")
        hyper = pipeline.block_trace("a2time", formation="hyper")
        assert hyper.blocks < 0.6 * basic.blocks

    def test_window_occupancy_positive_and_bounded(self, pipeline):
        stats = pipeline.trips_cycles("rspeed").stats
        assert 16 <= stats.avg_instructions_in_window <= 1024
