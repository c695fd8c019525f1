"""Experiment drivers regenerating every table and figure of the paper."""

from repro.eval.experiments import (
    EEMBC8, SIMPLE, SPEC_FP, SPEC_INT, experiment_names, fig3_block_composition,
    fig4_instruction_overhead, fig5_storage_accesses, fig6_window_occupancy,
    fig7_prediction, fig8_bandwidth, fig8_opn_profile, fig9_ipc,
    fig10_ideal_ilp, fig11_simple_speedup, fig12_spec_speedup,
    run_experiment, sec6_matmul_fpc, sec44_code_size, table1_platforms,
    table2_suites, table3_counters,
)
from repro.eval.report import arithmean, format_table, geomean
from repro.pipeline import ChecksumMismatch, Pipeline


class Runner(Pipeline):
    """Kept for the end-to-end benchmark (``e2e/``) alone, which builds
    ``Runner(cache_dir=...)`` and reads ``runner.pipeline``; everything
    else uses :class:`~repro.pipeline.Pipeline` directly."""

    @property
    def pipeline(self) -> Pipeline:
        return self


__all__ = [
    "ChecksumMismatch",
    "EEMBC8",
    "SIMPLE",
    "SPEC_FP",
    "SPEC_INT",
    "arithmean",
    "experiment_names",
    "fig10_ideal_ilp",
    "fig11_simple_speedup",
    "fig12_spec_speedup",
    "fig3_block_composition",
    "fig4_instruction_overhead",
    "fig5_storage_accesses",
    "fig6_window_occupancy",
    "fig7_prediction",
    "fig8_bandwidth",
    "fig8_opn_profile",
    "fig9_ipc",
    "format_table",
    "geomean",
    "run_experiment",
    "sec44_code_size",
    "sec6_matmul_fpc",
    "table1_platforms",
    "table2_suites",
    "table3_counters",
]
