"""Benchmark-harness plumbing.

Each benchmark module regenerates one table/figure of the paper and
records the rendered text table here; the terminal summary prints them all
so a single ``pytest benchmarks/ --benchmark-only`` run emits the full
reproduction report.

The harness runs on :func:`repro.pipeline.shared_pipeline`, which
persists simulation artifacts under ``.repro-cache/`` (disable with
``REPRO_CACHE=0``) — a second benchmark session is warm and skips the
simulations entirely.  The terminal summary ends with the pipeline
profile: per-stage hit/miss counters and wall-clock time.
"""

from __future__ import annotations

from typing import List

_TABLES: List[str] = []


def record_table(table: str) -> None:
    _TABLES.append(table)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _TABLES:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("=" * 72)
    terminalreporter.write_line("REPRODUCED TABLES AND FIGURES")
    terminalreporter.write_line("=" * 72)
    for table in _TABLES:
        terminalreporter.write_line("")
        for line in table.splitlines():
            terminalreporter.write_line(line)
    try:
        from repro.eval.report import format_table
        from repro.pipeline import shared_pipeline
    except ImportError:
        return
    telemetry = shared_pipeline().telemetry
    if not telemetry.stages:
        return
    headers, rows = telemetry.profile()
    terminalreporter.write_line("")
    for line in format_table("Pipeline profile", headers, rows,
                             "mem/disk hits vs computed misses per stage; "
                             "seconds are wall-clock.").splitlines():
        terminalreporter.write_line(line)
