"""Host-performance benchmark harness (``repro perf``).

The repository measures *simulated* performance everywhere — cycle
counts, IPC, OPN hops — but until this package nothing measured how
fast the simulators themselves run on the host, so "make a hot path
measurably faster" had no measurement to point at.  ``repro.perf``
applies the paper's own discipline (Section 5: sustained throughput
against known limits, reported with its noise) to the reproduction's
hot paths:

* :mod:`repro.perf.harness` — calibrated repetition (warmup + N timed
  repeats via ``time.perf_counter``), median/MAD statistics, peak-RSS
  sampling, and optional ``cProfile`` hot-spot attribution;
* :mod:`repro.perf.suite` — the benchmark registry: cycle simulator,
  operand network, cache hierarchy, IR interpreter, RISC simulator,
  pipeline stage compute (cold and warm), and trace-log emission;
* :mod:`repro.perf.benchfile` — the schema-versioned ``BENCH_*.json``
  result files (host fingerprint + :class:`repro.runctx.RunContext`
  stamp + per-benchmark statistics);
* :mod:`repro.perf.compare` — threshold-based regression verdicts
  between two BENCH files, and the round rule that judges a change from
  alternating rounds of the parent and the change (the committed
  ``benchmarks/baseline.json`` only guards against catastrophic
  regressions), with distinct exit codes for ok/warn/regression.

``docs/PERF.md`` is the usage and schema reference.
"""

from repro.perf.benchfile import (
    BENCH_SCHEMA_VERSION, bench_payload, default_bench_path,
    host_fingerprint, load_bench, validate_bench, write_bench,
)
from repro.perf.compare import (
    EXIT_OK, EXIT_REGRESSION, EXIT_WARN, CompareRow, compare_payloads,
    compare_rounds, exit_code, render_comparison,
)
from repro.perf.harness import BenchResult, BenchSpec, hotspots, mad, \
    measure, median
from repro.perf.suite import default_suite, suite_names

__all__ = [
    "BENCH_SCHEMA_VERSION", "BenchResult", "BenchSpec", "CompareRow",
    "EXIT_OK", "EXIT_REGRESSION", "EXIT_WARN", "bench_payload",
    "compare_payloads", "compare_rounds", "default_bench_path",
    "default_suite", "exit_code", "hotspots", "host_fingerprint",
    "load_bench", "mad", "measure", "median", "render_comparison",
    "suite_names", "validate_bench", "write_bench",
]
