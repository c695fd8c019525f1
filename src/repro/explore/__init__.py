"""Design-space exploration (``repro sweep`` / ``repro frontier``).

Section 5 of the TRIPS paper is a design-space study: speculation
depth, window size, predictor budgets, and network latency are varied
to explain where the prototype loses ILP, and the ideal-machine study
(Figure 10) is a grid over (window, dispatch cost).  This package is
the subsystem that runs such studies wholesale:

* :mod:`repro.explore.spec` — declarative sweep specs (JSON/TOML files
  or named presets) with structural validation and did-you-mean
  errors; also the shared ``KEY=VALUE`` override parser behind
  ``repro run --config``.
* :mod:`repro.explore.grid` — cartesian expansion into validated
  :class:`DesignPoint`\\ s with stable labels.
* :mod:`repro.explore.presets` — paper-grounded presets
  (``speculation-depth``, ``ideal-ilp``, ``predictor-budget``,
  ``smoke``).
* :mod:`repro.explore.engine` — supervised, content-addressed
  execution (in process on one shared pipeline, or over a process pool
  with ``--jobs N``): per-point caching via :mod:`repro.pipeline`,
  crash/hang recovery via :mod:`repro.robust`, failed points recorded
  as holes.
* :mod:`repro.explore.analyze` — per-axis sensitivity, Pareto
  frontiers over (IPC, cost), CSV/JSONL artifacts, markdown summary.
* :mod:`repro.explore.journal` — the append-only, fsync'd sweep
  journal behind ``repro sweep --resume``: a killed driver loses no
  terminal outcome.
* :mod:`repro.explore.pack` — attested repro packs (``pack.json``)
  verified end-to-end by ``repro pack verify``.

See ``docs/SWEEP.md`` for the spec schema and worked examples, and
``docs/ROBUSTNESS.md`` for the journal and pack protocols.
"""

from repro.explore.analyze import (
    aggregate_configs, load_points, pareto_frontier, point_cost,
    sensitivity_rows, write_artifacts,
)
from repro.explore.engine import SweepResult, run_sweep, warm_point
from repro.explore.grid import DesignPoint, MAX_POINTS, expand
from repro.explore.journal import (
    JOURNAL_FILE, JournalError, JournalState, SweepJournal, read_journal,
    records_equal, spec_fingerprint,
)
from repro.explore.pack import (
    PACK_FILE, PackError, build_manifest, verify_pack, write_pack,
)
from repro.explore.presets import PRESETS, preset_names, preset_spec
from repro.explore.spec import (
    IDEAL_AXES, SpecError, SweepSpec, load_spec, parse_overrides,
    validate_settings,
)

__all__ = [
    "DesignPoint",
    "IDEAL_AXES",
    "JOURNAL_FILE",
    "JournalError",
    "JournalState",
    "MAX_POINTS",
    "PACK_FILE",
    "PRESETS",
    "PackError",
    "SpecError",
    "SweepJournal",
    "SweepResult",
    "SweepSpec",
    "aggregate_configs",
    "build_manifest",
    "expand",
    "load_points",
    "load_spec",
    "pareto_frontier",
    "parse_overrides",
    "point_cost",
    "preset_names",
    "preset_spec",
    "read_journal",
    "records_equal",
    "run_sweep",
    "sensitivity_rows",
    "spec_fingerprint",
    "validate_settings",
    "verify_pack",
    "warm_point",
    "write_artifacts",
    "write_pack",
]
