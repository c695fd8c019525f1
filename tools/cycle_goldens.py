#!/usr/bin/env python
"""Golden tables of the timing models: record them, or check against them.

The tool keeps two tables.  The **cycle table** pins the cycle
simulator.  Every suite program, compiled at O2 with hyperblock
formation, runs on it under six configurations (:data:`CONFIGS`).  One
entry per (program, configuration) records:

* the program's return value;
* every :class:`~repro.uarch.core.CycleStats` field;
* the operand network's ``packets``, ``hops``, ``hop_histogram`` and
  ``queue_cycles``;
* for the :data:`TRACED` programs, a SHA-256 of the microarchitectural
  event stream a :class:`~repro.trace.CollectingTracer` collects.

The committed table, ``tests/data/cycle_goldens.json``, is the
equivalence contract of the execution kernel: any change that moves a
single cycle, counter or trace event shows up as a mismatch.

The **model table**, ``tests/data/model_goldens.json``, pins the other
models the figures read.  Per suite program it records, through a
memory-only :class:`~repro.pipeline.Pipeline`:

* for each TRIPS variant (:data:`VARIANTS`): every
  :class:`~repro.trips.functional.TripsStats` field, a SHA-256 of the
  hyperblock and basic-block traces, and the
  :class:`~repro.uarch.ideal.IdealStats` of Figure 10's three
  ideal-machine points (:data:`IDEAL_POINTS`);
* for the ``ideal-ilp`` sweep preset's programs, the ideal machine over
  that preset's whole grid;
* at O2 and at ICC (:data:`LEVELS`): the PowerPC
  :class:`~repro.risc.RiscStats` and the
  :class:`~repro.refmodels.SuperscalarStats` of every reference
  platform (:data:`PLATFORM_KEYS`).

Tier-1 checks the traced programs of both tables
(``tests/test_kernels_batched.py``, ``tests/test_model_goldens.py``);
the CI ``goldens`` job checks both whole tables::

    PYTHONPATH=src python tools/cycle_goldens.py --jobs 2
    PYTHONPATH=src python tools/cycle_goldens.py --programs rspeed,crc
    PYTHONPATH=src python tools/cycle_goldens.py --write --jobs 2

Without ``--write`` the tool checks both tables and exits 1 on any
mismatch, with one line per differing entry.  ``--write`` regenerates
both; do that only for an intentional timing change, and say so in the
commit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import re
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent
GOLDEN_FILE = REPO / "tests" / "data" / "cycle_goldens.json"
MODEL_FILE = REPO / "tests" / "data" / "model_goldens.json"

#: The two tables, in checking order.
TABLES = ("cycles", "models")

#: Component selections pinned explicitly, so a ``REPRO_UARCH_COMPONENTS``
#: override (the CI matrix leg) cannot change what "default" means.
BASE = {"opn_topology": "mesh", "predictor_kind": "tournament",
        "memory_kind": "trips"}

#: Configuration name -> overrides on top of :data:`BASE`.
CONFIGS: Dict[str, Dict[str, object]] = {
    "default": {},
    "torus": {"opn_topology": "torus"},
    "dwmesh": {"opn_topology": "dwmesh"},
    "gshare": {"predictor_kind": "gshare"},
    "perfect-l1": {"memory_kind": "perfect-l1"},
    "predpred": {"predicate_prediction": True},
}

#: Programs whose entries also carry a trace-stream digest (each runs in
#: well under a second, so tier-1 checks all of them).
TRACED = ("rspeed", "bitmnp", "crc", "canrdr", "a2time", "vadd")


def lower(program: str):
    """The program at O2 with hyperblock formation."""
    from repro.bench import get
    from repro.opt import optimize
    from repro.trips import lower_module
    return lower_module(optimize(get(program).module(), "O2"),
                        formation="hyper")


def config(name: str):
    """The :class:`TripsConfig` of one named golden configuration."""
    from repro.uarch import TripsConfig
    return TripsConfig(**{**BASE, **CONFIGS[name]})


def trace_digest(events) -> str:
    """SHA-256 over the event stream: one canonical JSON line per event,
    in emission order."""
    digest = hashlib.sha256()
    for event in events:
        digest.update(json.dumps([event.kind, event.cycle, event.data],
                                 sort_keys=True).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def entry(lowered, program: str, config_name: str) -> Dict[str, object]:
    """Run one (program, configuration) and return its golden entry, in
    the JSON shape the golden file stores."""
    from dataclasses import asdict

    from repro.trace import CollectingTracer
    from repro.uarch import CycleSimulator

    sim = CycleSimulator(lowered, config(config_name))
    result = sim.run()
    opn = sim.opn.stats
    record: Dict[str, object] = {
        "result": result,
        "stats": asdict(sim.stats),
        "opn": {
            "packets": dict(sorted(opn.packets.items())),
            "hops": dict(sorted(opn.hops.items())),
            "hop_histogram": {f"{klass}/{hops}": count for (klass, hops),
                              count in sorted(opn.hop_histogram.items())},
            "queue_cycles": opn.queue_cycles,
        },
    }
    if program in TRACED:
        tracer = CollectingTracer()
        CycleSimulator(lowered, config(config_name), tracer=tracer).run()
        record["trace_sha256"] = trace_digest(tracer.events)
    # Round-trip through JSON so a fresh entry compares equal to a
    # stored one (tuples become lists, and so on).
    return json.loads(json.dumps(record))


def program_entries(program: str) -> Tuple[str, Dict[str, object], float]:
    """Every configuration's entry for one program, plus the seconds
    spent simulating (compilation excluded)."""
    lowered = lower(program)
    started = time.perf_counter()
    entries = {name: entry(lowered, program, name) for name in CONFIGS}
    return program, entries, time.perf_counter() - started


# -- the model table ----------------------------------------------------------

#: TRIPS variants, each at its optimization level (``VARIANT_LEVEL``).
VARIANTS = ("compiled", "hand")

#: Figure 10's ideal-machine points: ``(window, dispatch cost)``.
IDEAL_POINTS = ((1024, 8), (1024, 0), (131072, 0))

#: RISC optimization levels: gcc-like and icc-like.
LEVELS = ("O2", "ICC")

#: Reference platforms timed at each level.
PLATFORM_KEYS = ("core2", "p4", "p3")


def ilp_grid() -> Tuple[Tuple[str, ...], List[Tuple[int, int]]]:
    """The ``ideal-ilp`` preset: its programs and its (window, dispatch
    cost) points."""
    from repro.explore.presets import PRESETS
    preset = PRESETS["ideal-ilp"]
    axes = preset["axes"]
    return tuple(preset["benchmarks"]), [
        (window, cost) for window in axes["window"]
        for cost in axes["dispatch_cost"]]


def plain(stats) -> Dict[str, object]:
    """A statistics dataclass as JSON-ready fields (sets sorted)."""
    from dataclasses import fields
    out: Dict[str, object] = {}
    for field in fields(stats):
        value = getattr(stats, field.name)
        out[field.name] = sorted(value) if isinstance(value, set) \
            else value
    return out


def block_trace_digest(summary) -> str:
    """SHA-256 over a block trace: one JSON line per committed block."""
    digest = hashlib.sha256()
    for event in summary.events:
        digest.update(json.dumps(list(event)).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def ideal_points(pipeline, program: str, variant: str,
                 points) -> Dict[str, object]:
    return {f"{window}/{cost}": plain(pipeline.ideal(program, variant,
                                                     window, cost))
            for window, cost in points}


def model_entry(program: str) -> Dict[str, object]:
    """Every model's statistics for one program, in the JSON shape the
    model table stores."""
    from repro.pipeline import Pipeline

    pipeline = Pipeline()
    record: Dict[str, object] = {}
    for variant in VARIANTS:
        record[variant] = {
            "trips": plain(pipeline.trips_functional(program, variant)),
            "block_trace_sha256": {
                formation: block_trace_digest(
                    pipeline.block_trace(program, variant, formation))
                for formation in ("hyper", "basic")},
            "ideal": ideal_points(pipeline, program, variant,
                                  IDEAL_POINTS),
        }
    ilp_programs, grid = ilp_grid()
    if program in ilp_programs:
        record["ideal-ilp"] = ideal_points(pipeline, program, "compiled",
                                           grid)
    for level in LEVELS:
        record[level] = {"risc": plain(pipeline.powerpc(program, level))}
        for key in PLATFORM_KEYS:
            record[level][key] = plain(pipeline.platform(program, key,
                                                         level))
    return json.loads(json.dumps(record))


def model_differences(expected: Dict[str, object],
                      actual: Dict[str, object]) -> List[str]:
    """Paths (``ideal.1024/8``, ``core2``) of the statistics records
    that differ between two sections of a model entry.  A dict whose
    values are all dicts is a section and is descended into; anything
    else is one record."""
    names = []
    for key in sorted(set(expected) | set(actual)):
        want, got = expected.get(key), actual.get(key)
        if want == got:
            continue
        if isinstance(want, dict) and isinstance(got, dict) \
                and all(isinstance(v, dict) for v in want.values()):
            names.extend(f"{key}.{path}"
                         for path in model_differences(want, got))
        else:
            names.append(key)
    return names


# -- both tables ----------------------------------------------------------------

def load(path: Path = GOLDEN_FILE) -> Dict[str, Dict[str, object]]:
    """A stored table: program -> configuration (or model) -> entry."""
    return json.loads(path.read_text())["entries"]


def differences(expected: Dict[str, object],
                actual: Dict[str, object]) -> List[str]:
    """Names of the top-level fields (``stats.<field>`` for counters)
    that differ between two entries."""
    names = []
    for key in sorted(set(expected) | set(actual)):
        want, got = expected.get(key), actual.get(key)
        if key == "stats" and isinstance(want, dict) \
                and isinstance(got, dict):
            names.extend(f"stats.{field}"
                         for field in sorted(set(want) | set(got))
                         if want.get(field) != got.get(field))
        elif want != got:
            names.append(key)
    return names


def table_unit(unit: Tuple[str, str]
               ) -> Tuple[str, str, Dict[str, object], float]:
    """One program's entries in one table: ``(table, program, entries,
    seconds)``.  The seconds of the cycle table leave compilation out;
    those of the model table cover the whole pipeline."""
    table, program = unit
    if table == "cycles":
        _program, entries, seconds = program_entries(program)
        return table, program, entries, seconds
    started = time.perf_counter()
    entries = model_entry(program)
    return table, program, entries, time.perf_counter() - started


def _run_all(units: Iterable[Tuple[str, str]], jobs: int):
    units = list(units)
    if jobs <= 1:
        for unit in units:
            yield table_unit(unit)
        return
    context = multiprocessing.get_context("spawn")
    with context.Pool(jobs) as pool:
        yield from pool.imap_unordered(table_unit, units)


def _dump(table: str, document: Dict[str, object]) -> str:
    """The file text of a table.  The model table keeps each list of
    scalars (block names, pcs) on one line."""
    text = json.dumps(document, indent=1, sort_keys=True) + "\n"
    if table == "cycles":
        return text
    return re.sub(r"\[\n([^\[\]{}]*?)\n *\]",
                  lambda m: "[" + " ".join(
                      line.strip() for line in m.group(1).split("\n"))
                  + "]", text)


def _document(table: str, entries: Dict[str, Dict[str, object]]
              ) -> Dict[str, object]:
    if table == "cycles":
        return {
            "configs": {name: {**BASE, **overrides}
                        for name, overrides in CONFIGS.items()},
            "traced": list(TRACED),
            "entries": entries,
        }
    ilp_programs, grid = ilp_grid()
    return {
        "variants": list(VARIANTS),
        "ideal_points": [list(point) for point in IDEAL_POINTS],
        "ideal_ilp": {"programs": list(ilp_programs),
                      "points": [list(point) for point in grid]},
        "levels": list(LEVELS),
        "platforms": list(PLATFORM_KEYS),
        "traced": list(TRACED),
        "entries": entries,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Check (default) or regenerate the golden tables of "
                    "the cycle simulator and the other timing models.")
    parser.add_argument("--write", action="store_true",
                        help="regenerate the golden file(s) instead of "
                             "checking against them")
    parser.add_argument("--programs", default=None,
                        help="comma-separated subset of suite programs "
                             "(default: all)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1)")
    parser.add_argument("--file", type=Path, default=GOLDEN_FILE,
                        help="cycle table (default %(default)s)")
    args = parser.parse_args(argv)

    from repro.bench import all_benchmarks
    suite = sorted(b.name for b in all_benchmarks())
    programs = suite if args.programs is None else \
        [name.strip() for name in args.programs.split(",") if name.strip()]
    unknown = sorted(set(programs) - set(suite))
    if unknown:
        parser.error(f"unknown program(s): {', '.join(unknown)}")
    if args.write and args.programs is not None:
        parser.error("--write regenerates whole tables; "
                     "drop --programs")

    files = {"cycles": args.file, "models": MODEL_FILE}
    stored = {} if args.write else {name: load(files[name])
                                    for name in TABLES}
    compare = {"cycles": differences, "models": model_differences}
    written: Dict[str, Dict[str, Dict[str, object]]] = {
        name: {} for name in TABLES}
    checked = dict.fromkeys(TABLES, 0)
    failed = dict.fromkeys(TABLES, 0)
    seconds = dict.fromkeys(TABLES, 0.0)
    units = [(name, program) for name in TABLES for program in programs]
    for table, program, entries, spent in _run_all(units, args.jobs):
        seconds[table] += spent
        written[table][program] = entries
        if args.write:
            print(f"{table:6s} {program:12s} {spent:7.2f}s")
            continue
        bad = 0
        for name, actual in entries.items():
            expected = stored[table].get(program, {}).get(name)
            if expected is None:
                print(f"MISSING {table} {program}/{name}: no stored entry")
                bad += 1
                continue
            changed = compare[table](expected, actual)
            if changed:
                print(f"MISMATCH {table} {program}/{name}: "
                      f"{', '.join(changed)}")
                bad += 1
        checked[table] += len(entries)
        failed[table] += bad
        print(f"{table:6s} {program:12s} {spent:7.2f}s "
              f"{'FAIL' if bad else 'ok'}")

    for table in TABLES:
        if args.write:
            entries = {program: written[table][program]
                       for program in sorted(written[table])}
            path = files[table]
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(_dump(table, _document(table, entries)))
            print(f"wrote the {table} table: {len(entries)} programs to "
                  f"{path} ({seconds[table]:.1f}s simulating)")
        else:
            print(f"{table}: {checked[table] - failed[table]}/"
                  f"{checked[table]} entries match "
                  f"({seconds[table]:.1f}s simulating)")
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
