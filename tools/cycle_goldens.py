#!/usr/bin/env python
"""Golden digests of the cycle simulator: record them, or check against them.

Every suite program, compiled at O2 with hyperblock formation, runs on
the cycle simulator under six configurations (:data:`CONFIGS`).  One
entry per (program, configuration) records:

* the program's return value;
* every :class:`~repro.uarch.core.CycleStats` field;
* the operand network's ``packets``, ``hops``, ``hop_histogram`` and
  ``queue_cycles``;
* for the :data:`TRACED` programs, a SHA-256 of the microarchitectural
  event stream a :class:`~repro.trace.CollectingTracer` collects.

The committed table, ``tests/data/cycle_goldens.json``, is the
equivalence contract of the execution kernel: any change that moves a
single cycle, counter or trace event shows up as a mismatch.  Tier-1
checks the traced programs (``tests/test_kernels_batched.py``); the CI
``goldens`` job checks the whole table::

    PYTHONPATH=src python tools/cycle_goldens.py --jobs 2
    PYTHONPATH=src python tools/cycle_goldens.py --programs rspeed,crc
    PYTHONPATH=src python tools/cycle_goldens.py --write --jobs 2

Without ``--write`` the tool checks and exits 1 on any mismatch, with
one line per differing entry.  ``--write`` regenerates the file; do
that only for an intentional timing change, and say so in the commit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent
GOLDEN_FILE = REPO / "tests" / "data" / "cycle_goldens.json"

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


def load(path: Path = GOLDEN_FILE) -> Dict[str, Dict[str, object]]:
    """The stored table: program -> configuration -> entry."""
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


def _run_all(programs: Iterable[str], jobs: int):
    programs = list(programs)
    if jobs <= 1:
        for program in programs:
            yield program_entries(program)
        return
    context = multiprocessing.get_context("spawn")
    with context.Pool(jobs) as pool:
        yield from pool.imap_unordered(program_entries, programs)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Check (default) or regenerate the cycle simulator's "
                    "golden digests.")
    parser.add_argument("--write", action="store_true",
                        help="regenerate the golden file instead of "
                             "checking against it")
    parser.add_argument("--programs", default=None,
                        help="comma-separated subset of suite programs "
                             "(default: all)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1)")
    parser.add_argument("--file", type=Path, default=GOLDEN_FILE,
                        help="golden file (default %(default)s)")
    args = parser.parse_args(argv)

    from repro.bench import all_benchmarks
    suite = sorted(b.name for b in all_benchmarks())
    programs = suite if args.programs is None else \
        [name.strip() for name in args.programs.split(",") if name.strip()]
    unknown = sorted(set(programs) - set(suite))
    if unknown:
        parser.error(f"unknown program(s): {', '.join(unknown)}")
    if args.write and args.programs is not None:
        parser.error("--write regenerates the whole table; "
                     "drop --programs")

    stored = {} if args.write else load(args.file)
    table: Dict[str, Dict[str, object]] = {}
    failures = 0
    total = 0.0
    for program, entries, seconds in _run_all(programs, args.jobs):
        total += seconds
        table[program] = entries
        if args.write:
            print(f"{program:12s} {seconds:7.2f}s")
            continue
        bad = 0
        for name, actual in entries.items():
            expected = stored.get(program, {}).get(name)
            if expected is None:
                print(f"MISSING {program}/{name}: no stored entry")
                bad += 1
                continue
            changed = differences(expected, actual)
            if changed:
                print(f"MISMATCH {program}/{name}: {', '.join(changed)}")
                bad += 1
        failures += bad
        print(f"{program:12s} {seconds:7.2f}s {'FAIL' if bad else 'ok'}")

    if args.write:
        document = {
            "configs": {name: {**BASE, **overrides}
                        for name, overrides in CONFIGS.items()},
            "traced": list(TRACED),
            "entries": {program: table[program] for program in sorted(table)},
        }
        args.file.parent.mkdir(parents=True, exist_ok=True)
        args.file.write_text(json.dumps(document, indent=1, sort_keys=True)
                             + "\n")
        print(f"wrote {len(table)} programs x {len(CONFIGS)} configs to "
              f"{args.file} ({total:.1f}s simulating)")
        return 0
    checked = len(table) * len(CONFIGS)
    print(f"{checked - failures}/{checked} entries match "
          f"({total:.1f}s simulating)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
