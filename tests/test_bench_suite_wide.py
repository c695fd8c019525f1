"""Wide benchmark-suite consistency: every registered workload must agree
between the interpreter and the RISC and TRIPS functional simulators at
O2.  The heavy-weight cycle-level runs live in benchmarks/; this test
keeps the correctness net wide but cheap by using the functional paths.
"""

import pytest

from repro.bench import all_benchmarks
from repro.pipeline import Pipeline

_PIPELINE = Pipeline()

#: Workloads light enough for the per-test budget of the unit suite.
_FAST = [b.name for b in all_benchmarks()
         if b.name not in ("gzip", "mesa", "vortex", "crafty", "bzip2",
                           "matrix", "aifirf", "idct", "cacheb")]


@pytest.mark.parametrize("name", _FAST)
def test_risc_matches_interpreter(name):
    _PIPELINE.powerpc(name)   # raises ChecksumMismatch on divergence


@pytest.mark.parametrize("name", _FAST)
def test_trips_matches_interpreter(name):
    _PIPELINE.trips_functional(name)


@pytest.mark.parametrize(
    "name", [b.name for b in all_benchmarks()
             if b.has_hand and b.name in _FAST])
def test_hand_variant_matches_interpreter(name):
    _PIPELINE.trips_functional(name, "hand")


def test_block_constraints_hold_everywhere():
    """Every compiled block across the fast set satisfies the prototype
    ISA constraints (validate() re-run defensively)."""
    for name in _FAST[:10]:
        lowered = _PIPELINE.trips_lowered(name)
        for block in lowered.program.all_blocks():
            block.validate()
            assert len(block.instructions) <= 128
            assert len(block.reads) <= 32
            assert len(block.writes) <= 32
            assert len(block.exits) <= 8
