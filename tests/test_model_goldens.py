"""Equivalence tests for the timing models other than the cycle simulator.

``tests/data/model_goldens.json`` pins, per suite program, the TRIPS
functional statistics and block traces of both variants, the ideal
machine at Figure 10's three points (and over the ``ideal-ilp`` preset's
grid for its programs), and the PowerPC counts and reference-platform
timings at O2 and ICC.  It was recorded from the models as they stood
before the ideal machine and the platforms became folds over one
recorded execution, so any change that moves a single statistic shows
up here.  Tier-1 checks the six traced programs; the CI ``goldens`` job
checks every program with ``tools/cycle_goldens.py``.
"""

import importlib.util
from pathlib import Path

import pytest


def _load_tool():
    path = Path(__file__).resolve().parent.parent / "tools" / \
        "cycle_goldens.py"
    spec = importlib.util.spec_from_file_location("cycle_goldens", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


goldens = _load_tool()
MODELS = goldens.load(goldens.MODEL_FILE)


@pytest.mark.parametrize("program", goldens.TRACED)
def test_models_match_the_golden_table(program):
    expected = MODELS[program]
    actual = goldens.model_entry(program)
    assert sorted(actual) == sorted(expected)
    changed = {name: goldens.model_differences(expected[name], actual[name])
               for name in expected}
    assert not any(changed.values()), \
        f"{program}: differs from the golden table: {changed}"


def test_table_covers_the_suite():
    from repro.bench import all_benchmarks

    assert sorted(MODELS) == sorted(b.name for b in all_benchmarks())
    ilp_programs, grid = goldens.ilp_grid()
    for program in ilp_programs:
        assert len(MODELS[program]["ideal-ilp"]) == len(grid) == 12
