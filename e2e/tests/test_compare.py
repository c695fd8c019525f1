"""Verdicts of ``e2e/compare.py`` under the bound rule."""

import json

from e2e import compare

A = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98]


def test_within_the_bound_is_ok():
    outcome, worse = compare.verdict(A, [x * 1.05 for x in A], "lower", 0.1)
    assert outcome == "ok" and 0.04 < worse < 0.06


def test_beyond_the_bound_is_a_regression():
    assert compare.verdict(A, [x * 1.2 for x in A], "lower", 0.1)[0] == \
        "regression"


def test_direction_follows_better():
    assert compare.verdict(A, [x * 0.8 for x in A], "higher", 0.1)[0] == \
        "regression"
    assert compare.verdict(A, [x * 0.8 for x in A], "lower", 0.1)[0] == "ok"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [0.7, 1.0, 1.3, 0.8, 1.2, 1.1]
    assert compare.verdict(noisy, [x * 1.05 for x in noisy], "lower",
                           0.1)[0] == "unresolved"


def test_wide_spread_is_ok_when_every_run_of_b_is_better():
    noisy = [2.0, 2.5, 3.0, 2.2, 2.8]
    assert compare.verdict(noisy, [0.7, 1.0, 1.3, 0.8, 1.2], "lower",
                           0.1)[0] == "ok"


def test_pair_wins_count_ties_for_neither():
    assert compare.pair_wins([1, 2, 3, 4], [0.5, 2, 4, 3], "lower") == (2, 4)


def _write(directory, workload, values, failed=0, trace=0):
    directory.mkdir(exist_ok=True)
    for index, value in enumerate(values):
        metrics = {m["name"]: {"value": value, "unit": m["unit"]}
                   for m in json.loads(compare.BENCHMARK.read_text())
                   ["end_to_end"]}
        record = {"workload": workload, "trace": trace,
                  "result": {"correct": not failed, "attempted": 100,
                             "failed": failed, "metrics": metrics}}
        (directory / f"{workload}-{trace}-{index}.json").write_text(
            json.dumps(record))


def test_exit_code_flags_regressions_and_new_failures(tmp_path, capsys):
    _write(tmp_path / "a", "sweep", A)
    _write(tmp_path / "same", "sweep", A)
    _write(tmp_path / "slow", "sweep", [x * 1.3 for x in A])
    _write(tmp_path / "failing", "sweep", A, failed=1)
    _write(tmp_path / "failing", "sweep", [9.0], trace=1)
    run = compare.main
    assert run([str(tmp_path / "a"), str(tmp_path / "same")]) == 0
    assert "B wins 0/6 pairs on wall_s" in capsys.readouterr().out
    assert run([str(tmp_path / "a"), str(tmp_path / "slow")]) == 1
    assert run([str(tmp_path / "a"), str(tmp_path / "failing")]) == 1
    assert "failed fraction rose" in capsys.readouterr().out
