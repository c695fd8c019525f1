"""Judge result set B against result set A, workload by workload.

    python3 e2e/compare.py A B [--metric wall_s]

``A`` (the parent) and ``B`` (the change) are directories of records
written by ``e2e/run.py --out``; untraced records are compared.  For
every workload and end-to-end metric of ``BENCHMARK.json`` it prints
each side's median and quartiles and a verdict:

``ok``
    B's median is no worse than A's by more than the metric's bound.
``regression``
    B's median is worse than A's by more than the bound.
``unresolved``
    One side's interquartile spread is wider than the bound, so a
    difference within it cannot be told from noise — unless every run
    of B reads better than every run of A, which is ``ok``.

It also prints, per workload, the share of run pairs (the i-th run of
each side) that B wins on ``--metric``, ties counting for neither.  The
exit code is 1 when any metric regresses or a workload's failed
fraction of operations rises, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from e2e.stats import quartiles, relative_spread  # noqa: E402

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def load_set(directory: Path) -> Dict[str, List[dict]]:
    """Untraced results by workload, in file-name order."""
    runs: Dict[str, List[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        record = json.loads(path.read_text())
        if record.get("trace") == 0:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def _better(a: float, b: float, better: str) -> bool:
    """Whether ``b`` reads better than ``a``."""
    return b < a if better == "lower" else b > a


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> Tuple[str, float]:
    """``(verdict, worsening)``; the worsening is B's median relative to
    A's, positive when B is worse."""
    median_a, median_b = quartiles(a)[1], quartiles(b)[1]
    change = (median_b - median_a) / median_a
    worse = change if better == "lower" else -change
    if max(relative_spread(a), relative_spread(b)) > bound:
        if all(_better(x, y, better) for x in a for y in b):
            return "ok", worse
        return "unresolved", worse
    return ("regression" if worse > bound else "ok"), worse


def pair_wins(a: Sequence[float], b: Sequence[float],
              better: str) -> Tuple[int, int]:
    """``(pairs B wins, pairs)`` over runs paired in order."""
    pairs = list(zip(a, b))
    return sum(1 for x, y in pairs if _better(x, y, better)), len(pairs)


def fail_fraction(runs: Sequence[dict]) -> float:
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    return failed / attempted if attempted else 0.0


def _values(runs: Sequence[dict], metric: str) -> List[float]:
    return [r["result"]["metrics"][metric]["value"] for r in runs]


def compare(set_a: Dict[str, List[dict]], set_b: Dict[str, List[dict]],
            metrics: Sequence[dict], win_metric: str
            ) -> Tuple[List[str], bool]:
    """Report lines and whether anything regressed."""
    lines = [f"{'workload':12s} {'metric':12s} {'A median [Q1, Q3]':>30s} "
             f"{'B median [Q1, Q3]':>30s} {'worse':>7s}  verdict"]
    regressed = False
    for workload in sorted(set(set_a) | set(set_b)):
        runs_a, runs_b = set_a.get(workload, []), set_b.get(workload, [])
        if not runs_a or not runs_b:
            lines.append(f"{workload:12s} missing from "
                         f"{'A' if not runs_a else 'B'}")
            regressed = True
            continue
        for metric in metrics:
            name = metric["name"]
            a, b = _values(runs_a, name), _values(runs_b, name)
            outcome, worse = verdict(a, b, metric["better"],
                                     metric["bound"])
            regressed |= outcome == "regression"
            lines.append(f"{workload:12s} {name:12s} {_summary(a):>30s} "
                         f"{_summary(b):>30s} {worse:+7.1%}  {outcome}")
        fail_a, fail_b = fail_fraction(runs_a), fail_fraction(runs_b)
        if fail_b > fail_a:
            regressed = True
            lines.append(f"{workload:12s} failed fraction rose "
                         f"{fail_a:.4f} -> {fail_b:.4f}  regression")
        better = next(m["better"] for m in metrics
                      if m["name"] == win_metric)
        wins, pairs = pair_wins(_values(runs_a, win_metric),
                                _values(runs_b, win_metric), better)
        lines.append(f"{workload:12s} B wins {wins}/{pairs} pairs on "
                     f"{win_metric}")
    return lines, regressed


def _summary(values: Sequence[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 e2e/compare.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="parent result directory")
    parser.add_argument("b", type=Path, help="change result directory")
    parser.add_argument("--metric", default="wall_s",
                        help="metric for the pair-win ratio")
    args = parser.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    if args.metric not in {m["name"] for m in metrics}:
        parser.error(f"unknown end-to-end metric {args.metric!r}")
    lines, regressed = compare(load_set(args.a), load_set(args.b), metrics,
                               args.metric)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
