"""Regression comparison between two BENCH files, or two sets of rounds.

``repro perf compare BASE NEW`` judges every benchmark present in both
files by its **median** slowdown, with a noise guard so the verdict is
about the code and not the host's mood:

* a delta within ``noise_mads`` x max(MAD(base), MAD(new)) of zero is
  ``ok`` regardless of its percentage (small medians make huge
  percentages out of scheduler jitter);
* otherwise ``>= fail_pct`` percent slower is a ``regression``,
  ``>= warn_pct`` a ``warn``, ``<= -warn_pct`` a ``faster`` (verdicts
  that should prompt updating the committed baseline);
* benchmarks present in only one file are reported (``new``/``gone``)
  but never fail the comparison — adding a benchmark must not break CI
  against an older baseline.

A within-run MAD says nothing of how a benchmark varies between
processes, so a change's verdict comes from several alternating rounds
per side (``perf run`` on the parent, on the change, on the parent,
...), one BENCH file per round.  :func:`compare_rounds` judges each
benchmark by its round medians, pairing the i-th round of each side:

* ``unresolved`` when either side's interquartile spread exceeds
  ``warn_pct`` percent of its median, unless every round of one side
  beats every round of the other;
* otherwise the median of the round medians regresses or warns by the
  thresholds above;
* ``faster`` only when the new side wins at least nine tenths of the
  pairs, ties counting for neither, and its median is below the base's
  by more than the base rounds' interquartile distance.

Exit codes are distinct and documented (``docs/PERF.md``): 0 ok (or
faster), 3 at least one warn or unresolved, 4 at least one regression;
2 stays reserved for usage errors like the rest of the CLI.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

__all__ = ["EXIT_OK", "EXIT_REGRESSION", "EXIT_WARN", "CompareRow",
           "compare_payloads", "compare_rounds", "exit_code",
           "render_comparison"]

OK = "ok"
FASTER = "faster"
WARN = "warn"
REGRESSION = "regression"
UNRESOLVED = "unresolved"
NEW = "new"
GONE = "gone"

EXIT_OK = 0
EXIT_WARN = 3
EXIT_REGRESSION = 4

#: Default thresholds (percent median slowdown) — the contract named in
#: the perf workflow: fail beyond 20%, warn beyond 10%.
DEFAULT_WARN_PCT = 10.0
DEFAULT_FAIL_PCT = 20.0
DEFAULT_NOISE_MADS = 3.0


@dataclass
class CompareRow:
    """Verdict for one benchmark name across the two files."""

    name: str
    base_median_s: float
    new_median_s: float
    delta_pct: float
    verdict: str
    note: str = ""


def _medians(payload) -> Dict[str, Tuple[float, float]]:
    return {name: (stats["median_s"], stats["mad_s"])
            for name, stats in payload["results"].items()}


def compare_payloads(base, new,
                     warn_pct: float = DEFAULT_WARN_PCT,
                     fail_pct: float = DEFAULT_FAIL_PCT,
                     noise_mads: float = DEFAULT_NOISE_MADS
                     ) -> List[CompareRow]:
    """Row-per-benchmark verdicts, shared names first, then new/gone."""
    base_stats = _medians(base)
    new_stats = _medians(new)
    rows: List[CompareRow] = []
    for name in sorted(set(base_stats) & set(new_stats)):
        b_median, b_mad = base_stats[name]
        n_median, n_mad = new_stats[name]
        delta = n_median - b_median
        pct = 100.0 * delta / b_median if b_median else 0.0
        noise_band = noise_mads * max(b_mad, n_mad)
        if abs(delta) <= noise_band:
            verdict, note = OK, "within noise"
        elif pct >= fail_pct:
            verdict, note = REGRESSION, f">= {fail_pct:g}% slower"
        elif pct >= warn_pct:
            verdict, note = WARN, f">= {warn_pct:g}% slower"
        elif pct <= -warn_pct:
            verdict, note = FASTER, "consider refreshing the baseline"
        else:
            verdict, note = OK, ""
        rows.append(CompareRow(name, b_median, n_median, pct, verdict,
                               note))
    for name in sorted(set(new_stats) - set(base_stats)):
        rows.append(CompareRow(name, 0.0, new_stats[name][0], 0.0, NEW,
                               "not in baseline"))
    for name in sorted(set(base_stats) - set(new_stats)):
        rows.append(CompareRow(name, base_stats[name][0], 0.0, 0.0, GONE,
                               "missing from new run"))
    return rows


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(Q1, median, Q3)`` as ``statistics.quantiles(values, n=4)``
    gives them (a single value is its own quartiles)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare_rounds(base: Sequence, new: Sequence,
                   warn_pct: float = DEFAULT_WARN_PCT,
                   fail_pct: float = DEFAULT_FAIL_PCT) -> List[CompareRow]:
    """Row-per-benchmark verdicts over alternating rounds: ``base[i]``
    and ``new[i]`` are the i-th round's BENCH payloads of each side."""
    if len(base) != len(new) or not base:
        raise ValueError(f"{len(base)} base rounds against {len(new)} new "
                         "rounds; pair them one to one")
    base_names = set.intersection(*(set(p["results"]) for p in base))
    new_names = set.intersection(*(set(p["results"]) for p in new))
    rows: List[CompareRow] = []
    for name in sorted(base_names & new_names):
        a = [p["results"][name]["median_s"] for p in base]
        b = [p["results"][name]["median_s"] for p in new]
        a_q1, a_median, a_q3 = _quartiles(a)
        b_q1, b_median, b_q3 = _quartiles(b)
        pct = 100.0 * (b_median - a_median) / a_median if a_median else 0.0
        wins = sum(1 for x, y in zip(a, b) if y < x)
        spread = max((a_q3 - a_q1) / a_median if a_median else 0.0,
                     (b_q3 - b_q1) / b_median if b_median else 0.0)
        note = f"wins {wins}/{len(a)}"
        if spread > warn_pct / 100.0 and not (
                max(b) < min(a) or min(b) > max(a)):
            verdict = UNRESOLVED
            note += f", round spread {spread:.0%} > {warn_pct:g}%"
        elif pct >= fail_pct:
            verdict = REGRESSION
        elif pct >= warn_pct:
            verdict = WARN
        elif wins >= 0.9 * len(a) and a_median - b_median > a_q3 - a_q1:
            verdict = FASTER
        else:
            verdict = OK
        rows.append(CompareRow(name, a_median, b_median, pct, verdict,
                               note))
    for name in sorted(new_names - base_names):
        rows.append(CompareRow(name, 0.0, 0.0, 0.0, NEW,
                               "not in every base round"))
    for name in sorted(base_names - new_names):
        rows.append(CompareRow(name, 0.0, 0.0, 0.0, GONE,
                               "not in every new round"))
    return rows


def exit_code(rows: List[CompareRow]) -> int:
    """Worst verdict wins: 0 ok/faster/new/gone, 3 warn or unresolved,
    4 regression."""
    if any(r.verdict == REGRESSION for r in rows):
        return EXIT_REGRESSION
    if any(r.verdict in (WARN, UNRESOLVED) for r in rows):
        return EXIT_WARN
    return EXIT_OK


def render_comparison(rows: List[CompareRow], base_label: str,
                      new_label: str,
                      base_run_id: str = "",
                      new_run_id: str = "", rounds: int = 1) -> str:
    """The comparison as a text table (shared CLI table formatter).

    When any row warns or regresses, an ``offenders`` block follows the
    table naming, per offending benchmark, the candidate BENCH file
    path and both files' run ids — so a CI failure is traceable to the
    exact run-index rows (``repro runs query --run-id ...``) without
    opening the artifacts.  ``rounds`` above one labels medians of
    round medians (:func:`compare_rounds`).
    """
    from repro.eval.report import format_table

    table_rows = []
    for row in rows:
        table_rows.append([
            row.name,
            f"{row.base_median_s * 1000:.2f}" if row.base_median_s else "-",
            f"{row.new_median_s * 1000:.2f}" if row.new_median_s else "-",
            f"{row.delta_pct:+.1f}%" if row.verdict not in (NEW, GONE)
            else "-",
            row.verdict, row.note])
    rendered = format_table(
        f"Host-performance comparison — {base_label} -> {new_label}",
        ["benchmark", "base ms", "new ms", "delta", "verdict", "note"],
        table_rows,
        f"medians of {rounds} alternating rounds' medians; ok, warn and "
        "regression need round spreads within the warn threshold "
        "(docs/PERF.md)." if rounds > 1 else
        "medians of calibrated repeats; deltas within the MAD noise "
        "band are ok by construction (docs/PERF.md).")
    offenders = [row for row in rows
                 if row.verdict in (WARN, REGRESSION)]
    if offenders:
        base_run = base_run_id or "?"
        new_run = new_run_id or "?"
        lines = ["", "offenders:"]
        for row in offenders:
            lines.append(
                f"  {row.name}: {row.verdict} in {new_label} "
                f"(run {new_run}) vs {base_label} (run {base_run})")
        rendered += "\n".join(lines)
    return rendered
