"""Sweep analysis: sensitivity tables, Pareto frontiers, artifacts.

Consumes the per-point results a sweep produced (see
:mod:`repro.explore.engine`) and derives:

* **per-axis sensitivity** — for each axis, IPC at each of its values
  with every *other* axis held at the sweep baseline (the machine
  default when swept, else the axis's first value), aggregated across
  benchmarks by geometric mean and reported as a delta against the
  baseline point;
* **Pareto frontier** — over ``(IPC, cost)`` where the cost proxy is
  window capacity x execution tiles for ``cycles`` sweeps (the area
  currency of the EDGE soft-processor studies) and window capacity for
  ``ideal`` sweeps; the topology's OPN link count, the estimated area
  (:mod:`repro.uarch.area`), and IPC per mm² ride along as columns;
* **artifacts** — ``points.jsonl`` (one record per design point,
  holes included), ``sensitivity.csv``, ``frontier.csv``, ``report.json``
  (the :class:`~repro.robust.RunReport`), and a human ``summary.md``.

All functions are pure over the result records so ``repro frontier``
can re-analyze a finished sweep directory without re-simulating.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.explore.grid import baseline_settings
from repro.explore.journal import spec_document
from repro.explore.spec import SweepSpec
from repro.uarch.config import TripsConfig

__all__ = [
    "aggregate_configs", "load_points", "pareto_frontier", "point_cost",
    "sensitivity_rows", "write_artifacts",
]

#: File names written into every sweep directory.
POINTS_FILE = "points.jsonl"
SENSITIVITY_FILE = "sensitivity.csv"
FRONTIER_FILE = "frontier.csv"
REPORT_FILE = "report.json"
SUMMARY_FILE = "summary.md"
SPEC_FILE = "spec.json"


def point_cost(system: str, settings: Dict[str, Any]) -> Dict[str, Any]:
    """Cost proxies of one design point.

    ``window_slots``
        Instruction window capacity: blocks in flight x block size
        (``cycles``) or the ideal window (``ideal``).
    ``ets``
        Execution tiles (issue resources); 0 for the ideal machine's
        infinite array.
    ``opn_links``
        Directed links (x channels) of the configured OPN topology.
    ``area_mm2``
        Estimated area of the configured machine
        (:func:`repro.uarch.area.estimate_area`); 0 for the ideal
        machine, which has no floorplan.
    ``cost``
        The scalar frontier axis: ``window_slots x ets`` for ``cycles``
        (reservation-station area), ``window_slots`` for ``ideal``.
    """
    if system == "ideal":
        window = settings.get("window", 1024)
        return {"window_slots": window, "ets": 0, "opn_links": 0,
                "area_mm2": 0.0, "cost": window}
    from repro.isa.block import MAX_BLOCK_INSTS
    from repro.trips.placement import GRID_W
    from repro.uarch.area import estimate_area
    from repro.uarch.topologies import TOPOLOGIES

    config = TripsConfig(**settings)
    window_slots = config.max_blocks_in_flight * MAX_BLOCK_INSTS
    ets = GRID_W * GRID_W
    return {"window_slots": window_slots, "ets": ets,
            "opn_links": TOPOLOGIES[config.opn_topology](GRID_W).link_count(),
            "area_mm2": estimate_area(config).total_mm2,
            "cost": window_slots * ets}


def geomean(values: Sequence[float]) -> float:
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


def _settings_key(settings: Dict[str, Any]) -> Tuple:
    return tuple(sorted(settings.items()))


def aggregate_configs(records: Iterable[Dict[str, Any]]
                      ) -> List[Dict[str, Any]]:
    """Fold per-point records into one row per distinct configuration.

    IPC is aggregated across the benchmarks that completed (geometric
    mean); ``benchmarks``/``holes`` count coverage so a configuration
    whose points partially failed is visibly partial rather than
    silently rosier.
    """
    by_config: Dict[Tuple, Dict[str, Any]] = {}
    for record in records:
        key = _settings_key(record["settings"])
        row = by_config.setdefault(key, {
            "settings": dict(record["settings"]),
            "system": record["system"],
            "ipcs": [], "benchmarks": 0, "holes": 0,
        })
        row["benchmarks"] += 1
        if record["status"] == "ok":
            row["ipcs"].append(record["metrics"]["ipc"])
        else:
            row["holes"] += 1
    rows = []
    for row in by_config.values():
        cost = point_cost(row["system"], row["settings"])
        ipc = geomean(row["ipcs"])
        area = cost["area_mm2"]
        rows.append({
            "settings": row["settings"],
            "ipc_geomean": ipc,
            "ipc_per_area": ipc / area if area else 0.0,
            "benchmarks": row["benchmarks"],
            "holes": row["holes"],
            **cost,
        })
    rows.sort(key=lambda r: (r["cost"], _settings_key(r["settings"])))
    return rows


def pareto_frontier(rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Mark each aggregated row ``on_frontier``: no other row has both
    lower-or-equal cost and strictly higher IPC (maximize IPC, minimize
    cost).  Rows with zero completed points never make the frontier."""
    best_ipc = -1.0
    for row in rows:                      # already sorted by cost asc
        row["on_frontier"] = (row["ipc_geomean"] > best_ipc
                              and row["ipc_geomean"] > 0)
        if row["ipc_geomean"] > best_ipc:
            best_ipc = row["ipc_geomean"]
    return rows


def sensitivity_rows(spec: SweepSpec,
                     records: Sequence[Dict[str, Any]]
                     ) -> List[Dict[str, Any]]:
    """Per-axis IPC sensitivity, all other axes held at baseline.

    One row per (axis, value): the geomean IPC across benchmarks of the
    baseline-slice point with that axis set to that value, its absolute
    and relative delta against the full-baseline point, and coverage.
    Axes the grid does not actually cover at baseline (possible after
    aggressive ``--points`` restrictions) yield no rows rather than
    misattributing off-baseline points.
    """
    baseline = dict(baseline_settings(spec))
    by_key: Dict[Tuple, List[Dict[str, Any]]] = {}
    for record in records:
        by_key.setdefault(_settings_key(record["settings"]),
                          []).append(record)

    def slice_ipc(settings: Dict[str, Any]) -> Optional[float]:
        group = by_key.get(_settings_key(settings))
        if not group:
            return None
        ipcs = [r["metrics"]["ipc"] for r in group if r["status"] == "ok"]
        return geomean(ipcs) if ipcs else None

    base_ipc = slice_ipc(baseline)
    rows: List[Dict[str, Any]] = []
    for axis in spec.axis_names:
        for value in spec.axis_values(axis):
            settings = dict(baseline)
            settings[axis] = value
            ipc = slice_ipc(settings)
            if ipc is None:
                continue
            delta = ipc - base_ipc if base_ipc is not None else 0.0
            pct = (100.0 * delta / base_ipc) if base_ipc else 0.0
            rows.append({
                "axis": axis, "value": value,
                "baseline": value == baseline[axis],
                "ipc_geomean": ipc, "delta_ipc": delta,
                "delta_pct": pct,
            })
    return rows


# -- artifact I/O -----------------------------------------------------------

def _write_csv(path: Path, headers: Sequence[str],
               rows: Iterable[Sequence[Any]]) -> None:
    lines = [",".join(headers)]
    for row in rows:
        lines.append(",".join(
            f"{v:.4f}" if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _axis_columns(rows: List[Dict[str, Any]]) -> List[str]:
    names: List[str] = []
    for row in rows:
        for name in row["settings"]:
            if name not in names:
                names.append(name)
    return names


def write_frontier_csv(path: Path, rows: List[Dict[str, Any]]) -> None:
    axes = _axis_columns(rows)
    headers = axes + ["cost", "window_slots", "ets", "opn_links",
                      "area_mm2", "ipc_geomean", "ipc_per_area",
                      "benchmarks", "holes", "on_frontier"]
    _write_csv(path, headers, (
        [row["settings"].get(a, "") for a in axes]
        + [row["cost"], row["window_slots"], row["ets"], row["opn_links"],
           row["area_mm2"], row["ipc_geomean"], row["ipc_per_area"],
           row["benchmarks"], row["holes"], int(row["on_frontier"])]
        for row in rows))


def write_sensitivity_csv(path: Path,
                          rows: List[Dict[str, Any]]) -> None:
    headers = ["axis", "value", "baseline", "ipc_geomean", "delta_ipc",
               "delta_pct"]
    _write_csv(path, headers, (
        [r["axis"], r["value"], int(r["baseline"]), r["ipc_geomean"],
         r["delta_ipc"], r["delta_pct"]] for r in rows))


def render_summary(spec: SweepSpec, records: Sequence[Dict[str, Any]],
                   frontier: List[Dict[str, Any]],
                   sensitivity: List[Dict[str, Any]],
                   simulated: int, reused: int) -> str:
    """The sweep directory's human-readable ``summary.md``."""
    ok = sum(1 for r in records if r["status"] == "ok")
    holes = len(records) - ok
    lines = [
        f"# Sweep `{spec.name}`", "",
        spec.description or "(no description)", "",
        f"* system: `{spec.system}`, variant: `{spec.variant}`",
        f"* benchmarks: {', '.join(spec.benchmarks)}",
        f"* axes: " + "; ".join(
            f"`{name}` in {list(values)}" for name, values in spec.axes),
        f"* points: {len(records)} ({ok} ok, {holes} holes)",
        f"* simulations: {simulated} computed, {reused} reused from "
        f"cache", "",
    ]
    if holes:
        lines.append("## Holes")
        lines.append("")
        for record in records:
            if record["status"] != "ok":
                lines.append(f"* `{record['label']}` — "
                             f"{record.get('error', 'failed')}")
        lines.append("")
    lines += ["## Pareto frontier (IPC vs cost)", "",
              "| " + " | ".join(
                  ["cost", "area mm2", "IPC (geomean)", "IPC/mm2",
                   "on frontier", "settings"])
              + " |",
              "|---|---|---|---|---|---|"]
    for row in frontier:
        settings = ", ".join(f"{k}={v}" for k, v in
                             sorted(row["settings"].items()))
        lines.append(
            f"| {row['cost']} | {row['area_mm2']:.1f} | "
            f"{row['ipc_geomean']:.3f} | {row['ipc_per_area']:.4f} | "
            f"{'yes' if row['on_frontier'] else ''} | {settings} |")
    lines += ["", "## Per-axis sensitivity (others at baseline)", "",
              "| axis | value | IPC (geomean) | delta | delta % |",
              "|---|---|---|---|---|"]
    for row in sensitivity:
        mark = " *" if row["baseline"] else ""
        lines.append(
            f"| {row['axis']} | {row['value']}{mark} | "
            f"{row['ipc_geomean']:.3f} | {row['delta_ipc']:+.3f} | "
            f"{row['delta_pct']:+.1f}% |")
    lines += ["", "`*` = baseline value.", ""]
    return "\n".join(lines)


def write_artifacts(out_dir, spec: SweepSpec,
                    records: Sequence[Dict[str, Any]],
                    report_dict: Dict[str, Any],
                    simulated: int, reused: int) -> Dict[str, Path]:
    """Write the full artifact set; returns name -> path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / name for name in
             (POINTS_FILE, SENSITIVITY_FILE, FRONTIER_FILE, REPORT_FILE,
              SUMMARY_FILE, SPEC_FILE)}

    with open(paths[POINTS_FILE], "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    rows = pareto_frontier(aggregate_configs(records))
    sensitivity = sensitivity_rows(spec, records)
    write_frontier_csv(paths[FRONTIER_FILE], rows)
    write_sensitivity_csv(paths[SENSITIVITY_FILE], sensitivity)
    paths[REPORT_FILE].write_text(
        json.dumps(report_dict, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    # The same canonical document the journal header and the pack's
    # spec digest are computed over — the three can never drift apart.
    paths[SPEC_FILE].write_text(
        json.dumps(spec_document(spec), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    paths[SUMMARY_FILE].write_text(
        render_summary(spec, records, rows, sensitivity, simulated,
                       reused), encoding="utf-8")
    return paths


def load_points(sweep_dir) -> List[Dict[str, Any]]:
    """Read ``points.jsonl`` back from a finished sweep directory."""
    path = Path(sweep_dir) / POINTS_FILE
    if not path.exists():
        raise FileNotFoundError(
            f"{path} not found — not a sweep directory?")
    return [json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()]


def load_spec_json(sweep_dir) -> SweepSpec:
    """Rehydrate the spec a sweep directory was produced from."""
    path = Path(sweep_dir) / SPEC_FILE
    data = json.loads(path.read_text(encoding="utf-8"))
    return SweepSpec.from_dict(data, name=data.get("name", "sweep"))
