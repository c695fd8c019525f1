"""Stdlib-rendered HTML dashboard over the run index and service metrics.

``GET /v1/dashboard`` on the serve service returns this page: stat
tiles for the headline numbers, a recent-runs table over the index,
and counter, per-endpoint latency and per-stage cache tables from the
``/v1/metrics`` document.  Design rules
(deliberately austere — no script, no external assets, degrades to
plain tables):

* A single headline number is a **stat tile**, not a chart.
* Magnitude comparisons are **single-hue bar meters** inside table
  rows — one sequential hue, length encodes the value, the number is
  printed beside the bar (text in ink tokens, never in the hue).
* Outcome is **status** — a label plus a reserved status color, never
  color alone.
* ``<meta http-equiv="refresh">`` gives liveness without JavaScript;
  the machine-readable view is ``/v1/events`` + ``/v1/metrics``.
"""

from __future__ import annotations

import html
import time
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["render_dashboard"]

_STYLE = """
:root {
  --ink: #1a1f26; --ink-2: #4a5361; --ink-3: #8892a0;
  --surface: #ffffff; --panel: #f5f6f8; --line: #e2e5ea;
  --meter: #3b6ea5;           /* one sequential hue for all meters */
  --good: #1e7d45; --good-bg: #e4f3ea;
  --bad: #b3362c; --bad-bg: #f9e8e6;
  --warn: #8a6116; --warn-bg: #f7efdc;
}
* { box-sizing: border-box; }
body { margin: 0; padding: 24px; background: var(--surface);
       color: var(--ink);
       font: 14px/1.45 system-ui, -apple-system, sans-serif; }
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 8px; color: var(--ink-2); }
.sub { color: var(--ink-3); font-size: 12px; margin-bottom: 20px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile { background: var(--panel); border: 1px solid var(--line);
        border-radius: 8px; padding: 12px 16px; min-width: 150px; }
.tile .v { font-size: 24px; font-weight: 600; }
.tile .k { font-size: 12px; color: var(--ink-2); margin-top: 2px; }
table { border-collapse: collapse; width: 100%; font-size: 13px; }
th { text-align: left; color: var(--ink-2); font-weight: 600;
     border-bottom: 1px solid var(--line); padding: 6px 10px 6px 0; }
td { border-bottom: 1px solid var(--line); padding: 6px 10px 6px 0;
     vertical-align: top; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.chip { display: inline-block; padding: 1px 8px; border-radius: 10px;
        font-size: 12px; font-weight: 600; }
.chip.ok { color: var(--good); background: var(--good-bg); }
.chip.bad { color: var(--bad); background: var(--bad-bg); }
.chip.other { color: var(--warn); background: var(--warn-bg); }
.meter { display: inline-block; height: 8px; border-radius: 4px;
         background: var(--meter); vertical-align: middle;
         margin-right: 8px; }
.mono { font-family: ui-monospace, Menlo, monospace; font-size: 12px; }
.dim { color: var(--ink-3); }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _chip(outcome: str) -> str:
    cls = "ok" if outcome in ("ok", "pass") else \
        "bad" if outcome in ("failed", "error", "regression") else "other"
    return f'<span class="chip {cls}">{_esc(outcome)}</span>'


def _age(started: float, now: float) -> str:
    delta = max(0.0, now - started)
    if delta < 90:
        return f"{delta:.0f}s ago"
    if delta < 5400:
        return f"{delta / 60:.0f}m ago"
    if delta < 129600:
        return f"{delta / 3600:.1f}h ago"
    return f"{delta / 86400:.1f}d ago"


def _meter(value: float, peak: float, width_px: int = 120) -> str:
    width = 2 if peak <= 0 else max(2, round(width_px * value / peak))
    return f'<span class="meter" style="width:{width}px"></span>'


def _tile(value: Any, caption: str) -> str:
    return (f'<div class="tile"><div class="v">{_esc(value)}</div>'
            f'<div class="k">{_esc(caption)}</div></div>')


def _runs_table(rows: List[Dict[str, Any]], now: float) -> str:
    if not rows:
        return '<p class="dim">No runs recorded yet.</p>'
    out = ["<table><tr><th>when</th><th>kind</th><th>label</th>"
           "<th>outcome</th><th class=num>wall</th><th>run id</th></tr>"]
    for row in rows:
        wall = row.get("wall_s") or 0.0
        out.append(
            "<tr>"
            f"<td>{_esc(_age(float(row.get('started', now)), now))}</td>"
            f"<td>{_esc(row.get('kind', '?'))}</td>"
            f"<td>{_esc(row.get('label', '') or '—')}</td>"
            f"<td>{_chip(str(row.get('outcome', '?')))}</td>"
            f"<td class=num>{wall:.2f}s</td>"
            f"<td class=mono>{_esc(row.get('run_id', ''))}</td>"
            "</tr>")
    out.append("</table>")
    return "".join(out)


def _counters_table(counters: Dict[str, int]) -> str:
    if not counters:
        return '<p class="dim">No counters yet.</p>'
    peak = max(counters.values()) or 0
    out = ["<table><tr><th>counter</th><th class=num>value</th>"
           "<th></th></tr>"]
    for key in sorted(counters):
        value = counters[key]
        out.append(
            f"<tr><td class=mono>{_esc(key)}</td>"
            f"<td class=num>{value}</td>"
            f"<td>{_meter(float(value), float(peak))}</td></tr>")
    out.append("</table>")
    return "".join(out)


#: ``(header, field, format)`` columns of the per-endpoint latency
#: and per-stage cache tables.
_LATENCY_COLUMNS = (
    ("count", "count", "{}"), ("mean", "mean_ms", "{:g}ms"),
    ("p50", "p50_ms", "{:g}ms"), ("p95", "p95_ms", "{:g}ms"),
    ("p99", "p99_ms", "{:g}ms"), ("max", "max_ms", "{:g}ms"))
_CACHE_COLUMNS = (
    ("requests", "requests", "{}"), ("memory hits", "memory_hits", "{}"),
    ("disk hits", "disk_hits", "{}"), ("computes", "computes", "{}"),
    ("hit rate", "hit_rate", "{:.1%}"))


def _keyed_table(entries: Dict[str, Dict[str, Any]], key_header: str,
                 columns: Tuple[Tuple[str, str, str], ...],
                 empty: str) -> str:
    """One row per entry, sorted by key, one cell per column."""
    if not entries:
        return f'<p class="dim">{empty}</p>'
    out = [f"<table><tr><th>{key_header}</th>"
           + "".join(f"<th class=num>{header}</th>"
                     for header, _field, _format in columns) + "</tr>"]
    for key in sorted(entries):
        entry = entries[key]
        out.append(f"<tr><td class=mono>{_esc(key)}</td>" + "".join(
            f"<td class=num>{_esc(fmt.format(entry.get(field, 0)))}</td>"
            for _header, field, fmt in columns) + "</tr>")
    out.append("</table>")
    return "".join(out)


def render_dashboard(runs: List[Dict[str, Any]],
                     metrics: Dict[str, Any],
                     status: Optional[Dict[str, Any]] = None,
                     title: str = "repro dashboard",
                     refresh_s: int = 5,
                     now: Optional[float] = None) -> str:
    """The full dashboard page as an HTML string.

    ``runs`` are inflated run-index rows (most recent first),
    ``metrics`` a ``/v1/metrics`` document
    (:meth:`repro.serve.metrics.ServeMetrics.snapshot`), and
    ``status`` the serve status payload (optional — the page also
    serves as a cold offline report over just the index).
    """
    now = time.time() if now is None else now
    status = status or {}
    counters: Dict[str, int] = dict(metrics.get("counters") or {})
    ok_runs = sum(1 for row in runs
                  if row.get("outcome") in ("ok", "pass"))
    tiles = [
        _tile(len(runs), "indexed runs shown"),
        _tile(ok_runs, "succeeded"),
        _tile(len(runs) - ok_runs, "not ok"),
        _tile(len(counters), "counters"),
    ]
    if status:
        tiles.append(_tile(status.get("uptime_s", "—"), "uptime (s)"))
        tiles.append(_tile(status.get("inflight", 0), "in flight"))
    stamp = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(now))
    return f"""<!doctype html>
<html lang="en"><head><meta charset="utf-8">
<meta http-equiv="refresh" content="{int(refresh_s)}">
<title>{_esc(title)}</title>
<style>{_STYLE}</style></head><body>
<h1>{_esc(title)}</h1>
<div class="sub">rendered {stamp} · auto-refresh {int(refresh_s)}s ·
machine view: <span class=mono>/v1/metrics</span>,
<span class=mono>/v1/events</span></div>
<div class="tiles">{"".join(tiles)}</div>
<h2>Recent runs</h2>
{_runs_table(runs, now)}
<h2>Counters</h2>
{_counters_table(counters)}
<h2>Latency</h2>
{_keyed_table(metrics.get("endpoints") or {}, "endpoint",
              _LATENCY_COLUMNS, "No latency series yet.")}
<h2>Pipeline cache</h2>
{_keyed_table(metrics.get("cache") or {}, "stage", _CACHE_COLUMNS,
              "No pipeline stages yet.")}
</body></html>
"""
