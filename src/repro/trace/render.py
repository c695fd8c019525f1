"""ASCII renderings of the derived trace views.

Pure functions from :class:`~repro.trace.views.TraceMetrics` to text, so
the CLI (``python -m repro trace`` / ``report --heatmaps``) and tests
share one implementation.  The density scale used everywhere::

    ' ' . : - = + * # % @      (0% .. 100% of the hottest cell)
"""

from __future__ import annotations

from typing import List, Tuple

from repro.trace.views import TraceMetrics

#: Ten-step density ramp, blank = idle.
DENSITY = " .:-=+*#%@"

#: Mesh extent of the prototype floorplan (5x5: GT/DT column, RT row,
#: 4x4 ET array).
MESH = 5


def density_char(value: float, peak: float) -> str:
    """Map ``value`` in ``[0, peak]`` onto the density ramp.

    Any non-zero value renders at least ``.`` so light traffic is
    visible next to idle links.
    """
    if value <= 0 or peak <= 0:
        return DENSITY[0]
    index = int(round((len(DENSITY) - 1) * value / peak))
    return DENSITY[max(1, min(index, len(DENSITY) - 1))]


def node_name(x: int, y: int, grid: int = 4) -> str:
    """Tile name at mesh coordinate ``(x, y)`` (GT/Dn/Rn/En)."""
    if x == 0:
        return "G" if y == 0 else f"D{y - 1}"
    if y == 0:
        return f"R{x - 1}"
    return f"E{(y - 1) * grid + (x - 1)}"


def _pair_utilization(metrics: TraceMetrics,
                      a: Tuple[int, int], b: Tuple[int, int]) -> float:
    """Busy fraction of the busier direction of the link ``a <-> b``."""
    if metrics.cycles <= 0:
        return 0.0
    forward = metrics.link_packets.get((a[0], a[1], b[0], b[1]), 0)
    backward = metrics.link_packets.get((b[0], b[1], a[0], a[1]), 0)
    return max(forward, backward) / metrics.cycles


def render_opn_heatmap(metrics: TraceMetrics, grid: int = 4) -> str:
    """The 5x5 OPN link-utilization heatmap with a busiest-links table.

    Nodes are labeled (G, D0-D3, R0-R3, E0-E15); the glyph between two
    adjacent nodes shows the busier direction's occupancy (packets per
    cycle) on the density ramp.
    """
    mesh = grid + 1
    peak = max((_pair_utilization(metrics, (sx, sy), (dx, dy))
                for (sx, sy, dx, dy) in metrics.link_packets), default=0.0)
    lines: List[str] = []
    lines.append("OPN link utilization "
                 f"({metrics.total_hops} link traversals over "
                 f"{metrics.cycles} cycles; ramp '{DENSITY.strip()}' "
                 "scaled to the hottest link)")
    for y in range(mesh):
        row_cells: List[str] = []
        for x in range(mesh):
            row_cells.append(node_name(x, y, grid).ljust(3))
            if x + 1 < mesh:
                util = _pair_utilization(metrics, (x, y), (x + 1, y))
                glyph = density_char(util / peak if peak else 0.0, 1.0)
                row_cells.append(glyph * 3 + " ")
        lines.append(" ".join(row_cells).rstrip())
        if y + 1 < mesh:
            column_cells: List[str] = []
            for x in range(mesh):
                util = _pair_utilization(metrics, (x, y), (x, y + 1))
                glyph = density_char(util / peak if peak else 0.0, 1.0)
                column_cells.append(f" {glyph} ")
                if x + 1 < mesh:
                    column_cells.append("    ")
            lines.append(" ".join(column_cells).rstrip())
    busiest = metrics.busiest_links()
    if busiest:
        lines.append("busiest links:")
        for (sx, sy, dx, dy), packets in busiest:
            wait = metrics.link_waits.get((sx, sy, dx, dy), 0)
            share = packets / metrics.cycles if metrics.cycles else 0.0
            lines.append(
                f"  {node_name(sx, sy, grid):>3} -> "
                f"{node_name(dx, dy, grid):<3} {packets:>8} packets  "
                f"{share:6.1%} busy  {wait:>6} queue cycles")
    return "\n".join(lines)


def render_occupancy_timeline(metrics: TraceMetrics, height: int = 8) -> str:
    """Window-occupancy timeline as a column chart.

    One column per bucket; the y axis is instructions in flight
    (averaged within each bucket of ``metrics.bucket_cycles`` cycles).
    """
    occupancy = metrics.occupancy
    peak = max(occupancy) if occupancy else 0.0
    mean = sum(occupancy) / len(occupancy) if occupancy else 0.0
    lines = [f"window occupancy (avg insts in flight per "
             f"{metrics.bucket_cycles}-cycle bucket; "
             f"mean {mean:.0f}, peak {peak:.0f})"]
    if peak <= 0:
        lines.append("  (no block activity traced)")
        return "\n".join(lines)
    for row in range(height, 0, -1):
        threshold = peak * (row - 0.5) / height
        label = f"{peak * row / height:5.0f} |"
        lines.append(label + "".join(
            "#" if value >= threshold else " " for value in occupancy))
    lines.append("      +" + "-" * len(occupancy))
    lines.append(f"       0 .. {metrics.cycles} cycles")
    return "\n".join(lines)


def render_tile_histogram(metrics: TraceMetrics, grid: int = 4) -> str:
    """Per-ET issue counts and utilization as a ``grid`` x ``grid`` map."""
    cycles = max(metrics.cycles, 1)
    issues = metrics.tile_issues
    peak = max(issues.values(), default=0)
    lines = ["ET issue utilization (issues; % of cycles the tile issued)"]
    for row in range(grid):
        cells = []
        for col in range(grid):
            tile = row * grid + col
            count = issues.get(tile, 0)
            glyph = density_char(count, peak)
            cells.append(f"E{tile:<2} {glyph} {count:>7} "
                         f"{100.0 * count / cycles:5.1f}%")
        lines.append("  " + "   ".join(cells))
    return "\n".join(lines)


def render_event_counts(metrics: TraceMetrics) -> str:
    """Event totals by kind, plus the headline derived counters."""
    lines = ["trace events:"]
    for kind in sorted(metrics.event_counts):
        lines.append(f"  {kind:<14} {metrics.event_counts[kind]:>9}")
    lines.append(f"  flushes {metrics.flushes}, load forwards "
                 f"{metrics.load_forwards}, load flushes "
                 f"{metrics.load_flushes}, L1-D bank-conflict cycles "
                 f"{metrics.bank_conflict_cycles}")
    return "\n".join(lines)
