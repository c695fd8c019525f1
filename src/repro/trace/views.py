"""Derived metric views over a raw event stream.

:func:`summarize` folds a (possibly huge) event list into a small,
picklable :class:`TraceMetrics` — the artifact the pipeline's
``trace-summary`` stage caches and the ASCII renderers draw:

* a 5x5 OPN **link-utilization** map (packets and queue-waits per
  directed mesh link, from ``opn_hop`` events);
* a **window-occupancy timeline** (average instructions in flight per
  fixed-width cycle bucket, integrated from ``block_commit`` residency
  spans — the per-cycle refinement of Figure 6's single average);
* per-ET **issue histograms** (issues per tile, from ``inst_issue``);
* event counts by kind, traffic-class packet counts, and flush /
  forward / conflict totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.trace.events import TraceEvent

#: Directed mesh link: (src x, src y, dst x, dst y).
Link = Tuple[int, int, int, int]

#: Default occupancy-timeline resolution (buckets across the run).
DEFAULT_BUCKETS = 48

#: Finest occupancy-timeline resolution ``repro trace`` and
#: ``/v1/trace`` accept.
MAX_TRACE_BUCKETS = 1024


@dataclass
class TraceMetrics:
    """Compact derived metrics for one traced cycle-level run."""

    #: Total cycles of the traced run.
    cycles: int = 0
    #: Event count by kind.
    event_counts: Dict[str, int] = field(default_factory=dict)
    #: Packets per directed OPN link.
    link_packets: Dict[Link, int] = field(default_factory=dict)
    #: Cycles operands spent queued per directed OPN link.
    link_waits: Dict[Link, int] = field(default_factory=dict)
    #: Packets per OPN traffic class (ET-ET, ET-DT, ...).
    class_packets: Dict[str, int] = field(default_factory=dict)
    #: Instruction issues per execution tile (0..15 on the prototype).
    tile_issues: Dict[int, int] = field(default_factory=dict)
    #: Average instructions in flight per timeline bucket.
    occupancy: List[float] = field(default_factory=list)
    #: Cycles per occupancy bucket.
    bucket_cycles: int = 1
    #: Peak instantaneous block-window population (in instructions),
    #: taken at bucket granularity.
    occupancy_peak: float = 0.0
    #: L1-D bank-conflict wait cycles, total.
    bank_conflict_cycles: int = 0
    #: Store-buffer forwards observed.
    load_forwards: int = 0
    #: Dependence-predictor training flushes observed.
    load_flushes: int = 0
    #: Next-block mispredictions observed (flush events).
    flushes: int = 0

    @property
    def total_hops(self) -> int:
        """Total operand link traversals (= ``opn_hop`` events)."""
        return sum(self.link_packets.values())

    def busiest_links(self, top: int = 5) -> List[Tuple[Link, int]]:
        """The ``top`` most-used directed links, descending by packets."""
        ranked = sorted(self.link_packets.items(),
                        key=lambda item: (-item[1], item[0]))
        return ranked[:top]


def summarize(events: Sequence[TraceEvent], cycles: int,
              buckets: int = DEFAULT_BUCKETS) -> TraceMetrics:
    """Fold an event stream into :class:`TraceMetrics`.

    ``cycles`` is the run's total cycle count (from
    :class:`~repro.uarch.core.CycleStats`); it sets the occupancy
    timeline's extent and the denominators of the utilization views.
    """
    metrics = TraceMetrics(cycles=cycles)
    buckets = max(1, buckets)
    width = max(1, -(-max(cycles, 1) // buckets))
    metrics.bucket_cycles = width
    occupancy = [0.0] * buckets

    counts = metrics.event_counts
    for event in events:
        kind = event.kind
        counts[kind] = counts.get(kind, 0) + 1
        data = event.data
        if kind == "opn_hop":
            link = (data["sx"], data["sy"], data["dx"], data["dy"])
            metrics.link_packets[link] = \
                metrics.link_packets.get(link, 0) + 1
            metrics.link_waits[link] = \
                metrics.link_waits.get(link, 0) + data["wait"]
            klass = data["klass"]
            metrics.class_packets[klass] = \
                metrics.class_packets.get(klass, 0) + 1
        elif kind == "inst_issue":
            tile = data["tile"]
            metrics.tile_issues[tile] = metrics.tile_issues.get(tile, 0) + 1
        elif kind == "block_commit":
            _add_span(occupancy, width, data["dispatch"], data["done"],
                      data["size"])
        elif kind == "bank_conflict":
            metrics.bank_conflict_cycles += data["wait"]
        elif kind == "load_forward":
            metrics.load_forwards += 1
        elif kind == "load_flush":
            metrics.load_flushes += 1
        elif kind == "flush":
            metrics.flushes += 1

    metrics.occupancy = occupancy
    metrics.occupancy_peak = max(occupancy) if occupancy else 0.0
    return metrics


def _add_span(occupancy: List[float], width: int, start: int, end: int,
              weight: int) -> None:
    """Integrate ``weight`` instructions resident over ``[start, end)``
    into the bucketed timeline (fractional overlap per bucket)."""
    if end <= start:
        end = start + 1
    first = max(0, start // width)
    last = min(len(occupancy) - 1, (end - 1) // width)
    for bucket in range(first, last + 1):
        lo = max(start, bucket * width)
        hi = min(end, (bucket + 1) * width)
        if hi > lo:
            occupancy[bucket] += weight * (hi - lo) / width
