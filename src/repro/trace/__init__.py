"""Microarchitectural event tracing for the cycle-level simulators.

Layers (see ``docs/TRACE.md`` for the full reference):

* :mod:`repro.trace.events` — the typed event schema, the tracer
  protocol, and its no-op fast path;
* :mod:`repro.trace.compact` — the delta-encoded compact export format
  and its round-trip reader;
* :mod:`repro.trace.views` — derived metrics (OPN link utilization,
  window-occupancy timeline, per-tile issue histograms) folded into the
  cacheable :class:`TraceMetrics`;
* :mod:`repro.trace.render` — ASCII renderings of those views for the
  CLI.
"""

from repro.trace.compact import (
    FORMAT_NAME, FORMAT_VERSION, TraceFormatError, dump_compact,
    load_compact, read_compact, write_compact,
)
from repro.trace.events import (
    EVENT_SCHEMA, CollectingTracer, EventSpec, NULL_TRACER, TraceEvent,
    Tracer, event_kinds,
)
from repro.trace.render import (
    DENSITY, density_char, node_name, render_event_counts,
    render_occupancy_timeline, render_opn_heatmap, render_tile_histogram,
)
from repro.trace.views import (
    DEFAULT_BUCKETS, MAX_TRACE_BUCKETS, TraceMetrics, summarize,
)

__all__ = [
    "CollectingTracer",
    "DEFAULT_BUCKETS",
    "DENSITY",
    "EVENT_SCHEMA",
    "EventSpec",
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "MAX_TRACE_BUCKETS",
    "NULL_TRACER",
    "TraceEvent",
    "TraceFormatError",
    "TraceMetrics",
    "Tracer",
    "density_char",
    "dump_compact",
    "event_kinds",
    "load_compact",
    "node_name",
    "read_compact",
    "render_event_counts",
    "render_occupancy_timeline",
    "render_opn_heatmap",
    "render_tile_histogram",
    "summarize",
    "write_compact",
]
