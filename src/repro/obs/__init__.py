"""``repro.obs`` — the unified observability spine.

Before this package the repository had four telemetry islands, each
with its own counters, formats, and lifecycle:
:class:`repro.pipeline.observe.Telemetry` (per-stage cache counters),
:class:`repro.serve.metrics.ServeMetrics` (service counters and
latency histograms), :mod:`repro.trace` (microarchitectural events),
and :mod:`repro.perf.benchfile` (host benchmark documents).  They
correlated only through the shared run id (:mod:`repro.runctx`), and
none of them survived the process or answered "what ran last week?".

``repro.obs`` gives every layer one spine with three pieces; the
service's counters and latency histograms stay with their only user,
:class:`repro.serve.metrics.ServeMetrics`, behind ``GET /v1/metrics``.

:mod:`repro.obs.spans`
    Cross-subsystem **spans**: ``with obs.span("stage.exec", ...)``
    around pipeline stages, sweep points, supervised attempts, and
    serve requests.  Zero overhead when off (one module-global check);
    when on, one JSONL line per span, exportable to the Chrome
    trace-event format Perfetto loads (``repro spans export``).

:mod:`repro.obs.runindex`
    The **persisted run index** — an SQLite store (by default
    ``.repro-cache/index.db``) every pipeline run, sweep, chaos drill,
    perf bench, and serve request appends one row to: run id, git SHA,
    digests, wall time, outcome, headline metrics.  Queried by
    ``repro runs list|show|query`` and rendered by the dashboard.

:mod:`repro.obs.events` / :mod:`repro.obs.dashboard`
    The **live view**: a bounded in-process event bus behind the serve
    service's ``GET /v1/events`` long-poll endpoint, and the
    stdlib-rendered ``GET /v1/dashboard`` HTML page over the run index
    and the ``/v1/metrics`` document.

``docs/OBSERVABILITY.md`` documents the span record, the index tables,
and the dashboard walkthrough.
"""

from repro.obs.spans import (
    ENV_SPANS, SpanRecorder, export_chrome, install_recorder, span,
    spans_active, uninstall_recorder,
)
from repro.obs.runindex import (
    INDEX_FILE, INDEX_SCHEMA_VERSION, RunIndex, annotate_run,
    consume_annotations, default_index_path, record_run,
)
from repro.obs.events import EventBus

__all__ = [
    "ENV_SPANS", "SpanRecorder", "export_chrome", "install_recorder",
    "span", "spans_active", "uninstall_recorder",
    "INDEX_FILE", "INDEX_SCHEMA_VERSION", "RunIndex", "annotate_run",
    "consume_annotations", "default_index_path", "record_run",
    "EventBus",
]
