"""Live service metrics, backed by the unified obs registry.

Everything ``GET /v1/metrics`` reports funnels through one
:class:`ServeMetrics` instance.  Since PR 10 the backing store is a
private :class:`repro.obs.registry.MetricsRegistry` — the serve
counters live under ``serve.*`` exposition keys, request latencies are
``serve.latency{endpoint=...}`` log-bucket histograms, and the warm
pipeline's :class:`~repro.pipeline.observe.Telemetry` joins the same
registry as a collector — so the legacy ``/v1/metrics`` document and
the schema-versioned ``obs`` exposition inside it are two views of one
store that cannot drift.

Stable counter keys (:data:`STABLE_COUNTERS`) are pre-declared at
zero, so monitoring can alert on ``serve.shed`` or
``serve.dedup.shared`` from the first scrape instead of discovering
keys only after the first shed.  Every exposed key is documented in
``docs/SERVE.md``.

Latencies are folded into fixed log-spaced millisecond buckets rather
than kept as samples, so a long-lived server's memory is O(buckets)
per endpoint and percentiles (p50/p95/p99) are bucket upper-bound
estimates — the standard always-on trade (cf. Prometheus histograms):
cheap forever, precise to one bucket.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional, Tuple

from repro.obs.registry import LogBucketHistogram, MetricsRegistry

__all__ = ["STABLE_COUNTERS", "ServeMetrics"]

#: Service counters guaranteed present (at zero) in every snapshot —
#: the stable-key contract documented in docs/SERVE.md.
STABLE_COUNTERS: Tuple[str, ...] = (
    "artifacts", "dedup.leaders", "dedup.shared", "rate_limited",
    "runs.failed", "runs.ok", "shed", "sweeps", "traces",
)

#: Exposition-key prefix for everything this class records.
_PREFIX = "serve."


class ServeMetrics:
    """Thread-safe aggregation point for everything the service counts."""

    def __init__(self, clock=time.time,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self._clock = clock
        self.started = clock()
        #: The backing registry — private per service instance so two
        #: services in one test process never mix, and exposed so the
        #: service can join the pipeline telemetry collector and the
        #: dashboard can snapshot everything at once.
        self.registry = registry if registry is not None \
            else MetricsRegistry(clock=clock)
        self.registry.declare_counters(
            *(_PREFIX + name for name in STABLE_COUNTERS))
        self._lock = threading.Lock()
        #: (endpoint, status) -> responses sent.  A shadow of the
        #: labeled registry counters, kept so ``snapshot()`` can render
        #: the legacy per-endpoint document without parsing keys.
        self._responses: Dict[Tuple[str, int], int] = {}

    # -- recording ---------------------------------------------------------

    def observe(self, endpoint: str, status: int, seconds: float) -> None:
        self.registry.observe_ms(_PREFIX + "latency", seconds * 1000.0,
                                 {"endpoint": endpoint})
        self.registry.inc(_PREFIX + "responses", 1,
                          {"endpoint": endpoint, "status": status})
        with self._lock:
            key = (endpoint, status)
            self._responses[key] = self._responses.get(key, 0) + 1

    def count(self, name: str, delta: int = 1) -> None:
        self.registry.inc(_PREFIX + name, delta)

    # -- reading -----------------------------------------------------------

    def counter(self, name: str) -> int:
        return self.registry.counter(_PREFIX + name)

    def snapshot(self, telemetry=None,
                 extra: Optional[Dict[str, object]] = None
                 ) -> Dict[str, object]:
        """The full ``/v1/metrics`` document (JSON-ready).

        The legacy sections (``counters`` with bare names,
        ``endpoints`` keyed by endpoint) are rendered from the registry
        for compatibility; the complete schema-versioned exposition —
        serve keys, pipeline stage families from the telemetry
        collector, latency histograms — rides along under ``obs``.
        """
        exposition = self.registry.snapshot()
        counters = {
            key[len(_PREFIX):]: value
            for key, value in exposition["counters"].items()
            if key.startswith(_PREFIX) and "{" not in key}
        with self._lock:
            responses = dict(self._responses)
        endpoints: Dict[str, Dict[str, object]] = {}
        for endpoint in sorted({ep for ep, _status in responses}):
            histogram = self.registry.histogram(
                _PREFIX + "latency", {"endpoint": endpoint})
            entry: Dict[str, object] = histogram.as_dict() \
                if histogram is not None else LogBucketHistogram().as_dict()
            entry["responses"] = {
                str(status): count
                for (ep, status), count in sorted(responses.items())
                if ep == endpoint}
            entry["errors"] = sum(
                count for (ep, status), count in responses.items()
                if ep == endpoint and status >= 400)
            endpoints[endpoint] = entry
        document: Dict[str, object] = {
            "started": round(self.started, 3),
            "uptime_s": round(self._clock() - self.started, 3),
            "counters": counters,
            "endpoints": endpoints,
            "obs": exposition,
        }
        if telemetry is not None:
            cache: Dict[str, object] = {}
            for stage in sorted(telemetry.stages):
                stage_counters = telemetry.counters(stage)
                cache[stage] = {
                    "requests": stage_counters.requests,
                    "memory_hits": stage_counters.memory_hits,
                    "disk_hits": stage_counters.disk_hits,
                    "computes": stage_counters.computes,
                    "hit_rate": round(stage_counters.hit_rate, 4),
                    "corrupt": stage_counters.corrupt_entries,
                }
            document["cache"] = cache
        if extra:
            document.update(extra)
        return document
