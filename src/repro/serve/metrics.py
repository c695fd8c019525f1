"""Live service metrics: the one store behind ``GET /v1/metrics``.

Everything the service counts funnels through one :class:`ServeMetrics`
instance: plain counter, latency-histogram and response-count dicts
under one lock, so a snapshot is consistent across its sections (an
endpoint's ``responses`` always sum to its ``count``).  The same
document is what the drain writes to ``<spool>/metrics.json`` and what
``GET /v1/dashboard`` renders.

Stable counter keys (:data:`STABLE_COUNTERS`) start at zero, so
monitoring can alert on ``shed`` or ``dedup.shared`` from the first
scrape instead of discovering keys only after the first shed.  Every
exposed key is documented in ``docs/SERVE.md``.

Latencies are folded into fixed log-spaced millisecond buckets rather
than kept as samples, so a long-lived server's memory is O(buckets)
per endpoint and percentiles (p50/p95/p99) are bucket upper-bound
estimates — the standard always-on trade (cf. Prometheus histograms):
cheap forever, precise to one bucket.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Tuple

__all__ = ["BUCKET_BOUNDS_MS", "LogBucketHistogram", "STABLE_COUNTERS",
           "ServeMetrics"]

#: Histogram bucket upper bounds, milliseconds (log-spaced, +inf last).
BUCKET_BOUNDS_MS: Tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000,
    float("inf"))

#: Service counters guaranteed present (at zero) in every snapshot —
#: the stable-key contract documented in docs/SERVE.md.
STABLE_COUNTERS: Tuple[str, ...] = (
    "artifacts", "dedup.leaders", "dedup.shared", "rate_limited",
    "runs.failed", "runs.ok", "shed", "sweeps", "traces",
)


class LogBucketHistogram:
    """Fixed log-bucket histogram with percentile estimation.

    Observations fold into :data:`BUCKET_BOUNDS_MS` buckets rather
    than being kept as samples, so memory is O(buckets) per series and
    percentiles are bucket upper-bound estimates.
    """

    def __init__(self) -> None:
        self.counts: List[int] = [0] * len(BUCKET_BOUNDS_MS)
        self.total = 0
        self.sum_ms = 0.0
        self.max_ms = 0.0

    def observe(self, ms: float) -> None:
        for index, bound in enumerate(BUCKET_BOUNDS_MS):
            if ms <= bound:
                self.counts[index] += 1
                break
        self.total += 1
        self.sum_ms += ms
        self.max_ms = max(self.max_ms, ms)

    def percentile(self, quantile: float) -> float:
        """Upper bound of the bucket containing the ``quantile`` rank
        (0 with no observations; the last finite bound for +inf).

        Boundary semantics (pinned by tests): the rank is
        ``quantile * total`` and a bucket satisfies the rank when the
        cumulative count *reaches* it — so a 2-sample stream puts p50
        exactly on the first sample's bucket and p95/p99 on the
        second's.
        """
        if not self.total:
            return 0.0
        rank = quantile * self.total
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank and bucket_count:
                bound = BUCKET_BOUNDS_MS[index]
                return bound if bound != float("inf") \
                    else BUCKET_BOUNDS_MS[-2]
        return BUCKET_BOUNDS_MS[-2]

    def as_dict(self) -> Dict[str, object]:
        return {
            "count": self.total,
            "sum_ms": round(self.sum_ms, 3),
            "mean_ms": round(self.sum_ms / self.total, 3)
            if self.total else 0.0,
            "max_ms": round(self.max_ms, 3),
            "p50_ms": self.percentile(0.50),
            "p95_ms": self.percentile(0.95),
            "p99_ms": self.percentile(0.99),
            "buckets": {
                ("+inf" if bound == float("inf") else f"{bound:g}"): count
                for bound, count in zip(BUCKET_BOUNDS_MS, self.counts)
                if count},
        }


class ServeMetrics:
    """Thread-safe aggregation point for everything the service counts."""

    def __init__(self) -> None:
        self.started = time.time()
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = dict.fromkeys(STABLE_COUNTERS, 0)
        self._latency: Dict[str, LogBucketHistogram] = {}
        #: (endpoint, status) -> responses sent.
        self._responses: Dict[Tuple[str, int], int] = {}

    # -- recording ---------------------------------------------------------

    def observe(self, endpoint: str, status: int, seconds: float) -> None:
        with self._lock:
            histogram = self._latency.get(endpoint)
            if histogram is None:
                histogram = self._latency[endpoint] = LogBucketHistogram()
            histogram.observe(seconds * 1000.0)
            key = (endpoint, status)
            self._responses[key] = self._responses.get(key, 0) + 1

    def count(self, name: str, delta: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + delta

    # -- reading -----------------------------------------------------------

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self, telemetry) -> Dict[str, object]:
        """The service's part of the ``/v1/metrics`` document
        (JSON-ready): ``counters`` by name, ``endpoints`` keyed by
        endpoint, and a ``cache`` row per stage of ``telemetry`` (the
        warm pipeline's :class:`~repro.pipeline.observe.Telemetry`)."""
        with self._lock:
            counters = dict(sorted(self._counters.items()))
            endpoints: Dict[str, Dict[str, object]] = {}
            for endpoint in sorted(self._latency):
                entry = self._latency[endpoint].as_dict()
                responses = [(status, count) for (ep, status), count
                             in sorted(self._responses.items())
                             if ep == endpoint]
                entry["responses"] = {str(status): count
                                      for status, count in responses}
                entry["errors"] = sum(count for status, count in responses
                                      if status >= 400)
                endpoints[endpoint] = entry
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
                "stores": stage_counters.stores,
                "compute_seconds": round(stage_counters.compute_seconds, 6),
                "load_seconds": round(stage_counters.load_seconds, 6),
            }
        return {
            "started": round(self.started, 3),
            "uptime_s": round(time.time() - self.started, 3),
            "counters": counters,
            "endpoints": endpoints,
            "cache": cache,
        }
