"""``repro serve`` — an always-warm simulation service.

A cold ``repro run`` pays interpreter start-up, benchmark decode, IR
optimization, and TRIPS lowering before a single cycle simulates; the
artifact cache removes the *recompute* but not the *process* cost.
This subsystem keeps one warm :class:`~repro.pipeline.core.Pipeline`
(in-memory stage cache + open artifact store) resident behind a small
stdlib HTTP API, so repeated evaluation requests — interactive
exploration, dashboards, agents sweeping the configuration space —
pay marginal cost only.

Layers, separately testable:

* :mod:`repro.serve.service` — :class:`SimService`, the HTTP-free
  core semantics: validation, dedup, the run executor, faults, drain.
* :mod:`repro.serve.server` — the ``ThreadingHTTPServer`` adapter
  (:class:`ReproServer`), routing, rate limiting, request scoping.
* :mod:`repro.serve.client` — :class:`ServeClient`, the stdlib
  urllib client used by tests, perf, and the CI smoke drill.
* :mod:`repro.serve.dedup` / :mod:`~repro.serve.ratelimit` /
  :mod:`~repro.serve.metrics` — the mechanisms: in-flight table keyed
  by artifact digest, token buckets, counters and latency histograms.
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.dedup import InFlightEntry, InFlightTable
from repro.serve.metrics import ServeMetrics
from repro.serve.ratelimit import RateLimiter
from repro.serve.server import ReproServer
from repro.serve.service import HttpError, ServeConfig, SimService

__all__ = [
    "HttpError",
    "InFlightEntry",
    "InFlightTable",
    "RateLimiter",
    "ReproServer",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServeMetrics",
    "SimService",
]
