"""Per-stage observability: counters and wall-clock timers.

The :class:`Telemetry` object is the single aggregation point; every
stage resolution (memory hit, disk hit, or compute) records one event
with its wall time.  ``profile()`` renders the counters as a
``(headers, rows)`` pair so the CLI and the benchmark harness can print
a pipeline profile with the shared table formatter without this module
depending on :mod:`repro.eval`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.registry import default_registry, format_metric_key

#: Event kinds recorded per stage.
MEMORY_HIT = "memory-hit"
DISK_HIT = "disk-hit"
COMPUTE = "compute"
STORE = "store"
#: A cache entry failed to load/verify and was quarantined
#: (see :meth:`repro.pipeline.store.ArtifactStore.quarantine`).
CORRUPT = "corrupt"


@dataclass
class StageCounters:
    """Aggregate hit/miss/timing counters for one pipeline stage."""

    memory_hits: int = 0
    disk_hits: int = 0
    computes: int = 0
    stores: int = 0
    corrupt_entries: int = 0
    compute_seconds: float = 0.0
    load_seconds: float = 0.0

    @property
    def requests(self) -> int:
        return self.memory_hits + self.disk_hits + self.computes

    @property
    def hit_rate(self) -> float:
        total = self.requests
        return (self.memory_hits + self.disk_hits) / total if total else 0.0

    def record(self, event: str, seconds: float) -> None:
        if event == MEMORY_HIT:
            self.memory_hits += 1
        elif event == DISK_HIT:
            self.disk_hits += 1
            self.load_seconds += seconds
        elif event == COMPUTE:
            self.computes += 1
            self.compute_seconds += seconds
        elif event == STORE:
            self.stores += 1
        elif event == CORRUPT:
            self.corrupt_entries += 1

    def merge(self, other: "StageCounters") -> None:
        self.memory_hits += other.memory_hits
        self.disk_hits += other.disk_hits
        self.computes += other.computes
        self.stores += other.stores
        self.corrupt_entries += other.corrupt_entries
        self.compute_seconds += other.compute_seconds
        self.load_seconds += other.load_seconds


#: Fields a :class:`StageCounters` instance actually has — the merge
#: contract for cross-version telemetry dicts (see ``merge_dict``).
_COUNTER_FIELDS = frozenset(
    f.name for f in dataclasses.fields(StageCounters))


class Telemetry:
    """Per-stage counters for one pipeline (mergeable across processes).

    Every instance registers itself (weakly) as a *collector* on the
    process-wide :class:`repro.obs.MetricsRegistry`: the registry pulls
    :meth:`collect_obs` at snapshot time, so the per-record hot path —
    exercised once per cache probe — pays nothing for the unified
    exposition.  Pass ``register=False`` for throwaway instances that
    must stay out of shared snapshots (merge scratch space, tests).
    """

    def __init__(self, register: bool = True) -> None:
        self.stages: Dict[str, StageCounters] = {}
        if register:
            default_registry().register_collector(self.collect_obs)

    def record(self, stage: str, event: str, seconds: float = 0.0) -> None:
        self.stages.setdefault(stage, StageCounters()).record(event, seconds)

    def counters(self, stage: str) -> StageCounters:
        return self.stages.setdefault(stage, StageCounters())

    def computes(self, stages: Optional[Sequence[str]] = None) -> int:
        """Total cache-miss computations (optionally for a stage subset)."""
        return sum(c.computes for name, c in self.stages.items()
                   if stages is None or name in stages)

    def merge(self, other: "Telemetry") -> None:
        for name, counters in other.stages.items():
            self.counters(name).merge(counters)

    # -- export/import for cross-process aggregation ----------------------

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        return {name: vars(c).copy() for name, c in self.stages.items()}

    def merge_dict(self, data: Dict[str, Dict[str, float]]) -> None:
        """Fold a counter dict (``as_dict`` output) into this telemetry.

        Tolerant of schema drift across worker versions: counter fields
        this process does not know are dropped, and fields the sender
        did not record default to zero — a mixed-version fan-out merges
        the counters both sides share instead of crashing.
        """
        for name, fields in data.items():
            known = {key: value for key, value in fields.items()
                     if key in _COUNTER_FIELDS}
            self.counters(name).merge(StageCounters(**known))

    # -- unified registry exposition --------------------------------------

    def collect_obs(self):
        """Metric families for :class:`repro.obs.MetricsRegistry`:
        ``pipeline.stage.<counter>{stage=...}`` counters plus the two
        wall-clock accumulators as gauges (seconds)."""
        counters: Dict[str, int] = {}
        gauges: Dict[str, float] = {}
        for name, c in list(self.stages.items()):
            labels = {"stage": name}
            counters[format_metric_key(
                "pipeline.stage.memory_hits", labels)] = c.memory_hits
            counters[format_metric_key(
                "pipeline.stage.disk_hits", labels)] = c.disk_hits
            counters[format_metric_key(
                "pipeline.stage.computes", labels)] = c.computes
            counters[format_metric_key(
                "pipeline.stage.stores", labels)] = c.stores
            counters[format_metric_key(
                "pipeline.stage.corrupt", labels)] = c.corrupt_entries
            gauges[format_metric_key(
                "pipeline.stage.compute_seconds", labels)] = \
                round(c.compute_seconds, 6)
            gauges[format_metric_key(
                "pipeline.stage.load_seconds", labels)] = \
                round(c.load_seconds, 6)
        return counters, gauges, {}

    # -- rendering --------------------------------------------------------

    def profile(self) -> Tuple[List[str], List[List[object]]]:
        """``(headers, rows)`` for the ``--profile`` summary table."""
        headers = ["Stage", "req", "mem hit", "disk hit", "miss",
                   "hit%", "compute s", "load s", "corrupt"]
        rows: List[List[object]] = []
        for name in sorted(self.stages):
            c = self.stages[name]
            rows.append([name, c.requests, c.memory_hits, c.disk_hits,
                         c.computes, 100.0 * c.hit_rate,
                         c.compute_seconds, c.load_seconds,
                         c.corrupt_entries])
        total = StageCounters()
        for c in self.stages.values():
            total.merge(c)
        rows.append(["TOTAL", total.requests, total.memory_hits,
                     total.disk_hits, total.computes,
                     100.0 * total.hit_rate, total.compute_seconds,
                     total.load_seconds, total.corrupt_entries])
        return headers, rows
