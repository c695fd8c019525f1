"""Staged, content-addressed artifact pipeline for the evaluation harness.

See :mod:`repro.pipeline.core` for the stage table, keying and cache
semantics, :mod:`repro.pipeline.observe` for telemetry, and
:mod:`repro.pipeline.parallel` for the process-pool warm fan-out used by
``repro report all --jobs N``.
"""

from repro.pipeline.core import (
    BandwidthArtifact, ChecksumMismatch, CycleArtifact, Pipeline,
    SIMULATION_STAGES, TraceSummary, VARIANT_LEVEL, shared_pipeline,
)
from repro.pipeline.keys import (
    artifact_digest, config_digest, source_digest, stable_digest,
)
from repro.pipeline.observe import CORRUPT, StageCounters, Telemetry
from repro.pipeline.store import (
    SCHEMA_VERSION, ArtifactStore, cache_enabled, default_cache_dir,
)

__all__ = [
    "ArtifactStore",
    "BandwidthArtifact",
    "CORRUPT",
    "ChecksumMismatch",
    "CycleArtifact",
    "Pipeline",
    "SCHEMA_VERSION",
    "SIMULATION_STAGES",
    "StageCounters",
    "Telemetry",
    "TraceSummary",
    "VARIANT_LEVEL",
    "artifact_digest",
    "cache_enabled",
    "config_digest",
    "default_cache_dir",
    "shared_pipeline",
    "source_digest",
    "stable_digest",
]
