"""Grid expansion: a :class:`SweepSpec` -> validated design points.

Expansion is the cartesian product of the spec's axes crossed with its
benchmark list, in deterministic order (benchmarks outermost, axes in
spec order, values in listed order), so point indices and labels are
stable across runs — they serve as supervision unit labels, fault-plan
sites, and JSONL record keys.

Every point's configuration is built and **validated during
expansion** (:meth:`TripsConfig.validate` for ``cycles`` sweeps, the
ideal parameter domains for ``ideal`` sweeps), so an out-of-domain
axis value rejects the whole sweep with the offending point named —
before any simulation runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.explore.spec import (
    IDEAL_AXES, SpecError, SweepSpec, check_ideal_value,
)
from repro.uarch.config import ConfigError, TripsConfig

__all__ = ["DesignPoint", "MAX_POINTS", "expand"]

#: Refuse to expand absurdly large grids (a typo'd axis can explode
#: combinatorially); restrict axes with ``--points`` instead.
MAX_POINTS = 5000


@dataclass(frozen=True)
class DesignPoint:
    """One fully-specified simulation in a sweep."""

    index: int
    benchmark: str
    variant: str
    system: str
    #: Axis name -> value for this point (fixed settings included).
    settings: Tuple[Tuple[str, Any], ...]

    @property
    def label(self) -> str:
        """Stable unit label: ``bench/axis=value,axis=value``."""
        parts = ",".join(f"{k}={v}" for k, v in self.settings)
        return f"{self.benchmark}/{parts}" if parts else self.benchmark

    @property
    def settings_dict(self) -> Dict[str, Any]:
        return dict(self.settings)

    def config(self) -> Optional[TripsConfig]:
        """The :class:`TripsConfig` for a ``cycles`` point (validated);
        ``None`` for ``ideal`` points."""
        if self.system != "cycles":
            return None
        return TripsConfig(**self.settings_dict).validate()

    def ideal_params(self) -> Tuple[int, int]:
        """``(window, dispatch_cost)`` for an ``ideal`` point."""
        settings = self.settings_dict
        return (settings.get("window", IDEAL_AXES["window"][0]),
                settings.get("dispatch_cost",
                             IDEAL_AXES["dispatch_cost"][0]))

    def payload(self) -> Dict[str, Any]:
        """Picklable worker payload / JSONL record core."""
        return {"index": self.index, "label": self.label,
                "benchmark": self.benchmark, "variant": self.variant,
                "system": self.system,
                "settings": self.settings_dict}


def _validate_point(point: DesignPoint) -> None:
    if point.system == "cycles":
        try:
            point.config()
        except ConfigError as exc:
            raise SpecError(f"point {point.label!r}: {exc}") from None
        return
    window, dispatch_cost = point.ideal_params()
    for name, value in (("window", window),
                        ("dispatch_cost", dispatch_cost)):
        try:
            check_ideal_value(name, value)
        except SpecError as exc:
            raise SpecError(f"point {point.label!r}: {exc}") from None


def expand(spec: SweepSpec) -> List[DesignPoint]:
    """All design points of ``spec``, validated, in stable order."""
    count = spec.point_count()
    if count > MAX_POINTS:
        raise SpecError(
            f"sweep {spec.name!r} expands to {count} points "
            f"(limit {MAX_POINTS}); restrict an axis with --points")
    axis_names = spec.axis_names
    value_lists = [spec.axis_values(name) for name in axis_names]
    fixed = tuple(spec.fixed)
    points: List[DesignPoint] = []
    for benchmark in spec.benchmarks:
        for combo in itertools.product(*value_lists):
            settings = fixed + tuple(zip(axis_names, combo))
            point = DesignPoint(
                index=len(points), benchmark=benchmark,
                variant=spec.variant, system=spec.system,
                settings=settings)
            _validate_point(point)
            points.append(point)
    return points


def baseline_settings(spec: SweepSpec) -> Tuple[Tuple[str, Any], ...]:
    """The sensitivity baseline: every axis at its baseline value."""
    return tuple(spec.fixed) + tuple(
        (name, spec.baseline_value(name)) for name in spec.axis_names)
