"""Declarative sweep specifications (``repro sweep``).

A **sweep spec** names a slice of the TRIPS design space: which
simulator to drive (``cycles`` or ``ideal``), which benchmarks to run,
and a set of **axes** — named parameters with the list of values to
explore.  The grid is the full cartesian product of the axes crossed
with the benchmark list (see :mod:`repro.explore.grid`).

Axis names are validated *structurally* here, before any simulation:

* ``system: cycles`` — every axis must be a real :class:`TripsConfig`
  field of the right type (a typo gets a did-you-mean error);
* ``system: ideal`` — axes come from the ideal machine's two
  parameters, ``window`` and ``dispatch_cost`` (Figure 10).

Value *domains* (positive counts, power-of-two geometry, …) are
checked per design point during grid expansion via
:meth:`TripsConfig.validate`, so an out-of-domain sweep also fails
before the first simulation.

Specs load from JSON or TOML files, from named presets
(:mod:`repro.explore.presets`), or from ``KEY=VALUE`` override strings
— the same parser serves ``repro sweep --points`` and
``repro run --config``, so single-point what-if runs and sweeps share
one config-override code path.
"""

from __future__ import annotations

import dataclasses
import difflib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.uarch.config import ConfigError, TripsConfig, component_tables
from repro.uarch.ideal import DEFAULT_DISPATCH_COST, DEFAULT_WINDOW

__all__ = [
    "IDEAL_AXES", "SPEC_KEYS", "SpecError", "SweepSpec", "axis_domain",
    "check_ideal_value", "load_spec", "parse_overrides", "parse_value",
]


class SpecError(ValueError):
    """A sweep spec (or ``KEY=VALUE`` override) is invalid.

    Always raised before any simulation runs, with a message naming the
    offending axis/field/value.
    """


#: TripsConfig field name -> declared type string ("int", "bool", "str").
CONFIG_FIELDS: Dict[str, str] = {
    f.name: f.type for f in dataclasses.fields(TripsConfig)}


def _check_component_value(axis: str, value: str) -> str:
    """A component-selection axis must name an entry of that field's
    table, checked here — before any simulation — with
    :meth:`TripsConfig.validate`'s did-you-mean, so
    ``opn_topology=taurus`` fails like any typo'd axis."""
    if axis in component_tables():
        try:
            TripsConfig(**{axis: value}).validate()
        except ConfigError as error:
            raise SpecError(f"axis {axis!r}: {error}") from None
    return value


#: Ideal-machine axes: name -> (default, minimum legal value).
IDEAL_AXES: Dict[str, Tuple[int, int]] = {
    "window": (DEFAULT_WINDOW, 1),
    "dispatch_cost": (DEFAULT_DISPATCH_COST, 0),
}

#: Legal top-level keys of a spec document.
SPEC_KEYS = ("name", "description", "system", "benchmarks", "suite",
             "variant", "axes", "fixed")

_SYSTEMS = ("cycles", "ideal")
_VARIANTS = ("compiled", "hand")


def _suggest(name: str, candidates: Iterable[str]) -> str:
    close = difflib.get_close_matches(name, list(candidates), n=1)
    return f" — did you mean {close[0]!r}?" if close else ""


def check_ideal_value(axis: str, value: Any) -> Any:
    """An ideal-machine axis value must be an int at or above the axis's
    minimum in :data:`IDEAL_AXES`."""
    minimum = IDEAL_AXES[axis][1]
    if not isinstance(value, int) or isinstance(value, bool) \
            or value < minimum:
        raise SpecError(
            f"{axis} must be an int >= {minimum}, got {value!r}")
    return value


def axis_domain(system: str) -> Dict[str, str]:
    """Legal axis names for ``system`` -> expected type string."""
    if system == "cycles":
        return dict(CONFIG_FIELDS)
    return {name: "int" for name in IDEAL_AXES}


def parse_value(axis: str, text: str, expected: str):
    """Parse one textual override value to the axis's declared type."""
    text = text.strip()
    if expected == "bool":
        lowered = text.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise SpecError(
            f"axis {axis!r}: expected a bool, got {text!r}")
    if expected == "str":
        return _check_component_value(axis, text)
    try:
        return int(text, 0)
    except ValueError:
        raise SpecError(
            f"axis {axis!r}: expected an int, got {text!r}") from None


def _check_value(axis: str, value: Any, expected: str) -> Any:
    if expected == "bool":
        if not isinstance(value, bool):
            raise SpecError(
                f"axis {axis!r}: expected a bool, got {value!r}")
        return value
    if expected == "str":
        if not isinstance(value, str):
            raise SpecError(
                f"axis {axis!r}: expected a string, got {value!r}")
        return _check_component_value(axis, value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise SpecError(
            f"axis {axis!r}: expected an int, got {value!r}")
    return value


def _check_axis_name(name: str, system: str) -> str:
    domain = axis_domain(system)
    if name not in domain:
        if system == "ideal":
            raise SpecError(
                f"unknown ideal-machine axis {name!r} (the ideal model "
                f"has exactly two knobs: "
                f"{', '.join(sorted(IDEAL_AXES))})"
                f"{_suggest(name, IDEAL_AXES)}")
        raise SpecError(
            f"unknown TripsConfig field {name!r}"
            f"{_suggest(name, CONFIG_FIELDS)}")
    return domain[name]


def parse_overrides(items: Optional[Sequence[str]],
                    system: str = "cycles") -> Dict[str, Any]:
    """Parse ``KEY=VALUE[,KEY=VALUE...]`` strings into a validated dict.

    The shared override path of ``repro run --config`` and sweep
    ``fixed`` settings: axis names are validated against ``system``'s
    domain and values are type-checked, so a typo fails with the same
    error a bad sweep spec would.
    """
    overrides: Dict[str, Any] = {}
    for item in items or ():
        for part in item.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise SpecError(
                    f"override {part!r} is not of the form KEY=VALUE")
            name, _, text = part.partition("=")
            name = name.strip()
            expected = _check_axis_name(name, system)
            if name in overrides:
                raise SpecError(f"duplicate override for {name!r}")
            overrides[name] = parse_value(name, text, expected)
            if system == "ideal":
                check_ideal_value(name, overrides[name])
    return overrides


def validate_settings(settings: Optional[Dict[str, Any]],
                      system: str = "cycles") -> Dict[str, Any]:
    """Validate an already-parsed settings mapping (JSON bodies).

    The dict-shaped sibling of :func:`parse_overrides`: axis names are
    checked against ``system``'s domain (with did-you-mean
    suggestions) and values are type-checked without string parsing —
    the ``repro serve`` request path shares the sweep spec's error
    story this way.
    """
    validated: Dict[str, Any] = {}
    for name, value in (settings or {}).items():
        expected = _check_axis_name(str(name), system)
        validated[str(name)] = _check_value(str(name), value, expected)
        if system == "ideal":
            check_ideal_value(str(name), value)
    return validated


def parse_axis_points(items: Optional[Sequence[str]],
                      system: str) -> Dict[str, List[Any]]:
    """Parse ``--points AXIS=V1,V2,...`` occurrences (one axis each)."""
    axes: Dict[str, List[Any]] = {}
    for item in items or ():
        if "=" not in item:
            raise SpecError(
                f"--points {item!r} is not of the form AXIS=V1,V2,...")
        name, _, rest = item.partition("=")
        name = name.strip()
        expected = _check_axis_name(name, system)
        values = [parse_value(name, text, expected)
                  for text in rest.split(",") if text.strip()]
        if not values:
            raise SpecError(f"--points {name!r}: no values given")
        axes[name] = _dedupe(name, values)
    return axes


def _dedupe(axis: str, values: Sequence[Any]) -> List[Any]:
    seen = set()
    out = []
    for value in values:
        key = (type(value).__name__, value)
        if key in seen:
            raise SpecError(
                f"axis {axis!r}: duplicate value {value!r}")
        seen.add(key)
        out.append(value)
    return out


@dataclass(frozen=True)
class SweepSpec:
    """A validated, immutable sweep definition."""

    name: str
    system: str
    benchmarks: Tuple[str, ...]
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...]
    variant: str = "compiled"
    fixed: Tuple[Tuple[str, Any], ...] = ()
    description: str = ""

    @property
    def axis_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _values in self.axes)

    def axis_values(self, name: str) -> Tuple[Any, ...]:
        for axis, values in self.axes:
            if axis == name:
                return values
        raise KeyError(name)

    def baseline_value(self, name: str):
        """The axis value sensitivity analysis holds others at: the
        machine default when it is swept, else the axis's first value."""
        values = self.axis_values(name)
        if self.system == "ideal":
            default = IDEAL_AXES[name][0]
        else:
            default = getattr(TripsConfig(), name)
        return default if default in values else values[0]

    def point_count(self) -> int:
        count = len(self.benchmarks)
        for _name, values in self.axes:
            count *= len(values)
        return count

    def with_axes(self, override: Dict[str, List[Any]]) -> "SweepSpec":
        """A copy with some axes' value lists replaced (``--points``)."""
        for name in override:
            _check_axis_name(name, self.system)
        axes = []
        replaced = set()
        for name, values in self.axes:
            if name in override:
                replaced.add(name)
                axes.append((name, tuple(override[name])))
            else:
                axes.append((name, values))
        for name, values in override.items():
            if name not in replaced:
                axes.append((name, tuple(values)))
        return dataclasses.replace(self, axes=tuple(axes))

    def with_benchmarks(self, names: Sequence[str]) -> "SweepSpec":
        """A copy restricted to ``names`` (all must be in the spec)."""
        missing = [n for n in names if n not in self.benchmarks]
        if missing:
            raise SpecError(
                f"benchmark(s) {', '.join(missing)} not in sweep "
                f"{self.name!r} (has: {', '.join(self.benchmarks)})")
        return dataclasses.replace(self, benchmarks=tuple(names))

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Dict[str, Any],
                  name: str = "sweep") -> "SweepSpec":
        """Validate a spec document (parsed JSON/TOML or a preset)."""
        if not isinstance(data, dict):
            raise SpecError(f"spec must be a table/object, got "
                            f"{type(data).__name__}")
        unknown = sorted(set(data) - set(SPEC_KEYS))
        if unknown:
            raise SpecError(
                f"unknown spec key(s) {', '.join(map(repr, unknown))}"
                f"{_suggest(unknown[0], SPEC_KEYS)}")

        system = data.get("system", "cycles")
        if system not in _SYSTEMS:
            raise SpecError(
                f"system must be one of {', '.join(_SYSTEMS)}, got "
                f"{system!r}")
        variant = data.get("variant", "compiled")
        if variant not in _VARIANTS:
            raise SpecError(
                f"variant must be one of {', '.join(_VARIANTS)}, got "
                f"{variant!r}")

        benchmarks = cls._resolve_benchmarks(data, variant)

        raw_axes = data.get("axes")
        if not isinstance(raw_axes, dict) or not raw_axes:
            raise SpecError("spec needs a non-empty 'axes' table "
                            "(axis name -> list of values)")
        axes: List[Tuple[str, Tuple[Any, ...]]] = []
        for axis, values in raw_axes.items():
            expected = _check_axis_name(axis, system)
            if not isinstance(values, (list, tuple)) or not values:
                raise SpecError(
                    f"axis {axis!r}: expected a non-empty list of "
                    f"values, got {values!r}")
            checked = [_check_value(axis, v, expected) for v in values]
            axes.append((axis, tuple(_dedupe(axis, checked))))

        fixed_raw = data.get("fixed", {})
        if not isinstance(fixed_raw, dict):
            raise SpecError("'fixed' must be a table of KEY: value")
        fixed = []
        for key, value in fixed_raw.items():
            expected = _check_axis_name(key, system)
            if any(key == axis for axis, _v in axes):
                raise SpecError(
                    f"{key!r} appears in both 'axes' and 'fixed'")
            fixed.append((key, _check_value(key, value, expected)))

        return cls(name=str(data.get("name", name)), system=system,
                   benchmarks=benchmarks, axes=tuple(axes),
                   variant=variant, fixed=tuple(fixed),
                   description=str(data.get("description", "")))

    @staticmethod
    def _resolve_benchmarks(data: Dict[str, Any],
                            variant: str) -> Tuple[str, ...]:
        from repro.bench import by_suite, suite_names
        from repro.bench.suites import _REGISTRY, _ensure_loaded

        _ensure_loaded()
        names: List[str]
        if "suite" in data:
            if "benchmarks" in data:
                raise SpecError(
                    "give either 'benchmarks' or 'suite', not both")
            suite = data["suite"]
            if suite not in suite_names():
                raise SpecError(
                    f"unknown suite {suite!r}"
                    f"{_suggest(suite, suite_names())}")
            names = sorted(b.name for b in by_suite(suite))
        else:
            raw = data.get("benchmarks")
            if not isinstance(raw, (list, tuple)) or not raw:
                raise SpecError(
                    "spec needs 'benchmarks' (non-empty list) or 'suite'")
            names = [str(n) for n in raw]
        for bench in names:
            if bench not in _REGISTRY:
                raise SpecError(
                    f"unknown benchmark {bench!r}"
                    f"{_suggest(bench, _REGISTRY)}")
            if variant == "hand" and not _REGISTRY[bench].has_hand:
                raise SpecError(
                    f"benchmark {bench!r} has no hand-optimized variant")
        return tuple(names)


def load_spec(source) -> SweepSpec:
    """Load a spec from a ``.json`` / ``.toml`` file path."""
    path = Path(source)
    if not path.exists():
        raise SpecError(f"spec file {path} does not exist")
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".toml":
        try:
            import tomllib
        except ImportError:  # Python < 3.11: JSON specs still work.
            raise SpecError(
                "TOML specs need Python >= 3.11 (tomllib); use JSON "
                "instead") from None
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise SpecError(f"{path}: invalid TOML: {exc}") from None
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}: invalid JSON: {exc}") from None
    return SweepSpec.from_dict(data, name=path.stem)
