"""Pluggable microarchitecture components: interfaces and registry.

The cycle simulator is assembled from three swappable component kinds,
each behind a narrow interface and selected by name through a
:class:`TripsConfig` field:

==============  =====================  ==========================  =========
kind            interface              ``TripsConfig`` field       default
==============  =====================  ==========================  =========
``topology``    :class:`OpnTopology`   ``opn_topology``            ``mesh``
``predictor``   :class:`NextBlockPredictorABC`  ``predictor_kind``  ``tournament``
``memory``      :class:`MemoryHierarchyABC`     ``memory_kind``     ``trips``
==============  =====================  ==========================  =========

Selections flow into the full-field config digest
(:func:`repro.pipeline.keys.config_digest`), so two runs that differ
only in a component choice can never share a cache slot, and they are
sweepable axes like any other config field (``repro sweep
opn-topology``).

Default implementations register themselves on import of their home
modules (:mod:`repro.uarch.topologies`, :mod:`repro.uarch.predictor`,
:mod:`repro.uarch.caches`); the registry loads them lazily so
``import repro.uarch.components`` alone stays cheap and cycle-free.  Third-party variants register the same way::

    from repro.uarch import components

    @components.TOPOLOGIES.register("my-topo")
    def _build(config):
        return MyTopology(config.ets_per_side)

``docs/COMPONENTS.md`` documents each interface contract and the
checklist for adding a variant.
"""

from __future__ import annotations

import difflib
from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Tuple

__all__ = [
    "COMPONENT_FIELDS", "ComponentError", "ComponentRegistry", "MEMORIES",
    "MemoryHierarchyABC", "NextBlockPredictorABC", "OpnTopology",
    "PREDICTORS", "TOPOLOGIES", "component_names", "create_memory",
    "create_predictor", "create_topology", "registry",
    "validate_selection",
]

Coord = Tuple[int, int]
Link = Tuple[Coord, Coord]


class ComponentError(ValueError):
    """An unknown or conflicting component registration/selection.

    Raised with a did-you-mean suggestion and the registered names, so
    a typo'd selection fails the same way a typo'd sweep axis does.
    """


# ---------------------------------------------------------------------------
# Interfaces
# ---------------------------------------------------------------------------

class OpnTopology(ABC):
    """Operand-network topology: coordinates, routing, and wiring cost.

    The coordinate layout is the prototype floorplan contract shared by
    the simulator's traffic classifier and the trace heatmaps: column 0
    holds the global tile (0,0) and the data tiles (0, 1..banks), row 0
    holds the register tiles (1..banks, 0), and the execution array
    occupies (1..grid, 1..grid).  A topology may route between those
    coordinates however it likes (mesh, torus, wider links, ...) but
    must keep the placement itself fixed.
    """

    #: Registry name (set by the factory/registration site).
    name: str = "?"
    #: Independent 64-bit channels per directed link (1 = prototype).
    link_channels: int = 1
    #: Last bucket of the per-class hop histogram; hops beyond this
    #: clamp into it (the paper's Figure 8 plots 0..5 with a 5+ bucket).
    hop_buckets: int = 5
    #: Traffic classes this topology carries (operand statistics are
    #: keyed by these — see :class:`repro.uarch.opn.OpnStats`).
    traffic_classes: Tuple[str, ...] = (
        "ET-ET", "ET-DT", "ET-RT", "ET-GT", "DT-RT", "RT-RT")

    def __init__(self, grid: int = 4) -> None:
        #: Execution tiles per side; the node array is (grid+1)^2.
        self.grid = grid
        self.side = grid + 1

    # -- coordinates (fixed floorplan) ----------------------------------

    def et_coord(self, tile: int) -> Coord:
        return (tile % self.grid + 1, tile // self.grid + 1)

    def dt_coord(self, bank: int) -> Coord:
        return (0, bank + 1)

    def rt_coord(self, bank: int) -> Coord:
        return (bank + 1, 0)

    @property
    def gt_coord(self) -> Coord:
        return (0, 0)

    # -- routing --------------------------------------------------------

    @abstractmethod
    def route(self, src: Coord, dst: Coord) -> List[Link]:
        """The ordered directed links an operand traverses src -> dst."""

    @abstractmethod
    def hop_count(self, src: Coord, dst: Coord) -> int:
        """Links traversed by :meth:`route` (without materialising it)."""

    # -- cost accounting -------------------------------------------------

    @abstractmethod
    def link_count(self) -> int:
        """Directed physical links (x channels), for the area model."""


class NextBlockPredictorABC(ABC):
    """Next-block prediction: one combined predict/update step.

    Implementations expose ``stats`` (a
    :class:`repro.uarch.predictor.PredictorStats`) and must count one
    prediction per call, so Figure 7 accuracy studies work across
    variants unchanged.
    """

    @abstractmethod
    def predict_and_update(self, label: str, actual_exit: int, kind: str,
                           target: str, continuation: str = "",
                           now: int = 0) -> bool:
        """Predict the block leaving ``label`` against ground truth;
        update internal state; return whether the prediction was
        correct."""


class MemoryHierarchyABC(ABC):
    """The memory system the cycle simulator issues accesses into.

    The contract is structural — implementations provide:

    * ``l1d`` with ``access(address, now, is_store=False) -> done``,
      ``bank_of(address)``, and ``stats``;
    * ``l1i`` with ``fetch_block(label, chunks, now) -> (done, missed)``
      and ``stats``;
    * ``l2`` with per-bank ``banks[i].stats``;
    * ``dram`` with an ``accesses`` counter.

    All components are timing models: they answer "when is this access
    done"; data contents live in the functional memory.
    """


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

class ComponentRegistry:
    """Named factories for one component kind."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._factories: Dict[str, Callable] = {}

    def register(self, name: str, factory: Callable = None, *,
                 replace: bool = False):
        """Register ``factory`` under ``name``; usable as a decorator.

        Re-registering a taken name raises unless ``replace=True`` (a
        silent override would make component selection order-dependent).
        """
        def _add(fn: Callable) -> Callable:
            if name in self._factories and not replace:
                raise ComponentError(
                    f"{self.kind} {name!r} is already registered "
                    f"(pass replace=True to override)")
            self._factories[name] = fn
            return fn

        if factory is None:
            return _add
        return _add(factory)

    def names(self) -> List[str]:
        _ensure_loaded()
        return sorted(self._factories)

    def factory(self, name: str) -> Callable:
        _ensure_loaded()
        try:
            return self._factories[name]
        except KeyError:
            close = difflib.get_close_matches(name, self._factories, n=1)
            hint = f" — did you mean {close[0]!r}?" if close else ""
            raise ComponentError(
                f"unknown {self.kind} {name!r}{hint} (registered: "
                f"{', '.join(sorted(self._factories))})") from None

    def create(self, name: str, *args, **kwargs):
        return self.factory(name)(*args, **kwargs)

    def __contains__(self, name: str) -> bool:
        _ensure_loaded()
        return name in self._factories


TOPOLOGIES = ComponentRegistry("OPN topology")
PREDICTORS = ComponentRegistry("next-block predictor")
MEMORIES = ComponentRegistry("memory system")

_REGISTRIES: Dict[str, ComponentRegistry] = {
    "topology": TOPOLOGIES,
    "predictor": PREDICTORS,
    "memory": MEMORIES,
}

#: TripsConfig field name -> component kind (the sweepable seams).
COMPONENT_FIELDS: Dict[str, str] = {
    "opn_topology": "topology",
    "predictor_kind": "predictor",
    "memory_kind": "memory",
}

_loaded = False


def _ensure_loaded() -> None:
    """Import the modules that register the default variants (lazy, so
    the registry itself has no import cycle with its implementors)."""
    global _loaded
    if _loaded:
        return
    _loaded = True
    import repro.uarch.caches      # noqa: F401  (registers "trips", ...)
    import repro.uarch.predictor   # noqa: F401  (registers "tournament", ...)
    import repro.uarch.topologies  # noqa: F401  (registers "mesh", ...)


def registry(kind: str) -> ComponentRegistry:
    try:
        return _REGISTRIES[kind]
    except KeyError:
        raise ComponentError(
            f"unknown component kind {kind!r} (kinds: "
            f"{', '.join(sorted(_REGISTRIES))})") from None


def component_names(kind: str) -> List[str]:
    """Registered variant names for one component kind."""
    return registry(kind).names()


def validate_selection(kind: str, name: str) -> str:
    """Raise :class:`ComponentError` (with did-you-mean) unless ``name``
    is a registered ``kind`` variant; returns ``name``."""
    registry(kind).factory(name)
    return name


# -- construction helpers (the simulator's entry points) --------------------

def create_topology(config) -> OpnTopology:
    """Build the configured :class:`OpnTopology` for ``config``."""
    return TOPOLOGIES.create(config.opn_topology, config)


def create_predictor(config, tracer=None) -> NextBlockPredictorABC:
    """Build the configured next-block predictor for ``config``."""
    return PREDICTORS.create(config.predictor_kind, config, tracer)


def create_memory(config, tracer=None) -> MemoryHierarchyABC:
    """Build the configured memory hierarchy for ``config``."""
    return MEMORIES.create(config.memory_kind, config, tracer)
