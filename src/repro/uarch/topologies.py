"""Operand-network topologies: the prototype mesh and two variants.

The prototype's OPN is a 5x5 wormhole-routed mesh with dimension-order
(Y-then-X) routing [Gratz et al.]; :class:`MeshTopology` reproduces it
exactly.  Two alternates explore design points the paper could not:

* :class:`TorusTopology` — wraparound links in both dimensions halve
  the worst-case hop distance (corner-to-corner drops from 8 to 4);
* :class:`DoubleWidthMeshTopology` — two independent channels per mesh
  link double link bandwidth without changing routes, attacking the
  queueing (not distance) component of operand latency.

All variants keep the prototype floorplan coordinates (GT at (0,0),
DTs in column 0, RTs in row 0, ETs in the interior) — see the
:class:`OpnTopology` layout contract.  ``TripsConfig.opn_topology``
names one of them through :data:`TOPOLOGIES`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Tuple

from repro.trips.placement import GRID_W

__all__ = ["Coord", "DoubleWidthMeshTopology", "Link", "MeshTopology",
           "OpnTopology", "TOPOLOGIES", "TorusTopology"]

Coord = Tuple[int, int]
Link = Tuple[Coord, Coord]


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

    #: Table name (the ``TripsConfig.opn_topology`` value).
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

    def __init__(self, grid: int = GRID_W) -> None:
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


class MeshTopology(OpnTopology):
    """The prototype 5x5 mesh: dimension-order Y-then-X routing."""

    name = "mesh"

    def route(self, src: Coord, dst: Coord) -> List[Link]:
        links = []
        x, y = src
        while y != dst[1]:
            step = 1 if dst[1] > y else -1
            links.append(((x, y), (x, y + step)))
            y += step
        while x != dst[0]:
            step = 1 if dst[0] > x else -1
            links.append(((x, y), (x + step, y)))
            x += step
        return links

    def hop_count(self, src: Coord, dst: Coord) -> int:
        return abs(src[0] - dst[0]) + abs(src[1] - dst[1])

    def link_count(self) -> int:
        # Directed links between adjacent nodes, both dimensions.
        return 4 * self.side * (self.side - 1) * self.link_channels


class TorusTopology(OpnTopology):
    """Mesh plus wraparound links; routes take the shorter direction.

    Routing stays dimension-ordered (Y then X) and deterministic: within
    a dimension the direction with fewer hops wins, and a tie breaks
    toward the non-wrapping (mesh) direction.  On the 5x5 array the
    worst-case distance drops from 8 hops to 4, which also shrinks the
    hop histogram (``hop_buckets``) — per-class statistics follow the
    topology instead of the paper's fixed 0..5+ buckets.
    """

    name = "torus"

    def __init__(self, grid: int = GRID_W) -> None:
        super().__init__(grid)
        self.hop_buckets = 2 * (self.side // 2)

    def _steps(self, at: int, to: int) -> List[int]:
        """Per-hop coordinate values from ``at`` to ``to`` along one
        dimension, choosing the shorter (possibly wrapping) direction."""
        side = self.side
        forward = (to - at) % side
        backward = (at - to) % side
        if forward == 0:
            return []
        if forward <= backward:
            return [(at + i) % side for i in range(1, forward + 1)]
        return [(at - i) % side for i in range(1, backward + 1)]

    def route(self, src: Coord, dst: Coord) -> List[Link]:
        links: List[Link] = []
        x, y = src
        for ny in self._steps(y, dst[1]):
            links.append(((x, y), (x, ny)))
            y = ny
        for nx in self._steps(x, dst[0]):
            links.append(((x, y), (nx, y)))
            x = nx
        return links

    def hop_count(self, src: Coord, dst: Coord) -> int:
        side = self.side
        dx = abs(src[0] - dst[0])
        dy = abs(src[1] - dst[1])
        return min(dx, side - dx) + min(dy, side - dy)

    def link_count(self) -> int:
        # Every node has a directed link in both directions of both
        # dimensions (wraparound closes the rings).
        return 4 * self.side * self.side * self.link_channels


class DoubleWidthMeshTopology(MeshTopology):
    """The prototype mesh with two independent channels per link.

    Routes and hop counts are identical to :class:`MeshTopology`; the
    operand network spreads traffic across the channels of each link
    (earliest free slot wins, ties to channel 0), so only the queueing
    component of latency changes.
    """

    name = "dwmesh"
    link_channels = 2


#: ``TripsConfig.opn_topology`` -> class; built with the array size.
TOPOLOGIES: Dict[str, type] = {
    cls.name: cls
    for cls in (MeshTopology, TorusTopology, DoubleWidthMeshTopology)}
