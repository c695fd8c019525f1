"""Operand network (OPN) timing model.

The OPN is a 5x5 wormhole-routed mesh delivering one 64-bit operand per
link per cycle [Gratz et al.].  The node map mirrors the prototype
floorplan:

* column 0 holds the global tile (0,0) and the four data tiles (0,1..4),
* row 0 holds the four register tiles (1..4,0),
* the 4x4 execution array occupies (1..4, 1..4).

Packets are single-operand (one flit) and use dimension-order (Y then X)
routing.  Contention is modeled per link: a link carries one operand per
cycle; packets arriving at a busy link queue behind it.  The model keeps
the per-class hop histogram (ET-ET, ET-DT, ET-RT, ET-GT, DT-RT) that
Figure 8 of the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Optional, Tuple

from repro.uarch.resources import SkipAheadPool, claim_earliest
from repro.uarch.topologies import Coord, MeshTopology


@dataclass
class OpnStats:
    """Traffic statistics by class, for the Figure 8 profile.

    ``classes`` and ``hop_buckets`` come from the topology carrying the
    traffic (see :class:`repro.uarch.topologies.OpnTopology`), so a new
    topology's classes and hop range are reported instead of the
    prototype mesh's hardcoded list — packets of a class the paper
    never named are still counted, never dropped.
    """

    packets: Dict[str, int] = field(default_factory=dict)
    hops: Dict[str, int] = field(default_factory=dict)
    hop_histogram: Dict[Tuple[str, int], int] = field(default_factory=dict)
    queue_cycles: int = 0
    #: Traffic classes declared by the topology (observed classes are
    #: reported too — the union, via :meth:`known_classes`).
    classes: Tuple[str, ...] = ()
    #: Final histogram bucket; hop counts beyond it clamp into it (the
    #: prototype mesh uses 5, i.e. the paper's "5+" bucket).
    hop_buckets: int = 5

    def record(self, klass: str, hops: int, queued: int) -> None:
        """Account one delivered operand.

        ``klass`` is the traffic class (``ET-ET``, ``ET-DT``, ...);
        ``hops`` is the number of mesh *links traversed* (0 for a
        same-tile bypass); ``queued`` is the total *cycles* the operand
        spent waiting behind busy links along its route.
        """
        self.packets[klass] = self.packets.get(klass, 0) + 1
        self.hops[klass] = self.hops.get(klass, 0) + hops
        key = (klass, min(hops, self.hop_buckets))
        self.hop_histogram[key] = self.hop_histogram.get(key, 0) + 1
        self.queue_cycles += queued

    def average_hops(self, klass: Optional[str] = None) -> float:
        """Mean links traversed per packet, over all traffic or one
        class; ``0.0`` on an empty run (never a ZeroDivisionError)."""
        if klass is None:
            total_packets = sum(self.packets.values())
            total_hops = sum(self.hops.values())
        else:
            total_packets = self.packets.get(klass, 0)
            total_hops = self.hops.get(klass, 0)
        return total_hops / total_packets if total_packets else 0.0

    def known_classes(self) -> Tuple[str, ...]:
        """Declared classes plus any observed ones not declared, in
        declaration order then alphabetically — reporting never loses a
        class just because a topology forgot to declare it."""
        known = list(self.classes)
        for klass in sorted(self.packets):
            if klass not in known:
                known.append(klass)
        return tuple(known)

    def class_histogram(self, klass: str) -> Dict[int, float]:
        """Hop-count distribution (fractions, keys 0..hop_buckets) for
        one traffic class.  A class with no recorded packets yields
        all-zero fractions rather than dividing by zero."""
        total = self.packets.get(klass, 0)
        return {h: (self.hop_histogram.get((klass, h), 0) / total
                    if total else 0.0)
                for h in range(self.hop_buckets + 1)}

    def histograms(self) -> Dict[str, Dict[int, float]]:
        """Per-class hop distributions for every known class."""
        return {klass: self.class_histogram(klass)
                for klass in self.known_classes()}


class OperandNetwork:
    """Link-contention timing model of the operand network.

    Routing, traffic classes, and link width come from the configured
    :class:`~repro.uarch.topologies.OpnTopology`; the default is the
    prototype's 5x5 mesh.

    Each (src, dst) route is materialized once, with every hop's link
    claim held directly, so a send is just the per-hop claims plus the
    statistics increments.  A multi-channel link claims its earliest
    free channel, ties to the lowest channel (deterministic), in one
    :func:`~repro.uarch.resources.claim_earliest` call.
    """

    def __init__(self, hop_cycles: int = 1, tracer=None,
                 topology=None) -> None:
        self.topology = topology = topology or MeshTopology()
        self.hop_cycles = hop_cycles
        self.links = SkipAheadPool()
        self.stats = OpnStats(classes=topology.traffic_classes,
                              hop_buckets=topology.hop_buckets)
        # (src, dst) -> ((link, claim), ...).
        self._routes: Dict[Tuple[Coord, Coord], tuple] = {}
        #: Optional :class:`repro.trace.Tracer`; ``None`` (the default)
        #: skips all event construction.
        self.tracer = tracer

    def _hops(self, src: Coord, dst: Coord) -> tuple:
        """The route ``src -> dst`` as ``(link, claim)`` pairs: the
        claim of the link's one channel resource, or of its earliest
        free channel (pool key ``(link, channel)``)."""
        hops = self._routes.get((src, dst))
        if hops is None:
            channels = range(self.topology.link_channels)
            resource = self.links.resource
            hops = []
            for link in self.topology.route(src, dst):
                resources = tuple(resource((link, channel))
                                  for channel in channels)
                hops.append((link, resources[0].claim
                              if len(resources) == 1
                              else partial(claim_earliest, resources)))
            hops = self._routes[(src, dst)] = tuple(hops)
        return hops

    def send(self, src: Coord, dst: Coord, ready: int, klass: str) -> int:
        """Deliver and account one operand; returns its arrival time.

        ``ready`` is the cycle the operand leaves the source.  A local
        bypass (src == dst) is free, matching the prototype's same-tile
        forwarding.
        """
        if src == dst:
            self.stats.record(klass, 0, 0)
            return ready
        hops = self._hops(src, dst)
        time = ready
        queued = 0
        tracer = self.tracer
        hop_cycles = self.hop_cycles
        for link, claim in hops:
            start = claim(time)
            if tracer is not None:
                (sx, sy), (dx, dy) = link
                tracer.emit("opn_hop", start, klass=klass, sx=sx, sy=sy,
                            dx=dx, dy=dy, wait=start - time)
            queued += start - time
            time = start + hop_cycles
        self.stats.record(klass, len(hops), queued)
        return time

    def route(self, src: Coord, dst: Coord):
        """A ``ready -> arrival`` closure for the route ``src -> dst``
        that claims its links and adds the wait to ``queue_cycles``.

        It counts no packet and no hop: the kernel's plans tally the
        deliveries whose route is static once per key (docs/KERNELS.md).
        It emits no per-hop event either, so a traced run sends through
        :meth:`send`.  A bypass (src == dst) returns ``ready``.
        """
        claims = tuple(claim for _link, claim in self._hops(src, dst))
        if not claims:
            return _bypass
        stats = self.stats
        hop_cycles = self.hop_cycles
        if len(claims) == 1:
            claim, = claims

            def one_hop(ready: int) -> int:
                start = claim(ready)
                if start != ready:
                    stats.queue_cycles += start - ready
                return start + hop_cycles

            return one_hop
        travel = len(claims) * hop_cycles

        def several_hops(ready: int) -> int:
            time = ready
            for claim in claims:
                time = claim(time) + hop_cycles
            queued = time - ready - travel
            if queued:
                stats.queue_cycles += queued
            return time

        return several_hops


def _bypass(ready: int) -> int:
    return ready
