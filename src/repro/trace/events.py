"""Typed microarchitectural trace events and the tracer protocol.

The cycle-level simulators (:mod:`repro.uarch`) accept an optional
``tracer`` object and, at each interesting call site, run::

    if tracer is not None:
        tracer.emit(kind, cycle, field=value, ...)

so a disabled simulator (``tracer=None``, the default) pays exactly one
``is not None`` test per site and allocates nothing.  Timing decisions
never read the tracer: cycle counts are identical with tracing on, off,
or pointed at :data:`NULL_TRACER` (tests assert this).

Every event is a :class:`TraceEvent` — a ``(kind, cycle, data)`` triple
where ``kind`` names one of the schema entries in :data:`EVENT_SCHEMA`,
``cycle`` is the simulator cycle the event is anchored to, and ``data``
is a flat dict of JSON-safe scalars.  The authoritative field list per
kind (and the call site that emits it) lives in :data:`EVENT_SCHEMA`;
``docs/TRACE.md`` is the human-readable rendering of the same table.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Tuple


class TraceEvent(NamedTuple):
    """One microarchitectural event.

    ``kind``
        Schema key (see :data:`EVENT_SCHEMA`).
    ``cycle``
        Simulator cycle the event is anchored to.  Events are emitted in
        *program* order, which for a timing simulator is not cycle
        order; sort by ``cycle`` when a timeline is needed.
    ``data``
        Flat mapping of field name to a JSON-safe scalar
        (str/int/float/bool).
    """

    kind: str
    cycle: int
    data: Dict[str, Any]


class EventSpec(NamedTuple):
    """Schema entry: field order, emitting call site, description."""

    fields: Tuple[str, ...]
    site: str
    description: str


#: The full event schema.  Field order here is the canonical export
#: order of the compact format writer (:mod:`repro.trace.compact`).
EVENT_SCHEMA: Dict[str, EventSpec] = {
    "block_fetch": EventSpec(
        ("label", "start", "chunks", "miss"),
        "repro.uarch.core.CycleSimulator.run",
        "A block's I-cache fetch completed; cycle = completion, "
        "start = fetch begin, chunks = 128-byte chunks read, "
        "miss = any chunk missed L1-I."),
    "block_commit": EventSpec(
        ("label", "dispatch", "done", "size", "useful"),
        "repro.uarch.core.CycleSimulator.run",
        "A block committed; cycle = commit, dispatch = first dispatch "
        "cycle, done = last result/store, size = fetched instructions, "
        "useful = useful instructions (Figure 3 closure)."),
    "flush": EventSpec(
        ("label", "kind", "penalty"),
        "repro.uarch.core.CycleSimulator.run",
        "Next-block misprediction pipeline flush; cycle = exit "
        "resolution, kind = br/call/ret, penalty = dead fetch cycles "
        "charged on top."),
    "predict": EventSpec(
        ("label", "kind", "exit", "predicted_exit", "correct"),
        "repro.uarch.predictor.NextBlockPredictor.predict_and_update",
        "One next-block prediction outcome; cycle = exit resolution "
        "(0 when driven untimed, e.g. from the Figure 7 study), "
        "exit = actual exit number, correct = exit AND target right."),
    "inst_issue": EventSpec(
        ("label", "index", "op", "tile"),
        "repro.uarch.kernels.FoldKernel.replay (plan step)",
        "An instruction issued on its execution tile; cycle = issue, "
        "index = position in block, tile = ET number (0..15 on the "
        "prototype grid)."),
    "inst_retire": EventSpec(
        ("label", "index", "op", "tile"),
        "repro.uarch.kernels.FoldKernel.replay (plan step)",
        "An instruction's result became available (load data returned, "
        "store entered the DT write buffer, ALU result produced); "
        "cycle = completion."),
    "opn_hop": EventSpec(
        ("klass", "sx", "sy", "dx", "dy", "wait"),
        "repro.uarch.opn.OperandNetwork.send",
        "One operand traversed one directed mesh link (sx,sy)->(dx,dy); "
        "cycle = the cycle the link was granted, wait = cycles queued "
        "behind earlier operands at this link, klass = traffic class "
        "(ET-ET, ET-DT, ...)."),
    "bank_conflict": EventSpec(
        ("bank", "wait"),
        "repro.uarch.caches.L1DataBanks.access",
        "A load/store waited for its single-ported L1-D bank; "
        "cycle = grant, wait = cycles serialized behind earlier "
        "accesses."),
    "cache_miss": EventSpec(
        ("level", "address"),
        "repro.uarch.caches (L1DataBanks.access / "
        "L1InstructionCache.fetch_block / NucaL2.access)",
        "A cache access missed; cycle = request, level = l1d/l1i/l2, "
        "address = byte address (synthetic code address for l1i)."),
    "load_forward": EventSpec(
        ("label", "index", "lsid", "supplier", "address"),
        "repro.uarch.kernels.FoldKernel.replay (plan step)",
        "A load consumed in-flight store data from the DT write buffer; "
        "cycle = data ready, supplier = LSID of the youngest store that "
        "supplied bytes."),
    "load_flush": EventSpec(
        ("label", "index", "penalty"),
        "repro.uarch.kernels.FoldKernel.replay (plan step)",
        "First dynamic instance of a static load consuming in-flight "
        "store data: the dependence predictor trains and a violation "
        "flush is charged; cycle = load data ready."),
}


def event_kinds() -> List[str]:
    """Schema kinds in canonical (registration) order."""
    return list(EVENT_SCHEMA)


class Tracer:
    """No-op tracer: the base protocol and the disabled fast path.

    Subclasses override :meth:`emit`.  Simulators guard every call site
    with ``if tracer is not None``, so passing ``None`` (the default) is
    cheapest of all; passing a :class:`Tracer` instance exercises the
    full emission path with the events discarded, which the overhead
    smoke test uses to bound instrumentation cost.
    """

    def emit(self, _kind: str, _cycle: int, **fields: Any) -> None:
        """Record one event (kind, cycle, fields).  The base class
        discards it.  The two positional parameters are
        underscore-named so they can never collide with an event field
        (``flush`` and ``predict`` both carry a ``kind`` field)."""


#: Shared no-op tracer instance.
NULL_TRACER = Tracer()


class CollectingTracer(Tracer):
    """Tracer that accumulates :class:`TraceEvent` tuples in memory."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def emit(self, _kind: str, _cycle: int, **fields: Any) -> None:
        self.events.append(TraceEvent(_kind, _cycle, fields))

    def __len__(self) -> int:
        return len(self.events)

    def counts(self) -> Dict[str, int]:
        """Event count by kind (insertion order follows first emission)."""
        out: Dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out
