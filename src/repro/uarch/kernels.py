"""The cycle simulator's timing kernel: a fold over one recorded run.

The cycle model computes no values.  It times the checksum-validated
:class:`~repro.trips.functional.OutcomeStream` that the functional
simulator records: every key of the recording (one block, its fire
order and its predicate bits) fixes the kernel's whole control
sequence, so :meth:`FoldKernel.plan` compiles each key once into a flat
*plan* of the timing operations the kernel performs, in the kernel's
order, and :meth:`FoldKernel.replay` runs that plan for every
activation of the key with the activation's load and store addresses
from the recording.  ``docs/KERNELS.md`` documents the plan and the
equivalence contract: every run must match the golden digests in
``tests/data/cycle_goldens.json`` (cycles, statistics, OPN traffic and
trace streams), which ``tools/cycle_goldens.py`` checks and
regenerates.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ir.interp import TrapError

from repro.isa.block import TripsBlock
from repro.isa.instructions import TOp, TRIPS_LATENCY, operand_count
from repro.trips.functional import (
    K_EXIT, K_LOAD, K_NULL, K_STORE, BlockOutcome, decode_targets, kind_of,
)
from repro.trips.placement import Placement
from repro.trips.regalloc import NUM_BANKS, bank_of

from repro.uarch.caches import L1DataBanks


def pow2_shift_mask(line_bytes: int,
                    banks: int) -> Optional[Tuple[int, int]]:
    """``(shift, mask)`` so that ``(addr >> shift) & mask`` equals
    ``(addr // line_bytes) % banks``, or ``None`` when the geometry is
    not a power of two and the division form must be kept."""
    if line_bytes <= 0 or banks <= 0:
        return None
    if line_bytes & (line_bytes - 1) or banks & (banks - 1):
        return None
    return line_bytes.bit_length() - 1, banks - 1


def _issue_claim(claim, width: int):
    """A tile's issue claim for ``width`` issue slots per cycle: the
    tile's resource itself at width 1; at width W, the resource in
    W-times-finer time, so W instructions ready in one cycle all issue
    in it."""
    if width == 1:
        return claim

    def claim_slot(ready: int) -> int:
        return claim(ready * width) // width

    return claim_slot


#: Plan step codes, most frequent first (the replay loop tests them in
#: this order).
(_SEND, _ISSUE, _BYPASS, _READ, _WRITE, _PRED, _LOAD, _STORE, _EXIT,
 _LSEND, _LWRITE, _LPRED, _TRACE_ISSUE, _TRACE_RETIRE) = range(14)

#: Fixed slots of a plan's time array: a constant 0, and a sink for
#: arrivals that change no time (duplicate operands).
_ZERO, _SINK = 0, 1


class _BlockDecode:
    """One block's static decode, bound to one simulator's resources:
    a pure function of (block, placement, topology, config), built once
    per (function, label) and shared by every key of the block."""

    __slots__ = ("n", "insts", "need", "want", "kinds",
                 "latency", "disp_off", "static_ready", "store_lsids",
                 "tiles", "coords", "targets", "reads", "exit_route",
                 "issue_claim", "load_ids")


class Plan:
    """The timing operations of one key, in the kernel's order.

    ``steps`` are flat tuples over a per-activation time array of
    ``size`` slots; ``done`` lists the slots whose maximum is the
    block's completion, ``writes`` the ``(register, slot)`` each write
    commits; the rest are the counts every activation of the key adds.
    Among them, ``packets``, ``hops`` and ``histogram`` are the operand
    network traffic of the deliveries whose route is static, as
    ``(key, count)`` pairs of :class:`~repro.uarch.opn.OpnStats`'
    dictionaries; a traced plan's are empty, because its deliveries go
    through :meth:`~repro.uarch.opn.OperandNetwork.send`, which counts
    them.
    """

    __slots__ = ("steps", "size", "done", "writes", "memory_ops", "chunks",
                 "dispatch_cycles", "fetched", "executed", "loads",
                 "stores", "moves", "l1d_bytes", "useful", "unused",
                 "unexecuted", "packets", "hops", "histogram")


class FoldKernel:
    """Compiles recorded keys into plans and replays them.

    One kernel serves one :class:`~repro.uarch.core.CycleSimulator`,
    which builds it last in its constructor.  Plans bind that
    simulator's resources (register ports, issue slots, OPN routes), so
    they are built per simulator and never stored on the shared
    recording.

    Timing is fast for three reasons that cannot change a decision:

    * **no control at replay** — the kernel's worklist, operand dedup,
      predicate checks and load parking run once per key, symbolically,
      when the plan is compiled;
    * **skip-ahead resources** — every pool is a
      :class:`~repro.uarch.resources.SkipAheadPool`, which jumps over a
      busy run of cycles in one bisect;
    * **replay pays only for contention** — a delivery from a static
      source goes through an
      :meth:`~repro.uarch.opn.OperandNetwork.route` closure that only
      claims the route's links, its packet and hops are tallied in the
      plan, and a same-tile bypass is a plain max step; load results,
      whose source bank is dynamic, and traced runs, which emit per-hop
      events, go through :meth:`~repro.uarch.opn.OperandNetwork.send`.

    The kernel keeps no reference to its simulator (``plan`` and
    ``replay`` receive it per call), so a finished simulator is freed as
    soon as the caller drops it, without waiting for the cyclic garbage
    collector.
    """

    def __init__(self, sim) -> None:
        topology = sim.topology
        config = sim.config
        self._decodes: Dict[Tuple[str, str], _BlockDecode] = {}
        self._routes: Dict[Tuple, Tuple] = {}
        self._hop_buckets = topology.hop_buckets
        self._rt_read_claims = tuple(sim.rt_read_ports.resource(bank).claim
                                     for bank in range(NUM_BANKS))
        self._rt_write_claims = tuple(
            sim.rt_write_ports.resource(bank).claim
            for bank in range(NUM_BANKS))
        self._rt_coords = tuple(topology.rt_coord(bank)
                                for bank in range(NUM_BANKS))
        self._dt_coords = tuple(topology.dt_coord(bank)
                                for bank in range(config.l1d_banks))
        self._gt_coord = topology.gt_coord
        # Traffic-class strings by source tile kind (destination kinds
        # are fixed per call site), derived from the simulator's own
        # classifier so a future classifier change cannot desynchronize.
        class_of = sim._class_of
        self._cls_from_et = (class_of((1, 1), "et"), class_of((1, 1), "rt"))
        self._cls_from_dt = (class_of((0, 1), "et"), class_of((0, 1), "rt"))
        self._cls_from_rt = (class_of((1, 0), "et"), class_of((1, 0), "rt"))
        # Power-of-two L1-D geometry admits a shift/mask bank lookup;
        # only trusted when the hierarchy uses the stock interleave.
        if type(sim.hierarchy.l1d).bank_of is L1DataBanks.bank_of:
            self._bank_shift_mask = pow2_shift_mask(
                config.l1d_line_bytes, config.l1d_banks)
        else:
            self._bank_shift_mask = None

    # -- static decode ----------------------------------------------------

    def _route(self, sim, src, dst, klass: str) -> Tuple:
        """``(route, hops)`` for one static packet shape: the network's
        ``ready -> arrival`` route closure and the links it traverses,
        which the plan tallies; or under a tracer a call to
        :meth:`~repro.uarch.opn.OperandNetwork.send` (per-hop events,
        its own accounting) and ``None``."""
        shape = (src, dst, klass)
        route = self._routes.get(shape)
        if route is None:
            if sim.tracer is None:
                route = (sim.opn.route(src, dst),
                         sim.topology.hop_count(src, dst))
            else:
                send = sim.opn.send

                def traced_send(ready: int) -> int:
                    return send(src, dst, ready, klass)
                route = (traced_send, None)
            self._routes[shape] = route
        return route

    def _decode_targets(self, sim, block: TripsBlock, targets, coords,
                        src_coord, cls_to_et: str, cls_to_rt: str,
                        bound: bool) -> Tuple:
        """The recorder's decode of a target list
        (:func:`~repro.trips.functional.decode_targets`), each entry
        extended with its destination coordinate, traffic class, route
        and hops (:meth:`_route`): ``(0, slot, bank, ...)`` for a write,
        ``(1, index, ...)`` for a predicate, ``(2, index, slot, ...)``
        for an operand — order preserved, because delivery order decides
        resource arbitration.  Route and hops are ``None`` when
        ``bound`` is false: load results leave from a dynamic cache
        bank."""
        decoded = []
        for entry in decode_targets(targets):
            if entry[0] == 0:
                bank = bank_of(block.writes[entry[1]].reg)
                entry += (bank,)
                dst, klass = self._rt_coords[bank], cls_to_rt
            else:
                dst, klass = coords[entry[1]], cls_to_et
            route = self._route(sim, src_coord, dst, klass) \
                if bound else (None, None)
            decoded.append(entry + (dst, klass) + route)
        return tuple(decoded)

    def _decode(self, sim, block: TripsBlock,
                placement: Placement) -> _BlockDecode:
        topology = sim.topology
        insts = list(block.instructions)
        n = len(insts)
        st = _BlockDecode()
        st.n = n
        st.insts = insts
        st.need = [operand_count(inst.op) for inst in insts]
        st.want = [None if inst.predicate is None
                   else (1 if inst.predicate == "T" else 0)
                   for inst in insts]
        st.kinds = [kind_of(inst.op) for inst in insts]
        st.latency = [TRIPS_LATENCY.get(inst.op, 1) for inst in insts]
        bandwidth = sim.config.dispatch_bandwidth
        st.disp_off = [i // bandwidth for i in range(n)]
        # Ready at dispatch: zero operands and no predicate guard, in
        # ascending order (see the seeding note in plan).
        st.static_ready = tuple(
            i for i in range(n) if st.need[i] == 0 and st.want[i] is None)
        st.store_lsids = tuple(sorted(block.store_lsids))
        st.tiles = [placement.tiles[i] for i in range(n)]
        st.coords = [topology.et_coord(tile) for tile in st.tiles]
        cls_et_et, cls_et_rt = self._cls_from_et
        cls_rt_et, cls_rt_rt = self._cls_from_rt
        cls_dt_et, cls_dt_rt = self._cls_from_dt
        st.targets = [
            self._decode_targets(sim, block, inst.targets, st.coords,
                                 None, cls_dt_et, cls_dt_rt, False)
            if st.kinds[i] == K_LOAD else
            self._decode_targets(sim, block, inst.targets, st.coords,
                                 st.coords[i], cls_et_et, cls_et_rt, True)
            for i, inst in enumerate(insts)]
        rt_coords = self._rt_coords
        st.reads = [
            (read.reg, bank_of(read.reg),
             self._decode_targets(sim, block, read.targets, st.coords,
                                  rt_coords[bank_of(read.reg)],
                                  cls_rt_et, cls_rt_rt, True))
            for read in block.reads]
        st.exit_route = [
            self._route(sim, st.coords[i], self._gt_coord, "ET-GT")
            if st.kinds[i] == K_EXIT else None for i in range(n)]
        # The load-wait table's static load ids stay keyed by label.
        st.load_ids = [hash((block.label, i)) & 0xFFFF
                       if st.kinds[i] == K_LOAD else -1 for i in range(n)]
        et_issue = sim.et_issue
        width = sim.config.et_issue_width
        st.issue_claim = [_issue_claim(et_issue.resource(tile).claim, width)
                          for tile in st.tiles]
        return st

    # -- plan compilation -------------------------------------------------

    def plan(self, sim, key: BlockOutcome, placement: Placement) -> Plan:
        """Compile one key: run the kernel's worklist once, symbolically,
        and record its timing operations in order.

        The recorder's fire order is not the kernel's (register reads
        deliver first, stores do not wait for earlier stores, and a load
        with an unresolved earlier store claims its issue slot, parks,
        and claims again when it re-fires), so the kernel's order is
        re-derived here.  The predicate bits come from the key; the
        fired set must come out equal to the recorder's.
        """
        block = key.block
        decode_key = (key.function, block.label)
        st = self._decodes.get(decode_key)
        if st is None:
            st = self._decodes[decode_key] = self._decode(sim, block,
                                                          placement)
        config = sim.config
        traced = sim.tracer is not None
        predicting = config.predicate_prediction
        label = block.label
        n = st.n
        insts = st.insts
        need = st.need
        want = st.want
        kinds = st.kinds
        bits = key.bits
        rt_write_claims = self._rt_write_claims
        # Time slots: per instruction its operand arrival, predicate
        # arrival, issue completion and result (load data back, store
        # written, exit resolved), a load's cache-bank coordinate; then
        # one per register read and per write slot.
        arrival = [2 + i for i in range(n)]
        predicate = [2 + n + i for i in range(n)]
        complete = [2 + 2 * n + i for i in range(n)]
        result = [2 + 3 * n + i for i in range(n)]
        bank_at = [2 + 4 * n + i for i in range(n)]
        read_at = 2 + 5 * n
        write_at = read_at + len(st.reads)
        # The recording lists an activation's addresses in recorder
        # fire order; ``position`` maps an instruction to its entry.
        position: Dict[int, int] = {}
        for index in key.order:
            if kinds[index] == K_LOAD or kinds[index] == K_STORE:
                position[index] = len(position)

        steps: List[Tuple] = []
        fired = [False] * n
        closed = [False] * n            # fired or mispredicated
        filled = [[False, False] for _ in range(n)]
        arrived = [0] * n
        got_bit: List[Optional[int]] = [None] * n
        ready: List[int] = []
        parked: List[int] = []
        resolved: Dict[int, int] = {}   # store lsid -> slot of its time
        stores_fired: List[Tuple[int, int, int, int]] = []
        written = [False] * len(block.writes)
        exit_index = -1
        # The static deliveries' network traffic, added per activation.
        packets: Dict[str, int] = {}
        hop_sums: Dict[str, int] = {}
        histogram: Dict[Tuple[str, int], int] = {}
        buckets = self._hop_buckets

        def tally(klass: str, hops: Optional[int]) -> None:
            """Count one static delivery, unless ``send`` counts it."""
            if hops is None:
                return
            packets[klass] = packets.get(klass, 0) + 1
            hop_sums[klass] = hop_sums.get(klass, 0) + hops
            key = (klass, hops if hops < buckets else buckets)
            histogram[key] = histogram.get(key, 0) + 1

        def send(entry, when: int, into: int, bank_slot: int) -> None:
            """One delivery of a decoded target into ``into``.  A static
            one is tallied, and a same-tile bypass is a max step, or
            nothing when the arrival is dropped."""
            dst, klass, route, hops = entry[-4:]
            if bank_slot >= 0:
                steps.append((_LSEND, bank_slot, dst, klass, when, into))
                return
            tally(klass, hops)
            if hops != 0:
                steps.append((_SEND, route, when, into))
            elif into != _SINK:
                steps.append((_BYPASS, when, into))

        def deliver(decoded, when: int, bank_slot: int) -> None:
            """The kernel's delivery rules; ``bank_slot`` is the slot of
            a load's cache-bank coordinate, or -1 for a static source."""
            for entry in decoded:
                tag = entry[0]
                if tag == 0:
                    _, slot, bank, dst, klass, route, hops = entry
                    written[slot] = True
                    if bank_slot < 0:
                        tally(klass, hops)
                        steps.append((_WRITE, route, when, write_at + slot,
                                      rt_write_claims[bank]))
                    else:
                        steps.append((_LWRITE, bank_slot, dst, klass, when,
                                      write_at + slot,
                                      rt_write_claims[bank]))
                    continue
                index = entry[1]
                if closed[index]:
                    continue
                if tag == 2:
                    slot = entry[2]
                    # A duplicate operand still occupies the network.
                    into = _SINK if filled[index][slot] else arrival[index]
                    send(entry, when, into, bank_slot)
                    if into == _SINK:
                        continue
                    filled[index][slot] = True
                    arrived[index] += 1
                    check_ready(index)
                    continue
                if got_bit[index] is not None:
                    send(entry, when, _SINK, bank_slot)
                    continue
                bit = bits[index]
                if bit is None:
                    raise TrapError(f"{label}: i{index} got a predicate "
                                    f"the recording never delivered")
                got_bit[index] = bit
                _, _, dst, klass, route, hops = entry
                if not predicting:
                    # The predicate arrives when the test's operand does.
                    send(entry, when, predicate[index], bank_slot)
                elif bank_slot < 0:
                    tally(klass, hops)
                    steps.append((_PRED, route, when, predicate[index],
                                  index, bit, st.disp_off[index]))
                else:
                    steps.append((_LPRED, bank_slot, dst, klass, when,
                                  predicate[index], index, bit,
                                  st.disp_off[index]))
                check_ready(index)

        def check_ready(index: int) -> None:
            if arrived[index] < need[index]:
                return
            wanted = want[index]
            if wanted is not None:
                got = got_bit[index]
                if got is None:
                    return
                if got != wanted:
                    closed[index] = True        # mispredicated
                    if kinds[index] == K_STORE:
                        resolved[insts[index].lsid] = predicate[index]
                        unpark()
                    return
            ready.append(index)

        def unpark() -> None:
            if parked:
                ready.extend(parked)
                parked.clear()

        def trace_retire(index: int, slot: int) -> None:
            if traced:
                steps.append((_TRACE_RETIRE, slot, index,
                              insts[index].op.value, st.tiles[index]))

        # Register reads: RT bank ports, then routed to consumers.
        for number, (reg, bank, decoded) in enumerate(st.reads):
            steps.append((_READ, self._rt_read_claims[bank], reg,
                          read_at + number))
            deliver(decoded, read_at + number, -1)
        # Zero-operand, unpredicated instructions become ready *after*
        # the read deliveries: the worklist is a LIFO, so seeding order
        # is part of the timing contract the goldens pin.
        ready.extend(st.static_ready)

        guard = 0
        while ready:
            index = ready.pop()
            if closed[index]:
                continue
            guard += 1
            if guard > 40 * n + 1000:
                raise TrapError(f"{label}: execution livelock")
            inst = insts[index]
            kind = kinds[index]
            steps.append((_ISSUE, st.issue_claim[index], st.disp_off[index],
                          arrival[index],
                          _ZERO if want[index] is None else predicate[index],
                          st.latency[index], complete[index]))
            if kind == K_LOAD and any(
                    lsid < inst.lsid and lsid not in resolved
                    for lsid in st.store_lsids):
                parked.append(index)    # the issue slot stays claimed
                continue
            closed[index] = fired[index] = True
            if traced:
                steps.append((_TRACE_ISSUE, complete[index],
                              st.latency[index], index, inst.op.value,
                              st.tiles[index]))
            if kind == K_LOAD:
                # Forwarding candidates: the fired earlier-LSID stores,
                # youngest first; replay picks the first that overlaps.
                candidates = tuple(sorted(
                    (store for store in stores_fired if store[3] < inst.lsid),
                    key=lambda store: -store[3]))
                steps.append((_LOAD, position[index], st.coords[index],
                              complete[index], result[index], bank_at[index],
                              inst.width, st.load_ids[index], candidates,
                              index, inst.lsid, inst.op.value,
                              st.tiles[index]))
                deliver(st.targets[index], result[index], bank_at[index])
            elif kind == K_STORE:
                steps.append((_STORE, position[index], st.coords[index],
                              complete[index], result[index]))
                trace_retire(index, result[index])
                resolved[inst.lsid] = result[index]
                stores_fired.append((result[index], position[index],
                                     inst.width, inst.lsid))
                unpark()
            elif kind == K_NULL:
                if inst.lsid >= 0:
                    resolved[inst.lsid] = complete[index]
                    unpark()
                trace_retire(index, complete[index])
                deliver(st.targets[index], complete[index], -1)
            elif kind == K_EXIT:
                if exit_index >= 0:
                    raise TrapError(f"{label}: two exits fired")
                exit_index = index
                route, hops = st.exit_route[index]
                tally("ET-GT", hops)
                steps.append((_EXIT, route, complete[index], result[index]))
                trace_retire(index, result[index])
            else:
                trace_retire(index, complete[index])
                deliver(st.targets[index], complete[index], -1)

        for slot, seen in enumerate(written):
            if not seen:
                raise TrapError(f"{label}: write w{slot} missing")
        for lsid in st.store_lsids:
            if lsid not in resolved:
                raise TrapError(f"{label}: store {lsid} unresolved")
        if exit_index < 0:
            raise TrapError(f"{label}: no exit fired")
        if sorted(index for index in range(n) if fired[index]) \
                != sorted(key.order):
            raise TrapError(f"{label}: the timing plan fires other "
                            f"instructions than the recording")

        plan = Plan()
        plan.steps = tuple(steps)
        plan.size = write_at + len(block.writes)
        plan.done = (result[exit_index],) \
            + tuple(write_at + slot for slot in range(len(block.writes))) \
            + tuple(resolved[lsid] for lsid in st.store_lsids)
        plan.writes = tuple((write.reg, write_at + slot)
                            for slot, write in enumerate(block.writes))
        plan.memory_ops = len(position)
        plan.chunks = sim._chunks(block)
        plan.dispatch_cycles = max(1, -(-n // config.dispatch_bandwidth))
        ops = [insts[index].op for index in key.order]
        plan.fetched = n
        plan.executed = len(ops)
        plan.loads = ops.count(TOp.LOAD)
        plan.stores = ops.count(TOp.STORE)
        plan.moves = ops.count(TOp.MOV)
        plan.l1d_bytes = sum(insts[index].width for index in key.order
                             if kinds[index] == K_LOAD
                             or kinds[index] == K_STORE)
        plan.useful = key.tally.useful
        plan.unused = key.tally.executed_not_used
        plan.unexecuted = key.tally.fetched_not_executed
        plan.packets = tuple(packets.items())
        plan.hops = tuple(hop_sums.items())
        plan.histogram = tuple(histogram.items())
        return plan

    # -- replay -----------------------------------------------------------

    def replay(self, sim, plan: Plan, label: str, fetch_done: int,
               addresses, cursor: int) -> Tuple[int, int]:
        """Time one activation of ``plan``; returns its exit resolution
        and completion times.  ``addresses[cursor:]`` holds the
        activation's recorded load and store addresses."""
        config = sim.config
        stats = sim.stats
        tracer = sim.tracer
        send = sim.opn.send
        lwt = sim.lwt
        reg_ready = sim.reg_ready
        l1d = sim.hierarchy.l1d
        l1d_access = l1d.access
        l1d_hit = config.l1d_hit_cycles
        pred_arrival = sim._predicate_arrival
        bank_sm = self._bank_shift_mask
        dt_coords = self._dt_coords
        base = fetch_done + config.fetch_to_dispatch_cycles
        penalty = 0
        t = [0] * plan.size
        for step in plan.steps:
            code = step[0]
            if code == _SEND:
                _, route, src, into = step
                arrive = route(t[src])
                if arrive > t[into]:
                    t[into] = arrive
            elif code == _ISSUE:
                _, claim, offset, arrival, guard, latency, into = step
                ready = base + offset
                if t[arrival] > ready:
                    ready = t[arrival]
                if t[guard] > ready:
                    ready = t[guard]
                t[into] = claim(ready) + latency
            elif code == _BYPASS:
                _, src, into = step
                if t[src] > t[into]:
                    t[into] = t[src]
            elif code == _READ:
                _, claim, reg, into = step
                pending = reg_ready[reg]
                t[into] = claim(pending if pending > base else base)
            elif code == _WRITE:
                _, route, src, into, claim = step
                t[into] = claim(route(t[src]))
            elif code == _PRED:
                _, route, src, into, index, bit, offset = step
                t[into] = pred_arrival(label, index, bit, route(t[src]),
                                       base + offset)
            elif code == _LOAD:
                (_, k, coord, issued, into, bank_slot, width, static_id,
                 candidates, index, lsid, op, tile) = step
                address = addresses[cursor + k]
                if bank_sm is not None:
                    dt = dt_coords[(address >> bank_sm[0]) & bank_sm[1]]
                else:
                    dt = dt_coords[l1d.bank_of(address)]
                t[bank_slot] = dt
                depart = send(coord, dt, t[issued], "ET-DT")
                back = send(dt, coord, l1d_access(address, depart),
                            "ET-DT")
                # Forwarding: the youngest earlier store whose bytes
                # overlap the load's supplies it.
                for written, at, store_width, store_lsid in candidates:
                    store_address = addresses[cursor + at]
                    if address < store_address + store_width \
                            and store_address < address + width:
                        if t[written] + l1d_hit > back:
                            back = t[written] + l1d_hit
                        if static_id not in lwt:
                            lwt.add(static_id)
                            stats.load_flushes += 1
                            penalty += config.load_violation_flush_cycles
                            if tracer is not None:
                                tracer.emit(
                                    "load_flush", back, label=label,
                                    index=index,
                                    penalty=config
                                    .load_violation_flush_cycles)
                        if tracer is not None:
                            tracer.emit("load_forward", back, label=label,
                                        index=index, lsid=lsid,
                                        supplier=store_lsid,
                                        address=address)
                        break
                if tracer is not None:
                    tracer.emit("inst_retire", back, label=label,
                                index=index, op=op, tile=tile)
                t[into] = back
            elif code == _LSEND:
                _, bank_slot, dst, klass, src, into = step
                arrive = send(t[bank_slot], dst, t[src], klass)
                if arrive > t[into]:
                    t[into] = arrive
            elif code == _LWRITE:
                _, bank_slot, dst, klass, src, into, claim = step
                t[into] = claim(send(t[bank_slot], dst, t[src], klass))
            elif code == _STORE:
                _, k, coord, issued, into = step
                address = addresses[cursor + k]
                if bank_sm is not None:
                    dt = dt_coords[(address >> bank_sm[0]) & bank_sm[1]]
                else:
                    dt = dt_coords[l1d.bank_of(address)]
                arrive = send(coord, dt, t[issued], "ET-DT")
                l1d_access(address, arrive, is_store=True)
                t[into] = arrive + l1d_hit
            elif code == _EXIT:
                _, route, src, into = step
                t[into] = route(t[src])
            elif code == _LPRED:
                (_, bank_slot, dst, klass, src, into, index, bit,
                 offset) = step
                t[into] = pred_arrival(
                    label, index, bit,
                    send(t[bank_slot], dst, t[src], klass), base + offset)
            elif code == _TRACE_ISSUE:
                _, issued, latency, index, op, tile = step
                tracer.emit("inst_issue", t[issued] - latency, label=label,
                            index=index, op=op, tile=tile)
            else:
                _, slot, index, op, tile = step
                tracer.emit("inst_retire", t[slot], label=label,
                            index=index, op=op, tile=tile)

        done_time = 0
        for slot in plan.done:
            if t[slot] > done_time:
                done_time = t[slot]
        for reg, slot in plan.writes:
            reg_ready[reg] = t[slot]
        done_time += penalty

        stats.blocks_committed += 1
        stats.fetched += plan.fetched
        stats.executed += plan.executed
        stats.loads += plan.loads
        stats.stores += plan.stores
        stats.moves += plan.moves
        stats.l1d_bytes += plan.l1d_bytes
        stats.useful += plan.useful
        stats.executed_not_used += plan.unused
        stats.fetched_not_executed += plan.unexecuted
        residency = done_time - base
        if residency < 1:
            residency = 1
        stats.window_inst_cycles += residency * plan.fetched
        stats.window_useful_cycles += residency * plan.useful
        opn = sim.opn.stats
        packets = opn.packets
        for klass, count in plan.packets:
            packets[klass] = packets.get(klass, 0) + count
        hops = opn.hops
        for klass, count in plan.hops:
            hops[klass] = hops.get(klass, 0) + count
        histogram = opn.hop_histogram
        for key, count in plan.histogram:
            histogram[key] = histogram.get(key, 0) + count
        return t[plan.done[0]], done_time
