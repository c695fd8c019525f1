"""The cycle simulator's execution kernel.

:class:`BatchedKernel` owns the simulator's hot inner loop: one block
activation's dataflow wake-up, operand routing, memory access, and
commit bookkeeping.  ``docs/KERNELS.md`` documents its performance
model and its equivalence contract: every run must match the golden
digests in ``tests/data/cycle_goldens.json`` (cycles, statistics, OPN
traffic and trace streams), which ``tools/cycle_goldens.py`` checks and
regenerates.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ir.interp import TrapError
from repro.ir.types import wrap64

from repro.isa.asm import is_write_target, write_slot_of
from repro.isa.block import TripsBlock
from repro.isa.instructions import (
    EXIT_OPS, Slot, TEST_OPS, TInst, TOp, TRIPS_LATENCY, operand_count,
)
from repro.trips.functional import (
    NULL_TOKEN, _BINOPS, _as_int, _compute, load_value, store_value,
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


#: Instruction kind codes for the kernel's dispatch table.
_K_COMPUTE, _K_LOAD, _K_STORE, _K_NULL, _K_EXIT = range(5)

#: "No operand delivered yet" sentinel for the flat operand arrays
#: (distinct from NULL_TOKEN, which is a real dataflow value).
_ABSENT = object()

_SLOT_OP0 = Slot.OP0
_SLOT_OP1 = Slot.OP1


class _BlockStatics:
    """Per-label static decode of one block, cached by BatchedKernel.

    Everything here is a pure function of (block, placement, topology,
    config): it is computed once per label and reused by every
    activation.
    """

    __slots__ = ("placement", "n", "insts", "need", "pred_want", "kinds",
                 "is_mov", "latency", "disp_off", "static_ready",
                 "store_lsids", "tiles", "coords", "targets", "read_plan",
                 "load_ids", "guard", "issue_claim", "ccode", "carg",
                 "exit_send", "has_senders")


class BatchedKernel:
    """The block-execution engine: skip-ahead timing + cached decode.

    One kernel serves one :class:`~repro.uarch.core.CycleSimulator`,
    which builds it last in its constructor.  The speed comes from
    three mechanisms that cannot change any timing decision:

    * **event-driven skip-ahead** — every resource pool (register
      ports, ET issue slots, OPN links, cache-bank ports, DRAM
      channels) is a :class:`~repro.uarch.resources.SkipAheadPool`,
      which jumps over a busy run of cycles in one bisect instead of
      probing it cycle by cycle;
    * **static decode caching** — operand counts, predicate wants,
      dispatch offsets, tile coordinates, decoded target lists, and
      latencies are computed once per block label instead of on every
      activation;
    * **pre-bound operand routing** — deliveries from a static source
      go through :meth:`~repro.uarch.opn.OperandNetwork.sender`
      closures that hold the route and its channel resources; the rest
      go through :meth:`~repro.uarch.opn.OperandNetwork.send`, which
      caches the same materialized routes.

    The kernel keeps no reference to its simulator (``execute_block``
    receives it per call), so a finished simulator and its memory image
    are freed as soon as the caller drops them, without waiting for the
    cyclic garbage collector.
    """

    def __init__(self, sim) -> None:
        topology = sim.topology
        config = sim.config
        self._statics: Dict[str, _BlockStatics] = {}
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

    def _decode_targets(self, block: TripsBlock, targets, coords, opn,
                        src_coord, cls_to_et: str,
                        cls_to_rt: str) -> Tuple:
        """Decode a target list once: write targets to
        ``(0, slot, bank, rt_coord, sender)``, predicate targets to
        ``(1, index, dst_coord, sender)``, operand targets to
        ``(2, index, slot, dst_coord, sender)`` — order preserved,
        because delivery order decides resource arbitration.

        ``sender`` is a bound fast-path route closure for the *static*
        source coordinate (``opn.sender``); it is ``None`` when the
        simulator traces (per-hop events need the generic path) and is
        never used for load-result deliveries, whose source bank is
        dynamic.
        """
        rt_coords = self._rt_coords
        decoded = []
        for target in targets:
            if is_write_target(target):
                slot = write_slot_of(target)
                bank = bank_of(block.writes[slot].reg)
                sender = None if opn is None else \
                    opn.sender(src_coord, rt_coords[bank], cls_to_rt)
                decoded.append((0, slot, bank, rt_coords[bank], sender))
            elif target.slot is Slot.PRED:
                dst = coords[target.inst]
                sender = None if opn is None else \
                    opn.sender(src_coord, dst, cls_to_et)
                decoded.append((1, target.inst, dst, sender))
            else:
                dst = coords[target.inst]
                sender = None if opn is None else \
                    opn.sender(src_coord, dst, cls_to_et)
                decoded.append((2, target.inst,
                                0 if target.slot is Slot.OP0 else 1,
                                dst, sender))
        return tuple(decoded)

    def _build(self, sim, block: TripsBlock,
               placement: Placement) -> _BlockStatics:
        topology = sim.topology
        insts = list(block.instructions)
        n = len(insts)
        st = _BlockStatics()
        st.placement = placement
        st.n = n
        st.insts = insts
        st.need = [operand_count(inst.op) for inst in insts]
        st.pred_want = [None if inst.predicate is None
                        else (1 if inst.predicate == "T" else 0)
                        for inst in insts]
        kinds = []
        for inst in insts:
            op = inst.op
            if op is TOp.LOAD:
                kinds.append(_K_LOAD)
            elif op is TOp.STORE:
                kinds.append(_K_STORE)
            elif op is TOp.NULL:
                kinds.append(_K_NULL)
            elif op in EXIT_OPS:
                kinds.append(_K_EXIT)
            else:
                kinds.append(_K_COMPUTE)
        st.kinds = kinds
        st.is_mov = [inst.op is TOp.MOV and inst.op not in TEST_OPS
                     for inst in insts]
        st.latency = [TRIPS_LATENCY.get(inst.op, 1) for inst in insts]
        bandwidth = sim.config.dispatch_bandwidth
        st.disp_off = [i // bandwidth for i in range(n)]
        # Ready at dispatch: zero operands and no predicate guard, in
        # ascending order (see the seeding note in execute_block).
        st.static_ready = tuple(
            i for i in range(n)
            if st.need[i] == 0 and st.pred_want[i] is None)
        st.store_lsids = tuple(sorted(block.store_lsids))
        st.tiles = [placement.tiles[i] for i in range(n)]
        st.coords = [topology.et_coord(tile) for tile in st.tiles]
        # Bound send closures are only built for a non-tracing simulator
        # (per-hop events need the generic path) and only for targets
        # whose source coordinate is static — load results come back
        # from a dynamic cache bank, so loads get no senders.
        opn = sim.opn if sim.tracer is None else None
        st.has_senders = opn is not None
        cls_et_et, cls_et_rt = self._cls_from_et
        cls_rt_et, cls_rt_rt = self._cls_from_rt
        st.targets = [
            self._decode_targets(
                block, inst.targets, st.coords,
                None if kinds[i] == _K_LOAD else opn,
                st.coords[i], cls_et_et, cls_et_rt)
            for i, inst in enumerate(insts)]
        rt_coords = self._rt_coords
        st.read_plan = [
            (read.reg, bank_of(read.reg),
             self._decode_targets(block, read.targets, st.coords, opn,
                                  rt_coords[bank_of(read.reg)],
                                  cls_rt_et, cls_rt_rt))
            for read in block.reads]
        gt = self._gt_coord
        st.exit_send = [opn.sender(st.coords[i], gt, "ET-GT")
                        if opn is not None and kinds[i] == _K_EXIT
                        else None for i in range(n)]
        # Compute plan: the per-op dispatch that _compute re-derives on
        # every fire, resolved once.  Codes: 0 binop (carg = handler),
        # 1 constant (carg = value), 2 MOV passthrough, 3 I2F, 4 F2I,
        # 5 fall back to _compute for anything else.
        ccode = []
        carg: List[object] = []
        for i, inst in enumerate(insts):
            op = inst.op
            if kinds[i] != _K_COMPUTE:
                ccode.append(-1)
                carg.append(None)
            elif op is TOp.GENI:
                ccode.append(1)
                carg.append(inst.imm)
            elif op is TOp.GENF:
                ccode.append(1)
                carg.append(inst.fimm)
            elif op is TOp.MOV:
                ccode.append(2)
                carg.append(None)
            elif op is TOp.I2F:
                ccode.append(3)
                carg.append(None)
            elif op is TOp.F2I:
                ccode.append(4)
                carg.append(None)
            else:
                handler = _BINOPS.get(op)
                if handler is not None and operand_count(op) == 2:
                    ccode.append(0)
                    carg.append(handler)
                else:
                    ccode.append(5)
                    carg.append(None)
        st.ccode = ccode
        st.carg = carg
        st.load_ids = [hash((block.label, i)) & 0xFFFF
                       if kinds[i] == _K_LOAD else -1 for i in range(n)]
        st.guard = 40 * n + 1000
        et_issue = sim.et_issue
        st.issue_claim = [et_issue.resource(tile).claim
                          for tile in st.tiles]
        return st

    # -- execution --------------------------------------------------------

    def execute_block(self, sim, block: TripsBlock, placement: Placement,
                      fetch_done: int) -> Tuple[TInst, int, int]:
        st = self._statics.get(block.label)
        if st is None or st.placement is not placement:
            st = self._statics[block.label] = \
                self._build(sim, block, placement)

        config = sim.config
        stats = sim.stats
        tracer = sim.tracer
        send = sim.opn.send
        lwt = sim.lwt
        regs = sim.regs
        reg_ready = sim.reg_ready
        l1d = sim.hierarchy.l1d
        l1d_access = l1d.access
        rt_read_claims = self._rt_read_claims
        rt_write_claims = self._rt_write_claims
        issue_claims = st.issue_claim
        pred_arrival = sim._predicate_arrival
        memory = sim.memory
        bank_sm = self._bank_shift_mask
        dt_coords = self._dt_coords
        gt_coord = self._gt_coord
        cls_et_et, cls_et_rt = self._cls_from_et
        cls_dt_et, cls_dt_rt = self._cls_from_dt
        cls_rt_et, cls_rt_rt = self._cls_from_rt

        block_label = block.label
        n = st.n
        insts = st.insts
        need = st.need
        pred_want = st.pred_want
        kinds = st.kinds
        is_mov = st.is_mov
        latency_of = st.latency
        disp_off = st.disp_off
        tiles = st.tiles
        coords = st.coords
        targets_of = st.targets
        store_lsids = st.store_lsids
        load_ids = st.load_ids
        ccode = st.ccode
        carg = st.carg
        exit_send = st.exit_send
        has_senders = st.has_senders
        l1d_hit = config.l1d_hit_cycles

        dispatch_base = fetch_done + config.fetch_to_dispatch_cycles
        v0s: List[object] = [_ABSENT] * n
        v1s: List[object] = [_ABSENT] * n
        arr_max = [0] * n
        pred_val: List[Optional[int]] = [None] * n
        pred_time = [0] * n
        arrived = [0] * n
        fired = [False] * n
        mispredicated = [False] * n

        ready: List[int] = []
        parked: List[int] = []
        resolved_stores: Dict[int, int] = {}
        store_addr_time: Dict[int, Tuple[int, int, int]] = {}
        store_buffer: Dict[int, Tuple[int, object, TInst]] = {}
        write_values: Dict[int, Tuple[object, int]] = {}
        write_producers: Dict[int, int] = {}
        used_feed: List[List[int]] = [[] for _ in range(n)]
        exit_taken: Optional[TInst] = None
        exit_time = 0
        load_flush_penalty = 0

        def deliver(value, when: int, decoded, producer_index: int,
                    src_coord, cls_to_et: str, cls_to_rt: str) -> None:
            """Generic delivery: source coordinate supplied per call
            (load results, tracing runs).  The per-entry sender closure
            is ignored."""
            for entry in decoded:
                tag = entry[0]
                if tag == 2:
                    _, index, tslot, dst, _snd = entry
                    if fired[index] or mispredicated[index]:
                        continue
                    arrive = send(src_coord, dst, when, cls_to_et)
                    if tslot == 0:
                        if v0s[index] is not _ABSENT:
                            continue
                        v0s[index] = value
                    else:
                        if v1s[index] is not _ABSENT:
                            continue
                        v1s[index] = value
                    if arrive > arr_max[index]:
                        arr_max[index] = arrive
                    arrived[index] += 1
                    if producer_index >= 0:
                        used_feed[index].append(producer_index)
                    check_ready(index)
                elif tag == 1:
                    _, index, dst, _snd = entry
                    if fired[index] or mispredicated[index]:
                        continue
                    arrive = send(src_coord, dst, when, cls_to_et)
                    if pred_val[index] is None:
                        actual = 1 if value and value is not NULL_TOKEN \
                            else 0
                        pred_val[index] = actual
                        pred_time[index] = pred_arrival(
                            block_label, index, actual, arrive,
                            dispatch_base + disp_off[index])
                        if producer_index >= 0:
                            used_feed[index].append(producer_index)
                        check_ready(index)
                else:
                    _, slot, bank, rt_dst, _snd = entry
                    arrive = send(src_coord, rt_dst, when, cls_to_rt)
                    port = rt_write_claims[bank](arrive)
                    write_values[slot] = (value, port)
                    if producer_index >= 0:
                        write_producers[slot] = producer_index

        def deliver_static(value, when: int, decoded,
                           producer_index: int) -> None:
            """Delivery over the pre-resolved sender closures (static
            source; tracer off).  Timing-identical to :func:`deliver` —
            the send still happens before operand dedup, because a
            duplicate operand occupies the network too."""
            for entry in decoded:
                tag = entry[0]
                if tag == 2:
                    _, index, tslot, _dst, snd = entry
                    if fired[index] or mispredicated[index]:
                        continue
                    arrive = snd(when)
                    if tslot == 0:
                        if v0s[index] is not _ABSENT:
                            continue
                        v0s[index] = value
                    else:
                        if v1s[index] is not _ABSENT:
                            continue
                        v1s[index] = value
                    if arrive > arr_max[index]:
                        arr_max[index] = arrive
                    arrived[index] += 1
                    if producer_index >= 0:
                        used_feed[index].append(producer_index)
                    check_ready(index)
                elif tag == 1:
                    _, index, _dst, snd = entry
                    if fired[index] or mispredicated[index]:
                        continue
                    arrive = snd(when)
                    if pred_val[index] is None:
                        actual = 1 if value and value is not NULL_TOKEN \
                            else 0
                        pred_val[index] = actual
                        pred_time[index] = pred_arrival(
                            block_label, index, actual, arrive,
                            dispatch_base + disp_off[index])
                        if producer_index >= 0:
                            used_feed[index].append(producer_index)
                        check_ready(index)
                else:
                    _, slot, bank, _dst, snd = entry
                    arrive = snd(when)
                    port = rt_write_claims[bank](arrive)
                    write_values[slot] = (value, port)
                    if producer_index >= 0:
                        write_producers[slot] = producer_index

        def check_ready(index: int) -> None:
            if fired[index] or mispredicated[index]:
                return
            if arrived[index] < need[index]:
                return
            want = pred_want[index]
            if want is not None:
                got = pred_val[index]
                if got is None:
                    return
                if got != want:
                    mispredicated[index] = True
                    if kinds[index] == _K_STORE:
                        resolved_stores[insts[index].lsid] = \
                            pred_time[index]
                        unpark()
                    return
            ready.append(index)

        def stores_resolved_below(lsid: int) -> bool:
            for s in store_lsids:
                if s >= lsid:
                    break
                if s not in resolved_stores:
                    return False
            return True

        def unpark() -> None:
            if parked:
                ready.extend(parked)
                parked.clear()

        def fire(index: int) -> None:
            nonlocal exit_taken, exit_time, load_flush_penalty
            inst = insts[index]
            fired[index] = True
            stats.executed += 1
            tile = tiles[index]
            coord = coords[index]
            t_ready = dispatch_base + disp_off[index]
            arrival = arr_max[index]
            if arrival > t_ready:
                t_ready = arrival
            if pred_want[index] is not None:
                predicated = pred_time[index]
                if predicated > t_ready:
                    t_ready = predicated
            issue = issue_claims[index](t_ready)
            done = issue + latency_of[index]
            kind = kinds[index]
            # Loads may still park below (unresolved earlier stores), so
            # their issue event is emitted after the disambiguation check.
            if tracer is not None and kind != _K_LOAD:
                tracer.emit("inst_issue", issue, label=block_label,
                            index=index, op=inst.op.value, tile=tile)

            if kind == _K_LOAD:
                address = wrap64(_as_int(v0s[index]) + inst.imm)
                if not stores_resolved_below(inst.lsid):
                    parked.append(index)
                    fired[index] = False
                    stats.executed -= 1
                    return
                stats.loads += 1
                stats.l1d_bytes += inst.width
                if tracer is not None:
                    tracer.emit("inst_issue", issue, label=block_label,
                                index=index, op=inst.op.value, tile=tile)
                if bank_sm is not None:
                    bank = (address >> bank_sm[0]) & bank_sm[1]
                else:
                    bank = l1d.bank_of(address)
                dt = dt_coords[bank]
                depart = send(coord, dt, done, "ET-DT")
                value, forwarded_from = _buffered_load(
                    memory, address, inst, store_buffer)
                finish = l1d_access(address, depart)
                back = send(dt, coord, finish, "ET-DT")
                if forwarded_from >= 0:
                    when, _addr, _w = store_addr_time[forwarded_from]
                    if when + l1d_hit > back:
                        back = when + l1d_hit
                    static_id = load_ids[index]
                    if static_id not in lwt:
                        lwt.add(static_id)
                        stats.load_flushes += 1
                        load_flush_penalty += \
                            config.load_violation_flush_cycles
                        if tracer is not None:
                            tracer.emit(
                                "load_flush", back, label=block_label,
                                index=index,
                                penalty=config
                                .load_violation_flush_cycles)
                if tracer is not None:
                    if forwarded_from >= 0:
                        tracer.emit("load_forward", back,
                                    label=block_label, index=index,
                                    lsid=inst.lsid,
                                    supplier=forwarded_from,
                                    address=address)
                    tracer.emit("inst_retire", back, label=block_label,
                                index=index, op=inst.op.value, tile=tile)
                deliver(value, back, targets_of[index], index, dt,
                        cls_dt_et, cls_dt_rt)
                return
            if kind == _K_STORE:
                stats.stores += 1
                stats.l1d_bytes += inst.width
                address = wrap64(_as_int(v0s[index]) + inst.imm)
                value = v1s[index]
                if bank_sm is not None:
                    bank = (address >> bank_sm[0]) & bank_sm[1]
                else:
                    bank = l1d.bank_of(address)
                arrive = send(coord, dt_coords[bank], done, "ET-DT")
                l1d_access(address, arrive, is_store=True)
                finish = arrive + l1d_hit
                store_buffer[inst.lsid] = (address, value, inst)
                resolved_stores[inst.lsid] = finish
                store_addr_time[inst.lsid] = (finish, address, inst.width)
                if tracer is not None:
                    tracer.emit("inst_retire", finish, label=block_label,
                                index=index, op=inst.op.value, tile=tile)
                unpark()
                return
            if kind == _K_NULL:
                if inst.lsid >= 0:
                    resolved_stores[inst.lsid] = done
                    unpark()
                if tracer is not None:
                    tracer.emit("inst_retire", done, label=block_label,
                                index=index, op=inst.op.value, tile=tile)
                if has_senders:
                    deliver_static(NULL_TOKEN, done, targets_of[index],
                                   index)
                else:
                    deliver(NULL_TOKEN, done, targets_of[index], index,
                            coord, cls_et_et, cls_et_rt)
                return
            if kind == _K_EXIT:
                if exit_taken is not None:
                    raise TrapError(f"{block_label}: two exits fired")
                exit_taken = inst
                snd = exit_send[index]
                if snd is not None:
                    exit_time = snd(done)
                else:
                    exit_time = send(coord, gt_coord, done, "ET-GT")
                if tracer is not None:
                    tracer.emit("inst_retire", exit_time,
                                label=block_label, index=index,
                                op=inst.op.value, tile=tile)
                return
            if is_mov[index]:
                stats.moves += 1
            code = ccode[index]
            if code == 0:
                a = v0s[index]
                b = v1s[index]
                value = NULL_TOKEN \
                    if a is NULL_TOKEN or b is NULL_TOKEN \
                    else carg[index](a, b)
            elif code == 1:
                value = carg[index]
            elif code == 2:
                value = v0s[index]
            elif code == 3:
                value = float(_as_int(v0s[index]))
            elif code == 4:
                value = wrap64(int(v0s[index]))
            else:
                slots: Dict[Slot, object] = {}
                operand = v0s[index]
                if operand is not _ABSENT:
                    slots[_SLOT_OP0] = operand
                operand = v1s[index]
                if operand is not _ABSENT:
                    slots[_SLOT_OP1] = operand
                value = _compute(inst.op, inst, slots)
            if tracer is not None:
                tracer.emit("inst_retire", done, label=block_label,
                            index=index, op=inst.op.value, tile=tile)
            if has_senders:
                deliver_static(value, done, targets_of[index], index)
            else:
                deliver(value, done, targets_of[index], index, coord,
                        cls_et_et, cls_et_rt)

        # Register reads: RT bank ports, then routed to consumers.
        rt_coords = self._rt_coords
        for reg, bank, decoded in st.read_plan:
            pending = reg_ready[reg]
            if pending < dispatch_base:
                pending = dispatch_base
            when = rt_read_claims[bank](pending)
            if has_senders:
                deliver_static(regs[reg], when, decoded, -1)
            else:
                deliver(regs[reg], when, decoded, -1, rt_coords[bank],
                        cls_rt_et, cls_rt_rt)

        # Zero-operand, unpredicated instructions become ready *after*
        # the read deliveries: the worklist is a LIFO, so seeding order
        # is part of the timing contract the goldens pin.
        ready.extend(st.static_ready)

        guard = 0
        guard_limit = st.guard
        pop = ready.pop
        while ready:
            index = pop()
            if fired[index] or mispredicated[index]:
                continue
            guard += 1
            if guard > guard_limit:
                raise TrapError(f"{block_label}: execution livelock")
            fire(index)

        done_time = exit_time
        for slot, write in enumerate(block.writes):
            if slot not in write_values:
                raise TrapError(f"{block_label}: write w{slot} missing")
            value, when = write_values[slot]
            if value is not NULL_TOKEN:
                regs[write.reg] = value
            reg_ready[write.reg] = when
            if when > done_time:
                done_time = when
        for lsid in store_lsids:
            if lsid not in resolved_stores:
                raise TrapError(f"{block_label}: store {lsid} unresolved")
            resolved = resolved_stores[lsid]
            if resolved > done_time:
                done_time = resolved
        # Commit buffered stores to memory in load/store-ID order — the
        # LSQ's sequential-memory-semantics guarantee.
        for lsid in sorted(store_buffer):
            address, value, inst = store_buffer[lsid]
            store_value(memory, address, value, inst)
        if exit_taken is None:
            raise TrapError(f"{block_label}: no exit fired")
        done_time += load_flush_penalty

        sim._account(block, fired, used_feed, write_producers, n)
        stats.blocks_committed += 1
        stats.fetched += n
        residency = done_time - dispatch_base
        if residency < 1:
            residency = 1
        stats.window_inst_cycles += residency * n
        stats.window_useful_cycles += residency * sim._last_useful
        return exit_taken, exit_time, done_time


def _overlap(addr_a: int, width_a: int, addr_b: int, width_b: int) -> bool:
    return addr_a < addr_b + width_b and addr_b < addr_a + width_a


def _buffered_load(memory, address: int, inst,
                   store_buffer) -> Tuple[object, int]:
    """Read a value as seen past the in-flight store buffer, and the
    lsid of the youngest buffered store that supplied bytes (or -1).

    Reconstructs the load's bytes from memory patched with every buffered
    store whose load/store ID precedes the load — without committing the
    stores (they commit in order at block completion).
    """
    import struct

    from repro.ir.types import sign_extend, zero_extend

    overlapping = sorted(
        lsid for lsid, (a, _v, si) in store_buffer.items()
        if lsid < inst.lsid and _overlap(address, inst.width, a, si.width))
    if not overlapping:
        return load_value(memory, address, inst), -1
    data = bytearray(memory.read_bytes(address, inst.width))
    for lsid in overlapping:
        saddr, svalue, sinst = store_buffer[lsid]
        if isinstance(svalue, float):
            payload = struct.pack("<d", svalue)
        else:
            payload = (int(svalue) & ((1 << (sinst.width * 8)) - 1)) \
                .to_bytes(sinst.width, "little")
        lo = max(address, saddr)
        hi = min(address + inst.width, saddr + sinst.width)
        data[lo - address:hi - address] = payload[lo - saddr:hi - saddr]
    if inst.is_float:
        value = struct.unpack("<d", bytes(data))[0]
    else:
        raw = int.from_bytes(bytes(data), "little")
        value = sign_extend(raw, inst.width) if inst.signed \
            else zero_extend(raw, inst.width)
    return value, overlapping[-1]
