"""Deep-dive tests of the dataflow converter's invariants.

These pin down the correctness mechanisms that make block-atomic
execution work: exit exclusivity, write-channel completion on every path,
null-token coverage of predicated stores, implicit gating, and select
resolution at predicate merge points.
"""

import pytest

from repro.bench._util import init_i64
from repro.ir import Builder, Type, run_module
from repro.isa import TOp, is_write_target
from repro.opt import optimize
from repro.trips import lower_module, run_trips


def _nested_predication_module(depth: int, values):
    """if (v>0) { if (v>10) { if (v>20) ... } } chains of given depth."""
    b = Builder()
    data = b.global_array("data", len(values), 8, init_i64(values))
    out = b.global_array("out", len(values), 8)
    b.function("main", return_type=Type.I64)
    with b.loop(0, len(values)) as i:
        v = b.load(b.add(data, b.shl(i, 3)))
        result = b.mov(0)
        thresholds = [0, 10, 20, 30][:depth]

        def nest(level):
            if level >= len(thresholds):
                return
            cond = b.gt(v, thresholds[level])
            with b.if_then(cond):
                b.assign(result, b.add(result, 1 << level))
                nest(level + 1)

        nest(0)
        b.store(result, b.add(out, b.shl(i, 3)))
    check = b.mov(0)
    with b.loop(0, len(values)) as i:
        b.assign(check, b.add(b.mul(check, 5),
                              b.load(b.add(out, b.shl(i, 3)))))
    b.ret(check)
    return b.module


class TestNestedPredication:
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_chain_depths(self, depth):
        values = [-5, 5, 15, 25, 35, 0, 11, 21, 31, 9]
        module = _nested_predication_module(depth, values)
        expected = run_module(module)[0]
        lowered = lower_module(optimize(module, "O2"))
        assert run_trips(lowered.program)[0] == expected

    def test_null_tokens_cover_predicated_stores(self):
        module = _nested_predication_module(3, [15, -1, 25])
        lowered = lower_module(optimize(module, "O2"))
        for block in lowered.program.all_blocks():
            store_lsids = {i.lsid for i in block.instructions
                           if i.op is TOp.STORE and i.predicate is not None}
            gated_lsids = set()
            # A store gated implicitly (no explicit predicate) also needs
            # NULL coverage; collect all store lsids with any gating and
            # check a NULL exists for each.
            null_lsids = {i.lsid for i in block.instructions
                          if i.op is TOp.NULL and i.lsid >= 0}
            for lsid in store_lsids:
                assert lsid in null_lsids, \
                    f"{block.label}: predicated store {lsid} lacks a NULL"

    def test_exactly_one_exit_fires(self):
        # Covered dynamically: TripsSimulator raises on double exits; a
        # full run over mixed paths is the strongest check.
        values = list(range(-10, 40, 3))
        module = _nested_predication_module(4, values)
        expected = run_module(module)[0]
        lowered = lower_module(optimize(module, "O2"))
        assert run_trips(lowered.program)[0] == expected


class TestConversionInvariants:
    def _lowered(self, name="a2time"):
        from repro.pipeline import Pipeline
        pipeline = Pipeline()
        return pipeline.trips_lowered(name)

    def test_every_operand_slot_has_a_producer(self):
        from repro.isa import operand_count
        lowered = self._lowered()
        for block in lowered.program.all_blocks():
            fed = {}
            for producer in list(block.instructions) + list(block.reads):
                for target in producer.targets:
                    if not is_write_target(target):
                        fed.setdefault(target.inst, set()).add(target.slot)
            for inst in block.instructions:
                need = operand_count(inst.op)
                have = len([s for s in fed.get(inst.index, ())
                            if s.value < 2])
                assert have >= need, \
                    f"{block.label} i{inst.index} {inst.op} starved"

    def test_predicated_instructions_receive_predicates(self):
        from repro.isa import Slot
        lowered = self._lowered()
        for block in lowered.program.all_blocks():
            pred_fed = set()
            for producer in list(block.instructions) + list(block.reads):
                for target in producer.targets:
                    if not is_write_target(target) \
                            and target.slot is Slot.PRED:
                        pred_fed.add(target.inst)
            for inst in block.instructions:
                if inst.predicate is not None:
                    assert inst.index in pred_fed, \
                        f"{block.label} i{inst.index} predicate unfed"

    def test_conversion_deterministic(self):
        from repro.pipeline import Pipeline
        from repro.isa import format_program
        a = Pipeline().trips_lowered("crc")
        b = Pipeline().trips_lowered("crc")
        assert format_program(a.program) == format_program(b.program)

    def test_implicit_gating_reduces_predicates(self):
        """Most instructions in predicated regions must be gated through
        dataflow, not explicit predicate operands (Section 2)."""
        module = _nested_predication_module(3, list(range(-5, 45, 2)))
        lowered = lower_module(optimize(module, "O2"))
        biggest = max(lowered.program.all_blocks(),
                      key=lambda b: len(b.instructions))
        explicit = sum(1 for i in biggest.instructions if i.predicate)
        assert explicit < len(biggest.instructions) / 2


class TestSelectResolution:
    def test_diamond_merge(self):
        b = Builder()
        data = b.global_array("d", 8, 8, init_i64([3, -3] * 4))
        b.function("main", return_type=Type.I64)
        acc = b.mov(0)
        with b.loop(0, 8) as i:
            v = b.load(b.add(data, b.shl(i, 3)))
            picked = b.mov(0)
            with b.if_then_else(b.gt(v, 0)) as (then, otherwise):
                with then:
                    b.assign(picked, b.mul(v, 10))
                with otherwise:
                    b.assign(picked, b.sub(0, v))
            b.assign(acc, b.add(acc, picked))
        b.ret(acc)
        expected = run_module(b.module)[0]
        lowered = lower_module(optimize(b.module, "O2"))
        assert run_trips(lowered.program)[0] == expected

    def test_sequential_reassignment(self):
        b = Builder()
        data = b.global_array("d", 6, 8, init_i64([1, 15, 3, 40, 9, 22]))
        b.function("main", return_type=Type.I64)
        acc = b.mov(0)
        with b.loop(0, 6) as i:
            v = b.load(b.add(data, b.shl(i, 3)))
            x = b.mov(0)
            with b.if_then(b.gt(v, 5)):
                b.assign(x, 1)
            with b.if_then(b.gt(v, 20)):
                b.assign(x, 2)
            with b.if_then(b.gt(v, 35)):
                b.assign(x, 3)
            b.assign(acc, b.add(b.mul(acc, 4), x))
        b.ret(acc)
        expected = run_module(b.module)[0]
        lowered = lower_module(optimize(b.module, "O2"))
        assert run_trips(lowered.program)[0] == expected

    def test_loop_carried_conditional_update(self):
        """The argmax pattern that once miscompiled (select of a value
        defined under predicate, live only across the backedge)."""
        b = Builder()
        data = b.global_array("d", 10, 8,
                              init_i64([4, 9, 2, 9, 7, 1, 8, 3, 9, 5]))
        b.function("main", return_type=Type.I64)
        best = b.mov(-1)
        best_at = b.mov(-1)
        with b.loop(0, 10) as i:
            v = b.load(b.add(data, b.shl(i, 3)))
            better = b.gt(v, best)
            with b.if_then(better):
                b.assign(best, v)
                b.assign(best_at, i)
        b.ret(b.add(b.mul(best_at, 100), best))
        expected = run_module(b.module)[0]
        for level in ("O0", "O2", "HAND"):
            lowered = lower_module(optimize(b.module, level))
            assert run_trips(lowered.program)[0] == expected, level
