"""RISC substrate tests: ISA, codegen, register allocation, simulator."""

import pytest
from hypothesis import given, settings

from repro.ir import Builder, TrapError, Type, run_module
from repro.opt import optimize
from repro.risc import (
    RClass, Reg, RiscSimulator, RiscTrace, ROp, lower_module, run_program,
)
from repro.risc.isa import (
    CATEGORY, INT_ALLOCATABLE, RiscFunction, RiscInst, RiscProgram,
)

from tests.util import branchy_module, random_program, sum_of_squares_module


class TestIsaDefinitions:
    def test_every_opcode_categorized(self):
        for op in ROp:
            assert op in CATEGORY, f"{op} missing a category"

    def test_register_str(self):
        assert str(Reg(RClass.INT, 5)) == "r5"
        assert str(Reg(RClass.FLT, 200)) == "vf200"

    def test_store_sources_include_value(self):
        inst = RiscInst(ROp.ST, rd=Reg(RClass.INT, 13),
                        ra=Reg(RClass.INT, 14))
        assert inst.dest() is None
        assert len(inst.sources()) == 2


class TestCodegenCorrectness:
    def test_sum_of_squares(self):
        module = sum_of_squares_module(20)
        expected = run_module(module)[0]
        assert run_program(lower_module(module))[0] == expected

    def test_branchy(self):
        module = branchy_module([3, -1, 4, -1, 5, -9, 2, 6])
        expected = run_module(module)[0]
        assert run_program(lower_module(module))[0] == expected

    def test_calls_and_returns(self):
        b = Builder()
        p = b.function("mix", [Type.I64, Type.I64], Type.I64)
        b.ret(b.add(b.mul(p[0], 3), p[1]))
        b.function("main", return_type=Type.I64)
        inner = b.call("mix", [5, 2], Type.I64)
        outer = b.call("mix", [inner, 100], Type.I64)
        b.ret(outer)
        expected = run_module(b.module)[0]
        assert run_program(lower_module(b.module))[0] == expected

    def test_float_function(self):
        b = Builder()
        b.function("main", return_type=Type.I64)
        acc = b.mov(0.0)
        with b.loop(0, 6) as i:
            b.assign(acc, b.fadd(acc, b.fmul(b.i2f(i), 0.5)))
        b.ret(b.f2i(b.fmul(acc, 4.0)))
        expected = run_module(b.module)[0]
        assert run_program(lower_module(b.module))[0] == expected

    def test_spilling_many_live_values(self):
        """More live values than allocatable registers forces spill code,
        which must stay correct."""
        b = Builder()
        b.function("main", return_type=Type.I64)
        live = [b.mov(k * 3 + 1) for k in range(len(INT_ALLOCATABLE) + 10)]
        total = b.mov(0)
        # Keep all values live until the end by consuming them afterwards.
        with b.loop(0, 3):
            b.assign(total, b.add(total, 1))
        for v in live:
            b.assign(total, b.add(total, v))
        b.ret(total)
        expected = run_module(b.module)[0]
        program = lower_module(b.module)
        result, sim = run_program(program)
        assert result == expected
        # Spills show up as frame stores.
        assert program.function("main").frame_size > 0

    @settings(max_examples=30, deadline=None)
    @given(random_program())
    def test_random_programs(self, module):
        expected = run_module(module)[0]
        assert run_program(lower_module(module))[0] == expected

    @settings(max_examples=15, deadline=None)
    @given(random_program())
    def test_random_programs_optimized(self, module):
        expected = run_module(module)[0]
        optimized = optimize(module, "ICC")
        assert run_program(lower_module(optimized))[0] == expected


class TestStatistics:
    def test_loads_stores_counted(self):
        module = sum_of_squares_module(11)
        _, sim = run_program(lower_module(module))
        assert sim.stats.loads >= 11
        assert sim.stats.stores >= 11

    def test_register_accesses_positive(self):
        _, sim = run_program(lower_module(sum_of_squares_module(5)))
        assert sim.stats.register_reads > sim.stats.register_writes > 0

    def test_dynamic_code_footprint(self):
        _, sim = run_program(lower_module(sum_of_squares_module(5)))
        program_bytes = sim.stats.dynamic_code_bytes()
        assert 0 < program_bytes <= 4 * sim.total_static

    def test_branch_counters(self):
        module = branchy_module([1, -1] * 10)
        _, sim = run_program(lower_module(module))
        assert sim.stats.branches > 20
        assert 0 < sim.stats.taken_branches <= sim.stats.branches


class TestTrace:
    def test_trace_stream_matches_execution(self):
        module = sum_of_squares_module(6)
        trace = RiscTrace()
        program = lower_module(module)
        result, sim = run_program(program, record=trace)
        assert len(trace) == sim.stats.executed
        assert trace.stats is sim.stats
        categories = [trace.static[pc][1] for pc in trace.pcs]
        loads = [address for address, category
                 in zip(trace.addresses, categories) if category == "load"]
        assert loads and all(address > 0 for address in loads)
        assert all(address == -1 for address, category
                   in zip(trace.addresses, categories)
                   if category not in ("load", "store"))
        assert sum(trace.taken) == sim.stats.taken_branches
        assert sim.stats.branches, "a loop must produce branch records"

    def test_fallthrough_branches_removed(self):
        program = lower_module(sum_of_squares_module(4))
        func = program.function("main")
        for i, inst in enumerate(func.instructions):
            if inst.op is ROp.B:
                assert func.labels[inst.label] != i + 1


class TestTrapPoints:
    """Statistics of runs stopped by a trap, as recorded before the
    simulator decoded its program once: the rewrite must keep them."""

    @staticmethod
    def _counts(stats):
        return dict(executed=stats.executed,
                    by_category=dict(stats.by_category),
                    loads=stats.loads, stores=stats.stores,
                    register_reads=stats.register_reads,
                    register_writes=stats.register_writes,
                    branches=stats.branches,
                    taken_branches=stats.taken_branches,
                    touched=len(stats.touched_pcs))

    def test_out_of_fuel(self):
        from repro.bench import get
        program = lower_module(optimize(get("rspeed").module(), "O2"))
        sim = RiscSimulator(program, fuel=1234)
        with pytest.raises(TrapError, match=r"out of fuel"):
            sim.run("main")
        assert self._counts(sim.stats) == dict(
            executed=1233,
            by_category={"arith": 717, "control": 153, "load": 51,
                         "move": 203, "store": 7, "test": 102},
            loads=51, stores=7, register_reads=1238, register_writes=1073,
            branches=153, taken_branches=152, touched=36)

    def test_store_out_of_range(self):
        # The trapping store read its two registers and counts as a
        # store, but it did not retire.
        b = Builder()
        buf = b.global_array("buf", 1, 8)
        b.function("main", return_type=Type.I64)
        b.store(7, b.add(buf, 10 ** 9))
        b.ret(0)
        sim = RiscSimulator(lower_module(b.module))
        with pytest.raises(TrapError, match=r"memory access out of range"):
            sim.run("main")
        assert self._counts(sim.stats) == dict(
            executed=8, by_category={"arith": 5, "store": 3}, loads=0,
            stores=4, register_reads=11, register_writes=5, branches=0,
            taken_branches=0, touched=8)

    def test_divide_by_zero(self):
        b = Builder()
        zero = b.global_array("zero", 1, 8)
        b.function("main", return_type=Type.I64)
        b.ret(b.div(5, b.load(zero)))
        sim = RiscSimulator(lower_module(b.module))
        with pytest.raises(TrapError, match=r"integer divide by zero"):
            sim.run("main")
        assert self._counts(sim.stats) == dict(
            executed=7, by_category={"arith": 3, "store": 3, "load": 1},
            loads=1, stores=3, register_reads=10, register_writes=4,
            branches=0, taken_branches=0, touched=7)


class TestWriteRule:
    def test_destination_class_converts_the_value(self):
        """A write converts by the destination's class: ``wrap64(int(v))``
        into an integer register, ``float(v)`` into a float one, even
        where an instruction mixes classes."""
        f1, f2 = Reg(RClass.FLT, 1), Reg(RClass.FLT, 2)
        r3, r4 = Reg(RClass.INT, 3), Reg(RClass.INT, 4)
        main = RiscFunction("main", [
            RiscInst(ROp.LI, rd=f1, fimm=1.5),
            RiscInst(ROp.LI, rd=f2, fimm=2.25),
            RiscInst(ROp.FADD, rd=r4, ra=f1, rb=f2),   # 3.75 -> 3
            RiscInst(ROp.MR, rd=r3, ra=f2),            # 2.25 -> 2
            RiscInst(ROp.ADD, rd=r3, ra=r3, rb=r4),
            RiscInst(ROp.RET),
        ])
        assert run_program(RiscProgram({"main": main}))[0] == 5
