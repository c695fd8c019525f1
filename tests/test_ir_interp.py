"""Interpreter semantics tests: arithmetic, memory, control, calls."""

import pytest
from hypothesis import given, strategies as st

from repro.bench import get
from repro.ir import (
    Builder, Function, Instruction, Interpreter, Module, Opcode, TrapError,
    Type, const, run_module,
)
from repro.ir.types import wrap64

from tests.util import branchy_module, sum_of_squares_module


def _binary(op_name, a, b, type_=Type.I64):
    builder = Builder()
    builder.function("main", return_type=type_)
    result = getattr(builder, op_name)(a, b)
    builder.ret(result)
    value, _ = run_module(builder.module)
    return value


class TestIntegerArithmetic:
    @pytest.mark.parametrize("op,a,b,expected", [
        ("add", 2, 3, 5),
        ("sub", 2, 5, -3),
        ("mul", -4, 6, -24),
        ("div", 7, 2, 3),
        ("div", -7, 2, -3),          # truncation toward zero
        ("rem", -7, 2, -1),
        ("and_", 0b1100, 0b1010, 0b1000),
        ("or_", 0b1100, 0b1010, 0b1110),
        ("xor", 0b1100, 0b1010, 0b0110),
        ("shl", 3, 4, 48),
        ("sra", -16, 2, -4),
    ])
    def test_ops(self, op, a, b, expected):
        assert _binary(op, a, b) == expected

    def test_shr_is_logical(self):
        assert _binary("shr", -1, 60) == 15

    def test_add_wraps(self):
        assert _binary("add", (1 << 63) - 1, 1) == -(1 << 63)

    def test_divide_by_zero_traps(self):
        with pytest.raises(TrapError):
            _binary("div", 1, 0)

    @given(st.integers(-(1 << 62), 1 << 62), st.integers(-(1 << 62), 1 << 62))
    def test_add_matches_wrap64(self, a, b):
        assert _binary("add", a, b) == wrap64(a + b)


class TestComparisons:
    @pytest.mark.parametrize("op,a,b,expected", [
        ("eq", 3, 3, 1), ("ne", 3, 3, 0), ("lt", -1, 0, 1),
        ("ge", -1, 0, 0), ("ult", -1, 0, 0), ("uge", -1, 0, 1),
    ])
    def test_ops(self, op, a, b, expected):
        assert _binary(op, a, b) == expected


class TestFloat:
    def test_float_pipeline(self):
        b = Builder()
        b.function("main", return_type=Type.I64)
        x = b.fadd(1.5, 2.25)
        y = b.fmul(x, 2.0)
        b.ret(b.f2i(y))
        assert run_module(b.module)[0] == 7

    def test_i2f_round_trip(self):
        b = Builder()
        b.function("main", return_type=Type.I64)
        b.ret(b.f2i(b.i2f(-123)))
        assert run_module(b.module)[0] == -123

    def test_fcmp(self):
        assert _binary("flt", 1.0, 2.0) == 1
        assert _binary("fle", 2.0, 2.0) == 1


class TestMemory:
    @pytest.mark.parametrize("width,value,signed,expected", [
        (1, 0xFF, True, -1), (1, 0xFF, False, 255),
        (2, 0x8000, True, -32768), (4, -1, True, -1),
    ])
    def test_narrow_access(self, width, value, signed, expected):
        b = Builder()
        buf = b.global_array("buf", 4, 8)
        b.function("main", return_type=Type.I64)
        b.store(value, buf, width=width)
        b.ret(b.load(buf, width=width, signed=signed))
        assert run_module(b.module)[0] == expected

    def test_float_memory(self):
        b = Builder()
        buf = b.global_array("buf", 2, 8)
        b.function("main", return_type=Type.I64)
        b.fstore(3.25, buf)
        b.ret(b.f2i(b.fmul(b.fload(buf), 4.0)))
        assert run_module(b.module)[0] == 13

    def test_out_of_range_traps(self):
        b = Builder()
        b.function("main", return_type=Type.I64)
        b.ret(b.load(10 ** 9))
        with pytest.raises(TrapError):
            run_module(b.module)

    def test_offset_addressing(self):
        b = Builder()
        buf = b.global_array("buf", 4, 8)
        b.function("main", return_type=Type.I64)
        b.store(77, buf, offset=16)
        b.ret(b.load(b.add(buf, 16)))
        assert run_module(b.module)[0] == 77


class TestControlAndCalls:
    def test_sum_of_squares(self):
        assert run_module(sum_of_squares_module(12))[0] == \
            sum(i * i for i in range(12))

    def test_branchy(self):
        values = [5, -3, 8, 0, -1, 2]
        expected = 0
        for v in values:
            expected = expected + v if v > 0 else expected - 1
        assert run_module(branchy_module(values))[0] == expected

    def test_recursive_call(self):
        assert run_module(_fib_module())[0] == 55

    def test_fuel_exhaustion(self):
        b = Builder()
        b.function("main", return_type=Type.I64)
        b.block("spin")
        b.br("spin")
        b.switch_to("spin")
        b.br("spin")
        interp = Interpreter(b.module, fuel=1000)
        with pytest.raises(TrapError, match=r"out of fuel"):
            interp.run()
        # The 1000th instruction traps before it executes.
        assert interp.stats.executed == 999
        assert interp.stats.branches == 999
        assert _opcodes(interp.stats) == {"BR": 999}

    def test_stats_counting(self):
        _, interp = run_module(sum_of_squares_module(5))
        assert interp.stats.loads == 5
        assert interp.stats.stores == 5
        assert interp.stats.executed > 20


def _fib_module():
    b = Builder()
    p = b.function("fib", [Type.I64], Type.I64)
    n = p[0]
    small = b.lt(n, 2)
    with b.if_then(small):
        b.ret(n)
    a = b.call("fib", [b.sub(n, 1)], Type.I64)
    c = b.call("fib", [b.sub(n, 2)], Type.I64)
    b.ret(b.add(a, c))
    b.function("main", return_type=Type.I64)
    b.ret(b.call("fib", [10], Type.I64))
    return b.module


def _opcodes(stats):
    return {op.name: times for op, times in stats.by_opcode.items()}


def _single_block(*instructions):
    """An unverified ``main`` of one block, for trap tests."""
    module = Module()
    func = module.add_function(Function("main", return_type=Type.I64))
    block = func.add_block("entry")
    for make in instructions:
        block.instructions.append(make(func))
    return module


class TestPinnedStats:
    """The interpreter's statistics, as recorded before its loop decoded
    each function once: the rewrite must keep every count."""

    @pytest.mark.parametrize("name,result,counts,by_opcode", [
        ("rspeed", 1197473,
         dict(executed=3988, loads=200, stores=0, branches=792, calls=0),
         {"ADD": 800, "BR": 391, "CBR": 401, "DIV": 400, "GT": 200,
          "LOAD": 200, "LT": 201, "MOV": 994, "MUL": 200, "RET": 1,
          "SHL": 200}),
        ("canrdr", 16615163,
         dict(executed=5814, loads=675, stores=187, branches=1530, calls=0),
         {"ADD": 1342, "AND": 8, "BR": 765, "CBR": 765, "LOAD": 675,
          "LT": 765, "MOV": 313, "MUL": 249, "RET": 1, "SHL": 675,
          "STORE": 187, "XOR": 69}),
        ("fft", 276888,
         dict(executed=12635, loads=1280, stores=768, branches=1500,
              calls=0),
         {"ADD": 2694, "BR": 654, "CBR": 846, "DIV": 12, "F2I": 1,
          "FADD": 704, "FMUL": 897, "FSUB": 576, "LOAD": 1280, "LT": 846,
          "MOV": 534, "MUL": 198, "REM": 576, "RET": 1, "SHL": 2048,
          "STORE": 768}),
    ])
    def test_suite_program(self, name, result, counts, by_opcode):
        value, interp = run_module(get(name).module())
        assert value == result
        stats = interp.stats
        assert {key: getattr(stats, key) for key in counts} == counts
        assert _opcodes(stats) == by_opcode

    def test_recursive_calls(self):
        value, interp = run_module(_fib_module())
        assert value == 55
        stats = interp.stats
        assert (stats.executed, stats.loads, stats.stores, stats.branches,
                stats.calls) == (973, 0, 0, 177, 177)
        assert _opcodes(stats) == {"ADD": 88, "CALL": 177, "CBR": 177,
                                   "LT": 177, "RET": 178, "SUB": 176}


class TestTrapPoints:
    def test_undefined_register_read(self):
        module = _single_block(lambda f: Instruction(
            Opcode.RET, args=[f.new_vreg(Type.I64, "ghost")]))
        interp = Interpreter(module)
        with pytest.raises(TrapError,
                           match=r"read of undefined register %0\.ghost"):
            interp.run()
        # The trapping instruction counts as executed.
        assert _opcodes(interp.stats) == {"RET": 1}

    def test_falling_off_a_block(self):
        module = _single_block(lambda f: Instruction(
            Opcode.MOV, f.new_vreg(Type.I64), [const(1)]))
        interp = Interpreter(module)
        with pytest.raises(TrapError,
                           match=r"fell off the end of main/entry"):
            interp.run()
        assert interp.stats.executed == 1

    def test_divide_by_zero_counts_the_division(self):
        b = Builder()
        zero = b.global_array("zero", 1, 8)
        b.function("main", return_type=Type.I64)
        b.ret(b.div(5, b.load(zero)))
        interp = Interpreter(b.module)
        with pytest.raises(TrapError, match=r"integer divide by zero"):
            interp.run()
        assert _opcodes(interp.stats) == {"LOAD": 1, "DIV": 1}
        assert interp.stats.loads == 1


class TestDecodePerRun:
    def test_rewrite_in_place_is_seen_by_a_new_interpreter(self):
        b = Builder()
        b.function("main", return_type=Type.I64)
        b.ret(b.add(b.mov(2), 3))
        module = b.module
        assert Interpreter(module).run() == 5
        add = next(inst for inst in module.function("main").instructions()
                   if inst.op is Opcode.ADD)
        add.args = [add.args[0], const(40)]   # as optimizer passes do
        assert Interpreter(module).run() == 42
