"""Shared test helpers: program builders and hypothesis strategies."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.ir import Builder, Module, Type, run_module, verify_module

#: Opcodes safe for random generation (no division by unconstrained values).
SAFE_BINOPS = ("add", "sub", "mul", "and_", "or_", "xor")
SAFE_SHIFTS = ("shl", "shr", "sra")
SAFE_CMPS = ("eq", "ne", "lt", "le", "gt", "ge")


def sum_of_squares_module(n: int = 10) -> Module:
    """A tiny canonical module used by many unit tests."""
    b = Builder()
    arr = b.global_array("arr", n, 8)
    b.function("main", return_type=Type.I64)
    total = b.mov(0, "total")
    with b.loop(0, n) as i:
        address = b.add(arr, b.shl(i, 3))
        b.store(b.mul(i, i), address)
    with b.loop(0, n) as i:
        address = b.add(arr, b.shl(i, 3))
        b.assign(total, b.add(total, b.load(address)))
    b.ret(total)
    verify_module(b.module)
    return b.module


def branchy_module(values) -> Module:
    """Data-dependent control flow over a list of constants."""
    b = Builder()
    from repro.bench._util import init_i64
    data = b.global_array("data", max(len(values), 1), 8, init_i64(values))
    b.function("main", return_type=Type.I64)
    acc = b.mov(0, "acc")
    with b.loop(0, len(values)) as i:
        v = b.load(b.add(data, b.shl(i, 3)))
        c = b.gt(v, 0)
        with b.if_then_else(c) as (then, otherwise):
            with then:
                b.assign(acc, b.add(acc, v))
            with otherwise:
                b.assign(acc, b.sub(acc, 1))
    b.ret(acc)
    verify_module(b.module)
    return b.module


def calls_module() -> Module:
    """Two calls to a callee, with a value live across both."""
    b = Builder()
    p = b.function("addmul", [Type.I64, Type.I64], Type.I64)
    b.ret(b.add(b.mul(p[0], p[1]), 1))
    b.function("main", return_type=Type.I64)
    keep = b.mov(1000)   # live across both calls
    x = b.call("addmul", [3, 4], Type.I64)
    y = b.call("addmul", [x, 2], Type.I64)
    b.ret(b.add(keep, y))
    return b.module


def recursion_module() -> Module:
    """Recursive factorial (recursion is never inlined)."""
    b = Builder()
    p = b.function("fact", [Type.I64], Type.I64)
    n = p[0]
    base = b.le(n, 1)
    with b.if_then(base):
        b.ret(1)
    rec = b.call("fact", [b.sub(n, 1)], Type.I64)
    b.ret(b.mul(n, rec))
    b.function("main", return_type=Type.I64)
    b.ret(b.call("fact", [9], Type.I64))
    return b.module


def nested_calls_module() -> Module:
    """Three chained calls with two values live across all of them."""
    b = Builder()
    p = b.function("inc", [Type.I64], Type.I64)
    b.ret(b.add(p[0], 1))
    b.function("main", return_type=Type.I64)
    keep1 = b.mov(100)
    keep2 = b.mov(200)
    a = b.call("inc", [1], Type.I64)
    c = b.call("inc", [a], Type.I64)
    d = b.call("inc", [c], Type.I64)
    b.ret(b.add(b.add(keep1, keep2), d))
    return b.module


def two_calls_module() -> Module:
    """A call's result live across a second call: ``a = f(x); c = g(x);
    return a * 3 + c``.  At O0 ``a`` arrives in the return register and
    must be copied to its own register before ``g`` reuses that one."""
    b = Builder()
    p = b.function("f", [Type.I64], Type.I64)
    b.ret(b.add(p[0], 5))
    p = b.function("g", [Type.I64], Type.I64)
    b.ret(b.mul(p[0], 7))
    b.function("main", return_type=Type.I64)
    x = b.mov(11)
    a = b.call("f", [x], Type.I64)
    c = b.call("g", [x], Type.I64)
    b.ret(b.add(b.mul(a, 3), c))
    return b.module


def aliasing_module(n: int = 24) -> Module:
    """Stores and loads through two pointers that alias on some
    iterations, with mixed widths: loads forward from stores in flight."""
    b = Builder()
    arr = b.global_array("arr", 4, 8)
    b.function("main", return_type=Type.I64)
    total = b.mov(0, "total")
    with b.loop(0, n) as i:
        p = b.add(arr, b.shl(b.and_(i, 1), 3))
        q = b.add(arr, b.shl(b.and_(b.shr(i, 1), 1), 3))
        b.store(b.add(i, 7), p)
        b.store(b.mul(i, 3), q, width=4)
        v = b.load(q)
        w = b.load(p, width=4)
        b.assign(total, b.add(total, b.add(v, w)))
    b.ret(total)
    verify_module(b.module)
    return b.module


def spinning_module() -> Module:
    """A loop that runs for 2**63 iterations: never finishes in a test.
    Do not hand it to the interpreter."""
    b = Builder()
    b.function("main", return_type=Type.I64)
    count = b.mov(0, "count")
    with b.while_loop(lambda: b.ge(count, 0)):
        b.assign(count, b.add(count, 1))
    b.ret(count)
    verify_module(b.module)
    return b.module


def load_goldens_tool():
    """``tools/cycle_goldens.py`` as a module (the tools directory is
    not a package)."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "tools" / \
        "cycle_goldens.py"
    spec = importlib.util.spec_from_file_location("cycle_goldens", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@st.composite
def random_program(draw, max_ops: int = 12):
    """Hypothesis strategy: a random module plus its source recipe.

    Generates straight-line integer arithmetic with an optional branch and
    an optional short counted loop, always terminating and trap-free.
    """
    seeds = draw(st.lists(st.integers(-1000, 1000), min_size=2, max_size=4))
    op_script = draw(st.lists(
        st.tuples(st.sampled_from(SAFE_BINOPS + SAFE_SHIFTS),
                  st.integers(0, 7), st.integers(0, 7),
                  st.integers(0, 15)),
        min_size=1, max_size=max_ops))
    with_branch = draw(st.booleans())
    with_loop = draw(st.booleans())
    loop_trip = draw(st.integers(1, 6))

    b = Builder()
    b.function("main", return_type=Type.I64)
    values = [b.mov(seed) for seed in seeds]

    def emit_ops():
        for opname, a_index, b_index, shift in op_script:
            a = values[a_index % len(values)]
            c = values[b_index % len(values)]
            if opname in SAFE_SHIFTS:
                result = getattr(b, opname)(a, shift)
            else:
                result = getattr(b, opname)(a, c)
            # Keep magnitudes bounded so mul chains don't explode.
            result = b.and_(result, 0xFFFFFFFF)
            values.append(result)

    if with_loop:
        with b.loop(0, loop_trip):
            emit_ops()
            values.append(b.and_(b.add(values[-1], values[0]), 0xFFFF))
    else:
        emit_ops()

    if with_branch:
        cond = b.gt(values[-1], values[0])
        with b.if_then_else(cond) as (then, otherwise):
            with then:
                b.assign(values[0], b.add(values[0], 1))
            with otherwise:
                b.assign(values[0], b.sub(values[0], 1))

    total = b.mov(0)
    for v in values[:8]:
        b.assign(total, b.and_(b.add(total, v), 0xFFFFFFFF))
    b.ret(total)
    verify_module(b.module)
    return b.module


def interp_result(module: Module):
    result, _ = run_module(module)
    return result
