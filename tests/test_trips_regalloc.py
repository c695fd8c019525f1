"""Unit tests for TRIPS register allocation and hyperblock formation
mechanics (pools, pinning, interference, exit dedup, the oracle)."""

import pytest

from repro.ir import Builder, Type, run_module
from repro.opt import optimize
from repro.trips import run_trips, lower_module
from repro.trips.hyperblock import (
    HExit, Hyperblock, _dedupe_exits, canonicalize_returns, chain_covers,
    split_calls,
)
from repro.trips.regalloc import (
    ARG_REGS, CALLEE_SAVED, CALLER_SAVED, RETURN_REG, SP_REG,
    allocate_registers, bank_of,
)

from tests.util import nested_calls_module


class TestBanks:
    def test_four_banks_interleaved(self):
        seen = {bank_of(r) for r in range(8)}
        assert seen == {0, 1, 2, 3}

    def test_pools_avoid_reserved_registers(self):
        pool = set(CALLER_SAVED) | set(CALLEE_SAVED)
        assert SP_REG not in pool
        assert RETURN_REG not in pool
        assert not (set(ARG_REGS) & pool)


def _two_block_hyperblocks():
    """Hand-built hyperblocks: entry defines values used by a successor."""
    b = Builder()
    b.function("main", return_type=Type.I64)
    x = b.mov(5)
    y = b.mov(7)
    b.br("second")
    b.block("second")
    b.switch_to("second")
    b.ret(b.add(x, y))
    func = b.module.function("main")
    from repro.trips.hyperblock import _seed_hyperblock
    return func, [_seed_hyperblock(block) for block in func.blocks]


class TestAllocation:
    def test_cross_block_values_get_registers(self):
        func, hbs = _two_block_hyperblocks()
        allocation = allocate_registers(hbs, func.params, func.entry.label)
        assigned = set(allocation.assignment.values())
        assert len(assigned) == 2           # x and y in distinct registers
        assert assigned <= set(CALLER_SAVED) | set(CALLEE_SAVED)
        assert not allocation.spilled

    def test_co_live_values_do_not_share(self):
        func, hbs = _two_block_hyperblocks()
        allocation = allocate_registers(hbs, func.params, func.entry.label)
        values = list(allocation.assignment.values())
        assert len(values) == len(set(values))

    def test_call_crossing_values_use_callee_saved(self):
        b = Builder()
        p = b.function("id", [Type.I64], Type.I64)
        b.ret(p[0])
        b.function("main", return_type=Type.I64)
        keep = b.mov(77)
        r = b.call("id", [1], Type.I64)
        b.ret(b.add(keep, r))
        func = b.module.function("main")
        split_calls(func)
        canonicalize_returns(func)
        from repro.trips.hyperblock import _seed_hyperblock
        hbs = [_seed_hyperblock(block) for block in func.blocks]
        allocation = allocate_registers(hbs, func.params, func.entry.label)
        keep_reg = allocation.assignment.get(keep)
        assert keep_reg in CALLEE_SAVED
        assert keep_reg in allocation.used_callee_saved
        assert allocation.frame_size > 0


class TestFormationMechanics:
    def test_dedupe_complementary_exits(self):
        hb = Hyperblock("h")
        cond = object()
        hb.exits = [HExit("br", ((cond, True),), "join"),
                    HExit("br", ((cond, False),), "join")]
        _dedupe_exits(hb)
        assert len(hb.exits) == 1
        assert hb.exits[0].pred is None

    def test_dedupe_requires_same_prefix(self):
        hb = Hyperblock("h")
        c1, c2 = object(), object()
        hb.exits = [HExit("br", ((c1, True), (c2, True)), "join"),
                    HExit("br", ((c2, False),), "join")]
        _dedupe_exits(hb)
        assert len(hb.exits) == 2   # different chains: not collapsible

    def test_chain_covers_edge_cases(self):
        assert chain_covers(None, None)
        assert chain_covers((), (("c", True),))
        assert not chain_covers((("c", True),), ())

    def test_formation_bounded_by_oracle(self):
        """With an oracle that rejects everything, formation must return
        the seed blocks unchanged."""
        from repro.trips.hyperblock import form_hyperblocks
        b = Builder()
        b.function("main", return_type=Type.I64)
        x = b.mov(1)
        with b.if_then(b.gt(x, 0)):
            b.assign(x, 2)
        b.ret(x)
        func = b.module.function("main")
        n_blocks = len(func.blocks)
        always = form_hyperblocks(func, lambda hb: True)
        b2 = Builder()
        b2.function("main", return_type=Type.I64)
        y = b2.mov(1)
        with b2.if_then(b2.gt(y, 0)):
            b2.assign(y, 2)
        b2.ret(y)
        func2 = b2.module.function("main")
        seeds_only = form_hyperblocks(func2, lambda hb: True, max_rounds=0)
        assert len(seeds_only) == n_blocks
        assert len(always) < len(seeds_only)


class TestAbiEndToEnd:
    def test_many_args(self):
        b = Builder()
        params = b.function("sum6", [Type.I64] * 6, Type.I64)
        acc = b.mov(0)
        for p in params:
            b.assign(acc, b.add(acc, p))
        b.ret(acc)
        b.function("main", return_type=Type.I64)
        b.ret(b.call("sum6", [1, 2, 3, 4, 5, 6], Type.I64))
        expected = run_module(b.module)[0]
        lowered = lower_module(optimize(b.module, "O0"))
        assert run_trips(lowered.program)[0] == expected

    def test_nested_calls_preserve_live_values(self):
        module = nested_calls_module()
        expected = run_module(module)[0]
        lowered = lower_module(optimize(module, "O0"))
        assert run_trips(lowered.program)[0] == expected
