"""Shared helpers for benchmark authoring."""

from __future__ import annotations

import struct
from typing import Iterable

from repro.ir.builder import Builder
from repro.ir.values import VReg


def init_i64(values: Iterable[int]) -> bytes:
    """Little-endian int64 initializer bytes."""
    out = bytearray()
    for v in values:
        out += struct.pack("<Q", v & ((1 << 64) - 1))
    return bytes(out)


def init_f64(values: Iterable[float]) -> bytes:
    out = bytearray()
    for v in values:
        out += struct.pack("<d", float(v))
    return bytes(out)


class Lcg:
    """Deterministic 64-bit LCG for reproducible synthetic inputs."""

    def __init__(self, seed: int = 0x2545F4914F6CDD1D) -> None:
        self.state = seed & ((1 << 64) - 1)

    def next(self) -> int:
        self.state = (self.state * 6364136223846793005 + 1442695040888963407) \
            & ((1 << 64) - 1)
        return self.state >> 16

    def below(self, bound: int) -> int:
        return self.next() % bound

    def float01(self) -> float:
        return self.next() / float(1 << 48)


def addr(b: Builder, base: int, index, scale_log2: int = 3) -> VReg:
    """Emit address computation base + (index << scale_log2)."""
    return b.add(base, b.shl(index, scale_log2))


def emit_lcg_step(b: Builder, state: VReg) -> VReg:
    """Emit one LCG step updating ``state`` in place; returns a value
    register holding the new 48-bit output."""
    bumped = b.add(b.mul(state, 6364136223846793005), 1442695040888963407)
    b.assign(state, bumped)
    return b.shr(state, 16)
