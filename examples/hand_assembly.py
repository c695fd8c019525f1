#!/usr/bin/env python3
"""Hand-written TRIPS EDGE assembly, end to end.

The paper's best results come from hand-assembled kernels.  This example
writes a block-atomic sum-reduction *directly in TRIPS assembly* — header
read/write instructions, dataflow targets, predicated exits — assembles
it with `repro.isa.asm.parse_program`, validates it against the prototype
block constraints, and runs it on both the functional and the cycle-level
simulators.

The kernel sums data[0..n-1]:

    G3 = n (argument), G13 = running index, G14 = accumulator

Each block activation handles one element and loops; registers carry the
loop state between blocks exactly as Section 2 of the paper describes.

Run:  python examples/hand_assembly.py
"""

import struct

from repro.isa import parse_program
from repro.trips import run_trips
from repro.trips.codegen import LoweredProgram
from repro.trips.placement import place_block
from repro.uarch import run_cycles

N = 64
BASE = 0x1000

PROGRAM = f"""
# sum-reduction, one element per block
func @main entry=init params=0

block init
  # G13 <- 0 (index), G14 <- 0 (accumulator)
  i0: geni 0 -> w0 w1
  i1: bro @loop
  w0: write G13
  w1: write G14
end

block loop
  r0: read G13 -> i0.op0 i1.op0
  r1: read G14 -> i5.op0
  # address = base + 8*i ; test = i+1 < N
  i0: shl -> i2.op0
  i1: add -> i6.op0 w0
  i2: add -> i3.op0
  i3: load lsid=0 w=8 d=0 -> i5.op1
  i4: geni {BASE} -> i2.op1
  i5: add -> w1
  i6: tlt -> i7.p i8.p
  i7: <T> bro @loop
  i8: <F> bro @done
  i9: geni 3 -> i0.op1
  i10: geni 1 -> i1.op1
  i11: geni {N} -> i6.op1
  w0: write G13
  w1: write G14
end

block done
  r0: read G14 -> w0
  i0: ret
  w0: write G3
end

endfunc
"""


def main() -> None:
    data = [(k * 37 + 11) % 101 for k in range(N)]
    expected = sum(data)

    program = parse_program(PROGRAM)
    program.globals_image = [
        (BASE, b"".join(struct.pack("<q", v) for v in data))]
    program.data_end = BASE + 8 * N

    for func in program.functions.values():
        for block in func.blocks.values():
            block.validate()
    print("assembled and validated "
          f"{sum(len(f.blocks) for f in program.functions.values())} blocks")

    result, sim = run_trips(program)
    print(f"functional simulator: {result} "
          f"(expected {expected}) — {'OK' if result == expected else 'FAIL'}")
    print(f"  {sim.stats.blocks_committed} blocks committed, "
          f"{sim.stats.executed} instructions executed, "
          f"{sim.stats.register_reads} register reads")

    placements = {(func.name, block.label): place_block(block, "sps")
                  for func in program.functions.values()
                  for block in func.blocks.values()}
    lowered = LoweredProgram(program, placements)
    cycle_result, csim = run_cycles(lowered)
    assert cycle_result == expected
    print(f"cycle-level simulator: {cycle_result} in {csim.stats.cycles} "
          f"cycles (IPC {csim.stats.ipc:.2f}, "
          f"avg OPN hops {csim.opn.stats.average_hops():.2f})")


if __name__ == "__main__":
    main()
