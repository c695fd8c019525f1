"""Cache and memory-hierarchy timing models.

Provides a generic set-associative LRU cache and the TRIPS hierarchy:
address-interleaved single-ported L1 data banks, a banked L1 instruction
cache, a static-NUCA L2 whose latency grows with bank distance, and a DDR
memory model with fixed latency plus per-access occupancy (bandwidth).

All components are *timing* models: they answer "when is this access
done" and keep hit/miss statistics; data contents live in the functional
memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.uarch.config import TripsConfig
from repro.uarch.resources import SkipAheadPool


@dataclass
class CacheStats:
    accesses: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class SetAssociativeCache:
    """A set-associative cache with LRU replacement (tags only)."""

    def __init__(self, size_bytes: int, line_bytes: int, assoc: int) -> None:
        if size_bytes % (line_bytes * assoc) != 0:
            raise ValueError("cache geometry does not divide evenly")
        self.line_bytes = line_bytes
        self.assoc = assoc
        self.num_sets = size_bytes // (line_bytes * assoc)
        self.sets: List[List[int]] = [[] for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def access(self, address: int) -> bool:
        """Touch the line holding ``address``; returns hit?"""
        line = address // self.line_bytes
        index = line % self.num_sets
        ways = self.sets[index]
        self.stats.accesses += 1
        if line in ways:
            ways.remove(line)
            ways.append(line)
            return True
        self.stats.misses += 1
        ways.append(line)
        if len(ways) > self.assoc:
            ways.pop(0)
        return False

    def warm(self, address: int) -> None:
        """Install a line without counting statistics (prefetch/fill)."""
        line = address // self.line_bytes
        index = line % self.num_sets
        ways = self.sets[index]
        if line in ways:
            ways.remove(line)
        ways.append(line)
        if len(ways) > self.assoc:
            ways.pop(0)


class DramModel:
    """Fixed-latency DRAM with a bandwidth bound.

    Each access occupies the channel for ``occupancy`` cycles; an access
    arriving while the channel is busy queues behind it.  Two independent
    channels model the prototype's dual DDR controllers.
    """

    def __init__(self, latency: int, occupancy: int, channels: int = 2) -> None:
        self.latency = latency
        self.occupancy = occupancy
        self.channels = channels
        self._ports = SkipAheadPool()
        self.accesses = 0

    def access(self, address: int, now: int) -> int:
        """Returns the completion time of a DRAM access issued at ``now``."""
        self.accesses += 1
        channel = (address >> 12) % self.channels
        start = now
        for beat in range(self.occupancy):
            start = self._ports.claim(channel, start)
        return start + self.latency


class NucaL2:
    """Sixteen-bank static NUCA L2: latency = base + distance penalty."""

    def __init__(self, config: TripsConfig, dram: DramModel,
                 tracer=None) -> None:
        self.config = config
        self.dram = dram
        self.banks = [SetAssociativeCache(config.l2_bank_bytes,
                                          config.l2_line_bytes,
                                          config.l2_assoc)
                      for _ in range(config.l2_banks)]
        self._ports = SkipAheadPool()
        self.tracer = tracer

    def bank_of(self, address: int) -> int:
        return (address // self.config.l2_line_bytes) % self.config.l2_banks

    def access(self, address: int, now: int) -> int:
        """Completion time of an L2 access issued at ``now``."""
        bank_index = self.bank_of(address)
        bank = self.banks[bank_index]
        distance = bank_index % 4 + bank_index // 4  # position in 4x4 array
        start = self._ports.claim(bank_index, now)
        latency = self.config.l2_base_cycles \
            + distance * self.config.l2_hop_cycles
        if bank.access(address):
            return start + latency
        if self.tracer is not None:
            self.tracer.emit("cache_miss", start, level="l2",
                             address=address)
        done = self.dram.access(address, start + latency)
        return done + latency  # line returns through the same bank


class L1DataBanks:
    """Four single-ported, address-interleaved 8 KB L1 data banks."""

    def __init__(self, config: TripsConfig, l2: NucaL2,
                 tracer=None) -> None:
        self.config = config
        self.l2 = l2
        self.banks = [SetAssociativeCache(config.l1d_bank_bytes,
                                          config.l1d_line_bytes,
                                          config.l1d_assoc)
                      for _ in range(config.l1d_banks)]
        self._ports = SkipAheadPool()
        self.stats = CacheStats()
        self.tracer = tracer

    def bank_of(self, address: int) -> int:
        return (address // self.config.l1d_line_bytes) % self.config.l1d_banks

    def access(self, address: int, now: int, is_store: bool = False) -> int:
        """Completion time of a load/store issued to its bank at ``now``.

        Single-ported banks serialize accesses (the Figure 8 bandwidth
        experiment saturates at 4 ops/cycle only with perfect interleave).
        """
        bank_index = self.bank_of(address)
        bank = self.banks[bank_index]
        start = self._ports.claim(bank_index, now)
        tracer = self.tracer
        if tracer is not None and start > now:
            tracer.emit("bank_conflict", start, bank=bank_index,
                        wait=start - now)
        self.stats.accesses += 1
        if bank.access(address):
            return start + self.config.l1d_hit_cycles
        self.stats.misses += 1
        if tracer is not None:
            tracer.emit("cache_miss", start, level="l1d", address=address)
        return self.l2.access(address, start + self.config.l1d_hit_cycles)


class L1InstructionCache:
    """Banked L1 instruction cache holding block chunks.

    Tracked at 128-byte chunk granularity; a block of N instructions
    occupies ceil(N/32) chunks plus one header chunk, mirroring the
    compressed-block encoding of Section 4.4.
    """

    def __init__(self, config: TripsConfig, l2: NucaL2,
                 tracer=None) -> None:
        self.config = config
        self.l2 = l2
        self.cache = SetAssociativeCache(config.l1i_bytes,
                                         config.l1i_line_bytes,
                                         config.l1i_assoc)
        self.stats = CacheStats()
        self.tracer = tracer
        self._block_base: Dict[str, int] = {}
        self._next_base = 1 << 30   # synthetic code address space

    def block_address(self, label: str, chunks: int) -> int:
        base = self._block_base.get(label)
        if base is None:
            base = self._next_base
            self._block_base[label] = base
            self._next_base += chunks * self.config.l1i_line_bytes
        return base

    def fetch_block(self, label: str, chunks: int, now: int) -> Tuple[int, bool]:
        """Fetch all chunks of a block; returns (done time, missed?)."""
        base = self.block_address(label, chunks)
        done = now
        missed = False
        for chunk in range(chunks):
            address = base + chunk * self.config.l1i_line_bytes
            self.stats.accesses += 1
            if self.cache.access(address):
                done = max(done, now + self.config.l1i_hit_cycles)
            else:
                self.stats.misses += 1
                missed = True
                if self.tracer is not None:
                    self.tracer.emit("cache_miss", now, level="l1i",
                                     address=address)
                done = max(done, self.l2.access(address, now))
        return done, missed


class MemoryHierarchy:
    """The full TRIPS memory system wired together.

    The cycle simulator reaches a hierarchy through ``l1d``
    (``access(address, now, is_store=False) -> done``, ``bank_of``,
    ``stats``) and ``l1i`` (``fetch_block(label, chunks, now) ->
    (done, missed)``, ``stats``); reports also read ``l2.banks[i].stats``
    and ``dram.accesses``.
    """

    def __init__(self, config: TripsConfig, tracer=None) -> None:
        self.config = config
        self.dram = DramModel(config.dram_cycles, config.dram_occupancy_cycles)
        self.l2 = NucaL2(config, self.dram, tracer=tracer)
        self.l1d = L1DataBanks(config, self.l2, tracer=tracer)
        self.l1i = L1InstructionCache(config, self.l2, tracer=tracer)


class _PerfectL1DataBanks(L1DataBanks):
    """L1 data banks that always hit.

    Port arbitration (single-ported banks) is preserved — the limit
    study isolates *miss* latency from *bandwidth*, so bank conflicts
    still queue.
    """

    def access(self, address: int, now: int, is_store: bool = False) -> int:
        bank_index = self.bank_of(address)
        start = self._ports.claim(bank_index, now)
        self.stats.accesses += 1
        return start + self.config.l1d_hit_cycles


class _PerfectL1InstructionCache(L1InstructionCache):
    """L1 instruction cache that always hits (fetch never stalls on L2)."""

    def fetch_block(self, label: str, chunks: int, now: int) -> Tuple[int, bool]:
        self.stats.accesses += chunks
        return now + self.config.l1i_hit_cycles, False


class PerfectL1Hierarchy(MemoryHierarchy):
    """The TRIPS hierarchy with ideal (always-hit) L1 caches.

    A limit study: how much of the cycle count is L1 misses?  The L2
    and DRAM models stay wired up (stores and the L2's own statistics
    remain meaningful) but no L1 access ever reaches them.
    """

    def __init__(self, config: TripsConfig, tracer=None) -> None:
        super().__init__(config, tracer=tracer)
        self.l1d = _PerfectL1DataBanks(config, self.l2, tracer=tracer)
        self.l1i = _PerfectL1InstructionCache(config, self.l2, tracer=tracer)


#: ``TripsConfig.memory_kind`` -> class; built with the configuration.
MEMORIES: Dict[str, type] = {
    "trips": MemoryHierarchy, "perfect-l1": PerfectL1Hierarchy}
