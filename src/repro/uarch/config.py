"""Configuration of the TRIPS prototype microarchitecture.

Numbers follow the paper (Table 1 and Sections 2/5): 366 MHz core,
32 KB L1 data cache in four single-ported 8 KB banks, 80 KB L1
instruction cache in five banks, 1 MB NUCA L2 in sixteen 64 KB banks,
dual DDR-200 memory controllers, eight 128-instruction block slots
(one non-speculative + seven speculative), and 5 KB exit / 5 KB target
predictor budgets.
"""

from __future__ import annotations

import difflib
import os
from dataclasses import dataclass, field, fields
from typing import Dict


class ConfigError(ValueError):
    """A :class:`TripsConfig` describes an unbuildable machine.

    Raised by :meth:`TripsConfig.validate` — and therefore by every
    simulator entry point — *before* any simulation runs, so a typo'd
    or out-of-domain field can never silently produce nonsense cycle
    counts.
    """


#: Fields that are latencies/penalties: zero is a legal (free) value.
_NON_NEGATIVE_FIELDS = frozenset({
    "fetch_to_dispatch_cycles", "commit_protocol_cycles",
    "mispredict_flush_cycles", "load_violation_flush_cycles",
    "opn_hop_cycles", "l1d_hit_cycles",
    "l1i_hit_cycles", "l2_base_cycles", "l2_hop_cycles", "dram_cycles",
    "dram_occupancy_cycles", "predicate_mispredict_cycles",
})

#: Cache line sizes must be powers of two (address/alignment math).
_POWER_OF_TWO_FIELDS = ("l1d_line_bytes", "l1i_line_bytes",
                        "l2_line_bytes")


def _component_default(field_name: str, fallback: str) -> str:
    """Default for a component-selection field.

    ``REPRO_UARCH_COMPONENTS`` (format
    ``opn_topology=torus,predictor_kind=gshare``) overrides defaults for
    configs that don't set the field explicitly — this is how the CI
    matrix runs the whole tier-1 suite under a non-default topology
    without touching any test.  Explicit field values always win.
    """
    spec = os.environ.get("REPRO_UARCH_COMPONENTS", "")
    for item in spec.split(","):
        key, sep, value = item.partition("=")
        if sep and key.strip() == field_name:
            return value.strip()
    return fallback


@dataclass
class TripsConfig:
    """Tunable microarchitecture parameters (defaults = prototype)."""

    # Block window.
    max_blocks_in_flight: int = 8

    # Fetch/dispatch: the ITs deliver instructions to the ET reservation
    # stations at 16 per cycle; a 128-instruction block dispatches in 8
    # cycles.  Next-block fetch may begin one cycle after prediction.
    dispatch_bandwidth: int = 16
    fetch_to_dispatch_cycles: int = 3
    commit_protocol_cycles: int = 4

    # Flush costs (branch misprediction / load violation).
    mispredict_flush_cycles: int = 7
    load_violation_flush_cycles: int = 10

    # Operand network: one hop per cycle, one 64-bit operand per link
    # per cycle.
    opn_hop_cycles: int = 1

    # Execution tiles: issue slots per tile per cycle (1 in the
    # prototype).  The array's size is the placement's
    # (``LoweredProgram.grid``).
    et_issue_width: int = 1

    # L1 data cache: 4 x 8 KB single-ported banks, 2-cycle hit.
    l1d_banks: int = 4
    l1d_bank_bytes: int = 8 * 1024
    l1d_line_bytes: int = 64
    l1d_assoc: int = 2
    l1d_hit_cycles: int = 2

    # L1 instruction cache: 5 banks, 80 KB total, 1-cycle hit per chunk.
    l1i_bytes: int = 80 * 1024
    l1i_line_bytes: int = 128
    l1i_assoc: int = 2
    l1i_hit_cycles: int = 1

    # L2 NUCA: 16 x 64 KB banks; latency grows with bank distance.
    l2_banks: int = 16
    l2_bank_bytes: int = 64 * 1024
    l2_line_bytes: int = 64
    l2_assoc: int = 4
    l2_base_cycles: int = 8
    l2_hop_cycles: int = 2

    # Main memory: ~70 ns at a 1.83 processor/memory ratio -> ~68 cycles,
    # plus DDR bandwidth limits modeled as a per-access occupancy.
    dram_cycles: int = 68
    dram_occupancy_cycles: int = 4

    # Next-block predictor budgets (bytes).
    exit_predictor_bytes: int = 5 * 1024
    target_predictor_bytes: int = 5 * 1024
    #: Return-address stack depth (Section 7: too small in the prototype).
    ras_entries: int = 4

    # ------------------------------------------------------------------
    # "Lessons learned" features (Section 7) — OFF in the prototype, made
    # available here for the ablation studies of future EDGE designs.
    # ------------------------------------------------------------------

    #: Predict predictable predicate arcs at dispatch instead of waiting
    #: for the test to execute ("future EDGE microarchitectures must
    #: support predicate prediction").
    predicate_prediction: bool = False
    #: Cycles lost re-executing consumers of a mispredicted predicate.
    predicate_mispredict_cycles: int = 5

    #: Variable-sized blocks in the L1 I-cache (no 32-instruction chunk
    #: rounding) with the proposed 32-byte block header.
    variable_size_blocks: bool = False

    # ------------------------------------------------------------------
    # Component selections: each names a class in that field's table
    # (:func:`component_tables`).  Being ordinary dataclass fields, they
    # flow into config digests like any other parameter, so runs with
    # different components never share a pipeline cache slot.  Defaults
    # rebuild the prototype exactly; REPRO_UARCH_COMPONENTS=field=name,...
    # overrides them process-wide (see _component_default).
    # ------------------------------------------------------------------

    #: Operand-network topology: "mesh" (prototype), "torus", "dwmesh".
    opn_topology: str = field(default_factory=lambda: _component_default(
        "opn_topology", "mesh"))
    #: Next-block predictor: "tournament" (prototype) or "gshare".
    predictor_kind: str = field(default_factory=lambda: _component_default(
        "predictor_kind", "tournament"))
    #: Memory system: "trips" (prototype) or "perfect-l1".
    memory_kind: str = field(default_factory=lambda: _component_default(
        "memory_kind", "trips"))

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> "TripsConfig":
        """Check every field's type and domain; returns ``self``.

        Raises :class:`ConfigError` listing *all* problems at once:
        wrong field types (a stringly-typed override that slipped
        through), non-positive structural counts,
        ``max_blocks_in_flight < 1``, negative latencies, non-power-of-
        two cache lines, and cache capacities that do not divide into
        whole sets.  Called from the simulator entry points so a bad
        configuration fails fast instead of producing nonsense cycle
        counts.
        """
        problems = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "bool":
                if not isinstance(value, bool):
                    problems.append(
                        f"{f.name} must be a bool, got {value!r}")
                continue
            if f.type == "str":
                if not isinstance(value, str):
                    problems.append(
                        f"{f.name} must be a str, got {value!r}")
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                problems.append(
                    f"{f.name} must be an int, got {value!r}")
                continue
            floor = 0 if f.name in _NON_NEGATIVE_FIELDS else 1
            if value < floor:
                problems.append(
                    f"{f.name} must be >= {floor}, got {value}")
        # Component selections must name a table entry (with a
        # did-you-mean hint on a near miss).
        for field_name, table in component_tables().items():
            value = getattr(self, field_name)
            if isinstance(value, str) and value not in table:
                close = difflib.get_close_matches(value, table, n=1)
                hint = f" — did you mean {close[0]!r}?" if close else ""
                problems.append(
                    f"unknown {field_name} {value!r}{hint} (choices: "
                    f"{', '.join(sorted(table))})")
        if not problems:
            for name in _POWER_OF_TWO_FIELDS:
                value = getattr(self, name)
                if value & (value - 1):
                    problems.append(
                        f"{name} must be a power of two, got {value}")
            for capacity, line, assoc in (
                    ("l1d_bank_bytes", self.l1d_line_bytes, self.l1d_assoc),
                    ("l1i_bytes", self.l1i_line_bytes, self.l1i_assoc),
                    ("l2_bank_bytes", self.l2_line_bytes, self.l2_assoc)):
                size = getattr(self, capacity)
                if size % (line * assoc) != 0:
                    problems.append(
                        f"{capacity}={size} is not a whole number of "
                        f"{assoc}-way sets of {line}-byte lines")
        if problems:
            raise ConfigError(
                f"invalid TripsConfig: {'; '.join(problems)}")
        return self


#: The prototype configuration used throughout the evaluation.
PROTOTYPE = TripsConfig()

#: The prototype's core clock (Table 1); the cycle model counts cycles,
#: so the clock only converts them to time in the reports.
CLOCK_MHZ = 366


def component_tables() -> Dict[str, Dict[str, type]]:
    """Each component field's variants, name -> class: the tables beside
    the classes (:data:`repro.uarch.topologies.TOPOLOGIES`,
    :data:`repro.uarch.predictor.PREDICTORS`,
    :data:`repro.uarch.caches.MEMORIES`).  Imported on call, because
    those modules import this one."""
    from repro.uarch.caches import MEMORIES
    from repro.uarch.predictor import PREDICTORS
    from repro.uarch.topologies import TOPOLOGIES
    return {"opn_topology": TOPOLOGIES, "predictor_kind": PREDICTORS,
            "memory_kind": MEMORIES}


def improved_predictor_config() -> TripsConfig:
    """The paper's "lessons learned" predictor (config I in Figure 7):
    the target predictor component scaled to 9 KB, with the enlarged
    call/return structures Section 7 recommends."""
    config = TripsConfig()
    config.target_predictor_bytes = 9 * 1024
    config.ras_entries = 16
    return config
