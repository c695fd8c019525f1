"""Branch and next-block predictors.

Implements the predictors compared in Figure 7 of the paper:

* **A** — an Alpha-21264-like tournament conditional predictor (local +
  global with a choice table), applied to basic-block code;
* **B/H** — the TRIPS prototype next-block predictor: a 5 KB local/global
  tournament *exit* predictor (which of up to 8 exits leaves the block)
  plus a 5 KB multi-component *target* predictor (branch target buffer,
  call target buffer, return address stack);
* **I** — the "lessons learned" configuration with the target predictor
  scaled to 9 KB.

Also provides the gshare/tournament predictors the reference-platform
models (`repro.refmodels`) use.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.uarch.config import TripsConfig


def _hash(label: str) -> int:
    return zlib.crc32(label.encode())


# ---------------------------------------------------------------------------
# Conditional predictors (used by config A and the reference platforms).
# ---------------------------------------------------------------------------

class GsharePredictor:
    """Global-history XOR-indexed 2-bit predictor."""

    def __init__(self, table_bits: int = 12, history_bits: int = 12) -> None:
        self.table = [1] * (1 << table_bits)
        self.mask = (1 << table_bits) - 1
        self.history = 0
        self.history_mask = (1 << history_bits) - 1

    def _index(self, pc: int) -> int:
        return (pc ^ self.history) & self.mask

    def predict(self, pc: int) -> bool:
        return self.table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        index = self._index(pc)
        value = self.table[index]
        self.table[index] = min(value + 1, 3) if taken else max(value - 1, 0)
        self.history = ((self.history << 1) | int(taken)) & self.history_mask


class AlphaTournamentPredictor:
    """Alpha 21264-style tournament: local (1K x 10-bit histories feeding
    3-bit counters) vs global (4K 2-bit), selected by a 4K choice table."""

    def __init__(self) -> None:
        self.local_history = [0] * 1024
        self.local_counters = [3] * 1024
        self.global_counters = [1] * 4096
        self.choice = [1] * 4096
        self.ghist = 0

    def predict(self, pc: int) -> bool:
        lh = self.local_history[pc & 1023] & 1023
        local_taken = self.local_counters[lh] >= 4
        global_taken = self.global_counters[self.ghist & 4095] >= 2
        use_global = self.choice[self.ghist & 4095] >= 2
        return global_taken if use_global else local_taken

    def update(self, pc: int, taken: bool) -> None:
        lh_index = pc & 1023
        lh = self.local_history[lh_index] & 1023
        local_taken = self.local_counters[lh] >= 4
        global_taken = self.global_counters[self.ghist & 4095] >= 2
        if local_taken != global_taken:
            choice = self.choice[self.ghist & 4095]
            self.choice[self.ghist & 4095] = (
                min(choice + 1, 3) if global_taken == taken
                else max(choice - 1, 0))
        counter = self.local_counters[lh]
        self.local_counters[lh] = (min(counter + 1, 7) if taken
                                   else max(counter - 1, 0))
        gcounter = self.global_counters[self.ghist & 4095]
        self.global_counters[self.ghist & 4095] = (
            min(gcounter + 1, 3) if taken else max(gcounter - 1, 0))
        self.local_history[lh_index] = ((lh << 1) | int(taken)) & 1023
        self.ghist = ((self.ghist << 1) | int(taken)) & 4095


# ---------------------------------------------------------------------------
# The TRIPS next-block predictor.
# ---------------------------------------------------------------------------

@dataclass
class PredictorStats:
    predictions: int = 0
    exit_mispredictions: int = 0
    target_mispredictions: int = 0

    @property
    def mispredictions(self) -> int:
        """A prediction is wrong when either component misses."""
        return self.exit_mispredictions + self.target_only_misses

    @property
    def target_only_misses(self) -> int:
        return self.target_mispredictions

    @property
    def correct(self) -> int:
        return self.predictions - self.mispredictions


class ExitPredictor:
    """Local/global tournament over 3-bit exit numbers."""

    def __init__(self, budget_bytes: int) -> None:
        # Budget split: half local, half global, eighth choice (bits are
        # approximate, as in the paper's 5 KB description).
        entries = max(256, (budget_bytes * 8 // 2) // 16)
        self.local: List[int] = [0] * entries
        self.local_hyst: List[int] = [0] * entries
        self.global_: List[int] = [0] * entries
        self.global_hyst: List[int] = [0] * entries
        self.choice: List[int] = [1] * (entries // 4)
        self.mask = entries - 1 if entries & (entries - 1) == 0 \
            else entries - 1  # tables are indexed modulo size below
        self.entries = entries
        self.path_history = 0

    def _local_index(self, block: int) -> int:
        return block % self.entries

    def _global_index(self, block: int) -> int:
        return (block ^ self.path_history) % self.entries

    def predict(self, block: int) -> int:
        li = self._local_index(block)
        gi = self._global_index(block)
        use_global = self.choice[block % len(self.choice)] >= 2
        return self.global_[gi] if use_global else self.local[li]

    def update(self, block: int, actual_exit: int) -> None:
        li = self._local_index(block)
        gi = self._global_index(block)
        local_right = self.local[li] == actual_exit
        global_right = self.global_[gi] == actual_exit
        ci = block % len(self.choice)
        if local_right != global_right:
            self.choice[ci] = min(self.choice[ci] + 1, 3) if global_right \
                else max(self.choice[ci] - 1, 0)
        # Hysteresis: replace a table's exit only after two misses.
        for table, hyst, index, right in (
                (self.local, self.local_hyst, li, local_right),
                (self.global_, self.global_hyst, gi, global_right)):
            if right:
                hyst[index] = 0
            else:
                hyst[index] += 1
                if hyst[index] >= 2:
                    table[index] = actual_exit
                    hyst[index] = 0
        self.path_history = ((self.path_history << 3) | (actual_exit & 7)) \
            & 0xFFFFF


class TargetPredictor:
    """Multi-component target predictor: BTB + call target buffer + RAS."""

    def __init__(self, budget_bytes: int, ras_entries: int = 4) -> None:
        # The prototype's weak spot (Section 7): the call target buffer
        # and return-address stack are too small.  Both scale with the
        # budget so the 9 KB "lessons learned" configuration relieves the
        # call/return mispredictions of the deep-call benchmarks.
        entries = max(128, budget_bytes // 8)
        self.btb_size = entries * 3 // 4
        self.ctb_size = max(6, budget_bytes // 853)   # 5 KB -> 6, 9 KB -> 10
        self.btb: Dict[int, str] = {}
        self.ctb: Dict[int, str] = {}
        self.ras: List[str] = []
        self.ras_entries = ras_entries

    def _btb_key(self, block: int, exit_index: int) -> int:
        return (block * 9 + exit_index) % self.btb_size

    def predict(self, block: int, exit_index: int, kind: str) -> Optional[str]:
        if kind == "ret":
            return self.ras[-1] if self.ras else None
        if kind == "call":
            return self.ctb.get((block * 9 + exit_index) % self.ctb_size)
        return self.btb.get(self._btb_key(block, exit_index))

    def update(self, block: int, exit_index: int, kind: str,
               target: str, continuation: str = "") -> None:
        if kind == "ret":
            if self.ras:
                self.ras.pop()
            return
        if kind == "call":
            self.ctb[(block * 9 + exit_index) % self.ctb_size] = target
            if len(self.ras) >= self.ras_entries:
                self.ras.pop(0)
            self.ras.append(continuation)
            return
        self.btb[self._btb_key(block, exit_index)] = target


class NextBlockPredictor:
    """The complete TRIPS next-block predictor (exit + target).

    The cycle simulator calls only :meth:`predict_and_update`, once per
    block; ``stats`` counts every prediction, so Figure 7's accuracy
    study reads any variant the same way.
    """

    def __init__(self, config: TripsConfig = None, tracer=None) -> None:
        config = config or TripsConfig()
        self.exit_predictor = ExitPredictor(config.exit_predictor_bytes)
        self.target_predictor = TargetPredictor(
            config.target_predictor_bytes, ras_entries=config.ras_entries)
        self.stats = PredictorStats()
        #: Optional :class:`repro.trace.Tracer` receiving one ``predict``
        #: event per prediction outcome.
        self.tracer = tracer

    def predict_and_update(self, label: str, actual_exit: int,
                           kind: str, target: str,
                           continuation: str = "", now: int = 0) -> bool:
        """One prediction step against ground truth; returns correct?

        ``now`` is only used to stamp the trace event (the cycle the
        exit resolved); untimed callers (the Figure 7 study) leave it 0.
        """
        block = _hash(label)
        self.stats.predictions += 1
        predicted_exit = self.exit_predictor.predict(block)
        correct = True
        if predicted_exit != actual_exit:
            self.stats.exit_mispredictions += 1
            correct = False
        else:
            predicted_target = self.target_predictor.predict(
                block, predicted_exit, kind)
            if predicted_target != target:
                self.stats.target_mispredictions += 1
                correct = False
        self.exit_predictor.update(block, actual_exit)
        self.target_predictor.update(block, actual_exit, kind, target,
                                     continuation)
        if self.tracer is not None:
            self.tracer.emit("predict", now, label=label, kind=kind,
                             exit=actual_exit, predicted_exit=predicted_exit,
                             correct=correct)
        return correct


class GshareExitPredictor:
    """Single-table gshare-style exit predictor.

    One table of 3-bit exit numbers indexed by block hash XOR the global
    exit path history.  Spending the entire budget on one history-
    indexed table trades the tournament's per-block locality for more
    reach into correlated paths — the classic gshare bet, applied to
    exit numbers instead of taken/not-taken bits.
    """

    def __init__(self, budget_bytes: int) -> None:
        # 3-bit exit + 1-bit hysteresis per entry.
        entries = max(256, budget_bytes * 8 // 4)
        self.table: List[int] = [0] * entries
        self.hyst: List[int] = [0] * entries
        self.entries = entries
        self.path_history = 0

    def _index(self, block: int) -> int:
        return (block ^ self.path_history) % self.entries

    def predict(self, block: int) -> int:
        return self.table[self._index(block)]

    def update(self, block: int, actual_exit: int) -> None:
        index = self._index(block)
        if self.table[index] == actual_exit:
            self.hyst[index] = 0
        else:
            self.hyst[index] += 1
            if self.hyst[index] >= 2:
                self.table[index] = actual_exit
                self.hyst[index] = 0
        self.path_history = ((self.path_history << 3) | (actual_exit & 7)) \
            & 0xFFFFF


class GshareNextBlockPredictor:
    """A next-block predictor with a gshare exit component.

    The target side (BTB + call target buffer + RAS) is unchanged from
    the prototype predictor, so accuracy differences against the
    ``tournament`` variant isolate the exit-prediction organization.
    """

    def __init__(self, config: TripsConfig = None, tracer=None) -> None:
        config = config or TripsConfig()
        self.exit_predictor = GshareExitPredictor(config.exit_predictor_bytes)
        self.target_predictor = TargetPredictor(
            config.target_predictor_bytes, ras_entries=config.ras_entries)
        self.stats = PredictorStats()
        self.tracer = tracer

    predict_and_update = NextBlockPredictor.predict_and_update


#: ``TripsConfig.predictor_kind`` -> class; built with the
#: configuration.
PREDICTORS: Dict[str, type] = {
    "tournament": NextBlockPredictor, "gshare": GshareNextBlockPredictor}
