"""Deterministic retry with capped exponential backoff.

Backoff delays are a pure function of ``(policy, unit, attempt)``: the
jitter is drawn from a :class:`random.Random` seeded with those three
values, never from wall-clock entropy, so a retry schedule replays
byte-identically across runs and the chaos tests can assert exact
delays.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff: ``base * multiplier**attempt``,
    clamped to ``max_delay``, then scaled by seeded jitter in
    ``[1 - jitter, 1 + jitter]``."""

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def delay(self, attempt: int, unit: str = "") -> float:
        """Seconds to wait after failed try number ``attempt`` (0-based)."""
        raw = min(self.max_delay,
                  self.base_delay * self.multiplier ** attempt)
        if not self.jitter:
            return raw
        rng = random.Random(f"{self.seed}\0{unit}\0{attempt}")
        return raw * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))

    def delays(self, unit: str = "") -> List[float]:
        """The full deterministic backoff schedule for one unit."""
        return [self.delay(attempt, unit)
                for attempt in range(max(0, self.max_attempts - 1))]
