"""In-flight request deduplication keyed by the artifact cache digest.

Two identical concurrent ``POST /v1/run`` requests must cost one
simulation.  The *cache* already guarantees that for sequential
requests; this table closes the concurrent window: the first request
to claim a digest becomes the **leader** (it executes), every
identical request arriving while the leader is in flight becomes a
**follower** that blocks on the leader's event and shares its result
— or its error, faithfully (a fault is one request's news *and* its
twins').

The key is the exact content-addressed artifact digest the pipeline
stores under (:func:`repro.pipeline.keys.artifact_digest`), so
"identical request" means *identical cache slot* — the same
idempotency boundary the rest of the system already uses.  Entries
are removed the instant the leader resolves; a request arriving after
that becomes a new leader whose execution is a warm cache hit.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional, Tuple

__all__ = ["InFlightEntry", "InFlightTable"]


class InFlightEntry:
    """One in-flight execution: the leader's promise to its followers."""

    __slots__ = ("key", "event", "result", "error")

    def __init__(self, key: str) -> None:
        self.key = key
        self.event = threading.Event()
        self.result: Any = None
        self.error: Optional[BaseException] = None

    def resolve(self, result: Any = None,
                error: Optional[BaseException] = None) -> None:
        self.result = result
        self.error = error
        self.event.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self.event.wait(timeout)


class InFlightTable:
    """Digest -> :class:`InFlightEntry` for executions not yet resolved."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[str, InFlightEntry] = {}

    def join(self, key: str) -> Tuple[bool, InFlightEntry]:
        """``(leader, entry)``: claim the digest or join its leader."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                return False, entry
            entry = InFlightEntry(key)
            self._entries[key] = entry
            return True, entry

    def resolve(self, entry: InFlightEntry, result: Any = None,
                error: Optional[BaseException] = None) -> None:
        """Publish the leader's outcome and retire the entry.

        Removal happens before the event is set so a request racing in
        after resolution starts a fresh (warm-cache) execution instead
        of reading a retired entry.
        """
        with self._lock:
            if self._entries.get(entry.key) is entry:
                del self._entries[entry.key]
        entry.resolve(result, error)
