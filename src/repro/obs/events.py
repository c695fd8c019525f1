"""Bounded in-process event bus behind the serve ``/v1/events`` feed.

One :class:`EventBus` per service.  Producers (sweep progress
callbacks, request accounting) call :meth:`EventBus.publish`;
consumers (the long-poll handler) call :meth:`EventBus.after` with
the last cursor they saw and block until something newer exists or
the timeout lapses.

The buffer is a bounded deque: a slow consumer never applies
backpressure to the service — old events fall off the left edge and
``dropped`` counts them, so a consumer that sees ``next_cursor`` jump
past its request knows it missed events rather than silently losing
them.  Cursors are monotonically increasing sequence numbers, valid
for the life of the process (a restart resets them; the serve smoke
drill always starts from cursor 0 of a fresh service).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Dict, List, Tuple

__all__ = ["EventBus"]


class EventBus:
    """Bounded publish/long-poll event buffer (thread-safe)."""

    def __init__(self, capacity: int = 1024) -> None:
        self._capacity = max(1, int(capacity))
        self._events: deque = deque()
        self._cond = threading.Condition()
        self._seq = 0
        self.dropped = 0

    def publish(self, kind: str, **data: Any) -> int:
        """Append one event; returns its sequence number."""
        with self._cond:
            self._seq += 1
            event = {"seq": self._seq, "ts": round(time.time(), 3),
                     "kind": kind, **data}
            self._events.append(event)
            if len(self._events) > self._capacity:
                self._events.popleft()
                self.dropped += 1
            self._cond.notify_all()
            return self._seq

    def after(self, cursor: int = 0, timeout: float = 0.0,
              limit: int = 256) -> Tuple[List[Dict[str, Any]], int]:
        """Events with ``seq > cursor`` (oldest first, at most
        ``limit``) and the cursor to pass next time.

        Blocks up to ``timeout`` seconds when nothing is newer — the
        long-poll primitive.  When events were dropped past the
        cursor, returns what remains; the gap is visible because the
        first event's ``seq`` exceeds ``cursor + 1``.
        """
        deadline = time.monotonic() + max(0.0, timeout)
        with self._cond:
            while self._seq <= cursor:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return [], max(cursor, self._seq)
                self._cond.wait(remaining)
            batch = [event for event in self._events
                     if event["seq"] > cursor][:max(1, int(limit))]
            next_cursor = batch[-1]["seq"] if batch else self._seq
            return batch, next_cursor

    def stats(self) -> Dict[str, int]:
        with self._cond:
            return {"published": self._seq, "buffered": len(self._events),
                    "dropped": self.dropped}
