"""Request micro-batching: queued run requests -> coalesced passes.

The service never executes a ``/v1/run`` request inline in its handler
thread.  Leaders enqueue a :class:`WorkItem`; a small pool of batch
workers drains the queue and hands over **whole groups** of compatible
items — same ``(system, benchmark, variant)``, i.e. the same compiled
front-end — to the executor in one pass.  That is exactly the sharing
contract of an in-process ``repro sweep`` (one warm pipeline, shared
decode/lowering, per-point cycle simulation), applied to whatever
happens to be queued at drain time: under concurrent load, N
compatible requests cost one front-end resolution plus N cycle
simulations instead of N of everything, and each request's result is
bit-identical to a solo run because the pipeline stages and keys are
the same ones.

A short **batch window** (default a few milliseconds) is slept between
wake-up and drain so near-simultaneous requests land in the same
batch; the queue is **bounded**, and a full queue is the service's
load-shedding signal (``503``).  ``pause()``/``resume()`` freeze the
workers so tests can deterministically pile up a batch.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.serve.dedup import InFlightEntry

__all__ = ["Batcher", "WorkItem"]

#: Default seconds a woken worker waits before draining the queue.
DEFAULT_WINDOW = 0.005

#: Default bound on queued-but-not-executing items.
DEFAULT_MAX_QUEUE = 64


@dataclass
class WorkItem:
    """One deduplicated run request awaiting execution."""

    payload: Dict[str, Any]       # benchmark/variant/system/settings
    stage: str                    # pipeline stage the artifact lives in
    digest: str                   # content-addressed idempotency key
    entry: InFlightEntry          # promise resolved by the executor
    enqueued: float = field(default_factory=time.perf_counter)

    @property
    def group_key(self) -> Tuple[str, str, str]:
        """Compatibility class: items sharing a compiled front-end."""
        return (self.payload["system"], self.payload["benchmark"],
                self.payload["variant"])


class Batcher:
    """Bounded queue + worker pool delivering compatible groups."""

    def __init__(self, execute_group: Callable[[List[WorkItem]], None],
                 workers: int = 1,
                 window: float = DEFAULT_WINDOW,
                 max_queue: int = DEFAULT_MAX_QUEUE) -> None:
        self._execute_group = execute_group
        self._window = max(0.0, window)
        self._max_queue = max(1, max_queue)
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._queue: List[WorkItem] = []
        self._open = threading.Event()
        self._open.set()
        self._stopping = False
        self._active = 0              # items currently executing
        self._workers = [
            threading.Thread(target=self._loop, daemon=True,
                             name=f"repro-serve-batch-{index}")
            for index in range(max(1, workers))]
        for worker in self._workers:
            worker.start()

    # -- submission --------------------------------------------------------

    def submit(self, item: WorkItem) -> bool:
        """Enqueue one item; ``False`` means the queue is full (shed)."""
        with self._wake:
            if self._stopping or len(self._queue) >= self._max_queue:
                return False
            self._queue.append(item)
            self._wake.notify()
            return True

    @property
    def depth(self) -> int:
        """Queued plus currently-executing items."""
        with self._lock:
            return len(self._queue) + self._active

    @property
    def max_queue(self) -> int:
        return self._max_queue

    # -- test hooks --------------------------------------------------------

    def pause(self) -> None:
        """Freeze the workers (submissions still queue)."""
        self._open.clear()

    def resume(self) -> None:
        self._open.set()

    # -- lifecycle ---------------------------------------------------------

    def stop(self, timeout: Optional[float] = 5.0) -> None:
        """Refuse new work, finish the queue, join the workers."""
        with self._wake:
            self._stopping = True
            self._wake.notify_all()
        self._open.set()
        for worker in self._workers:
            worker.join(timeout)

    def _loop(self) -> None:
        while True:
            with self._wake:
                while not self._queue and not self._stopping:
                    self._wake.wait(timeout=0.5)
                if self._stopping and not self._queue:
                    return
            self._open.wait()
            if self._window and not self._stopping:
                # The coalescing window: let near-simultaneous leaders
                # land in this drain instead of the next.
                time.sleep(self._window)
            with self._lock:
                batch, self._queue = self._queue, []
                self._active += len(batch)
            if not batch:
                continue
            try:
                for group in self._partition(batch):
                    self._run_group(group)
            finally:
                with self._lock:
                    self._active -= len(batch)

    @staticmethod
    def _partition(batch: List[WorkItem]) -> List[List[WorkItem]]:
        """Split a drained batch into compatible groups, stable order."""
        groups: Dict[Tuple[str, str, str], List[WorkItem]] = {}
        for item in batch:
            groups.setdefault(item.group_key, []).append(item)
        return list(groups.values())

    def _run_group(self, group: List[WorkItem]) -> None:
        try:
            self._execute_group(group)
        except BaseException as exc:  # executor must never kill a worker
            for item in group:
                if not item.entry.event.is_set():
                    item.entry.resolve(error=exc)
