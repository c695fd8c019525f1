"""Crash-safe sweep journal: append-only, fsync'd, checksummed JSONL.

A sweep that dies — worker, pool, or the driver itself — used to lose
every in-flight fact about the run: which points were claimed, which
finished, what failed and why.  The artifact cache survives, but the
cache only knows about *successful simulations*; it records neither
holes nor attempt history, so a restarted sweep re-litigates every
failure from scratch.  The **sweep journal** closes that gap:

* The engine appends one line per event — a ``header`` identifying the
  sweep (spec digest, run id, the spec document itself), a ``claim``
  before each point executes, and a terminal ``outcome`` carrying the
  point's full ``points.jsonl`` record — and every line is flushed and
  ``fsync``'d before the work it describes proceeds, so the journal is
  never *behind* reality.
* Every line carries a truncated SHA-256 checksum of its own content.
  A driver SIGKILLed mid-write leaves at most one torn final line,
  which :func:`read_journal` drops (**truncated-tail recovery**); a
  corrupt line anywhere *else* is real damage and a hard
  :class:`JournalError` — resuming over silent corruption is worse
  than failing loudly.
* ``repro sweep --resume DIR`` replays the journal: the requested
  spec's digest must match the header (resuming a *different* sweep
  into an old directory is a hard error), terminal outcomes are
  replayed verbatim into the new result (duplicate outcomes for one
  label: last wins), and only unclaimed/unfinished points execute.
  An empty or absent journal resumes as a fresh sweep.

The journal is an execution ledger, not an artifact store: metrics
still live in the content-addressed cache, and a replayed record is
byte-identical to the one an uninterrupted sweep would have written
(modulo the ``run_id`` provenance field, see :data:`VOLATILE_FIELDS`).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.pipeline.keys import stable_digest

__all__ = [
    "JOURNAL_FILE", "JOURNAL_VERSION", "JournalError", "JournalState",
    "SweepJournal", "VOLATILE_FIELDS", "read_journal", "records_equal",
    "spec_document", "spec_fingerprint", "strip_volatile",
]

#: File name of the journal inside a sweep output directory.
JOURNAL_FILE = "journal.jsonl"

#: Bump on any change to the line schema or replay semantics.
JOURNAL_VERSION = 1

#: Point-record fields that legitimately differ between a resumed and
#: an uninterrupted sweep (provenance, not results).  Everything else
#: must be byte-identical — the chaos kill→resume drill asserts it.
VOLATILE_FIELDS = ("run_id",)

#: Hex digits kept of each line's SHA-256 self-checksum.
_SUM_WIDTH = 12


class JournalError(ValueError):
    """The journal is unusable for resume: corrupt beyond the final
    line, missing its header, or written for a different spec."""


def spec_document(spec) -> Dict[str, Any]:
    """The canonical JSON document of a :class:`SweepSpec`.

    One rendering serves three masters — the sweep directory's
    ``spec.json``, the journal header, and :func:`spec_fingerprint` —
    so they can never drift apart.
    """
    return {
        "name": spec.name, "description": spec.description,
        "system": spec.system, "variant": spec.variant,
        "benchmarks": list(spec.benchmarks),
        "axes": {name: list(values) for name, values in spec.axes},
        "fixed": dict(spec.fixed),
    }


def spec_fingerprint(spec) -> str:
    """Short digest identifying a sweep's *definition* (not its code).

    Two invocations may resume each other exactly when their
    fingerprints match: same system, benchmarks, axes, values, fixed
    settings, and variant.  ``name``/``description`` participate too —
    a renamed sweep is a different sweep directory.
    """
    return stable_digest(spec_document(spec))[:16]


def _line_sum(payload: Dict[str, Any]) -> str:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:_SUM_WIDTH]


def encode_line(payload: Dict[str, Any]) -> str:
    """One journal line: the payload plus its self-checksum."""
    return json.dumps({**payload, "sum": _line_sum(payload)},
                      sort_keys=True, separators=(",", ":"))


def decode_line(text: str) -> Dict[str, Any]:
    """Parse and verify one line; raises :class:`JournalError` on any
    structural or checksum problem (callers decide if it is the tail)."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise JournalError(f"unparsable journal line: {exc}") from None
    if not isinstance(payload, dict) or "sum" not in payload:
        raise JournalError("journal line has no checksum")
    expected = payload.pop("sum")
    if _line_sum(payload) != expected:
        raise JournalError("journal line checksum mismatch")
    return payload


@dataclass
class JournalState:
    """Everything :func:`read_journal` recovers from a journal file."""

    path: Path
    #: The ``header`` payload, or ``None`` for an absent/empty journal
    #: (which resumes as a fresh sweep).
    header: Optional[Dict[str, Any]] = None
    #: label -> terminal point record (duplicate outcomes: last wins).
    outcomes: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: label -> number of ``claim`` lines seen (attempt history of
    #: points that were started, finished or not).
    claims: Dict[str, int] = field(default_factory=dict)
    #: True when a torn final line was dropped (the crash signature).
    truncated: bool = False
    #: Total well-formed lines read (header and markers included).
    entries: int = 0

    @property
    def fresh(self) -> bool:
        """An absent or empty journal is equivalent to a fresh sweep."""
        return self.header is None

    def validate_spec(self, spec) -> None:
        """Hard error when ``spec`` is not the journal's sweep."""
        if self.header is None:
            return
        want = spec_fingerprint(spec)
        have = self.header.get("spec_digest")
        if have != want:
            raise JournalError(
                f"{self.path}: journal was written for spec digest "
                f"{have}, but the requested spec digests {want} — "
                f"refusing to resume a different sweep (use a fresh "
                f"--out directory)")


def _is_resume_marker(line: str) -> bool:
    try:
        return decode_line(line).get("kind") == "resume"
    except JournalError:
        return False


def read_journal(path) -> JournalState:
    """Recover a :class:`JournalState` from ``path``.

    Tolerates torn lines only where a crashed writer leaves them: at
    the tail, or immediately before a ``resume`` marker (the scar a
    previous resume appended past).  Anything else unreadable is a
    :class:`JournalError`.
    """
    path = Path(path)
    state = JournalState(path=path)
    if not path.exists():
        return state
    text = path.read_text(encoding="utf-8", errors="replace")
    lines = [(number, line) for number, line in
             enumerate(text.split("\n"), start=1) if line.strip()]
    for position, (number, line) in enumerate(lines):
        try:
            payload = decode_line(line)
        except JournalError as exc:
            if position == len(lines) - 1:
                state.truncated = True     # torn tail: dropped, recovered
                break
            if _is_resume_marker(lines[position + 1][1]):
                state.truncated = True     # healed scar: dropped, recovered
                continue
            raise JournalError(f"{path}:{number}: {exc}") from None
        state.entries += 1
        kind = payload.get("kind")
        if kind == "header":
            if state.header is None:
                state.header = payload
        elif kind == "claim":
            label = payload.get("label", "")
            state.claims[label] = state.claims.get(label, 0) + 1
        elif kind == "outcome":
            record = payload.get("record")
            if isinstance(record, dict) and "label" in record:
                state.outcomes[record["label"]] = record
        # Unknown kinds (e.g. future "resume" markers) are provenance,
        # not replay state: skipped, never an error.
    if state.header is None and state.entries:
        raise JournalError(f"{path}: journal has no header line")
    return state


class SweepJournal:
    """The append side: one writer per sweep directory, every line
    fsync'd before execution proceeds.

    ``fsync=False`` exists for the host-perf benchmark (measuring the
    encode/replay cost, not the disk) — real sweeps always sync.
    """

    def __init__(self, path, fsync: bool = True) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self._fh = None

    # -- opening -----------------------------------------------------------

    @classmethod
    def create(cls, path, spec, run_id: str,
               fsync: bool = True) -> "SweepJournal":
        """Start a fresh journal (truncating any previous one)."""
        journal = cls(path, fsync=fsync)
        journal.path.parent.mkdir(parents=True, exist_ok=True)
        journal._fh = open(journal.path, "w", encoding="utf-8")
        journal._append(journal._header(spec, run_id))
        return journal

    @classmethod
    def resume(cls, path, spec, run_id: str, state: JournalState,
               fsync: bool = True) -> "SweepJournal":
        """Append to an existing journal (or start fresh when empty).

        ``state`` must come from :func:`read_journal` on the same path
        — the caller has already validated the spec digest.  A torn
        tail is *not* rewritten (the file keeps its crash scar); the
        resume marker and all further lines follow it, and readers drop
        the torn line every time.
        """
        if state.fresh:
            return cls.create(path, spec, run_id, fsync=fsync)
        journal = cls(path, fsync=fsync)
        journal._fh = open(journal.path, "a", encoding="utf-8")
        # A torn tail has no trailing newline; start clean after it.
        if state.truncated:
            journal._fh.write("\n")
        journal._append({"kind": "resume", "v": JOURNAL_VERSION,
                         "run_id": run_id, "ts": round(time.time(), 3),
                         "replayed": len(state.outcomes)})
        return journal

    def _header(self, spec, run_id: str) -> Dict[str, Any]:
        return {"kind": "header", "v": JOURNAL_VERSION,
                "spec_digest": spec_fingerprint(spec),
                "run_id": run_id, "ts": round(time.time(), 3),
                "spec": spec_document(spec)}

    # -- appending ---------------------------------------------------------

    def _append(self, payload: Dict[str, Any]) -> None:
        if self._fh is None:
            raise JournalError(f"{self.path}: journal is closed")
        self._fh.write(encode_line(payload) + "\n")
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    def claim(self, label: str, attempt: int = 0) -> None:
        """Record that ``label`` is about to execute (attempt N)."""
        self._append({"kind": "claim", "label": label, "attempt": attempt})

    def outcome(self, record: Dict[str, Any]) -> None:
        """Record a point's terminal ``points.jsonl`` record."""
        self._append({"kind": "outcome", "label": record["label"],
                      "record": record})

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


# -- record comparison ------------------------------------------------------

def strip_volatile(record: Dict[str, Any]) -> Dict[str, Any]:
    """A record with provenance-only fields removed (comparison form)."""
    return {k: v for k, v in record.items() if k not in VOLATILE_FIELDS}


def records_equal(a: List[Dict[str, Any]],
                  b: List[Dict[str, Any]]) -> bool:
    """Point-for-point equality modulo :data:`VOLATILE_FIELDS` — the
    kill→resume determinism check of the chaos sweep drill."""
    if len(a) != len(b):
        return False
    return all(strip_volatile(x) == strip_volatile(y)
               for x, y in zip(a, b))
