"""Unified run identity: one :class:`RunContext` per invocation tree.

The span JSONL (``--spans``), the fault layer's
:class:`~repro.robust.RunReport`, and the sweep engine's
``points.jsonl`` are separate records; without a shared stamp none of
them could be correlated after the fact: nothing would say *which
invocation* produced a given artifact.  A :class:`RunContext` stamps
every one of them (plus the ``repro perf`` ``BENCH_*.json`` files)
with the same three facts:

``run_id``
    A short random identifier minted once per process tree.  The first
    :func:`current` call exports it as ``$REPRO_RUN_ID``, so pool
    workers forked/spawned later inherit the parent's id and every
    record of one invocation — across processes — carries one id.
``git_sha``
    The checkout the run executed from (``GITHUB_SHA`` in CI, else
    ``git rev-parse``, else ``"unknown"``) — enough to re-create the
    code state behind any benchmark number or sweep point.
``source_digest``
    The content hash of the ``repro`` package sources (the same digest
    that keys the artifact cache, see
    :func:`repro.pipeline.keys.source_digest`), which identifies
    uncommitted states ``git_sha`` cannot.

One process, many runs
----------------------

The ``$REPRO_RUN_ID`` export assumes one run per process tree — true
for every CLI invocation, false inside ``repro serve``, where one
warm process handles many concurrent requests that must *not* share
(or clobber) a run id.  :func:`scoped` solves this: it activates a
fresh request-local context through a :class:`contextvars.ContextVar`
— visible to everything :func:`current` is called from within the
``with`` block (the handler thread, its sweep journal, its point
records), invisible to every other thread, and never written to the
environment.  The process-wide context and its env export are
untouched, so pool workers forked for CLI-style work still join the
parent run.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import time
import uuid
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional

__all__ = ["ENV_RUN_ID", "RunContext", "current", "new_context", "scoped"]

#: Environment variable that pins the run id across a process tree.
ENV_RUN_ID = "REPRO_RUN_ID"


@dataclass(frozen=True)
class RunContext:
    """Identity of one invocation: who ran, on what code, when."""

    run_id: str
    git_sha: str
    source_digest: str
    started: float

    def stamp(self) -> Dict[str, object]:
        """JSON-ready rendering for embedding in artifacts."""
        return {"run_id": self.run_id, "git_sha": self.git_sha,
                "source_digest": self.source_digest,
                "started": self.started}


def _repo_root() -> Path:
    import repro
    return Path(repro.__file__).resolve().parents[2]


def _git_sha() -> str:
    """Current commit, best effort: CI env var, then ``git``, then
    ``"unknown"`` (never raises — perf runs work from tarballs too)."""
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha[:12]
    try:
        out = subprocess.run(
            ["git", "-C", str(_repo_root()), "rev-parse", "--short=12",
             "HEAD"],
            capture_output=True, text=True, timeout=5)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def new_context(run_id: Optional[str] = None) -> RunContext:
    """Mint a fresh context (``run_id`` override for tests/adoption)."""
    from repro.pipeline.keys import source_digest

    return RunContext(
        run_id=run_id or uuid.uuid4().hex[:12],
        git_sha=_git_sha(),
        source_digest=source_digest()[:16],
        started=round(time.time(), 3))


_CURRENT: Optional[RunContext] = None

#: Request-local override installed by :func:`scoped` (server mode).
#: A ContextVar, not a thread-local: each handler thread (and anything
#: it awaits) sees its own activation, and nothing leaks across
#: requests.
_SCOPED: ContextVar[Optional[RunContext]] = ContextVar(
    "repro_scoped_run_context", default=None)


def _process_context() -> RunContext:
    """The process-wide context, created (and env-exported) on first
    use — ignores any :func:`scoped` activation."""
    global _CURRENT
    env_id = os.environ.get(ENV_RUN_ID)
    if _CURRENT is None or (env_id and _CURRENT.run_id != env_id):
        _CURRENT = new_context(run_id=env_id)
        os.environ[ENV_RUN_ID] = _CURRENT.run_id
    return _CURRENT


def current() -> RunContext:
    """The active context: the innermost :func:`scoped` activation if
    one is installed on this thread/task, else the process-wide one.

    The process-wide context honors ``$REPRO_RUN_ID`` (a parent
    process or the user pinning the id) and exports the chosen id back
    into the environment so any child process — pool workers included
    — joins the same run.  Scoped contexts are never exported.
    """
    scoped_context = _SCOPED.get()
    if scoped_context is not None:
        return scoped_context
    return _process_context()


@contextlib.contextmanager
def scoped(run_id: Optional[str] = None) -> Iterator[RunContext]:
    """Activate a fresh request-local :class:`RunContext`.

    ``git_sha``/``source_digest`` are inherited from the process-wide
    context (they cannot change mid-process; re-deriving them would
    cost a ``git`` subprocess per request), while ``run_id`` and
    ``started`` are minted per activation.  The environment is left
    alone: two concurrent activations never see each other, and a
    scoped id never leaks into later CLI-style work.
    """
    base = _process_context()
    context = RunContext(
        run_id=run_id or uuid.uuid4().hex[:12],
        git_sha=base.git_sha,
        source_digest=base.source_digest,
        started=round(time.time(), 3))
    token = _SCOPED.set(context)
    try:
        yield context
    finally:
        _SCOPED.reset(token)
