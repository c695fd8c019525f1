"""Child processes of the benchmark: environment, the serve process,
and peak-memory probes.  Standard library only, so the runner can use
it before (and without) importing ``repro``."""

from __future__ import annotations

import json
import os
import re
import select
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Dict, Optional, Tuple

#: The checkout root: ``e2e/`` sits directly under it.
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

_LISTENING = re.compile(r"listening on (http://[^\s]+)")


def child_env(work: Path, extra: Optional[Dict[str, str]] = None
              ) -> Dict[str, str]:
    """The environment of every child: no inherited ``REPRO_*`` knob
    (a stray ``REPRO_UARCH_COMPONENTS`` would change what is measured),
    ``repro`` and ``e2e`` importable, temporary files inside ``work``."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(ROOT)))
    env["TMPDIR"] = str(work)
    env.update(extra or {})
    return env


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MiB."""
    status = Path(f"/proc/{pid or 'self'}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc status")


def spawn_server(work: Path, cache_dir: Path, spool_dir: Path,
                 extra_env: Optional[Dict[str, str]] = None,
                 timeout: float = 60.0
                 ) -> Tuple[subprocess.Popen, str, float]:
    """Start ``python -m repro serve`` on a free port with rate limiting
    off and every other setting at its default.

    Returns ``(process, base_url, seconds)`` where ``seconds`` runs from
    the spawn until ``/v1/status`` first answers 200 — the set-up time a
    user of the service waits for.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--rate", "0", "--cache-dir", str(cache_dir),
         "--spool", str(spool_dir)],
        cwd=str(work), env=child_env(work, extra_env),
        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
    try:
        url = _read_url(proc, started + timeout)
        while True:
            try:
                with urllib.request.urlopen(url + "/v1/status",
                                            timeout=5.0) as response:
                    if response.status == 200:
                        json.loads(response.read())
                        break
            except (urllib.error.URLError, ConnectionError):
                pass
            if time.perf_counter() - started > timeout:
                raise RuntimeError("repro serve did not answer /v1/status")
            time.sleep(0.005)
    except BaseException:
        stop_process(proc)
        raise
    return proc, url, time.perf_counter() - started


def read_line(proc: subprocess.Popen, deadline: float) -> str:
    """The child's next stdout line, waiting until ``deadline`` at most."""
    assert proc.stdout is not None
    remaining = deadline - time.perf_counter()
    if remaining <= 0 or not select.select([proc.stdout], [], [],
                                           remaining)[0]:
        raise RuntimeError(f"no output from {proc.args[:4]} in time")
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"{proc.args[:4]} exited with code {proc.wait()}")
    return line


def _read_url(proc: subprocess.Popen, deadline: float) -> str:
    """The base URL from the server's "listening on" line."""
    while True:
        match = _LISTENING.search(read_line(proc, deadline))
        if match:
            return match.group(1)


def stop_process(proc: subprocess.Popen, timeout: float = 30.0) -> None:
    """SIGTERM (the server drains on it), then SIGKILL; always reaps."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()
