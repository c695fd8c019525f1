"""Run one end-to-end workload and print its result as one JSON line.

    python3 e2e/run.py --workload report-cold --seed 1 --seconds 20 --trace 0
    python3 e2e/run.py --workload sweep --seed 1 --trace 1 --out DIR

With ``--trace 0`` the result carries every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` every per-layer metric.  The
set-up time is the median of six fresh set-ups; the workload itself
runs in its own fresh subprocess.  Times are in reference-host seconds
(``e2e/hostspeed.py``), except serve's request times.  Stores, sweep
output and serve spools live in a work directory under ``e2e/.tmp``
that is deleted before exit.  ``--out DIR`` keeps the full record
(and, traced, a Chrome trace Perfetto loads) in ``DIR``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from e2e import hostspeed, procs  # noqa: E402
from e2e.stats import per_kind_medians, percentile  # noqa: E402

BENCHMARK = procs.ROOT / "BENCHMARK.json"
WORK_ROOT = procs.ROOT / "e2e" / ".tmp"

#: Fresh set-ups per run, half before and half after the workload so
#: that one burst of host noise cannot reach them all; ``setup_s`` is
#: their median.
SETUPS = 6
#: The traced run fails when more of a workload's wall time than this
#: escapes every layer (the serve workload is exempt: its time is spent
#: in another process).
UNATTRIBUTED_LIMIT = 0.15
#: Seconds after which a run gives up on its children, so it always
#: ends within three minutes.
DEADLINE_S = 170.0


def load_benchmark() -> Dict[str, Any]:
    return json.loads(BENCHMARK.read_text())


def _worker_cmd(*args: str) -> List[str]:
    return [sys.executable, "-m", "e2e.worker", *args]


def _spawn(cmd: List[str], work: Path) -> subprocess.Popen:
    # Its own process group, so a timeout can take down the worker and
    # any server it started with one signal.
    return subprocess.Popen(cmd, cwd=str(procs.ROOT),
                            env=procs.child_env(work),
                            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            text=True, start_new_session=True)


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def setup_seconds(workload: str, work: Path, deadline: float
                  ) -> Tuple[float, float]:
    """One fresh set-up, timed from the spawn until it is ready:
    ``(wall seconds, reference-host seconds)``."""
    before = hostspeed.probe()
    if workload == "serve":
        proc, _url, seconds = procs.spawn_server(
            work, work / "probe-cache", work / "probe-spool",
            timeout=deadline - time.perf_counter())
        after = hostspeed.probe()
        procs.stop_process(proc)
        shutil.rmtree(work / "probe-cache", ignore_errors=True)
        return seconds, seconds * hostspeed.scale(before, after)
    started = time.perf_counter()
    proc = _spawn(_worker_cmd("probe", workload, "--work", str(work)), work)
    try:
        line = procs.read_line(proc, deadline)
        seconds = time.perf_counter() - started
        after = hostspeed.probe()
    finally:
        _finish(proc, deadline - time.perf_counter())
    if line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {workload} failed")
    return seconds, seconds * hostspeed.scale(before, after)


def end_to_end(raw: Dict[str, Any], setups: List[float]) -> Dict[str, float]:
    latencies = per_kind_medians(raw["op_kind"], raw["op_ms"])
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(raw["pass_s"]),
        "p50_ms": percentile(latencies, 50),
        "p99_ms": percentile(latencies, 99),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def host() -> Dict[str, Any]:
    model = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": model, "cpus": os.cpu_count(),
            "python": platform.python_version()}


def _record_path(out: Path, workload: str, seed: int, trace: int) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    index = 0
    while (out / f"{workload}-s{seed}-t{trace}-{index}.json").exists():
        index += 1
    return out / f"{workload}-s{seed}-t{trace}-{index}.json"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 e2e/run.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory that keeps the full record")
    args = parser.parse_args(argv)

    if not (procs.SRC / "repro" / "__init__.py").exists():
        print(f"e2e: no repro sources under {procs.SRC}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"e2e: unknown workload {args.workload!r} (have: "
              f"{', '.join(names)})", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None \
        else float(bench["run_seconds"])
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}

    deadline = time.perf_counter() + DEADLINE_S
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    record_path = _record_path(args.out, args.workload, args.seed,
                               args.trace) if args.out else None
    probes = 0 if args.trace else SETUPS // 2
    try:
        setup_runs = [setup_seconds(args.workload, work, deadline)
                      for _ in range(probes)]
        cmd = _worker_cmd("run", args.workload, "--seed", str(args.seed),
                          "--seconds", str(seconds), "--trace",
                          str(args.trace), "--work", str(work))
        if record_path is not None:
            cmd += ["--out-prefix", str(record_path.with_suffix(""))]
        raw = json.loads(_finish(_spawn(cmd, work),
                                 deadline - time.perf_counter()
                                 ).splitlines()[-1])
        setup_runs += [setup_seconds(args.workload, work, deadline)
                       for _ in range(probes)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    setups = [scaled for _wall, scaled in setup_runs]
    values = raw["layers"] if args.trace else end_to_end(raw, setups)
    if set(values) != set(units):
        raise RuntimeError(f"metric names differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")
    correct = raw["failed"] == 0
    if args.trace and args.workload != "serve" \
            and values["unattributed_frac"] > UNATTRIBUTED_LIMIT:
        print(f"e2e: {values['unattributed_frac']:.3f} of the traced wall "
              f"time is unattributed (limit {UNATTRIBUTED_LIMIT})",
              file=sys.stderr)
        correct = False
    for problem in raw["errors"]:
        print(f"e2e: failed: {problem}", file=sys.stderr)
    result = {"correct": correct, "attempted": raw["attempted"],
              "failed": raw["failed"],
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in units}}
    if record_path is not None:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": seconds, "trace": args.trace, "host": host(),
                  "sample": raw["sample"], "sim_digest": raw["sim_digest"],
                  "setup_s": setups,
                  "raw_setup_s": [wall for wall, _scaled in setup_runs],
                  "pass_s": raw["pass_s"], "raw_pass_s": raw["raw_pass_s"],
                  "result": result}
        if args.trace:
            record["layer_seconds_total"] = raw["layer_seconds"]
            record["event_counts"] = raw["counts"]
        record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"{args.workload} seed {args.seed}: {len(raw['pass_s'])} passes, "
          f"{raw['attempted']} ops, sim_digest {raw['sim_digest'][:16]}")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
