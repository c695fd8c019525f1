"""One workload in a fresh interpreter (spawned by ``e2e/run.py``).

``python -m e2e.worker probe NAME --work DIR`` performs one set-up —
imports, a runner or sweep spec over fresh store directories — and
prints ``ready``; the runner times it from the spawn.

``python -m e2e.worker run NAME --seed N --seconds S --trace 0|1
--work DIR [--out-prefix PATH]`` measures the workload and prints one
JSON line of raw results.  With ``--trace 1`` the window is split: the
first half runs untraced, the second half with the layer wrappers
installed (for the serve workload: a second server with span recording
on), and one more pass runs under cProfile for the profile shares.
"""

from __future__ import annotations

import time

_IMPORT_STARTED = time.perf_counter()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, Optional  # noqa: E402

from e2e import layers, workloads  # noqa: E402
from repro import obs  # noqa: E402

#: Fresh-interpreter import time of the toolchain modules the workloads
#: use (``host.import_s``).
IMPORT_S = time.perf_counter() - _IMPORT_STARTED

#: Seconds of report-warm passes profiled (a single pass is too short
#: for stable shares).
WARM_PROFILE_S = 1.0


def probe(name: str, work: Path) -> None:
    """One set-up of ``name`` as a fresh process would do it."""
    from repro import runctx
    from repro.eval import Runner

    store = work / f"probe-{os.getpid()}"
    if name == "sweep":
        workloads.sample_sweep(0).spec()
        (store / "out").mkdir(parents=True)
        runctx.current()
    else:
        store.mkdir(parents=True)
        Runner(cache_dir=store)


def _untraced(workload: workloads.Workload, seconds: float
              ) -> Dict[str, Any]:
    m = workloads.Measurement()
    workload.prepare()
    try:
        workload.run_window(seconds, m)
        rss = workload.peak_rss_mb()
    finally:
        workload.close()
    return {"measurement": m, "peak_rss_mb": rss}


def _traced(workload: workloads.Workload, seconds: float, work: Path,
            out_prefix: Optional[Path]) -> Dict[str, Any]:
    half = seconds / 2.0
    plain, traced = workloads.Measurement(), workloads.Measurement()
    profiled = workloads.Measurement()
    seconds_by_layer: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    shares = dict.fromkeys(layers.PROFILE_GROUPS, 0.0)
    obs_spans = work / "obs-spans.jsonl"
    chrome = []
    if workload.in_process:
        workload.prepare()
        workload.run_window(half, plain)
        stream = io.StringIO()
        obs.install_recorder(stream)
        tracer = layers.Tracer()
        origin, epoch = time.perf_counter(), time.time()
        try:
            with tracer:
                workload.run_window(half, traced)
        finally:
            obs.uninstall_recorder()
        spans, counts = tracer.take()
        seconds_by_layer = layers.self_times(spans)
        unattributed = layers.unattributed(seconds_by_layer,
                                           sum(traced.raw_pass_s))
        obs_spans.write_text(stream.getvalue())
        chrome = layers.chrome_events(spans, origin, os.getpid(), epoch)
        profile = cProfile.Profile()
        profile.enable()
        workload.run_window(WARM_PROFILE_S if workload.name == "report-warm"
                            else 0.0, profiled)
        profile.disable()
        shares = layers.profile_shares(profile)
        extras = workload.extras()
        workload.close()
    else:
        workload.prepare()
        try:
            workload.run_window(half, plain)
        finally:
            workload.close()
        workload = workload.twin(obs_spans)
        workload.prepare()
        try:
            workload.run_window(half, traced)
            extras = workload.extras()
        finally:
            workload.close()
        unattributed = workload.unattributed_frac
    passes = len(traced.pass_s) or 1
    values: Dict[str, float] = {
        f"{layer}_s": seconds_by_layer.get(layer, 0.0) / passes
        for layer in layers.layer_names()}
    values["host.import_s"] = IMPORT_S
    values.update(layers.per_event(seconds_by_layer, counts))
    values["uarch.sim_blocks"] = counts.get("uarch.cycles", 0) / passes
    values.update(shares)
    values.update(extras)
    values["unattributed_frac"] = unattributed
    values["trace.overhead_frac"] = (
        statistics.median(traced.pass_s) / statistics.median(plain.pass_s)
        - 1.0) if traced.pass_s and plain.pass_s else 0.0
    if out_prefix is not None:
        layers.write_chrome_trace(out_prefix.with_suffix(".trace.json"),
                                  chrome, obs_spans)
    plain.merge(traced)
    plain.merge(profiled)
    return {"measurement": plain, "layers": values,
            "layer_seconds": seconds_by_layer, "counts": counts}


def measure(workload: workloads.Workload, seconds: float, trace: bool,
            work: Path, out_prefix: Optional[Path] = None) -> Dict[str, Any]:
    """Run ``workload`` for ``seconds`` and return the raw result."""
    described = workload.describe()
    if trace:
        result = _traced(workload, seconds, work, out_prefix)
    else:
        result = _untraced(workload, seconds)
    m = result.pop("measurement")
    result.update({"sample": described, "sim_digest": workload.sim_digest,
                   "pass_s": m.pass_s, "raw_pass_s": m.raw_pass_s,
                   "op_kind": m.op_kind,
                   "op_ms": m.op_ms,
                   "attempted": m.attempted, "failed": m.failed,
                   "errors": m.errors})
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m e2e.worker")
    parser.add_argument("mode", choices=("probe", "run"))
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-prefix", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.mode == "probe":
        probe(args.workload, args.work)
        print("ready", flush=True)
        return 0
    workload = workloads.WORKLOADS[args.workload](args.seed, args.work)
    result = measure(workload, args.seconds, bool(args.trace), args.work,
                     args.out_prefix)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
