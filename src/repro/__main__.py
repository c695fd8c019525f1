"""Command-line interface: ``python -m repro``.

Subcommands:

* ``list`` — enumerate the benchmark suites (Table 2).
* ``run BENCH`` — compile and execute one benchmark on a chosen system
  (``--system interp|risc|trips|cycles|ideal|core2|p4|p3``) and print its
  statistics.
* ``asm BENCH`` — print the compiled TRIPS assembly (``--block`` to pick
  one block).
* ``report EXPERIMENT`` — regenerate a paper table/figure by key
  (``report --list`` shows the keys; ``report all`` runs everything;
  ``--jobs N`` fans the simulations out over N worker processes;
  ``--heatmaps`` appends trace-derived OPN heatmaps for the kernels).
* ``trace BENCH`` — run the cycle-level simulator with
  microarchitectural event tracing and render the derived views (OPN
  link-utilization heatmap, window-occupancy timeline, per-tile issue
  histogram); ``--out FILE`` writes the compact event stream
  (``docs/TRACE.md`` documents the schema and format).
* ``chaos BENCH`` — fault-injection drill: warm the benchmark's
  artifacts under an injected ``--faults`` plan, then verify and heal
  the cache; prints the run report and any quarantine incidents
  (``docs/ROBUSTNESS.md`` documents the plan format and semantics).
  ``chaos --sweep SPEC`` instead SIGKILLs a subprocess sweep
  mid-journal (the ``kill-driver`` fault), resumes it, and asserts the
  records match an uninterrupted run — the crash-safety drill.
* ``sweep SPEC`` — design-space exploration: expand a declarative
  sweep spec (named preset or JSON/TOML file) into a validated grid of
  design points, simulate them under supervision (in process on one
  shared pipeline, or ``--jobs N`` worker processes; cache-resumable,
  failed points become annotated holes), and write per-point JSONL, a
  per-axis sensitivity table, a Pareto frontier CSV, a markdown
  summary, the fsync'd execution journal, and an attested repro pack
  (``docs/SWEEP.md``).  A killed sweep resumes with ``--resume``.
* ``frontier SWEEP_DIR`` — re-analyze a finished sweep directory:
  print the (IPC, cost) Pareto frontier without re-simulating.
* ``pack verify|create SWEEP_DIR`` — attest or audit a sweep
  directory against its checksummed ``pack.json`` manifest.
* ``perf run|compare|list`` — host-performance benchmark harness:
  time the simulators' hot paths with calibrated repetition and write
  a schema-versioned ``BENCH_<YYYYMMDD>.json``; compare two BENCH
  files for regressions against warn/fail thresholds
  (``docs/PERF.md`` documents the schema, the baseline workflow, and
  the exit codes).

Pipeline options (on ``run``, ``trace``, ``asm``, ``report``, ``chaos``,
and ``sweep``):

* ``--cache-dir PATH`` — artifact store location (default:
  ``.repro-cache/`` at the repo root, or ``$REPRO_CACHE_DIR``).
* ``--no-cache`` — disable the on-disk store for this invocation.
* ``--spans FILE`` — append one JSON span per stage resolution (stage,
  key, outcome, digest, wall time), sweep point, and supervised
  attempt to FILE (``docs/OBSERVABILITY.md``).
* ``--profile`` — print a per-stage hit/miss/latency summary afterwards.
"""

from __future__ import annotations

import argparse
import os
import sys


def _cmd_list(_args, _pipeline) -> int:
    from repro.bench import all_benchmarks
    rows = sorted(all_benchmarks(), key=lambda b: (b.suite, b.name))
    current = None
    for bench in rows:
        if bench.suite != current:
            current = bench.suite
            print(f"\n{current}")
            print("-" * len(current))
        hand = " [+hand]" if bench.has_hand else ""
        print(f"  {bench.name:14s} {bench.description}{hand}")
    return 0


def _cmd_run(args, pipeline) -> int:
    """One benchmark on one system, with a run report on failure.

    Any simulation/cache fault surfaces as a one-unit
    :class:`~repro.robust.RunReport` (cause included) instead of a bare
    traceback.
    """
    from repro.robust import FAILED, RunReport

    try:
        return _run_system(args, pipeline)
    except Exception as exc:
        report = RunReport()
        report.record_attempt(args.benchmark, exc)
        report.resolve(args.benchmark, FAILED, attempts=1,
                       note=f"system={args.system}, variant={args.variant}")
        print(report.render(), file=sys.stderr)
        return 1


def _config_overrides(args):
    """``--config KEY=VALUE`` overrides, validated for the target system.

    Returns ``(config, ideal_params)``: a :class:`TripsConfig` (or
    ``None``) for ``cycles``, a ``(window, dispatch_cost)`` pair (or
    ``None``) for ``ideal``.  Parsed through the sweep spec validator
    (:mod:`repro.explore.spec`) so single-point what-if runs and sweeps
    share one override code path.
    """
    from repro.explore.spec import IDEAL_AXES, SpecError, parse_overrides

    items = getattr(args, "config", None)
    if not items:
        return None, None
    system = args.system
    if system not in ("cycles", "ideal"):
        raise SpecError(
            f"--config only applies to --system cycles or ideal "
            f"(got {system!r})")
    if system == "ideal":
        overrides = parse_overrides(items, system="ideal")
        return None, (overrides.get("window", IDEAL_AXES["window"][0]),
                      overrides.get("dispatch_cost",
                                    IDEAL_AXES["dispatch_cost"][0]))
    from repro.uarch.config import ConfigError, TripsConfig

    overrides = parse_overrides(items, system="cycles")
    try:
        return TripsConfig(**overrides).validate(), None
    except ConfigError as exc:
        raise SpecError(str(exc)) from None


def _run_system(args, pipeline) -> int:
    from repro.explore.spec import SpecError

    name = args.benchmark
    variant = args.variant
    system = args.system
    try:
        config, ideal_params = _config_overrides(args)
    except SpecError as exc:
        print(f"bad --config override: {exc}", file=sys.stderr)
        return 2
    golden = pipeline.expected(name)
    print(f"{name} ({system}, {variant}): golden checksum {golden}")

    if system == "interp":
        from repro.ir import run_module
        result, interp = run_module(pipeline.module(name))
        print(f"result {result}; {interp.stats.executed} IR instructions, "
              f"{interp.stats.loads} loads, {interp.stats.stores} stores")
    elif system == "risc":
        stats = pipeline.powerpc(name)
        print(f"{stats.executed} instructions "
              f"({stats.loads} loads, {stats.stores} stores, "
              f"{stats.register_reads}+{stats.register_writes} register "
              f"accesses)")
    elif system == "trips":
        stats = pipeline.trips_functional(name, variant)
        blocks = max(stats.blocks_committed, 1)
        print(f"{stats.blocks_committed} blocks, avg size "
              f"{stats.fetched / blocks:.1f}; fetched {stats.fetched}, "
              f"executed {stats.executed}, useful {stats.useful}, "
              f"moves {stats.moves_executed}, mispredicated "
              f"{stats.fetched_not_executed}")
    elif system == "cycles":
        if args.uarch_trace:
            stats, opn = _traced_cycles(pipeline, name, variant,
                                        args.uarch_trace, config)
        else:
            artifact = pipeline.trips_cycles(name, variant, config)
            stats, opn = artifact.stats, artifact.opn_stats
        print(f"{stats.cycles} cycles, IPC {stats.ipc:.2f} "
              f"(useful {stats.useful_ipc:.2f}); "
              f"{stats.avg_instructions_in_window:.0f} instructions in "
              f"flight; {opn.average_hops():.2f} avg OPN hops; "
              f"{stats.branch_mispredictions} branch mispredictions, "
              f"{stats.icache_misses} I-cache misses, "
              f"{stats.load_flushes} load flushes")
    elif system == "ideal":
        if ideal_params is not None:
            window, dispatch_cost = ideal_params
            stats = pipeline.ideal(name, variant, window=window,
                                 dispatch_cost=dispatch_cost)
            print(f"ideal {window}/{dispatch_cost}-cycle dispatch: "
                  f"{stats.cycles} cycles, IPC {stats.ipc:.2f}")
        else:
            stats = pipeline.ideal(name, variant)
            big = pipeline.ideal(name, variant, window=128 * 1024,
                               dispatch_cost=0)
            print(f"ideal 1K/8-cycle dispatch: {stats.cycles} cycles, "
                  f"IPC {stats.ipc:.2f}; ideal 128K/0: IPC {big.ipc:.2f}")
    elif system in ("core2", "p4", "p3"):
        level = "ICC" if args.icc else "O2"
        stats = pipeline.platform(name, system, level)
        print(f"{stats.cycles} cycles, IPC {stats.ipc:.2f}, "
              f"{stats.branch_mispredictions} branch mispredictions "
              f"({level})")
    else:
        print(f"unknown system {system!r}", file=sys.stderr)
        return 2
    return 0


def _traced_cycles(pipeline, name: str, variant: str, out_path: str,
                   config=None):
    """Traced cycle-level fold; writes the compact stream and returns
    ``(stats, opn_stats)``.

    Bypasses the ``trips-cycles`` artifact cache (the raw event stream
    is not cached) but folds over the held, checksum-validated
    ``trips-outcomes`` recording.
    """
    import sys as _sys

    from repro.trace import write_compact

    sim, events = pipeline.traced_cycles(name, variant, config)
    count = write_compact(events, out_path)
    print(f"wrote {count} events to {out_path}", file=_sys.stderr)
    return sim.stats, sim.opn.stats


def _cmd_trace(args, pipeline) -> int:
    from repro.trace import (
        render_event_counts, render_occupancy_timeline, render_opn_heatmap,
        render_tile_histogram, summarize, write_compact,
    )

    name = args.benchmark
    sim, events = pipeline.traced_cycles(name, args.variant)
    stats = sim.stats
    print(f"{name} (cycles, {args.variant}): {stats.cycles} cycles, "
          f"IPC {stats.ipc:.2f}, {len(events)} events")
    metrics = summarize(events, stats.cycles, buckets=args.buckets)
    print()
    print(render_event_counts(metrics))
    print()
    print(render_opn_heatmap(metrics))
    print()
    print(render_occupancy_timeline(metrics))
    print()
    print(render_tile_histogram(metrics))
    if args.out:
        count = write_compact(events, args.out)
        print(f"\nwrote {count} events to {args.out}")
    return 0


def _cmd_asm(args, pipeline) -> int:
    from repro.isa import format_block, format_program

    lowered = pipeline.trips_lowered(args.benchmark, args.variant)
    if args.block:
        for block in lowered.program.all_blocks():
            if block.label == args.block:
                print(format_block(block))
                return 0
        print(f"no block named {args.block!r}", file=sys.stderr)
        return 2
    print(format_program(lowered.program))
    return 0


def _cmd_report(args, pipeline) -> int:
    from repro.eval import experiment_names, run_experiment
    from repro.robust import RetryPolicy, RunReport

    if args.list:
        for key in experiment_names():
            print(key)
        return 0
    keys = experiment_names() if args.experiment == "all" \
        else [args.experiment]
    report = RunReport()

    if args.jobs > 1:
        if pipeline.store is None:
            print("--jobs requires the artifact cache "
                  "(drop --no-cache / REPRO_CACHE=0)", file=sys.stderr)
            return 2
        from repro.pipeline.parallel import report_plan, warm_benchmarks
        benchmarks, trace_names, bandwidth = report_plan(keys)
        if benchmarks or bandwidth:
            cache_root = pipeline.store.base
            warm_benchmarks(
                benchmarks, cache_root, jobs=args.jobs,
                trace_names=trace_names, bandwidth=bandwidth,
                telemetry=pipeline.telemetry,
                policy=RetryPolicy(max_attempts=args.retries + 1),
                stage_timeout=args.stage_timeout, report=report,
                progress=lambda label: print(f"warmed {label}",
                                             file=sys.stderr))

    # Render every figure we can: a failed benchmark unit (or a driver
    # error) annotates that experiment instead of aborting the run.
    for key in keys:
        try:
            rendered = run_experiment(key, pipeline)
        except Exception as exc:
            message = f"{key}: {type(exc).__name__}: {exc}"
            report.annotate(message)
            print(f"[{key} unavailable: {type(exc).__name__}: {exc}]")
            print()
            continue
        print(rendered)
        print()

    if report.eventful:
        print(report.render())

    if args.heatmaps:
        from repro.bench import by_suite
        from repro.trace import render_occupancy_timeline, render_opn_heatmap

        for bench in sorted(by_suite("kernels"), key=lambda b: b.name):
            metrics = pipeline.trace_summary(bench.name, "compiled")
            print(f"=== {bench.name} (compiled) ===")
            print(render_opn_heatmap(metrics))
            print(render_occupancy_timeline(metrics))
            print()
    return 0 if report.ok else 1


def _chaos_sweep_drill(args, pipeline, plan) -> int:
    """The kill->resume determinism drill behind ``chaos --sweep``.

    1. Run the sweep in a **subprocess** with the fault plan: a
       ``kill-driver`` fault SIGKILLs it the instant the matching
       point's claim hits the journal (a dead driver must really die —
       in-process simulation of a SIGKILL would prove nothing).
    2. Resume the same directory in this process — *without* the
       plan, as a real operator would (activation is pure, so passing
       it again would simply kill the resumed driver too).
    3. Run an uninterrupted reference sweep into a sibling directory
       sharing the same cache, and assert record-for-record equality
       modulo run ids, plus a clean ``pack verify``.
    """
    import subprocess
    from pathlib import Path

    import repro
    from repro.explore import (
        load_spec, preset_names, preset_spec, read_journal, records_equal,
        run_sweep, verify_pack,
    )
    from repro.explore.journal import JOURNAL_FILE
    from repro.explore.spec import SpecError

    try:
        spec = preset_spec(args.sweep_spec) \
            if args.sweep_spec in preset_names() \
            else load_spec(args.sweep_spec)
    except (SpecError, FileNotFoundError) as exc:
        print(f"bad --sweep spec: {exc}", file=sys.stderr)
        return 2
    cache_dir = pipeline.store.base
    out_dir = Path(args.out) if args.out else \
        Path("sweeps") / f"chaos-{spec.name}"

    src_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                      else []))
    # Serial execution (--jobs 1): the SIGKILL must not orphan pool
    # workers, and the claim order must be deterministic.
    cmd = [sys.executable, "-m", "repro", "sweep", args.sweep_spec,
           "--out", str(out_dir), "--cache-dir", str(cache_dir),
           "--jobs", "1", "--faults", args.faults,
           "--seed", str(args.seed)]
    print(f"chaos sweep drill: {spec.name} under [{plan.describe()}]",
          file=sys.stderr)
    print(f"  [1/3] driver: {' '.join(cmd)}", file=sys.stderr)
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=600)
    killed = proc.returncode < 0 or proc.returncode == 137
    has_kill = any(f.kind == "kill-driver" for f in plan.faults)
    if has_kill and not killed:
        print(f"  drill FAILED: kill-driver fault never fired "
              f"(driver exited {proc.returncode})", file=sys.stderr)
        print(proc.stderr, file=sys.stderr)
        return 1
    print(f"  driver terminated: returncode {proc.returncode}"
          + (" (killed)" if killed else ""), file=sys.stderr)

    state = read_journal(out_dir / JOURNAL_FILE)
    terminal = len(state.outcomes)
    print(f"  [2/3] resuming: {terminal} terminal outcome(s) in the "
          f"journal", file=sys.stderr)
    resumed = run_sweep(spec, cache_dir, out_dir, resume=True,
                        telemetry=pipeline.telemetry)
    print(f"  {resumed.summary_line()}", file=sys.stderr)

    print(f"  [3/3] uninterrupted reference sweep", file=sys.stderr)
    ref_dir = out_dir.parent / (out_dir.name + "-ref")
    reference = run_sweep(spec, cache_dir, ref_dir,
                          telemetry=pipeline.telemetry)

    problems = []
    if resumed.replayed != terminal:
        problems.append(
            f"resume replayed {resumed.replayed} point(s) but the "
            f"journal held {terminal} terminal outcome(s) — "
            f"journal-terminal points were re-executed")
    if not records_equal(resumed.records, reference.records):
        problems.append("resumed records differ from the uninterrupted "
                        "sweep's (beyond run ids)")
    problems.extend(f"pack: {p}" for p in verify_pack(out_dir))
    if problems:
        print("chaos sweep drill FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"chaos sweep drill ok: killed at claim, resumed "
          f"{len(resumed.records)} records byte-identical to the "
          f"uninterrupted sweep (modulo run ids); pack verifies")
    return 0


def _cmd_chaos(args, pipeline) -> int:
    from repro.pipeline.parallel import warm_benchmarks
    from repro.robust import FaultPlan, RetryPolicy, RunReport

    if pipeline.store is None:
        print("chaos requires the artifact cache "
              "(drop --no-cache / REPRO_CACHE=0)", file=sys.stderr)
        return 2
    try:
        plan = FaultPlan.parse(args.faults, seed=args.seed)
    except ValueError as exc:
        print(f"bad --faults plan: {exc}", file=sys.stderr)
        return 2
    if (args.benchmark is None) == (args.sweep_spec is None):
        print("chaos needs exactly one target: a benchmark, or "
              "--sweep SPEC", file=sys.stderr)
        return 2
    if args.sweep_spec is not None:
        return _chaos_sweep_drill(args, pipeline, plan)
    policy = RetryPolicy(max_attempts=args.retries + 1, seed=args.seed)
    report = RunReport()
    cache_root = pipeline.store.base
    include = ("expected", "cycles")

    print(f"chaos drill: {args.benchmark} under [{plan.describe()}], "
          f"jobs={args.jobs}, retries={args.retries}", file=sys.stderr)
    warm_benchmarks([args.benchmark], cache_root, jobs=args.jobs,
                    include=include, faults=plan, policy=policy,
                    stage_timeout=args.stage_timeout,
                    telemetry=pipeline.telemetry, report=report,
                    progress=lambda label: print(f"warmed {label}",
                                                 file=sys.stderr))
    # Verification pass, fault-free and in-process: loading every
    # artifact heals any corruption the plan injected (corrupt entries
    # are quarantined and recomputed).
    warm_benchmarks([args.benchmark], cache_root, jobs=1, include=include,
                    telemetry=pipeline.telemetry)

    print(report.render())
    incidents = pipeline.store.list_incidents()
    if incidents:
        print(f"quarantine: {len(incidents)} incident(s)")
        for record in incidents:
            print(f"  {record['stage']}  {record['digest'][:16]}  "
                  f"{record['reason']}")
    return 0 if report.ok else 1


def _resolve_sweep_spec(args):
    """The validated spec of a ``sweep`` invocation (preset name or
    JSON/TOML file), with ``--points`` / ``--benchmarks`` applied."""
    from repro.explore import load_spec, preset_names, preset_spec
    from repro.explore.spec import SpecError, parse_axis_points

    if args.spec is None:
        raise SpecError(
            f"no sweep spec given (presets: {', '.join(preset_names())}, "
            f"or a .json/.toml file)")
    if args.spec in preset_names():
        spec = preset_spec(args.spec)
    else:
        spec = load_spec(args.spec)
    if args.points:
        spec = spec.with_axes(parse_axis_points(args.points, spec.system))
    if args.benchmarks:
        names = [n.strip() for n in args.benchmarks.split(",") if n.strip()]
        spec = spec.with_benchmarks(names)
    return spec


def _cmd_sweep(args, pipeline) -> int:
    from pathlib import Path

    from repro.explore import (
        JournalError, expand, preset_names, preset_spec, run_sweep,
    )
    from repro.explore.spec import SpecError
    from repro.robust import FaultPlan, RetryPolicy

    if args.list_presets:
        for name in preset_names():
            spec = preset_spec(name)
            print(f"{name:18s} {spec.point_count():4d} points  "
                  f"{spec.description}")
        return 0
    if pipeline.store is None:
        print("sweep requires the artifact cache "
              "(drop --no-cache / REPRO_CACHE=0)", file=sys.stderr)
        return 2
    try:
        spec = _resolve_sweep_spec(args)
        points = expand(spec)
    except SpecError as exc:
        print(f"bad sweep spec: {exc}", file=sys.stderr)
        return 2
    faults = None
    if args.faults:
        try:
            faults = FaultPlan.parse(args.faults, seed=args.seed)
        except ValueError as exc:
            print(f"bad --faults plan: {exc}", file=sys.stderr)
            return 2

    out_dir = Path(args.out) if args.out else Path("sweeps") / spec.name
    print(f"sweep {spec.name}: {len(points)} points over "
          f"{len(spec.benchmarks)} benchmark(s) x "
          f"{' x '.join(f'{name}[{len(values)}]' for name, values in spec.axes)}"
          f", jobs={args.jobs}", file=sys.stderr)
    policy = RetryPolicy(max_attempts=args.retries + 1,
                         seed=args.seed if args.faults else 0)
    progress = lambda label: print(f"done {label}", file=sys.stderr)
    try:
        result = run_sweep(
            spec, cache_dir=pipeline.store.base,
            out_dir=out_dir, jobs=args.jobs, policy=policy,
            stage_timeout=args.stage_timeout, faults=faults,
            telemetry=pipeline.telemetry, progress=progress,
            resume=args.resume)
    except JournalError as exc:
        print(f"cannot resume: {exc}", file=sys.stderr)
        return 2
    print(result.summary_line())

    names = ", ".join(sorted(p.name for p in result.artifacts.values()))
    print(f"wrote {result.out_dir}/{{{names}}}")
    if result.report.eventful:
        print(result.report.render())
    return 0 if result.ok else 1


def _cmd_pack(args, _pipeline) -> int:
    from repro.explore.pack import PackError, verify_pack, write_pack

    if args.pack_command == "create":
        path = write_pack(args.sweep_dir)
        print(f"wrote {path}")
        return 0
    try:
        problems = verify_pack(args.sweep_dir)
    except PackError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if problems:
        print(f"pack verify FAILED: {args.sweep_dir}")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"pack verify ok: {args.sweep_dir}")
    return 0


def _cmd_frontier(args, _pipeline) -> int:
    from repro.explore.analyze import (
        aggregate_configs, load_points, load_spec_json, pareto_frontier,
        sensitivity_rows,
    )
    from repro.eval.report import format_table

    try:
        records = load_points(args.sweep_dir)
        spec = load_spec_json(args.sweep_dir)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    rows = pareto_frontier(aggregate_configs(records))
    axes = sorted({name for row in rows for name in row["settings"]})
    headers = axes + ["cost", "area mm2", "IPC", "IPC/mm2", "holes",
                      "frontier"]
    table_rows = [
        [row["settings"].get(a, "") for a in axes]
        + [row["cost"], round(row["area_mm2"], 1),
           round(row["ipc_geomean"], 3), round(row["ipc_per_area"], 4),
           row["holes"], "*" if row["on_frontier"] else ""]
        for row in rows]
    print(format_table(
        f"Pareto frontier — sweep {spec.name!r} ({len(records)} points)",
        headers, table_rows,
        "cost = window slots x ETs (cycles) or window (ideal); "
        "area is the repro.uarch.area estimate; "
        "* = on the (IPC, cost) frontier."))
    print()
    base_rows = sensitivity_rows(spec, records)
    if base_rows:
        headers = ["axis", "value", "IPC", "delta", "delta %"]
        table = [[r["axis"],
                  f"{r['value']}{' *' if r['baseline'] else ''}",
                  round(r["ipc_geomean"], 3),
                  f"{r['delta_ipc']:+.3f}", f"{r['delta_pct']:+.1f}"]
                 for r in base_rows]
        print(format_table(
            "Per-axis sensitivity (other axes at baseline)",
            headers, table, "* = baseline value."))
    return 0


def _cmd_perf(args, _pipeline) -> int:
    from repro import perf

    if args.perf_command == "list":
        for spec in perf.default_suite():
            print(f"{spec.name:16s} [{spec.group}] {spec.description}")
        return 0
    if args.perf_command == "compare":
        return _perf_compare(args)
    return _perf_run(args)


def _perf_run(args) -> int:
    from repro import perf, runctx

    try:
        specs = perf.default_suite(
            [n.strip() for n in args.only.split(",") if n.strip()]
            if args.only else None)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    repeats = args.repeats if args.repeats is not None \
        else (3 if args.quick else 7)
    warmup = args.warmup if args.warmup is not None \
        else (1 if args.quick else 2)

    context = runctx.current()
    print(f"perf run {context.run_id}: {len(specs)} benchmark(s), "
          f"{warmup} warmup + {repeats} timed repeats"
          f"{' (quick)' if args.quick else ''}", file=sys.stderr)
    results = []
    for spec in specs:
        result = perf.measure(spec, repeats=repeats, warmup=warmup)
        results.append(result)
        print(f"  {result.name:16s} median {result.median_s * 1000:9.2f} ms"
              f"  +-{result.mad_s * 1000:7.3f} ms MAD"
              f"  (min {result.min_s * 1000:.2f}, "
              f"rss {result.peak_rss_kb} KB)", file=sys.stderr)

    payload = perf.bench_payload(results, quick=args.quick,
                                 context=context)
    path = perf.write_bench(payload, args.out)
    print(f"wrote {path}")

    from repro.obs import annotate_run
    annotate_run(label="perf run" + (" --quick" if args.quick else ""),
                 artifacts={"bench": str(path)},
                 benchmarks=len(results),
                 medians_ms={result.name: round(result.median_s * 1e3, 3)
                             for result in results})

    if args.profile_hotspots:
        from repro.eval.report import format_table
        for spec in specs:
            rows = perf.hotspots(spec, top=args.profile_hotspots)
            print()
            print(format_table(
                f"Hotspots — {spec.name} (top {args.profile_hotspots} "
                f"by cumulative time)",
                ["calls", "tottime s", "cumtime s", "function"],
                [[calls, f"{tot:.4f}", f"{cum:.4f}", where]
                 for calls, tot, cum, where in rows],
                "one profiled run; not comparable with the calibrated "
                "medians above."))
    return 0


def _bench_rounds(path: str) -> list:
    """The BENCH payloads at ``path``: the file, or a directory's
    ``*.json`` files in name order (one per round)."""
    from pathlib import Path

    from repro import perf

    root = Path(path)
    files = sorted(root.glob("*.json")) if root.is_dir() else [root]
    if not files:
        raise ValueError(f"{path}: no BENCH files")
    return [perf.load_bench(file) for file in files]


def _perf_compare(args) -> int:
    from repro import perf

    try:
        base = _bench_rounds(args.base)
        new = _bench_rounds(args.new)
        if len(base) == len(new) == 1:
            rows = perf.compare_payloads(
                base[0], new[0], warn_pct=args.warn_pct,
                fail_pct=args.fail_pct, noise_mads=args.noise_mads)
        else:
            rows = perf.compare_rounds(base, new, warn_pct=args.warn_pct,
                                       fail_pct=args.fail_pct)
    except (OSError, ValueError) as exc:
        print(f"perf compare: {exc}", file=sys.stderr)
        return 2
    base_run = ",".join((p.get("run") or {}).get("run_id", "")
                        for p in base)
    new_run = ",".join((p.get("run") or {}).get("run_id", "")
                       for p in new)
    print(perf.render_comparison(rows, str(args.base), str(args.new),
                                 base_run_id=base_run,
                                 new_run_id=new_run, rounds=len(base)))
    code = perf.exit_code(rows)
    verdict = {perf.EXIT_OK: "ok", perf.EXIT_WARN: "WARN",
               perf.EXIT_REGRESSION: "REGRESSION"}[code]
    print(f"\nverdict: {verdict} (exit {code})")

    from repro.obs import annotate_run
    annotate_run(label="perf compare", outcome=verdict.lower(),
                 artifacts={"base": str(args.base),
                            "new": str(args.new)},
                 base_run_id=base_run, new_run_id=new_run)
    return code


def _cmd_runs(args, _pipeline) -> int:
    import json as _json

    from repro.obs import RunIndex, default_index_path

    path = default_index_path(args.cache_dir)
    if not path.exists() and args.runs_command != "compact":
        print(f"runs: no index at {path} (nothing recorded yet)",
              file=sys.stderr)
        return 1
    index = RunIndex(path)
    try:
        if args.runs_command == "list":
            rows = index.query(limit=args.limit)
            if not rows:
                print("runs: index is empty", file=sys.stderr)
                return 1
            from repro.eval.report import format_table
            import time as _time
            table = [[row["id"],
                      _time.strftime("%m-%d %H:%M:%S",
                                     _time.localtime(row["started"])),
                      row["kind"], row["label"] or "-", row["outcome"],
                      f"{row['wall_s']:.2f}", row["run_id"]]
                     for row in rows]
            print(format_table(
                f"Run index — {path}",
                ["id", "started", "kind", "label", "outcome", "wall s",
                 "run id"],
                table, "newest first; `repro runs show <id>` for the "
                       "full row."))
            return 0
        if args.runs_command == "show":
            row = index.get(args.id)
            if row is None:
                print(f"runs: no row with id {args.id}", file=sys.stderr)
                return 1
            print(_json.dumps(row, indent=2, sort_keys=True))
            return 0
        if args.runs_command == "compact":
            max_age_s = args.max_age_days * 86400.0 \
                if args.max_age_days is not None else None
            removed = index.compact(keep=args.keep, max_age_s=max_age_s)
            print(f"runs: dropped {removed} row(s), "
                  f"{index.count()} kept")
            return 0
        import time as _time
        since = (_time.time() - args.since_s) \
            if args.since_s is not None else None
        rows = index.query(kind=args.kind, run_id=args.run_id,
                           outcome=args.outcome, label_like=args.label,
                           since=since, limit=args.limit)
        for row in rows:
            print(_json.dumps(row, sort_keys=True))
        if not rows:
            print("runs: no rows match the query", file=sys.stderr)
            return 1
        return 0
    finally:
        index.close()


def _cmd_spans(args, _pipeline) -> int:
    from pathlib import Path

    from repro.obs import export_chrome

    source = Path(args.source)
    if not source.exists():
        print(f"spans: no such file: {source}", file=sys.stderr)
        return 2
    out = Path(args.out) if args.out \
        else source.with_suffix(".trace.json")
    count = export_chrome(source, out)
    print(f"wrote {out} ({count} span event(s))")
    return 0 if count else 1


def _cmd_config(args, _pipeline) -> int:
    # args.config_command is always "show" today (argparse enforces it);
    # the sub-subcommand exists so `repro config diff` etc. can slot in.
    import dataclasses

    from repro.explore.spec import SpecError, parse_overrides
    from repro.pipeline.keys import config_digest
    from repro.uarch.area import estimate_area
    from repro.uarch.config import (
        ConfigError, TripsConfig, component_tables,
    )

    try:
        overrides = parse_overrides(args.config or [], system="cycles")
        config = TripsConfig(**overrides).validate()
    except (SpecError, ConfigError) as exc:
        print(f"bad --config override: {exc}", file=sys.stderr)
        return 2

    defaults = TripsConfig()
    print(f"TripsConfig (digest {config_digest(config)})")
    print()
    marked = False
    for field in dataclasses.fields(TripsConfig):
        value = getattr(config, field.name)
        star = ""
        if value != getattr(defaults, field.name):
            star, marked = "  *", True
        print(f"  {field.name:24s} = {value!r}{star}")
    if marked:
        print()
        print("  (* differs from the prototype default)")

    print()
    print("components (name -> class tables):")
    for field_name, table in sorted(component_tables().items()):
        selected = getattr(config, field_name)
        print(f"  {field_name:16s} = {selected:12s} "
              f"[choices: {', '.join(sorted(table))}]")

    area = estimate_area(config)
    print()
    print(f"estimated area: {area.total_mm2:.1f} mm2 "
          f"(prototype-normalized 130nm-class model, repro.uarch.area)")
    for name, mm2, share in area.rows():
        print(f"  {name:16s} {mm2:8.2f} mm2  {share * 100:5.1f}%")
    return 0


def _cmd_serve(args, _pipeline) -> int:
    """Boot the always-warm service and run until drained.

    The HTTP listener runs in a daemon thread; the main thread parks
    on an event that SIGTERM/SIGINT set, then performs the graceful
    drain — refuse new work with 503, finish in-flight requests (their
    sweep journals close with them), stop the run executor, write the
    final metrics snapshot to the spool.
    """
    import signal
    import threading
    from pathlib import Path

    from repro.pipeline import default_cache_dir
    from repro.robust import FaultPlan
    from repro.serve import ReproServer, ServeConfig

    faults = None
    if args.faults:
        try:
            faults = FaultPlan.parse(args.faults, seed=args.seed)
        except ValueError as exc:
            print(f"bad --faults plan: {exc}", file=sys.stderr)
            return 2
    warm = tuple(name.strip() for name in (args.warm or "").split(",")
                 if name.strip())
    config = ServeConfig(
        host=args.host, port=args.port, jobs=args.jobs,
        cache_dir=Path(args.cache_dir or default_cache_dir()),
        spool_dir=Path(args.spool), max_queue=args.max_queue,
        rate=args.rate, burst=args.burst, faults=faults,
        warm_benchmarks=warm)
    try:
        server = ReproServer(config)
    except OSError as exc:
        print(f"cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1

    stop = threading.Event()

    def on_signal(signum, frame):
        print(f"\nrepro serve: caught {signal.Signals(signum).name}, "
              f"draining...", flush=True)
        stop.set()

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)

    if warm:
        print(f"repro serve: warming {len(warm)} benchmark(s)...",
              flush=True)
        server.service.warm(progress=lambda name: print(f"  warm {name}",
                                                        flush=True))
    server.start()
    host, port = server.address
    print(f"repro serve: listening on http://{host}:{port} "
          f"(cache {config.cache_dir}, spool {config.spool_dir}, "
          f"jobs {config.jobs})", flush=True)
    if faults is not None:
        print(f"repro serve: fault injection active — "
              f"{faults.describe()}", flush=True)
    stop.wait()
    clean = server.drain(timeout=args.drain_timeout)
    snapshot = server.service.spool / "metrics.json"
    outcome = "cleanly" if clean else "WITH WORK ABANDONED"
    print(f"repro serve: drained {outcome}; metrics snapshot at "
          f"{snapshot}", flush=True)
    return 0 if clean else 1


def _int_at_least(minimum: int):
    """An argparse ``type``: an integer no smaller than ``minimum``, so
    a bad count exits 2 at parse time on every subcommand alike."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value
    return parse


#: ``--jobs`` counts worker processes/threads; ``--retries`` counts
#: extra attempts.
_JOBS = _int_at_least(1)
_RETRIES = _int_at_least(0)


def _nonnegative_float(text: str) -> float:
    """An argparse ``type``: a float no smaller than 0 (NaN refused)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid number: {text!r}") from None
    if not value >= 0:
        raise argparse.ArgumentTypeError(
            f"must be at least 0, got {value:g}")
    return value


def _trace_buckets(text: str) -> int:
    """An argparse ``type``: a timeline resolution from 1 to the
    ``MAX_TRACE_BUCKETS`` bound ``/v1/trace`` enforces too.  Imported
    here, so only a given ``--buckets`` pays for loading the tracer."""
    from repro.trace import MAX_TRACE_BUCKETS

    value = _int_at_least(1)(text)
    if value > MAX_TRACE_BUCKETS:
        raise argparse.ArgumentTypeError(
            f"must be at most {MAX_TRACE_BUCKETS}, got {value}")
    return value


def _add_robust_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--retries", type=_RETRIES, default=2, metavar="N",
                        help="worker attempts per benchmark unit beyond the "
                             "first, before degrading to in-process "
                             "execution (default 2)")
    parser.add_argument("--stage-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-unit wall-clock budget for warm workers; "
                             "a hung unit is killed, retried, then degraded")


def _add_pipeline_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir", default=None, metavar="PATH",
                        help="artifact cache location "
                             "(default: .repro-cache at the repo root)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the persistent artifact cache")
    parser.add_argument("--spans", default=None, metavar="FILE",
                        help="append JSONL spans to FILE (stage "
                             "resolutions, sweep points, supervised "
                             "attempts); pool workers inherit the sink; "
                             "export with `repro spans export` "
                             "(docs/OBSERVABILITY.md)")
    parser.add_argument("--profile", action="store_true",
                        help="print a per-stage pipeline profile")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TRIPS computer system reproduction (ASPLOS 2009)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the benchmark suites")

    run_p = sub.add_parser("run", help="run one benchmark on one system")
    run_p.add_argument("benchmark")
    run_p.add_argument("--system", default="cycles",
                       choices=["interp", "risc", "trips", "cycles",
                                "ideal", "core2", "p4", "p3"])
    run_p.add_argument("--variant", default="compiled",
                       choices=["compiled", "hand"])
    run_p.add_argument("--icc", action="store_true",
                       help="use the icc-class optimizer on Intel models")
    run_p.add_argument("--uarch-trace", default=None, metavar="FILE",
                       help="with --system cycles: time the run with "
                            "event tracing (not cached) and write the "
                            "compact stream to FILE (see docs/TRACE.md)")
    run_p.add_argument("--config", action="append", default=None,
                       metavar="KEY=VALUE[,KEY=VALUE]",
                       help="override TripsConfig fields (--system cycles) "
                            "or window/dispatch_cost (--system ideal); "
                            "validated like a sweep spec (docs/SWEEP.md)")
    _add_pipeline_options(run_p)

    trace_p = sub.add_parser(
        "trace", help="per-cycle microarchitectural event trace")
    trace_p.add_argument("benchmark")
    trace_p.add_argument("--variant", default="compiled",
                         choices=["compiled", "hand"])
    trace_p.add_argument("--out", default=None, metavar="FILE",
                         help="write the compact delta-encoded event "
                              "stream to FILE")
    trace_p.add_argument("--buckets", type=_trace_buckets, default=48,
                         metavar="N",
                         help="window-occupancy timeline resolution")
    _add_pipeline_options(trace_p)

    asm_p = sub.add_parser("asm", help="print compiled TRIPS assembly")
    asm_p.add_argument("benchmark")
    asm_p.add_argument("--variant", default="compiled",
                       choices=["compiled", "hand"])
    asm_p.add_argument("--block", default="",
                       help="print only the named block")
    _add_pipeline_options(asm_p)

    report_p = sub.add_parser("report",
                              help="regenerate a paper table/figure")
    report_p.add_argument("experiment", nargs="?", default="table1")
    report_p.add_argument("--list", action="store_true",
                          help="list experiment keys")
    report_p.add_argument("--jobs", type=_JOBS, default=1, metavar="N",
                          help="warm the artifact cache with N worker "
                               "processes before rendering")
    report_p.add_argument("--heatmaps", action="store_true",
                          help="append trace-derived OPN heatmaps and "
                               "occupancy timelines for the kernel suite")
    _add_robust_options(report_p)
    _add_pipeline_options(report_p)

    chaos_p = sub.add_parser(
        "chaos", help="fault-injection drill against the warm pipeline")
    chaos_p.add_argument("benchmark", nargs="?", default=None)
    chaos_p.add_argument("--faults", required=True, metavar="PLAN",
                         help="comma-separated kind:site[:times[:seconds]] "
                              "faults (kinds: corrupt-cache-entry, "
                              "kill-worker, slow-stage, flaky-stage, "
                              "kill-driver); see docs/ROBUSTNESS.md")
    chaos_p.add_argument("--sweep", default=None, metavar="SPEC",
                         dest="sweep_spec",
                         help="instead of a benchmark drill: SIGKILL a "
                              "subprocess sweep of SPEC mid-journal "
                              "(kill-driver fault), resume it, and "
                              "assert the records match an "
                              "uninterrupted sweep")
    chaos_p.add_argument("--out", default=None, metavar="DIR",
                         help="with --sweep: the drilled sweep's "
                              "output directory (default "
                              "sweeps/chaos-<spec>)")
    chaos_p.add_argument("--jobs", type=_JOBS, default=2, metavar="N",
                         help="warm worker processes (default 2)")
    chaos_p.add_argument("--seed", type=int, default=0, metavar="N",
                         help="seed for the fault plan and retry backoff")
    _add_robust_options(chaos_p)
    _add_pipeline_options(chaos_p)

    sweep_p = sub.add_parser(
        "sweep", help="run a declarative design-space sweep")
    sweep_p.add_argument("spec", nargs="?", default=None,
                         help="preset name or JSON/TOML spec file "
                              "(see docs/SWEEP.md)")
    sweep_p.add_argument("--list-presets", action="store_true",
                         help="list the built-in sweep presets")
    sweep_p.add_argument("--jobs", type=_JOBS, default=1, metavar="N",
                         help="1 (default): run every point in this "
                              "process on one shared pipeline, so each "
                              "program compiles once; N > 1: simulate "
                              "points in a supervised pool of N worker "
                              "processes")
    sweep_p.add_argument("--points", action="append", default=None,
                         metavar="AXIS=V1,V2",
                         help="restrict or add an axis to the listed "
                              "values (repeatable)")
    sweep_p.add_argument("--benchmarks", default=None, metavar="A,B",
                         help="restrict the sweep to these benchmarks")
    sweep_p.add_argument("--out", default=None, metavar="DIR",
                         help="artifact directory (default sweeps/<name>)")
    sweep_p.add_argument("--faults", default=None, metavar="PLAN",
                         help="inject a deterministic fault plan "
                              "(docs/ROBUSTNESS.md syntax)")
    sweep_p.add_argument("--seed", type=int, default=0, metavar="N",
                         help="seed for the fault plan and retry backoff")
    sweep_p.add_argument("--resume", action="store_true",
                         help="replay the journal already in --out and "
                              "execute only unfinished points (hard "
                              "error if the journal belongs to a "
                              "different spec)")
    _add_robust_options(sweep_p)
    _add_pipeline_options(sweep_p)

    frontier_p = sub.add_parser(
        "frontier", help="Pareto frontier and sensitivity of a sweep")
    frontier_p.add_argument("sweep_dir",
                            help="a sweep's --out directory")

    pack_p = sub.add_parser(
        "pack", help="attested repro packs for sweep directories")
    pack_sub = pack_p.add_subparsers(dest="pack_command", required=True)
    pack_verify = pack_sub.add_parser(
        "verify", help="check a sweep directory against its pack.json "
                       "(exit 1 on any tampered byte)")
    pack_verify.add_argument("sweep_dir", help="an attested sweep "
                                              "directory")
    pack_create = pack_sub.add_parser(
        "create", help="(re)write pack.json attesting the directory as "
                       "it stands now")
    pack_create.add_argument("sweep_dir", help="a sweep directory")

    config_p = sub.add_parser(
        "config", help="inspect the resolved microarchitecture config")
    config_sub = config_p.add_subparsers(dest="config_command",
                                         required=True)
    config_show = config_sub.add_parser(
        "show", help="print the resolved TripsConfig, the component "
                     "tables, area estimate, and digest")
    config_show.add_argument("--config", action="append", default=None,
                             metavar="KEY=VALUE[,KEY=VALUE]",
                             help="override TripsConfig fields before "
                                  "resolving (same syntax as `repro run "
                                  "--config`)")

    serve_p = sub.add_parser(
        "serve", help="run the always-warm simulation service (HTTP)")
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=8651,
                         help="bind port; 0 picks a free one "
                              "(default 8651)")
    serve_p.add_argument("--jobs", type=_JOBS, default=2, metavar="N",
                         help="run-executor threads (default 2)")
    serve_p.add_argument("--cache-dir", default=None, metavar="PATH",
                         help="artifact cache location (default: "
                              ".repro-cache at the repo root; serve "
                              "always caches)")
    serve_p.add_argument("--spool", default="serve-spool", metavar="DIR",
                         help="directory for HTTP-submitted sweep "
                              "journals/packs and the drain metrics "
                              "snapshot (default serve-spool)")
    serve_p.add_argument("--max-queue", type=_int_at_least(1), default=64,
                         metavar="N",
                         help="runs that may wait for an executor thread; "
                              "past it the service sheds with 503 "
                              "(default 64)")
    serve_p.add_argument("--rate", type=float, default=20.0, metavar="R",
                         help="per-client token-bucket refill, "
                              "requests/second; 0 disables rate "
                              "limiting (default 20)")
    serve_p.add_argument("--burst", type=int, default=40, metavar="N",
                         help="per-client token-bucket capacity "
                              "(default 40)")
    serve_p.add_argument("--faults", default=None, metavar="PLAN",
                         help="inject a chaos fault plan into request "
                              "execution (same syntax as `repro chaos "
                              "--faults`); faulted requests answer with "
                              "structured 5xx errors")
    serve_p.add_argument("--seed", type=int, default=0, metavar="N",
                         help="fault-plan probability seed (default 0)")
    serve_p.add_argument("--warm", default=None, metavar="BENCH[,BENCH]",
                         help="pre-warm these benchmarks' artifacts "
                              "before accepting requests")
    serve_p.add_argument("--drain-timeout", type=float, default=30.0,
                         metavar="SECONDS",
                         help="graceful-drain budget on SIGTERM/SIGINT "
                              "(default 30)")

    runs_p = sub.add_parser(
        "runs", help="query the persisted run index "
                     "(docs/OBSERVABILITY.md)")
    runs_common = argparse.ArgumentParser(add_help=False)
    runs_common.add_argument("--cache-dir", default=None, metavar="PATH",
                             help="cache directory holding index.db "
                                  "(default: .repro-cache at the repo "
                                  "root)")
    runs_sub = runs_p.add_subparsers(dest="runs_command", required=True)
    runs_list = runs_sub.add_parser(
        "list", parents=[runs_common],
        help="most recent indexed runs, as a table")
    runs_list.add_argument("--limit", type=_int_at_least(1), default=20,
                           metavar="N",
                           help="rows to show (default 20)")
    runs_show = runs_sub.add_parser(
        "show", parents=[runs_common], help="one indexed run, as JSON")
    runs_show.add_argument("id", type=int, help="row id (see runs list)")
    runs_query = runs_sub.add_parser(
        "query", parents=[runs_common],
        help="filtered rows as JSON lines; exits 1 when "
             "nothing matches")
    runs_query.add_argument("--kind", default=None,
                            help="run kind (run, report, sweep, perf, "
                                 "serve-run, ...)")
    runs_query.add_argument("--run-id", default=None, dest="run_id",
                            help="exact run id")
    runs_query.add_argument("--outcome", default=None,
                            help="outcome filter (ok, holes, error, ...)")
    runs_query.add_argument("--label", default=None,
                            help="substring match on the label")
    runs_query.add_argument("--since-s", type=float, default=None,
                            metavar="SECONDS", dest="since_s",
                            help="only runs started in the last SECONDS")
    runs_query.add_argument("--limit", type=_int_at_least(1), default=50,
                            metavar="N",
                            help="rows to return (default 50)")
    runs_compact = runs_sub.add_parser(
        "compact", parents=[runs_common],
        help="retention: drop old rows and vacuum")
    runs_compact.add_argument("--keep", type=_int_at_least(0), default=500,
                              metavar="N",
                              help="newest rows to keep (default 500)")
    runs_compact.add_argument("--max-age-days", type=_nonnegative_float,
                              default=None, metavar="DAYS",
                              dest="max_age_days",
                              help="also drop rows older than DAYS")

    spans_p = sub.add_parser(
        "spans", help="work with span JSONL files (--spans FILE)")
    spans_sub = spans_p.add_subparsers(dest="spans_command", required=True)
    spans_export = spans_sub.add_parser(
        "export", help="convert spans to Chrome trace-event JSON "
                       "(chrome://tracing, Perfetto)")
    spans_export.add_argument("source", help="span JSONL file")
    spans_export.add_argument("--out", default=None, metavar="FILE",
                              help="output path (default: "
                                   "<source>.trace.json)")

    perf_p = sub.add_parser(
        "perf", help="host-performance benchmark harness")
    perf_sub = perf_p.add_subparsers(dest="perf_command", required=True)

    perf_run = perf_sub.add_parser(
        "run", help="time the hot paths and write a BENCH_*.json")
    perf_run.add_argument("--quick", action="store_true",
                          help="reduced repeats (1 warmup + 3 timed) for "
                               "smoke runs and CI")
    perf_run.add_argument("--repeats", type=_int_at_least(1), default=None,
                          metavar="N",
                          help="timed repeats per benchmark "
                               "(default 7, or 3 with --quick)")
    perf_run.add_argument("--warmup", type=_int_at_least(0), default=None,
                          metavar="N",
                          help="untimed warmup iterations "
                               "(default 2, or 1 with --quick)")
    perf_run.add_argument("--only", default=None, metavar="A,B",
                          help="run only the named benchmarks "
                               "(see `perf list`)")
    perf_run.add_argument("--out", default=None, metavar="FILE",
                          help="output path (default BENCH_<YYYYMMDD>.json "
                               "at the repo root)")
    perf_run.add_argument("--profile-hotspots", type=int, default=0,
                          metavar="K", nargs="?", const=10,
                          help="also print the top-K cProfile cumulative "
                               "hotspots per benchmark (default K=10)")

    perf_cmp = perf_sub.add_parser(
        "compare", help="regression verdicts between two BENCH files, or "
                        "two directories of alternating rounds")
    perf_cmp.add_argument("base", help="baseline BENCH file "
                                       "(e.g. benchmarks/baseline.json), "
                                       "or a directory of one file per "
                                       "round")
    perf_cmp.add_argument("new", help="candidate BENCH file, or a "
                                      "directory with as many rounds")
    perf_cmp.add_argument("--warn-pct", type=float, default=10.0,
                          metavar="PCT",
                          help="median slowdown that warns (default 10)")
    perf_cmp.add_argument("--fail-pct", type=float, default=20.0,
                          metavar="PCT",
                          help="median slowdown that fails (default 20)")
    perf_cmp.add_argument("--noise-mads", type=float, default=3.0,
                          metavar="K",
                          help="deltas within K x MAD are ok regardless "
                               "of percentage (default 3)")

    perf_sub.add_parser("list", help="list the registered benchmarks")
    return parser


def _make_pipeline(args):
    """Build the command's Pipeline from the pipeline options."""
    from repro.pipeline import Pipeline, cache_enabled, default_cache_dir

    if getattr(args, "no_cache", False) or not cache_enabled():
        cache_dir = None
    else:
        cache_dir = args.cache_dir or default_cache_dir()
    return Pipeline(cache_dir=cache_dir)


#: Commands the epilogue records into the run index.  ``sweep`` (and
#: ``chaos``, which drives the sweep engine) self-record richer rows in
#: :func:`repro.explore.engine._finish`; ``runs``/``spans``/``list``
#: and friends are reads, not runs.
_INDEXED_COMMANDS = ("run", "report", "trace", "perf")


def _record_invocation(args, pipeline, code, started_wall: float,
                       wall_s: float) -> None:
    """Append this invocation's row to the persisted run index.

    Best-effort by design: a broken index must never change a
    command's exit code.  Skipped when the cache is disabled — the
    index lives with the artifact store it describes.
    """
    if args.command not in _INDEXED_COMMANDS:
        return
    try:
        from repro import runctx
        from repro.obs import (
            consume_annotations, default_index_path, record_run,
        )
        from repro.pipeline import cache_enabled

        if pipeline is not None:
            if pipeline.store is None:
                return
            index_path = default_index_path(pipeline.store.base)
        elif cache_enabled():
            index_path = default_index_path(
                getattr(args, "cache_dir", None))
        else:
            return
        notes = consume_annotations()
        label = notes.pop("label", "") or \
            getattr(args, "benchmark", "") or \
            getattr(args, "perf_command", "") or ""
        outcome = notes.pop("outcome", None) or \
            ("ok" if code == 0 else
             "error" if code is None else f"exit-{code}")
        artifacts = notes.pop("artifacts", {})
        extra = {key: notes.pop(key, "")
                 for key in ("spec_digest", "config_digest")}
        metrics = notes
        if pipeline is not None:
            metrics.setdefault(
                "computes", pipeline.telemetry.computes())
        run = runctx.current()
        record_run(run.run_id, args.command, index_path=index_path,
                   label=str(label), git_sha=run.git_sha,
                   source_digest=run.source_digest,
                   spec_digest=str(extra["spec_digest"]),
                   config_digest=str(extra["config_digest"]),
                   started=started_wall, wall_s=wall_s,
                   outcome=str(outcome), artifacts=artifacts,
                   metrics=metrics)
    except Exception:
        pass


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Mint (or adopt) the invocation's RunContext before any work: the
    # id is exported to the environment here, so every pool worker and
    # every stamped artifact of this invocation shares one run id.
    from repro import runctx
    runctx.current()
    if getattr(args, "spans", None):
        # Installed before any pipeline exists and exported to the
        # environment, so pool workers append to the same span file.
        from repro import obs
        obs.install_recorder(args.spans, export_env=True)
    handler = {"list": _cmd_list, "run": _cmd_run, "trace": _cmd_trace,
               "asm": _cmd_asm, "report": _cmd_report,
               "chaos": _cmd_chaos, "sweep": _cmd_sweep,
               "frontier": _cmd_frontier, "perf": _cmd_perf,
               "config": _cmd_config, "pack": _cmd_pack,
               "serve": _cmd_serve, "runs": _cmd_runs,
               "spans": _cmd_spans}[args.command]
    pipeline = _make_pipeline(args) \
        if args.command not in ("list", "frontier", "perf", "config",
                                "pack", "serve", "runs", "spans") \
        else None
    import time as _time
    started_wall = _time.time()
    started_clock = _time.perf_counter()
    code = None
    try:
        code = handler(args, pipeline)
        return code
    finally:
        if pipeline is not None and getattr(args, "profile", False):
            from repro.eval.report import format_table
            headers, rows = pipeline.telemetry.profile()
            print()
            print(format_table("Pipeline profile", headers, rows,
                               "mem/disk hits vs computed misses per "
                               "stage; seconds are wall-clock."))
        _record_invocation(args, pipeline, code, started_wall,
                           _time.perf_counter() - started_clock)


if __name__ == "__main__":
    sys.exit(main())
