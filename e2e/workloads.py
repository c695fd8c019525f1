"""The four workloads and the seeded sampler that draws their inputs.

Every workload drives a public entry point of the toolchain the way a
user does: the figure drivers behind ``repro report``, ``run_sweep``
behind ``repro sweep``, and ``POST /v1/run`` against ``repro serve``.
A workload does its work in *passes* (a figure set, a sweep, a block of
requests) and records each pass's wall time and each operation's
latency and outcome in a :class:`Measurement`.  The in-process
workloads time their work with the host-speed clock and record it in
reference-host seconds (``e2e/hostspeed.py``).

The seed is the only input, and it never changes how much work a pass
is: it orders the programs of the report and sweep passes and draws the
serve request stream.  The programs are the cheapest of the suite, so a
run holds enough passes for a median that host noise does not move;
``e2e/README.md`` gives the measured costs behind the choice.
"""

from __future__ import annotations

import bisect
import itertools
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.eval import Runner, experiments
from repro.explore import engine
from repro.explore.spec import SweepSpec
from repro.pipeline import SIMULATION_STAGES, Telemetry
from repro.pipeline.keys import stable_digest
from repro.serve import ServeClient

from e2e import hostspeed, procs

#: The figure drivers a report pass renders, in ``repro report`` order.
REPORT_KEYS = ("fig6", "fig7", "fig9", "fig10", "fig11", "fig12",
               "table3", "sec44")

#: The programs of a report pass: the two cheapest full cold artifact
#: sets of the suite (0.85 s and 1.25 s).  They fill the simple-benchmark
#: and the SPEC slots of the drivers alike, so every driver renders rows
#: and every simulator runs; the cheapest SPEC proxy costs 2.4 s alone.
REPORT_PROGRAMS = ("rspeed", "bitmnp")

#: The sweep grid: the same two programs over six machine configurations.
SWEEP_PROGRAMS = ("rspeed", "bitmnp")
SWEEP_AXES: Dict[str, Tuple[Any, ...]] = {
    "max_blocks_in_flight": (2, 8),
    "opn_topology": ("mesh", "torus", "dwmesh"),
}

#: Serve keys: rspeed, whose cycle run takes about 0.13 s, under 384
#: machine configurations, so new keys never run out in a run.  One
#: program keeps the cost of a cold request steady.
SERVE_PROGRAMS = ("rspeed",)
SERVE_AXES: Dict[str, Tuple[Any, ...]] = {
    "max_blocks_in_flight": tuple(range(1, 9)),
    "predictor_kind": ("tournament", "gshare"),
    "opn_topology": ("mesh", "torus", "dwmesh"),
    "memory_kind": ("trips", "perfect-l1"),
    "et_issue_width": (1, 2),
    "opn_hop_cycles": (1, 2),
}
#: Keys simulated before the window opens: the popular working set.
SERVE_HOT_KEYS = 12
#: Every this-many-th request names a key nobody asked for yet (a cold
#: simulation): 2.5% of requests, on a fixed schedule, so every block of
#: requests carries the same cold work and the 99th percentile falls
#: inside the cold requests.
SERVE_NEW_KEY_EVERY = 40
#: Zipf exponent of popularity over the keys introduced so far.
SERVE_ZIPF_S = 1.1
#: Closed-loop clients, one connection each (the host has two cores).
SERVE_CLIENTS = 2
#: Requests per serve pass (``wall_s`` of serve is a block's wall time):
#: five new-key periods.
SERVE_BLOCK = 200

#: Per-layer metrics a workload reports from its own counters rather
#: than from the layer wrappers; a workload reports 0 for those of
#: another workload.
EXTRA_METRICS = (
    "pipeline.hit_frac", "explore.lowerings_per_point",
    "serve.warm_p50_ms", "serve.cold_p50_ms", "serve.cold_frac",
    "serve.dedup_frac", "serve.batch_mean", "serve.handler_mean_ms",
    "serve.transport_mean_ms",
)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _shuffled(workload: str, seed: int, items: Sequence[str]
              ) -> Tuple[str, ...]:
    order = list(items)
    _rng(workload, seed).shuffle(order)
    return tuple(order)


# -- measurement -------------------------------------------------------------

@dataclass
class Measurement:
    """Time per pass and latency and outcome per operation.

    ``pass_s`` and ``op_ms`` are in reference-host time for the
    in-process workloads and in wall time for serve; ``raw_pass_s`` is
    always wall time.  ``op_kind`` names what each operation was — a
    table or a sweep point repeats every pass, a serve request is its
    own kind — so latency percentiles can be taken over operations
    rather than repetitions.
    """

    pass_s: List[float] = field(default_factory=list)
    raw_pass_s: List[float] = field(default_factory=list)
    op_kind: List[str] = field(default_factory=list)
    op_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def op(self, kind: str, ms: float, problem: str = "") -> None:
        """Record one operation; a non-empty ``problem`` fails it."""
        self.op_kind.append(kind)
        self.op_ms.append(ms)
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.errors) < 8:
                self.errors.append(problem)

    def merge(self, other: "Measurement") -> None:
        self.pass_s += other.pass_s
        self.raw_pass_s += other.raw_pass_s
        self.op_kind += other.op_kind
        self.op_ms += other.op_ms
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors[:max(0, 8 - len(self.errors))]


class Workload:
    """Base: repeat :meth:`one_pass` until the window has elapsed."""

    name = ""
    #: Runs inside this process, so the layer wrappers can see it.
    in_process = True

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.telemetry = Telemetry(register=False)
        self.clock = hostspeed.HostClock()
        self.sim_digest = ""
        self._passes = 0

    def describe(self) -> Dict[str, Any]:
        """The drawn inputs, for the result record."""
        return {}

    def prepare(self) -> None:
        """Set-up no metric counts (building a store to read warm)."""

    def one_pass(self, m: Measurement) -> None:
        raise NotImplementedError

    def run_window(self, seconds: float, m: Measurement) -> None:
        started = time.perf_counter()
        with self.clock.sampling():
            while True:
                self.one_pass(m)
                self._passes += 1
                if time.perf_counter() - started >= seconds:
                    return

    def extras(self) -> Dict[str, float]:
        counters = self.telemetry.stages.values()
        requests = sum(c.requests for c in counters)
        hits = sum(c.memory_hits + c.disk_hits for c in counters)
        values = dict.fromkeys(EXTRA_METRICS, 0.0)
        values["pipeline.hit_frac"] = hits / requests if requests else 0.0
        return values

    def peak_rss_mb(self) -> float:
        return procs.peak_rss_mb()

    def close(self) -> None:
        """Stop what :meth:`prepare` started."""


def artifact_digest(runner: Runner) -> str:
    """Hash of every simulated statistic the runner's pipeline holds.

    Keyed by stage and value only: artifact digests fold in the source
    hash, and a change that keeps every statistic must keep this hash.
    """
    memory = runner.pipeline._memory
    parts = sorted(f"{stage}:{stable_digest(value)}"
                   for (stage, _digest), value in memory.items()
                   if stage in SIMULATION_STAGES)
    return stable_digest(parts)


# -- report-cold / report-warm -----------------------------------------------

@dataclass(frozen=True)
class ReportSample:
    simple: Tuple[str, ...]
    spec_int: Tuple[str, ...]
    spec_fp: Tuple[str, ...] = ()

    @property
    def spec(self) -> Tuple[str, ...]:
        return self.spec_int + self.spec_fp

    def driver_args(self, key: str) -> Dict[str, Any]:
        """Keyword arguments restricting one driver to the sample."""
        if key in ("fig6", "fig9", "fig10"):
            return {"benchmarks": self.simple, "spec": self.spec}
        if key in ("fig11", "sec44"):
            return {"benchmarks": self.simple}
        if key == "fig12":
            return {"spec_int": self.spec_int, "spec_fp": self.spec_fp}
        return {"benchmarks": self.spec}          # fig7, table3


def sample_report(seed: int) -> ReportSample:
    programs = _shuffled("report", seed, REPORT_PROGRAMS)
    return ReportSample(simple=programs, spec_int=programs)


class ReportCold(Workload):
    """Regenerate the figure set from an empty store, once per pass."""

    name = "report-cold"

    def __init__(self, seed: int, work: Path,
                 sample: Optional[ReportSample] = None) -> None:
        super().__init__(seed, work)
        self.sample = sample or sample_report(seed)
        self.reference: Optional[Dict[str, Optional[str]]] = None

    def describe(self) -> Dict[str, Any]:
        return {"simple": list(self.sample.simple),
                "spec_int": list(self.sample.spec_int),
                "spec_fp": list(self.sample.spec_fp)}

    def render(self, store: Path
               ) -> Tuple[Runner, Tuple[float, float],
                          List[Tuple[str, Optional[str], float, str, int]]]:
        """One pass: ``(runner, (wall s, reference s), ops)`` where each
        op is ``(key, table or None, reference ms, error, simulation
        computes)``."""
        clock = self.clock
        started = clock.read()
        runner = Runner(cache_dir=store)
        telemetry = runner.pipeline.telemetry
        ops = []
        for key in REPORT_KEYS:
            before = telemetry.computes(SIMULATION_STAGES)
            op_started = clock.read()[1]
            try:
                table: Optional[str] = experiments.run_experiment(
                    key, runner, **self.sample.driver_args(key))
                error = ""
            except Exception as exc:  # counted, never fatal
                table, error = None, f"{key}: {type(exc).__name__}: {exc}"
            ops.append((key, table, (clock.read()[1] - op_started)
                        * 1000.0, error,
                        telemetry.computes(SIMULATION_STAGES) - before))
        ended = clock.read()
        return runner, (ended[0] - started[0], ended[1] - started[1]), ops

    def one_pass(self, m: Measurement) -> None:
        store = self.work / f"cold-{self._passes}"
        runner, (wall, reference), ops = self.render(store)
        tables = {key: table for key, table, *_ in ops}
        if self.reference is None:
            self.reference = tables
            self.sim_digest = artifact_digest(runner)
        for key, table, ms, error, _computes in ops:
            if not error and table != self.reference[key]:
                error = f"{key}: table differs from the first pass"
            m.op(key, ms, error)
        m.pass_s.append(reference)
        m.raw_pass_s.append(wall)
        self.telemetry.merge(runner.pipeline.telemetry)
        shutil.rmtree(store, ignore_errors=True)


class ReportWarm(ReportCold):
    """Re-render the same figure set from the store a cold pass left.

    Every pass uses a fresh :class:`Runner`, as a new ``repro report``
    process would, so it pays store loads and compiler re-runs but no
    simulation.
    """

    name = "report-warm"

    def prepare(self) -> None:
        self.store = self.work / "warm-store"
        runner, _times, ops = self.render(self.store)
        self.reference = {key: table for key, table, *_ in ops}
        self.sim_digest = artifact_digest(runner)

    def one_pass(self, m: Measurement) -> None:
        runner, (wall, reference), ops = self.render(self.store)
        for key, table, ms, error, computes in ops:
            if not error and table != self.reference[key]:
                error = f"{key}: warm table differs from the cold table"
            elif not error and computes:
                error = f"{key}: {computes} simulation(s) on a warm store"
            m.op(key, ms, error)
        m.pass_s.append(reference)
        m.raw_pass_s.append(wall)
        self.telemetry.merge(runner.pipeline.telemetry)


# -- sweep -------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSample:
    benchmarks: Tuple[str, ...]
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...]

    def spec(self) -> SweepSpec:
        return SweepSpec.from_dict({
            "name": "e2e-sweep", "benchmarks": list(self.benchmarks),
            "axes": {name: list(values) for name, values in self.axes}})


def sample_sweep(seed: int) -> SweepSample:
    # Points run program by program, so the order moves no point's
    # cost: each program's first point pays its interpreter run.
    return SweepSample(benchmarks=_shuffled("sweep", seed, SWEEP_PROGRAMS),
                       axes=tuple(SWEEP_AXES.items()))


class Sweep(Workload):
    """One cold ``run_sweep`` (the CLI's default engine) per pass."""

    name = "sweep"

    def __init__(self, seed: int, work: Path,
                 sample: Optional[SweepSample] = None) -> None:
        super().__init__(seed, work)
        self.sample = sample or sample_sweep(seed)
        self.reference: Optional[Dict[str, Any]] = None
        self.points = 0

    def describe(self) -> Dict[str, Any]:
        return {"benchmarks": list(self.sample.benchmarks),
                "axes": {name: list(values)
                         for name, values in self.sample.axes}}

    def one_pass(self, m: Measurement) -> None:
        base = self.work / f"sweep-{self._passes}"
        clock = self.clock
        marks = [clock.read()]
        telemetry = Telemetry(register=False)
        result = engine.run_sweep(
            self.sample.spec(), base / "cache", base / "out", jobs=1,
            telemetry=telemetry,
            progress=lambda _label: marks.append(clock.read()))
        ended = clock.read()
        m.pass_s.append(ended[1] - marks[0][1])
        m.raw_pass_s.append(ended[0] - marks[0][0])
        records = {record["label"]: record for record in result.records}
        if self.reference is None:
            self.reference = {label: record["metrics"]
                              for label, record in records.items()}
            self.sim_digest = stable_digest(sorted(self.reference.items()))
        for ms, (label, record) in zip(
                ((b[1] - a[1]) * 1000.0 for a, b in zip(marks, marks[1:])),
                records.items()):
            problem = ""
            if record["status"] != "ok":
                problem = f"{label}: hole: {record['error']}"
            elif record["metrics"] != self.reference.get(label):
                problem = f"{label}: metrics differ from the first pass"
            m.op(label, ms, problem)
        self.points += len(records)
        self.telemetry.merge(telemetry)
        shutil.rmtree(base, ignore_errors=True)

    def extras(self) -> Dict[str, float]:
        values = super().extras()
        lowerings = self.telemetry.counters("trips-lowering").computes
        values["explore.lowerings_per_point"] = \
            lowerings / self.points if self.points else 0.0
        return values


# -- serve -------------------------------------------------------------------

class RequestStream:
    """The seeded, thread-safe stream of ``/v1/run`` keys.

    Keys are (program, configuration) pairs in a seed-shuffled order.
    The first ``SERVE_HOT_KEYS`` are introduced before the window.  Then
    every ``SERVE_NEW_KEY_EVERY``-th request introduces the next key (a
    cold simulation; once every key is in, none) and the others pick an
    introduced key with Zipf popularity by introduction rank.  The
    stream is a pure function of the seed.
    """

    def __init__(self, seed: int) -> None:
        self._rng = _rng("serve", seed)
        names = list(SERVE_AXES)
        self.keys: List[Tuple[str, Dict[str, Any]]] = [
            (program, dict(zip(names, values)))
            for program in SERVE_PROGRAMS
            for values in itertools.product(*SERVE_AXES.values())]
        self._rng.shuffle(self.keys)
        self.introduced = 0
        self.requests = 0
        self._cumulative: List[float] = []
        self._lock = threading.Lock()
        for _ in range(SERVE_HOT_KEYS):
            self._introduce()

    def _introduce(self) -> Tuple[str, Dict[str, Any]]:
        weight = (self.introduced + 1) ** -SERVE_ZIPF_S
        self._cumulative.append(
            (self._cumulative[-1] if self._cumulative else 0.0) + weight)
        self.introduced += 1
        return self.keys[self.introduced - 1]

    def hot_keys(self) -> List[Tuple[str, Dict[str, Any]]]:
        return self.keys[:SERVE_HOT_KEYS]

    def __next__(self) -> Tuple[str, Dict[str, Any]]:
        with self._lock:
            self.requests += 1
            if self.requests % SERVE_NEW_KEY_EVERY == 0 \
                    and self.introduced < len(self.keys):
                return self._introduce()
            point = self._rng.random() * self._cumulative[-1]
            return self.keys[bisect.bisect_right(self._cumulative, point)]


def _key_text(program: str, config: Dict[str, Any]) -> str:
    return program + "/" + ",".join(f"{k}={config[k]}"
                                    for k in sorted(config))


def block_times(ends: Sequence[float], started: float,
                block: int) -> List[float]:
    """Wall time of each complete block of ``block`` completions."""
    ends = sorted(ends)
    times = []
    previous = started
    for index in range(block - 1, len(ends), block):
        times.append(ends[index] - previous)
        previous = ends[index]
    return times


class Serve(Workload):
    """Two closed-loop clients against a ``repro serve`` process."""

    name = "serve"
    in_process = False

    def __init__(self, seed: int, work: Path,
                 spans: Optional[Path] = None) -> None:
        super().__init__(seed, work)
        self.stream = RequestStream(seed)
        #: When set, the server records ``repro.obs`` spans to this file.
        self.spans = spans
        self.proc = None
        self.first: Dict[str, Any] = {}
        self._lock = threading.Lock()
        self._request_ids = itertools.count()
        #: ``(ms, warm, deduped)`` of every answered request.
        self.answered: List[Tuple[float, bool, bool]] = []
        #: Share of client-observed request time outside the server's
        #: handler (transport and client), set by :meth:`extras`.
        self.unattributed_frac = 0.0

    def describe(self) -> Dict[str, Any]:
        return {"programs": list(SERVE_PROGRAMS),
                "hot_keys": [_key_text(*key)
                             for key in self.stream.hot_keys()]}

    def twin(self, spans: Path) -> "Serve":
        """The same workload against a fresh server recording spans."""
        return Serve(self.seed, self.work, spans)

    def prepare(self) -> None:
        extra = {"REPRO_SPANS": str(self.spans)} if self.spans else None
        tag = "traced" if self.spans else "plain"
        self.proc, url, _seconds = procs.spawn_server(
            self.work, self.work / f"serve-cache-{tag}",
            self.work / f"serve-spool-{tag}", extra_env=extra)
        self.client = ServeClient(url, timeout=60.0)
        hot = []
        for program, config in self.stream.hot_keys():
            response = self.client.run(program, config)
            self.first[response["digest"]] = response["metrics"]
            hot.append((_key_text(program, config), response["metrics"]))
        self.sim_digest = stable_digest(sorted(hot))
        self.before = self.client.metrics()

    def _request(self, m: Measurement, ends: List[float]) -> None:
        program, config = next(self.stream)
        started = time.perf_counter()
        response, problem = None, ""
        try:
            response = self.client.run(program, config)
        except Exception as exc:  # non-2xx or transport: a failed request
            problem = f"{_key_text(program, config)}: " \
                      f"{type(exc).__name__}: {exc}"
        ended = time.perf_counter()
        ms = (ended - started) * 1000.0
        with self._lock:
            if response is not None:
                metrics = self.first.setdefault(response["digest"],
                                                response["metrics"])
                if metrics != response["metrics"]:
                    problem = f"{_key_text(program, config)}: metrics " \
                              f"differ from the first response"
                self.answered.append((ms, response["warm"],
                                      response["deduped"]))
            m.op(f"request-{next(self._request_ids)}", ms, problem)
            ends.append(ended)

    def run_window(self, seconds: float, m: Measurement) -> None:
        ends: List[float] = []
        started = time.perf_counter()
        deadline = started + seconds

        def client() -> None:
            while time.perf_counter() < deadline:
                self._request(m, ends)

        threads = [threading.Thread(target=client, name=f"e2e-client-{i}")
                   for i in range(SERVE_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # The server's time is mostly waiting (the batch window, HTTP)
        # in another process, which no probe here scales: wall time.
        blocks = block_times(ends, started, SERVE_BLOCK)
        m.pass_s += blocks
        m.raw_pass_s += blocks

    def extras(self) -> Dict[str, float]:
        after = self.client.metrics()
        values = dict.fromkeys(EXTRA_METRICS, 0.0)

        def delta(section: str, key: str, field_name: str = "") -> float:
            new, old = after[section].get(key, 0), \
                self.before[section].get(key, 0)
            if field_name:
                new = new.get(field_name, 0) if new else 0
                old = old.get(field_name, 0) if old else 0
            return float(new - old)

        ok = self.answered
        warm_ms = [ms for ms, warm, _d in ok if warm]
        cold_ms = [ms for ms, warm, _d in ok if not warm]
        client_ms = sum(ms for ms, _w, _d in ok)
        handler_ms = delta("endpoints", "run", "sum_ms")
        handled = delta("endpoints", "run", "count")
        requests = sum(delta("cache", stage, "requests")
                       for stage in after.get("cache", {}))
        hits = sum(delta("cache", stage, "memory_hits")
                   + delta("cache", stage, "disk_hits")
                   for stage in after.get("cache", {}))
        batches = delta("counters", "batch.batches")
        values.update({
            "pipeline.hit_frac": hits / requests if requests else 0.0,
            "serve.warm_p50_ms": statistics.median(warm_ms)
            if warm_ms else 0.0,
            "serve.cold_p50_ms": statistics.median(cold_ms)
            if cold_ms else 0.0,
            "serve.cold_frac": len(cold_ms) / len(ok) if ok else 0.0,
            "serve.dedup_frac": sum(1 for *_x, d in ok if d) / len(ok)
            if ok else 0.0,
            "serve.batch_mean": delta("counters", "batch.requests")
            / batches if batches else 0.0,
            "serve.handler_mean_ms": handler_ms / handled
            if handled else 0.0,
            "serve.transport_mean_ms": (client_ms - handler_ms) / len(ok)
            if ok else 0.0,
        })
        self.unattributed_frac = max(0.0, 1.0 - handler_ms / client_ms) \
            if client_ms else 0.0
        return values

    def peak_rss_mb(self) -> float:
        return procs.peak_rss_mb(self.proc.pid)

    def close(self) -> None:
        if self.proc is not None:
            procs.stop_process(self.proc)
            self.proc = None


WORKLOADS = {cls.name: cls for cls in (ReportCold, ReportWarm, Sweep, Serve)}
