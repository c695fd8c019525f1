"""Per-layer attribution of a workload's wall time, from outside the program.

The traced pass replaces the public entry points of each layer with
timing wrappers (:class:`Tracer`), so no file under ``src/`` knows it is
being measured.  Every call becomes a span ``(layer, start, end,
parent)``; a layer's *self* time is its spans' durations minus the time
their child spans cover (:func:`self_times`), so the layers partition
the traced wall time and whatever no span covers is reported as the
``unattributed`` residual.

Names follow ``<module>.<what>``: the module is the ``repro`` package
whose code the wrapped function belongs to.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import io
import json
import pstats
import time
import types
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

#: One hook: ``(module, attribute path, layer, counter)``.  ``layer`` is a
#: name or a function of the call's ``(args, kwargs)``; ``counter`` maps
#: ``(args, result)`` to the simulated events the call covered, which are
#: summed per layer.
Hook = Tuple[str, str, Union[str, Callable[..., str]],
             Optional[Callable[..., int]]]


#: The benchmark's own host-speed probe (``e2e/hostspeed.py``).  Its
#: clock leaves the probe's time out of the wall time, so it is a layer
#: of its own, outside the wall time the other layers partition.
PROBE_LAYER = "host.probe"

#: ``RiscSimulator.run`` serves two layers: ``(plain, with a trace)``.
RISC_LAYERS = ("risc.sim", "refmodels.superscalar")


def _risc_layer(args, kwargs) -> str:
    # ``RiscSimulator.run(entry, args, trace)``: a trace callback means
    # the superscalar reference model is consuming the stream.
    traced = kwargs.get("trace") if "trace" in kwargs else \
        (args[3] if len(args) > 3 else None)
    return RISC_LAYERS[traced is not None]


def _blocks_committed(args, result) -> int:
    return result[1].stats.blocks_committed


def _ideal_blocks(args, result) -> int:
    return result[1].stats.blocks


def _risc_insts(args, result) -> int:
    return args[0].stats.executed


#: Where each layer's public entry points are looked up at call time.
#: Functions are patched in the namespace their callers read them from
#: (``repro.pipeline.core`` imports the simulators by name), methods on
#: their class.
HOOKS: Tuple[Hook, ...] = (
    ("repro.bench.suites", "Benchmark.module", "bench.build", None),
    ("repro.pipeline.core", "run_module", "ir.interp", None),
    ("repro.opt.pipeline", "inline_module", "opt.inline", None),
    ("repro.opt.pipeline", "unroll_module", "opt.unroll", None),
    ("repro.opt.pipeline", "fold_module", "opt.cleanup", None),
    ("repro.opt.pipeline", "cse_module", "opt.cleanup", None),
    ("repro.opt.pipeline", "cleanup_module", "opt.cleanup", None),
    ("repro.opt.pipeline", "reduce_module", "opt.treeheight", None),
    ("repro.opt.pipeline", "flatten_module", "opt.flatten", None),
    ("repro.opt.pipeline", "verify_module", "opt.verify", None),
    ("repro.opt.pipeline", "_copy.deepcopy", "opt.copy", None),
    ("repro.trips.codegen", "split_calls", "trips.hyperblock", None),
    ("repro.trips.codegen", "canonicalize_returns", "trips.hyperblock",
     None),
    ("repro.trips.codegen", "split_oversized_blocks", "trips.hyperblock",
     None),
    ("repro.trips.codegen", "form_hyperblocks", "trips.hyperblock", None),
    ("repro.trips.codegen", "try_convert", "trips.dataflow", None),
    ("repro.trips.codegen", "convert_hyperblock", "trips.dataflow", None),
    ("repro.trips.codegen", "allocate_registers", "trips.regalloc", None),
    ("repro.trips.codegen", "insert_spill_code", "trips.regalloc", None),
    ("repro.trips.codegen", "place_block", "trips.placement", None),
    ("repro.pipeline.core", "lower_trips", "trips.codegen", None),
    ("repro.pipeline.core", "lower_risc", "risc.codegen", None),
    ("repro.pipeline.core", "run_trips", "trips.functional",
     _blocks_committed),
    ("repro.risc.simulator", "RiscSimulator.run", _risc_layer, _risc_insts),
    ("repro.pipeline.core", "run_ideal", "uarch.ideal", _ideal_blocks),
    ("repro.pipeline.core", "run_cycles", "uarch.cycles", _blocks_committed),
    ("repro.pipeline.store", "ArtifactStore.load", "pipeline.load", None),
    ("repro.pipeline.store", "ArtifactStore.store", "pipeline.store", None),
    ("repro.eval.experiments", "run_experiment", "eval.drivers", None),
    ("repro.explore.engine", "run_sweep", "explore.engine", None),
    ("repro.explore.journal", "SweepJournal.create", "explore.journal",
     None),
    ("repro.explore.journal", "SweepJournal.claim", "explore.journal",
     None),
    ("repro.explore.journal", "SweepJournal.outcome", "explore.journal",
     None),
    ("repro.explore.journal", "SweepJournal.close", "explore.journal",
     None),
    ("repro.explore.engine", "write_artifacts", "explore.finish", None),
    ("repro.explore.engine", "write_pack", "explore.finish", None),
    ("repro.obs.runindex", "record_run", "explore.finish", None),
    ("e2e.hostspeed", "HostClock.tick", PROBE_LAYER, None),
)


def layer_names() -> List[str]:
    """Every layer a hook can attribute time to, in table order."""
    names: List[str] = []
    for _module, _attr, layer, _counter in HOOKS:
        for name in (layer,) if isinstance(layer, str) else RISC_LAYERS:
            if name not in names:
                names.append(name)
    return names


@dataclass
class Span:
    """One timed call; ``parent`` indexes the enclosing span or is -1."""

    layer: str
    start: float
    end: float
    parent: int


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Seconds per layer spent in its own spans and not in a child."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    totals: Dict[str, float] = {}
    for index, span in enumerate(spans):
        own = span.end - span.start - child_time[index]
        totals[span.layer] = totals.get(span.layer, 0.0) + own
    return totals


def unattributed(layer_seconds: Dict[str, float], wall: float) -> float:
    """Share of ``wall`` not covered by any layer's self time (the probe
    layer is left out: ``wall`` excludes the probes)."""
    if wall <= 0:
        return 0.0
    covered = sum(seconds for layer, seconds in layer_seconds.items()
                  if layer != PROBE_LAYER)
    return max(0.0, 1.0 - covered / wall)


class Tracer:
    """Installs the :data:`HOOKS` wrappers and records their spans.

    Spans and event counts stay in memory until :meth:`take` hands them
    over.  The workloads this wraps run on one thread, so a single
    parent stack suffices.
    """

    def __init__(self, hooks: Iterable[Hook] = HOOKS,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.hooks = tuple(hooks)
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        for module_name, path, layer, counter in self.hooks:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for name in parents:
                parent = owner
                owner = getattr(owner, name)
                if isinstance(owner, types.ModuleType):
                    # A module alias (``_copy``): shadow it with a
                    # namespace so only this caller sees the wrapper.
                    shadow = types.SimpleNamespace(**vars(owner))
                    self._restore.append((parent, name, owner))
                    setattr(parent, name, shadow)
                    owner = shadow
            raw = vars(owner)[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, self._wrap(raw, layer, counter))
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, raw, layer, counter):
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(raw.__func__, layer, counter))
        tracer = self

        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            name = layer if isinstance(layer, str) else layer(args, kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, tracer.clock(), 0.0, parent)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = raw(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                tracer._stack.pop()
            if counter is not None:
                tracer.counts[name] = tracer.counts.get(name, 0) \
                    + counter(args, result)
            return result

        return wrapper

    def take(self) -> Tuple[List[Span], Dict[str, int]]:
        """Hand over (and forget) the spans and counts recorded so far."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], {}
        return spans, counts


# -- host time per simulated event -------------------------------------------

def per_event(layer_seconds: Dict[str, float], counts: Dict[str, int]
              ) -> Dict[str, float]:
    """Host time per simulated block or instruction (0 where none ran)."""

    def rate(layer: str, scale: float) -> float:
        events = counts.get(layer, 0)
        return layer_seconds.get(layer, 0.0) * scale / events \
            if events else 0.0

    return {
        "uarch.us_per_block": rate("uarch.cycles", 1e6),
        "uarch.ideal_us_per_block": rate("uarch.ideal", 1e6),
        "trips.functional_us_per_block": rate("trips.functional", 1e6),
        "risc.ns_per_inst": rate("risc.sim", 1e9),
        "refmodels.ns_per_inst": rate("refmodels.superscalar", 1e9),
    }


# -- profile shares ----------------------------------------------------------

#: Profile groups: metric name -> predicate over ``(file, function)``.
PROFILE_GROUPS: Dict[str, Callable[[str, str], bool]] = {
    "prof.uarch_kernels_frac": lambda f, _n: f.endswith("uarch/kernels.py"),
    "prof.uarch_resources_frac":
        lambda f, _n: f.endswith("uarch/resources.py"),
    "prof.uarch_opn_frac": lambda f, _n: f.endswith(("uarch/opn.py",
                                                     "uarch/topologies.py")),
    "prof.uarch_caches_frac": lambda f, _n: f.endswith("uarch/caches.py"),
    "prof.uarch_core_frac": lambda f, _n: f.endswith("uarch/core.py"),
    "prof.uarch_predictor_frac":
        lambda f, _n: f.endswith("uarch/predictor.py"),
    "prof.copy_frac": lambda f, _n: f.endswith("/copy.py"),
    "prof.serialize_frac": lambda f, n: (
        "/json/" in f or f.endswith("/pickle.py")
        or (f == "~" and ("pickle" in n or "_json" in n))),
}


def profile_shares(profile: cProfile.Profile) -> Dict[str, float]:
    """Self time grouped by source file, as shares of all self time
    outside the benchmark's host-speed probe."""
    stats = pstats.Stats(profile, stream=io.StringIO()).stats
    total = 0.0
    shares = dict.fromkeys(PROFILE_GROUPS, 0.0)
    for (filename, _line, function), row in stats.items():
        if filename.endswith("e2e/hostspeed.py"):
            continue
        tottime = row[2]
        total += tottime
        for name, matches in PROFILE_GROUPS.items():
            if matches(filename, function):
                shares[name] += tottime
    return {name: value / total if total else 0.0
            for name, value in shares.items()}


# -- Chrome trace ------------------------------------------------------------

def chrome_events(spans: Sequence[Span], origin: float, pid: int,
                  epoch: float) -> List[Dict[str, Any]]:
    """Wrapper spans as Chrome complete events on one track.

    ``origin`` is the clock reading at epoch time ``epoch``, so these
    events line up with the epoch-stamped ``repro.obs`` stage spans.
    """
    return [{"name": span.layer, "cat": "layer", "ph": "X",
             "ts": round((epoch + span.start - origin) * 1e6, 1),
             "dur": round((span.end - span.start) * 1e6, 1),
             "pid": pid, "tid": 0}
            for span in spans]


def write_chrome_trace(path: Path, layer_events: List[Dict[str, Any]],
                       obs_jsonl: Optional[Path]) -> None:
    """One Perfetto-loadable file: the layer spans plus, when given, the
    stage spans the ``repro.obs`` recorder wrote as JSONL."""
    events = list(layer_events)
    if obs_jsonl is not None and obs_jsonl.exists():
        from repro.obs import export_chrome

        converted = obs_jsonl.with_suffix(".chrome.json")
        export_chrome(obs_jsonl, converted)
        events += json.loads(converted.read_text())["traceEvents"]
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}) + "\n")
