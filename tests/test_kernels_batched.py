"""Equivalence and lifetime tests for the cycle simulator's kernel.

The kernel's timing contract is the golden table
``tests/data/cycle_goldens.json``, recorded from the original scalar
reference kernel: per (program, configuration) the return value, every
``CycleStats`` field, the OPN traffic statistics, and for six small
programs a SHA-256 of the trace-event stream.  Tier-1 checks those six
programs under all six configurations here; the CI ``goldens`` job
checks the whole table with ``tools/cycle_goldens.py``.  The
interval-based skip-ahead resource and the multi-channel link claim
are differenced claim-by-claim against set-based oracles kept in this
file, including across the pruning horizon.  Untraced plans tally the
operand traffic of their static deliveries; traced runs count every
packet in ``OperandNetwork.send``, and the two must agree.
"""

import gc
import random
import sys
import weakref
from functools import lru_cache

import pytest

from repro.robust.errors import SimulationBudgetExceeded
from repro.trace import Tracer
from repro.uarch import CycleSimulator
from repro.uarch.kernels import _issue_claim, pow2_shift_mask
from repro.uarch.opn import OperandNetwork
from repro.uarch.resources import (
    _HORIZON, _PRUNE_LIMIT, SkipAheadPool, SkipAheadResource, claim_earliest,
)
from repro.uarch.topologies import TOPOLOGIES

from tests.util import aliasing_module, load_goldens_tool


goldens = load_goldens_tool()
GOLDENS = goldens.load()
VARIANTS = [name for name in goldens.CONFIGS if name != "default"]


@lru_cache(maxsize=None)
def _lowered(program):
    return goldens.lower(program)


@lru_cache(maxsize=None)
def _entry(program, config_name):
    return goldens.entry(_lowered(program), program, config_name)


def _expect(program, config_name, *fields):
    expected = GOLDENS[program][config_name]
    actual = _entry(program, config_name)
    for field in fields or sorted(expected):
        assert actual[field] == expected[field], \
            f"{program}/{config_name}: {field} differs from the golden"


class TestGoldenEquivalence:
    @pytest.mark.parametrize("bench", goldens.TRACED)
    def test_cycle_exact_vs_scalar(self, bench):
        # The *entire* statistics record must match the scalar
        # reference's, not just cycles: any divergence in
        # moves/loads/flushes means a timing model quietly forked.
        _expect(bench, "default", "result", "stats")

    @pytest.mark.parametrize("bench", goldens.TRACED)
    def test_opn_statistics_identical(self, bench):
        _expect(bench, "default", "opn")

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_equal_under_component_variants(self, variant):
        for bench in goldens.TRACED:
            _expect(bench, variant)

    def test_golden_table_covers_suite(self):
        from repro.bench import all_benchmarks
        assert sorted(GOLDENS) == sorted(b.name for b in all_benchmarks())
        for program, entries in GOLDENS.items():
            assert sorted(entries) == sorted(goldens.CONFIGS), program


class TestTraceEquivalence:
    def test_event_streams_identical(self):
        # Skip-ahead advances time in jumps; the trace must not be able
        # to tell.  Every event (opn hops included) in the same order
        # at the same cycle with the same payload as the reference.
        for bench in goldens.TRACED:
            _expect(bench, "default", "trace_sha256")


class TestNumpyFallback:
    def test_pow2_shift_mask(self):
        shift, mask = pow2_shift_mask(64, 4)
        for address in (0, 63, 64, 100, 4096, 2**40 + 192):
            assert (address >> shift) & mask == (address // 64) % 4
        assert pow2_shift_mask(48, 4) is None
        assert pow2_shift_mask(64, 3) is None

    def test_batched_golden_without_numpy(self, monkeypatch):
        # The simulator has no numpy dependency: with the import made
        # to fail, it still reproduces the golden.
        monkeypatch.setitem(sys.modules, "numpy", None)
        sim = CycleSimulator(_lowered("rspeed"), goldens.config("default"))
        result = sim.run()
        expected = GOLDENS["rspeed"]["default"]
        assert result == expected["result"]
        assert vars(sim.stats) == expected["stats"]


class TestStoreForwarding:
    """No suite program forwards a store to a load in flight, so the
    golden table never reaches the forwarding and load-flush paths.
    The reference values below come from the value-executing kernel that
    preceded the fold."""

    EXPECTED = {
        "O0": (989, 2, "4e56e55585c1ea548c934bf85f1e90ef"
                       "845f8a808eca201feba5e99eb2dc7a6e"),
        "O2": (789, 4, "13dbff09e7f12a46d9ff67b489d87baa"
                       "415bde746566513f2fd9faf121211ee8"),
    }

    @pytest.mark.parametrize("level", sorted(EXPECTED))
    def test_forwarding_timing_and_trace(self, level):
        from repro.ir import run_module
        from repro.opt import optimize
        from repro.trace import CollectingTracer
        from repro.trips import lower_module
        from repro.uarch import run_cycles

        module = aliasing_module()
        tracer = CollectingTracer()
        # The prototype's components, pinned: the pinned numbers are the
        # default configuration's, whatever REPRO_UARCH_COMPONENTS says.
        result, sim = run_cycles(lower_module(optimize(module, level)),
                                 config=goldens.config("default"),
                                 tracer=tracer)
        assert result == run_module(module)[0]
        cycles, flushes, digest = self.EXPECTED[level]
        assert sim.stats.cycles == cycles
        assert sim.stats.load_flushes == flushes
        assert sum(event.kind == "load_forward"
                   for event in tracer.events) == 48
        assert goldens.trace_digest(tracer.events) == digest


class TestIssueWidth:
    def test_two_ready_instructions_share_a_cycle(self):
        wide = _issue_claim(SkipAheadResource().claim, 2)
        assert [wide(5), wide(5), wide(5), wide(4)] == [5, 5, 6, 4]
        narrow = _issue_claim(SkipAheadResource().claim, 1)
        assert [narrow(5), narrow(5), narrow(4)] == [5, 6, 4]

    def test_two_wide_tiles_issue_in_pairs_and_bitmnp_speeds_up(self):
        from repro.trace import CollectingTracer

        lowered = _lowered("bitmnp")
        cycles, most = {}, {}
        for width in (1, 2):
            config = goldens.config("default")
            config.et_issue_width = width
            tracer = CollectingTracer()
            sim = CycleSimulator(lowered, config, tracer=tracer)
            sim.run()
            per_slot = {}
            for event in tracer.events:
                if event.kind == "inst_issue":
                    slot = (event.cycle, event.data["tile"])
                    per_slot[slot] = per_slot.get(slot, 0) + 1
            cycles[width] = sim.stats.cycles
            most[width] = max(per_slot.values())
        assert most == {1: 1, 2: 2}
        assert cycles[2] < cycles[1] \
            == GOLDENS["bitmnp"]["default"]["stats"]["cycles"]


class TestLifetime:
    def test_finished_simulator_freed_without_gc(self):
        # The kernel keeps no reference back to its simulator, so a
        # finished run is freed by reference counting alone, not at the
        # next cyclic collection.
        lowered = _lowered("rspeed")
        enabled = gc.isenabled()
        gc.disable()
        try:
            for name in ("default", "dwmesh"):
                sim = CycleSimulator(lowered, goldens.config(name))
                sim.run()
                ref = weakref.ref(sim)
                del sim
                assert ref() is None, name
        finally:
            if enabled:
                gc.enable()


class _SetResource:
    """Set-based oracle for :class:`SkipAheadResource`: one hash-set
    entry per claimed cycle, walked cycle by cycle, pruned on the same
    trigger and horizon."""

    def __init__(self):
        self.claimed = set()
        self.floor = 0
        self.max_seen = 0

    def claim(self, cycle):
        t = max(cycle, self.floor)
        while t in self.claimed:
            t += 1
        self.claimed.add(t)
        self.max_seen = max(self.max_seen, t)
        if len(self.claimed) > _PRUNE_LIMIT:
            horizon = self.max_seen - _HORIZON
            self.claimed = {c for c in self.claimed if c >= horizon}
            self.floor = max(self.floor, horizon)
        return t

    def probe(self, cycle):
        t = max(cycle, self.floor)
        while t in self.claimed:
            t += 1
        return t


class TestSkipAheadResource:
    def test_differential_random_claims(self):
        rng = random.Random(1234)
        oracle, skip = _SetResource(), SkipAheadResource()
        cursor = 0
        for _ in range(5000):
            # A front-heavy pattern with occasional out-of-order claims
            # behind the frontier — the shape OPN links actually see.
            cursor += rng.randrange(0, 3)
            t = max(0, cursor - rng.randrange(0, 40))
            assert skip.claim(t) == oracle.claim(t)
        for t in (0, cursor // 2, cursor + 10):
            assert claim_earliest((skip,), t) == oracle.claim(t)

    def test_differential_across_prune_horizon(self):
        oracle, skip = _SetResource(), SkipAheadResource()
        # Force pruning: more claims than _PRUNE_LIMIT, spread far
        # enough apart that the horizon advances.  Results must stay
        # identical on the far side of every prune.
        rng = random.Random(99)
        t = 0
        for i in range(_PRUNE_LIMIT + 2000):
            t += rng.randrange(0, 2)
            claim_at = max(0, t - rng.randrange(0, 10))
            assert skip.claim(claim_at) == oracle.claim(claim_at)
        assert skip.floor == oracle.floor > 0
        assert skip.count == len(oracle.claimed)

    def test_busy_run_skipped_in_one_jump(self):
        skip = SkipAheadResource()
        for t in range(100):
            assert skip.claim(0) == t
        # One run [0, 100); a claim inside it lands at its end.
        assert len(skip.starts) == 1
        assert skip.claim(50) == 100

    def test_pool_is_drop_in(self):
        pool = SkipAheadPool()
        assert pool.claim("x", 7) == 7
        assert pool.claim("x", 7) == 8
        resource = pool.resource("x")
        assert isinstance(resource, SkipAheadResource)
        assert resource.claim(7) == 9
        assert pool.resource("x") is resource


def _probe_and_claim_earliest(channels, cycle):
    """The reference rule for a multi-channel link: probe every channel,
    claim the one free first, ties to the lowest channel."""
    starts = [channel.probe(cycle) for channel in channels]
    return channels[starts.index(min(starts))].claim(cycle)


class TestClaimEarliest:
    @pytest.mark.parametrize("width", [2, 3])
    def test_differential_across_prune_horizon(self, width):
        # Enough claims to prune every channel at least twice, with a
        # burst pattern that leaves the channels busy at different
        # cycles, so the choice between them is exercised.
        rng = random.Random(width)
        oracle = [_SetResource() for _ in range(width)]
        fused = [SkipAheadResource() for _ in range(width)]
        t = 0
        for _ in range(3 * width * _PRUNE_LIMIT):
            t += rng.randrange(0, 2)
            claim_at = max(0, t - rng.randrange(0, 12))
            assert claim_earliest(fused, claim_at) \
                == _probe_and_claim_earliest(oracle, claim_at)
        for mine, theirs in zip(fused, oracle):
            assert mine.floor == theirs.floor > 0
            assert mine.count == len(theirs.claimed)

    def test_ties_go_to_the_lowest_channel(self):
        channels = [SkipAheadResource() for _ in range(3)]
        channels[0].claim(5)
        # Channels 1 and 2 are both free at 5: channel 1 takes it.
        assert claim_earliest(channels, 5) == 5
        assert channels[1].claim(5) == 6
        assert channels[2].claim(5) == 5


class TestStaticAccounting:
    """Untraced plans tally their static deliveries' packets, hops and
    histogram entries and add them per activation; a traced fold sends
    every operand through ``OperandNetwork.send``, which counts it.
    Both must report the same network statistics."""

    CONFIGS = {
        "mesh": {},
        "torus": {"opn_topology": "torus"},
        "dwmesh": {"opn_topology": "dwmesh"},
        "predpred": {"predicate_prediction": True},
        "hop2": {"opn_hop_cycles": 2},
    }

    @staticmethod
    def _aliasing_lowered():
        from repro.opt import optimize
        from repro.trips import lower_module
        return lower_module(optimize(aliasing_module(), "O2"))

    @staticmethod
    def _opn(sim):
        stats = sim.opn.stats
        return (stats.packets, stats.hops, stats.hop_histogram,
                stats.queue_cycles)

    def _config(self, name):
        config = goldens.config("default")
        for field, value in self.CONFIGS[name].items():
            setattr(config, field, value)
        return config

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @pytest.mark.parametrize("program", ["rspeed", "aliasing"])
    def test_traced_and_untraced_folds_agree(self, program, name):
        lowered = self._aliasing_lowered() if program == "aliasing" \
            else _lowered(program)
        runs = {}
        for traced in (False, True):
            sim = CycleSimulator(lowered, self._config(name),
                                 tracer=Tracer() if traced else None)
            sim.run()
            runs[traced] = (vars(sim.stats), self._opn(sim))
        assert runs[False] == runs[True]
        assert runs[False][1][0].get("ET-ET", 0) > 0

    @pytest.mark.parametrize("name", ["mesh", "dwmesh"])
    def test_budget_stop_counts_only_replayed_blocks(self, name):
        lowered = _lowered("rspeed")
        full = CycleSimulator(lowered, self._config(name))
        full.run()
        stopped = {}
        for traced in (False, True):
            sim = CycleSimulator(lowered, self._config(name), max_blocks=37,
                                 tracer=Tracer() if traced else None)
            with pytest.raises(SimulationBudgetExceeded):
                sim.run()
            assert sim.stats.blocks_committed == 37
            stopped[traced] = self._opn(sim)
        assert stopped[False] == stopped[True]
        packets = stopped[False][0]
        assert sorted(packets) == sorted(stopped[True][0])
        assert 0 < sum(packets.values()) \
            < sum(full.opn.stats.packets.values())


class TestRoute:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_route_times_like_send_and_counts_only_queueing(self,
                                                           topology):
        # The same traffic through bound routes on one network and
        # through send on another: equal arrivals and queueing; only
        # send counts packets.
        rng = random.Random(7)
        shape = TOPOLOGIES[topology]()
        routed = OperandNetwork(2, topology=shape)
        sent = OperandNetwork(2, topology=shape)
        coords = [shape.et_coord(tile) for tile in range(16)] \
            + [shape.dt_coord(bank) for bank in range(4)]
        for index in range(3000):
            src, dst = rng.choice(coords), rng.choice(coords)
            ready = index // 3
            assert routed.route(src, dst)(ready) \
                == sent.send(src, dst, ready, "ET-ET")
        assert routed.stats.queue_cycles == sent.stats.queue_cycles > 0
        assert routed.stats.packets == {}


class TestBatchedSweep:
    """The sweep executors: ``jobs=1`` runs every point in process on
    one shared pipeline, ``jobs=2`` warms points in pool workers.  Both
    must produce the same records from the same cache keys."""

    @staticmethod
    def _spec(name):
        from repro.explore.spec import SweepSpec
        return SweepSpec(
            name=name, system="cycles", benchmarks=("rspeed",),
            axes=(("max_blocks_in_flight", (4, 8)),))

    def test_batch_records_equal_per_point_engine(self, tmp_path):
        from repro.explore.engine import run_sweep
        spec = self._spec("executor-equality")
        in_process = run_sweep(
            spec, cache_dir=tmp_path / "cache-a",
            out_dir=tmp_path / "out-a", jobs=1)
        pooled = run_sweep(
            spec, cache_dir=tmp_path / "cache-b",
            out_dir=tmp_path / "out-b", jobs=2)
        assert in_process.ok and pooled.ok
        assert in_process.simulated == pooled.simulated == 2

        def strip(records):
            return [{k: v for k, v in r.items() if k != "run_id"}
                    for r in records]

        assert strip(in_process.records) == strip(pooled.records)
        assert (in_process.out_dir / "points.jsonl").exists()

    def test_batch_resumes_from_shared_cache(self, tmp_path):
        from repro.explore.engine import run_sweep
        spec = self._spec("executor-warm")
        cold = run_sweep(spec, cache_dir=tmp_path / "cache",
                         out_dir=tmp_path / "out")
        warm = run_sweep(spec, cache_dir=tmp_path / "cache",
                         out_dir=tmp_path / "out")
        assert cold.simulated == 2
        assert warm.simulated == 0 and warm.reused == 2

    def test_failed_point_becomes_hole(self, tmp_path, monkeypatch):
        from repro.explore import engine
        # A point whose simulation dies must become an annotated hole,
        # never an aborted sweep (grid expansion already rejects bad
        # configs, so fail the artifact stage itself).  Pool workers
        # fork after the patch, so both executors see it.
        real = engine._point_artifact
        poisoned = "rspeed/max_blocks_in_flight=4"

        def sometimes_fails(pipeline, payload):
            if payload["label"] == poisoned:
                raise RuntimeError("injected point failure")
            return real(pipeline, payload)

        monkeypatch.setattr(engine, "_point_artifact", sometimes_fails)
        for jobs in (1, 2):
            result = engine.run_sweep(
                self._spec("executor-holes"), cache_dir=tmp_path / "cache",
                out_dir=tmp_path / f"out-{jobs}", jobs=jobs,
                sleep=lambda _seconds: None)
            statuses = sorted(r["status"] for r in result.records)
            assert statuses == ["failed", "ok"], jobs
            assert len(result.holes) == 1
            assert "injected point failure" in result.holes[0]["error"]
            assert any("hole" in note
                       for note in result.report.annotations)
            assert result.report.failed
