"""The event-tracing subsystem (``repro.trace``).

Covers the four guarantees ``docs/TRACE.md`` advertises: tracing never
changes cycle counts, the disabled path is cheap, the compact format
round-trips exactly (golden file pins the bytes), and the derived views
agree with the aggregate counters the figures use.
"""

import io
import json
import time
from pathlib import Path

import pytest

from repro.ir import run_module
from repro.opt import optimize
from repro.trace import (
    EVENT_SCHEMA, CollectingTracer, NULL_TRACER, TraceEvent,
    TraceFormatError, Tracer, dump_compact, load_compact, read_compact,
    render_event_counts, render_occupancy_timeline, render_opn_heatmap,
    render_tile_histogram, summarize, write_compact,
)
from repro.trips import lower_module
from repro.uarch import run_cycles
from repro.uarch.opn import OperandNetwork, OpnStats

from tests.util import branchy_module, sum_of_squares_module

GOLDEN = Path(__file__).parent / "data" / "golden_trace.jsonl"

#: The exact event list the golden file encodes.
GOLDEN_EVENTS = [
    TraceEvent("block_fetch", 9, {"label": "main_L0", "start": 5,
                                  "chunks": 4, "miss": True}),
    TraceEvent("inst_issue", 14, {"label": "main_L0", "index": 3,
                                  "op": "ADD", "tile": 5}),
    TraceEvent("opn_hop", 15, {"klass": "ET-ET", "sx": 2, "sy": 2,
                               "dx": 1, "dy": 2, "wait": 0}),
    TraceEvent("opn_hop", 14, {"klass": "ET-DT", "sx": 1, "sy": 2,
                               "dx": 0, "dy": 2, "wait": 1}),
    TraceEvent("bank_conflict", 17, {"bank": 2, "wait": 3}),
    TraceEvent("cache_miss", 17, {"level": "l1d", "address": 4096}),
    TraceEvent("predict", 30, {"label": "main_L0", "kind": "br",
                               "exit": 1, "predicted_exit": 1,
                               "correct": True}),
    TraceEvent("block_commit", 34, {"label": "main_L0", "dispatch": 12,
                                    "done": 30, "size": 96,
                                    "useful": 61}),
    TraceEvent("flush", 34, {"label": "main_L1", "kind": "ret",
                             "penalty": 7}),
]


def _lowered(module, level="O2"):
    return lower_module(optimize(module, level))


def _traced_run(module, level="O2"):
    tracer = CollectingTracer()
    result, sim = run_cycles(_lowered(module, level), tracer=tracer)
    return result, sim, tracer


class TestDeterminism:
    """Tracing must be observational only."""

    @pytest.mark.parametrize("level", ["O2", "HAND"])
    def test_cycle_stats_identical_traced_and_untraced(self, level):
        module = sum_of_squares_module(25)
        plain_result, plain = run_cycles(_lowered(module, level))
        traced_result, traced, tracer = _traced_run(module, level)
        assert traced_result == plain_result
        assert traced.stats == plain.stats
        assert len(tracer.events) > 0

    def test_null_tracer_matches_none(self):
        module = branchy_module([6, -2, 9, -9, 3, 3, -7, 1])
        _, plain = run_cycles(_lowered(module))
        _, nulled = run_cycles(_lowered(module), tracer=NULL_TRACER)
        assert nulled.stats == plain.stats

    def test_results_still_match_interpreter(self):
        module = sum_of_squares_module(18)
        expected = run_module(module)[0]
        result, _, _ = _traced_run(module)
        assert result == expected


class TestEmission:
    def test_all_core_kinds_emitted(self):
        module = sum_of_squares_module(30)
        _, sim, tracer = _traced_run(module)
        counts = tracer.counts()
        for kind in ("block_fetch", "block_commit", "inst_issue",
                     "inst_retire", "opn_hop", "predict", "cache_miss"):
            assert counts.get(kind, 0) > 0, kind
        # Every emitted kind is in the schema with exactly its fields.
        for event in tracer.events:
            spec = EVENT_SCHEMA[event.kind]
            assert set(event.data) == set(spec.fields), event.kind

    def test_issue_retire_pair_up(self):
        module = sum_of_squares_module(20)
        _, _, tracer = _traced_run(module)
        counts = tracer.counts()
        assert counts["inst_issue"] == counts["inst_retire"]

    def test_opn_hops_match_aggregate_stats(self):
        module = sum_of_squares_module(20)
        _, sim, tracer = _traced_run(module)
        assert tracer.counts()["opn_hop"] == sum(sim.opn.stats.hops.values())

    def test_commit_events_match_block_count(self):
        module = sum_of_squares_module(20)
        _, sim, tracer = _traced_run(module)
        assert tracer.counts()["block_commit"] == sim.stats.blocks_committed


class TestCompactFormat:
    def test_round_trip_synthetic(self):
        buffer = io.StringIO()
        dump_compact(GOLDEN_EVENTS, buffer)
        buffer.seek(0)
        assert load_compact(buffer) == GOLDEN_EVENTS

    def test_golden_file_decodes_to_known_events(self):
        assert read_compact(GOLDEN) == GOLDEN_EVENTS

    def test_golden_file_bytes_pinned(self, tmp_path):
        out = tmp_path / "rewrite.jsonl"
        write_compact(read_compact(GOLDEN), out)
        assert out.read_bytes() == GOLDEN.read_bytes()

    def test_real_trace_round_trips(self, tmp_path):
        module = sum_of_squares_module(15)
        _, _, tracer = _traced_run(module)
        path = tmp_path / "trace.jsonl"
        count = write_compact(tracer.events, path)
        assert count == len(tracer.events)
        assert read_compact(path) == tracer.events

    def test_header_is_self_describing(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_compact(GOLDEN_EVENTS, path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["format"] == "repro-uarch-trace"
        assert header["events"] == len(GOLDEN_EVENTS)
        for kind in header["kinds"]:
            assert header["fields"][kind] == list(EVENT_SCHEMA[kind].fields)

    def test_unknown_kind_still_round_trips(self, tmp_path):
        events = [TraceEvent("custom", 3, {"b": 1, "a": 2})]
        path = tmp_path / "trace.jsonl"
        write_compact(events, path)
        assert read_compact(path) == events

    @pytest.mark.parametrize("text", [
        "", "not json\n", '{"format":"something-else"}\n',
        '{"format":"repro-uarch-trace","version":99}\n'])
    def test_malformed_header_raises(self, text):
        with pytest.raises(TraceFormatError):
            load_compact(io.StringIO(text))

    def test_wrong_arity_raises(self):
        lines = io.StringIO(
            '{"format":"repro-uarch-trace","version":1,'
            '"kinds":["bank_conflict"],'
            '"fields":{"bank_conflict":["bank","wait"]},"events":1}\n'
            '[0,5,2]\n')
        with pytest.raises(TraceFormatError, match="line 2"):
            load_compact(lines)


class TestOverhead:
    def test_noop_tracer_overhead_bounded(self):
        """Smoke test: the no-op emission path must stay cheap.  The
        bound is deliberately generous (CI machines vary wildly)."""
        module = sum_of_squares_module(25)
        lowered = _lowered(module)
        run_cycles(lowered)  # warm caches/JIT-free but warms allocator
        start = time.perf_counter()
        run_cycles(lowered)
        plain = time.perf_counter() - start
        start = time.perf_counter()
        run_cycles(lowered, tracer=NULL_TRACER)
        nulled = time.perf_counter() - start
        assert nulled < plain * 3 + 0.5


class TestOpnStatsRegressions:
    """Division-by-zero guards on empty runs (satellite fix)."""

    def test_average_hops_empty(self):
        assert OpnStats().average_hops() == 0.0

    def test_average_hops_unknown_class(self):
        stats = OpnStats()
        stats.record("ET-ET", 2, 0)
        assert stats.average_hops("ET-DT") == 0.0
        assert stats.average_hops("ET-ET") == 2.0

    def test_class_histogram_empty_is_all_zero(self):
        histogram = OpnStats().class_histogram("ET-ET")
        assert histogram == {h: 0.0 for h in range(6)}

    def test_class_histogram_normalizes(self):
        stats = OpnStats()
        stats.record("ET-ET", 1, 0)
        stats.record("ET-ET", 1, 0)
        stats.record("ET-ET", 3, 0)
        histogram = stats.class_histogram("ET-ET")
        assert histogram[1] == pytest.approx(2 / 3)
        assert histogram[3] == pytest.approx(1 / 3)
        assert sum(histogram.values()) == pytest.approx(1.0)

    def test_network_without_tracer_unchanged(self):
        opn = OperandNetwork()
        arrival = opn.send((1, 1), (3, 2), 0, "ET-ET")
        assert arrival >= 3  # 2 + 1 hops at 1 cycle each
        assert opn.stats.average_hops() == 3.0


class TestDerivedViews:
    def test_summarize_counts_and_links(self):
        metrics = summarize(GOLDEN_EVENTS, cycles=40, buckets=4)
        assert metrics.cycles == 40
        assert metrics.event_counts["opn_hop"] == 2
        assert metrics.total_hops == 2
        assert metrics.link_packets[(2, 2, 1, 2)] == 1
        assert metrics.link_waits[(1, 2, 0, 2)] == 1
        assert metrics.class_packets == {"ET-ET": 1, "ET-DT": 1}
        assert metrics.tile_issues == {5: 1}
        assert metrics.bank_conflict_cycles == 3
        assert metrics.flushes == 1
        assert metrics.load_forwards == 0

    def test_occupancy_integrates_block_residency(self):
        events = [TraceEvent("block_commit", 20,
                             {"label": "b", "dispatch": 0, "done": 20,
                              "size": 100, "useful": 50})]
        metrics = summarize(events, cycles=40, buckets=4)
        # Resident for the first half of the run at weight 100.
        assert metrics.occupancy == pytest.approx([100, 100, 0, 0])
        assert metrics.occupancy_peak == pytest.approx(100)

    def test_summarize_empty_stream(self):
        metrics = summarize([], cycles=0)
        assert metrics.total_hops == 0
        assert metrics.occupancy_peak == 0.0
        assert metrics.busiest_links() == []

    def test_busiest_links_ordering(self):
        module = sum_of_squares_module(25)
        _, sim, tracer = _traced_run(module)
        metrics = summarize(tracer.events, sim.stats.cycles)
        ranked = metrics.busiest_links(top=3)
        packets = [count for _, count in ranked]
        assert packets == sorted(packets, reverse=True)
        assert metrics.total_hops == sum(sim.opn.stats.hops.values())

    def test_renderers_produce_text(self):
        module = sum_of_squares_module(25)
        _, sim, tracer = _traced_run(module)
        metrics = summarize(tracer.events, sim.stats.cycles)
        heatmap = render_opn_heatmap(metrics)
        assert "OPN link utilization" in heatmap
        assert "busiest links" in heatmap
        assert "E15" in heatmap and "D3" in heatmap
        timeline = render_occupancy_timeline(metrics)
        assert "window occupancy" in timeline
        histogram = render_tile_histogram(metrics)
        assert "ET issue utilization" in histogram
        counts = render_event_counts(metrics)
        assert "opn_hop" in counts

    def test_renderers_handle_empty_metrics(self):
        metrics = summarize([], cycles=0)
        assert render_opn_heatmap(metrics)
        assert render_occupancy_timeline(metrics)
        assert render_tile_histogram(metrics)
        assert render_event_counts(metrics)


class TestPipelineStage:
    def test_trace_summary_cached(self, tmp_path):
        from repro.pipeline import Pipeline
        pipeline = Pipeline(cache_dir=str(tmp_path / "cache"))
        first = pipeline.trace_summary("crc", "compiled")
        again = pipeline.trace_summary("crc", "compiled")
        assert again is first  # memory hit
        assert first.total_hops > 0
        assert first.cycles > 0
        # A second pipeline sharing the disk store reads it back.
        other = Pipeline(cache_dir=str(tmp_path / "cache"))
        warm = other.trace_summary("crc", "compiled")
        assert warm.link_packets == first.link_packets
        assert warm.occupancy == pytest.approx(first.occupancy)

    def test_base_tracer_protocol_is_noop(self):
        assert Tracer().emit("opn_hop", 3, klass="ET-ET") is None
