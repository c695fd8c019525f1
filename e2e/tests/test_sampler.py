"""The seeded sampler: deterministic, inside its pools, work-preserving."""

from collections import Counter

from e2e import workloads as w
from repro.uarch import TripsConfig

SEEDS = range(40)


def test_same_seed_draws_the_same_inputs():
    for seed in SEEDS:
        assert w.sample_report(seed) == w.sample_report(seed)
        assert w.sample_sweep(seed) == w.sample_sweep(seed)
    first, second = w.RequestStream(7), w.RequestStream(7)
    assert [next(first) for _ in range(500)] == \
        [next(second) for _ in range(500)]


def test_report_and_sweep_run_every_pool_program_once():
    for seed in SEEDS:
        report = w.sample_report(seed)
        assert sorted(report.simple) == sorted(w.REPORT_PROGRAMS)
        assert report.spec_int == report.simple and report.spec_fp == ()
        sweep = w.sample_sweep(seed)
        assert sorted(sweep.benchmarks) == sorted(w.SWEEP_PROGRAMS)
        assert dict(sweep.axes) == w.SWEEP_AXES


def test_seeds_reach_every_order():
    assert len({w.sample_report(s).simple for s in SEEDS}) == 2
    assert len({w.sample_sweep(s).benchmarks for s in SEEDS}) == 2


def test_stream_keys_come_from_the_serve_pools():
    stream = w.RequestStream(3)
    for _ in range(1000):
        program, config = next(stream)
        assert program in w.SERVE_PROGRAMS
        assert set(config) == set(w.SERVE_AXES)
        TripsConfig(**config).validate()


def test_streams_differ_across_seeds():
    draws = {w._key_text(*next(w.RequestStream(seed))) for seed in SEEDS}
    assert len(draws) > 10


def test_stream_introduces_a_new_key_on_a_fixed_schedule():
    stream = w.RequestStream(5)
    for block in range(1, 6):
        for _ in range(w.SERVE_BLOCK):
            next(stream)
        assert stream.introduced - w.SERVE_HOT_KEYS == \
            block * w.SERVE_BLOCK // w.SERVE_NEW_KEY_EVERY


def test_stream_popularity_follows_introduction_rank():
    stream = w.RequestStream(11)
    counts = Counter(w._key_text(*next(stream)) for _ in range(5000))
    hot = [w._key_text(*key) for key in stream.hot_keys()]
    assert counts.most_common(1)[0][0] == hot[0]
    assert counts[hot[0]] > counts[hot[-1]]


def test_stream_stops_introducing_when_every_key_is_in():
    stream = w.RequestStream(2)
    requests = (len(stream.keys) + 10) * w.SERVE_NEW_KEY_EVERY
    keys = {w._key_text(*next(stream)) for _ in range(requests)}
    assert stream.introduced == len(keys) == len(stream.keys)


def test_block_times_cover_complete_blocks_only():
    ends = [1.0, 2.0, 2.5, 4.0, 4.5, 7.0, 7.5]
    assert w.block_times(ends, 0.0, 3) == [2.5, 4.5]
    assert w.block_times(ends[:2], 0.0, 3) == []
