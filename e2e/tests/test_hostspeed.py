"""Scaling wall time to reference-host time."""

import gc
import signal
import time

import pytest

from e2e import hostspeed


def test_scale_follows_the_mean_probe_at_the_sensitivity():
    ref, power = hostspeed.REFERENCE_S, hostspeed.SENSITIVITY
    assert hostspeed.scale(ref, ref) == pytest.approx(1.0)
    # A host on which the probe takes twice as long.
    assert hostspeed.scale(2 * ref, 2 * ref) == pytest.approx(0.5 ** power)
    assert hostspeed.scale(ref, 3 * ref) == pytest.approx(0.5 ** power)


def test_probe_times_the_loop_and_restores_the_collector():
    assert gc.isenabled()
    assert 0 < hostspeed.probe() < 1.0
    assert gc.isenabled()


def test_clock_runs_at_the_rate_of_the_recent_probes(monkeypatch):
    monkeypatch.setattr(hostspeed, "SENSITIVITY", 1.0)
    ref = hostspeed.REFERENCE_S
    probes = iter([2 * ref, 4 * ref, ref])
    monkeypatch.setattr(hostspeed, "probe", lambda: next(probes))
    now = [0.0]
    clock = hostspeed.HostClock(clock=lambda: now[0])
    now[0] = 1.0
    assert clock.read() == (1.0, 1.0)      # never probed: wall time
    clock.tick()                           # rate ref / (2 ref)
    now[0] = 3.0
    assert clock.read() == pytest.approx((3.0, 2.0))
    # A probe that takes no clock time: the wall reading excludes it.
    clock.tick()                           # median(2, 4) ref: rate 1/3
    now[0] = 6.0
    assert clock.read() == pytest.approx((6.0, 3.0))
    clock.tick()                           # median(2, 4, 1) ref: rate 1/2
    now[0] = 8.0
    assert clock.read() == pytest.approx((8.0, 4.0))


def test_probe_time_is_in_neither_reading(monkeypatch):
    now = [0.0]

    def slow_probe():
        now[0] += 5.0
        return hostspeed.REFERENCE_S

    monkeypatch.setattr(hostspeed, "probe", slow_probe)
    clock = hostspeed.HostClock(clock=lambda: now[0])
    now[0] = 1.0
    clock.tick()
    now[0] += 2.0
    assert clock.read() == pytest.approx((3.0, 3.0))


def test_sampling_probes_on_a_timer_and_restores_the_handler():
    clock = hostspeed.HostClock()
    before = signal.getsignal(signal.SIGALRM)
    with clock.sampling(interval=0.01):
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            sum(range(1000))
        assert len(clock._recent) == hostspeed.RECENT
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    wall, reference = clock.read()
    assert 0.1 < wall < 0.2 and reference > 0   # less the probes
