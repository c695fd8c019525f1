"""Self-time and residual arithmetic, and the wrappers that feed them."""

import cProfile
import copy
import sys
import types

import pytest

from e2e import layers
from e2e.layers import Span, Tracer, self_times, unattributed


def test_self_time_subtracts_direct_children():
    spans = [Span("driver", 0.0, 10.0, -1),
             Span("compile", 2.0, 5.0, 0),
             Span("pass", 3.0, 4.0, 1),
             Span("compile", 6.0, 8.0, 0)]
    assert self_times(spans) == pytest.approx(
        {"driver": 5.0, "compile": 4.0, "pass": 1.0})


def test_self_times_partition_the_root_span():
    spans = [Span("a", 0.0, 7.0, -1), Span("b", 1.0, 6.0, 0),
             Span("c", 2.0, 3.0, 1), Span("c", 4.0, 5.5, 1)]
    assert sum(self_times(spans).values()) == pytest.approx(7.0)


def test_unattributed_is_the_uncovered_share_of_the_wall():
    assert unattributed({"a": 6.0, "b": 3.0}, 10.0) == pytest.approx(0.1)
    assert unattributed({"a": 10.0}, 10.0) == 0.0
    assert unattributed({}, 0.0) == 0.0
    # The probes run outside the wall time, so they cover none of it.
    assert unattributed({"a": 9.0, layers.PROBE_LAYER: 1.0}, 10.0) == \
        pytest.approx(0.1)


@pytest.fixture
def fake_module():
    module = types.ModuleType("e2e_fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    class Model:
        @classmethod
        def build(cls, n):
            return [n]

        def run(self, n):
            return n

    module.inner, module.outer, module.Model = inner, outer, Model
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def ticking_clock():
    now = [0.0]

    def clock():
        now[0] += 1.0
        return now[0]

    return clock


def test_tracer_records_nested_spans_and_restores(fake_module):
    originals = (fake_module.inner, fake_module.outer,
                 vars(fake_module.Model)["build"])
    hooks = [("e2e_fake_layer", "outer", "fake.outer", None),
             ("e2e_fake_layer", "inner", "fake.inner",
              lambda args, result: result),
             ("e2e_fake_layer", "Model.build", "fake.build", None)]
    with Tracer(hooks, clock=ticking_clock()) as tracer:
        assert fake_module.outer(1) == 4
        assert fake_module.Model.build(3) == [3]
    spans, counts = tracer.take()
    assert [(s.layer, s.parent) for s in spans] == \
        [("fake.outer", -1), ("fake.inner", 0), ("fake.build", -1)]
    # outer spans ticks 1..4 around inner's 2..3: two ticks of its own.
    assert self_times(spans) == {"fake.outer": 2.0, "fake.inner": 1.0,
                                 "fake.build": 1.0}
    assert counts == {"fake.inner": 2}
    assert (fake_module.inner, fake_module.outer,
            vars(fake_module.Model)["build"]) == originals


def test_tracer_shadows_a_module_alias_for_its_owner_only(fake_module):
    fake_module.alias = copy
    with Tracer([("e2e_fake_layer", "alias.deepcopy", "fake.copy", None)]
                ) as tracer:
        assert fake_module.alias.deepcopy([1]) == [1]
        assert copy.deepcopy is not fake_module.alias.deepcopy
    assert [s.layer for s in tracer.take()[0]] == ["fake.copy"]
    assert fake_module.alias is copy


def test_layer_is_chosen_per_call(fake_module):
    def choose(args, kwargs):
        return "fake.big" if args[1] > 10 else "fake.small"

    with Tracer([("e2e_fake_layer", "Model.run", choose, None)]) as tracer:
        model = fake_module.Model()
        model.run(1)
        model.run(50)
    assert [s.layer for s in tracer.take()[0]] == ["fake.small", "fake.big"]


def test_every_hook_target_exists_and_is_restored():
    tracer = Tracer()
    tracer.install()
    installed = len(tracer._restore)
    tracer.uninstall()
    assert installed >= len(layers.HOOKS)
    from repro.opt import pipeline
    assert pipeline._copy is copy


def test_profile_shares_group_self_time_by_file():
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(200):
        copy.deepcopy({"a": [1, 2, {"b": (3, 4)}]})
    profile.disable()
    shares = layers.profile_shares(profile)
    assert set(shares) == set(layers.PROFILE_GROUPS)
    assert shares["prof.copy_frac"] > 0.3
    assert sum(shares.values()) <= 1.0


def test_per_event_rates_divide_self_time_by_events():
    rates = layers.per_event({"uarch.cycles": 2.0, "risc.sim": 1.0},
                             {"uarch.cycles": 4000, "risc.sim": 10 ** 6})
    assert rates["uarch.us_per_block"] == pytest.approx(500.0)
    assert rates["risc.ns_per_inst"] == pytest.approx(1000.0)
    assert rates["uarch.ideal_us_per_block"] == 0.0
