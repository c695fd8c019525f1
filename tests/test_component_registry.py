"""The component layer: the name -> class tables, topology variants, the
area model, config threading, and differential goldens proving the
default components reproduce the seed simulator bit-for-bit."""

from dataclasses import fields

import pytest

from repro.bench import get
from repro.opt import optimize
from repro.pipeline.keys import config_digest
from repro.trips import lower_module
from repro.uarch import ConfigError, CycleSimulator, TripsConfig, run_cycles
from repro.uarch.area import estimate_area
from repro.uarch.caches import MEMORIES
from repro.uarch.config import component_tables
from repro.uarch.opn import OperandNetwork
from repro.uarch.predictor import PREDICTORS
from repro.uarch.topologies import (
    DoubleWidthMeshTopology, MeshTopology, TOPOLOGIES, TorusTopology,
)

from tests.util import aliasing_module, load_goldens_tool

#: Explicit component selections — NOT the dataclass defaults — so these
#: tests stay green when CI runs the suite under a REPRO_UARCH_COMPONENTS
#: override (the defaults are env-sensitive by design).
DEFAULT_COMPONENTS = dict(opn_topology="mesh", predictor_kind="tournament",
                          memory_kind="trips")

#: (cycles, useful instructions) of the seed simulator, O2 + hyperblocks.
GOLDENS = {
    "vadd": (21628, 35358),
    "crc": (15322, 12831),
    "rspeed": (6978, 7229),
}


def _lowered(name):
    return lower_module(optimize(get(name).module(), "O2"),
                        formation="hyper")


class TestRegistry:
    def test_unknown_name_suggests_close_match(self):
        with pytest.raises(ConfigError) as excinfo:
            TripsConfig(**{**DEFAULT_COMPONENTS,
                           "opn_topology": "taurus"}).validate()
        message = str(excinfo.value)
        assert "did you mean 'torus'" in message
        assert "mesh" in message

    def test_builtin_variants_registered(self):
        assert set(TOPOLOGIES) == {"mesh", "torus", "dwmesh"}
        assert set(PREDICTORS) == {"tournament", "gshare"}
        assert set(MEMORIES) == {"trips", "perfect-l1"}
        assert component_tables() == {"opn_topology": TOPOLOGIES,
                                      "predictor_kind": PREDICTORS,
                                      "memory_kind": MEMORIES}
        for name, cls in TOPOLOGIES.items():
            assert cls.name == name

    def test_validate_selection(self):
        for field, table in component_tables().items():
            for name in table:
                TripsConfig(**{**DEFAULT_COMPONENTS, field: name}).validate()
        with pytest.raises(ConfigError, match="hypercube"):
            TripsConfig(**{**DEFAULT_COMPONENTS,
                           "opn_topology": "hypercube"}).validate()


class TestConfigThreading:
    def test_component_fields_change_digest(self):
        base = config_digest(TripsConfig(**DEFAULT_COMPONENTS))
        for field, value in [("opn_topology", "torus"),
                             ("predictor_kind", "gshare"),
                             ("memory_kind", "perfect-l1")]:
            other = config_digest(TripsConfig(
                **{**DEFAULT_COMPONENTS, field: value}))
            assert other != base, field

    def test_validate_rejects_unknown_component(self):
        with pytest.raises(ConfigError, match="did you mean 'torus'"):
            TripsConfig(opn_topology="taurus").validate()

    def test_env_override_sets_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_UARCH_COMPONENTS",
                           "opn_topology=torus,predictor_kind=gshare")
        config = TripsConfig()
        assert config.opn_topology == "torus"
        assert config.predictor_kind == "gshare"
        # Explicit values always beat the environment.
        pinned = TripsConfig(opn_topology="mesh")
        assert pinned.opn_topology == "mesh"


class TestTopologies:
    def test_mesh_matches_legacy_routing(self):
        mesh = MeshTopology()
        for src in [(0, 0), (2, 3), (4, 4), (1, 0)]:
            for dst in [(0, 0), (3, 1), (4, 0), (2, 2)]:
                path = mesh.route(src, dst)
                assert mesh.hop_count(src, dst) == len(path)
                assert mesh.hop_count(src, dst) == abs(
                    src[0] - dst[0]) + abs(src[1] - dst[1])

    def test_torus_routes_are_never_longer_than_mesh(self):
        mesh, torus = MeshTopology(), TorusTopology()
        for sy in range(5):
            for sx in range(5):
                for dy in range(5):
                    for dx in range(5):
                        src, dst = (sy, sx), (dy, dx)
                        torus_hops = torus.hop_count(src, dst)
                        assert torus_hops <= mesh.hop_count(src, dst)
                        path = torus.route(src, dst)
                        assert len(path) == torus_hops
                        assert path == [] or path[-1][1] == dst

    def test_torus_wraparound_is_shorter(self):
        torus = TorusTopology()
        assert torus.hop_count((0, 0), (0, 4)) == 1
        assert torus.hop_count((4, 0), (0, 0)) == 1
        assert MeshTopology().hop_count((0, 0), (0, 4)) == 4

    def test_dwmesh_doubles_links_not_routes(self):
        mesh, dw = MeshTopology(), DoubleWidthMeshTopology()
        assert dw.link_channels == 2
        assert dw.link_count() == 2 * mesh.link_count()
        assert dw.route((1, 1), (3, 4)) == mesh.route((1, 1), (3, 4))

    def test_create_topology_from_config(self):
        config = TripsConfig(**{**DEFAULT_COMPONENTS,
                                "opn_topology": "torus"})
        sim = CycleSimulator(_lowered("rspeed"), config)
        assert isinstance(sim.topology, TorusTopology)
        assert sim.topology.grid == 4


class TestOpnStatsDerivation:
    def test_classes_come_from_topology(self):
        torus = TorusTopology()
        opn = OperandNetwork(topology=torus)
        assert opn.stats.classes == torus.traffic_classes
        assert opn.stats.known_classes() == torus.traffic_classes

    def test_observed_extra_classes_are_reported(self):
        opn = OperandNetwork()
        opn.send((1, 1), (1, 2), 0, "XX-YY")
        assert "XX-YY" in opn.stats.known_classes()
        assert set(opn.stats.histograms()) == set(opn.stats.known_classes())

    def test_histogram_buckets_follow_topology(self):
        torus = TorusTopology()
        opn = OperandNetwork(topology=torus)
        opn.send((1, 1), (1, 2), 0, "ET-ET")
        histogram = opn.stats.class_histogram("ET-ET")
        assert len(histogram) == torus.hop_buckets + 1
        mesh_histogram = OperandNetwork().stats.class_histogram("ET-ET")
        assert len(mesh_histogram) == 5 + 1


class TestAreaModel:
    def test_breakdown_covers_major_structures(self):
        area = estimate_area(TripsConfig(**DEFAULT_COMPONENTS))
        assert {"execution_tiles", "l2", "opn",
                "predictor"} <= set(area.structures)
        assert all(mm2 > 0 for mm2 in area.structures.values())
        assert area.total_mm2 == pytest.approx(
            sum(area.structures.values()))

    def test_wider_topologies_cost_more_area(self):
        def total(topology):
            return estimate_area(TripsConfig(
                **{**DEFAULT_COMPONENTS,
                   "opn_topology": topology})).total_mm2

        assert total("mesh") < total("torus") < total("dwmesh")

    def test_issue_width_costs_execution_tile_area(self):
        # The prototype's price is fixed; a second issue slot per tile
        # costs area in the execution tiles and nowhere else.
        narrow = estimate_area(TripsConfig(**DEFAULT_COMPONENTS))
        wide = estimate_area(TripsConfig(**{**DEFAULT_COMPONENTS,
                                            "et_issue_width": 2}))
        assert round(narrow.total_mm2, 4) == 167.5056
        assert wide.total_mm2 > narrow.total_mm2
        moved = {name for name, mm2 in wide.structures.items()
                 if mm2 != narrow.structures[name]}
        assert moved == {"execution_tiles"}


class TestDifferentialGoldens:
    """The refactored default path must be bit-identical to the seed."""

    @pytest.mark.parametrize("name", sorted(GOLDENS))
    def test_default_components_reproduce_seed(self, name):
        config = TripsConfig(**DEFAULT_COMPONENTS)
        result, sim = run_cycles(_lowered(name), config=config)
        cycles, executed = GOLDENS[name]
        assert sim.stats.cycles == cycles
        assert sim.stats.executed == executed

    def test_variants_preserve_functional_result(self):
        lowered = _lowered("crc")
        baseline, _ = run_cycles(lowered,
                                 config=TripsConfig(**DEFAULT_COMPONENTS))
        for overrides in [{"opn_topology": "torus"},
                          {"opn_topology": "dwmesh"},
                          {"predictor_kind": "gshare"},
                          {"memory_kind": "perfect-l1"}]:
            config = TripsConfig(**{**DEFAULT_COMPONENTS, **overrides})
            result, _ = run_cycles(lowered, config=config)
            assert result == baseline, overrides

    def test_torus_reduces_crc_hops(self):
        lowered = _lowered("crc")
        _, mesh_sim = run_cycles(lowered,
                                 config=TripsConfig(**DEFAULT_COMPONENTS))
        _, torus_sim = run_cycles(lowered, config=TripsConfig(
            **{**DEFAULT_COMPONENTS, "opn_topology": "torus"}))
        assert torus_sim.opn.stats.average_hops() \
            < mesh_sim.opn.stats.average_hops()


class TestSweepAndCli:
    def test_opn_topology_preset_expands(self):
        from repro.explore.presets import preset_spec
        spec = preset_spec("opn-topology")
        assert set(spec.axis_names) == {"opn_topology", "predictor_kind"}
        # 3 topologies x 2 predictors x 3 benchmarks.
        assert spec.point_count() == 18
        assert "crc" in spec.benchmarks

    def test_spec_rejects_unknown_component_value(self):
        from repro.explore.spec import SpecError, parse_overrides
        with pytest.raises(SpecError, match="torus"):
            parse_overrides(["opn_topology=taurus"], system="cycles")

    def test_config_show_cli(self, capsys):
        from repro.__main__ import main
        assert main(["config", "show", "--config",
                     "opn_topology=torus"]) == 0
        out = capsys.readouterr().out
        assert "digest" in out
        assert "torus" in out
        assert "estimated area" in out

    def test_config_show_rejects_bad_override(self, capsys):
        from repro.__main__ import main
        assert main(["config", "show", "--config",
                     "opn_topology=taurus"]) == 2
        assert "did you mean" in capsys.readouterr().err


CONFIG_FIELDS = frozenset(field.name for field in fields(TripsConfig))


class _ReadSpy(TripsConfig):
    """A configuration that records the fields read after
    :meth:`validate` (validation reads every field; the machine may
    not)."""

    def validate(self):
        super().validate()
        object.__setattr__(self, "reads", set())
        return self

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "__dict__").get("reads")
        if reads is not None and name in CONFIG_FIELDS:
            reads.add(name)
        return object.__getattribute__(self, name)


class TestNoDeadKnobs:
    def test_cycle_model_reads_every_field(self):
        # Every field must move the machine: a field nothing reads would
        # still enter cache keys, sweep grids and /v1/run while
        # changing nothing.  rspeed under the six golden configurations
        # plus an aliasing program (the load-flush path) reach them all.
        goldens = load_goldens_tool()
        runs = [(goldens.lower("rspeed"), name) for name in goldens.CONFIGS]
        runs.append((lower_module(optimize(aliasing_module(), "O2")),
                     "default"))
        read = set()
        for lowered, name in runs:
            config = _ReadSpy(**{**goldens.BASE, **goldens.CONFIGS[name]})
            CycleSimulator(lowered, config).run()
            read |= config.reads
        assert sorted(CONFIG_FIELDS - read) == []
