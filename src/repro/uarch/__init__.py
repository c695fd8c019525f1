"""TRIPS microarchitecture models: cycle-level core, caches, OPN,
predictors, pluggable-component registry, and the ideal-machine limit
study."""

from repro.uarch.area import AreaBreakdown, estimate_area
from repro.uarch.caches import (
    CacheStats, DramModel, L1DataBanks, L1InstructionCache,
    MemoryHierarchy, NucaL2, PerfectL1Hierarchy, SetAssociativeCache,
)
from repro.uarch.components import (
    ComponentError, MemoryHierarchyABC, NextBlockPredictorABC, OpnTopology,
    component_names,
)
from repro.uarch.config import (
    ConfigError, PROTOTYPE, TripsConfig, improved_predictor_config,
)
from repro.robust.errors import SimulationBudgetExceeded
from repro.uarch.core import CycleSimulator, CycleStats, run_cycles
from repro.uarch.ideal import IdealSimulator, IdealStats, run_ideal
from repro.uarch.opn import (
    OperandNetwork, OpnStats, dt_coord, et_coord, hop_count, route, rt_coord,
)
from repro.uarch.predictor import (
    AlphaTournamentPredictor, ExitPredictor, GshareNextBlockPredictor,
    GsharePredictor, NextBlockPredictor, PredictorStats, TargetPredictor,
)
from repro.uarch.topologies import (
    DoubleWidthMeshTopology, MeshTopology, TorusTopology,
)

__all__ = [
    "AlphaTournamentPredictor",
    "AreaBreakdown",
    "CacheStats",
    "ComponentError",
    "ConfigError",
    "CycleSimulator",
    "CycleStats",
    "DoubleWidthMeshTopology",
    "DramModel",
    "ExitPredictor",
    "GshareNextBlockPredictor",
    "GsharePredictor",
    "IdealSimulator",
    "IdealStats",
    "L1DataBanks",
    "L1InstructionCache",
    "MemoryHierarchy",
    "MemoryHierarchyABC",
    "MeshTopology",
    "NextBlockPredictor",
    "NextBlockPredictorABC",
    "NucaL2",
    "OperandNetwork",
    "OpnStats",
    "OpnTopology",
    "PROTOTYPE",
    "PerfectL1Hierarchy",
    "PredictorStats",
    "SetAssociativeCache",
    "SimulationBudgetExceeded",
    "TargetPredictor",
    "TorusTopology",
    "TripsConfig",
    "component_names",
    "dt_coord",
    "estimate_area",
    "et_coord",
    "hop_count",
    "improved_predictor_config",
    "route",
    "rt_coord",
    "run_cycles",
    "run_ideal",
]
