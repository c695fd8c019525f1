"""TRIPS microarchitecture models: cycle-level core, caches, OPN,
predictors, the component tables, and the ideal-machine limit study."""

from repro.uarch.area import AreaBreakdown, estimate_area
from repro.uarch.caches import (
    CacheStats, DramModel, L1DataBanks, L1InstructionCache,
    MemoryHierarchy, NucaL2, PerfectL1Hierarchy, SetAssociativeCache,
)
from repro.uarch.config import (
    ConfigError, PROTOTYPE, TripsConfig, improved_predictor_config,
)
from repro.robust.errors import SimulationBudgetExceeded
from repro.uarch.core import CycleSimulator, CycleStats, run_cycles
from repro.uarch.ideal import IdealSimulator, IdealStats, run_ideal
from repro.uarch.opn import OperandNetwork, OpnStats
from repro.uarch.predictor import (
    AlphaTournamentPredictor, ExitPredictor, GshareNextBlockPredictor,
    GsharePredictor, NextBlockPredictor, PredictorStats, TargetPredictor,
)
from repro.uarch.topologies import (
    DoubleWidthMeshTopology, MeshTopology, OpnTopology, TorusTopology,
)

__all__ = [
    "AlphaTournamentPredictor",
    "AreaBreakdown",
    "CacheStats",
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
    "MeshTopology",
    "NextBlockPredictor",
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
    "estimate_area",
    "improved_predictor_config",
    "run_cycles",
    "run_ideal",
]
