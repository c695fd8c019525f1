"""Paper-grounded sweep presets (``repro sweep --list-presets``).

Each preset is a plain spec document (the same schema as a JSON/TOML
spec file, see ``docs/SWEEP.md``) named after the design question it
answers in the paper's Section 5:

``speculation-depth``
    How much of the prototype's performance comes from deep block
    speculation?  Blocks in flight 1..8 (one non-speculative + up to
    seven speculative slots) over the four scientific kernels — the
    paper's Figure 6 occupancy discussion.
``ideal-ilp``
    Figure 10's ideal-machine grid, extended: instruction window
    256..128K crossed with per-block dispatch cost 0/4/8 cycles.
``predictor-budget``
    Exit and target predictor storage (Section 5.1's prediction study
    and the Section 7 "config I" target budget) on the SPECINT proxies
    whose cycles those budgets move: parser, vpr and gcc (exit) and
    vpr (target).
``smoke``
    A 4-point sweep (2 benchmarks x 2 speculation depths) small enough
    for CI: cold it simulates, warm it must be a 100% cache hit.
``opn-topology``
    Component sweep: three operand-network topologies (mesh /
    torus / double-width mesh) crossed with two next-block predictors,
    ranked by IPC per estimated mm² (the area model of
    :mod:`repro.uarch.area`).
"""

from __future__ import annotations

from typing import Dict, List

from repro.explore.spec import SpecError, SweepSpec, _suggest

__all__ = ["PRESETS", "preset_names", "preset_spec"]

PRESETS: Dict[str, dict] = {
    "speculation-depth": {
        "description": "Blocks in flight 1-8: value of deep block "
                       "speculation (paper Section 5 / Figure 6)",
        "system": "cycles",
        "benchmarks": ["ct", "conv", "vadd", "matrix"],
        "axes": {"max_blocks_in_flight": [1, 2, 3, 4, 5, 6, 7, 8]},
    },
    "ideal-ilp": {
        "description": "Ideal EDGE machine: window x dispatch cost "
                       "(Figure 10 grid, extended)",
        "system": "ideal",
        "benchmarks": ["ct", "conv", "vadd", "matrix"],
        "axes": {
            "window": [256, 1024, 8192, 131072],
            "dispatch_cost": [0, 4, 8],
        },
    },
    "predictor-budget": {
        "description": "Exit/target predictor budgets (Section 5.1, "
                       "Section 7 config I)",
        "system": "cycles",
        "benchmarks": ["parser", "vpr", "gcc"],
        "axes": {
            "exit_predictor_bytes": [2048, 5120, 10240],
            "target_predictor_bytes": [2048, 5120, 9216],
        },
    },
    "smoke": {
        "description": "4-point CI smoke sweep (2 benchmarks x 2 "
                       "speculation depths)",
        "system": "cycles",
        "benchmarks": ["crc", "vadd"],
        "axes": {"max_blocks_in_flight": [1, 8]},
    },
    "opn-topology": {
        "description": "Operand-network topology x next-block predictor "
                       "(component table variants, ranked by IPC per "
                       "area)",
        "system": "cycles",
        "benchmarks": ["crc", "vadd", "rspeed"],
        "axes": {
            "opn_topology": ["mesh", "torus", "dwmesh"],
            "predictor_kind": ["tournament", "gshare"],
        },
    },
}


def preset_names() -> List[str]:
    return sorted(PRESETS)


def preset_spec(name: str) -> SweepSpec:
    """The validated :class:`SweepSpec` of a named preset."""
    if name not in PRESETS:
        raise SpecError(
            f"unknown preset {name!r}{_suggest(name, PRESETS)} "
            f"(presets: {', '.join(preset_names())})")
    return SweepSpec.from_dict(PRESETS[name], name=name)
