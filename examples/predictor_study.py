#!/usr/bin/env python3
"""Next-block prediction study (Figure 7 of the paper).

Runs a branchy SPEC proxy through four predictor configurations:

* A — an Alpha 21264-like tournament predictor on basic-block code,
* B — the TRIPS exit+target predictor on basic-block code,
* H — the TRIPS predictor on hyperblock code (the prototype),
* I — the "lessons learned" configuration (9 KB target predictor).

Hyperblocks make *fewer* predictions (one per block instead of one per
basic block), which is how the prototype wins on MPKI even where its raw
misprediction rate is worse — the paper's Section 5.1 argument.

Run:  python examples/predictor_study.py [benchmark]
"""

import sys

from repro.eval.experiments import _run_alpha_on_trace, _run_trips_predictor
from repro.pipeline import shared_pipeline
from repro.uarch import TripsConfig, improved_predictor_config


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "twolf"
    pipeline = shared_pipeline()

    print(f"benchmark: {name}")
    basic = pipeline.block_trace(name, formation="basic")
    hyper = pipeline.block_trace(name, formation="hyper")
    useful = pipeline.trips_functional(name).useful
    print(f"  basic-block code:  {basic.blocks} block transitions")
    print(f"  hyperblock code:   {hyper.blocks} block transitions "
          f"({100.0 * (1 - hyper.blocks / basic.blocks):.0f}% fewer "
          f"predictions)")
    print(f"  useful instructions: {useful}")
    print()

    configs = [
        ("A: Alpha-like, basic blocks", *_run_alpha_on_trace(basic)),
        ("B: TRIPS pred., basic blocks",
         *_run_trips_predictor(basic, TripsConfig())),
        ("H: TRIPS pred., hyperblocks",
         *_run_trips_predictor(hyper, TripsConfig())),
        ("I: scaled target predictor",
         *_run_trips_predictor(hyper, improved_predictor_config())),
    ]

    print(f"{'configuration':32s} {'predictions':>12s} {'misses':>8s} "
          f"{'miss%':>7s} {'MPKI':>7s}")
    print("-" * 72)
    for label, predictions, misses in configs:
        rate = 100.0 * misses / max(predictions, 1)
        mpki = 1000.0 * misses / max(useful, 1)
        print(f"{label:32s} {predictions:12d} {misses:8d} {rate:6.1f}% "
              f"{mpki:7.2f}")

    print()
    print("Paper reference (SPEC INT means): MPKI 14.9 (A), 14.8 (B), "
          "8.5 (H), 6.9 (I).")


if __name__ == "__main__":
    main()
