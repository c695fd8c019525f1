"""Benchmark registry (Table 2 of the paper).

Every workload is authored as an IR-building function and self-checks by
returning an integer checksum that must agree across the IR interpreter,
the RISC simulator, and both TRIPS simulators.

Suites mirror the paper:

* ``kernels`` — ct, conv, vadd, matrix (the four hand-optimized
  scientific kernels);
* ``versabench`` — fmradio, 802.11a, 8b10b (3 of 10);
* ``eembc`` — a representative subset of the 30 embedded benchmarks,
  including all eight the paper names in its figures;
* ``spec_int`` / ``spec_fp`` — scaled-down proxies of the SPEC CPU2000
  applications, preserving each benchmark's control-flow and memory
  character at simulator-friendly sizes (our SimPoint substitute).

"Hand-optimized" variants use the mechanized HAND pipeline, following the
paper's observation that its hand optimizations are largely mechanical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.ir.function import Module


@dataclass
class Benchmark:
    """One registered workload."""

    name: str
    suite: str
    build: Callable[[], Module]
    description: str = ""
    has_hand: bool = True

    def module(self) -> Module:
        return self.build()


_REGISTRY: Dict[str, Benchmark] = {}


def register(name: str, suite: str, description: str = "",
             has_hand: bool = True):
    """Decorator: register a module-building function as a benchmark."""
    def wrap(build: Callable[[], Module]) -> Callable[[], Module]:
        if name in _REGISTRY:
            raise ValueError(f"duplicate benchmark {name!r}")
        _REGISTRY[name] = Benchmark(name, suite, build, description, has_hand)
        return build
    return wrap


def _ensure_loaded() -> None:
    # Import side effects populate the registry.
    from repro.bench import eembc, kernels, spec_fp, spec_int, versabench  # noqa: F401


def get(name: str) -> Benchmark:
    _ensure_loaded()
    return _REGISTRY[name]


def by_suite(suite: str) -> List[Benchmark]:
    _ensure_loaded()
    return [b for b in _REGISTRY.values() if b.suite == suite]


def all_benchmarks() -> List[Benchmark]:
    _ensure_loaded()
    return list(_REGISTRY.values())


def suite_names() -> List[str]:
    _ensure_loaded()
    return sorted({b.suite for b in _REGISTRY.values()})


#: The "simple benchmarks" of Figures 3/4/5/11: kernels + VersaBench +
#: the eight named EEMBC programs.
SIMPLE_BENCHMARKS = (
    "a2time", "rspeed", "ospf", "routelookup", "autocor", "conven",
    "fbital", "fft", "802.11a", "8b10b", "fmradio", "ct", "conv",
    "matrix", "vadd",
)


def simple_benchmarks() -> List[Benchmark]:
    _ensure_loaded()
    return [_REGISTRY[name] for name in SIMPLE_BENCHMARKS]
