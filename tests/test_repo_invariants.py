"""Repository-level invariants: documentation/index consistency, no
unused imports, and degenerate-program edge cases through the full
pipeline."""

import ast
from pathlib import Path

import pytest

from repro.ir import Builder, Type, run_module
from repro.opt import LEVELS, optimize
from repro.risc import lower_module as lower_risc, run_program
from repro.trips import lower_module as lower_trips, run_trips
from repro.uarch import run_cycles, run_ideal

ROOT = Path(__file__).resolve().parent.parent


class TestDocumentationIndex:
    def test_design_md_references_existing_bench_modules(self):
        text = (ROOT / "DESIGN.md").read_text()
        for line in text.splitlines():
            if "`benchmarks/test_" in line:
                name = line.split("`benchmarks/")[1].split("`")[0]
                assert (ROOT / "benchmarks" / name).exists(), name

    def test_every_experiment_has_a_bench_module(self):
        from repro.eval import experiment_names
        bench_sources = "\n".join(
            p.read_text() for p in (ROOT / "benchmarks").glob("test_*.py"))
        for key in experiment_names():
            assert f'run_experiment("{key}")' in bench_sources, key

    def test_examples_listed_in_readme_exist(self):
        readme = (ROOT / "README.md").read_text()
        for line in readme.splitlines():
            if "`examples/" in line and ".py" in line:
                name = line.split("`examples/")[1].split("`")[0]
                assert (ROOT / "examples" / name).exists(), name

    def test_experiments_md_covers_every_figure(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for anchor in ("Figure 3", "Figure 4", "Figure 5", "Figure 6",
                       "Figure 7", "Figure 8", "Figure 9", "Figure 10",
                       "Table 1", "Table 3", "Section 4.4", "Section 6"):
            assert anchor in text, anchor


def unused_imports(source: str):
    """``{name: line}`` of the module-level imports that nothing in
    ``source`` reads: no ``Name`` node and no ``__all__`` entry.  Imports
    inside a top-level ``if`` or ``try`` count as module-level;
    ``__future__`` imports never count."""
    tree = ast.parse(source)
    imported = {}
    for statement in tree.body:
        nested = isinstance(statement, (ast.If, ast.Try))
        for node in ast.walk(statement) if nested else (statement,):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                    or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for statement in tree.body:
        if isinstance(statement, ast.Assign) and any(
                getattr(target, "id", None) == "__all__"
                for target in statement.targets):
            used.update(node.value for node in ast.walk(statement.value)
                        if isinstance(node, ast.Constant))
    return {name: line for name, line in imported.items()
            if name not in used}


class TestNoUnusedImports:
    #: ``e2e/layers.py`` times the ideal machine by patching
    #: ``run_ideal`` where the pipeline imports it.
    ALLOWED = {("repro.pipeline.core", "run_ideal")}

    def test_scan_finds_an_unused_import(self):
        source = ("from __future__ import annotations\n"
                  "import os\nimport sys\n"
                  "from typing import List, Tuple\n"
                  "__all__ = ['Tuple']\n"
                  "def f(x: List) -> None:\n    print(sys)\n")
        assert unused_imports(source) == {"os": 2}

    def test_no_module_level_import_is_unused(self):
        # The ``__init__.py`` files re-export what they import.
        src = ROOT / "src"
        found = []
        for path in sorted((src / "repro").rglob("*.py")):
            if path.name == "__init__.py":
                continue
            module = ".".join(path.relative_to(src).with_suffix("").parts)
            for name, line in unused_imports(path.read_text()).items():
                if (module, name) not in self.ALLOWED:
                    found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
        assert not found, "unused imports:\n" + "\n".join(found)


class TestDegenerateePrograms:
    def _run_everywhere(self, module):
        expected = run_module(module)[0]
        for level in LEVELS:
            optimized = optimize(module, level)
            assert run_program(lower_risc(optimized))[0] == expected
            lowered = lower_trips(optimized)
            assert run_trips(lowered.program)[0] == expected
        lowered = lower_trips(optimize(module, "O2"))
        assert run_cycles(lowered)[0] == expected
        assert run_ideal(lowered.program)[0] == expected

    def test_constant_return(self):
        b = Builder()
        b.function("main", return_type=Type.I64)
        b.ret(42)
        self._run_everywhere(b.module)

    def test_zero_trip_loop(self):
        b = Builder()
        b.function("main", return_type=Type.I64)
        acc = b.mov(7)
        with b.loop(5, 5) as i:
            b.assign(acc, b.add(acc, i))
        b.ret(acc)
        self._run_everywhere(b.module)

    def test_single_iteration_loop(self):
        b = Builder()
        b.function("main", return_type=Type.I64)
        acc = b.mov(0)
        with b.loop(0, 1) as i:
            b.assign(acc, b.add(acc, 5))
        b.ret(acc)
        self._run_everywhere(b.module)

    def test_branch_on_constant_condition(self):
        b = Builder()
        b.function("main", return_type=Type.I64)
        x = b.mov(1)
        with b.if_then_else(b.gt(x, 100)) as (then, otherwise):
            with then:
                b.assign(x, 10)
            with otherwise:
                b.assign(x, 20)
        b.ret(x)
        self._run_everywhere(b.module)

    def test_void_helper_called_for_effect(self):
        b = Builder()
        buf = b.global_array("buf", 1, 8)
        p = b.function("poke", [Type.I64])
        b.store(p[0], buf)
        b.ret()
        b.function("main", return_type=Type.I64)
        b.call("poke", [31])
        b.ret(b.load(buf))
        self._run_everywhere(b.module)

    def test_deeply_nested_loops(self):
        b = Builder()
        b.function("main", return_type=Type.I64)
        acc = b.mov(0)
        with b.loop(0, 3):
            with b.loop(0, 3):
                with b.loop(0, 3):
                    with b.loop(0, 3):
                        b.assign(acc, b.add(acc, 1))
        b.ret(acc)
        self._run_everywhere(b.module)
