#!/usr/bin/env python
"""Documentation consistency checker (run by the CI ``docs`` job).

Three classes of rot this catches:

1. **Broken internal links.**  Every relative markdown link in
   ``README.md``, ``DESIGN.md``, ``EXPERIMENTS.md``, and ``docs/*.md``
   must point at a file that exists (external ``http``/``mailto`` links
   and pure ``#anchor`` links are skipped; a link's own ``#anchor``
   suffix is stripped before the existence check).

2. **Phantom CLI flags.**  Every ``--flag`` the documentation shows —
   on a command line containing ``python -m repro``, or in an inline
   backtick span starting with ``--`` — must be a real option of the
   ``repro`` argument parser (checked recursively through every
   subcommand).  Flags of *other* tools (``pytest --benchmark-only``)
   are only exempt because they never appear in either position.

3. **Phantom config keys.**  On a ``python -m repro`` line, the key of
   every ``--config KEY=VALUE[,KEY=VALUE...]`` and every ``--points
   KEY=...`` must be a ``TripsConfig`` field or an ideal-machine axis,
   by the sweep spec's own name validation (so a deleted field in an
   example fails here with the same did-you-mean a user would get).

Exit status 0 when clean; 1 with one line per problem otherwise.
Needs ``src/`` importable (run as ``python tools/check_docs.py`` from
the repo root, or with ``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Iterable, List, Set, Tuple

REPO = Path(__file__).resolve().parent.parent

#: Documents under contract.
DOC_FILES = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
DOC_GLOBS = ("docs/*.md",)

#: Reference docs that must exist (a rename or deletion without
#: updating this registry is a CI failure, not a silent skip).
REQUIRED_DOCS = ("docs/TRACE.md", "docs/ROBUSTNESS.md", "docs/SWEEP.md",
                 "docs/PERF.md", "docs/COMPONENTS.md", "docs/KERNELS.md",
                 "docs/SERVE.md", "docs/OBSERVABILITY.md")

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_INLINE_FLAG = re.compile(r"`(--[A-Za-z][A-Za-z0-9-]*)")
_CLI_FLAG = re.compile(r"(--[A-Za-z][A-Za-z0-9-]*)")
_CONFIG_ARG = re.compile(r"--config[= ]+[\"']?([^\s\"']+)")
_POINTS_ARG = re.compile(r"--points[= ]+[\"']?([^\s=\"']+)=")


def _rel(path: Path) -> str:
    try:
        return str(path.relative_to(REPO))
    except ValueError:
        return str(path)


def doc_paths() -> List[Path]:
    paths = [REPO / name for name in DOC_FILES]
    for pattern in DOC_GLOBS:
        paths.extend(sorted(REPO.glob(pattern)))
    return [path for path in paths if path.exists()]


def check_links(path: Path) -> List[str]:
    """Relative links in ``path`` that do not resolve to a file."""
    problems = []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        for target in _LINK.findall(line):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue
            if not (path.parent / target).exists():
                problems.append(
                    f"{_rel(path)}:{number}: broken link -> {target}")
    return problems


def documented_flags(path: Path) -> List[Tuple[int, str]]:
    """``(line, flag)`` pairs the documentation claims the CLI has."""
    flags = []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        if "python -m repro" in line:
            for flag in _CLI_FLAG.findall(line):
                flags.append((number, flag))
        else:
            for flag in _INLINE_FLAG.findall(line):
                flags.append((number, flag))
    return flags


def parser_flags(parser: argparse.ArgumentParser) -> Set[str]:
    """All option strings of ``parser`` and (recursively) its
    subcommands."""
    flags: Set[str] = set()
    for action in parser._actions:
        flags.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags.update(parser_flags(sub))
    return flags


def check_flags(path: Path, known: Set[str]) -> List[str]:
    return [f"{_rel(path)}:{number}: "
            f"documented flag {flag} not in `python -m repro --help` "
            f"(any subcommand)"
            for number, flag in documented_flags(path)
            if flag not in known]


def documented_keys(path: Path) -> List[Tuple[int, str]]:
    """``(line, key)`` pairs of the ``--config`` and ``--points``
    settings the documentation's ``python -m repro`` lines show."""
    keys = []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        if "python -m repro" not in line:
            continue
        for setting in _CONFIG_ARG.findall(line):
            for part in setting.split(","):
                name, sep, _value = part.partition("=")
                if sep:
                    keys.append((number, name))
        for name in _POINTS_ARG.findall(line):
            keys.append((number, name))
    return keys


def check_config_keys(path: Path) -> List[str]:
    from repro.explore.spec import SpecError, _check_axis_name

    problems = []
    for number, name in documented_keys(path):
        try:
            _check_axis_name(name, "ideal")
            continue
        except SpecError:
            pass
        try:
            _check_axis_name(name, "cycles")
        except SpecError as error:
            problems.append(f"{_rel(path)}:{number}: documented config "
                            f"key: {error}")
    return problems


def main(argv: Iterable[str] = ()) -> int:
    del argv
    sys.path.insert(0, str(REPO / "src"))
    from repro.__main__ import build_parser

    known = parser_flags(build_parser())
    problems: List[str] = [
        f"{name}: required document missing"
        for name in REQUIRED_DOCS if not (REPO / name).exists()]
    for path in doc_paths():
        problems.extend(check_links(path))
        problems.extend(check_flags(path, known))
        problems.extend(check_config_keys(path))

    for problem in problems:
        print(problem)
    if not problems:
        print(f"docs OK: {len(doc_paths())} files, "
              f"{len(known)} parser flags known")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
