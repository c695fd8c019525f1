"""``BENCHMARK.json`` and the names the benchmark prints agree."""

import json
import re
import shutil
import subprocess
import sys

from e2e import layers, procs, run, workloads

BENCH = json.loads((procs.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_document_shape():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["e2e"]
    assert BENCH["command"] == ["python3", "e2e/run.py"]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in BENCH[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.match(metric["unit"]) and \
            metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_workloads_match_the_implementations():
    assert [w["name"] for w in BENCH["workloads"]] == \
        list(workloads.WORKLOADS)


def test_end_to_end_names_match():
    raw = {"pass_s": [1.0, 2.0], "op_kind": ["a", "b", "a"],
           "op_ms": [1.0, 2.0, 3.0], "peak_rss_mb": 50.0}
    assert set(run.end_to_end(raw, [0.3, 0.4])) == \
        {m["name"] for m in BENCH["end_to_end"]}


def test_layer_names_are_declared():
    declared = {m["name"] for m in BENCH["per_layer"]}
    assert {f"{layer}_s" for layer in layers.layer_names()} <= declared
    assert set(layers.PROFILE_GROUPS) <= declared
    assert set(workloads.EXTRA_METRICS) <= declared


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(procs.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(procs.ROOT / "e2e", tmp_path / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".tmp"))
    done = subprocess.run(
        [sys.executable, "e2e/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
