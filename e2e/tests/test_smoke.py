"""Each workload at a tiny size, in process, plus its correctness checks."""

import json

from e2e import procs, worker, workloads as w
from repro.eval import experiments

TINY_REPORT = w.ReportSample(simple=("rspeed",), spec_int=())
TINY_SWEEP = w.SweepSample(
    benchmarks=("rspeed",),
    axes=(("max_blocks_in_flight", (2,)),
          ("predictor_kind", ("tournament", "gshare"))))


def _once(workload):
    m = w.Measurement()
    workload.prepare()
    try:
        workload.run_window(0.0, m)
    finally:
        workload.close()
    return m


def test_report_cold_renders_every_driver(tmp_path):
    workload = w.ReportCold(1, tmp_path, sample=TINY_REPORT)
    m = _once(workload)
    assert (m.attempted, m.failed, len(m.pass_s)) == \
        (len(w.REPORT_KEYS), 0, 1)
    assert len(workload.sim_digest) == 64
    assert not (tmp_path / "cold-0").exists()


def test_report_warm_reads_without_simulating(tmp_path):
    workload = w.ReportWarm(1, tmp_path, sample=TINY_REPORT)
    m = _once(workload)
    assert (m.attempted, m.failed) == (len(w.REPORT_KEYS), 0)
    assert workload.telemetry.computes(w.SIMULATION_STAGES) == 0


def test_sabotaged_warm_table_is_counted_as_failed(tmp_path, monkeypatch):
    workload = w.ReportWarm(1, tmp_path, sample=TINY_REPORT)
    workload.prepare()
    real = experiments.run_experiment

    def sabotaged(key, runner=None, **kwargs):
        table = real(key, runner, **kwargs)
        return table + " " if key == "fig9" else table

    monkeypatch.setattr(experiments, "run_experiment", sabotaged)
    m = w.Measurement()
    workload.run_window(0.0, m)
    assert m.failed == 1
    assert m.errors == ["fig9: warm table differs from the cold table"]


def test_sweep_counts_holes_as_failures(tmp_path, monkeypatch):
    workload = w.Sweep(1, tmp_path, sample=TINY_SWEEP)
    m = _once(workload)
    assert (m.attempted, m.failed) == (2, 0)
    assert workload.extras()["explore.lowerings_per_point"] == 1.0

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr("repro.explore.engine._point_artifact", broken)
    again = w.Sweep(1, tmp_path, sample=TINY_SWEEP)
    m = _once(again)
    assert m.failed == 2 and "hole" in m.errors[0]


def test_serve_answers_and_stops(tmp_path):
    workload = w.Serve(1, tmp_path)
    workload.prepare()
    try:
        m = w.Measurement()
        workload.run_window(1.0, m)
        extras = workload.extras()
        assert procs.peak_rss_mb(workload.proc.pid) > 0
    finally:
        proc = workload.proc
        workload.close()
    assert proc.poll() is not None
    assert m.attempted > w.SERVE_NEW_KEY_EVERY and m.failed == 0
    assert 0 < extras["serve.cold_frac"] < 1
    assert extras["serve.warm_p50_ms"] > 0


def test_traced_pass_reports_every_layer_metric(tmp_path):
    declared = {m["name"] for m in json.loads(
        (procs.ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    workload = w.ReportCold(1, tmp_path, sample=TINY_REPORT)
    raw = worker.measure(workload, 0.0, True, tmp_path,
                         out_prefix=tmp_path / "traced")
    assert raw["failed"] == 0
    values = raw["layers"]
    assert set(values) == declared
    assert values["unattributed_frac"] <= 0.15
    assert values["uarch.cycles_s"] > 0 and values["uarch.sim_blocks"] > 0
    assert values["host.probe_s"] > 0
    trace = json.loads((tmp_path / "traced.trace.json").read_text())
    names = {event["name"] for event in trace["traceEvents"]}
    assert "uarch.cycles" in names and "stage.trips-cycles" in names


def test_untraced_measure_reports_raw_samples(tmp_path):
    raw = worker.measure(w.Sweep(1, tmp_path, sample=TINY_SWEEP), 0.0,
                         False, tmp_path)
    assert raw["pass_s"] and len(raw["op_ms"]) == raw["attempted"] == 2
    assert raw["peak_rss_mb"] > 0 and raw["sim_digest"]
