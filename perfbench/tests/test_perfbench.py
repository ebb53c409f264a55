"""Tests of the benchmark itself, at horizons small enough to run in
seconds. Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import gate
import layers
import run
import speed
from speed import SpeedProbe
from workloads import WORKLOADS, Workload

ROOT = Path(run.__file__).resolve().parent.parent
TINY_HORIZON = 48


@pytest.fixture
def runner(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)

    with SpeedProbe() as probe:
        def make(workload):
            return run.Runner(workload, tmp_path, time.monotonic() + 170.0, probe)
        yield make


def tiny(name: str) -> Workload:
    return replace(WORKLOADS[name], horizon=TINY_HORIZON, variants=1)


def printed_units(text: str) -> dict:
    """metric name -> unit, from the benchmark's human-readable tables."""
    found = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 3:
            try:
                float(parts[1])
            except ValueError:
                continue
            found[parts[0]] = parts[2]
    return found


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_catalogue():
    doc = benchmark_json()
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in layers.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.PER_LAYER]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(name, runner, capsys):
    doc = benchmark_json()
    result = run.untraced(tiny(name), 1, 0.0, runner(tiny(name)))
    shown = printed_units(capsys.readouterr().out)
    assert result["correct"], result
    for m in doc["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
        assert shown[m["name"]] == m["unit"]
    for m in (layers.SCENARIO_P50, layers.SCENARIO_MAX, layers.FAILED_SHARE):
        assert shown[m.name] == m.unit

    result = run.traced(tiny(name), 1, runner(tiny(name)))
    shown = printed_units(capsys.readouterr().out)
    assert result["correct"], result
    assert set(result["metrics"]) == {m["name"] for m in doc["per_layer"]}
    for m in doc["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert shown[m["name"]] == m["unit"]
    for m in layers.TABLE_ONLY:
        assert m.name in shown


def with_scenario(monkeypatch, scenario: dict) -> Workload:
    """A workload solving one scenario that its config defines."""
    make_inputs = Workload.make_inputs

    def make(self, directory, seed):
        inputs = make_inputs(self, directory, seed)
        config = json.loads(inputs.config_path.read_text())
        config["scenarios"] = [scenario]
        inputs.config_path.write_text(json.dumps(config))
        return inputs

    monkeypatch.setattr(Workload, "make_inputs", make)
    return Workload(name="one", argv=["solve", "--scenario", scenario["name"]],
                    horizon=TINY_HORIZON, scenarios=[scenario["name"]],
                    zone_ids=["Z1"], variants=1)


def test_infeasible_scenario_counts_as_failed(runner, monkeypatch):
    capped = with_scenario(monkeypatch, {"name": "capped", "mode": "grid",
                                         "capex_cap_usd": 1})
    result = run.untraced(capped, 1, 0.0, runner(capped))
    # one input plus its repeat, each with its one scenario infeasible
    assert result["attempted"] == 2
    assert result["failed"] == 2
    assert result["correct"]

    free = with_scenario(monkeypatch, {"name": "capped", "mode": "grid"})
    result = run.untraced(free, 1, 0.0, runner(free))
    assert (result["attempted"], result["failed"]) == (2, 0)


def test_rejected_argv_is_not_correct(runner):
    # argparse exits 2, the code of an infeasible solve, and writes nothing
    broken = replace(tiny("sweep-re"), argv=["sweep-re", "--no-such-flag"])
    result = run.untraced(broken, 1, 0.0, runner(broken))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2 * len(broken.scenarios)


def test_missing_report_is_not_correct(runner):
    # the command exits 0 but never writes the last scenario's report
    short = replace(tiny("sweep-re"),
                    scenarios=tiny("sweep-re").scenarios + ["re_999"])
    result = run.untraced(short, 1, 0.0, runner(short))
    assert not result["correct"]
    assert result["failed"] == 2


def test_missing_reports_after_a_failed_solve_are_excused(tmp_path):
    workload = tiny("sweep-re")
    inputs = workload.make_inputs(tmp_path / "in", 5)
    out = tmp_path / "out"
    out.mkdir()
    (out / "offgrid_report.json").write_text(json.dumps({"status": "infeasible"}))
    outcomes = gate.check_command(out, inputs, 2)
    assert [o.status for o in outcomes] == ["infeasible"] + ["missing"] * 7
    assert all(o.failed and not o.problem for o in outcomes)
    # the same files after an exit of 0 are a gate problem
    assert all(o.problem for o in gate.check_command(out, inputs, 0)[1:])


def test_traced_and_untraced_reports_match(runner, tmp_path):
    workload = tiny("geo-export")
    bench = runner(workload)
    inputs = workload.make_inputs(tmp_path / "in", 3)
    plain = bench.command(0, inputs, "run")
    traced = bench.command(0, inputs, "trace")
    assert plain.digests and plain.digests == traced.digests
    assert any(name.endswith(".lp") for name in plain.digests)
    assert not any(o.failed for o in plain.outcomes + traced.outcomes)


def test_self_times_close_the_traced_wall(runner, tmp_path):
    workload = tiny("suite")
    inputs = workload.make_inputs(tmp_path / "in", 3)
    spans = runner(workload).command(0, inputs, "trace").spans
    roots = [s for s in spans if s[3] < 0]
    assert sum(layers.self_times(spans)) == pytest.approx(
        sum(s[2] - s[1] for s in roots), rel=1e-9)
    assert all(s[4] == spans[0][4] for s in spans)
    values = layers.layer_metrics(spans)
    assert values["lp.highs_calls"] >= values["plant.build_calls"] > 0
    assert [name for name, _, _ in layers.scenario_intervals(spans)] == workload.scenarios


def test_speed_is_nominal_time_over_probe_time():
    probe = SpeedProbe()
    nominal = speed.NOMINAL_S
    probe.samples = [(0.0, 2 * nominal), (1.0, nominal), (5.0, 4 * nominal)]
    assert probe.speed(0.0, 1.5) == pytest.approx(2 / 3)
    # no probe started in the interval: the next one stands for it
    assert probe.speed(2.0, 3.0) == pytest.approx(1 / 4)
    assert probe.speed(6.0, 7.0) == pytest.approx(1 / 4)


def test_speed_probe_samples_while_running():
    with SpeedProbe() as probe:
        start = time.perf_counter()
        time.sleep(0.2)
        end = time.perf_counter()
    assert len(probe.samples) >= 3
    assert probe.speed(start, end) > 0
    assert not probe._thread.is_alive()   # stopped on exit


def test_gate_rejects_tampered_outputs(tmp_path):
    from h2grid.cli import main

    inputs = tiny("sweep-re").make_inputs(tmp_path / "in", 5)
    out = tmp_path / "out"
    assert main(["solve", "--scenario", "flexible", "--config",
                 str(inputs.config_path), "--out", str(out)]) == 0
    ok = gate.check_scenario(out, "flexible", inputs.zones, inputs.load_kg_per_h)
    assert not ok.failed

    report_path = out / "flexible_report.json"
    report = json.loads(report_path.read_text())
    report["emissions"]["ei_mef_kgco2e_per_kgh2"] *= 1 + 1e-6
    report_path.write_text(json.dumps(report))
    bad = gate.check_scenario(out, "flexible", inputs.zones, inputs.load_kg_per_h)
    assert bad.failed and "ei_mef" in bad.problem

    csv_path = out / "flexible_dispatch.csv"
    lines = csv_path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[3] = repr(float(cells[3]) + 50.0)   # e_el_kw off the bus balance
    lines[5] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")
    bad = gate.check_scenario(out, "flexible", inputs.zones, inputs.load_kg_per_h)
    assert bad.failed and "conservation" in bad.problem

    assert gate.check_scenario(out, "absent", inputs.zones, 180.0).status == "missing"


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
