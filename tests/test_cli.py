"""Command-line behavior: exit codes, file outputs, overrides, and
byte-stable reruns."""

import csv
import json
import os
import subprocess
import sys
import textwrap
from dataclasses import fields
from pathlib import Path

import pytest

from h2grid.certification import EmissionsReport
from h2grid.cli import main
from h2grid.economics import CostBreakdown
from h2grid.plant import Dispatch


def write_config(tmp_path, doc=None, name="config.json"):
    base = {"horizon": 48, "fixture": {"kind": "flat", "seed": 0},
            "out_dir": "out"}
    if doc:
        base.update(doc)
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return path


def test_solve_writes_report_and_dispatch(tmp_path, capsys):
    config = write_config(tmp_path)
    code = main(["solve", "--config", str(config), "--scenario", "flexible"])
    assert code == 0
    out = tmp_path / "out"
    report = json.loads((out / "flexible_report.json").read_text())
    assert report["schema_version"] == 1
    assert report["status"] == "optimal"
    assert report["lcoh_usd_per_kg"] > 0
    assert report["emissions"]["ei_market_kgco2e_per_kgh2"] > 0
    assert (out / "flexible_dispatch.csv").exists()
    assert "optimal" in capsys.readouterr().out


def test_solve_unknown_scenario_is_input_error(tmp_path, capsys):
    config = write_config(tmp_path)
    code = main(["solve", "--config", str(config), "--scenario", "mystery"])
    assert code == 1
    err = capsys.readouterr().err
    assert "mystery" in err
    for name in ["offgrid", "sell_only", "hourly", "daily", "monthly", "yearly",
                 "flexible", "mef_zero"]:
        assert repr(name) in err, name


def test_missing_config_is_input_error(tmp_path, capsys):
    code = main(["solve", "--config", str(tmp_path / "nope.json"),
                 "--scenario", "flexible"])
    assert code == 1


def test_infeasible_exit_code(tmp_path):
    config = write_config(tmp_path, {
        "scenarios": [{"name": "impossible", "mode": "grid",
                       "capex_cap_usd": 1000.0}]})
    code = main(["solve", "--config", str(config), "--scenario", "impossible"])
    assert code == 2
    report = json.loads((tmp_path / "out" / "impossible_report.json").read_text())
    assert report["status"] == "infeasible"
    assert report["lcoh_usd_per_kg"] is None


def test_config_scenario_overrides_builtin_name(tmp_path):
    config = write_config(tmp_path, {
        "scenarios": [{"name": "flexible", "mode": "offgrid"}]})
    code = main(["solve", "--config", str(config), "--scenario", "flexible"])
    assert code == 0
    report = json.loads((tmp_path / "out" / "flexible_report.json").read_text())
    assert report["scenario"]["mode"] == "offgrid"


def test_cli_overrides_apply(tmp_path):
    config = write_config(tmp_path)
    out2 = tmp_path / "elsewhere"
    code = main(["solve", "--config", str(config), "--scenario", "flexible",
                 "--out", str(out2), "--horizon", "24", "--fx", "0.5",
                 "--export-lp"])
    assert code == 0
    report = json.loads((out2 / "flexible_report.json").read_text())
    assert report["inputs"]["horizon"] == 24
    assert report["inputs"]["fx_usd_per_aud"] == 0.5
    assert (out2 / "flexible.lp").read_text().endswith("End\n")


def write_profiles(tmp_path):
    """The 48-hour flat fixture as z1.csv, its sidecar z1.meta.json and
    re.csv."""
    from h2grid.ingest import (synth_fixture, write_grid_profile_csv,
                               write_re_profile_csv)
    ds = synth_fixture("flat", horizon=48, seed=0)
    write_grid_profile_csv(ds.zone("Z1"), tmp_path / "z1.csv")
    write_re_profile_csv(ds.ref_wind, ds.ref_pv, tmp_path / "re.csv")


def write_file_config(tmp_path):
    """Config that reads zone and renewable CSVs, so the currency
    conversion actually touches the prices."""
    write_profiles(tmp_path)
    path = tmp_path / "files.json"
    path.write_text(json.dumps({
        "horizon": 48, "zone_files": {"Z1": "z1.csv"},
        "re_profile_file": "re.csv", "out_dir": "out"}))
    return path


def test_fx_override_scales_file_prices(tmp_path):
    config = write_file_config(tmp_path)
    for fx, out in [("0.7", "a"), ("0.35", "b")]:
        assert main(["solve", "--config", str(config), "--scenario",
                     "flexible", "--fx", fx, "--out",
                     str(tmp_path / out)]) == 0
    ref = json.loads((tmp_path / "a" / "flexible_report.json").read_text())
    cheap = json.loads((tmp_path / "b" / "flexible_report.json").read_text())
    # same import schedule, halved spot price, unchanged transmission fee
    assert cheap["cost_breakdown"]["grid_electricity_usd"] == pytest.approx(
        ref["cost_breakdown"]["grid_electricity_usd"] * (0.028 + 0.007)
        / (0.056 + 0.007), rel=1e-9)
    assert cheap["lcoh_usd_per_kg"] < ref["lcoh_usd_per_kg"]


def test_overrides_equal_their_config_keys(tmp_path, capsys):
    """A flag replaces its config key: a suite run with overrides exits,
    prints and writes (reports, CSVs and LP texts) exactly as a run whose
    config states the same values, for a fixture and for profile CSVs."""
    def run(config, *flags):
        out = tmp_path / f"{config.stem}{''.join(flags)}"
        code = main(["suite", "--config", str(config), "--export-lp", "--out", str(out),
                     *flags])
        return code, capsys.readouterr(), {p.relative_to(out): p.read_bytes()
                                           for p in sorted(out.rglob("*"))}

    walk = {"kind": "random-walk", "seed": 0}
    flagged = write_config(tmp_path, {"horizon": 168, "fixture": walk}, "walk168.json")
    stated = write_config(tmp_path, {"horizon": 24, "fx_usd_per_aud": 0.5,
                                     "fixture": dict(walk, seed=7)}, "walk24.json")
    assert run(flagged, "--horizon", "24", "--seed", "7", "--fx", "0.5") == run(stated)

    files = write_file_config(tmp_path)
    stated = tmp_path / "files_fx.json"
    stated.write_text(json.dumps(dict(json.loads(files.read_text()), fx_usd_per_aud=0.35)))
    assert run(files, "--fx", "0.35") == run(stated)


def test_bad_override_values(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["solve", "--config", str(config), "--scenario", "flexible",
                 "--horizon", "0"]) == 1
    assert main(["solve", "--config", str(config), "--scenario", "flexible",
                 "--fx", "-2"]) == 1


def test_negative_seed_flag_is_named(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["solve", "--config", str(config), "--scenario", "flexible",
                 "--seed", "-3"]) == 1
    assert capsys.readouterr().err == "error: fixture.seed must be >= 0, got -3\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["config.json"]


def test_seed_flag_needs_a_fixture(tmp_path, capsys):
    """A config that reads zone files has no fixture for --seed to seed."""
    config = write_file_config(tmp_path)
    inputs = sorted(tmp_path.rglob("*"))
    assert main(["suite", "--config", str(config), "--seed", "3"]) == 1
    assert capsys.readouterr().err == "error: fixture.seed needs a config with a fixture\n"
    assert sorted(tmp_path.rglob("*")) == inputs


@pytest.mark.parametrize("doc, key", [
    ({"plant": {"eta_el": "x"}}, "eta_el"),
    ({"fx_usd_per_aud": [1]}, "fx_usd_per_aud"),
    ({"capacities": {"wind_kw": {"lower": [1]}}}, "wind_kw.lower"),
    ({"fixture": {"kind": "flat", "seed": "x"}}, "seed"),
    ({"fixture": {"kind": "flat", "seed": 1.5}}, "seed"),
    ({"fixture": {"kind": "flat", "seed": True}}, "seed"),
    ({"fixture": {"kind": "flat", "seed": "7"}}, "seed"),
    ({"fixture": {"kind": "flat", "seed": -1}}, "fixture.seed"),
    ({"capacities": {"wind_kw": -1}}, "wind_kw"),
    ({"scenarios": [{"name": "a", "mode": "grid", "ei_mef_cap": [1]}]}, "ei_mef_cap"),
    ({"scenarios": 5}, "scenarios"),
    ({"out_dir": [1]}, "out_dir"),
    ({"plant": {"capex_el": float("nan")}}, "capex_el"),
    ({"fixture": None, "zone_files": ["z1.csv"], "re_profile_file": "re.csv"},
     "zone_files"),
    ({"fixture": None, "zone_files": {"Z1": 5}, "re_profile_file": "re.csv"},
     "zone_files.Z1"),
    ({"plant": {"interest": 0}}, "interest"),
    ({"plant": {"interest": -0.01}}, "interest"),
    ({"plant": {"c_ref_wind_kw": 0}}, "c_ref_wind_kw"),
    ({"plant": {"c_ref_pv_kw": 0}}, "c_ref_pv_kw"),
    ({"zone": 5}, "zone must be a string, got 5"),
    ({"fixture": {"kind": 5}}, "fixture.kind must be a string, got 5"),
    ({"scenarios": [{"name": "a", "mode": "grid", "sell_zone": ["Z2"]}]},
     "sell_zone must be a string, got ['Z2']"),
    ({"scenarios": [{"name": "a", "mode": "grid", "sell_zone": "Z1", "buy_zone": None}]},
     "buy_zone must be a string, got None"),
    ({"plant": {"lifetime_years": 25.5}}, "lifetime_years"),
], ids=["plant-value", "fx", "capacity-bound", "fixture-seed", "fixture-seed-float",
        "fixture-seed-bool", "fixture-seed-digits", "fixture-seed-negative",
        "capacity-value",
        "scenario-cap", "scenarios", "out-dir", "plant-nan", "zone-files",
        "zone-file", "interest-zero", "interest-negative",
        "wind-reference-zero", "pv-reference-zero", "zone-not-string",
        "fixture-kind-not-string", "sell-zone-not-string", "buy-zone-not-string",
        "lifetime-fraction"])
def test_config_error_names_file_and_key(tmp_path, capsys, doc, key):
    config = write_config(tmp_path, doc)
    assert main(["solve", "--config", str(config), "--scenario", "flexible"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: ") and key in err


# a config that reads the profiles write_profiles writes
FILES = {"fixture": None, "zone_files": {"Z1": "z1.csv"}, "re_profile_file": "re.csv"}


@pytest.mark.parametrize("doc, argv, err", [
    ({"plant": {"load_kg_per_h": 0}}, ["suite"],
     "{config}: invalid plant parameters: load_kg_per_h must be positive"),
    ({}, ["solve", "--scenario", "flexible", "--fx", "nan"],
     "fx_usd_per_aud must be positive and finite, got nan"),
    ({}, ["solve", "--scenario", "flexible", "--fx", "inf"],
     "fx_usd_per_aud must be positive and finite, got inf"),
    ({}, ["solve", "--scenario", "flexible", "--horizon", "0"],
     "horizon must be >= 1, got 0"),
    ({"horizon": 0}, ["solve", "--scenario", "flexible"],
     "{config}: horizon must be >= 1, got 0"),
    ({"scenarios": [{"name": "far", "mode": "grid", "sell_zone": "Z9"}]},
     ["solve", "--scenario", "far"],
     "scenario 'far': sell_zone 'Z9' not in dataset zones ['Z1']"),
    ({"scenarios": [{"name": "far", "mode": "grid", "sell_zone": "Z9"}]}, ["suite"],
     "scenario 'far': sell_zone 'Z9' not in dataset zones ['Z1']"),
    ({"plant": {"c_ref_wind_kw": 100000}}, ["solve", "--scenario", "flexible"],
     "flat fixture: wind_ref_kw 128000.0 at hour 0 outside [0, 100000.0] kW "
     "(reference capacity)"),
    ({}, ["solve", "--scenario", "mystery"],
     "unknown scenario 'mystery'; config defines none by that name and built-ins "
     "are ['offgrid', 'sell_only', 'daily', 'monthly', 'yearly', 'flexible', "
     "'mef_zero', 'hourly']"),
    ({"fixture": {"kind": "two-zone-contrast", "seed": 0}},
     ["sweep-geo", "--sell-zones", "Z2,Z1,Z2"], "repeated sell zones ['Z2']"),
    ({"fixture": {"kind": "two-zone-contrast", "seed": 2},
      "scenarios": [{"name": "sell_split", "mode": "sell_only", "sell_zone": "Z2"}]},
     ["solve", "--scenario", "sell_split"],
     "{config}: scenario 'sell_split': sell-only scenario cannot split zones: the "
     "plant's only supply would be imports, which sell-only bars"),
    (dict(FILES, zone_files={"Z1": "nope.csv"}), ["suite"],
     "{dir}/nope.csv: cannot open (No such file or directory)"),
    (dict(FILES, zone_files={"Z1": "bare.csv"}), ["suite"],
     "{dir}/bare.meta.json: cannot open (No such file or directory)"),
    (dict(FILES, zone="Z/1", zone_files={"Z/1": "z1.csv"}), ["sweep-geo", "--sell-zones", "Z/1"],
     "{config}: zone_files key 'Z/1' must be letters, digits, '_' or '-'"),
    (dict(FILES, re_profile_file="nope.csv"), ["suite"],
     "{dir}/nope.csv: cannot open (No such file or directory)"),
    (dict(FILES, plant={"c_ref_wind_kw": 100000}), ["solve", "--scenario", "flexible"],
     "{dir}/re.csv: wind_ref_kw 128000.0 at hour 0 outside [0, 100000.0] kW "
     "(reference capacity)"),
    ({"plant": {"interest": 1e300}}, ["suite"],
     "{config}: invalid plant parameters: interest 1e+300 over lifetime_years 25 "
     "gives no finite capital recovery factor"),
    ({"plant": {"lifetime_years": 1e6}}, ["suite"],
     "{config}: invalid plant parameters: interest 0.06 over lifetime_years 1000000.0 "
     "gives no finite capital recovery factor"),
    ({"plant": {"interest": 1e-17}}, ["suite"],
     "{config}: invalid plant parameters: interest 1e-17 over lifetime_years 25 "
     "gives no finite capital recovery factor"),
    ({"plant": {"lifetime_years": 25.5}}, ["solve", "--scenario", "flexible"],
     "{config}: invalid plant parameters: lifetime_years must be a whole number >= 1, "
     "got 25.5"),
    ({"re_profile_file": "nope.csv"}, ["solve", "--scenario", "flexible"],
     "{config}: 'fixture' and 're_profile_file' are mutually exclusive"),
    ({"zone_files": {}}, ["suite"],
     "{config}: 'fixture' and 'zone_files' are mutually exclusive"),
    (dict(FILES, fixture={"kind": "flat"}), ["suite"],
     "{config}: 'fixture' and 'zone_files' are mutually exclusive"),
    ({"plant": {"capex_wind": 1e308, "interest": 2}}, ["suite"],
     "{config}: invalid plant parameters: capex_wind 1e+308 at interest 2.0, plus fom_wind "
     "17.5, gives no finite annual cost per kW"),
    ({"plant": {"vom_el": 1e308}}, ["suite"],
     "{config}: plant.vom_el 1e+308 over horizon 48 gives no finite O&M cost"),
    ({"scenarios": [{"name": "capped", "mode": "grid", "ei_mef_cap": 1e308}]},
     ["solve", "--scenario", "capped"],
     "{config}: scenario 'capped': ei_mef_cap 1e+308 over horizon 48 gives no finite "
     "emission budget"),
    ({"plant": {"load_kg_per_h": 1e306}}, ["suite", "--horizon", "1000"],
     "plant.load_kg_per_h 1e+306 over horizon 1000 gives no finite hydrogen mass"),
], ids=["zero-load", "fx-nan", "fx-inf", "horizon-flag-zero", "horizon-zero",
        "unknown-zone", "unknown-zone-suite",
        "wind-above-reference", "unknown-scenario", "repeated-sell-zone",
        "sell-only-split", "missing-zone-csv", "missing-sidecar", "zone-id-path",
        "missing-re-csv",
        "csv-wind-above-reference", "interest-overflows", "lifetime-overflows",
        "interest-below-resolution", "lifetime-fraction",
        "fixture-beside-re-file", "fixture-beside-empty-zone-files",
        "fixture-beside-zone-files", "capex-overflows", "vom-overflows",
        "emission-budget-overflows", "horizon-flag-hydrogen-overflows"])
def test_input_error_writes_nothing(tmp_path, capsys, doc, argv, err):
    """Each input is checked before the first output is written. A config
    that reads files finds the flat fixture's profiles beside it, and
    bare.csv, a zone CSV without its sidecar."""
    if "zone_files" in doc:
        write_profiles(tmp_path)
        (tmp_path / "bare.csv").write_bytes((tmp_path / "z1.csv").read_bytes())
    config = write_config(tmp_path, doc)
    inputs = sorted(tmp_path.rglob("*"))
    assert main([argv[0], "--config", str(config), *argv[1:]]) == 1
    assert capsys.readouterr().err == f"error: {err.format(config=config, dir=tmp_path)}\n"
    assert sorted(tmp_path.rglob("*")) == inputs


def test_scenario_name_cannot_write_outside_out(tmp_path, capsys):
    config = write_config(tmp_path, {
        "scenarios": [{"name": "../escaped", "mode": "grid"}]})
    out = tmp_path / "run" / "out"
    assert main(["solve", "--config", str(config), "--scenario", "../escaped",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: ") and "'../escaped'" in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["config.json"]


def test_suite_runs_all_members(tmp_path):
    config = write_config(tmp_path)
    code = main(["suite", "--config", str(config)])
    assert code == 0
    doc = json.loads((tmp_path / "out" / "suite_report.json").read_text())
    names = [row["scenario"] for row in doc["scenarios"]]
    assert names == ["offgrid", "sell_only", "daily", "monthly", "yearly",
                     "flexible", "mef_zero"]
    assert all(row["status"] == "optimal" for row in doc["scenarios"])
    assert doc["capex_cap_usd"] > 0
    for name in names:
        assert (tmp_path / "out" / f"{name}_report.json").exists()
        assert (tmp_path / "out" / f"{name}_dispatch.csv").exists()


@pytest.mark.parametrize("name, mode, tc_interval, ei_mef_cap", [
    ("offgrid", "offgrid", None, None),
    ("sell_only", "sell_only", None, None),
    ("hourly", "grid", "hourly", None),
    ("daily", "grid", "daily", None),
    ("monthly", "grid", "monthly", None),
    ("yearly", "grid", "yearly", None),
    ("flexible", "grid", None, None),
    ("mef_zero", "grid", None, 0.0),
])
def test_builtin_scenarios(tmp_path, name, mode, tc_interval, ei_mef_cap):
    config = write_config(tmp_path, {"horizon": 24})
    assert main(["solve", "--config", str(config), "--scenario", name]) == 0
    spec = json.loads((tmp_path / "out" / f"{name}_report.json").read_text())["scenario"]
    assert (spec["name"], spec["mode"], spec["tc_interval"],
            spec["ei_mef_cap_kgco2e_per_kgh2"], spec["capex_cap_usd"],
            spec["geo"]) == (name, mode, tc_interval, ei_mef_cap, None, {"zone": "Z1"})


def test_suite_seeds_name_earlier_members(tmp_path, monkeypatch):
    """sell_only starts from offgrid's final solution, monthly, yearly and
    flexible from daily's and mef_zero from flexible's; every seed comes
    from an earlier member."""
    from h2grid import cli
    solved, seeds = {}, {}
    solve = cli.optimize_plant

    def recorded(scenario, params, dataset, start=None, **kwargs):
        if start is not None:
            seeds[scenario.name] = next(n for n, s in solved.items() if s is start)
        report, breakdown = solve(scenario, params, dataset, start=start, **kwargs)
        solved[scenario.name] = report.solution
        return report, breakdown

    monkeypatch.setattr(cli, "optimize_plant", recorded)
    assert main(["suite", "--config", str(write_config(tmp_path))]) == 0
    assert seeds == {"sell_only": "offgrid", "monthly": "daily", "yearly": "daily",
                     "flexible": "daily", "mef_zero": "flexible"}
    order = cli.SUITE_ORDER
    assert all(order.index(seed) < order.index(name) for name, seed in seeds.items())
    # the table itself: a seed named after its member would be dropped
    table = {name: row[-1] for name, row in cli._BUILTINS.items() if row[-1]}
    assert table == seeds


@pytest.mark.parametrize("error, code", [
    (ValueError("a fault"), None), (KeyError("a fault"), None),
    (OSError("disk full"), 1), (ImportError("no HiGHS binding"), 1),
], ids=["value-error", "key-error", "os-error", "import-error"])
def test_only_output_and_binding_errors_exit_1_once_out_exists(
        tmp_path, capsys, monkeypatch, error, code):
    """Every input is checked before --out is made, so an error raised in
    a command is an input error only when it comes from writing an output
    or loading the HiGHS binding; any other is a fault and propagates."""
    from h2grid import cli

    def fail(*args, **kwargs):
        raise error
    monkeypatch.setattr(cli, "optimize_plant", fail)
    argv = ["solve", "--config", str(write_config(tmp_path)), "--scenario", "flexible"]
    if code is None:
        with pytest.raises(type(error), match="a fault"):
            main(argv)
    else:
        assert main(argv) == code
        assert capsys.readouterr().err == f"error: {error}\n"
    assert (tmp_path / "out").is_dir()


def test_suite_reruns_are_byte_identical(tmp_path):
    config = write_config(tmp_path)
    main(["suite", "--config", str(config), "--out", str(tmp_path / "a")])
    main(["suite", "--config", str(config), "--out", str(tmp_path / "b")])
    for name in ["suite_report.json", "flexible_report.json",
                 "offgrid_dispatch.csv"]:
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name).read_bytes()


def test_sweep_re_csv_has_requested_points(tmp_path):
    config = write_config(tmp_path)
    code = main(["sweep-re", "--config", str(config), "--points", "3"])
    assert code == 0
    lines = (tmp_path / "out" / "sweep_re.csv").read_text().splitlines()
    assert lines[0].startswith("re_factor,status,lcoh_usd_per_kg")
    assert len(lines) == 1 + 3
    assert all(line.split(",")[1] == "optimal" for line in lines[1:])
    doc = json.loads((tmp_path / "out" / "sweep_re.json").read_text())
    assert len(doc["points"]) == 3
    assert doc["baseline_capacities"]["electrolyser_kw"] > 0


def test_sweep_re_needs_two_points(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["sweep-re", "--config", str(config), "--points", "1"]) == 1
    assert capsys.readouterr().err == "error: sweep-re needs --points >= 2\n"
    assert not (tmp_path / "out").exists()


def test_sweep_geo_outputs(tmp_path):
    config = write_config(tmp_path, {
        "fixture": {"kind": "two-zone-contrast", "seed": 0}})
    code = main(["sweep-geo", "--config", str(config), "--sell-zones", "Z2"])
    assert code == 0
    doc = json.loads((tmp_path / "out" / "sweep_geo.json").read_text())
    assert doc["buy_zone"] == "Z1"
    baseline = doc["grid_only_baseline"]
    assert baseline["status"] == "optimal"
    low, high = baseline["lcoh_with_recs_usd_per_kg"]
    assert baseline["lcoh_usd_per_kg"] < low < high
    lines = (tmp_path / "out" / "sweep_geo.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("Z2,")


def readable(cls) -> set[str]:
    """The names of a dataclass's fields and properties."""
    return ({f.name for f in fields(cls)}
            | {name for name, value in vars(cls).items() if isinstance(value, property)})


@pytest.mark.parametrize("argv", [["sweep-re", "--points", "3"],
                                  ["sweep-geo", "--sell-zones", "Z2"]])
def test_sweep_column_names_one_field_of_its_point(tmp_path, argv):
    """A sweep row reads each column after the status by name from the
    point's CostBreakdown, EmissionsReport or Dispatch, so each column must
    name a field or property of exactly one of them: a renamed field would
    empty its column, and a name on two (annual_h2_kg) could read either."""
    config = write_config(tmp_path, {"horizon": 24,
                                     "fixture": {"kind": "two-zone-contrast", "seed": 1}})
    assert main([argv[0], "--config", str(config), *argv[1:]]) == 0
    table = tmp_path / "out" / f"{argv[0].replace('-', '_')}.csv"
    with open(table, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert rows and all(row[1] == "optimal" for row in rows)
    sources = [readable(cls) for cls in (CostBreakdown, EmissionsReport, Dispatch)]
    assert sum("annual_h2_kg" in names for names in sources) == 2
    assert {column: sum(column in names for names in sources)
            for column in header[2:]} == dict.fromkeys(header[2:], 1)


def test_sweep_geo_unknown_zone_is_input_error(tmp_path, capsys):
    config = write_config(tmp_path, {
        "fixture": {"kind": "two-zone-contrast", "seed": 0}})
    assert main(["sweep-geo", "--config", str(config),
                 "--sell-zones", "Z9"]) == 1
    assert capsys.readouterr().err == (
        "error: unknown sell zones ['Z9']; dataset has ['Z1', 'Z2']\n")
    assert not (tmp_path / "out").exists()


# a 1,000 kW electrolyser cannot meet the load, so every scenario is infeasible
INFEASIBLE = {"fixture": {"kind": "two-zone-contrast", "seed": 1},
              "capacities": {"electrolyser_kw": 1000.0}}


def test_sweep_geo_reports_each_failed_scenario(tmp_path, capsys):
    config = write_config(tmp_path, INFEASIBLE)
    assert main(["sweep-geo", "--config", str(config), "--sell-zones", "Z2"]) == 2
    assert capsys.readouterr().err == "grid_only: infeasible\ngeo_Z2: infeasible\n"
    lines = (tmp_path / "out" / "sweep_geo.csv").read_text().splitlines()
    assert lines[1:] == ["Z2,infeasible,,,,,,,,"]


def test_sweep_re_stops_after_a_failed_baseline(tmp_path, capsys):
    config = write_config(tmp_path, INFEASIBLE)
    assert main(["sweep-re", "--config", str(config), "--points", "3"]) == 2
    assert capsys.readouterr().err == "offgrid: infeasible\n"
    assert not (tmp_path / "out" / "sweep_re.csv").exists()


@pytest.mark.parametrize("zones", ["", " , "])
def test_sweep_geo_needs_a_sell_zone(tmp_path, capsys, zones):
    config = write_config(tmp_path, {
        "fixture": {"kind": "two-zone-contrast", "seed": 0}})
    assert main(["sweep-geo", "--config", str(config), "--sell-zones", zones]) == 1
    assert capsys.readouterr().err == "error: sweep-geo needs at least one sell zone\n"
    assert not (tmp_path / "out").exists()


def test_solve_imports_no_scipy_package(tmp_path):
    """A CLI solve loads only scipy's HiGHS binding, not scipy.sparse or
    scipy.optimize; importing scipy.optimize afterwards reuses that
    binding, and the public linprog still solves."""
    config = write_config(tmp_path, {"horizon": 168})
    script = textwrap.dedent(f"""
        import sys
        from h2grid import cli, lp
        assert cli.main(["solve", "--config", {str(config)!r},
                         "--scenario", "flexible"]) == 0
        loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
        name = "scipy.optimize._highspy._core"
        assert name in loaded, loaded
        assert all(m.startswith(name) for m in loaded), loaded
        import scipy.optimize
        from scipy.optimize._highspy import _core
        assert _core is lp._load_highs() is sys.modules[name]
        res = scipy.optimize.linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0],
                                     method="highs-ds")
        assert res.status == 0 and list(res.x) == [1.0, 0.0], res
        """)
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
