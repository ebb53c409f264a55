"""File formats, synthetic fixtures, and run configuration parsing."""

import csv
import json
import math
import re
from dataclasses import fields

import numpy as np
import pytest

from h2grid.cli import main
from h2grid.ingest import (
    DEFAULT_FX_USD_PER_AUD,
    DISPATCH_HEADER,
    FIXTURE_KINDS,
    dataset_from_config,
    dump_json,
    load_config,
    load_grid_profile,
    load_re_profile,
    synth_fixture,
    write_csv,
    write_dispatch_csv,
    write_grid_profile_csv,
    write_re_profile_csv,
)
from h2grid.economics import optimize_plant
from h2grid.plant import Dispatch
from h2grid.types import (
    CapacityBound,
    CapacitySpec,
    CoLocated,
    Mode,
    PlantParameters,
    ScenarioSpec,
    Split,
    TcInterval,
)

from test_cli import write_file_config

FX = DEFAULT_FX_USD_PER_AUD  # the rate write_grid_profile_csv writes at
REF_CAPS = (PlantParameters.c_ref_wind_kw, PlantParameters.c_ref_pv_kw)


# -- synthetic fixtures -------------------------------------------------

@pytest.mark.parametrize("kind", FIXTURE_KINDS)
def test_fixture_kinds_build_valid_datasets(kind):
    ds = synth_fixture(kind, horizon=48, seed=3)
    assert ds.horizon == 48
    for profile in ds.zones.values():
        assert len(profile.spot_price) == 48
        assert 0.0 <= profile.arpp <= 1.0
    n_zones = 2 if kind == "two-zone-contrast" else 1
    assert len(ds.zones) == n_zones


def test_fixture_deterministic_per_seed():
    a = synth_fixture("random-walk", horizon=72, seed=9)
    b = synth_fixture("random-walk", horizon=72, seed=9)
    c = synth_fixture("random-walk", horizon=72, seed=10)
    assert np.array_equal(a.zone("Z1").spot_price.values,
                          b.zone("Z1").spot_price.values)
    assert np.array_equal(a.ref_wind.values, b.ref_wind.values)
    assert not np.array_equal(a.zone("Z1").spot_price.values,
                              c.zone("Z1").spot_price.values)


def test_fixture_rejects_unknown_kind():
    with pytest.raises(ValueError):
        synth_fixture("weird", horizon=24)


# -- CSV round trips -----------------------------------------------------

def test_grid_profile_round_trip(tmp_path):
    ds = synth_fixture("random-walk", horizon=60, seed=4)
    src = ds.zone("Z1")
    path = tmp_path / "z1.csv"
    write_grid_profile_csv(src, path)
    back = load_grid_profile(path, FX, 60)
    assert back.zone_id == src.zone_id
    # prices pass through an AUD conversion both ways, so last-ulp only;
    # the unconverted factor columns round-trip exactly
    assert back.spot_price.values == pytest.approx(src.spot_price.values,
                                                   rel=1e-12)
    assert np.array_equal(back.mef.values, src.mef.values)
    assert np.array_equal(back.aef.values, src.aef.values)
    assert back.ef_location == src.ef_location
    assert back.arpp == src.arpp and back.rmf == src.rmf


def test_grid_profile_fx_changes_usd_prices(tmp_path):
    ds = synth_fixture("flat", horizon=24, seed=0)
    path = tmp_path / "z1.csv"
    write_grid_profile_csv(ds.zone("Z1"), path)
    half = load_grid_profile(path, 0.35, 24)
    full = load_grid_profile(path, 0.7, 24)
    assert half.spot_price.values == pytest.approx(
        full.spot_price.values * 0.5, rel=1e-12)


def test_re_profile_round_trip(tmp_path):
    ds = synth_fixture("diurnal", horizon=48, seed=5)
    path = tmp_path / "re.csv"
    write_re_profile_csv(ds.ref_wind, ds.ref_pv, path)
    wind, pv = load_re_profile(path, 48)
    assert np.array_equal(wind.values, ds.ref_wind.values)
    assert np.array_equal(pv.values, ds.ref_pv.values)


def test_dispatch_csv_shape(tmp_path, flat_grid_only):
    report, _ = flat_grid_only
    path = tmp_path / "dispatch.csv"
    write_dispatch_csv(report.dispatch, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(DISPATCH_HEADER)
    assert len(lines) == 1 + 168
    assert lines[1].split(",")[0] == "0"


def test_dispatch_csv_reads_back_bit_for_bit(tmp_path, walk_week, params):
    scenario = ScenarioSpec("sell_only", Mode.SELL_ONLY, CoLocated("Z1"), CapacitySpec())
    report, _ = optimize_plant(scenario, params, walk_week)
    written = report.dispatch
    path = tmp_path / "dispatch.csv"
    write_dispatch_csv(written, path)
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == DISPATCH_HEADER
    columns = dict(zip(header, zip(*rows)))
    assert columns.pop("hour") == tuple(str(t) for t in range(written.horizon))
    # the columns the CSV leaves out come from the dispatch itself
    read = Dispatch(**{f.name: getattr(written, f.name) for f in fields(Dispatch)
                       if f.name not in columns},
                    **{name: np.array(cells, dtype=float) for name, cells in columns.items()})
    for name in columns:
        assert getattr(read, name).tobytes() == getattr(written, name).tobytes(), name
    # a plant that stores and exports, so that every column but imports varies
    assert np.any(written.soc_kg > 0) and np.any(written.export_kw > 0)


def test_write_csv_exact_bytes(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, ["n", "x", "zone", "gap"],
              [[0, 1.0 / 3.0, "Z2", None], [12, -2.5e-20, "optimal", 7.0]])
    assert path.read_bytes() == (b"n,x,zone,gap\n0,0.3333333333333333,Z2,\n"
                                 b"12,-2.5e-20,optimal,7.0\n")
    assert not list(tmp_path.glob("*.tmp*"))


# -- strict parsing ------------------------------------------------------

def grid_csv_lines(tmp_path):
    ds = synth_fixture("flat", horizon=4, seed=0)
    path = tmp_path / "z1.csv"
    write_grid_profile_csv(ds.zone("Z1"), path)
    return path, path.read_text().splitlines()


def test_header_mismatch_cites_file(tmp_path):
    path, lines = grid_csv_lines(tmp_path)
    lines[0] = lines[0].replace("mef", "marginal")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="header"):
        load_grid_profile(path, FX, 4)


def test_bad_cell_cites_line_number(tmp_path):
    path, lines = grid_csv_lines(tmp_path)
    parts = lines[2].split(",")
    parts[1] = "oops"
    lines[2] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r":3:"):
        load_grid_profile(path, FX, 4)


def test_hours_must_be_contiguous(tmp_path):
    path, lines = grid_csv_lines(tmp_path)
    lines[2] = "7" + lines[2][1:]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="hour"):
        load_grid_profile(path, FX, 4)


def test_empty_data_rejected(tmp_path):
    path, lines = grid_csv_lines(tmp_path)
    path.write_text(lines[0] + "\n")
    with pytest.raises(ValueError, match="0 data rows, expected horizon 4"):
        load_grid_profile(path, FX, 4)


def test_horizon_enforced_when_given(tmp_path):
    path, _ = grid_csv_lines(tmp_path)
    with pytest.raises(ValueError, match="4"):
        load_grid_profile(path, FX, 8760)


def test_missing_sidecar_rejected(tmp_path):
    path, _ = grid_csv_lines(tmp_path)
    meta = path.with_suffix(".meta.json")
    meta.unlink()
    with pytest.raises(ValueError) as err:
        load_grid_profile(path, FX, 4)
    assert str(err.value) == f"{meta}: cannot open (No such file or directory)"


def test_sidecar_keys_validated(tmp_path):
    path, _ = grid_csv_lines(tmp_path)
    meta = path.with_suffix(".meta.json")
    doc = json.loads(meta.read_text())
    doc["extra"] = 1
    meta.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="extra"):
        load_grid_profile(path, FX, 4)


@pytest.mark.parametrize("doc, message", [
    (5, "sidecar must be an object"),
    (["zone_id"], "sidecar must be an object"),
    ({"zone_id": "Z1", "arpp": 0.2}, "missing keys ['ef_location', 'rmf'] in sidecar"),
])
def test_sidecar_must_be_an_object_with_every_key(tmp_path, doc, message):
    path, _ = grid_csv_lines(tmp_path)
    meta = path.with_suffix(".meta.json")
    meta.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        load_grid_profile(path, FX, 4)
    assert str(err.value) == f"{meta}: {message}"


@pytest.mark.parametrize("name", ["z1.csv", "z1.meta.json", "re.csv", "files.json"])
def test_undecodable_file_is_named(tmp_path, capsys, name):
    """A file that is not UTF-8 text (here one that ends in a 0xff byte)
    is named by the reader that opens it, and the CLI exits 1."""
    config = write_file_config(tmp_path)
    path = tmp_path / name
    path.write_bytes(path.read_bytes() + b"\xff")
    out = tmp_path / "run"
    assert main(["suite", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path}: not UTF-8 text\n"
    assert not out.exists()


def test_oversized_csv_cell_is_named(tmp_path):
    path, lines = grid_csv_lines(tmp_path)
    lines[1] += "9" * 200_000
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        load_grid_profile(path, FX, 4)
    assert str(err.value) == f"{path}: field larger than field limit (131072)"


@pytest.mark.parametrize("value, message", [
    ("x", "arpp must be a finite number, got 'x'"),
    (1.2, "invalid profile 'Z1': arpp 1.2 outside [0, 1]"),
])
def test_sidecar_values_name_the_sidecar_and_key(tmp_path, capsys, value, message):
    """A bad sidecar value, not a number or out of range, names the
    sidecar file and the key, and the CLI exits 1 with that message."""
    config = write_file_config(tmp_path)
    meta = tmp_path / "z1.meta.json"
    doc = json.loads(meta.read_text())
    doc["arpp"] = value
    meta.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        load_grid_profile(tmp_path / "z1.csv", FX, 48)
    assert str(err.value) == f"{meta}: {message}"
    assert main(["solve", "--config", str(config), "--scenario", "flexible"]) == 1
    assert capsys.readouterr().err == f"error: {meta}: {message}\n"


def test_sidecar_zone_id_must_be_a_string(tmp_path):
    write_file_config(tmp_path)
    meta = tmp_path / "z1.meta.json"
    doc = json.loads(meta.read_text())
    doc["zone_id"] = 1
    meta.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        load_grid_profile(tmp_path / "z1.csv", FX, 48)
    assert str(err.value) == f"{meta}: zone_id must be a string, got 1"


def load_one_price(tmp_path, aud_per_mwh, fx):
    """The USD/kWh price a one-hour zone CSV holding aud_per_mwh loads as."""
    path = tmp_path / "z1.csv"
    path.write_text("hour,spot_price_aud_per_mwh,mef_kgco2e_per_kwh,"
                    f"aef_kgco2e_per_kwh\n0,{aud_per_mwh},0.5,0.6\n")
    (tmp_path / "z1.meta.json").write_text(json.dumps(
        {"zone_id": "Z1", "ef_location": 0.71, "arpp": 0.2, "rmf": 0.81}))
    return load_grid_profile(path, fx, 1).spot_price.values[0]


def test_spot_price_converts_aud_per_mwh_to_usd_per_kwh(tmp_path):
    assert load_one_price(tmp_path, 95, 0.7) == pytest.approx(0.0665, abs=1e-12)


def test_zero_spot_price_loads_as_zero(tmp_path):
    assert load_one_price(tmp_path, 0, 0.7) == 0.0


def test_negative_spot_price_passes_through_unclamped(tmp_path):
    assert load_one_price(tmp_path, -50, 0.7) == pytest.approx(-0.035, abs=1e-12)


def overflow_price_at_line_3(path):
    """Set the spot price of hour 1 (line 3) of a zone CSV to 1e300, which
    overflows to inf when converted at fx 1e10."""
    lines = path.read_text().splitlines()
    parts = lines[2].split(",")
    parts[1] = "1e300"
    lines[2] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    return (f"{path}:3: spot_price value '1e300' overflows in conversion to "
            f"USD/kWh (fx_usd_per_aud 10000000000.0)")


def test_spot_price_overflow_names_csv_line_and_column(tmp_path):
    path, _ = grid_csv_lines(tmp_path)
    message = overflow_price_at_line_3(path)
    with pytest.raises(ValueError) as err:
        load_grid_profile(path, 1e10, 4)
    assert str(err.value) == message


def test_spot_price_overflow_is_an_input_error(tmp_path, capsys):
    config = write_file_config(tmp_path)
    message = overflow_price_at_line_3(tmp_path / "z1.csv")
    out = tmp_path / "run"
    assert main(["solve", "--config", str(config), "--scenario", "flexible",
                 "--fx", "1e10", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_re_profile_range_checked(tmp_path):
    """A reference output outside [0, reference capacity] is named by its
    file, column, value and hour (the hour column gives the line)."""
    config = write_file_config(tmp_path)
    path = tmp_path / "re.csv"
    written = path.read_text().splitlines()
    for column, hour, value in [(1, 2, "999999999.0"), (2, 0, "-0.5"), (2, 47, "1000.5")]:
        lines = list(written)
        parts = lines[1 + hour].split(",")
        parts[column] = value
        lines[1 + hour] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        name = ("wind_ref_kw", "pv_ref_kw")[column - 1]
        with pytest.raises(ValueError) as err:
            dataset_from_config(load_config(config))
        assert str(err.value) == (f"{path}: {name} {float(value)!r} at hour {hour} outside "
                                  f"[0, {REF_CAPS[column - 1]}] kW (reference capacity)")


# -- run configuration ----------------------------------------------------

def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_minimal_fixture_config(tmp_path):
    path = write_config(tmp_path, {"fixture": {"kind": "flat"}})
    config = load_config(path)
    assert config.horizon == 8760
    assert config.fx_usd_per_aud == 0.7
    assert config.fixture_kind == "flat"
    assert config.zone == "Z1"
    ds = dataset_from_config(
        load_config(write_config(tmp_path, {"fixture": {"kind": "flat"},
                                            "horizon": 24})))
    assert ds.horizon == 24


def test_config_unknown_key_rejected(tmp_path):
    path = write_config(tmp_path, {"fixture": {"kind": "flat"}, "turbo": 1})
    with pytest.raises(ValueError, match="turbo"):
        load_config(path)


def test_config_requires_exactly_one_source(tmp_path):
    with pytest.raises(ValueError):
        load_config(write_config(tmp_path, {}))
    with pytest.raises(ValueError):
        load_config(write_config(tmp_path, {
            "fixture": {"kind": "flat"},
            "zone_files": {"Z1": "z1.csv"},
            "re_profile_file": "re.csv"}))


def test_config_zone_files_need_re_profile(tmp_path):
    with pytest.raises(ValueError, match="re_profile_file"):
        load_config(write_config(tmp_path, {"zone_files": {"Z1": "z1.csv"}}))


def test_config_file_paths_resolved_and_checked(tmp_path):
    ds = synth_fixture("flat", horizon=24, seed=0)
    write_grid_profile_csv(ds.zone("Z1"), tmp_path / "z1.csv")
    write_re_profile_csv(ds.ref_wind, ds.ref_pv, tmp_path / "re.csv")
    path = write_config(tmp_path, {"horizon": 24,
                                   "zone_files": {"Z1": "z1.csv"},
                                   "re_profile_file": "re.csv"})
    config = load_config(path)
    dataset = dataset_from_config(config)
    assert dataset.horizon == 24
    # a missing file is reported by the reader that opens it
    missing = load_config(write_config(tmp_path, {"horizon": 24,
                                                  "zone_files": {"Z1": "nope.csv"},
                                                  "re_profile_file": "re.csv"}))
    assert missing.zone_files == {"Z1": str(tmp_path / "nope.csv")}
    with pytest.raises(ValueError) as err:
        dataset_from_config(missing)
    assert str(err.value) == f"{tmp_path / 'nope.csv'}: cannot open (No such file or directory)"


def test_config_bad_numbers_rejected(tmp_path):
    for doc in [{"fixture": {"kind": "flat"}, "horizon": 0},
                {"fixture": {"kind": "flat"}, "horizon": True},
                {"fixture": {"kind": "flat"}, "fx_usd_per_aud": -1.0}]:
        with pytest.raises(ValueError):
            load_config(write_config(tmp_path, doc))
    # NaN, infinity and booleans are refused by file and key (json.dumps
    # writes NaN and Infinity, and json.load reads them back)
    scenario = {"name": "capped", "mode": "grid"}
    for doc, key in [({"fx_usd_per_aud": math.nan}, "fx_usd_per_aud"),
                     ({"fx_usd_per_aud": math.inf}, "fx_usd_per_aud"),
                     ({"fx_usd_per_aud": True}, "fx_usd_per_aud"),
                     ({"scenarios": [dict(scenario, ei_mef_cap="nan")]}, "ei_mef_cap"),
                     ({"scenarios": [dict(scenario, capex_cap_usd=math.inf)]},
                      "capex_cap_usd"),
                     ({"scenarios": [dict(scenario, capex_cap_usd=False)]}, "capex_cap_usd"),
                     ({"capacities": {"pv_kw": {"upper": True}}}, "pv_kw.upper"),
                     ({"capacities": {"pv_kw": {"lower": -math.inf}}}, "pv_kw.lower"),
                     ({"capacities": {"pv_kw": {"fixed": math.nan}}}, "pv_kw.fixed"),
                     ({"capacities": {"pv_kw": math.inf}}, "pv_kw.fixed")]:
        path = write_config(tmp_path, {"fixture": {"kind": "flat"}, **doc})
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{key} must be "
                                             "a finite number"):
            load_config(path)
    # a config number is a JSON number, not a string that reads as one
    for doc, key, value in [({"fx_usd_per_aud": "0.7"}, "fx_usd_per_aud", "0.7"),
                            ({"scenarios": [dict(scenario, capex_cap_usd="1e9")]},
                             "scenario 'capped': capex_cap_usd", "1e9"),
                            ({"scenarios": [dict(scenario, ei_mef_cap=" 5 ")]},
                             "scenario 'capped': ei_mef_cap", " 5 "),
                            ({"capacities": {"wind_kw": {"upper": "1_000_000"}}},
                             "wind_kw.upper", "1_000_000"),
                            ({"plant": {"eta_el": "0.7"}}, "plant parameter eta_el",
                             "0.7")]:
        path = write_config(tmp_path, {"fixture": {"kind": "random-walk"}, **doc})
        with pytest.raises(ValueError) as err:
            load_config(path)
        assert str(err.value) == f"{path}: {key} must be a finite number, got {value!r}"


def test_config_capacity_forms(tmp_path):
    path = write_config(tmp_path, {
        "fixture": {"kind": "flat"},
        "capacities": {"wind_kw": 1500.0,
                       "pv_kw": {"fixed": 0.0},
                       "electrolyser_kw": {"lower": 100.0, "upper": 9000.0},
                       "storage_kg": {"lower": 0.0, "upper": None}}})
    caps = load_config(path).capacities
    assert caps.wind_kw == CapacityBound(1500.0, 1500.0)
    assert caps.pv_kw == CapacityBound(0.0, 0.0)
    assert caps.electrolyser_kw == CapacityBound(100.0, 9000.0)
    assert caps.storage_kg.upper == float("inf")


def test_config_scenarios_parsed(tmp_path):
    path = write_config(tmp_path, {
        "fixture": {"kind": "two-zone-contrast"},
        "zone": "Z1",
        "scenarios": [
            {"name": "match", "mode": "grid", "tc_interval": "yearly",
             "sell_zone": "Z2"},
            {"name": "island", "mode": "offgrid"},
        ]})
    config = load_config(path)
    match = config.scenarios[0]
    assert match.geo == Split(sell_zone="Z2", buy_zone="Z1")
    assert match.tc_interval is TcInterval.YEARLY
    assert config.scenarios[1].mode.value == "offgrid"


def test_config_scenario_names_are_file_name_safe(tmp_path):
    """A scenario name is part of its output files' names, so only
    letters, digits, '_' and '-' are accepted."""
    path = write_config(tmp_path, {
        "fixture": {"kind": "flat"},
        "scenarios": [{"name": "Cap_2-b", "mode": "grid"}]})
    assert load_config(path).scenarios[0].name == "Cap_2-b"
    for name in ["../escaped", "a/b", "a\\b", "", ".", "a.b", "a b", "caf\u00e9", 5, None]:
        path = write_config(tmp_path, {
            "fixture": {"kind": "flat"},
            "scenarios": [{"name": name, "mode": "grid"}]})
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: scenario name "
                                             f"{re.escape(repr(name))} must be"):
            load_config(path)


def test_config_duplicate_scenario_names_rejected(tmp_path):
    path = write_config(tmp_path, {
        "fixture": {"kind": "flat"},
        "scenarios": [{"name": "a", "mode": "grid"},
                      {"name": "a", "mode": "offgrid"}]})
    with pytest.raises(ValueError, match="duplicate"):
        load_config(path)


def test_config_buy_zone_requires_sell_zone(tmp_path):
    path = write_config(tmp_path, {
        "fixture": {"kind": "two-zone-contrast"},
        "scenarios": [{"name": "a", "mode": "grid", "buy_zone": "Z2"}]})
    with pytest.raises(ValueError, match="sell_zone"):
        load_config(path)


def test_dataset_from_config_checks_zone_exists(tmp_path):
    path = write_config(tmp_path, {"fixture": {"kind": "flat"},
                                   "zone": "Z9"})
    with pytest.raises(ValueError, match="Z9"):
        dataset_from_config(load_config(path))


# -- JSON output ------------------------------------------------------------

def test_dump_json_is_stable(tmp_path):
    path = tmp_path / "out.json"
    dump_json({"b": 1, "a": [1.5, None]}, path)
    text = path.read_text()
    assert text == '{\n  "a": [\n    1.5,\n    null\n  ],\n  "b": 1\n}\n'
    assert not list(tmp_path.glob("*.tmp*"))


def test_dump_json_rejects_nan(tmp_path):
    with pytest.raises(ValueError):
        dump_json({"x": float("nan")}, tmp_path / "bad.json")
