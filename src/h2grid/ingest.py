"""Everything that crosses the process boundary: CSV profile formats,
synthetic fixture generation, run configuration, and report
serialization. All files are UTF-8, decimal point '.', no thousands
separators; parse errors carry the file path and 1-based line number.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .certification import EmissionsReport
from .economics import CostBreakdown, SolutionReport
from .plant import Dispatch
from .types import (
    CapacitySpec,
    CoLocated,
    Dataset,
    Fixed,
    Free,
    GridProfile,
    HourlySeries,
    Mode,
    PlantParameters,
    ScenarioSpec,
    Split,
    TcInterval,
    Unit,
)

GRID_HEADER = ["hour", "spot_price_aud_per_mwh", "mef_kgco2e_per_kwh",
               "aef_kgco2e_per_kwh"]
RE_HEADER = ["hour", "wind_ref_kw", "pv_ref_kw"]
DISPATCH_HEADER = ["hour", "gen_wind_kw", "gen_pv_kw", "e_el_kw", "e_comp1_kw",
                   "e_comp2_kw", "import_kw", "export_kw", "curtail_kw",
                   "h_comp1_kg", "h_comp2_kg", "h_from_store_kg", "soc_kg"]
FIXTURE_KINDS = ("flat", "diurnal", "two-zone-contrast", "random-walk")

SCHEMA_VERSION = 1

_META_KEYS = {"zone_id", "ef_location", "arpp", "rmf"}


# ---------------------------------------------------------------- CSV in

def _read_rows(path, header: list[str]) -> list[tuple[int, list[str]]]:
    """Rows of a strict CSV: exact header, fixed column count. Returns
    (1-based line number, cells) pairs for the data rows."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"{path}: cannot open ({exc.strerror})") from None
    with fh:
        reader = csv.reader(fh)
        try:
            got = next(reader)
        except StopIteration:
            raise ValueError(f"{path}:1: empty file, expected header "
                             f"{','.join(header)}") from None
        if got != header:
            raise ValueError(f"{path}:1: header {','.join(got)!r} does not match "
                             f"expected {','.join(header)!r}")
        rows = []
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} "
                                 f"columns, got {len(cells)}")
            rows.append((lineno, cells))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return rows


def _parse_cell(text: str, path, lineno: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: non-numeric {column} value "
                         f"{text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{path}:{lineno}: non-finite {column} value {text!r}")
    return value


def _check_hours(rows, path) -> None:
    for i, (lineno, cells) in enumerate(rows):
        if cells[0] != str(i):
            raise ValueError(f"{path}:{lineno}: hour column reads {cells[0]!r}, "
                             f"expected {i} (rows must be 0..T-1 in order)")


def _check_length(n: int, horizon, path) -> None:
    if horizon is not None and n != horizon:
        raise ValueError(f"{path}: {n} data rows, expected horizon {horizon}")


def load_grid_profile(path, fx_usd_per_aud: float = 0.7,
                      horizon: int | None = None) -> GridProfile:
    """Read one zone: hourly CSV plus a '<stem>.meta.json' sidecar holding
    zone_id, ef_location, arpp, rmf. Prices convert from AUD/MWh."""
    rows = _read_rows(path, GRID_HEADER)
    _check_length(len(rows), horizon, path)
    _check_hours(rows, path)
    # AUD/MWh -> USD/kWh; negative spot prices pass through unclamped
    price = np.array([_parse_cell(c[1], path, ln, "spot_price") * fx_usd_per_aud / 1000.0
                      for ln, c in rows])
    mef = np.array([_parse_cell(c[2], path, ln, "mef") for ln, c in rows])
    aef = np.array([_parse_cell(c[3], path, ln, "aef") for ln, c in rows])

    meta_path = Path(path).with_suffix(".meta.json")
    if not meta_path.exists():
        raise ValueError(f"{path}: missing metadata sidecar {meta_path}")
    with open(meta_path, encoding="utf-8") as fh:
        try:
            meta = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{meta_path}:{exc.lineno}: invalid JSON "
                             f"({exc.msg})") from None
    if set(meta) != _META_KEYS:
        raise ValueError(f"{meta_path}: keys {sorted(meta)} do not match "
                         f"required {sorted(_META_KEYS)}")
    factors = {key: _number(meta[key], str(meta_path), key)
               for key in ("ef_location", "arpp", "rmf")}
    try:
        return GridProfile(
            zone_id=str(meta["zone_id"]),
            spot_price=HourlySeries(price, Unit.USD_PER_KWH),
            mef=HourlySeries(mef, Unit.KGCO2E_PER_KWH),
            aef=HourlySeries(aef, Unit.KGCO2E_PER_KWH),
            **factors,
        )
    except ValueError as exc:  # a factor out of range, named by its key
        raise ValueError(f"{meta_path}: {exc}") from None


def load_re_profile(path, horizon: int | None = None,
                    c_ref_wind_kw: float = 320_000.0,
                    c_ref_pv_kw: float = 1000.0) -> tuple[HourlySeries, HourlySeries]:
    """Read the reference renewable output pair; values must stay within
    the reference capacities the scaling is defined against."""
    rows = _read_rows(path, RE_HEADER)
    _check_length(len(rows), horizon, path)
    _check_hours(rows, path)
    wind, pv = [], []
    for lineno, cells in rows:
        w = _parse_cell(cells[1], path, lineno, "wind_ref_kw")
        p = _parse_cell(cells[2], path, lineno, "pv_ref_kw")
        if not 0.0 <= w <= c_ref_wind_kw:
            raise ValueError(f"{path}:{lineno}: wind_ref_kw {w} outside "
                             f"[0, {c_ref_wind_kw}] (reference capacity)")
        if not 0.0 <= p <= c_ref_pv_kw:
            raise ValueError(f"{path}:{lineno}: pv_ref_kw {p} outside "
                             f"[0, {c_ref_pv_kw}] (reference capacity)")
        wind.append(w)
        pv.append(p)
    return (HourlySeries(np.array(wind), Unit.KW),
            HourlySeries(np.array(pv), Unit.KW))


# --------------------------------------------------------------- CSV out

def atomic_write(path, text: str) -> None:
    """Write text to path through a temporary file beside it, so that path
    never holds a partly written file."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_grid_profile_csv(profile: GridProfile, path,
                           fx_usd_per_aud: float = 0.7) -> None:
    """Inverse of load_grid_profile (prices converted back to AUD/MWh);
    also writes the metadata sidecar."""
    lines = [",".join(GRID_HEADER)]
    for t in range(len(profile.spot_price)):
        aud = float(profile.spot_price.values[t]) * 1000.0 / fx_usd_per_aud
        lines.append(f"{t},{aud!r},{float(profile.mef.values[t])!r},"
                     f"{float(profile.aef.values[t])!r}")
    atomic_write(path, "\n".join(lines) + "\n")
    meta = {"zone_id": profile.zone_id, "ef_location": profile.ef_location,
            "arpp": profile.arpp, "rmf": profile.rmf}
    dump_json(meta, Path(path).with_suffix(".meta.json"))


def write_re_profile_csv(ref_wind: HourlySeries, ref_pv: HourlySeries, path) -> None:
    lines = [",".join(RE_HEADER)]
    for t in range(len(ref_wind)):
        lines.append(f"{t},{float(ref_wind.values[t])!r},"
                     f"{float(ref_pv.values[t])!r}")
    atomic_write(path, "\n".join(lines) + "\n")


def write_dispatch_csv(dispatch: Dispatch, path) -> None:
    """Hourly flows of a solved scenario, one row per hour."""
    cols = [dispatch.gen_wind_kw, dispatch.gen_pv_kw, dispatch.e_el_kw,
            dispatch.e_comp1_kw, dispatch.e_comp2_kw, dispatch.import_kw,
            dispatch.export_kw, dispatch.curtail_kw, dispatch.h_comp1_kg,
            dispatch.h_comp2_kg, dispatch.h_from_store_kg, dispatch.soc_kg]
    # tolist() yields Python floats, so each cell is the repr of a float
    lines = [",".join(DISPATCH_HEADER)]
    lines.extend(",".join(map(repr, row))
                 for row in zip(range(dispatch.horizon), *(c.tolist() for c in cols)))
    atomic_write(path, "\n".join(lines) + "\n")


# ------------------------------------------------------------- fixtures

def _clipped_walk(rng, n: int, start: float, step: float,
                  lo: float, hi: float) -> np.ndarray:
    out = np.empty(n)
    x = start
    for i in range(n):
        x = min(max(x + rng.normal(0.0, step), lo), hi)
        out[i] = x
    return out


def _zone(zone_id: str, price, mef, aef, ef: float,
          arpp: float = 0.1872, rmf: float = 0.81) -> GridProfile:
    return GridProfile(
        zone_id=zone_id,
        spot_price=HourlySeries(price, Unit.USD_PER_KWH),
        mef=HourlySeries(mef, Unit.KGCO2E_PER_KWH),
        aef=HourlySeries(aef, Unit.KGCO2E_PER_KWH),
        ef_location=ef, arpp=arpp, rmf=rmf,
    )


def synth_fixture(kind: str, horizon: int, seed: int = 0) -> Dataset:
    """Deterministic synthetic dataset per (kind, horizon, seed).

    flat: constants everywhere; the workhorse for closed-form checks.
    diurnal: midday solar bell, evening price peak, emission factors
        anticorrelated with solar output.
    two-zone-contrast: two flat zones with strongly different marginal
        factors (buy side 0.52, sell side 0.19 kgCO2e/kWh).
    random-walk: clipped random walks for prices and factors (prices may
        go negative), stochastic wind, solar bell with random daily
        amplitude.
    """
    if kind not in FIXTURE_KINDS:
        raise ValueError(f"unknown fixture kind {kind!r}, expected one of "
                         f"{FIXTURE_KINDS}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    rng = np.random.default_rng(seed)
    t = np.arange(horizon)
    hod = t % 24
    pv_bell = np.clip(np.sin((hod - 6) * np.pi / 12.0), 0.0, None)
    w_cap, p_cap = 320_000.0, 1000.0

    if kind == "flat":
        price = np.full(horizon, 0.056)
        zones = {"Z1": _zone("Z1", price, np.full(horizon, 0.5),
                             np.full(horizon, 0.6), ef=0.71)}
        wind = np.full(horizon, 0.40 * w_cap)
        pv = np.full(horizon, 0.25 * p_cap)
    elif kind == "diurnal":
        phase = rng.uniform(0.0, 2.0 * np.pi)
        evening = np.exp(-((hod - 18.0) ** 2) / 8.0)
        price = 0.05 + 0.05 * evening - 0.015 * pv_bell
        mef = 0.75 - 0.30 * pv_bell
        aef = 0.65 - 0.20 * pv_bell
        zones = {"Z1": _zone("Z1", price, mef, aef, ef=0.66)}
        wind = (0.35 + 0.10 * np.sin(2.0 * np.pi * t / 24.0 + phase)) * w_cap
        pv = pv_bell * p_cap
    elif kind == "two-zone-contrast":
        price = np.full(horizon, 0.056)
        zones = {
            "Z1": _zone("Z1", price, np.full(horizon, 0.52),
                        np.full(horizon, 0.55), ef=0.66),
            "Z2": _zone("Z2", price.copy(), np.full(horizon, 0.19),
                        np.full(horizon, 0.22), ef=0.15),
        }
        wind = np.full(horizon, 0.45 * w_cap)
        pv = pv_bell * p_cap
    else:  # random-walk
        price = _clipped_walk(rng, horizon, 0.05, 0.004, -0.02, 0.30)
        mef = _clipped_walk(rng, horizon, 0.60, 0.03, 0.20, 1.00)
        aef = _clipped_walk(rng, horizon, 0.55, 0.02, 0.20, 0.90)
        zones = {"Z1": _zone("Z1", price, mef, aef, ef=0.71)}
        wind_cf = _clipped_walk(rng, horizon, 0.50, 0.05, 0.05, 0.95)
        wind = wind_cf * w_cap
        n_days = horizon // 24 + 1
        amp = np.repeat(rng.uniform(0.4, 1.0, n_days), 24)[:horizon]
        pv = pv_bell * amp * p_cap

    return Dataset(zones=zones,
                   ref_wind=HourlySeries(wind, Unit.KW),
                   ref_pv=HourlySeries(pv, Unit.KW))


# ---------------------------------------------------------------- config

_TOP_KEYS = {"horizon", "fx_usd_per_aud", "out_dir", "zone", "zone_files",
             "re_profile_file", "fixture", "plant", "capacities", "scenarios"}
_FIXTURE_KEYS = {"kind", "seed"}
_SCENARIO_KEYS = {"name", "mode", "tc_interval", "ei_mef_cap", "capex_cap_usd",
                  "sell_zone", "buy_zone", "capacities"}
_CAP_FIELDS = {"wind_kw", "pv_kw", "electrolyser_kw", "storage_kg"}
_CAP_SUBKEYS = {"fixed", "lower", "upper"}
_SCENARIO_NAME = re.compile(r"[A-Za-z0-9_-]+")


@dataclass
class RunConfig:
    """Validated run configuration; paths are resolved against the config
    file's directory."""

    horizon: int
    fx_usd_per_aud: float
    out_dir: str
    zone: str
    zone_files: dict[str, str]
    re_profile_file: str | None
    fixture_kind: str | None
    fixture_seed: int
    params: PlantParameters
    capacities: CapacitySpec
    scenarios: list[ScenarioSpec] = field(default_factory=list)


def _number(value, where: str, key: str) -> float:
    """value as a finite float, or a ValueError that names where and key.
    A boolean is not a number here, and NaN or infinity is not finite."""
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise ValueError(f"{where}: {key} must be a finite number, got {value!r}")
    return number


def _parse_caps(doc, where: str) -> CapacitySpec:
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: capacities must be an object")
    unknown = set(doc) - _CAP_FIELDS
    if unknown:
        raise ValueError(f"{where}: unknown capacity fields {sorted(unknown)}")
    kwargs = {}
    for name, val in doc.items():
        if isinstance(val, (int, float)) and not isinstance(val, bool):
            val = {"fixed": val}
        if not isinstance(val, dict):
            raise ValueError(f"{where}: {name} must be a number or an object")
        extra = set(val) - _CAP_SUBKEYS
        if extra:
            raise ValueError(f"{where}: unknown keys {sorted(extra)} in {name}")
        if "fixed" in val and len(val) > 1:
            raise ValueError(f"{where}: {name} mixes 'fixed' with bounds")
        bound = {key: math.inf if key == "upper" and v is None
                 else _number(v, where, f"{name}.{key}") for key, v in val.items()}
        try:
            kwargs[name] = (Fixed(bound["fixed"]) if "fixed" in bound else
                            Free(bound.get("lower", 0.0), bound.get("upper", math.inf)))
        except ValueError as exc:
            raise ValueError(f"{where}: {name}: {exc}") from None
    return CapacitySpec(**kwargs)


def _parse_scenario(doc, default_zone: str, default_caps: CapacitySpec,
                    where: str) -> ScenarioSpec:
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: scenario entries must be objects")
    unknown = set(doc) - _SCENARIO_KEYS
    if unknown:
        raise ValueError(f"{where}: unknown scenario keys {sorted(unknown)}")
    if "name" not in doc or "mode" not in doc:
        raise ValueError(f"{where}: scenario needs 'name' and 'mode'")
    name = doc["name"]
    if not (isinstance(name, str) and _SCENARIO_NAME.fullmatch(name)):
        # a name is part of each output file's name, so it may hold no path
        raise ValueError(f"{where}: scenario name {name!r} must be letters, digits, "
                         f"'_' or '-'")
    try:
        mode = Mode(doc["mode"])
    except ValueError:
        raise ValueError(f"{where}: unknown mode {doc['mode']!r}, expected one "
                         f"of {[m.value for m in Mode]}") from None
    tc = None
    if doc.get("tc_interval") is not None:
        try:
            tc = TcInterval(doc["tc_interval"])
        except ValueError:
            raise ValueError(f"{where}: unknown tc_interval "
                             f"{doc['tc_interval']!r}") from None
    if "sell_zone" in doc:
        geo = Split(sell_zone=str(doc["sell_zone"]),
                    buy_zone=str(doc.get("buy_zone", default_zone)))
    elif "buy_zone" in doc:
        raise ValueError(f"{where}: buy_zone without sell_zone")
    else:
        geo = CoLocated(default_zone)
    caps = (_parse_caps(doc["capacities"], f"{where} ({name})")
            if "capacities" in doc else default_caps)
    ei_cap, capex_cap = (None if doc.get(key) is None
                         else _number(doc[key], f"{where}: scenario {name!r}", key)
                         for key in ("ei_mef_cap", "capex_cap_usd"))
    try:
        return ScenarioSpec(name=name, mode=mode, geo=geo, capacities=caps, tc_interval=tc,
                            ei_mef_cap=ei_cap, capex_cap_usd=capex_cap)
    except ValueError as exc:
        raise ValueError(f"{where}: scenario {name!r}: {exc}") from None


def load_config(path) -> RunConfig:
    """Parse and validate a JSON run configuration. Unknown keys are
    rejected; referenced files must exist."""
    base = Path(path).parent
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"{path}: cannot open ({exc.strerror})") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ValueError(f"{path}: unknown keys {sorted(unknown)}")
    for key, kind, what in (("out_dir", str, "a path"), ("re_profile_file", str, "a path"),
                            ("zone_files", dict, "an object"), ("scenarios", list, "a list")):
        if key in doc and not isinstance(doc[key], kind):
            raise ValueError(f"{path}: {key} must be {what}, got {doc[key]!r}")

    horizon = doc.get("horizon", 8760)
    if not isinstance(horizon, int) or isinstance(horizon, bool) or horizon < 1:
        raise ValueError(f"{path}: horizon must be a positive integer")
    fx = _number(doc.get("fx_usd_per_aud", 0.7), path, "fx_usd_per_aud")
    if fx <= 0:
        raise ValueError(f"{path}: fx_usd_per_aud must be positive")

    fixture = doc.get("fixture")
    fixture_kind, fixture_seed = None, 0
    if fixture is not None:
        if not isinstance(fixture, dict) or set(fixture) - _FIXTURE_KEYS:
            raise ValueError(f"{path}: fixture accepts keys "
                             f"{sorted(_FIXTURE_KEYS)} only")
        fixture_kind = str(fixture.get("kind", ""))
        if fixture_kind not in FIXTURE_KINDS:
            raise ValueError(f"{path}: fixture kind {fixture_kind!r} not in "
                             f"{FIXTURE_KINDS}")
        fixture_seed = fixture.get("seed", 0)
        if (not isinstance(fixture_seed, int) or isinstance(fixture_seed, bool)
                or fixture_seed < 0):
            raise ValueError(f"{path}: fixture.seed must be a non-negative integer, "
                             f"got {fixture_seed!r}")

    # structural checks first, then file existence
    zone_file_doc = doc.get("zone_files") or {}
    re_file = doc.get("re_profile_file")
    if fixture_kind is None and not zone_file_doc:
        raise ValueError(f"{path}: provide either 'fixture' or 'zone_files'")
    if fixture_kind is not None and zone_file_doc:
        raise ValueError(f"{path}: 'fixture' and 'zone_files' are mutually "
                         f"exclusive")
    if zone_file_doc and re_file is None:
        raise ValueError(f"{path}: zone_files requires re_profile_file")

    zone_files = {}
    for zone_id, rel in zone_file_doc.items():
        if not isinstance(rel, str):
            raise ValueError(f"{path}: zone_files.{zone_id} must be a path, got {rel!r}")
        full = str(base / rel)
        if not os.path.exists(full):
            raise ValueError(f"{path}: zone file {full} does not exist")
        meta = Path(full).with_suffix(".meta.json")
        if not meta.exists():
            raise ValueError(f"{path}: metadata sidecar {meta} does not exist")
        zone_files[str(zone_id)] = full
    if re_file is not None:
        re_file = str(base / re_file)
        if not os.path.exists(re_file):
            raise ValueError(f"{path}: re_profile_file {re_file} does not exist")

    plant_doc = doc.get("plant", {})
    if not isinstance(plant_doc, dict):
        raise ValueError(f"{path}: plant must be an object")
    unknown = set(plant_doc) - set(PlantParameters().__dict__)
    if unknown:
        raise ValueError(f"{path}: unknown plant parameters {sorted(unknown)}")
    for key, value in plant_doc.items():
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            raise ValueError(f"{path}: plant parameter {key} must be a finite number, "
                             f"got {value!r}")
    try:
        params = PlantParameters(**plant_doc)
    except ValueError as exc:
        raise ValueError(f"{path}: invalid plant parameters: {exc}") from None

    caps = _parse_caps(doc.get("capacities", {}), str(path))
    zone = str(doc.get("zone", "Z1"))
    scenarios = [_parse_scenario(s, zone, caps, str(path))
                 for s in doc.get("scenarios", [])]
    names = [s.name for s in scenarios]
    if len(names) != len(set(names)):
        raise ValueError(f"{path}: duplicate scenario names")

    return RunConfig(
        horizon=horizon, fx_usd_per_aud=fx,
        out_dir=str(base / doc.get("out_dir", "out")), zone=zone,
        zone_files=zone_files, re_profile_file=re_file,
        fixture_kind=fixture_kind, fixture_seed=fixture_seed,
        params=params, capacities=caps, scenarios=scenarios)


def dataset_from_config(config: RunConfig) -> Dataset:
    """The configuration's dataset, checked against the configuration:
    reference output within the plant's reference capacities (a CSV
    profile is checked line by line as it is read) and every zone it
    names present."""
    if config.fixture_kind is not None:
        dataset = synth_fixture(config.fixture_kind, config.horizon,
                                config.fixture_seed)
        for name, series, cap in (("ref_wind", dataset.ref_wind, config.params.c_ref_wind_kw),
                                  ("ref_pv", dataset.ref_pv, config.params.c_ref_pv_kw)):
            if np.any(series.values < 0) or np.any(series.values > cap):
                raise ValueError(f"{name} outside [0, {cap}] kW")
    else:
        zones = {}
        for zone_id, file_path in config.zone_files.items():
            profile = load_grid_profile(file_path, config.fx_usd_per_aud,
                                        config.horizon)
            if profile.zone_id != zone_id:
                raise ValueError(f"{file_path}: sidecar zone_id "
                                 f"{profile.zone_id!r} does not match config "
                                 f"key {zone_id!r}")
            zones[zone_id] = profile
        ref_wind, ref_pv = load_re_profile(
            config.re_profile_file, config.horizon,
            config.params.c_ref_wind_kw, config.params.c_ref_pv_kw)
        dataset = Dataset(zones=zones, ref_wind=ref_wind, ref_pv=ref_pv)
    if config.zone not in dataset.zones:
        raise ValueError(f"configured zone {config.zone!r} not in dataset "
                         f"zones {sorted(dataset.zones)}")
    for scenario in config.scenarios:
        for key, zone in asdict(scenario.geo).items():
            if zone not in dataset.zones:
                raise ValueError(f"scenario {scenario.name!r}: {key} {zone!r} not in "
                                 f"dataset zones {sorted(dataset.zones)}")
    return dataset


# --------------------------------------------------------------- reports

def _bound_json(bound) -> dict:
    lo, hi = bound.as_bounds()
    if lo == hi:
        return {"fixed": lo}
    return {"lower": lo, "upper": None if math.isinf(hi) else hi}


def _scenario_json(s: ScenarioSpec) -> dict:
    return {
        "name": s.name,
        "mode": s.mode.value,
        "tc_interval": None if s.tc_interval is None else s.tc_interval.value,
        "ei_mef_cap_kgco2e_per_kgh2": s.ei_mef_cap,
        "capex_cap_usd": s.capex_cap_usd,
        "geo": asdict(s.geo),
        "capacity_bounds": {
            "wind_kw": _bound_json(s.capacities.wind_kw),
            "pv_kw": _bound_json(s.capacities.pv_kw),
            "electrolyser_kw": _bound_json(s.capacities.electrolyser_kw),
            "storage_kg": _bound_json(s.capacities.storage_kg),
        },
    }


def emissions_to_dict(e: EmissionsReport) -> dict:
    return {
        "e_market_kgco2e": e.e_market_kg,
        "ei_market_kgco2e_per_kgh2": e.ei_market,
        "ei_recs_kgco2e_per_kgh2": e.ei_recs,
        "e_location_kgco2e": e.e_location_kg,
        "ei_location_kgco2e_per_kgh2": e.ei_location,
        "e_mef_kgco2e": e.e_mef_kg,
        "ei_mef_kgco2e_per_kgh2": e.ei_mef,
        "e_aef_kgco2e": e.e_aef_kg,
        "ei_aef_kgco2e_per_kgh2": e.ei_aef,
        "d_market": e.d_market,
        "d_location": e.d_location,
        "h2_kg": e.annual_h2_kg,
        "recs_generated_mwh": e.recs_generated_mwh,
    }


def breakdown_to_dict(b: CostBreakdown) -> dict:
    return {
        "capex_annualized_usd": dict(sorted(b.capex_annualized_usd.items())),
        "om_usd": dict(sorted(b.om_usd.items())),
        "grid_electricity_usd": b.grid_electricity_usd,
        "annual_h2_kg": b.annual_h2_kg,
        "lcoh_usd_per_kg": b.lcoh_usd_per_kg,
    }


def report_to_dict(report: SolutionReport, breakdown: CostBreakdown | None,
                   emissions: EmissionsReport | None,
                   scenario: ScenarioSpec | None = None,
                   inputs: dict | None = None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "scenario_name": report.scenario_name,
        "status": report.status.value,
        "message": report.message,
        "converged": report.converged,
        "iterations": report.iterations,
        "storage_tech": (None if report.storage_tech is None
                         else report.storage_tech.value),
        "storage_unit_cost_usd_per_kg": _num(report.storage_unit_cost_usd_per_kg),
        "objective_usd": _num(report.objective_usd),
        "annual_h2_kg": _num(report.annual_h2_kg),
        "capacities": report.capacities or None,
        "lcoh_usd_per_kg": None if breakdown is None else breakdown.lcoh_usd_per_kg,
        "cost_breakdown": None if breakdown is None else breakdown_to_dict(breakdown),
        "emissions": None if emissions is None else emissions_to_dict(emissions),
    }
    if scenario is not None:
        doc["scenario"] = _scenario_json(scenario)
    if inputs is not None:
        doc["inputs"] = inputs
    return doc


def _num(x: float):
    return None if (x is None or math.isnan(x)) else x


def dump_json(obj, path) -> None:
    """Canonical JSON serialization: sorted keys, two-space indent,
    trailing newline, strict floats. Deterministic for identical inputs."""
    atomic_write(path, json.dumps(obj, sort_keys=True, indent=2,
                                  allow_nan=False) + "\n")


def write_report(report: SolutionReport, breakdown: CostBreakdown | None,
                 emissions: EmissionsReport | None, path,
                 scenario: ScenarioSpec | None = None,
                 inputs: dict | None = None) -> None:
    dump_json(report_to_dict(report, breakdown, emissions, scenario, inputs), path)
