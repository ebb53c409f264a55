"""Everything that crosses the process boundary: CSV profile formats,
synthetic fixture generation, run configuration, and report
serialization. All files are UTF-8, decimal point '.', no thousands
separators; parse errors carry the file path and 1-based line number.
Every CSV table is written by write_csv, and every profile is read by
_read_rows.

Each outside value is checked once, by the reader or rule that owns it:
_read names a file it cannot open or decode, _object checks every JSON
object's keys, _number every config number, _integer the horizon and the
fixture seed, _string every zone name and the fixture kind, RunConfig
the ranges of the values a command-line flag may replace and that the
horizon's hydrogen, its VOM and each emission budget are finite, and
dataset_from_config the reference output against the reference
capacities.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .certification import EmissionsReport
from .economics import CostBreakdown, SolutionReport
from .plant import Dispatch
from .types import (
    CapacityBound,
    CapacitySpec,
    CoLocated,
    Dataset,
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

# the exchange rate of a config that sets no fx_usd_per_aud, and of
# fixture CSVs; prices are stored in AUD/MWh and modelled in USD/kWh
DEFAULT_FX_USD_PER_AUD = 0.7


# ---------------------------------------------------------------- CSV in

def _read(path, parse):
    """parse(fh) of a UTF-8 text file, or a ValueError that names the
    file when it cannot be opened, decoded or split into CSV fields."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return parse(fh)
    except OSError as exc:
        raise ValueError(f"{path}: cannot open ({exc.strerror})") from None
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not UTF-8 text") from None
    except csv.Error as exc:  # a cell past the csv module's field size limit
        raise ValueError(f"{path}: {exc}") from None


def _read_json(path):
    """The JSON document in a UTF-8 file (see _read)."""
    try:
        return _read(path, json.load)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from None


def _read_rows(path, header: list[str], horizon: int) -> list[tuple[int, list[str]]]:
    """Rows of a strict CSV: exact header, fixed column count, and
    horizon data rows whose hour column reads 0..horizon-1 in order.
    Returns (1-based line number, cells) pairs for the data rows."""
    lines = _read(path, lambda fh: list(csv.reader(fh)))
    if not lines:
        raise ValueError(f"{path}:1: empty file, expected header {','.join(header)}")
    if lines[0] != header:
        raise ValueError(f"{path}:1: header {','.join(lines[0])!r} does not match "
                         f"expected {','.join(header)!r}")
    rows = [(lineno, cells) for lineno, cells in enumerate(lines[1:], start=2) if cells]
    for lineno, cells in rows:
        if len(cells) != len(header):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} "
                             f"columns, got {len(cells)}")
    if len(rows) != horizon:
        raise ValueError(f"{path}: {len(rows)} data rows, expected horizon {horizon}")
    for i, (lineno, cells) in enumerate(rows):
        if cells[0] != str(i):
            raise ValueError(f"{path}:{lineno}: hour column reads {cells[0]!r}, "
                             f"expected {i} (rows must be 0..T-1 in order)")
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


def _price(text: str, path, lineno: int, fx_usd_per_aud: float) -> float:
    """One spot price cell, AUD/MWh -> USD/kWh; negative prices pass
    through unclamped, a price that overflows in conversion is an error."""
    price = _parse_cell(text, path, lineno, "spot_price") * fx_usd_per_aud / 1000.0
    if not math.isfinite(price):
        raise ValueError(f"{path}:{lineno}: spot_price value {text!r} overflows in "
                         f"conversion to USD/kWh (fx_usd_per_aud {fx_usd_per_aud!r})")
    return price


def load_grid_profile(path, fx_usd_per_aud: float, horizon: int) -> GridProfile:
    """Read one zone: hourly CSV plus a '<stem>.meta.json' sidecar holding
    zone_id, ef_location, arpp, rmf. Prices convert from AUD/MWh."""
    rows = _read_rows(path, GRID_HEADER, horizon)
    price = HourlySeries(np.array([_price(c[1], path, ln, fx_usd_per_aud) for ln, c in rows]),
                         Unit.USD_PER_KWH)
    mef = HourlySeries(np.array([_parse_cell(c[2], path, ln, "mef") for ln, c in rows]),
                       Unit.KGCO2E_PER_KWH)
    aef = HourlySeries(np.array([_parse_cell(c[3], path, ln, "aef") for ln, c in rows]),
                       Unit.KGCO2E_PER_KWH)

    meta_path = Path(path).with_suffix(".meta.json")
    meta = _object(_read_json(meta_path), _META_KEYS, meta_path, "sidecar")
    if len(meta) < len(_META_KEYS):
        raise ValueError(f"{meta_path}: missing keys {sorted(_META_KEYS - set(meta))} "
                         f"in sidecar")
    factors = {key: _number(meta[key], meta_path, key)
               for key in ("ef_location", "arpp", "rmf")}
    zone_id = _string(meta["zone_id"], meta_path, "zone_id")
    try:
        return GridProfile(zone_id=zone_id, spot_price=price, mef=mef, aef=aef, **factors)
    except ValueError as exc:  # a factor out of range, named by its key
        raise ValueError(f"{meta_path}: {exc}") from None


def load_re_profile(path, horizon: int) -> tuple[HourlySeries, HourlySeries]:
    """Read the reference renewable output pair; dataset_from_config
    holds it within the plant's reference capacities."""
    rows = _read_rows(path, RE_HEADER, horizon)
    wind = np.array([_parse_cell(c[1], path, ln, "wind_ref_kw") for ln, c in rows])
    pv = np.array([_parse_cell(c[2], path, ln, "pv_ref_kw") for ln, c in rows])
    return HourlySeries(wind, Unit.KW), HourlySeries(pv, Unit.KW)


# --------------------------------------------------------------- CSV out

def atomic_write(path, text: str) -> None:
    """Write text to path through a temporary file beside it, so that path
    never holds a partly written file."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_csv(path, header: list[str], rows) -> None:
    """A strict CSV table: the header line, then one line per row, each
    ending in a newline. A str cell is written as itself, None as an
    empty cell, and a number as its repr (an int as its digits, a float
    at full precision, so that it reads back bit for bit). Numbers must
    be Python ints and floats, as tolist() gives them: the repr of a
    numpy scalar names its type."""
    lines = [",".join(header)]
    # the cell rule inline: a function call per cell slows an hourly table
    lines.extend(",".join(["" if v is None else v if isinstance(v, str) else repr(v)
                           for v in row]) for row in rows)
    atomic_write(path, "\n".join(lines) + "\n")


def write_grid_profile_csv(profile: GridProfile, path) -> None:
    """Inverse of load_grid_profile at the default rate (prices converted
    back to AUD/MWh at DEFAULT_FX_USD_PER_AUD); also writes the metadata
    sidecar."""
    aud = profile.spot_price.values * 1000.0 / DEFAULT_FX_USD_PER_AUD
    write_csv(path, GRID_HEADER, zip(range(aud.size), aud.tolist(),
                                     profile.mef.values.tolist(),
                                     profile.aef.values.tolist()))
    meta = {"zone_id": profile.zone_id, "ef_location": profile.ef_location,
            "arpp": profile.arpp, "rmf": profile.rmf}
    dump_json(meta, Path(path).with_suffix(".meta.json"))


def write_re_profile_csv(ref_wind: HourlySeries, ref_pv: HourlySeries, path) -> None:
    write_csv(path, RE_HEADER, zip(range(len(ref_wind)), ref_wind.values.tolist(),
                                   ref_pv.values.tolist()))


def write_dispatch_csv(dispatch: Dispatch, path) -> None:
    """Hourly flows of a solved scenario, one row per hour; each column
    after the hour is the Dispatch field of its name."""
    cols = (getattr(dispatch, name).tolist() for name in DISPATCH_HEADER[1:])
    write_csv(path, DISPATCH_HEADER, zip(range(dispatch.horizon), *cols))


# ------------------------------------------------------------- fixtures

def _clipped_walk(rng, n: int, start: float, step: float,
                  lo: float, hi: float) -> np.ndarray:
    out = np.empty(n)
    x = start
    for i in range(n):
        x = min(max(x + rng.normal(0.0, step), lo), hi)
        out[i] = x
    return out


def _zone(zone_id: str, price, mef, aef, ef: float) -> GridProfile:
    return GridProfile(
        zone_id=zone_id,
        spot_price=HourlySeries(price, Unit.USD_PER_KWH),
        mef=HourlySeries(mef, Unit.KGCO2E_PER_KWH),
        aef=HourlySeries(aef, Unit.KGCO2E_PER_KWH),
        ef_location=ef, arpp=0.1872, rmf=0.81,
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
    w_cap, p_cap = PlantParameters.c_ref_wind_kw, PlantParameters.c_ref_pv_kw

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
_CAP_FIELDS = {f.name for f in fields(CapacitySpec)}
_CAP_SUBKEYS = {"fixed", "lower", "upper"}
_PLANT_KEYS = {f.name for f in fields(PlantParameters)}
_SCENARIO_NAME = re.compile(r"[A-Za-z0-9_-]+")


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration; paths are resolved against the config
    file's directory. It checks the rules of the values a command-line
    flag may replace, so a replaced value passes the same rule, and that
    the horizon's hydrogen, its VOM and each emission budget are finite.
    An error names the config key."""

    horizon: int
    fx_usd_per_aud: float
    out_dir: str
    zone: str
    zone_files: dict[str, str]
    re_profile_file: str | None
    fixture_kind: str | None
    fixture_seed: int | None     # None without a fixture
    params: PlantParameters
    capacities: CapacitySpec
    scenarios: list[ScenarioSpec] = field(default_factory=list)

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if not 0 < self.fx_usd_per_aud < math.inf:
            raise ValueError(f"fx_usd_per_aud must be positive and finite, "
                             f"got {self.fx_usd_per_aud}")
        if self.fixture_seed is not None:
            if self.fixture_kind is None:
                raise ValueError("fixture.seed needs a config with a fixture")
            if self.fixture_seed < 0:
                raise ValueError(f"fixture.seed must be >= 0, got {self.fixture_seed}")
        # the horizon's hydrogen, then each number the model prices on it
        try:
            h2_kg = self.params.load_kg_per_h * self.horizon
        except OverflowError:  # a horizon past the float range
            h2_kg = math.inf
        totals = [("plant.load_kg_per_h", self.params.load_kg_per_h, h2_kg, "hydrogen mass"),
                  ("plant.vom_el", self.params.vom_el, self.params.vom_el * h2_kg, "O&M cost")]
        totals += [(f"scenario {s.name!r}: ei_mef_cap", s.ei_mef_cap, s.ei_mef_cap * h2_kg,
                    "emission budget") for s in self.scenarios if s.ei_mef_cap is not None]
        for key, value, total, what in totals:
            if not math.isfinite(total):
                raise ValueError(f"{key} {value} over horizon {self.horizon} gives no "
                                 f"finite {what}")


def _is_number(value) -> bool:
    """Whether value is a JSON number: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value, where, key: str) -> float:
    """value as a float, if it is a finite JSON number; else a ValueError
    that names where and key. A string is not a number here, even one
    that reads as a number."""
    try:
        number = float(value) if _is_number(value) else math.nan
    except OverflowError:  # an int past the float range
        number = math.nan
    if not math.isfinite(number):
        raise ValueError(f"{where}: {key} must be a finite number, got {value!r}")
    return number


def _integer(value, where, key: str) -> int:
    """value, if it is a JSON integer (not a bool); else a ValueError
    naming where and key."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{where}: {key} must be an integer, got {value!r}")
    return value


def _string(value, where, key: str) -> str:
    """value, if it is a JSON string; else a ValueError naming where and key."""
    if not isinstance(value, str):
        raise ValueError(f"{where}: {key} must be a string, got {value!r}")
    return value


def _object(doc, keys: set[str], where, what: str, kind: str = "an object") -> dict:
    """doc, if it is a JSON object with no key outside keys; else a
    ValueError that names where, what and any unknown keys."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: {what} must be {kind}")
    unknown = set(doc) - keys
    if unknown:
        raise ValueError(f"{where}: unknown keys {sorted(unknown)} in {what}")
    return doc


def _parse_caps(doc, where: str) -> CapacitySpec:
    kwargs = {}
    for name, val in _object(doc, _CAP_FIELDS, where, "capacities").items():
        val = _object({"fixed": val} if _is_number(val) else val, _CAP_SUBKEYS, where,
                      name, "a number or an object")
        if "fixed" in val and len(val) > 1:
            raise ValueError(f"{where}: {name} mixes 'fixed' with bounds")
        bound = {key: math.inf if key == "upper" and v is None
                 else _number(v, where, f"{name}.{key}") for key, v in val.items()}
        try:
            kwargs[name] = (CapacityBound(bound["fixed"], bound["fixed"]) if "fixed" in bound
                            else CapacityBound(**bound))
        except ValueError as exc:
            raise ValueError(f"{where}: {name}: {exc}") from None
    return CapacitySpec(**kwargs)


def _parse_scenario(doc, default_zone: str, default_caps: CapacitySpec,
                    where: str) -> ScenarioSpec:
    _object(doc, _SCENARIO_KEYS, where, "scenario")
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
        geo = Split(*(_string(doc.get(key, default_zone), f"{where}: scenario {name!r}", key)
                      for key in ("sell_zone", "buy_zone")))
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
    rejected; the files it names are read, and their absence reported,
    by dataset_from_config."""
    base = Path(path).parent
    doc = _object(_read_json(path), _TOP_KEYS, path, "config")
    for key, kind, what in (("out_dir", str, "a path"), ("re_profile_file", str, "a path"),
                            ("zone_files", dict, "an object"), ("scenarios", list, "a list")):
        if key in doc and not isinstance(doc[key], kind):
            raise ValueError(f"{path}: {key} must be {what}, got {doc[key]!r}")

    horizon = _integer(doc.get("horizon", 8760), path, "horizon")
    fx = _number(doc.get("fx_usd_per_aud", DEFAULT_FX_USD_PER_AUD), path, "fx_usd_per_aud")

    fixture = doc.get("fixture")
    fixture_kind = fixture_seed = None
    if fixture is not None:
        _object(fixture, _FIXTURE_KEYS, path, "fixture")
        fixture_kind = _string(fixture.get("kind", ""), path, "fixture.kind")
        if fixture_kind not in FIXTURE_KINDS:
            raise ValueError(f"{path}: fixture kind {fixture_kind!r} not in "
                             f"{FIXTURE_KINDS}")
        fixture_seed = _integer(fixture.get("seed", 0), path, "fixture.seed")

    zone_file_doc = doc.get("zone_files") or {}
    re_file = doc.get("re_profile_file")
    if fixture_kind is None and not zone_file_doc:
        raise ValueError(f"{path}: provide either 'fixture' or 'zone_files'")
    # a fixture is the whole dataset, so a data file beside it would go unread
    for key in ("zone_files", "re_profile_file"):
        if fixture_kind is not None and key in doc:
            raise ValueError(f"{path}: 'fixture' and {key!r} are mutually exclusive")
    if zone_file_doc and re_file is None:
        raise ValueError(f"{path}: zone_files requires re_profile_file")
    for zone_id, rel in zone_file_doc.items():
        # a zone id names sweep-geo's output files; each sidecar matches its key
        if not _SCENARIO_NAME.fullmatch(zone_id):
            raise ValueError(f"{path}: zone_files key {zone_id!r} must be letters, "
                             f"digits, '_' or '-'")
        if not isinstance(rel, str):
            raise ValueError(f"{path}: zone_files.{zone_id} must be a path, got {rel!r}")

    plant_doc = _object(doc.get("plant", {}), _PLANT_KEYS, path, "plant")
    plant = {key: _number(value, path, f"plant parameter {key}")
             for key, value in plant_doc.items()}
    try:
        params = PlantParameters(**plant)
    except ValueError as exc:
        raise ValueError(f"{path}: invalid plant parameters: {exc}") from None

    caps = _parse_caps(doc.get("capacities", {}), str(path))
    zone = _string(doc.get("zone", "Z1"), path, "zone")
    scenarios = [_parse_scenario(s, zone, caps, str(path))
                 for s in doc.get("scenarios", [])]
    names = [s.name for s in scenarios]
    if len(names) != len(set(names)):
        raise ValueError(f"{path}: duplicate scenario names")

    try:
        return RunConfig(
            horizon=horizon, fx_usd_per_aud=fx,
            out_dir=str(base / doc.get("out_dir", "out")), zone=zone,
            zone_files={zone_id: str(base / rel) for zone_id, rel in zone_file_doc.items()},
            re_profile_file=None if re_file is None else str(base / re_file),
            fixture_kind=fixture_kind, fixture_seed=fixture_seed,
            params=params, capacities=caps, scenarios=scenarios)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def dataset_from_config(config: RunConfig) -> Dataset:
    """The configuration's dataset, checked against the configuration:
    reference output within the plant's reference capacities and every
    zone it names present. A missing or unreadable file is reported by
    the reader that opens it."""
    if config.fixture_kind is not None:
        dataset = synth_fixture(config.fixture_kind, config.horizon,
                                config.fixture_seed)
        source = f"{config.fixture_kind} fixture"
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
        ref_wind, ref_pv = load_re_profile(config.re_profile_file, config.horizon)
        dataset = Dataset(zones=zones, ref_wind=ref_wind, ref_pv=ref_pv)
        source = config.re_profile_file
    for column, series, cap in zip(RE_HEADER[1:], (dataset.ref_wind, dataset.ref_pv),
                                   (config.params.c_ref_wind_kw, config.params.c_ref_pv_kw)):
        outside = np.flatnonzero((series.values < 0) | (series.values > cap))
        if outside.size:
            hour = int(outside[0])
            raise ValueError(f"{source}: {column} {float(series.values[hour])!r} at hour "
                             f"{hour} outside [0, {cap}] kW (reference capacity)")
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

def _bound_json(bound: CapacityBound) -> dict:
    if bound.lower == bound.upper:
        return {"fixed": bound.lower}
    return {"lower": bound.lower, "upper": None if math.isinf(bound.upper) else bound.upper}


def _scenario_json(s: ScenarioSpec) -> dict:
    return {
        "name": s.name,
        "mode": s.mode.value,
        "tc_interval": None if s.tc_interval is None else s.tc_interval.value,
        "ei_mef_cap_kgco2e_per_kgh2": s.ei_mef_cap,
        "capex_cap_usd": s.capex_cap_usd,
        "geo": asdict(s.geo),
        # in set order: dump_json sorts the keys
        "capacity_bounds": {name: _bound_json(getattr(s.capacities, name))
                            for name in _CAP_FIELDS},
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


def write_report(report: SolutionReport, breakdown: CostBreakdown | None,
                 emissions: EmissionsReport | None, path,
                 scenario: ScenarioSpec, inputs: dict) -> None:
    """One scenario's report JSON: the solve's outcome, its cost
    breakdown and emissions (None unless optimal), the scenario as
    configured and the run's inputs."""
    dump_json({
        "schema_version": SCHEMA_VERSION,
        "scenario_name": report.scenario_name,
        "status": report.status.value,
        "message": report.message,
        "converged": report.converged,
        "iterations": report.iterations,
        "storage_tech": report.storage_tech.value,
        "storage_unit_cost_usd_per_kg": report.storage_unit_cost_usd_per_kg,
        "objective_usd": report.objective_usd,
        "annual_h2_kg": report.annual_h2_kg,
        "capacities": report.capacities,
        "lcoh_usd_per_kg": None if breakdown is None else breakdown.lcoh_usd_per_kg,
        "cost_breakdown": None if breakdown is None else asdict(breakdown),
        "emissions": None if emissions is None else emissions_to_dict(emissions),
        "scenario": _scenario_json(scenario),
        "inputs": inputs,
    }, path)


def dump_json(obj, path) -> None:
    """Canonical JSON serialization: sorted keys, two-space indent,
    trailing newline, strict floats. Deterministic for identical inputs."""
    atomic_write(path, json.dumps(obj, sort_keys=True, indent=2,
                                  allow_nan=False) + "\n")
