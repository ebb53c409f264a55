"""Core domain types shared by every module.

Canonical internal units: USD/kWh for prices, kgCO2e/kWh for emission
factors, kW for power, kg for hydrogen mass, one timestep = 1 hour.
All ingestion converts at the boundary; nothing downstream rescales.

Each input is checked once, where it enters: a HourlySeries, GridProfile,
PlantParameters, ScenarioSpec or Dataset checks itself when it is built,
and ingest checks what these types cannot see (file formats, config keys,
reference-profile range, the zones a configuration names). The model
layer (plant, policy, economics) and certification trust the types
they are given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

# Default component bound: study-scale RE and electrolyser capacities sit
# in the 10-50 MW project range; 0 is allowed so fixings stay expressible.
DEFAULT_CAPACITY_UPPER_KW = 50_000.0


class Unit(Enum):
    USD_PER_KWH = "USD_per_kWh"
    KGCO2E_PER_KWH = "kgCO2e_per_kWh"
    KW = "kW"
    KG_PER_H = "kg_per_h"
    DIMENSIONLESS = "dimensionless"


@dataclass(frozen=True)
class HourlySeries:
    """Fixed-length hourly series with a unit tag.

    values are copied and made read-only; NaN/inf entries are rejected at
    construction so consumers never re-validate.
    """

    values: np.ndarray
    unit: Unit

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float).copy()
        if arr.ndim != 1:
            raise ValueError(f"series must be 1-D, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("series must not be empty")
        if not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise ValueError(f"non-finite value at hour {bad}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class GridProfile:
    """One bidding zone: hourly market series plus annual accounting factors."""

    zone_id: str
    spot_price: HourlySeries   # USD/kWh
    mef: HourlySeries          # kgCO2e/kWh, marginal
    aef: HourlySeries          # kgCO2e/kWh, average
    ef_location: float         # kgCO2e/kWh, annual scope-2 factor
    arpp: float                # applicable renewable power percentage, in [0,1]
    rmf: float                 # kgCO2e/kWh, residual mix factor

    def __post_init__(self):
        errors = validate_profile(self, len(self.spot_price))
        if errors:
            raise ValueError(f"invalid profile {self.zone_id!r}: " + "; ".join(errors))


def validate_profile(profile: GridProfile, horizon: int) -> list[str]:
    """Return every invariant violation (empty list means ok)."""
    errors = []
    for name, series, unit in (
        ("spot_price", profile.spot_price, Unit.USD_PER_KWH),
        ("mef", profile.mef, Unit.KGCO2E_PER_KWH),
        ("aef", profile.aef, Unit.KGCO2E_PER_KWH),
    ):
        if len(series) != horizon:
            errors.append(f"{name} has length {len(series)}, expected {horizon}")
        if series.unit is not unit:
            errors.append(f"{name} tagged {series.unit.value}, expected {unit.value}")
    if not 0.0 <= profile.arpp <= 1.0:
        errors.append(f"arpp {profile.arpp} outside [0, 1]")
    if profile.ef_location < 0:
        errors.append(f"ef_location {profile.ef_location} negative")
    if profile.rmf < 0:
        errors.append(f"rmf {profile.rmf} negative")
    return errors


# the priced capacities, in the order of PlantParameters.capacity_costs
CAPACITIES = ("electrolyser", "wind", "pv", "storage")


@dataclass(frozen=True)
class PlantParameters:
    """Techno-economic constants; defaults are the model's current values."""

    eta_el: float = 0.70             # electrolyser efficiency
    hhv: float = 39.4                # kWh/kgH2, higher heating value
    load_kg_per_h: float = 180.0     # constant hydrogen delivery
    mu_comp1: float = 0.83           # kWh/kg, compression to 100 bar pipeline
    mu_comp2_pipeline: float = 0.83  # kWh/kg, storage compressor, pipeline tech
    mu_comp2_lrc: float = 1.24       # kWh/kg, storage compressor, 150 bar cavern
    capex_el: float = 1343.3         # USD/kW
    capex_wind: float = 2126.6       # USD/kW
    capex_pv: float = 1068.2         # USD/kW
    fom_el: float = 37.4             # USD/kW/yr
    fom_wind: float = 17.5           # USD/kW/yr
    fom_pv: float = 11.9             # USD/kW/yr
    vom_el: float = 0.02             # USD/kgH2
    ts_fee: float = 0.007            # USD/kWh on imports
    interest: float = 0.06
    lifetime_years: int = 25
    c_ref_wind_kw: float = 320_000.0
    c_ref_pv_kw: float = 1_000.0
    storage_tech_threshold_kg: float = 21_742.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if not 0.0 < self.eta_el <= 1.0:
            raise ValueError(f"eta_el {self.eta_el} outside (0, 1]")
        if self.hhv <= 0:
            raise ValueError("hhv must be positive")
        if self.lifetime_years < 1:
            raise ValueError("lifetime_years must be >= 1")
        for name in ("mu_comp1", "mu_comp2_pipeline", "mu_comp2_lrc",
                     "capex_el", "capex_wind", "capex_pv", "fom_el", "fom_wind",
                     "fom_pv", "vom_el", "ts_fee"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        # the LCOH divides by the delivered mass, so the load cannot be zero
        for name in ("load_kg_per_h", "interest", "c_ref_wind_kw", "c_ref_pv_kw",
                     "storage_tech_threshold_kg"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")

    def capacity_costs(self, u_store: float) -> tuple[np.ndarray, np.ndarray]:
        """The cost table: capital cost per unit and fixed O&M per
        unit-year of each of CAPACITIES (kW, or kg of storage). Storage
        is priced at u_store [USD/kg], the sizing loop's trial unit cost,
        and has no fixed O&M."""
        return (np.array([self.capex_el, self.capex_wind, self.capex_pv, u_store]),
                np.array([self.fom_el, self.fom_wind, self.fom_pv, 0.0]))


@dataclass(frozen=True)
class Free:
    """Capacity optimized within [lower, upper]."""

    lower: float = 0.0
    upper: float = math.inf

    def __post_init__(self):
        if not 0.0 <= self.lower <= self.upper:
            raise ValueError(f"bad capacity bounds [{self.lower}, {self.upper}]")

    def as_bounds(self) -> tuple[float, float]:
        return (self.lower, self.upper)


@dataclass(frozen=True)
class Fixed:
    """Capacity pinned to a value."""

    value: float

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.value >= 0.0):
            raise ValueError(f"fixed capacity must be finite and >= 0, got {self.value}")

    def as_bounds(self) -> tuple[float, float]:
        return (self.value, self.value)


CapacityBound = Free | Fixed


def _default_re_bound() -> Free:
    return Free(0.0, DEFAULT_CAPACITY_UPPER_KW)


@dataclass(frozen=True)
class CapacitySpec:
    wind_kw: CapacityBound = field(default_factory=_default_re_bound)
    pv_kw: CapacityBound = field(default_factory=_default_re_bound)
    electrolyser_kw: CapacityBound = field(default_factory=_default_re_bound)
    storage_kg: CapacityBound = field(default_factory=Free)


class Mode(Enum):
    OFF_GRID = "offgrid"
    SELL_ONLY = "sell_only"
    GRID = "grid"            # buy and sell


class TcInterval(Enum):
    HOURLY = "hourly"
    DAILY = "daily"
    MONTHLY = "monthly"
    YEARLY = "yearly"


@dataclass(frozen=True)
class CoLocated:
    """RE directly wired to the plant, single bidding zone."""

    zone: str


@dataclass(frozen=True)
class Split:
    """RE sells into one zone, the plant buys from another (grid-mediated)."""

    sell_zone: str
    buy_zone: str


Geo = CoLocated | Split


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    mode: Mode
    geo: Geo
    capacities: CapacitySpec = field(default_factory=CapacitySpec)
    tc_interval: TcInterval | None = None
    ei_mef_cap: float | None = None      # kgCO2e/kgH2
    capex_cap_usd: float | None = None

    def __post_init__(self):
        if self.mode is Mode.OFF_GRID:
            if self.tc_interval is not None:
                raise ValueError("off-grid scenario cannot carry a temporal-correlation interval")
            if isinstance(self.geo, Split):
                raise ValueError("off-grid scenario cannot split zones")
            if self.ei_mef_cap is not None:
                raise ValueError("off-grid scenario cannot carry an emission-intensity cap")


@dataclass(frozen=True)
class Dataset:
    """Everything a solve needs besides the scenario: zones plus reference RE."""

    zones: dict[str, GridProfile]
    ref_wind: HourlySeries   # kW, output of the reference wind farm
    ref_pv: HourlySeries     # kW, output of the reference PV field

    def __post_init__(self):
        # each GridProfile checked its own tags and lengths when it was
        # built; left to check are the reference tags and one horizon
        horizon = len(self.ref_wind)
        for name, series in (("ref_wind", self.ref_wind), ("ref_pv", self.ref_pv)):
            if series.unit is not Unit.KW:
                raise ValueError(f"{name} expects {Unit.KW.value}, got {series.unit.value}")
        if len(self.ref_pv) != horizon:
            raise ValueError("ref_wind and ref_pv lengths differ")
        for zone_id, profile in self.zones.items():
            if len(profile.spot_price) != horizon:
                raise ValueError(f"zone {zone_id!r}: series have length "
                                 f"{len(profile.spot_price)}, expected {horizon}")

    @property
    def horizon(self) -> int:
        return len(self.ref_wind)

    def zone(self, zone_id: str) -> GridProfile:
        try:
            return self.zones[zone_id]
        except KeyError:
            raise KeyError(f"unknown zone {zone_id!r}; have {sorted(self.zones)}") from None
