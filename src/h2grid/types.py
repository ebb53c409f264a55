"""Core domain types shared by every module.

Canonical internal units: USD/kWh for prices, kgCO2e/kWh for emission
factors, kW for power, kg for hydrogen mass, one timestep = 1 hour.
All ingestion converts at the boundary; nothing downstream rescales.

Each input is checked once, where it enters: a HourlySeries, GridProfile,
PlantParameters, CapacityBound, ScenarioSpec or Dataset checks itself
when it is built, and ingest checks what these types cannot see (file
formats, config keys, reference-profile range, the zones a configuration
names) and, in RunConfig, the run's horizon, exchange rate and fixture
seed, and that the horizon's hydrogen, its VOM and each emission budget
are finite. The model layer (plant, policy, economics) and
certification trust the types they are given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np


class Unit(Enum):
    USD_PER_KWH = "USD_per_kWh"
    KGCO2E_PER_KWH = "kgCO2e_per_kWh"
    KW = "kW"
    KG_PER_H = "kg_per_h"


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
        # every series is hourly over the spot price's horizon; Dataset
        # holds each zone's horizon to the reference output's
        horizon = len(self.spot_price)
        errors = []
        for name, series, unit in (
            ("spot_price", self.spot_price, Unit.USD_PER_KWH),
            ("mef", self.mef, Unit.KGCO2E_PER_KWH),
            ("aef", self.aef, Unit.KGCO2E_PER_KWH),
        ):
            if len(series) != horizon:
                errors.append(f"{name} has length {len(series)}, expected {horizon}")
            if series.unit is not unit:
                errors.append(f"{name} tagged {series.unit.value}, expected {unit.value}")
        if not 0.0 <= self.arpp <= 1.0:
            errors.append(f"arpp {self.arpp} outside [0, 1]")
        if self.ef_location < 0:
            errors.append(f"ef_location {self.ef_location} negative")
        if self.rmf < 0:
            errors.append(f"rmf {self.rmf} negative")
        if errors:
            raise ValueError(f"invalid profile {self.zone_id!r}: " + "; ".join(errors))


def crf(i: float, n: int) -> float:
    """Capital recovery factor: the annual payment per unit of capital
    for an n-year annuity at interest rate i."""
    growth = (1.0 + i) ** n
    return i * growth / (growth - 1.0)


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

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if not 0.0 < self.eta_el <= 1.0:
            raise ValueError(f"eta_el {self.eta_el} outside (0, 1]")
        if self.hhv <= 0:
            raise ValueError("hhv must be positive")
        if self.lifetime_years < 1 or self.lifetime_years % 1:
            raise ValueError(f"lifetime_years must be a whole number >= 1, "
                             f"got {self.lifetime_years}")
        for name in ("mu_comp1", "mu_comp2_pipeline", "mu_comp2_lrc",
                     "capex_el", "capex_wind", "capex_pv", "fom_el", "fom_wind",
                     "fom_pv", "vom_el", "ts_fee"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        # the LCOH divides by the delivered mass, so the load cannot be zero
        for name in ("load_kg_per_h", "interest", "c_ref_wind_kw", "c_ref_pv_kw"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        try:
            annuity = crf(self.interest, self.lifetime_years)
        except (OverflowError, ZeroDivisionError):
            annuity = math.nan
        if not math.isfinite(annuity):
            raise ValueError(f"interest {self.interest} over lifetime_years "
                             f"{self.lifetime_years} gives no finite capital recovery factor")
        for tech in ("el", "wind", "pv"):  # each capacity's price in the objective
            capex, fom = getattr(self, f"capex_{tech}"), getattr(self, f"fom_{tech}")
            if not math.isfinite(annuity * capex + fom):
                raise ValueError(f"capex_{tech} {capex} at interest {self.interest}, plus "
                                 f"fom_{tech} {fom}, gives no finite annual cost per kW")

    def capacity_costs(self, u_store: float) -> tuple[np.ndarray, np.ndarray]:
        """The cost table: capital cost per unit and fixed O&M per
        unit-year of each of CAPACITIES (kW, or kg of storage). Storage
        is priced at u_store [USD/kg], the sizing loop's trial unit cost,
        and has no fixed O&M."""
        return (np.array([self.capex_el, self.capex_wind, self.capex_pv, u_store]),
                np.array([self.fom_el, self.fom_wind, self.fom_pv, 0.0]))


@dataclass(frozen=True)
class CapacityBound:
    """Capacity optimized within [lower, upper]; pinned when lower == upper."""

    lower: float = 0.0
    upper: float = math.inf

    def __post_init__(self):
        if not (math.isfinite(self.lower) and 0.0 <= self.lower <= self.upper):
            raise ValueError(f"capacity bounds [{self.lower}, {self.upper}] need a "
                             f"finite lower with 0 <= lower <= upper")


# Default component bound: study-scale RE and electrolyser capacities sit
# in the 10-50 MW project range; 0 is allowed so fixings stay expressible.
_PROJECT_RANGE_KW = CapacityBound(0.0, 50_000.0)


@dataclass(frozen=True)
class CapacitySpec:
    wind_kw: CapacityBound = _PROJECT_RANGE_KW
    pv_kw: CapacityBound = _PROJECT_RANGE_KW
    electrolyser_kw: CapacityBound = _PROJECT_RANGE_KW
    storage_kg: CapacityBound = CapacityBound()


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
    capacities: CapacitySpec = CapacitySpec()
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
        if self.mode is Mode.SELL_ONLY and isinstance(self.geo, Split):
            raise ValueError("sell-only scenario cannot split zones: the plant's only "
                             "supply would be imports, which sell-only bars")


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
