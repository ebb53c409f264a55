"""Cost mathematics and the top-level sizing optimization.

The storage unit cost depends on the storage capacity being chosen (two
log-linear cost curves, one per technology), which an LP cannot express
directly. optimize_plant therefore iterates: solve at a trial unit cost,
re-price storage at the resulting capacity, repeat until the price and
technology stop moving. Each re-solve starts from the optimal basis of
the solve before it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .lp import LpModel, LpStatus, term
from .plant import Dispatch, PlantVars, build_plant, extract_dispatch
from .policy import (
    apply_capex_cap,
    apply_emission_cap,
    apply_temporal_correlation,
    make_partition,
    wire_two_grid,
)
from .types import (
    Dataset,
    GridProfile,
    HourlySeries,
    PlantParameters,
    ScenarioSpec,
    Split,
    Unit,
    expect_unit,
)

STORAGE_SEED_CAPACITY_KG = 1000.0
STORAGE_CONVERGENCE_REL = 0.01
STORAGE_MAX_ITERATIONS = 20
# below this capacity the storage is vacuous and re-pricing it is noise
STORAGE_NEGLIGIBLE_KG = 1.0


class StorageTech(Enum):
    PIPELINE = "pipeline"
    LRC = "lrc"

    def mu_comp2(self, params: PlantParameters) -> float:
        return (params.mu_comp2_pipeline if self is StorageTech.PIPELINE
                else params.mu_comp2_lrc)


def crf(i: float, n: int) -> float:
    """Capital recovery factor: the annual payment per unit of capital
    for an n-year annuity at interest rate i."""
    if not (math.isfinite(i) and i > 0):
        raise ValueError(f"interest rate must be positive, got {i}")
    if n < 1:
        raise ValueError(f"lifetime must be >= 1 year, got {n}")
    growth = (1.0 + i) ** n
    return i * growth / (growth - 1.0)


def storage_unit_cost(capacity_kg: float, tech: StorageTech) -> float:
    """Capacity-dependent storage capital cost [USD/kg], one log-space
    curve per technology (100 bar pipeline vs 150 bar lined rock cavern)."""
    if not (math.isfinite(capacity_kg) and capacity_kg > 0):
        raise ValueError(f"storage capacity must be positive, got {capacity_kg}")
    x = math.log10(capacity_kg / 1000.0)
    if tech is StorageTech.PIPELINE:
        return 10.0 ** (-0.0285 * x + 2.7853)
    return 10.0 ** (0.217956 * x * x - 1.575209 * x + 4.463930)


def select_storage_tech(capacity_kg: float, threshold_kg: float) -> StorageTech:
    """Pipeline below the threshold capacity, cavern at or above it (the
    two cost curves cross there, so the boundary assignment is a tie)."""
    if threshold_kg <= 0:
        raise ValueError(f"threshold must be positive, got {threshold_kg}")
    return StorageTech.PIPELINE if capacity_kg < threshold_kg else StorageTech.LRC


def electricity_cost(import_kw, export_kw, p_buy, p_sell, ts_fee: float) -> float:
    """Net grid electricity cost: imports pay spot plus the transmission
    fee, exports earn spot. Negative when sales beat purchases."""
    imp = _as_values(import_kw)
    exp = _as_values(export_kw)
    buy = _as_values(p_buy, Unit.USD_PER_KWH)
    sell = _as_values(p_sell, Unit.USD_PER_KWH)
    if not (imp.size == exp.size == buy.size == sell.size):
        raise ValueError("electricity_cost series lengths differ")
    if ts_fee < 0:
        raise ValueError(f"transmission fee must be >= 0, got {ts_fee}")
    return float(imp @ (buy + ts_fee) - exp @ sell)


def _as_values(series, unit: Unit | None = None) -> np.ndarray:
    if isinstance(series, HourlySeries):
        if unit is not None:
            expect_unit(series, unit, "electricity_cost")
        return series.values
    return np.asarray(series, dtype=float)


@dataclass(frozen=True)
class CostBreakdown:
    """Annual cost components of one solved configuration."""

    capex_annualized_usd: dict[str, float]   # electrolyser / wind / pv / storage
    om_usd: dict[str, float]                 # same keys
    grid_electricity_usd: float              # net, negative = net seller
    annual_h2_kg: float
    lcoh_usd_per_kg: float

    def __post_init__(self):
        expected_keys = {"electrolyser", "wind", "pv", "storage"}
        if set(self.capex_annualized_usd) != expected_keys:
            raise ValueError(f"capex components {set(self.capex_annualized_usd)} "
                             f"!= {expected_keys}")
        if set(self.om_usd) != expected_keys:
            raise ValueError(f"om components {set(self.om_usd)} != {expected_keys}")
        if self.annual_h2_kg <= 0:
            raise ValueError("annual hydrogen mass must be positive")
        total = (sum(self.capex_annualized_usd.values()) + sum(self.om_usd.values())
                 + self.grid_electricity_usd)
        implied = total / self.annual_h2_kg
        if abs(implied - self.lcoh_usd_per_kg) > 1e-9 * max(1.0, abs(implied)):
            raise ValueError(f"lcoh {self.lcoh_usd_per_kg} inconsistent with "
                             f"components (implied {implied})")

    @property
    def total_annual_usd(self) -> float:
        return self.lcoh_usd_per_kg * self.annual_h2_kg


@dataclass(frozen=True)
class SolutionReport:
    """Outcome of one scenario optimization."""

    scenario_name: str
    status: LpStatus
    message: str = ""
    converged: bool = False
    iterations: int = 0
    storage_tech: StorageTech | None = None
    storage_unit_cost_usd_per_kg: float = math.nan
    objective_usd: float = math.nan
    annual_h2_kg: float = math.nan
    dispatch: Dispatch | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status is LpStatus.OPTIMAL

    @property
    def capacities(self) -> dict[str, float]:
        d = self.dispatch
        if d is None:
            return {}
        return {"wind_kw": d.c_wind_kw, "pv_kw": d.c_pv_kw,
                "electrolyser_kw": d.c_el_kw, "storage_kg": d.c_store_kg}

def zone_pair(scenario: ScenarioSpec, dataset: Dataset) -> tuple[GridProfile, GridProfile]:
    """(buy zone, sell zone) for a scenario; identical objects when
    co-located."""
    if isinstance(scenario.geo, Split):
        return dataset.zone(scenario.geo.buy_zone), dataset.zone(scenario.geo.sell_zone)
    zone = dataset.zone(scenario.geo.zone)
    return zone, zone


def build_scenario_model(scenario: ScenarioSpec, params: PlantParameters,
                         dataset: Dataset, u_store: float,
                         tech: StorageTech) -> tuple[LpModel, PlantVars]:
    """One LP instance for the scenario at a trial storage unit cost."""
    buy, sell = zone_pair(scenario, dataset)
    model, pvars = build_plant(params, dataset.ref_wind, dataset.ref_pv,
                               scenario.capacities, scenario.mode,
                               dataset.horizon, mu_comp2=tech.mu_comp2(params))
    if isinstance(scenario.geo, Split):
        wire_two_grid(model, pvars)
    if scenario.tc_interval is not None:
        apply_temporal_correlation(
            model, pvars, make_partition(scenario.tc_interval, dataset.horizon))
    annual_h2 = params.load_kg_per_h * dataset.horizon
    if scenario.ei_mef_cap is not None:
        apply_emission_cap(model, pvars, buy.mef, sell.mef,
                           scenario.ei_mef_cap, annual_h2)
    if scenario.capex_cap_usd is not None:
        apply_capex_cap(model, pvars, params, u_store, scenario.capex_cap_usd)

    annuity = crf(params.interest, params.lifetime_years)
    fixed = (term(pvars.c_el, annuity * params.capex_el + params.fom_el)
             + term(pvars.c_wind, annuity * params.capex_wind + params.fom_wind)
             + term(pvars.c_pv, annuity * params.capex_pv + params.fom_pv)
             + term(pvars.c_store, annuity * u_store))
    # minimizing annual cost is exact for LCOH because annual hydrogen
    # mass is fixed by the constant delivery rate
    model.set_objective(fixed + params.vom_el * annual_h2,
                        np.concatenate([pvars.import_kw, pvars.export_kw]),
                        np.concatenate([buy.spot_price.values + params.ts_fee,
                                        -sell.spot_price.values]))
    return model, pvars


def optimize_plant(scenario: ScenarioSpec, params: PlantParameters,
                   dataset: Dataset,
                   export_lp_path=None) -> tuple[SolutionReport, CostBreakdown | None]:
    """Size and dispatch the plant for one scenario.

    Storage pricing loop: seed with pipeline storage priced at 1000 kg,
    solve, re-price at the solved capacity, and repeat until the unit
    cost moves less than 1% with a stable technology choice (at most 20
    solves). Returns the report plus a cost breakdown when optimal.
    """
    tech = StorageTech.PIPELINE
    u_store = storage_unit_cost(STORAGE_SEED_CAPACITY_KG, tech)
    annual_h2 = params.load_kg_per_h * dataset.horizon

    solution = model = pvars = None
    converged = False
    iterations = 0
    for iterations in range(1, STORAGE_MAX_ITERATIONS + 1):
        model, pvars = build_scenario_model(scenario, params, dataset, u_store, tech)
        # only c_store's cost (and, after a technology flip, the comp2 and
        # CAPEX-cap coefficients) differ from the last model, so its
        # optimal basis is a near-optimal start
        solution = model.solve(warm=solution)
        if not solution.is_optimal:
            break
        c_store_val = solution.value(pvars.c_store)
        if c_store_val < STORAGE_NEGLIGIBLE_KG:
            converged = True
            break
        new_tech = select_storage_tech(c_store_val, params.storage_tech_threshold_kg)
        new_u = storage_unit_cost(c_store_val, new_tech)
        if new_tech is tech and abs(new_u - u_store) <= STORAGE_CONVERGENCE_REL * u_store:
            converged = True
            break
        tech, u_store = new_tech, new_u

    if export_lp_path is not None:
        # the model whose solve decided the report
        model.write_lp(export_lp_path)
    if not solution.is_optimal:
        report = SolutionReport(
            scenario_name=scenario.name, status=solution.status,
            message=f"iteration {iterations}: {solution.message}",
            iterations=iterations, storage_tech=tech,
            storage_unit_cost_usd_per_kg=u_store, annual_h2_kg=annual_h2)
        return report, None
    dispatch = extract_dispatch(solution, pvars)
    buy, sell = zone_pair(scenario, dataset)
    grid_cost = electricity_cost(dispatch.import_kw, dispatch.export_kw,
                                 buy.spot_price, sell.spot_price, params.ts_fee)
    annuity = crf(params.interest, params.lifetime_years)
    capex = {
        "electrolyser": annuity * params.capex_el * dispatch.c_el_kw,
        "wind": annuity * params.capex_wind * dispatch.c_wind_kw,
        "pv": annuity * params.capex_pv * dispatch.c_pv_kw,
        "storage": annuity * u_store * dispatch.c_store_kg,
    }
    om = {
        "electrolyser": params.fom_el * dispatch.c_el_kw + params.vom_el * annual_h2,
        "wind": params.fom_wind * dispatch.c_wind_kw,
        "pv": params.fom_pv * dispatch.c_pv_kw,
        "storage": 0.0,
    }
    total = sum(capex.values()) + sum(om.values()) + grid_cost
    breakdown = CostBreakdown(
        capex_annualized_usd=capex, om_usd=om, grid_electricity_usd=grid_cost,
        annual_h2_kg=annual_h2, lcoh_usd_per_kg=total / annual_h2)
    report = SolutionReport(
        scenario_name=scenario.name, status=LpStatus.OPTIMAL,
        converged=converged, iterations=iterations, storage_tech=tech,
        storage_unit_cost_usd_per_kg=u_store,
        objective_usd=solution.objective_value, annual_h2_kg=annual_h2,
        dispatch=dispatch)
    return report, breakdown


def capex_usd(report: SolutionReport, params: PlantParameters) -> float:
    """Un-annualized capital cost of a solved configuration; the suite
    uses the isolated plant's value as the budget cap for grid scenarios."""
    d = report.dispatch
    if d is None:
        raise ValueError(f"scenario {report.scenario_name!r} has no solution")
    storage = (report.storage_unit_cost_usd_per_kg * d.c_store_kg
               if d.c_store_kg > 0 else 0.0)
    return (params.capex_el * d.c_el_kw + params.capex_wind * d.c_wind_kw
            + params.capex_pv * d.c_pv_kw + storage)
