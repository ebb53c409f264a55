"""Cost mathematics and the top-level sizing optimization.

cost_terms prices a plant once, for both the LP objective and the
reported CostBreakdown; the CAPEX cap and capex_usd read the
un-annualised PlantParameters.capacity_costs.

The storage unit cost depends on the storage capacity being chosen (two
log-linear cost curves, one per technology), which an LP cannot express
directly. optimize_plant therefore iterates: solve at a trial unit cost,
re-price storage at the resulting capacity, repeat until the price and
technology stop moving. Each re-solve starts from the optimal basis of
the solve before it, and the first solve can start from the final
solution of a similar scenario (the previous point of a sweep, or an
earlier member of the suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .lp import LpModel, LpSolution, LpStatus
from .plant import Dispatch, PlantVars, build_plant, extract_dispatch
from .policy import (
    apply_capex_cap,
    apply_emission_cap,
    apply_temporal_correlation,
    wire_two_grid,
)
from .types import CAPACITIES, Dataset, GridProfile, PlantParameters, ScenarioSpec, Split

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
    growth = (1.0 + i) ** n
    return i * growth / (growth - 1.0)


def storage_unit_cost(capacity_kg: float, tech: StorageTech) -> float:
    """Capacity-dependent storage capital cost [USD/kg], one log-space
    curve per technology (100 bar pipeline vs 150 bar lined rock cavern)."""
    x = math.log10(capacity_kg / 1000.0)
    if tech is StorageTech.PIPELINE:
        return 10.0 ** (-0.0285 * x + 2.7853)
    return 10.0 ** (0.217956 * x * x - 1.575209 * x + 4.463930)


def select_storage_tech(capacity_kg: float, threshold_kg: float) -> StorageTech:
    """Pipeline below the threshold capacity, cavern at or above it (the
    two cost curves cross there, so the boundary assignment is a tie)."""
    return StorageTech.PIPELINE if capacity_kg < threshold_kg else StorageTech.LRC


@dataclass(frozen=True)
class CostBreakdown:
    """Annual cost components of one solved configuration."""

    capex_annualized_usd: dict[str, float]   # keyed by types.CAPACITIES
    om_usd: dict[str, float]                 # same keys
    grid_electricity_usd: float              # net, negative = net seller
    annual_h2_kg: float
    lcoh_usd_per_kg: float


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
    # the solve that decided the report, which can start the next
    # optimize_plant; not written out and not compared
    solution: LpSolution | None = field(default=None, repr=False, compare=False)

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


class CostTerms(NamedTuple):
    """What a plant costs over the horizon, at one storage unit cost."""

    capital: np.ndarray       # annualised capital per unit of each of CAPACITIES
    fom: np.ndarray           # fixed O&M per unit-year, same order
    import_price: np.ndarray  # USD/kWh per hour: buy-zone spot plus ts_fee
    export_price: np.ndarray  # USD/kWh per hour: sell-zone spot
    vom: float                # the electrolyser's variable O&M, USD


def cost_terms(scenario: ScenarioSpec, params: PlantParameters,
               dataset: Dataset, u_store: float) -> CostTerms:
    """The plant's cost terms over the dataset's horizon, with storage
    at unit cost u_store."""
    buy, sell = zone_pair(scenario, dataset)
    capex, fom = params.capacity_costs(u_store)
    return CostTerms(crf(params.interest, params.lifetime_years) * capex, fom,
                     buy.spot_price.values + params.ts_fee, sell.spot_price.values,
                     params.vom_el * (params.load_kg_per_h * dataset.horizon))


def build_scenario_model(scenario: ScenarioSpec, params: PlantParameters,
                         dataset: Dataset, u_store: float,
                         tech: StorageTech) -> tuple[LpModel, PlantVars]:
    """One LP instance for the scenario at a trial storage unit cost."""
    buy, sell = zone_pair(scenario, dataset)
    two_bus = isinstance(scenario.geo, Split)
    model, pvars = build_plant(params, dataset.ref_wind, dataset.ref_pv,
                               scenario.capacities, scenario.mode,
                               mu_comp2=tech.mu_comp2(params), two_bus=two_bus)
    if two_bus:
        wire_two_grid(model, pvars)
    if scenario.tc_interval is not None:
        apply_temporal_correlation(model, pvars, scenario.tc_interval)
    annual_h2 = params.load_kg_per_h * dataset.horizon
    if scenario.ei_mef_cap is not None:
        apply_emission_cap(model, pvars, buy.mef, sell.mef,
                           scenario.ei_mef_cap, annual_h2)
    if scenario.capex_cap_usd is not None:
        apply_capex_cap(model, pvars, params, u_store, scenario.capex_cap_usd)

    terms = cost_terms(scenario, params, dataset, u_store)
    # fixed costs of the four capacities, then trade; minimizing annual
    # cost is exact for LCOH because annual hydrogen mass is fixed by the
    # constant delivery rate
    model.set_objective(
        np.concatenate([pvars.capacities, pvars.import_kw, pvars.export_kw]),
        np.concatenate([terms.capital + terms.fom, terms.import_price,
                        -terms.export_price]),
        terms.vom)
    return model, pvars


def optimize_plant(scenario: ScenarioSpec, params: PlantParameters,
                   dataset: Dataset, export_lp_path=None,
                   start: LpSolution | None = None,
                   price: tuple[StorageTech, float] | None = None,
                   ) -> tuple[SolutionReport, CostBreakdown | None]:
    """Size and dispatch the plant for one scenario.

    Storage pricing loop: seed with pipeline storage priced at 1000 kg,
    solve, re-price at the solved capacity, and repeat until the unit
    cost moves less than 1% with a stable technology choice (at most 20
    solves). Returns the report plus a cost breakdown when optimal; the
    report's solution is the last solve's.

    start, the solution of another scenario whose model has the same
    variables and the same rows (such as report.solution of the previous
    sweep point) or other rows (an earlier suite member's, its basis
    matched to these rows by name), warm-starts the first solve (see
    LpModel.solve). price, a (technology, unit cost) pair, replaces the
    seed price of the first solve: the suite starts sell_only at the
    price offgrid converged on, at which offgrid's plant meets the
    CAPEX cap it set. The loop then runs as it would from a cold first
    solve at that price.
    """
    if price is None:
        price = StorageTech.PIPELINE, storage_unit_cost(STORAGE_SEED_CAPACITY_KG,
                                                        StorageTech.PIPELINE)
    tech, u_store = price
    annual_h2 = params.load_kg_per_h * dataset.horizon

    solution, model, pvars = start, None, None
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
            storage_unit_cost_usd_per_kg=u_store, annual_h2_kg=annual_h2,
            solution=solution)
        return report, None
    dispatch = extract_dispatch(solution, pvars)
    terms = cost_terms(scenario, params, dataset, u_store)
    grid_cost = float(dispatch.import_kw @ terms.import_price
                      - dispatch.export_kw @ terms.export_price)
    annual_om = terms.fom * dispatch.built
    annual_om[0] += terms.vom   # the electrolyser's variable O&M
    capex = dict(zip(CAPACITIES, (terms.capital * dispatch.built).tolist()))
    om = dict(zip(CAPACITIES, annual_om.tolist()))
    total = sum(capex.values()) + sum(om.values()) + grid_cost
    breakdown = CostBreakdown(
        capex_annualized_usd=capex, om_usd=om, grid_electricity_usd=grid_cost,
        annual_h2_kg=annual_h2, lcoh_usd_per_kg=total / annual_h2)
    report = SolutionReport(
        scenario_name=scenario.name, status=LpStatus.OPTIMAL,
        converged=converged, iterations=iterations, storage_tech=tech,
        storage_unit_cost_usd_per_kg=u_store,
        objective_usd=solution.objective_value, annual_h2_kg=annual_h2,
        dispatch=dispatch, solution=solution)
    return report, breakdown


def capex_usd(report: SolutionReport, params: PlantParameters) -> float:
    """Un-annualized capital cost of a solved configuration; the suite
    uses the isolated plant's value as the budget cap for grid scenarios."""
    capex, _ = params.capacity_costs(report.storage_unit_cost_usd_per_kg)
    # summed left to right in table order (a matrix product may reorder terms)
    return sum((capex * report.dispatch.built).tolist())


def capex_cap_usd(report: SolutionReport, params: PlantParameters) -> float:
    """capex_usd rounded up to a whole cent: a budget that never falls
    below the plant's own cost, and that does not move with the last bits
    of the solve (which depend on the solver's path to the optimum)."""
    cost = capex_usd(report, params)
    cents = math.ceil(cost * 100.0)
    # dividing can round below cost; the next cent cannot
    return cents / 100.0 if cents / 100.0 >= cost else (cents + 1) / 100.0
