"""Policy constraints layered onto a built plant model: interval-matched
trading, emission-intensity caps, CAPEX caps, and the two bus balances
that separate the renewable farm's market from the plant's market in a
model built without its one bus."""

from __future__ import annotations

import itertools

import numpy as np

from .lp import LpModel, Sense
from .plant import PlantVars, add_hourly_rows
from .types import HourlySeries, PlantParameters, TcInterval

_CALENDAR_MONTH_HOURS = [31 * 24, 28 * 24, 31 * 24, 30 * 24, 31 * 24, 30 * 24,
                         31 * 24, 31 * 24, 30 * 24, 31 * 24, 30 * 24, 31 * 24]


def make_partition(interval: TcInterval, horizon: int) -> tuple[tuple[int, int], ...]:
    """The (start, end) hour ranges that interval cuts [0, horizon) into:
    in order, without gaps, the last one cut short at the horizon. Hour 0
    is 1 January 00:00 of a non-leap year, and each month the calendar's,
    so each range is a union of the ranges of every finer level."""
    widths = {TcInterval.HOURLY: [1], TcInterval.DAILY: [24],
              TcInterval.MONTHLY: _CALENDAR_MONTH_HOURS, TcInterval.YEARLY: [horizon]}[interval]
    ends = itertools.takewhile(lambda end: end < horizon,
                               itertools.accumulate(itertools.cycle(widths)))
    bounds = [0, *ends, horizon]
    return tuple(zip(bounds, bounds[1:]))


def apply_temporal_correlation(model: LpModel, pvars: PlantVars,
                               interval: TcInterval) -> np.ndarray:
    """Within each interval of make_partition (an hour, a day, a calendar
    month, repeated every 8,760 hours, or the horizon), electricity sold
    must cover electricity bought: sum(export - import) >= 0 in a row
    named tc_<start>_<end>. Returns the new constraint ids."""
    intervals = make_partition(interval, pvars.horizon)
    row = np.repeat(np.arange(len(intervals)), [end - start for start, end in intervals])
    return model.add_rows([f"tc_{start}_{end}" for start, end in intervals],
                          Sense.GE, 0.0, np.concatenate([row, row]),
                          np.concatenate([pvars.export_kw, pvars.import_kw]),
                          np.repeat([1.0, -1.0], pvars.horizon))


def apply_emission_cap(model: LpModel, pvars: PlantVars,
                       mef_buy: HourlySeries, mef_sell: HourlySeries,
                       cap_kg_per_kgh2: float, annual_h2_kg: float) -> int:
    """Cap the marginal-factor emission intensity of the produced
    hydrogen. Linear because annual hydrogen mass is a constant of the
    model (fixed delivery rate)."""
    return int(model.add_rows(["emission_cap"], Sense.LE, cap_kg_per_kgh2 * annual_h2_kg,
                              np.zeros(2 * pvars.horizon, dtype=int),
                              np.concatenate([pvars.import_kw, pvars.export_kw]),
                              np.concatenate([mef_buy.values, -mef_sell.values]))[0])


def apply_capex_cap(model: LpModel, pvars: PlantVars, params: PlantParameters,
                    storage_unit_cost: float, cap_usd: float) -> int:
    """Cap total (un-annualized) capital cost. Storage enters at the unit
    cost currently selected by the sizing loop, which rewrites that
    coefficient for each later round (economics.price_storage). Returns
    the row's id."""
    capex, _ = params.capacity_costs(storage_unit_cost)
    return int(model.add_rows(["capex_cap"], Sense.LE, cap_usd, np.zeros(4, dtype=int),
                              pvars.capacities, capex)[0])


def wire_two_grid(model: LpModel, pvars: PlantVars) -> None:
    """Give a plant built with two_bus=True its two electricity buses:
    the renewable farm trades only in its own (sell-side) market, and the
    plant is fed only by imports from the buy-side market. Appends a
    farm-side and a plant-side balance per hour after all existing rows;
    call it right after build_plant.

    Farm side keeps the curtailment outlet; with non-negative sell prices
    it is never used, but it remains the only legal response to negative
    prices once generation cannot flow to the plant directly.
    """
    add_hourly_rows(model, pvars.horizon, [
        ("farm_balance", Sense.EQ, 0.0, [(pvars.export_kw, 1.0), (pvars.curtail_kw, 1.0),
                                         (pvars.c_wind_kw, -pvars.a_wind),
                                         (pvars.c_pv_kw, -pvars.a_pv)]),
        ("plant_balance", Sense.EQ, 0.0, [(pvars.e_el_kw, 1.0), (pvars.e_comp1_kw, 1.0),
                                          (pvars.e_comp2_kw, 1.0), (pvars.import_kw, -1.0)]),
    ])
