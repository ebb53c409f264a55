"""Emissions accounting over the horizon: the four methods, floor and
surplus logic, and difference metrics."""

from dataclasses import fields

import numpy as np
import pytest

from h2grid.certification import (
    certify,
    difference_metrics,
    emissions_factor_tracked,
    emissions_market,
)
from h2grid.economics import optimize_plant
from h2grid.plant import Dispatch
from h2grid.types import (
    CapacitySpec,
    Mode,
    ScenarioSpec,
    Split,
    TcInterval,
)

IMPORT_KW = 10280.82857142857
H2_WEEK = 180.0 * 168

# frozen: IMPORT_KW * 168 * (1 - 0.1872) * 0.81 / H2_WEEK
EI_MARKET_FLAT = 37.60315858285714
# frozen: 57.1157142857 kWh/kg * EF
EI_LOCATION = {"QLD": 40.55215714285714, "SA": 13.136614285714284,
               "TAS": 8.56735714285714, "VIC": 43.97909999999999,
               "NSW": 37.696371428571425}
EF_STATE = {"QLD": 0.71, "SA": 0.23, "TAS": 0.15, "VIC": 0.77, "NSW": 0.66}


def emissions_location(import_kw, export_kw, ef_location):
    """Reference location-method emissions [kgCO2e]: net consumption
    times the zone's annual factor, negative for a net seller. certify
    computes the same quantity as a factor-tracked sum with a constant
    factor."""
    return (float(np.sum(import_kw)) - float(np.sum(export_kw))) * ef_location


# -- method primitives ----------------------------------------------------

def test_market_method_constant_import():
    imp = np.full(168, IMPORT_KW)
    exp = np.zeros(168)
    e, surplus = emissions_market(imp, exp, arpp=0.1872, rmf=0.81)
    assert surplus == 0.0
    assert e / H2_WEEK == pytest.approx(EI_MARKET_FLAT, rel=1e-12)


def test_market_floor_returns_surplus():
    imp = np.array([100.0, 0.0])
    exp = np.array([0.0, 500.0])
    e, surplus = emissions_market(imp, exp, arpp=0.2, rmf=0.9)
    assert e == 0.0
    # (100*0.8 - 500) * 0.9
    assert surplus == pytest.approx(-378.0)


@pytest.mark.parametrize("state,ef", sorted(EF_STATE.items()))
def test_location_method_state_anchors(state, ef):
    imp = np.full(168, IMPORT_KW)
    exp = np.zeros(168)
    e = emissions_location(imp, exp, ef)
    assert e / H2_WEEK == pytest.approx(EI_LOCATION[state], rel=1e-12)


def test_factor_tracked_uses_both_sides():
    imp = np.array([100.0, 0.0])
    exp = np.array([0.0, 50.0])
    buy = np.array([0.5, 0.5])
    sell = np.array([0.2, 0.2])
    assert emissions_factor_tracked(imp, exp, buy, sell) == pytest.approx(
        100 * 0.5 - 50 * 0.2)
    with pytest.raises(ValueError):
        emissions_factor_tracked(imp, exp, buy, sell[:1])


def test_constant_average_factor_equals_location_method():
    rng = np.random.default_rng(7)
    imp = rng.uniform(0, 100, 50)
    exp = rng.uniform(0, 100, 50)
    ef = 0.63
    tracked = emissions_factor_tracked(imp, exp, np.full(50, ef),
                                       np.full(50, ef))
    # same quantity, different float association, so relative not exact
    assert tracked == pytest.approx(emissions_location(imp, exp, ef),
                                    rel=1e-12)


def test_re_capacity_factor():
    def dispatch(c_re_kw):
        flows = {f.name: np.zeros(10) for f in fields(Dispatch)}
        return Dispatch(**{**flows, "gen_wind_kw": np.full(10, 40.0),
                           "gen_pv_kw": np.full(10, 10.0), "c_wind_kw": c_re_kw,
                           "c_pv_kw": c_re_kw, "c_el_kw": 0.0, "c_store_kg": 0.0,
                           "soc0_kg": 0.0})

    assert dispatch(100.0).re_capacity_factor == pytest.approx(0.25)
    assert dispatch(0.0).re_capacity_factor is None


# -- difference metrics -----------------------------------------------------

def intensities(**overrides):
    """difference_metrics' arguments: marginal 4, market 1, no surplus,
    location 2 kgCO2e/kgH2, unless overridden."""
    return {"ei_mef": 4.0, "ei_market": 1.0, "ei_recs": 0.0, "ei_location": 2.0,
            **overrides}


def test_difference_metrics_plain():
    d_market, d_location = difference_metrics(**intensities())
    assert d_market == pytest.approx((4.0 - 1.0) / 4.0)
    assert d_location == pytest.approx((4.0 - 2.0) / 4.0)


def test_difference_metrics_floored_market_uses_surplus():
    d_market, _ = difference_metrics(**intensities(ei_market=0.0, ei_recs=-5.0,
                                                   ei_mef=10.0))
    assert d_market == pytest.approx((10.0 - (-5.0)) / 10.0)


def test_difference_metrics_undefined_at_zero_mef():
    assert difference_metrics(**intensities(ei_mef=0.0)) == (None, None)
    assert difference_metrics(**intensities(ei_mef=1e-13)) == (None, None)


# -- full certification of solved dispatches ----------------------------------

def test_certify_flat_grid_only(flat_grid_only, flat_week):
    report, _ = flat_grid_only
    em = certify(report.dispatch, flat_week.zone("Z1"))
    assert em.ei_market == pytest.approx(EI_MARKET_FLAT, rel=1e-9)
    assert em.ei_mef == pytest.approx(28.557857142857138, rel=1e-9)
    assert em.ei_aef == pytest.approx(57.11571428571428 * 0.6, rel=1e-9)
    assert em.ei_location == pytest.approx(57.11571428571428 * 0.71, rel=1e-9)
    assert em.recs_generated_mwh == 0.0
    assert em.annual_h2_kg == pytest.approx(H2_WEEK)
    assert em.d_market == pytest.approx(
        (em.ei_mef - em.ei_market) / em.ei_mef)


def test_certify_split_prices_exports_at_sell_zone(contrast_week, params):
    sc = ScenarioSpec("split", Mode.GRID, Split(sell_zone="Z2", buy_zone="Z1"),
                      CapacitySpec(), tc_interval=TcInterval.YEARLY)
    solved, _ = optimize_plant(sc, params, contrast_week)
    assert solved.is_optimal
    em = certify(solved.dispatch, contrast_week.zone("Z1"),
                 contrast_week.zone("Z2"))
    d = solved.dispatch
    expected = (float(d.import_kw.sum()) * 0.66
                - float(d.export_kw.sum()) * 0.15)
    assert em.e_location_kg == pytest.approx(expected, rel=1e-9)
    # buying in the dirtier market while selling certified-clean output
    # leaves the marginal method positive and the certificate method at
    # or below zero
    assert em.ei_mef > 0
    assert em.ei_market == 0.0 and em.ei_recs < 0


def test_recs_count_exported_mwh(contrast_week, params):
    sc = ScenarioSpec("split", Mode.GRID, Split(sell_zone="Z2", buy_zone="Z1"),
                      CapacitySpec(), tc_interval=TcInterval.YEARLY)
    solved, _ = optimize_plant(sc, params, contrast_week)
    em = certify(solved.dispatch, contrast_week.zone("Z1"),
                 contrast_week.zone("Z2"))
    assert em.recs_generated_mwh == pytest.approx(
        float(solved.dispatch.export_kw.sum()) / 1000.0, rel=1e-12)
