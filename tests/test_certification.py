"""Emissions accounting: the four methods, floor and surplus logic,
difference metrics, and batch windows."""

import dataclasses

import numpy as np
import pytest

from h2grid.certification import (
    EmissionsReport,
    certify,
    difference_metrics,
    emissions_factor_tracked,
    emissions_market,
    re_capacity_factor,
)
from h2grid.economics import optimize_plant
from h2grid.types import (
    CapacitySpec,
    CoLocated,
    Mode,
    ScenarioSpec,
    Split,
    TcInterval,
)

from conftest import grid_only_scenario

IMPORT_KW = 10280.82857142857
H2_WEEK = 180.0 * 168

# frozen: IMPORT_KW * 168 * (1 - 0.1872) * 0.81 / H2_WEEK
EI_MARKET_FLAT = 37.60315858285714
# frozen: 57.1157142857 kWh/kg * EF
EI_LOCATION = {"QLD": 40.55215714285714, "SA": 13.136614285714284,
               "TAS": 8.56735714285714, "VIC": 43.97909999999999,
               "NSW": 37.696371428571425}
EF_STATE = {"QLD": 0.71, "SA": 0.23, "TAS": 0.15, "VIC": 0.77, "NSW": 0.66}


def emissions_location(import_kw, export_kw, ef_location, t_range=None):
    """Reference location-method emissions [kgCO2e] over the window
    [t1, t2): net consumption times the zone's annual factor, negative
    for a net seller. certify computes the same quantity as a
    factor-tracked sum with a constant factor."""
    t1, t2 = t_range or (0, len(import_kw))
    return (float(np.sum(import_kw[t1:t2])) - float(np.sum(export_kw[t1:t2]))) * ef_location


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
    gw = np.full(10, 40.0)
    gp = np.full(10, 10.0)
    assert re_capacity_factor(gw, gp, 100.0, 100.0) == pytest.approx(0.25)
    assert re_capacity_factor(gw, gp, 0.0, 0.0) is None


# -- batch windows ----------------------------------------------------------

def test_window_restricts_all_methods():
    imp = np.concatenate([np.full(24, 100.0), np.zeros(24)])
    exp = np.concatenate([np.zeros(24), np.full(24, 40.0)])
    full, _ = emissions_market(imp, exp, 0.1, 0.9)
    first, _ = emissions_market(imp, exp, 0.1, 0.9, t_range=(0, 24))
    assert first == pytest.approx(24 * 100 * 0.9 * 0.9)
    assert full < first  # exports in the second day offset
    assert emissions_location(imp, exp, 0.5, t_range=(24, 48)) == pytest.approx(
        -24 * 40 * 0.5)


def test_window_bounds_checked():
    z = np.zeros(24)
    for bad in [(5, 5), (-1, 10), (0, 25), (20, 10)]:
        with pytest.raises(ValueError):
            emissions_market(z, z, 0.1, 0.9, t_range=bad)


# -- report and difference metrics -------------------------------------------

def make_report(**overrides):
    fields = dict(e_market_kg=100.0, ei_market=1.0, ei_recs=0.0,
                  e_location_kg=200.0, ei_location=2.0,
                  e_mef_kg=400.0, ei_mef=4.0, e_aef_kg=300.0, ei_aef=3.0,
                  d_market=None, d_location=None,
                  annual_h2_kg=100.0, recs_generated_mwh=0.0)
    fields.update(overrides)
    return EmissionsReport(**fields)


def test_difference_metrics_plain():
    d_market, d_location = difference_metrics(make_report())
    assert d_market == pytest.approx((4.0 - 1.0) / 4.0)
    assert d_location == pytest.approx((4.0 - 2.0) / 4.0)


def test_difference_metrics_floored_market_uses_surplus():
    report = make_report(ei_market=0.0, ei_recs=-5.0, ei_mef=10.0)
    d_market, _ = difference_metrics(report)
    assert d_market == pytest.approx((10.0 - (-5.0)) / 10.0)


def test_difference_metrics_undefined_at_zero_mef():
    report = make_report(ei_mef=0.0, e_mef_kg=0.0)
    assert difference_metrics(report) == (None, None)
    dusty = make_report(ei_mef=1e-13, e_mef_kg=1e-11)
    assert difference_metrics(dusty) == (None, None)


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


def test_certify_window_matches_slice(flat_grid_only, flat_week):
    report, _ = flat_grid_only
    full = certify(report.dispatch, flat_week.zone("Z1"))
    head = certify(report.dispatch, flat_week.zone("Z1"), t_range=(0, 24))
    # constant dispatch: intensities identical, masses scale with hours
    assert head.ei_market == pytest.approx(full.ei_market, rel=1e-9)
    assert head.e_market_kg == pytest.approx(full.e_market_kg * 24 / 168,
                                             rel=1e-9)
    assert head.annual_h2_kg == pytest.approx(180.0 * 24)


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
