"""Cost primitives, storage technology choice, and the sizing loop.

Hand-derived expected values are frozen as literals; the tests must not
recompute them with the code under test.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2grid.certification import certify
from h2grid.economics import (
    CostBreakdown,
    StorageTech,
    build_scenario_model,
    capex_usd,
    crf,
    electricity_cost,
    optimize_plant,
    select_storage_tech,
    storage_unit_cost,
    zone_pair,
)
from h2grid.lp import LpModel
from h2grid.types import (
    CapacitySpec,
    CoLocated,
    Fixed,
    Mode,
    ScenarioSpec,
    Split,
    Unit,
    constant_series,
)

from conftest import grid_only_scenario, recording_backend

CRF_6_25 = 0.07822671821227395
LCOH_FLAT_GRID_ONLY = 51.35458976732293   # (crf*1343.3+37.4)*10131.43/30240 + 0.02 + 57.1157*0.063
LCOH_FLAT_OFF_GRID = 177.57458010564093   # adds pv at 41123.31 kW, drops grid purchases


# -- capital recovery factor ---------------------------------------------

def test_crf_reference_values():
    assert crf(0.06, 25) == pytest.approx(CRF_6_25, abs=1e-12)
    assert crf(0.10, 2) == pytest.approx(0.5761904761904758, abs=1e-12)
    assert crf(0.06, 1) == pytest.approx(1.06, abs=1e-12)


def test_crf_rejects_bad_inputs():
    with pytest.raises(ValueError):
        crf(0.0, 25)
    with pytest.raises(ValueError):
        crf(-0.05, 25)
    with pytest.raises(ValueError):
        crf(0.06, 0)


@given(i=st.floats(0.001, 0.5), n=st.integers(1, 60))
def test_crf_bounds(i, n):
    value = crf(i, n)
    # an annuity payment always exceeds the interest-only payment and
    # never exceeds paying everything back in year one
    assert i < value <= 1.0 + i + 1e-12


# -- storage cost curves --------------------------------------------------

def test_storage_cost_anchors():
    assert storage_unit_cost(1000.0, StorageTech.PIPELINE) == pytest.approx(
        609.9580958722386, rel=1e-12)
    assert storage_unit_cost(1000.0, StorageTech.LRC) == pytest.approx(
        29102.480037045556, rel=1e-12)
    assert storage_unit_cost(720.0, StorageTech.PIPELINE) == pytest.approx(
        615.6955629787734, rel=1e-12)


def test_storage_curves_cross_at_threshold():
    pipe = storage_unit_cost(21742.0, StorageTech.PIPELINE)
    lrc = storage_unit_cost(21742.0, StorageTech.LRC)
    assert abs(pipe - lrc) / pipe < 1e-4
    # on either side of the crossing the cheaper technology flips
    assert storage_unit_cost(5000.0, StorageTech.PIPELINE) < storage_unit_cost(
        5000.0, StorageTech.LRC)
    assert storage_unit_cost(100_000.0, StorageTech.LRC) < storage_unit_cost(
        100_000.0, StorageTech.PIPELINE)


def test_storage_cost_rejects_nonpositive_capacity():
    for bad in (0.0, -5.0, math.nan):
        with pytest.raises(ValueError):
            storage_unit_cost(bad, StorageTech.PIPELINE)


def test_select_storage_tech_boundary_goes_to_cavern():
    assert select_storage_tech(21741.9, 21742.0) is StorageTech.PIPELINE
    assert select_storage_tech(21742.0, 21742.0) is StorageTech.LRC
    assert select_storage_tech(500_000.0, 21742.0) is StorageTech.LRC
    assert select_storage_tech(10.0, 21742.0) is StorageTech.PIPELINE


# -- grid electricity cost -------------------------------------------------

def test_electricity_cost_by_hand():
    imp = np.array([1000.0, 0.0])
    exp = np.array([0.0, 500.0])
    buy = np.array([0.05, 0.05])
    sell = np.array([0.04, 0.04])
    # 1000*(0.05+0.007) - 500*0.04 = 57 - 20
    assert electricity_cost(imp, exp, buy, sell, 0.007) == pytest.approx(37.0)


def test_electricity_cost_accepts_series():
    imp = constant_series(100.0, Unit.KW, 3)
    exp = constant_series(0.0, Unit.KW, 3)
    buy = constant_series(0.05, Unit.USD_PER_KWH, 3)
    sell = constant_series(0.04, Unit.USD_PER_KWH, 3)
    assert electricity_cost(imp, exp, buy, sell, 0.0) == pytest.approx(15.0)
    with pytest.raises(ValueError):
        electricity_cost(imp, exp, constant_series(0.05, Unit.KW, 3), sell, 0.0)


def test_electricity_cost_rejects_negative_fee():
    z = np.zeros(2)
    with pytest.raises(ValueError):
        electricity_cost(z, z, z, z, -0.001)


@given(fee=st.floats(0.0, 0.1))
def test_electricity_cost_linear_in_fee(fee):
    imp = np.array([10.0, 20.0])
    z = np.zeros(2)
    base = electricity_cost(imp, z, z + 0.05, z + 0.04, 0.0)
    assert electricity_cost(imp, z, z + 0.05, z + 0.04, fee) == pytest.approx(
        base + fee * 30.0, rel=1e-12, abs=1e-12)


# -- cost breakdown invariants ---------------------------------------------

def make_breakdown(**overrides):
    capex = {"electrolyser": 100.0, "wind": 0.0, "pv": 0.0, "storage": 0.0}
    om = {"electrolyser": 50.0, "wind": 0.0, "pv": 0.0, "storage": 0.0}
    fields = dict(capex_annualized_usd=capex, om_usd=om,
                  grid_electricity_usd=30.0, annual_h2_kg=10.0,
                  lcoh_usd_per_kg=18.0)
    fields.update(overrides)
    return CostBreakdown(**fields)


def test_breakdown_identity_enforced():
    b = make_breakdown()
    assert b.total_annual_usd == pytest.approx(180.0)
    with pytest.raises(ValueError):
        make_breakdown(lcoh_usd_per_kg=17.0)


def test_breakdown_requires_component_keys():
    with pytest.raises(ValueError):
        make_breakdown(capex_annualized_usd={"electrolyser": 100.0})


# -- end-to-end sizing ------------------------------------------------------

def test_grid_only_lcoh_closed_form(flat_grid_only):
    report, breakdown = flat_grid_only
    assert report.converged
    assert breakdown.lcoh_usd_per_kg == pytest.approx(LCOH_FLAT_GRID_ONLY,
                                                      rel=1e-9)
    assert breakdown.annual_h2_kg == pytest.approx(180.0 * 168)
    # electrolyser om carries the fixed share plus the per-kg variable share
    om_el = breakdown.om_usd["electrolyser"]
    assert om_el == pytest.approx(37.4 * 10131.428571428572 + 0.02 * 30240.0,
                                  rel=1e-9)


def test_offgrid_lcoh_closed_form(flat_week, params):
    """On a flat week solar strictly dominates wind per delivered kWh, so
    the isolated optimum is pv plus electrolyser and no storage."""
    sc = ScenarioSpec("island", Mode.OFF_GRID, CoLocated("Z1"), CapacitySpec())
    report, breakdown = optimize_plant(sc, params, flat_week)
    assert report.is_optimal
    assert breakdown.lcoh_usd_per_kg == pytest.approx(LCOH_FLAT_OFF_GRID,
                                                      rel=1e-9)
    assert report.dispatch.c_wind_kw == pytest.approx(0.0, abs=1e-6)
    assert report.dispatch.c_pv_kw == pytest.approx(41123.31428571428,
                                                    rel=1e-9)
    assert report.dispatch.c_store_kg == pytest.approx(0.0, abs=1e-6)
    assert breakdown.grid_electricity_usd == 0.0


def test_storage_unit_cost_is_self_consistent(walk_week, params):
    """The sizing loop must leave the unit cost within its own
    convergence band of the cost the final capacity implies."""
    sc = ScenarioSpec("island", Mode.OFF_GRID, CoLocated("Z1"), CapacitySpec())
    report, _ = optimize_plant(sc, params, walk_week)
    assert report.is_optimal and report.converged
    c = report.dispatch.c_store_kg
    assert c > 1.0
    implied = storage_unit_cost(c, report.storage_tech)
    assert abs(implied - report.storage_unit_cost_usd_per_kg) <= (
        0.01 * report.storage_unit_cost_usd_per_kg + 1e-9)


def test_tiny_storage_counts_as_converged(flat_week, params):
    report, _ = optimize_plant(grid_only_scenario(), params, flat_week)
    assert report.converged
    assert report.iterations == 1


def test_objective_matches_breakdown_total(walk_week, params):
    sc = ScenarioSpec("flex", Mode.GRID, CoLocated("Z1"), CapacitySpec())
    report, breakdown = optimize_plant(sc, params, walk_week)
    assert report.is_optimal
    assert report.objective_usd == pytest.approx(breakdown.total_annual_usd,
                                                 rel=1e-9)


def test_capex_usd_unannualized(flat_grid_only, params):
    report, _ = flat_grid_only
    assert capex_usd(report, params) == pytest.approx(
        1343.3 * 10131.428571428572, rel=1e-9)


def test_zone_pair_colocated_and_split(contrast_week):
    co = ScenarioSpec("a", Mode.GRID, CoLocated("Z1"), CapacitySpec())
    buy, sell = zone_pair(co, contrast_week)
    assert buy is sell and buy.zone_id == "Z1"
    sp = ScenarioSpec("b", Mode.GRID, Split(sell_zone="Z2", buy_zone="Z1"),
                      CapacitySpec())
    buy, sell = zone_pair(sp, contrast_week)
    assert buy.zone_id == "Z1" and sell.zone_id == "Z2"


def test_failure_report_has_no_breakdown(flat_week, params):
    sc = ScenarioSpec("island", Mode.OFF_GRID, CoLocated("Z1"),
                      CapacitySpec(wind_kw=Fixed(0.0), pv_kw=Fixed(0.0)))
    report, breakdown = optimize_plant(sc, params, flat_week)
    assert not report.is_optimal
    assert breakdown is None
    assert report.dispatch is None
    assert "iteration 1" in report.message
    with pytest.raises(ValueError):
        capex_usd(report, params)


def test_export_lp_writes_file(tmp_path, flat_week, params):
    path = tmp_path / "model.lp"
    optimize_plant(grid_only_scenario(), params, flat_week,
                   export_lp_path=path)
    text = path.read_text()
    assert text.startswith("\\ h2grid linear program")
    assert "Subject To" in text and text.endswith("End\n")


def test_export_lp_written_once_from_deciding_model(tmp_path, monkeypatch,
                                                    walk_week, params):
    """The storage loop re-solves the scenario; the export is written once,
    from the model of the final iteration."""
    calls = []
    original = LpModel.write_lp

    def counting(model, path):
        calls.append(path)
        original(model, path)

    monkeypatch.setattr(LpModel, "write_lp", counting)
    sc = ScenarioSpec("island", Mode.OFF_GRID, CoLocated("Z1"), CapacitySpec())
    path = tmp_path / "island.lp"
    report, _ = optimize_plant(sc, params, walk_week, export_lp_path=path)
    assert report.is_optimal and report.converged
    assert report.iterations > 1
    assert calls == [path]
    final, _ = build_scenario_model(sc, params, walk_week,
                                    report.storage_unit_cost_usd_per_kg,
                                    report.storage_tech)
    final.write_lp(tmp_path / "final.lp")
    assert path.read_bytes() == (tmp_path / "final.lp").read_bytes()


def test_export_lp_written_on_failed_solve(tmp_path, flat_week, params):
    sc = ScenarioSpec("island", Mode.OFF_GRID, CoLocated("Z1"),
                      CapacitySpec(wind_kw=Fixed(0.0), pv_kw=Fixed(0.0)))
    path = tmp_path / "island.lp"
    report, _ = optimize_plant(sc, params, flat_week, export_lp_path=path)
    assert not report.is_optimal
    assert path.read_text().endswith("End\n")


# -- warm-started storage loop -----------------------------------------------

def storage_loop(monkeypatch, sc, params, dataset, cold=False):
    """optimize_plant with every HiGHS run recorded as (warm?, iterations);
    cold=True drops the warm start from each solve."""
    solve = LpModel.solve
    with monkeypatch.context() as mp:
        calls = recording_backend(mp)
        if cold:
            mp.setattr(LpModel, "solve", lambda model, warm=None: solve(model))
        report, breakdown = optimize_plant(sc, params, dataset)
    return report, breakdown, [(warm, res.nit) for warm, res in calls]


def test_warm_storage_loop_matches_cold(monkeypatch, walk_week, params):
    sc = ScenarioSpec("island", Mode.OFF_GRID, CoLocated("Z1"), CapacitySpec())
    warm, warm_cost, warm_runs = storage_loop(monkeypatch, sc, params, walk_week)
    cold, cold_cost, cold_runs = storage_loop(monkeypatch, sc, params, walk_week,
                                              cold=True)
    assert warm.iterations >= 2
    assert (warm.status, warm.iterations, warm.converged, warm.storage_tech) == (
        cold.status, cold.iterations, cold.converged, cold.storage_tech)
    assert warm_cost.lcoh_usd_per_kg == pytest.approx(cold_cost.lcoh_usd_per_kg,
                                                      rel=1e-9)
    assert [w for w, _ in warm_runs] == [False] + [True] * (warm.iterations - 1)
    assert not any(w for w, _ in cold_runs)
    # the first solve is the same cold run; each re-solve is cheaper warm
    assert warm_runs[0] == cold_runs[0]
    for (_, warm_nit), (_, cold_nit) in zip(warm_runs[1:], cold_runs[1:]):
        assert warm_nit < cold_nit


def test_results_hold_on_public_linprog():
    """The economics and acceptance tests pass when scipy lacks the HiGHS
    binding h2grid.lp uses, so every solve is a cold scipy.optimize.linprog."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--public-linprog", "-k", "not warm_storage_loop and not public_linprog",
         "tests/test_economics.py", "tests/test_acceptance.py"],
        cwd=root, env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
