"""Cost primitives, storage technology choice, and the sizing loop.

Hand-derived expected values are frozen as literals; the tests must not
recompute them with the code under test.
"""

import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2grid import cli, economics, lp
from h2grid.certification import certify
from h2grid.economics import (
    CostBreakdown,
    StorageTech,
    build_scenario_model,
    capex_cap_usd,
    capex_usd,
    cost_terms,
    crf,
    optimize_plant,
    storage_unit_cost,
    zone_pair,
)
from h2grid.ingest import synth_fixture
from h2grid.lp import LpModel, LpStatus
from h2grid.plant import extract_dispatch, verify_conservation
from h2grid.types import (
    CAPACITIES,
    CapacityBound,
    CapacitySpec,
    CoLocated,
    Dataset,
    GridProfile,
    HourlySeries,
    Mode,
    ScenarioSpec,
    Split,
    TcInterval,
    Unit,
)

from conftest import (constant_series, grid_only_scenario, read_back, recording_backend,
                      recording_highs)
from test_cli import write_config

CRF_6_25 = 0.07822671821227395
LCOH_FLAT_GRID_ONLY = 51.35458976732293   # (crf*1343.3+37.4)*10131.43/30240 + 0.02 + 57.1157*0.063
LCOH_FLAT_OFF_GRID = 177.57458010564093   # adds pv at 41123.31 kW, drops grid purchases


# -- capital recovery factor ---------------------------------------------

def test_crf_reference_values():
    assert crf(0.06, 25) == pytest.approx(CRF_6_25, abs=1e-12)
    assert crf(0.10, 2) == pytest.approx(0.5761904761904758, abs=1e-12)
    assert crf(0.06, 1) == pytest.approx(1.06, abs=1e-12)


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


FLAT_DAY = synth_fixture("flat", horizon=24, seed=0)


def storage_choice(capacity_kg, params):
    """The technology the sizing loop settles on for a grid plant whose
    storage is pinned at capacity_kg."""
    caps = CapacitySpec(wind_kw=CapacityBound(0.0, 0.0), pv_kw=CapacityBound(0.0, 0.0),
                        storage_kg=CapacityBound(capacity_kg, capacity_kg))
    report, _ = optimize_plant(ScenarioSpec("pinned", Mode.GRID, CoLocated("Z1"), caps),
                               params, FLAT_DAY)
    assert report.is_optimal and report.converged
    return report.storage_tech


@settings(max_examples=30, deadline=None)
@given(exponent=st.floats(0.0, 7.0))
def test_storage_tech_is_the_cheaper_curve(exponent, params):
    capacity_kg = 10.0 ** exponent   # 1 kg to 1e7 kg
    tech = storage_choice(capacity_kg, params)
    [other] = [t for t in StorageTech if t is not tech]
    assert storage_unit_cost(capacity_kg, tech) <= storage_unit_cost(capacity_kg, other)


@pytest.mark.parametrize("capacity_kg, tech", [(21_742.0, StorageTech.PIPELINE),
                                               (21_742.3, StorageTech.LRC)])
def test_storage_tech_either_side_of_the_crossing(capacity_kg, tech, params):
    """The curves cross at 21,742.145 kg."""
    assert storage_choice(capacity_kg, params) is tech


# -- the cost function -------------------------------------------------------

def zone(zone_id, spot):
    return GridProfile(zone_id=zone_id,
                       spot_price=HourlySeries(np.array(spot), Unit.USD_PER_KWH),
                       mef=constant_series(0.5, Unit.KGCO2E_PER_KWH, len(spot)),
                       aef=constant_series(0.5, Unit.KGCO2E_PER_KWH, len(spot)),
                       ef_location=0.5, arpp=0.0, rmf=0.5)


def test_cost_terms_by_hand(params):
    """Imports pay the buy zone's spot plus the fee, exports earn the sell
    zone's spot; capital is annualised, and VOM covers the horizon."""
    dataset = Dataset(zones={"Z1": zone("Z1", [0.05, 0.05]), "Z2": zone("Z2", [0.04, 0.04])},
                      ref_wind=constant_series(0.0, Unit.KW, 2),
                      ref_pv=constant_series(0.0, Unit.KW, 2))
    scenario = ScenarioSpec("split", Mode.GRID, Split(sell_zone="Z2", buy_zone="Z1"))
    terms = cost_terms(scenario, params, dataset, 500.0)
    imp, exp = np.array([1000.0, 0.0]), np.array([0.0, 500.0])
    # 1000*(0.05+0.007) - 500*0.04 = 57 - 20
    assert imp @ terms.import_price - exp @ terms.export_price == pytest.approx(37.0)
    assert terms.capital == pytest.approx(
        [CRF_6_25 * 1343.3, CRF_6_25 * 2126.6, CRF_6_25 * 1068.2, CRF_6_25 * 500.0])
    assert list(terms.fom) == [37.4, 17.5, 11.9, 0.0]
    assert terms.vom == pytest.approx(0.02 * 180.0 * 2)   # USD/kg * kg/h * 2 h


def total_annual_usd(breakdown: CostBreakdown) -> float:
    """The breakdown's annual cost, summed from its components."""
    return (sum(breakdown.capex_annualized_usd.values())
            + sum(breakdown.om_usd.values()) + breakdown.grid_electricity_usd)


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


# case -> (dataset fixture, spec): the cost table under matching, the
# emission cap, the CAPEX cap and the two-bus topology
COST_TABLE_CASES = {
    "flexible": ("walk_week", ScenarioSpec("flexible", Mode.GRID, CoLocated("Z1"),
                                           CapacitySpec())),
    "daily": ("walk_week", ScenarioSpec("daily", Mode.GRID, CoLocated("Z1"), CapacitySpec(),
                                        tc_interval=TcInterval.DAILY)),
    "mef_zero": ("walk_week", ScenarioSpec("mef_zero", Mode.GRID, CoLocated("Z1"),
                                           CapacitySpec(), ei_mef_cap=0.0)),
    "capped": ("walk_week", ScenarioSpec("capped", Mode.SELL_ONLY, CoLocated("Z1"),
                                         CapacitySpec(), capex_cap_usd=8.9e7)),
    "split_yearly": ("contrast_week", ScenarioSpec("split_yearly", Mode.GRID,
                                                   Split("Z2", "Z1"), CapacitySpec(),
                                                   tc_interval=TcInterval.YEARLY)),
}


@pytest.mark.parametrize("case", list(COST_TABLE_CASES))
def test_objective_matches_breakdown_total(case, request, params):
    fixture, sc = COST_TABLE_CASES[case]
    report, breakdown = optimize_plant(sc, params, request.getfixturevalue(fixture))
    assert report.is_optimal, report.message
    total = total_annual_usd(breakdown)
    assert report.objective_usd == pytest.approx(total, rel=1e-9)
    assert breakdown.lcoh_usd_per_kg * breakdown.annual_h2_kg == pytest.approx(
        total, rel=1e-12)
    assert set(breakdown.capex_annualized_usd) == set(breakdown.om_usd) == set(CAPACITIES)
    assert breakdown.om_usd["storage"] == 0.0


def test_capex_cap_row_prices_the_plant_like_capex_usd(walk_week, params):
    sc = COST_TABLE_CASES["capped"][1]
    report, _ = optimize_plant(sc, params, walk_week)
    assert report.converged and report.dispatch.c_store_kg > 0
    # the model of the solve that decided the report
    model, _ = build_scenario_model(sc, params, walk_week,
                                    report.storage_unit_cost_usd_per_kg, report.storage_tech)
    [row] = [row for row in read_back(model).rows.values() if row.name == "capex_cap"]
    lhs = math.fsum(c * report.solution.values[v] for v, c in row.coeffs.items())
    assert lhs == pytest.approx(capex_usd(report, params), rel=1e-9)


def test_capex_usd_unannualized(flat_grid_only, params):
    report, _ = flat_grid_only
    assert capex_usd(report, params) == pytest.approx(
        1343.3 * 10131.428571428572, rel=1e-9)


def test_capex_cap_rounds_up_to_a_cent(walk_week, params):
    island = ScenarioSpec("offgrid", Mode.OFF_GRID, CoLocated("Z1"), CapacitySpec())
    report, _ = optimize_plant(island, params, walk_week)
    cap = capex_cap_usd(report, params)
    assert round(cap, 2) == cap
    assert capex_usd(report, params) <= cap < capex_usd(report, params) + 0.01
    d = report.dispatch
    for factor in (1 - 1e-15, 1 + 1e-15):
        moved = replace(report, dispatch=replace(
            d, c_el_kw=d.c_el_kw * factor, c_wind_kw=d.c_wind_kw * factor,
            c_pv_kw=d.c_pv_kw * factor, c_store_kg=d.c_store_kg * factor))
        assert capex_usd(moved, params) != capex_usd(report, params)
        assert capex_cap_usd(moved, params) == cap
        assert cap >= capex_usd(moved, params)


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
                      CapacitySpec(wind_kw=CapacityBound(0.0, 0.0), pv_kw=CapacityBound(0.0, 0.0)))
    report, breakdown = optimize_plant(sc, params, flat_week)
    assert not report.is_optimal
    assert breakdown is None
    assert report.dispatch is None
    assert "iteration 1" in report.message


def test_dispatch_that_fails_its_audit_is_a_solver_failure(tmp_path, monkeypatch):
    """An optimal solve whose dispatch breaks a balance is reported as a
    solver failure (exit 4) that names the first problem."""
    def shifted(solution, pvars):
        d = extract_dispatch(solution, pvars)
        return replace(d, import_kw=d.import_kw + np.eye(1, d.horizon, 3)[0])

    monkeypatch.setattr(economics, "extract_dispatch", shifted)
    config = write_config(tmp_path)
    assert cli.main(["solve", "--config", str(config), "--scenario", "flexible"]) == 4
    doc = json.loads((tmp_path / "out" / "flexible_report.json").read_text())
    assert doc["status"] == LpStatus.SOLVER_FAILURE.value
    assert doc["message"].startswith("iteration ")
    assert "electricity balance off by -1.000e+00 kW at hour 3" in doc["message"]
    assert doc["cost_breakdown"] is None and doc["capacities"] is None
    assert not (tmp_path / "out" / "flexible_dispatch.csv").exists()


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
                      CapacitySpec(wind_kw=CapacityBound(0.0, 0.0), pv_kw=CapacityBound(0.0, 0.0)))
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


ISLAND = ScenarioSpec("island", Mode.OFF_GRID, CoLocated("Z1"), CapacitySpec())
# a cavern priced at 2000 USD/kg buys a store the pipeline prices lower
CAVERN_AT_2000 = (StorageTech.LRC, 2000.0)
# (scenario, first trial price, plant parameters changed) per case; each
# first solve moves the price. A zero mu_comp2 is no entry of the comp2
# rows, so a flip to or from one builds the model anew.
REPRICING_CASES = {
    "uncapped": (ISLAND, None, {}),
    "capped": (COST_TABLE_CASES["capped"][1], None, {}),
    "flip": (ISLAND, CAVERN_AT_2000, {}),
    "zero-mu-comp2": (ISLAND, None, {"mu_comp2_pipeline": 0.0}),
    "flip-to-zero-mu-comp2": (ISLAND, CAVERN_AT_2000, {"mu_comp2_pipeline": 0.0}),
    "flip-from-zero-mu-comp2": (ISLAND, CAVERN_AT_2000, {"mu_comp2_lrc": 0.0}),
}
REBUILT_CASES = ("flip-to-zero-mu-comp2", "flip-from-zero-mu-comp2")


@pytest.mark.parametrize("case", list(REPRICING_CASES))
def test_repriced_model_equals_a_fresh_build(case, monkeypatch, tmp_path, walk_week,
                                             params):
    """price_storage moves a solved model to the next trial price: its LP
    text is then, byte for byte, that of a model built at that price, and
    its re-solve agrees with a fresh solve of that model within the
    common output gate, at a point that passes check_feasibility. The
    re-solve runs in place, except after a flip to or from a zero
    mu_comp2, where the model is built anew and starts a new solver from
    the last basis."""
    sc, price, changed = REPRICING_CASES[case]
    params = replace(params, **changed)
    tech, u_store = price or (StorageTech.PIPELINE, storage_unit_cost(1000.0,
                                                                      StorageTech.PIPELINE))
    runs = recording_highs(monkeypatch, tmp_path)
    model, pvars = build_scenario_model(sc, params, walk_week, u_store, tech)
    first = model.solve()
    c_store_kg = first.values[pvars.c_store_kg]
    new_tech = min(StorageTech, key=lambda t: storage_unit_cost(c_store_kg, t))
    new_u = storage_unit_cost(c_store_kg, new_tech)
    assert (new_tech is not tech) is case.startswith("flip") and new_u != u_store
    assert (pvars.capex_row is not None) is (case == "capped")
    repriced, pvars = economics.price_storage(model, pvars, sc, params, walk_week,
                                              new_u, new_tech)
    assert (repriced is model) is (case not in REBUILT_CASES)
    fresh, _ = build_scenario_model(sc, params, walk_week, new_u, new_tech)
    repriced.write_lp(tmp_path / "repriced.lp")
    fresh.write_lp(tmp_path / "fresh.lp")
    assert (tmp_path / "repriced.lp").read_bytes() == (tmp_path / "fresh.lp").read_bytes()

    got = repriced.solve(warm=first)
    ref = fresh.solve()
    assert [r.in_place for r in runs] == [False, case not in REBUILT_CASES, False]
    assert [r.presolve for r in runs] == ["on", "off", "on"]
    assert repriced.check_feasibility(got.values) == []
    assert got.objective_value == pytest.approx(ref.objective_value, rel=1e-9)
    solved = [np.where(np.abs(s.values[pvars.capacities]) < 1e-7, 0.0,
                       s.values[pvars.capacities]) for s in (got, ref)]
    assert solved[0] == pytest.approx(solved[1], rel=1e-9)


@pytest.mark.parametrize("case", list(REPRICING_CASES))
def test_storage_loop_matches_a_rebuild_per_round(case, monkeypatch, walk_week, params):
    """optimize_plant, which re-prices one model in place, reports what
    the loop reports when it builds each round's model anew and
    warm-starts it from the last round's basis: the same status, storage
    rounds, convergence and technology, and the unit cost, LCOH and
    capacities within 1e-9 relative."""
    sc, price, changed = REPRICING_CASES[case]
    params = replace(params, **changed)
    got, got_cost = optimize_plant(sc, params, walk_week, price=price)
    with monkeypatch.context() as mp:
        mp.setattr(economics, "price_storage",
                   lambda model, pvars, *price: build_scenario_model(*price))
        ref, ref_cost = optimize_plant(sc, params, walk_week, price=price)
    assert got.is_optimal and got.iterations > 1
    assert (got.status, got.iterations, got.converged, got.storage_tech) == (
        ref.status, ref.iterations, ref.converged, ref.storage_tech)
    assert [got.storage_unit_cost_usd_per_kg, got_cost.lcoh_usd_per_kg] == pytest.approx(
        [ref.storage_unit_cost_usd_per_kg, ref_cost.lcoh_usd_per_kg], rel=1e-9)
    assert [0.0 if abs(v) < 1e-7 else v for v in got.capacities.values()] == pytest.approx(
        [0.0 if abs(v) < 1e-7 else v for v in ref.capacities.values()], rel=1e-9)


def test_storage_loop_runs_in_one_session(monkeypatch, tmp_path, walk_week, params):
    """optimize_plant makes one HiGHS solver on an input that takes two
    storage rounds, the second after a technology flip: the first run is
    cold and the re-solve runs in place in it. The solver is released when
    the loop ends, before extract_dispatch and write_lp, and no solution
    holds it."""
    sc, price, _ = REPRICING_CASES["flip"]
    solvers, seen = [], []
    runs = recording_highs(monkeypatch, tmp_path, solvers)

    def alive(inner):
        def wrapped(*args):
            seen.append([ref() is not None for ref in solvers])
            return inner(*args)
        return wrapped

    monkeypatch.setattr(economics, "extract_dispatch", alive(extract_dispatch))
    monkeypatch.setattr(LpModel, "write_lp", alive(LpModel.write_lp))
    report, _ = optimize_plant(sc, params, walk_week, export_lp_path=tmp_path / "x.lp",
                               price=price)
    assert report.is_optimal and report.converged and report.iterations == 2
    assert report.storage_tech is not price[0]
    assert len(solvers) == 1
    assert [(r.presolve, r.simplex_strategy, r.edge_weights, r.in_place) for r in runs] == [
        ("on", 0, 1, False), ("off", 0, 1, True)]
    assert seen == [[False], [False]]
    held = [getattr(report.solution, f.name) for f in fields(lp.LpSolution)]
    assert not any(isinstance(value, lp._load_highs()._Highs) for value in held)


def assert_matches_cold(scenario, params, dataset, report, breakdown, floor=0.0,
                        price=None):
    """report and breakdown are what a cold optimize_plant of scenario,
    its first solve at price (see optimize_plant), gives: the same
    status, storage iterations, convergence and tech;
    LCOH, capacities and the emission intensities within 1e-9 relative,
    each value under floor in magnitude taken as 0.0; and the dispatch
    passes verify_conservation."""
    def snap(values):
        return [0.0 if abs(v) < floor else v for v in values]

    cold, cold_breakdown = optimize_plant(scenario, params, dataset, price=price)
    assert (report.status, report.iterations, report.converged, report.storage_tech) == (
        cold.status, cold.iterations, cold.converged, cold.storage_tech), scenario.name
    if not cold.is_optimal:
        return
    assert snap([breakdown.lcoh_usd_per_kg]) == pytest.approx(
        snap([cold_breakdown.lcoh_usd_per_kg]), rel=1e-9)
    assert report.capacities.keys() == cold.capacities.keys()
    assert snap(report.capacities.values()) == pytest.approx(
        snap(cold.capacities.values()), rel=1e-9)
    buy, sell = zone_pair(scenario, dataset)
    sell = None if isinstance(scenario.geo, CoLocated) else sell
    got, ref = certify(report.dispatch, buy, sell), certify(cold.dispatch, buy, sell)
    names = ("ei_market", "ei_recs", "ei_location", "ei_mef", "ei_aef")
    assert snap(getattr(got, n) for n in names) == pytest.approx(
        snap(getattr(ref, n) for n in names), rel=1e-9)
    assert verify_conservation(report.dispatch, params.load_kg_per_h) == []


def recorded_command(monkeypatch, tmp_path, argv):
    """Run the CLI command argv. Returns, per optimize_plant call, the
    scenario, params, dataset, report and breakdown, with the index of
    its first linprog call in calls; calls, as recorded by
    recording_backend, and the HiGHS run of each call, as recorded by
    recording_highs with its logs in tmp_path; and the number of linprog
    calls of each LpModel.solve."""
    solves, runs = [], []
    solve_plant, solve_model = cli.optimize_plant, LpModel.solve
    logs = tmp_path / "highs_logs"
    logs.mkdir()
    with monkeypatch.context() as mp:
        calls = recording_backend(mp)
        highs = recording_highs(mp, logs)

        def counted(model, warm=None):
            first = len(calls)
            solution = solve_model(model, warm)
            runs.append(len(calls) - first)
            return solution

        mp.setattr(LpModel, "solve", counted)

        def recorded(scenario, params, dataset, **kwargs):
            first = len(calls)
            report, breakdown = solve_plant(scenario, params, dataset, **kwargs)
            solves.append((scenario, params, dataset, first, report, breakdown))
            return report, breakdown

        mp.setattr(cli, "optimize_plant", recorded)
        code = cli.main(argv)
    assert [r.nit for _, r in calls] == [r.iterations for r in highs]
    return code, solves, calls, highs, runs


def assert_run_options(calls, highs, solves):
    """Every cold run has presolve on and every warm run presolve off;
    every run leaves the simplex variant to HiGHS (simplex_strategy 0)
    and prices dual simplex with devex. The runs of each optimize_plant
    call in solves are its storage rounds: the first starts a solver, and
    each re-solve runs in place in it."""
    assert [r.options for r in highs] == [("off" if warm else "on", 0, 1)
                                          for warm, _ in calls]
    rounds = [report.iterations for *_, report, _ in solves]
    assert len(highs) == sum(rounds)
    assert [r.in_place for r in highs] == [k > 0 for n in rounds for k in range(n)]


def test_seeded_sweep_matches_cold_solves(tmp_path, monkeypatch):
    """Each sweep-re point after the first starts from the final basis
    of the point before, which its moved bounds leave primal infeasible,
    so HiGHS runs dual simplex; its report is the cold solve's. Every
    LpModel.solve ends on its first HiGHS run."""
    config = write_config(tmp_path, {"horizon": 168,
                                     "fixture": {"kind": "random-walk", "seed": 2}})
    code, points, calls, highs, runs = recorded_command(
        monkeypatch, tmp_path, ["sweep-re", "--config", str(config), "--points", "5"])
    assert code == 0
    assert runs and set(runs) == {1}
    assert_run_options(calls, highs, points)
    assert [p[0].name for p in points] == ["offgrid"] + [f"re_00{i}" for i in range(5)]
    for k, (scenario, params, dataset, first, report, breakdown) in enumerate(points):
        # the offgrid baseline and the first point are cold
        assert calls[first][0] is (k >= 2)
        if k >= 2:
            assert highs[first].variants == ("dual",)
        assert_matches_cold(scenario, params, dataset, report, breakdown)


def test_seeded_suite_matches_cold_solves(tmp_path, monkeypatch, capsys):
    """sell_only starts from offgrid's final basis, at the storage price
    offgrid converged on, and HiGHS runs primal simplex from it;
    monthly, yearly and flexible start from daily's final basis,
    mef_zero from flexible's, and HiGHS runs dual simplex from each.
    Each report is the cold solve's of the same capped scenario at the
    same first price. offgrid and daily solve cold, and their storage
    re-solves start optimal. The members are solved and reported in
    SUITE_ORDER. Every LpModel.solve ends on its first HiGHS run."""
    config = write_config(tmp_path, {"horizon": 168,
                                     "fixture": {"kind": "random-walk", "seed": 2}})
    code, members, calls, highs, runs = recorded_command(
        monkeypatch, tmp_path, ["suite", "--config", str(config)])
    assert code == 0
    assert runs and set(runs) == {1}
    assert_run_options(calls, highs, members)
    assert [m[0].name for m in members] == cli.SUITE_ORDER
    assert all(m[4].is_optimal for m in members)
    out = capsys.readouterr()
    assert [line.split(":")[0] for line in out.out.splitlines()] == cli.SUITE_ORDER
    offgrid = members[0][4]
    ends = [m[3] for m in members[1:]] + [len(calls)]
    for (scenario, params, dataset, first, report, breakdown), end in zip(members, ends):
        seeded = scenario.name not in ("offgrid", "daily")
        assert calls[first][0] is seeded, scenario.name
        if seeded:
            variant = "primal" if scenario.name == "sell_only" else "dual"
            assert highs[first].variants == (variant,), scenario.name
        else:
            assert end - first >= 2 and all(r.iterations == 0 for r in highs[first + 1:end])
        assert (scenario.capex_cap_usd is None) is (scenario.name == "offgrid")
        price = None
        if scenario.name == "sell_only":
            price = offgrid.storage_tech, offgrid.storage_unit_cost_usd_per_kg
        assert_matches_cold(scenario, params, dataset, report, breakdown, floor=1e-7,
                            price=price)


@pytest.mark.parametrize("horizon, seed", [(48, 10), (168, 0)])
def test_suite_relaxations_are_monotone(tmp_path, monkeypatch, horizon, seed):
    """On random-walk inputs where a first sell_only trial at the 1000 kg
    seed price breaks the CAPEX cap that offgrid set at its own converged
    price, the suite still exits 0 with every member optimal, and a
    member that only relaxes another costs no more than it: objectives
    offgrid >= sell_only >= flexible and daily >= monthly >= yearly >=
    flexible, within 1e-9 relative."""
    config = write_config(tmp_path, {"horizon": horizon,
                                     "fixture": {"kind": "random-walk", "seed": seed}})
    code, members, *_ = recorded_command(monkeypatch, tmp_path,
                                         ["suite", "--config", str(config)])
    assert [(m[0].name, m[4].status) for m in members] == [
        (name, lp.LpStatus.OPTIMAL) for name in cli.SUITE_ORDER]
    assert code == 0
    objective = {m[0].name: m[4].objective_usd for m in members}
    for chain in (["offgrid", "sell_only", "flexible"],
                  ["daily", "monthly", "yearly", "flexible"]):
        for parent, child in zip(chain, chain[1:]):
            assert objective[child] <= objective[parent] + 1e-9 * abs(objective[parent]), (
                parent, child)
