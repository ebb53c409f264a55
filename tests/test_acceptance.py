"""End-to-end acceptance gate.

Each test exercises one headline requirement at its stated tolerance and
prints a single PASS/FAIL line (run with -s to see them live). Expected
values are hand-derived constants, frozen here; nothing on the right of
an assertion comes from the code under test.
"""

import dataclasses
import itertools
import json
import time

import numpy as np
import pytest

from h2grid.certification import certify
from h2grid.cli import main as cli_main
from h2grid.economics import (
    StorageTech,
    capex_usd,
    crf,
    optimize_plant,
    storage_unit_cost,
)
from h2grid.ingest import synth_fixture
from h2grid.plant import Dispatch, verify_conservation
from h2grid.types import (
    CapacityBound,
    CapacitySpec,
    CoLocated,
    Dataset,
    GridProfile,
    Mode,
    PlantParameters,
    ScenarioSpec,
    Split,
    TcInterval,
    Unit,
    HourlySeries,
)

from conftest import constant_series

WEEK = 168
LOAD = 180.0
KWH_PER_KG = 57.11571428571428  # 39.4/0.7 + 0.83, the direct-path draw

EI_MARKET_EXPECTED = 37.6031585829     # kWh/kg * (1-0.1872) * 0.81
EI_LOCATION_EXPECTED = {               # kWh/kg * state grid factor
    0.71: 40.5521571, 0.23: 13.1366143, 0.15: 8.5673571,
    0.77: 43.9791000, 0.66: 37.6963714,
}
CRF_EXPECTED = 0.0782267182
STORAGE_CROSSOVER_KG = 21742.0


def report_line(num, name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def grid_only(name="grid_only"):
    caps = CapacitySpec(wind_kw=CapacityBound(0.0, 0.0), pv_kw=CapacityBound(0.0, 0.0),
                        storage_kg=CapacityBound(0.0, 0.0))
    return ScenarioSpec(name, Mode.GRID, CoLocated("Z1"), caps)


@pytest.fixture(scope="module")
def params():
    return PlantParameters()


@pytest.fixture(scope="module")
def flat_solution(params):
    dataset = synth_fixture("flat", horizon=WEEK, seed=0)
    t0 = time.perf_counter()
    solved, breakdown = optimize_plant(grid_only(), params, dataset)
    emissions = certify(solved.dispatch, dataset.zone("Z1"))
    elapsed = time.perf_counter() - t0
    assert solved.is_optimal, solved.message
    return dataset, solved, emissions, elapsed


def test_criterion_1_market_intensity(flat_solution):
    """Certificate-market intensity of a pure grid buyer, within 2%."""
    _, _, emissions, elapsed = flat_solution
    rel = abs(emissions.ei_market - EI_MARKET_EXPECTED) / EI_MARKET_EXPECTED
    ok = rel <= 0.02 and elapsed < 5.0
    report_line(1, "market intensity anchor", ok,
                f"ei={emissions.ei_market:.6f} vs {EI_MARKET_EXPECTED} "
                f"(rel {rel:.2e}), {elapsed:.2f}s")


def test_criterion_2_location_intensity(flat_solution):
    """Location-based intensity across five regional grid factors, 1%."""
    dataset, solved, _, _ = flat_solution
    worst = 0.0
    for ef, expected in EI_LOCATION_EXPECTED.items():
        zone = dataclasses.replace(dataset.zone("Z1"), ef_location=ef)
        em = certify(solved.dispatch, zone)
        worst = max(worst, abs(em.ei_location - expected) / expected)
    ok = worst <= 0.01
    report_line(2, "location intensity, five factors", ok,
                f"worst rel err {worst:.2e}")


def test_criterion_3_storage_crossover():
    """The two storage cost curves meet near 21,742 kg, where the cheaper
    technology flips from pipeline to cavern."""
    pipe = storage_unit_cost(STORAGE_CROSSOVER_KG, StorageTech.PIPELINE)
    lrc = storage_unit_cost(STORAGE_CROSSOVER_KG, StorageTech.LRC)
    rel = abs(pipe - lrc) / pipe
    ok = rel <= 0.005
    report_line(3, "storage cost crossover", ok,
                f"pipe {pipe:.3f} vs cavern {lrc:.3f} at "
                f"{STORAGE_CROSSOVER_KG:.0f} kg (rel {rel:.2e})")


def test_criterion_4_capital_recovery():
    value = crf(0.06, 25)
    ok = abs(value - CRF_EXPECTED) <= 1e-6
    report_line(4, "capital recovery factor", ok,
                f"crf(0.06,25)={value:.10f} vs {CRF_EXPECTED}")


# -- scenario nesting ------------------------------------------------------

NESTING_ORDER = ["flexible", "yearly", "monthly", "daily", "hourly", "offgrid"]
_TC = {"hourly": TcInterval.HOURLY, "daily": TcInterval.DAILY,
       "monthly": TcInterval.MONTHLY, "yearly": TcInterval.YEARLY}


def run_family(dataset, params):
    """Off-grid first (its capital cost caps the rest), then every
    trading variant. Returns name -> (solved, breakdown)."""
    out = {}
    island = ScenarioSpec("offgrid", Mode.OFF_GRID, CoLocated("Z1"),
                          CapacitySpec())
    solved, breakdown = optimize_plant(island, params, dataset)
    assert solved.is_optimal, solved.message
    out["offgrid"] = (solved, breakdown)
    cap = capex_usd(solved, params)
    for name in ["sell_only", "hourly", "daily", "monthly", "yearly",
                 "flexible"]:
        if name == "sell_only":
            sc = ScenarioSpec(name, Mode.SELL_ONLY, CoLocated("Z1"),
                              CapacitySpec(), capex_cap_usd=cap)
        else:
            sc = ScenarioSpec(name, Mode.GRID, CoLocated("Z1"), CapacitySpec(),
                              tc_interval=_TC.get(name), capex_cap_usd=cap)
        solved, breakdown = optimize_plant(sc, params, dataset)
        assert solved.is_optimal, f"{name}: {solved.message}"
        out[name] = (solved, breakdown)
    return out


@pytest.fixture(scope="module")
def nesting_runs(params):
    fixtures = {"flat": synth_fixture("flat", WEEK, seed=0),
                "diurnal": synth_fixture("diurnal", WEEK, seed=1),
                "random-walk": synth_fixture("random-walk", WEEK, seed=2)}
    t0 = time.perf_counter()
    runs = {kind: run_family(ds, params) for kind, ds in fixtures.items()}
    return fixtures, runs, time.perf_counter() - t0


def test_criterion_5_interval_nesting(nesting_runs):
    """Tighter matching intervals never lower the cost, an hour-matched
    plant prices like a seller that never buys, and the whole comparison
    set solves quickly."""
    _, runs, elapsed = nesting_runs
    failures = []
    for kind, family in runs.items():
        lcoh = {n: family[n][1].lcoh_usd_per_kg for n in family}
        for a, b in itertools.pairwise(NESTING_ORDER):
            slack = 1e-6 * max(1.0, abs(lcoh[b]))
            if lcoh[a] > lcoh[b] + slack:
                failures.append(f"{kind}: {a} {lcoh[a]:.6f} > {b} {lcoh[b]:.6f}")
        gap = abs(lcoh["hourly"] - lcoh["sell_only"]) / max(
            abs(lcoh["sell_only"]), 1.0)
        if gap > 1e-6:
            failures.append(f"{kind}: hourly vs sell_only rel gap {gap:.2e}")
    ok = not failures and elapsed < 60.0
    report_line(5, "interval nesting", ok,
                failures[0] if failures else
                f"3 fixtures x 7 scenarios ordered, {elapsed:.1f}s")


def test_criterion_6_conservation(nesting_runs, params):
    """Bus balance, load coverage, storage recursion, cyclic closure,
    and mass balance on every solved dispatch."""
    _, runs, _ = nesting_runs
    problems = []
    checked = 0
    for kind, family in runs.items():
        for name, (solved, _) in family.items():
            found = verify_conservation(solved.dispatch, params.load_kg_per_h)
            checked += 1
            problems.extend(f"{kind}/{name}: {p}" for p in found)
    ok = not problems
    report_line(6, "conservation", ok,
                problems[0] if problems else f"{checked} dispatches clean")


# -- dynamic-programming oracle ---------------------------------------------

def dp_fixture(params):
    """One day, two price levels, fixed sizes chosen so the best dispatch
    lies exactly on a 60 kg storage grid."""
    horizon = 24
    price = np.where(np.arange(horizon) < 12, 0.028, 0.105)  # USD/kWh
    zone = GridProfile(
        zone_id="Z1",
        spot_price=HourlySeries(price, Unit.USD_PER_KWH),
        mef=constant_series(0.5, Unit.KGCO2E_PER_KWH, horizon),
        aef=constant_series(0.5, Unit.KGCO2E_PER_KWH, horizon),
        ef_location=0.71, arpp=0.1872, rmf=0.81)
    dataset = Dataset(zones={"Z1": zone},
                      ref_wind=constant_series(0.0, Unit.KW, horizon),
                      ref_pv=constant_series(0.0, Unit.KW, horizon))
    caps = CapacitySpec(wind_kw=CapacityBound(0.0, 0.0), pv_kw=CapacityBound(0.0, 0.0),
                        electrolyser_kw=CapacityBound(240.0 * 39.4 / 0.7, 240.0 * 39.4 / 0.7),
                        storage_kg=CapacityBound(720.0, 720.0))
    scenario = ScenarioSpec("dp", Mode.GRID, CoLocated("Z1"), caps)
    return dataset, scenario, price


def dp_min_cost(price, ts_fee):
    """Exact minimum electricity cost on the discretized problem.

    Hourly action d = charge - discharge in kg; with equal compressor
    draws the hourly import is (180 + d) * KWH_PER_KG. States walk a
    60 kg grid; the cycle constraint ties the final level to the start.
    """
    levels = np.arange(0, 721, 60.0)
    actions = np.arange(-180.0, 61.0, 60.0)
    best = np.inf
    for start in levels:
        cost = {start: 0.0}
        for p in price:
            nxt = {}
            for soc, acc in cost.items():
                for d in actions:
                    soc2 = soc + d
                    if not 0.0 <= soc2 <= 720.0:
                        continue
                    c = acc + (180.0 + d) * KWH_PER_KG * (p + ts_fee)
                    if c < nxt.get(soc2, np.inf):
                        nxt[soc2] = c
            cost = nxt
        best = min(best, cost.get(start, np.inf))
    return best


def test_criterion_7_dp_oracle(params):
    dataset, scenario, price = dp_fixture(params)
    solved, breakdown = optimize_plant(scenario, params, dataset)
    assert solved.is_optimal, solved.message
    assert solved.storage_tech is StorageTech.PIPELINE
    lp_cost = breakdown.grid_electricity_usd
    dp_cost = dp_min_cost(price, params.ts_fee)
    floor_ok = dp_cost >= lp_cost - 1e-6 * max(1.0, abs(lp_cost))
    gap = abs(dp_cost - lp_cost) / max(abs(lp_cost), 1.0)
    ok = floor_ok and gap <= 0.005
    report_line(7, "discretized oracle", ok,
                f"lp {lp_cost:.4f} vs dp {dp_cost:.4f} USD (gap {gap:.2e})")


def test_criterion_8_accounting_identities(params):
    """Constant average factor equal to the regional factor collapses two
    methods into one; hour-matched trade in one zone zeroes all netting
    methods and trips the certificate floor."""
    horizon = 48
    checks = []

    zone = GridProfile(
        zone_id="Z1",
        spot_price=constant_series(0.056, Unit.USD_PER_KWH, horizon),
        mef=constant_series(0.5, Unit.KGCO2E_PER_KWH, horizon),
        aef=constant_series(0.71, Unit.KGCO2E_PER_KWH, horizon),
        ef_location=0.71, arpp=0.1872, rmf=0.81)
    dataset = Dataset(zones={"Z1": zone},
                      ref_wind=constant_series(0.0, Unit.KW, horizon),
                      ref_pv=constant_series(0.0, Unit.KW, horizon))
    sc = dataclasses.replace(grid_only(), name="ident")
    solved, _ = optimize_plant(sc, params, dataset)
    em = certify(solved.dispatch, zone)
    checks.append(("aef equals location exactly",
                   em.e_aef_kg == em.e_location_kg))

    # hand-built dispatch trading 100 kW both ways every hour
    z = np.zeros(horizon)
    balanced = Dispatch(
        gen_wind_kw=z, gen_pv_kw=z, e_el_kw=z, e_comp1_kw=z, e_comp2_kw=z,
        import_kw=np.full(horizon, 100.0), export_kw=np.full(horizon, 100.0),
        curtail_kw=z, h_el_kg=np.full(horizon, LOAD),
        h_comp1_kg=np.full(horizon, LOAD), h_comp2_kg=z, h_from_store_kg=z,
        soc_kg=z, c_wind_kw=0.0, c_pv_kw=0.0, c_el_kw=1e4, c_store_kg=0.0,
        soc0_kg=0.0)
    em2 = certify(balanced, zone)
    checks.append(("netting methods zero", em2.e_mef_kg == 0.0
                   and em2.e_aef_kg == 0.0 and em2.e_location_kg == 0.0))
    checks.append(("market floor trips", em2.ei_market == 0.0))
    checks.append(("certificate surplus negative", em2.ei_recs < 0.0))

    bad = [name for name, ok in checks if not ok]
    report_line(8, "accounting identities", not bad,
                bad[0] if bad else f"{len(checks)} identities hold")


def test_criterion_9_two_zone_contrast(params):
    """Selling certified-clean output in a clean market while buying in a
    dirty one: the certificate method reports zero-or-surplus while the
    marginal method stays positive."""
    dataset = synth_fixture("two-zone-contrast", WEEK, seed=0)
    sc = ScenarioSpec("contrast", Mode.GRID,
                      Split(sell_zone="Z2", buy_zone="Z1"),
                      CapacitySpec(), tc_interval=TcInterval.YEARLY)
    solved, _ = optimize_plant(sc, params, dataset)
    assert solved.is_optimal, solved.message
    em = certify(solved.dispatch, dataset.zone("Z1"), dataset.zone("Z2"))
    market_at_or_below_zero = em.ei_market == 0.0 and em.ei_recs < 0.0
    ok = market_at_or_below_zero and em.ei_mef > 0.0
    report_line(9, "two-zone contrast", ok,
                f"ei_market {em.ei_market:.3f} (surplus {em.ei_recs:.3f}), "
                f"ei_mef {em.ei_mef:.3f}")


def test_criterion_10_deterministic_outputs(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"horizon": WEEK,
                                  "fixture": {"kind": "random-walk",
                                              "seed": 2}}))
    for sub in ("a", "b"):
        code = cli_main(["suite", "--config", str(config),
                         "--out", str(tmp_path / sub)])
        assert code == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    diffs = [n for n in names
             if (tmp_path / "a" / n).read_bytes() !=
             (tmp_path / "b" / n).read_bytes()]
    ok = not diffs and len(names) > 0
    report_line(10, "byte-identical reruns", ok,
                diffs[0] if diffs else f"{len(names)} files identical")
