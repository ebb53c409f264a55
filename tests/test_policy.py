"""Interval partitions, trade-matching constraints, caps, and the
two-market rewiring."""

import pytest

from h2grid.economics import optimize_plant
from h2grid.plant import build_plant, verify_conservation
from h2grid.policy import (
    apply_capex_cap,
    apply_temporal_correlation,
    make_partition,
    wire_two_grid,
)
from h2grid.types import (
    CapacityBound,
    CapacitySpec,
    CoLocated,
    Mode,
    ScenarioSpec,
    Split,
    TcInterval,
    Unit,
)

from conftest import constant_series, read_back


# -- partitions ---------------------------------------------------------

def test_hourly_partition():
    assert make_partition(TcInterval.HOURLY, 5) == ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5))


def test_daily_partition_even_and_ragged():
    assert make_partition(TcInterval.DAILY, 48) == ((0, 24), (24, 48))
    assert make_partition(TcInterval.DAILY, 50) == (
        (0, 24), (24, 48), (48, 50))


def test_monthly_partition_full_year_is_calendar():
    p = make_partition(TcInterval.MONTHLY, 8760)
    assert len(p) == 12
    assert p[0] == (0, 744)        # 31-day opening month
    assert p[1] == (744, 744 + 672)  # 28-day second month
    assert p[-1][1] == 8760


def test_monthly_partition_short_horizon_uses_uniform_blocks():
    assert make_partition(TcInterval.MONTHLY, 168) == ((0, 168),)
    assert make_partition(TcInterval.MONTHLY, 1500) == ((0, 730), (730, 1460), (1460, 1500))


def test_yearly_partition_is_single_interval():
    assert make_partition(TcInterval.YEARLY, 168) == ((0, 168),)


# -- temporal correlation ----------------------------------------------

def build_flat(params, horizon=24, mode=Mode.GRID, caps=None, two_bus=False):
    rw = constant_series(0.4 * 320_000.0, Unit.KW, horizon)
    rp = constant_series(0.25 * 1_000.0, Unit.KW, horizon)
    return build_plant(params, rw, rp, caps or CapacitySpec(), mode,
                       mu_comp2=params.mu_comp2_pipeline, two_bus=two_bus)


def test_tc_adds_one_row_per_interval(params):
    model, pvars = build_flat(params)
    before = len(read_back(model).rows)
    cids = apply_temporal_correlation(model, pvars, TcInterval.DAILY)
    assert len(cids) == 1
    rows = read_back(model).rows
    assert len(rows) == before + 1
    assert rows[cids[0]].name == "tc_0_24"


def test_tc_forces_net_export_per_interval(diurnal_week, params):
    sc = ScenarioSpec("daily_tc", Mode.GRID, CoLocated("Z1"), CapacitySpec(),
                      tc_interval=TcInterval.DAILY)
    report, _ = optimize_plant(sc, params, diurnal_week)
    assert report.is_optimal
    d = report.dispatch
    for start in range(0, 168, 24):
        net = float(d.export_kw[start:start + 24].sum()
                    - d.import_kw[start:start + 24].sum())
        assert net >= -1e-4


def test_tighter_interval_never_cheaper(diurnal_week, params):
    """Feasible sets nest: every hourly-matched dispatch satisfies the
    daily constraint, and so on up to a free (unmatched) trade."""
    objectives = {}
    for name, interval in [("flex", None), ("yearly", TcInterval.YEARLY),
                           ("daily", TcInterval.DAILY),
                           ("hourly", TcInterval.HOURLY)]:
        sc = ScenarioSpec(name, Mode.GRID, CoLocated("Z1"), CapacitySpec(),
                          tc_interval=interval)
        report, _ = optimize_plant(sc, params, diurnal_week)
        assert report.is_optimal
        objectives[name] = report.objective_usd
    slack = 1e-6 * max(1.0, abs(objectives["hourly"]))
    assert objectives["flex"] <= objectives["yearly"] + slack
    assert objectives["yearly"] <= objectives["daily"] + slack
    assert objectives["daily"] <= objectives["hourly"] + slack


# -- emission cap -------------------------------------------------------

def test_emission_cap_zero_without_renewables_is_infeasible(flat_week, params):
    sc = ScenarioSpec("capped", Mode.GRID, CoLocated("Z1"),
                      CapacitySpec(wind_kw=CapacityBound(0.0, 0.0), pv_kw=CapacityBound(0.0, 0.0),
                                   storage_kg=CapacityBound(0.0, 0.0)),
                      ei_mef_cap=0.0)
    report, _ = optimize_plant(sc, params, flat_week)
    assert report.status.value == "infeasible"


def test_loose_emission_cap_changes_nothing(flat_week, params, flat_grid_only):
    base_report, _ = flat_grid_only
    sc = ScenarioSpec("capped", Mode.GRID, CoLocated("Z1"),
                      CapacitySpec(wind_kw=CapacityBound(0.0, 0.0), pv_kw=CapacityBound(0.0, 0.0),
                                   storage_kg=CapacityBound(0.0, 0.0)),
                      ei_mef_cap=1e6)
    report, _ = optimize_plant(sc, params, flat_week)
    assert report.is_optimal
    assert report.objective_usd == pytest.approx(base_report.objective_usd,
                                                 rel=1e-9)


# -- capex cap ----------------------------------------------------------

def test_capex_cap_below_minimum_build_is_infeasible(flat_week, params):
    sc = ScenarioSpec("tight", Mode.GRID, CoLocated("Z1"), CapacitySpec(),
                      capex_cap_usd=1e6)  # electrolyser alone needs ~13.6e6
    report, _ = optimize_plant(sc, params, flat_week)
    assert report.status.value == "infeasible"


def test_loose_capex_cap_changes_nothing(flat_week, params, flat_grid_only):
    base_report, _ = flat_grid_only
    sc = ScenarioSpec("loose", Mode.GRID, CoLocated("Z1"),
                      CapacitySpec(wind_kw=CapacityBound(0.0, 0.0), pv_kw=CapacityBound(0.0, 0.0),
                                   storage_kg=CapacityBound(0.0, 0.0)),
                      capex_cap_usd=1e9)
    report, _ = optimize_plant(sc, params, flat_week)
    assert report.is_optimal
    assert report.objective_usd == pytest.approx(base_report.objective_usd,
                                                 rel=1e-9)


def test_capex_cap_binding_at_exact_equality_is_feasible(contrast_week,
                                                         params):
    """A build whose cost lands on the cap to the last float must count
    as feasible. The capex_cap row's rhs is in the 1e7 range, where the
    floating-point row sum alone can miss it by about 1e-9, so
    check_feasibility holds the row to 1e-6 of max(1, |rhs|,
    max |a_ij x_j|), not to an absolute tolerance."""
    off = ScenarioSpec("offgrid", Mode.OFF_GRID, CoLocated("Z1"),
                       CapacitySpec())
    donor, _ = optimize_plant(off, params, contrast_week)
    assert donor.is_optimal
    assert donor.dispatch.c_store_kg == pytest.approx(0.0, abs=1e-6)
    from h2grid.economics import capex_usd
    cap = capex_usd(donor, params)
    sc = ScenarioSpec("exact", Mode.SELL_ONLY, CoLocated("Z1"),
                      CapacitySpec(), capex_cap_usd=cap)
    report, breakdown = optimize_plant(sc, params, contrast_week)
    assert report.is_optimal, report.message
    # with the cap exactly binding, the donor's build is the only option
    assert report.capacities["wind_kw"] == pytest.approx(
        donor.capacities["wind_kw"], rel=1e-6)


def test_capex_cap_expression_coefficients(params):
    model, pvars = build_flat(params)
    cid = apply_capex_cap(model, pvars, params, storage_unit_cost=500.0,
                          cap_usd=2e7)
    row = read_back(model).rows[cid]
    assert row.name == "capex_cap"
    assert row.rhs == 2e7
    assert row.coeffs[pvars.c_el_kw] == pytest.approx(1343.3)
    assert row.coeffs[pvars.c_wind_kw] == pytest.approx(2126.6)
    assert row.coeffs[pvars.c_pv_kw] == pytest.approx(1068.2)
    assert row.coeffs[pvars.c_store_kg] == pytest.approx(500.0)


# -- two-market rewiring -------------------------------------------------

def test_wire_two_grid_splits_the_bus(params, tmp_path):
    T = 24
    model, pvars = build_flat(params, horizon=T, two_bus=True)
    wire_two_grid(model, pvars)
    names = [row.name for row in read_back(model).rows.values()]
    assert "farm_balance_0" in names and "plant_balance_0" in names
    assert not any(name.startswith("balance_") for name in names)
    # 9 hourly plant families, soc0_cap and soc_cyclic, then 2 buses per
    # hour: every row the model holds is a row of its LP text
    assert len(names) == 9 * T + 2 + 2 * T
    model.write_lp(tmp_path / "split.lp")
    text = (tmp_path / "split.lp").read_text()
    body = text.split("Subject To\n")[1].split("Bounds\n")[0]
    assert [line.split(":")[0].strip() for line in body.splitlines()] == names


def test_split_dispatch_keeps_markets_separate(contrast_week, params):
    sc = ScenarioSpec("split", Mode.GRID, Split(sell_zone="Z2", buy_zone="Z1"),
                      CapacitySpec(), tc_interval=TcInterval.YEARLY)
    report, _ = optimize_plant(sc, params, contrast_week)
    assert report.is_optimal
    d = report.dispatch
    gen = d.gen_wind_kw + d.gen_pv_kw
    # farm side: everything generated is sold or curtailed
    assert d.export_kw + d.curtail_kw == pytest.approx(gen, abs=1e-4)
    # plant side: all consumption is imported
    consumption = d.e_el_kw + d.e_comp1_kw + d.e_comp2_kw
    assert consumption == pytest.approx(d.import_kw, abs=1e-4)
    # the summed system still conserves energy
    assert verify_conservation(d, params.load_kg_per_h) == []


def test_split_without_renewables_cannot_satisfy_yearly_tc(contrast_week,
                                                           params):
    caps = CapacitySpec(wind_kw=CapacityBound(0.0, 0.0), pv_kw=CapacityBound(0.0, 0.0),
                        storage_kg=CapacityBound(0.0, 0.0))
    sc = ScenarioSpec("split", Mode.GRID, Split(sell_zone="Z2", buy_zone="Z1"),
                      caps, tc_interval=TcInterval.YEARLY)
    report, _ = optimize_plant(sc, params, contrast_week)
    assert report.status.value == "infeasible"
