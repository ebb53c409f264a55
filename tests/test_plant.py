"""Plant model construction and solved-dispatch physics."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from h2grid.economics import StorageTech, build_scenario_model, optimize_plant
from h2grid.plant import Dispatch, PlantVars, build_plant, extract_dispatch, verify_conservation
from h2grid.types import (
    CapacityBound,
    CapacitySpec,
    CoLocated,
    Mode,
    PlantParameters,
    ScenarioSpec,
    Unit,
)

from conftest import constant_series, grid_only_scenario, read_back

KWH_PER_KG_DIRECT = 57.11571428571428  # 39.4/0.7 electrolysis + 0.83 compression
IMPORT_KW = 10280.82857142857          # 180 kg/h on the direct path
E_EL_KW = 10131.428571428572           # electrolysis share of the above


def refs(horizon, wind_cf=0.4, pv_cf=0.25):
    ref_wind = constant_series(wind_cf * 320_000.0, Unit.KW, horizon)
    ref_pv = constant_series(pv_cf * 1_000.0, Unit.KW, horizon)
    return ref_wind, ref_pv


def test_model_dimensions():
    params = PlantParameters()
    rw, rp = refs(24)
    model, pvars = build_plant(params, rw, rp, CapacitySpec(), Mode.GRID,
                               mu_comp2=params.mu_comp2_pipeline)
    # 11 hourly variables plus 4 capacities and the initial storage level
    assert model.num_variables == 11 * 24 + 5
    # 10 hourly constraint families plus soc0 bound and cyclic closure
    assert len(read_back(model).rows) == 10 * 24 + 2
    assert pvars.horizon == 24


def test_mode_bounds():
    params = PlantParameters()
    rw, rp = refs(6)
    for mode, imp_open, exp_open in [(Mode.GRID, True, True),
                                     (Mode.SELL_ONLY, False, True),
                                     (Mode.OFF_GRID, False, False)]:
        model, pvars = build_plant(params, rw, rp, CapacitySpec(), mode,
                                   mu_comp2=params.mu_comp2_pipeline)
        bounds = read_back(model).bounds
        imp_ub = bounds[pvars.import_kw[0]][1]
        exp_ub = bounds[pvars.export_kw[0]][1]
        assert (imp_ub > 0) is imp_open
        assert (exp_ub > 0) is exp_open


def test_comp2_coefficient_follows_storage_tech():
    params = PlantParameters()
    rw, rp = refs(4)
    for mu_comp2, coef in [(params.mu_comp2_pipeline, -0.83),
                           (params.mu_comp2_lrc, -1.24)]:
        model, pvars = build_plant(params, rw, rp, CapacitySpec(), Mode.GRID,
                                   mu_comp2=mu_comp2)
        [row] = [r for r in read_back(model).rows.values() if r.name == "comp2_0"]
        assert row.coeffs[pvars.h_comp2_kg[0]] == pytest.approx(coef)


def test_grid_only_direct_path(flat_grid_only):
    """With renewables and storage pinned at zero the plant must run the
    direct path: constant import at the per-kilogram electricity rate."""
    report, _ = flat_grid_only
    d = report.dispatch
    assert d.import_kw == pytest.approx(np.full(168, IMPORT_KW), rel=1e-9)
    assert d.e_el_kw == pytest.approx(np.full(168, E_EL_KW), rel=1e-9)
    assert d.h_el_kg == pytest.approx(np.full(168, 180.0), rel=1e-9)
    assert float(d.export_kw.max()) == pytest.approx(0.0, abs=1e-9)
    assert d.c_el_kw == pytest.approx(E_EL_KW, rel=1e-9)


def test_electrolyser_conversion_ratio(flat_grid_only):
    report, _ = flat_grid_only
    d = report.dispatch
    ratio = d.h_el_kg / d.e_el_kw
    assert ratio == pytest.approx(np.full(168, 0.7 / 39.4), rel=1e-9)


def test_offgrid_without_renewables_is_infeasible(flat_week, params):
    caps = CapacitySpec(wind_kw=CapacityBound(0.0, 0.0), pv_kw=CapacityBound(0.0, 0.0))
    sc = ScenarioSpec("island", Mode.OFF_GRID, CoLocated("Z1"), caps)
    report, breakdown = optimize_plant(sc, params, flat_week)
    assert not report.is_optimal
    assert breakdown is None


def test_conservation_clean_on_solved_dispatch(diurnal_week, params):
    sc = ScenarioSpec("flex", Mode.GRID, CoLocated("Z1"), CapacitySpec())
    report, _ = optimize_plant(sc, params, diurnal_week)
    assert report.is_optimal
    assert verify_conservation(report.dispatch, params.load_kg_per_h) == []


def test_conservation_flags_corruption(diurnal_week, params):
    sc = ScenarioSpec("flex", Mode.GRID, CoLocated("Z1"), CapacitySpec())
    report, _ = optimize_plant(sc, params, diurnal_week)
    d = report.dispatch
    d.soc_kg.flags.writeable = True
    d.soc_kg[3] += 50.0
    problems = verify_conservation(d, params.load_kg_per_h)
    assert problems and any("storage" in p or "soc" in p for p in problems)


def test_no_simultaneous_import_export(walk_week, params):
    """The transmission fee makes simultaneous buy and sell strictly
    dominated, so vertex solutions never do both in the same hour."""
    sc = ScenarioSpec("flex", Mode.GRID, CoLocated("Z1"), CapacitySpec())
    report, _ = optimize_plant(sc, params, walk_week)
    assert report.is_optimal
    d = report.dispatch
    overlap = np.minimum(d.import_kw, d.export_kw)
    assert float(overlap.max()) <= 1e-6


def test_curtailment_never_exceeds_generation(walk_week, params):
    sc = ScenarioSpec("flex", Mode.GRID, CoLocated("Z1"), CapacitySpec())
    report, _ = optimize_plant(sc, params, walk_week)
    d = report.dispatch
    gen = d.gen_wind_kw + d.gen_pv_kw
    assert np.all(d.curtail_kw <= gen + 1e-6)


def test_storage_cycle_closes(walk_week, params):
    """Force the plant off-grid on a volatile week so it must cycle
    storage, then check the wraparound condition."""
    sc = ScenarioSpec("island", Mode.OFF_GRID, CoLocated("Z1"), CapacitySpec())
    report, _ = optimize_plant(sc, params, walk_week)
    assert report.is_optimal
    d = report.dispatch
    assert d.c_store_kg > 1.0  # the fixture is volatile enough to need storage
    assert abs(d.soc_kg[-1] - d.soc0_kg) <= 1e-6
    assert np.all(d.soc_kg >= -1e-9)
    assert np.all(d.soc_kg <= d.c_store_kg + 1e-6)
    assert verify_conservation(d, params.load_kg_per_h) == []


def test_extract_dispatch_snaps_solver_noise(flat_week, params):
    sc = grid_only_scenario()
    model, pvars = build_scenario_model(sc, params, flat_week,
                                        u_store=609.958,
                                        tech=StorageTech.PIPELINE)
    solution = model.solve()
    assert solution.is_optimal
    d = extract_dispatch(solution, pvars)
    for arr in (d.import_kw, d.export_kw, d.curtail_kw, d.soc_kg):
        assert float(arr.min()) >= 0.0
    assert d.c_store_kg >= 0.0


def test_fixed_capacity_bounds_are_respected(flat_week, params):
    caps = CapacitySpec(wind_kw=CapacityBound(3000.0, 3000.0), pv_kw=CapacityBound(500.0, 500.0),
                        storage_kg=CapacityBound(0.0, 0.0))
    sc = ScenarioSpec("pinned", Mode.GRID, CoLocated("Z1"), caps)
    report, _ = optimize_plant(sc, params, flat_week)
    assert report.is_optimal
    assert report.dispatch.c_wind_kw == pytest.approx(3000.0, abs=1e-6)
    assert report.dispatch.c_pv_kw == pytest.approx(500.0, abs=1e-6)
    assert report.dispatch.c_store_kg == pytest.approx(0.0, abs=1e-9)


def test_every_dispatch_field_is_a_handle_or_generation():
    """extract_dispatch fills each Dispatch field from the PlantVars handle
    of its name, so a field without a handle would go unfilled; only the
    generation follows from the solved capacities."""
    handles = {f.name for f in fields(PlantVars)} - {"horizon", "a_wind", "a_pv"}
    assert {f.name for f in fields(Dispatch)} == handles | {"gen_wind_kw", "gen_pv_kw"}


def test_extract_dispatch_snaps_noise_of_either_sign(flat_week, params):
    """Values within 1e-7 of zero, of either sign, come out as exact
    zeros; 1e-6 is a quantity and is kept."""
    model, pvars = build_scenario_model(grid_only_scenario(), params, flat_week,
                                        u_store=609.958, tech=StorageTech.PIPELINE)
    solution = model.solve()
    assert solution.is_optimal
    values = solution.values.copy()
    values[pvars.soc_kg[:3]] = [1e-9, -1e-9, 1e-6]
    values[pvars.export_kw[0]] = 1e-9
    values[[pvars.c_store_kg, pvars.soc0_kg]] = [1e-9, -1e-9]
    d = extract_dispatch(replace(solution, values=values), pvars)
    assert d.soc_kg[:3].tolist() == [0.0, 0.0, 1e-6]
    assert d.export_kw[0] == 0.0 and d.c_store_kg == 0.0 and d.soc0_kg == 0.0
    for value in (*d.soc_kg[:2], d.export_kw[0], d.c_store_kg, d.soc0_kg):
        assert math.copysign(1.0, value) == 1.0  # no -0.0 either
