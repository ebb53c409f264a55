"""LpModel.check_feasibility against a per-row reference.

The reference walks bounds and rows one at a time, as `read_back` gives
them, with an exactly rounded sum per row and the per-row scale
max(1, |rhs|, max_j |a_ij x_j|). Both must return the same violation
messages in the same order.
"""

import math

import numpy as np
import pytest

from h2grid.economics import StorageTech, build_scenario_model
from h2grid.lp import FEASIBILITY_TOL, Sense
from conftest import read_back
from h2grid.ingest import synth_fixture
from h2grid.types import (
    CapacitySpec,
    CoLocated,
    Mode,
    PlantParameters,
    ScenarioSpec,
    TcInterval,
)

CAPEX_CAP = 2e7


def reference_violations(model, x, tol=FEASIBILITY_TOL):
    view = read_back(model)
    violations = []
    for vid, (lo, hi) in enumerate(view.bounds):
        xv = float(x[vid])
        scale = max(1.0, abs(lo) if math.isfinite(lo) else 1.0,
                    abs(hi) if math.isfinite(hi) else 1.0)
        if xv < lo - tol * scale or xv > hi + tol * scale:
            violations.append(f"variable {vid} ({view.names[vid]!r}) "
                              f"value {xv} outside [{lo}, {hi}]")
    for cid, row in view.rows.items():
        lhs = math.fsum(c * float(x[v]) for v, c in row.coeffs.items())
        scale = max(1.0, abs(row.rhs),
                    max((abs(c * float(x[v])) for v, c in row.coeffs.items()), default=0.0))
        if row.sense is Sense.LE:
            resid = lhs - row.rhs
        elif row.sense is Sense.GE:
            resid = row.rhs - lhs
        else:
            resid = abs(lhs - row.rhs)
        if resid > tol * scale:
            violations.append(f"constraint {cid} ({row.name!r}) violated by "
                              f"{resid:.3e} (lhs {lhs}, {row.sense.symbol} rhs {row.rhs})")
    return violations


def capped_model(**policies):
    scenario = ScenarioSpec("capped", Mode.GRID, CoLocated("Z1"), CapacitySpec(),
                            capex_cap_usd=CAPEX_CAP, **policies)
    return build_scenario_model(scenario, PlantParameters(),
                                synth_fixture("diurnal", 48, seed=1),
                                609.958, StorageTech.PIPELINE)


@pytest.fixture(scope="module")
def capped():
    """A grid plant under daily matching, an emission cap and a CAPEX cap
    (infeasible together at this cap), and the optimum of the same plant
    under the CAPEX cap alone: same columns, so a point of both."""
    model, pvars = capped_model(tc_interval=TcInterval.DAILY, ei_mef_cap=0.6)
    base, _ = capped_model()
    solution = base.solve()
    assert solution.is_optimal, solution.message
    assert base.num_variables == model.num_variables
    assert base.check_feasibility(solution.values) == []
    return model, pvars, solution.values


def row_id(model, name):
    return next(cid for cid, row in read_back(model).rows.items() if row.name == name)


def test_policy_rows_flagged_at_base_optimum(capped):
    model, _, x = capped
    got = model.check_feasibility(x)
    assert got == reference_violations(model, x)
    assert any("'tc_0_24'" in m for m in got)


@pytest.mark.parametrize("seed", range(4))
def test_random_points(capped, seed):
    model, _, x_opt = capped
    rng = np.random.default_rng(seed)
    x = rng.uniform(-10.0, 2e4, model.num_variables)
    assert model.check_feasibility(x) == reference_violations(model, x)
    # near the optimum, so rows fall on both sides of their tolerance
    near = x_opt * (1.0 + rng.normal(0.0, 2e-6, x_opt.size))
    got = model.check_feasibility(near)
    assert got == reference_violations(model, near)
    assert 0 < len(got) < len(read_back(model).rows)


@pytest.mark.parametrize("factor, flagged", [(0.99, False), (1.01, True)])
def test_load_row_scaled_by_its_rhs(capped, factor, flagged):
    """load_t rows have rhs 180. With the load split 90/90 between the
    pipeline and storage, the rhs sets the row's scale: a shortfall of
    0.99 * 1e-6 * 180 passes and 1.01 times that fails."""
    model, pvars, x = capped
    t = 5
    point = x.copy()
    point[pvars.h_comp1_kg[t]] = 90.0
    point[pvars.h_from_store_kg[t]] = 90.0 - factor * FEASIBILITY_TOL * 180.0
    got = model.check_feasibility(point)
    assert got == reference_violations(model, point)
    cid = row_id(model, f"load_{t}")
    assert any(m.startswith(f"constraint {cid} ") for m in got) is flagged


@pytest.mark.parametrize("factor, flagged", [(0.99, False), (1.01, True)])
def test_capex_row_scaled_by_its_rhs(capped, factor, flagged):
    """The capex_cap row has rhs 2e7, above each of its terms: adding
    storage until the row exceeds the cap by 0.99 * 1e-6 * 2e7 passes,
    1.01 times that fails."""
    model, pvars, x = capped
    cid = row_id(model, "capex_cap")
    coeffs = read_back(model).rows[cid].coeffs
    target = CAPEX_CAP * (1.0 + factor * FEASIBILITY_TOL)
    point = x.copy()
    lhs = math.fsum(c * float(x[v]) for v, c in coeffs.items())
    point[pvars.c_store_kg] += (target - lhs) / coeffs[pvars.c_store_kg]
    assert max(abs(c * point[v]) for v, c in coeffs.items()) < 0.9 * CAPEX_CAP
    got = model.check_feasibility(point)
    assert got == reference_violations(model, point)
    assert any(m.startswith(f"constraint {cid} ") for m in got) is flagged


@pytest.mark.parametrize("value, flagged", [(-0.5e-6, False), (-1.0, True)])
def test_variable_outside_bounds(capped, value, flagged):
    model, pvars, x = capped
    vid = int(pvars.import_kw[0])
    point = x.copy()
    point[vid] = value
    got = model.check_feasibility(point)
    assert got == reference_violations(model, point)
    assert any(m.startswith(f"variable {vid} ") for m in got) is flagged
