"""The `--export-lp` text of three small scenario models, compared byte
for byte with files under tests/data/.

The files pin the LP itself: variable and constraint order, names,
coefficients (including which exact zeros are dropped), senses,
right-hand sides and bounds. A change to how the model is assembled must
leave them unchanged; a change that means to alter the LP replaces them
and says why.
"""

from pathlib import Path

import pytest

from h2grid.economics import StorageTech, build_scenario_model, storage_unit_cost
from h2grid.ingest import synth_fixture
from h2grid.types import (
    CapacitySpec,
    CoLocated,
    Mode,
    PlantParameters,
    ScenarioSpec,
    Split,
    TcInterval,
)

DATA = Path(__file__).parent / "data"
HORIZON = 48


def grid_daily_capped():
    """Single-bus grid plant with daily matching, emission and CAPEX caps."""
    scenario = ScenarioSpec("grid_daily_capped", Mode.GRID, CoLocated("Z1"),
                            CapacitySpec(), tc_interval=TcInterval.DAILY,
                            ei_mef_cap=0.4, capex_cap_usd=2e7)
    tech = StorageTech.PIPELINE
    return scenario, synth_fixture("diurnal", HORIZON, seed=1), tech


def split_yearly():
    """Two-grid plant: the farm sells in Z2, the plant buys in Z1."""
    scenario = ScenarioSpec("split_yearly", Mode.GRID,
                            Split(sell_zone="Z2", buy_zone="Z1"),
                            CapacitySpec(), tc_interval=TcInterval.YEARLY)
    tech = StorageTech.LRC
    return scenario, synth_fixture("two-zone-contrast", HORIZON, seed=0), tech


def offgrid_night():
    """Off-grid plant on a PV profile that is zero every night, so the
    c_pv coefficient drops out of those hours' rows."""
    scenario = ScenarioSpec("offgrid_night", Mode.OFF_GRID, CoLocated("Z1"),
                            CapacitySpec())
    tech = StorageTech.PIPELINE
    return scenario, synth_fixture("diurnal", HORIZON, seed=1), tech


CASES = {f.__name__: f for f in (grid_daily_capped, split_yearly, offgrid_night)}


def write_case(name: str, path) -> None:
    scenario, dataset, tech = CASES[name]()
    model, _ = build_scenario_model(scenario, PlantParameters(), dataset,
                                    storage_unit_cost(5000.0, tech), tech)
    model.write_lp(path)


@pytest.mark.parametrize("name", sorted(CASES))
def test_lp_text_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.lp"
    write_case(name, out)
    assert out.read_bytes() == (DATA / f"{name}.lp").read_bytes()
