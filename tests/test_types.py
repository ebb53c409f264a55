"""Unit-tagged series, parameter validation, price conversion."""

import dataclasses
import json
import math

import numpy as np
import pytest

from h2grid.ingest import load_grid_profile
from h2grid.types import (
    CapacitySpec,
    CoLocated,
    Dataset,
    Fixed,
    Free,
    GridProfile,
    HourlySeries,
    Mode,
    PlantParameters,
    ScenarioSpec,
    Split,
    TcInterval,
    Unit,
    validate_profile,
)

from conftest import constant_series


def kw_series(values):
    return HourlySeries(np.asarray(values, dtype=float), Unit.KW)


class TestHourlySeries:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="hour 1"):
            kw_series([1.0, math.nan, 3.0])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="non-finite"):
            kw_series([1.0, math.inf])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            kw_series([])

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            HourlySeries(np.zeros((2, 2)), Unit.KW)

    def test_values_read_only(self):
        s = kw_series([1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_constant_series(self):
        s = constant_series(5.0, Unit.KG_PER_H, 4)
        assert len(s) == 4
        assert s.values.tolist() == [5.0] * 4
        assert s.unit is Unit.KG_PER_H


def make_profile(horizon=24, arpp=0.1872, rmf=0.81, ef=0.71, price=0.05, mef=0.5, aef=0.6):
    return GridProfile(
        zone_id="Z",
        spot_price=constant_series(price, Unit.USD_PER_KWH, horizon),
        mef=constant_series(mef, Unit.KGCO2E_PER_KWH, horizon),
        aef=constant_series(aef, Unit.KGCO2E_PER_KWH, horizon),
        ef_location=ef,
        arpp=arpp,
        rmf=rmf,
    )


class TestGridProfile:
    def test_well_formed(self):
        p = make_profile(horizon=24)
        assert validate_profile(p, 24) == []

    def test_length_mismatch_reported(self):
        p = make_profile(horizon=24)
        errors = validate_profile(p, 8760)
        assert len(errors) == 3
        assert "expected 8760" in errors[0]

    def test_arpp_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="arpp"):
            make_profile(arpp=1.2)

    def test_negative_rmf_rejected(self):
        with pytest.raises(ValueError, match="rmf"):
            make_profile(rmf=-0.1)

    def test_wrong_unit_tag_rejected(self):
        with pytest.raises(ValueError, match="spot_price"):
            GridProfile(
                zone_id="Z",
                spot_price=constant_series(0.05, Unit.KW, 4),
                mef=constant_series(0.5, Unit.KGCO2E_PER_KWH, 4),
                aef=constant_series(0.6, Unit.KGCO2E_PER_KWH, 4),
                ef_location=0.71,
                arpp=0.2,
                rmf=0.81,
            )


class TestConvertPrice:
    """Spot prices load as AUD/MWh * fx / 1000; negatives pass unclamped."""

    @staticmethod
    def load_price(tmp_path, aud_per_mwh, fx):
        path = tmp_path / "z1.csv"
        path.write_text("hour,spot_price_aud_per_mwh,mef_kgco2e_per_kwh,"
                        f"aef_kgco2e_per_kwh\n0,{aud_per_mwh},0.5,0.6\n")
        (tmp_path / "z1.meta.json").write_text(json.dumps(
            {"zone_id": "Z1", "ef_location": 0.71, "arpp": 0.2, "rmf": 0.81}))
        return load_grid_profile(path, fx_usd_per_aud=fx).spot_price.values[0]

    def test_reference_rate(self, tmp_path):
        assert self.load_price(tmp_path, 95, 0.7) == pytest.approx(0.0665, abs=1e-12)

    def test_zero(self, tmp_path):
        assert self.load_price(tmp_path, 0, 0.7) == 0.0

    def test_negative_passes_through(self, tmp_path):
        assert self.load_price(tmp_path, -50, 0.7) == pytest.approx(-0.035, abs=1e-12)


class TestPlantParameters:
    def test_defaults_valid(self):
        p = PlantParameters()
        assert p.eta_el == 0.70
        assert p.load_kg_per_h == 180.0

    def test_bad_efficiency_rejected(self):
        with pytest.raises(ValueError, match="eta_el"):
            PlantParameters(eta_el=1.5)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError, match="capex_pv"):
            PlantParameters(capex_pv=-1.0)

    def test_zero_lifetime_rejected(self):
        with pytest.raises(ValueError, match="lifetime"):
            PlantParameters(lifetime_years=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(PlantParameters)])
    def test_every_field_must_be_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            PlantParameters(**{name: value})


class TestCapacityBounds:
    def test_free_default_unbounded(self):
        assert Free().as_bounds() == (0.0, math.inf)

    def test_free_bad_order_rejected(self):
        with pytest.raises(ValueError):
            Free(5.0, 1.0)
        with pytest.raises(ValueError):
            Free(-1.0, 1.0)

    def test_fixed(self):
        assert Fixed(7.0).as_bounds() == (7.0, 7.0)
        with pytest.raises(ValueError):
            Fixed(-2.0)
        with pytest.raises(ValueError):
            Fixed(math.inf)

    def test_spec_defaults(self):
        spec = CapacitySpec()
        assert spec.wind_kw.as_bounds() == (0.0, 50_000.0)
        assert spec.storage_kg.as_bounds() == (0.0, math.inf)


class TestScenarioSpec:
    def test_offgrid_forbids_interval(self):
        with pytest.raises(ValueError, match="temporal"):
            ScenarioSpec("s", Mode.OFF_GRID, CoLocated("Z"), tc_interval=TcInterval.DAILY)

    def test_offgrid_forbids_split(self):
        with pytest.raises(ValueError, match="split"):
            ScenarioSpec("s", Mode.OFF_GRID, Split("A", "B"))

    def test_offgrid_forbids_emission_cap(self):
        with pytest.raises(ValueError, match="cap"):
            ScenarioSpec("s", Mode.OFF_GRID, CoLocated("Z"), ei_mef_cap=0.0)

    def test_grid_scenario_accepts_policies(self):
        s = ScenarioSpec("s", Mode.GRID, Split("A", "B"),
                         tc_interval=TcInterval.YEARLY, ei_mef_cap=0.0,
                         capex_cap_usd=1e8)
        assert s.tc_interval is TcInterval.YEARLY


class TestDataset:
    def test_horizon_and_lookup(self):
        ds = Dataset(
            zones={"Z": make_profile(horizon=24)},
            ref_wind=constant_series(320_000.0, Unit.KW, 24),
            ref_pv=constant_series(1000.0, Unit.KW, 24),
        )
        assert ds.horizon == 24
        assert ds.zone("Z").zone_id == "Z"
        with pytest.raises(KeyError, match="unknown zone"):
            ds.zone("Q")

    def test_zone_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="zone 'Z'"):
            Dataset(
                zones={"Z": make_profile(horizon=12)},
                ref_wind=constant_series(1.0, Unit.KW, 24),
                ref_pv=constant_series(1.0, Unit.KW, 24),
            )

    def test_ref_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="lengths differ"):
            Dataset(
                zones={},
                ref_wind=constant_series(1.0, Unit.KW, 24),
                ref_pv=constant_series(1.0, Unit.KW, 12),
            )

    def test_ref_unit_tag_rejected(self):
        with pytest.raises(ValueError, match="^ref_pv expects kW, got kg_per_h$"):
            Dataset(
                zones={},
                ref_wind=constant_series(1.0, Unit.KW, 24),
                ref_pv=constant_series(1.0, Unit.KG_PER_H, 24),
            )
