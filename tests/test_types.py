"""Unit-tagged series and parameter validation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from h2grid.ingest import _bound_json, _parse_caps
from h2grid.types import (
    CapacityBound,
    CapacitySpec,
    CoLocated,
    Dataset,
    GridProfile,
    HourlySeries,
    Mode,
    PlantParameters,
    ScenarioSpec,
    Split,
    TcInterval,
    Unit,
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
        assert len(p.spot_price) == len(p.mef) == len(p.aef) == 24

    def test_length_mismatch_reported(self):
        p = make_profile(horizon=24)
        for name in ("mef", "aef"):
            series = {name: constant_series(0.5, Unit.KGCO2E_PER_KWH, 12)}
            with pytest.raises(ValueError, match=f"^invalid profile 'Z': {name} has length "
                                                 "12, expected 24$"):
                dataclasses.replace(p, **series)

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
        assert CapacityBound() == CapacityBound(0.0, math.inf)

    def test_free_bad_order_rejected(self):
        with pytest.raises(ValueError):
            CapacityBound(5.0, 1.0)
        with pytest.raises(ValueError):
            CapacityBound(-1.0, 1.0)

    def test_fixed(self):
        assert _bound_json(CapacityBound(7.0, 7.0)) == {"fixed": 7.0}
        with pytest.raises(ValueError):
            CapacityBound(-2.0, -2.0)
        # a capacity pinned at infinity is no capacity
        with pytest.raises(ValueError, match=r"^capacity bounds \[inf, inf\] need a finite "
                                             "lower with 0 <= lower <= upper$"):
            CapacityBound(math.inf, math.inf)

    def test_spec_defaults(self):
        spec = CapacitySpec()
        assert spec.wind_kw == CapacityBound(0.0, 50_000.0)
        assert spec.storage_kg == CapacityBound(0.0, math.inf)

    @given(st.floats(), st.floats())
    def test_one_rule(self, lo, hi):
        """A bound is accepted exactly when lower is finite and 0 <= lower
        <= upper, and an accepted bound reads back from its report JSON
        as itself."""
        try:
            bound = CapacityBound(lo, hi)
        except ValueError:
            assert not (math.isfinite(lo) and 0.0 <= lo <= hi)
            return
        assert math.isfinite(lo) and 0.0 <= lo <= hi
        assert _parse_caps({"wind_kw": _bound_json(bound)}, "config").wind_kw == bound


class TestScenarioSpec:
    def test_offgrid_forbids_interval(self):
        with pytest.raises(ValueError, match="temporal"):
            ScenarioSpec("s", Mode.OFF_GRID, CoLocated("Z"), tc_interval=TcInterval.DAILY)

    def test_offgrid_forbids_split(self):
        with pytest.raises(ValueError, match="split"):
            ScenarioSpec("s", Mode.OFF_GRID, Split("A", "B"))

    def test_sell_only_forbids_split(self):
        with pytest.raises(ValueError, match="sell-only scenario cannot split zones"):
            ScenarioSpec("s", Mode.SELL_ONLY, Split("A", "B"))

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
