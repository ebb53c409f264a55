"""Emissions accounting over a solved dispatch.

Four methods: the certificate-market method (residual-mix factor with a
floor at zero and surplus certificates reported separately), the
location method (annual zone factor on net consumption), and the two
factor-tracked methods (hourly marginal and hourly average factors).
Every method takes an optional [t1, t2) batch window; the default batch
is the full horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .plant import Dispatch
from .types import GridProfile


def _window(arr, t_range: tuple[int, int] | None) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if t_range is None:
        return arr
    t1, t2 = t_range
    if not 0 <= t1 < t2 <= arr.size:
        raise ValueError(f"batch window [{t1}, {t2}) invalid for length {arr.size}")
    return arr[t1:t2]


def emissions_market(import_kw, export_kw, arpp: float, rmf: float,
                     t_range: tuple[int, int] | None = None) -> tuple[float, float]:
    """Certificate-market emissions [kgCO2e] for the batch window.

    Purchases count at the residual-mix factor after the regulated
    renewable share; each exported MWh earns a certificate that offsets a
    purchased MWh. A net-negative balance is floored at zero, and the
    surplus (negative, certificate-denominated) is returned separately.

    Returns (e_market_kg, surplus_kg) with e_market_kg >= 0 >= surplus_kg
    and at most one of them nonzero.
    """
    imp = _window(import_kw, t_range)
    exp = _window(export_kw, t_range)
    raw = (float(imp.sum()) * (1.0 - arpp) - float(exp.sum())) * rmf
    if raw >= 0.0:
        return raw, 0.0
    return 0.0, raw


def emissions_factor_tracked(import_kw, export_kw, ef_buy, ef_sell,
                             t_range: tuple[int, int] | None = None) -> float:
    """Hourly factor-tracked emissions [kgCO2e]: imports charged at the
    buy-side factor, exports credited at the sell-side factor. Pass the
    same series twice for a co-located plant."""
    imp = _window(import_kw, t_range)
    exp = _window(export_kw, t_range)
    return float(imp @ _window(ef_buy, t_range) - exp @ _window(ef_sell, t_range))


def re_capacity_factor(gen_wind, gen_pv, c_wind_kw: float, c_pv_kw: float) -> float | None:
    """Combined renewable capacity factor: produced energy over the
    horizon divided by installed capacity times hours; None when no
    renewable capacity is installed."""
    if c_wind_kw + c_pv_kw <= 0:
        return None
    gw = np.asarray(gen_wind, dtype=float)
    gp = np.asarray(gen_pv, dtype=float)
    if gw.size != gp.size:
        raise ValueError("generation series lengths differ")
    return float((gw.sum() + gp.sum()) / ((c_wind_kw + c_pv_kw) * gw.size))


@dataclass(frozen=True)
class EmissionsReport:
    """All four accounting results for one batch window, as totals and
    per-kg intensities, plus the cross-method difference metrics."""

    e_market_kg: float
    ei_market: float            # kgCO2e/kgH2, floored at 0
    ei_recs: float              # kgCO2e/kgH2, certificate surplus, <= 0
    e_location_kg: float
    ei_location: float
    e_mef_kg: float
    ei_mef: float
    e_aef_kg: float
    ei_aef: float
    d_market: float | None      # undefined when ei_mef == 0
    d_location: float | None
    annual_h2_kg: float
    recs_generated_mwh: float


def difference_metrics(report: EmissionsReport) -> tuple[float | None, float | None]:
    """Relative gaps between the marginal-factor intensity and the two
    certified intensities, (d_market, d_location); None when the marginal
    intensity is zero (below 1e-9, so rounding dust does not masquerade
    as a denominator). When the market floor triggered, the certificate
    surplus stands in for the floored market intensity."""
    if abs(report.ei_mef) < 1e-9:
        return None, None
    scale = abs(report.ei_mef)
    market = report.ei_market if report.ei_market > 0 else report.ei_recs
    return ((report.ei_mef - market) / scale,
            (report.ei_mef - report.ei_location) / scale)


def certify(dispatch: Dispatch, buy: GridProfile,
            sell: GridProfile | None = None,
            t_range: tuple[int, int] | None = None) -> EmissionsReport:
    """Run all four accounting methods over a dispatch. Imports use the
    buy zone's factors, exports the sell zone's (same zone when co-located)."""
    if sell is None:
        sell = buy
    imp, exp = dispatch.import_kw, dispatch.export_kw
    h2 = _window(dispatch.h_comp1_kg + dispatch.h_from_store_kg, t_range)
    h2_kg = float(h2.sum())
    if h2_kg <= 0:
        raise ValueError("no hydrogen delivered in the batch window")

    # market method: certificates are not zone-specific, factors come
    # from the buy side where the consumption is metered
    e_market, surplus = emissions_market(imp, exp, buy.arpp, buy.rmf, t_range)
    e_location = emissions_factor_tracked(
        imp, exp,
        np.full(imp.size, buy.ef_location), np.full(exp.size, sell.ef_location),
        t_range)
    e_mef = emissions_factor_tracked(imp, exp, buy.mef.values, sell.mef.values, t_range)
    e_aef = emissions_factor_tracked(imp, exp, buy.aef.values, sell.aef.values, t_range)
    recs = float(_window(exp, t_range).sum()) / 1000.0

    report = EmissionsReport(
        e_market_kg=e_market,
        ei_market=e_market / h2_kg,
        ei_recs=surplus / h2_kg,
        e_location_kg=e_location,
        ei_location=e_location / h2_kg,
        e_mef_kg=e_mef,
        ei_mef=e_mef / h2_kg,
        e_aef_kg=e_aef,
        ei_aef=e_aef / h2_kg,
        d_market=None,
        d_location=None,
        annual_h2_kg=h2_kg,
        recs_generated_mwh=recs,
    )
    d_market, d_location = difference_metrics(report)
    return replace(report, d_market=d_market, d_location=d_location)
